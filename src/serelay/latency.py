"""Stochastic round-trip delay models for the four access paths.

The four paths mirror the ways a reader-side command can reach the secure
element: straight over the contactless interface, through an app on the
phone, or relayed from a remote card emulator over WiFi or the internet.

Parameter defaults are fitted to the qualitative behaviour each path shows
in practice (external ~30 ms, internal 50-80 ms, WiFi adding 100-210 ms,
internet adding at least 150 ms with more than half of all round trips
above one second); they are models for experimentation, not measurements.

Each sample index has one sub-seeded generator, shared by all four paths:
every path reads its first two uniform draws, and only the internet path
draws more. The first draw is the internal-access component, so models built
from the same seed pair up sample-by-sample by construction:
``wifi.sample_at(k) - internal.sample_at(k)`` is exactly the WiFi overhead
drawn for index ``k``. :func:`sample_paths_at` gives several paths' delays
at an index from one generator; each equals what the path's own generator
would give through ``random.gauss``, ``random.uniform``, ``random.random``
and ``random.lognormvariate``.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .profile import JsonConfig


class AccessPath(str, Enum):
    DIRECT_EXTERNAL = "external"
    DIRECT_INTERNAL = "internal"
    RELAY_WIFI = "wifi"
    RELAY_INTERNET = "internet"


@dataclass(frozen=True)
class LatencyParams(JsonConfig):
    """Distribution knobs, all in milliseconds; files load like a profile's."""

    external_mean: float = 30.0
    external_sd: float = 3.0
    internal_low: float = 50.0
    internal_high: float = 80.0
    wifi_overhead_low: float = 100.0
    wifi_overhead_high: float = 210.0
    internet_floor: float = 150.0
    internet_fast_mode: float = 85.0
    internet_fast_sigma: float = 0.6
    internet_heavy_weight: float = 0.55
    internet_heavy_floor: float = 1000.0
    internet_heavy_median: float = 400.0
    internet_heavy_sigma: float = 0.8


def sample_paths_at(
    paths: Iterable[AccessPath], seed: int, index: int, params: LatencyParams
) -> dict[AccessPath, float]:
    """The delay at ``index`` of each of ``paths``, all from the index's one generator.

    The paths must be distinct: a repeated internet path would draw again.
    """
    r = random.Random(f"{seed}:{index}")
    u0 = r.random()
    u1 = r.random()
    p = params
    # random.uniform's formula on the first draw
    base = p.internal_low + (p.internal_high - p.internal_low) * u0
    delays = {}
    for path in paths:
        if path is AccessPath.DIRECT_EXTERNAL:
            # random.gauss's Box-Muller step on the first two draws
            z = math.cos(u0 * math.tau) * math.sqrt(-2.0 * math.log(1.0 - u1))
            delays[path] = max(0.0, p.external_mean + z * p.external_sd)
        elif path is AccessPath.DIRECT_INTERNAL:
            delays[path] = base
        elif path is AccessPath.RELAY_WIFI:
            spread = p.wifi_overhead_high - p.wifi_overhead_low
            delays[path] = base + (p.wifi_overhead_low + spread * u1)
        else:
            # internet: floored fast component mixed with a heavy (>=1 s) one,
            # chosen by the second draw; the log-normal draws come after it
            if u1 < p.internet_heavy_weight:
                mu = math.log(p.internet_heavy_median)
                overhead = p.internet_heavy_floor + r.lognormvariate(
                    mu, p.internet_heavy_sigma
                )
            else:
                mu = math.log(p.internet_fast_mode) + p.internet_fast_sigma**2
                overhead = p.internet_floor + r.lognormvariate(mu, p.internet_fast_sigma)
            delays[path] = base + overhead
    return delays


class LatencyModel:
    """Seeded per-round-trip delay generator for one access path."""

    def __init__(
        self,
        path: AccessPath,
        seed: int,
        params: Optional[LatencyParams] = None,
    ):
        self.path = AccessPath(path)
        self.seed = seed
        self.params = params if params is not None else LatencyParams()
        self._index = 0

    def sample_at(self, index: int) -> float:
        """Delay for the given sample index; pure in (seed, index)."""
        return sample_paths_at((self.path,), self.seed, index, self.params)[self.path]

    def sample_ms(self) -> float:
        """Next delay in the model's sequence."""
        value = self.sample_at(self._index)
        self._index += 1
        return value

    def samples(self, count: int) -> list[float]:
        return [self.sample_ms() for _ in range(count)]


class WallClock:
    """Real time; sleeps actually block."""

    def now_ms(self) -> float:
        return time.monotonic() * 1000.0

    def sleep_ms(self, duration_ms: float) -> None:
        if duration_ms > 0:
            time.sleep(duration_ms / 1000.0)


class VirtualClock:
    """Simulated time for fast, deterministic single-threaded runs."""

    def __init__(self, start_ms: float = 0.0):
        self._now = start_ms

    def now_ms(self) -> float:
        return self._now

    def sleep_ms(self, duration_ms: float) -> None:
        if duration_ms > 0:
            self._now += duration_ms

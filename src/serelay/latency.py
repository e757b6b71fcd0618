"""Stochastic round-trip delay models for the four access paths.

The four paths mirror the ways a reader-side command can reach the secure
element: straight over the contactless interface, through an app on the
phone, or relayed from a remote card emulator over WiFi or the internet.

Parameter defaults are fitted to the qualitative behaviour each path shows
in practice (external ~30 ms, internal 50-80 ms, WiFi adding 100-210 ms,
internet adding at least 150 ms with more than half of all round trips
above one second); they are models for experimentation, not measurements.

Each sample index's draws are counter-based: one BLAKE2b digest of
``f"{seed}:{index}"`` is read as four little-endian 64-bit words, and the
top 53 bits of word ``i`` give the uniform ``u_i`` in [0, 1). All four paths
share them: ``u0`` is the internal-access component, so models built from
the same seed pair up sample-by-sample by construction:
``wifi.sample_at(k) - internal.sample_at(k)`` is exactly the WiFi overhead
drawn for index ``k`` from ``u1``. The external path is a Box-Muller normal
on ``u0, u1``; the internet path picks its branch by ``u1`` and draws its
log-normal through a Box-Muller normal on ``u2, u3``. Each path's delay is
one function of the draw, shared by :func:`sample_columns` and
:meth:`LatencyModel.sample_at`. Both build the digest state of ``f"{seed}:"``
once and hash each index on a copy, never on the state itself, so a delay is
a pure function of seed, index and parameters.

The module does no I/O: a clock here only reads or moves time, and waiting
on a peer is the job of the transport that carried the frame.
"""
from __future__ import annotations

import hashlib
import math
import struct
import sys
import time
from dataclasses import dataclass, fields
from enum import Enum
from itertools import repeat
from math import cos, exp, log, sqrt, tau
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

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.name.endswith(("_median", "_mode")):
                if value <= 0:
                    raise ValueError(f"{f.name} must be > 0, got {value!r}")
            elif value < 0:
                raise ValueError(f"{f.name} must be >= 0, got {value!r}")
        for low, high in (("internal_low", "internal_high"),
                          ("wifi_overhead_low", "wifi_overhead_high")):
            lo, hi = getattr(self, low), getattr(self, high)
            if lo > hi:
                raise ValueError(f"{low} must be <= {high}, got {lo!r} > {hi!r}")
        if self.internet_heavy_weight > 1:
            raise ValueError(
                f"internet_heavy_weight must be <= 1, got {self.internet_heavy_weight!r}"
            )
        # each log-normal's exponent must not overflow exp, even at the largest |z|
        hs, fs = self.internet_heavy_sigma, self.internet_fast_sigma
        heavy_mu = math.log(self.internet_heavy_median)
        fast_mu = math.log(self.internet_fast_mode) + fs**2
        heavy = heavy_mu + hs * _Z_MAX
        fast = fast_mu + fs * _Z_MAX
        for key, value, exponent in (
            ("internet_heavy_sigma", hs, heavy),
            ("internet_fast_sigma", fs, fast),
        ):
            if exponent > math.log(sys.float_info.max):
                raise ValueError(f"{key} overflows the log-normal draw, got {value!r}")
        # each path's largest delay, summed as the sampler sums it, must be finite
        base = self.internal_low + (self.internal_high - self.internal_low)
        wifi = self.wifi_overhead_low + (self.wifi_overhead_high - self.wifi_overhead_low)
        for keys, largest in (
            ("external_mean + external_sd", self.external_mean + _Z_MAX * self.external_sd),
            ("internal_high + wifi_overhead_high", base + wifi),
            ("internal_high + internet_heavy_floor",
             base + (self.internet_heavy_floor + math.exp(heavy))),
            ("internal_high + internet_floor", base + (self.internet_floor + math.exp(fast))),
        ):
            if not math.isfinite(largest):
                raise ValueError(f"{keys} overflows the largest delay")
        # what every draw derives from the fields, computed once; not fields, so
        # eq, hash, repr and save() ignore them, and copies and pickles keep them
        for name, value in (
            ("_internal_span", self.internal_high - self.internal_low),
            ("_wifi_span", self.wifi_overhead_high - self.wifi_overhead_low),
            ("_heavy_mu", heavy_mu),
            ("_fast_mu", fast_mu),
        ):
            object.__setattr__(self, name, value)


_WORDS = struct.Struct("<4Q").unpack
_UNIT = 2.0**-53
_Z_MAX = math.sqrt(-2.0 * math.log(_UNIT))  # the largest |z| of a Box-Muller draw
_BATCH = 4096
DEFAULT_PARAMS = LatencyParams()


def _external(p: LatencyParams, u0: float, u1: float, w2: int, w3: int) -> float:
    # Box-Muller standard normal on u0, u1
    z = cos(u0 * tau) * sqrt(-2.0 * log(1.0 - u1))
    return max(0.0, p.external_mean + z * p.external_sd)


def _internal(p: LatencyParams, u0: float, u1: float, w2: int, w3: int) -> float:
    return p.internal_low + p._internal_span * u0


def _wifi(p: LatencyParams, u0: float, u1: float, w2: int, w3: int) -> float:
    return p.internal_low + p._internal_span * u0 + (p.wifi_overhead_low + p._wifi_span * u1)


def _internet(p: LatencyParams, u0: float, u1: float, w2: int, w3: int) -> float:
    # floored fast component mixed with a heavy (>=1 s) one, chosen by u1; the
    # log-normal's normal comes from u2 and u3, the top 53 bits of w2 and w3
    z = cos((w2 >> 11) * _UNIT * tau) * sqrt(-2.0 * log(1.0 - (w3 >> 11) * _UNIT))
    if u1 < p.internet_heavy_weight:
        overhead = p.internet_heavy_floor + exp(p._heavy_mu + p.internet_heavy_sigma * z)
    else:
        overhead = p.internet_floor + exp(p._fast_mu + p.internet_fast_sigma * z)
    return p.internal_low + p._internal_span * u0 + overhead


_DELAYS = {
    AccessPath.DIRECT_EXTERNAL: _external,
    AccessPath.DIRECT_INTERNAL: _internal,
    AccessPath.RELAY_WIFI: _wifi,
    AccessPath.RELAY_INTERNET: _internet,
}


def _seed_state(seed: int) -> hashlib.blake2b:
    """The digest state after ``f"{seed}:"``; each index hashes on a copy of it."""
    return hashlib.blake2b(f"{seed}:".encode(), digest_size=32)


def sample_columns(
    paths: Iterable[AccessPath], seed: int, indices: range, params: LatencyParams
) -> dict[AccessPath, list[float]]:
    """Each of ``paths``' delays at ``indices``, each index hashed once for all paths.

    Indices are drawn in batches of :data:`_BATCH`, so the digests and words
    held at once stay small however long the range is.
    """
    copy = _seed_state(seed).copy
    columns = {path: [] for path in paths}
    for start in range(0, len(indices), _BATCH):
        digests = []
        for index in indices[start:start + _BATCH]:
            h = copy()
            h.update(str(index).encode())
            digests.append(h.digest())
        words = struct.unpack(f"<{4 * len(digests)}Q", b"".join(digests))
        u0 = [(w >> 11) * _UNIT for w in words[0::4]]
        u1 = [(w >> 11) * _UNIT for w in words[1::4]]
        draws = (repeat(params), u0, u1, words[2::4], words[3::4])
        for path, column in columns.items():
            column.extend(map(_DELAYS[path], *draws))
    return columns


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
        self.params = params if params is not None else DEFAULT_PARAMS
        self._index = 0
        self._state = _seed_state(seed)
        self._delay = _DELAYS[self.path]

    def __reduce__(self):
        # a digest state does not pickle; copies and pickles rebuild it from the seed
        return type(self), (self.path, self.seed, self.params), {"_index": self._index}

    def sample_at(self, index: int) -> float:
        """Delay for the given sample index; pure in (seed, index)."""
        h = self._state.copy()
        h.update(str(index).encode())
        w0, w1, w2, w3 = _WORDS(h.digest())
        return self._delay(self.params, (w0 >> 11) * _UNIT, (w1 >> 11) * _UNIT, w2, w3)

    def sample_ms(self) -> float:
        """Next delay in the model's sequence."""
        value = self.sample_at(self._index)
        self._index += 1
        return value

    def samples(self, count: int) -> list[float]:
        """The next ``count`` delays in the model's sequence."""
        indices = range(self._index, self._index + count)
        self._index += len(indices)
        return sample_columns((self.path,), self.seed, indices, self.params)[self.path]


class WallClock:
    """Real time, read only; a socket transport does the waiting."""

    def now_ms(self) -> float:
        return time.monotonic() * 1000.0


class VirtualClock:
    """Simulated time for fast, deterministic single-threaded runs."""

    def __init__(self, start_ms: float = 0.0):
        self._now = start_ms

    def now_ms(self) -> float:
        return self._now

    def sleep_ms(self, duration_ms: float, limit_ms: float = math.inf) -> bool:
        """Move to the end of the delay or to ``limit_ms``, whichever is first."""
        if duration_ms > 0:
            self._now += min(duration_ms, limit_ms)
        return duration_ms <= limit_ms

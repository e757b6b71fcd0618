import contextlib
import copy
import hashlib
import itertools
import json
import math
import pickle
import random
import select
import socket
import statistics
import struct
import sys
import threading
import time
from bisect import bisect_right
from dataclasses import fields, replace

import pytest

from serelay import latency
from serelay.latency import (
    AccessPath,
    LatencyModel,
    LatencyParams,
    VirtualClock,
    WallClock,
    sample_columns,
)
from serelay.relay import FrameKind, SocketTransport, WireFrame

SAMPLES = 5000


def model(path: AccessPath, seed: int = 11) -> LatencyModel:
    return LatencyModel(path, seed)


class TestDistributions:
    def test_external_concentrates_near_30ms(self):
        values = model(AccessPath.DIRECT_EXTERNAL).samples(SAMPLES)
        assert 25.0 <= statistics.fmean(values) <= 35.0
        assert all(v >= 0 for v in values)
        assert statistics.pstdev(values) < 10.0

    def test_internal_stays_within_50_80(self):
        values = model(AccessPath.DIRECT_INTERNAL).samples(SAMPLES)
        assert all(50.0 <= v <= 80.0 for v in values)

    def test_wifi_overhead_in_100_210_band(self):
        internal = model(AccessPath.DIRECT_INTERNAL)
        wifi = model(AccessPath.RELAY_WIFI)
        for k in range(SAMPLES):
            added = wifi.sample_at(k) - internal.sample_at(k)
            assert 100.0 <= added <= 210.0

    def test_internet_median_above_one_second(self):
        values = model(AccessPath.RELAY_INTERNET).samples(SAMPLES)
        assert statistics.median(values) > 1000.0

    def test_internet_added_delay_floor(self):
        internal = model(AccessPath.DIRECT_INTERNAL)
        internet = model(AccessPath.RELAY_INTERNET)
        added = [
            internet.sample_at(k) - internal.sample_at(k) for k in range(SAMPLES)
        ]
        assert min(added) >= 150.0

    def test_internet_starts_around_200ms_total(self):
        values = model(AccessPath.RELAY_INTERNET).samples(SAMPLES)
        assert min(values) >= 200.0


class TestSeeding:
    def test_same_seed_same_sequence(self):
        a = model(AccessPath.RELAY_INTERNET, seed=3).samples(200)
        b = model(AccessPath.RELAY_INTERNET, seed=3).samples(200)
        assert a == b

    def test_different_seeds_differ(self):
        a = model(AccessPath.RELAY_WIFI, seed=3).samples(50)
        b = model(AccessPath.RELAY_WIFI, seed=4).samples(50)
        assert a != b

    def test_sample_at_is_pure(self):
        m = model(AccessPath.RELAY_WIFI, seed=9)
        assert m.sample_at(17) == m.sample_at(17)
        first = m.sample_ms()
        assert first == m.sample_at(0)

    def test_custom_params(self):
        params = LatencyParams(internal_low=10.0, internal_high=12.0)
        m = LatencyModel(AccessPath.DIRECT_INTERNAL, seed=0, params=params)
        assert all(10.0 <= v <= 12.0 for v in m.samples(100))


@contextlib.contextmanager
def socket_wait():
    """A socket transport and the peer end of its socketpair, closed on exit."""
    near, far = socket.socketpair()
    transport = SocketTransport(near)
    try:
        yield transport, far
    finally:
        transport.close()
        far.close()


class TestClocks:
    def test_virtual_clock_advances_on_sleep(self):
        clock = VirtualClock()
        assert clock.now_ms() == 0.0
        clock.sleep_ms(125.5)
        clock.sleep_ms(0.0)
        assert clock.now_ms() == 125.5

    def test_virtual_clock_ignores_negative(self):
        clock = VirtualClock(start_ms=10.0)
        clock.sleep_ms(-5.0)
        assert clock.now_ms() == 10.0

    def test_virtual_clock_stops_at_the_limit(self):
        clock = VirtualClock(start_ms=10.0)
        assert clock.sleep_ms(40.0, 40.0) is True  # a delay that fits its limit elapses
        assert clock.now_ms() == 50.0
        assert clock.sleep_ms(1323.7, 450.0) is False
        assert clock.now_ms() == 500.0
        assert clock.sleep_ms(0.0, 0.0) is True
        assert clock.now_ms() == 500.0

    # The wall-clock wait is the socket transport's, on its own socket.
    def test_wall_clock_sleeps(self):
        with socket_wait() as (transport, _far):
            clock = WallClock()
            before = clock.now_ms()
            assert transport.wait_ms(15.0) is True  # a quiet peer lets the delay elapse
            assert clock.now_ms() - before >= 14.0

    def test_wall_clock_stops_at_the_limit(self):
        with socket_wait() as (transport, _far):
            clock = WallClock()
            before = clock.now_ms()
            assert transport.wait_ms(5000.0, 20.0) is False
            assert 19.0 <= clock.now_ms() - before < 1000.0

    def test_zero_delay_makes_no_syscall(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a zero delay must not block")

        with socket_wait() as (transport, far):
            far.sendall(WireFrame(FrameKind.SESSION_CLOSE).encode())  # even with bytes in
            monkeypatch.setattr(select, "select", refuse)
            monkeypatch.setattr(time, "sleep", refuse)
            assert transport.wait_ms(0.0) is True

    def test_peer_close_wakes_the_wall_clock(self):
        with socket_wait() as (transport, far):
            closer = threading.Timer(0.05, far.close)
            try:
                clock = WallClock()
                before = clock.now_ms()
                closer.start()
                assert transport.wait_ms(5000.0) is False
                assert clock.now_ms() - before < 1000.0
            finally:
                closer.join()

    def test_buffered_bytes_end_the_wall_clock_wait(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("bytes already read end the wait without a select")

        with socket_wait() as (transport, far):
            raw = WireFrame(FrameKind.C_APDU, b"\x00\xa4").encode()
            far.sendall(raw + raw)
            assert transport.recv_frame(timeout_ms=2000).payload == b"\x00\xa4"
            monkeypatch.setattr(select, "select", refuse)
            assert transport.wait_ms(5000.0) is False


# The perf benchmark's zero-delay parameters and a heavy, wide-spread mix:
# together with the defaults they reach both internet branches, the
# external clamp at zero and degenerate uniform bands.
ZERO_DELAYS = LatencyParams(
    external_mean=0.0,
    external_sd=0.0,
    internal_low=0.0,
    internal_high=0.0,
    wifi_overhead_low=0.0,
    wifi_overhead_high=0.0,
    internet_floor=0.0,
    internet_heavy_floor=0.0,
)
HEAVY_WIDE = LatencyParams(internet_heavy_weight=1.0, external_sd=50.0)
PARAM_SETS = {"defaults": LatencyParams(), "zero": ZERO_DELAYS, "heavy_wide": HEAVY_WIDE}
IDENTITY_SEEDS = (0, 1, 7, 42, 12345, 2**31 + 5, -3)
GRID_DIGEST = "153063311e7ca81f3c216e21124523022d1699eca04d376d8eaaf360a91a4527"


# every field the draw's precomputed constants depend on, away from its default
CHANGED_FIELDS = {
    "internal_low": 20.0,
    "internal_high": 95.0,
    "wifi_overhead_low": 40.0,
    "wifi_overhead_high": 400.0,
    "internet_heavy_weight": 0.5,
    "internet_heavy_median": 900.0,
    "internet_fast_mode": 30.0,
    "internet_fast_sigma": 1.1,
}


def _saved_and_loaded(path):
    LatencyParams(**CHANGED_FIELDS).save(path)
    return LatencyParams.load(path)


PARAM_MAKERS = {
    "replace": lambda _path: replace(LatencyParams(), **CHANGED_FIELDS),
    "load": _saved_and_loaded,
    "copy": lambda _path: copy.copy(LatencyParams(**CHANGED_FIELDS)),
    "deepcopy": lambda _path: copy.deepcopy(LatencyParams(**CHANGED_FIELDS)),
    "pickle": lambda _path: pickle.loads(pickle.dumps(LatencyParams(**CHANGED_FIELDS))),
}


def hash_reference(path: AccessPath, seed: int, index: int, p: LatencyParams) -> float:
    """The keyed-hash draw restated from hashlib, struct and math alone."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=32).digest()
    u0, u1, u2, u3 = ((w >> 11) / 2**53 for w in struct.unpack("<4Q", digest))
    if path is AccessPath.DIRECT_EXTERNAL:
        z = math.cos(u0 * math.tau) * math.sqrt(-2.0 * math.log(1.0 - u1))
        return max(0.0, p.external_mean + z * p.external_sd)
    base = p.internal_low + (p.internal_high - p.internal_low) * u0
    if path is AccessPath.DIRECT_INTERNAL:
        return base
    if path is AccessPath.RELAY_WIFI:
        return base + (p.wifi_overhead_low + (p.wifi_overhead_high - p.wifi_overhead_low) * u1)
    z = math.cos(u2 * math.tau) * math.sqrt(-2.0 * math.log(1.0 - u3))
    if u1 < p.internet_heavy_weight:
        mu = math.log(p.internet_heavy_median)
        overhead = p.internet_heavy_floor + math.exp(mu + p.internet_heavy_sigma * z)
    else:
        mu = math.log(p.internet_fast_mode) + p.internet_fast_sigma**2
        overhead = p.internet_floor + math.exp(mu + p.internet_fast_sigma * z)
    return base + overhead


def reference_columns(paths, seed: int, indices: range, p: LatencyParams) -> dict:
    """:func:`hash_reference` at each of ``indices``, one column per distinct path."""
    return {path: [hash_reference(path, seed, k, p) for k in indices] for path in paths}


def stdlib_reference(path: AccessPath, seed: int, index: int, p: LatencyParams) -> float:
    """The Mersenne Twister stream that the keyed hash replaced.

    Each path is drawn from a generator of its own, through the stdlib calls.
    """
    r = random.Random(f"{seed}:{index}")
    if path is AccessPath.DIRECT_EXTERNAL:
        return max(0.0, r.gauss(p.external_mean, p.external_sd))
    base = r.uniform(p.internal_low, p.internal_high)
    if path is AccessPath.DIRECT_INTERNAL:
        return base
    if path is AccessPath.RELAY_WIFI:
        return base + r.uniform(p.wifi_overhead_low, p.wifi_overhead_high)
    if r.random() < p.internet_heavy_weight:
        mu = math.log(p.internet_heavy_median)
        overhead = p.internet_heavy_floor + r.lognormvariate(mu, p.internet_heavy_sigma)
    else:
        mu = math.log(p.internet_fast_mode) + p.internet_fast_sigma**2
        overhead = p.internet_floor + r.lognormvariate(mu, p.internet_fast_sigma)
    return base + overhead


def sample_grid_digest() -> str:
    """sha256 over every 7th delay of each path, seed and parameter set."""
    digest = hashlib.sha256()
    for name, params in PARAM_SETS.items():
        for seed in IDENTITY_SEEDS:
            for path in AccessPath:
                m = LatencyModel(path, seed, params)
                for k in range(0, 3000, 7):
                    digest.update(f"{name} {seed} {path.value} {k} "
                                  f"{m.sample_at(k).hex()}\n".encode())
    return digest.hexdigest()


class TestBitIdentity:
    """Seeded delays stay bit-identical to the keyed-hash draw they are defined by."""

    @pytest.mark.parametrize("seed", IDENTITY_SEEDS)
    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=PARAM_SETS.keys())
    def test_sample_at_matches_stdlib(self, seed, params):
        for path in AccessPath:
            m = LatencyModel(path, seed, params)
            for k in range(3000):
                expected = hash_reference(path, seed, k, params)
                assert m.sample_at(k) == expected, (path, seed, k)

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=PARAM_SETS.keys())
    def test_all_paths_from_one_generator(self, params):
        for seed in IDENTITY_SEEDS:
            expected = reference_columns(AccessPath, seed, range(300), params)
            assert sample_columns(AccessPath, seed, range(300), params) == expected
            # any subset, in any order, gets the same values
            subset = (AccessPath.RELAY_INTERNET, AccessPath.DIRECT_EXTERNAL)
            assert sample_columns(subset, seed, range(300), params) == {
                path: expected[path] for path in subset
            }

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=PARAM_SETS.keys())
    def test_columns_for_any_paths_in_any_order(self, params):
        subsets = [
            *itertools.permutations(AccessPath, 2),
            (AccessPath.RELAY_WIFI, AccessPath.DIRECT_INTERNAL, AccessPath.RELAY_WIFI),
            (AccessPath.RELAY_INTERNET,) * 3,
            tuple(reversed(AccessPath)),
        ]
        for seed in IDENTITY_SEEDS:
            for paths in subsets:
                columns = sample_columns(paths, seed, range(40), params)
                assert list(columns) == list(dict.fromkeys(paths))
                assert columns == reference_columns(paths, seed, range(40), params)

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=PARAM_SETS.keys())
    @pytest.mark.parametrize(
        "indices", [range(997, 1100), range(5, 5), range(42, 43)]
    )
    def test_columns_for_any_index_range(self, params, indices):
        for seed in IDENTITY_SEEDS:
            assert sample_columns(AccessPath, seed, indices, params) == reference_columns(
                AccessPath, seed, indices, params
            )

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=PARAM_SETS.keys())
    def test_columns_across_batches(self, params, monkeypatch):
        monkeypatch.setattr(latency, "_BATCH", 7)
        for seed in IDENTITY_SEEDS:
            for indices in (range(3, 40), range(0, 14), range(100, 108)):
                assert sample_columns(AccessPath, seed, indices, params) == reference_columns(
                    AccessPath, seed, indices, params
                )

    def test_columns_across_the_default_batch(self):
        indices = range(50, 50 + latency._BATCH + 100)
        assert sample_columns(AccessPath, 11, indices, LatencyParams()) == reference_columns(
            AccessPath, 11, indices, LatencyParams()
        )

    @pytest.mark.parametrize("seed", IDENTITY_SEEDS)
    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=PARAM_SETS.keys())
    def test_sample_at_out_of_order_and_repeated(self, seed, params):
        # a digest state updated in place would make each call depend on the last
        for path in AccessPath:
            m = LatencyModel(path, seed, params)
            for k in (5, 0, 5, 2999, 1, 1, 0, 10**12):
                assert m.sample_at(k) == hash_reference(path, seed, k, params), (path, k)

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=PARAM_SETS.keys())
    def test_samples_continue_the_sequence(self, params):
        for seed in IDENTITY_SEEDS:
            for path in AccessPath:
                m = LatencyModel(path, seed, params)
                drawn = [m.sample_ms(), *m.samples(3), *m.samples(0), m.sample_ms()]
                assert drawn == [m.sample_at(k) for k in range(5)]

    def test_sample_grid_digest(self):
        # captured when the draw became a keyed hash
        assert sample_grid_digest() == GRID_DIGEST

    @pytest.mark.parametrize("make", list(PARAM_MAKERS.values()), ids=list(PARAM_MAKERS))
    def test_every_way_of_making_params_draws_from_its_fields(self, make, tmp_path):
        # the draw's precomputed constants must follow the fields, never a stale copy
        params = make(tmp_path / "latency.json")
        assert params == LatencyParams(**CHANGED_FIELDS)
        for seed in IDENTITY_SEEDS:
            assert sample_columns(AccessPath, seed, range(200), params) == reference_columns(
                AccessPath, seed, range(200), params
            )

    @pytest.mark.parametrize(
        "make",
        [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copied_model_keeps_its_draw_and_position(self, make):
        m = LatencyModel(AccessPath.RELAY_INTERNET, 7, LatencyParams(**CHANGED_FIELDS))
        m.samples(3)
        c = make(m)
        assert (c.path, c.seed, c.params) == (m.path, m.seed, m.params)
        assert c.samples(2) == m.samples(2) == [m.sample_at(3), m.sample_at(4)]

    def test_save_writes_only_the_fields(self, tmp_path):
        LatencyParams(**CHANGED_FIELDS).save(tmp_path / "latency.json")
        saved = json.loads((tmp_path / "latency.json").read_text())
        assert list(saved) == [f.name for f in fields(LatencyParams)]


KS_DRAWS = 20_000


def ks_statistic(a: list[float], b: list[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the ECDFs."""
    a, b = sorted(a), sorted(b)
    return max(abs(bisect_right(a, x) / len(a) - bisect_right(b, x) / len(b)) for x in a + b)


class TestSameDistributions:
    """The keyed-hash draw keeps the distributions of the stream it replaced."""

    @pytest.mark.parametrize("path", AccessPath, ids=lambda p: p.value)
    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=PARAM_SETS.keys())
    def test_matches_stdlib_stream(self, path, params):
        new = LatencyModel(path, 2024, params).samples(KS_DRAWS)
        old = [stdlib_reference(path, 2024, k, params) for k in range(KS_DRAWS)]
        # the two-sample critical value at the 0.1% level
        assert ks_statistic(new, old) < 1.95 * math.sqrt(2 / KS_DRAWS)

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=PARAM_SETS.keys())
    def test_heavy_branch_share(self, params):
        # the branch depends on u1 alone, so lifting the heavy floor out of the
        # fast branch's reach makes every heavy draw visible by its size
        lifted = replace(params, internet_heavy_floor=1e9)
        m = LatencyModel(AccessPath.RELAY_INTERNET, 2024, lifted)
        share = sum(v >= 1e9 for v in m.samples(KS_DRAWS)) / KS_DRAWS
        assert abs(share - params.internet_heavy_weight) <= 0.01


class TestParamValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"internet_heavy_median": 0}, "internet_heavy_median must be > 0, got 0"),
            ({"internet_fast_mode": -85.0}, "internet_fast_mode must be > 0, got -85.0"),
            ({"internal_low": -5.0}, "internal_low must be >= 0, got -5.0"),
            ({"external_sd": -1.0}, "external_sd must be >= 0, got -1.0"),
            ({"internet_heavy_sigma": -0.1}, "internet_heavy_sigma must be >= 0, got -0.1"),
            ({"internet_floor": math.inf}, "internet_floor must be finite, got inf"),
            ({"external_mean": math.nan}, "external_mean must be finite, got nan"),
            ({"internet_heavy_weight": -0.5}, "internet_heavy_weight must be >= 0, got -0.5"),
            ({"internet_heavy_weight": 1.5}, "internet_heavy_weight must be <= 1, got 1.5"),
            ({"internal_low": 90.0}, "internal_low must be <= internal_high, got 90.0 > 80.0"),
            ({"wifi_overhead_high": 50.0},
             "wifi_overhead_low must be <= wifi_overhead_high, got 100.0 > 50.0"),
        ],
    )
    def test_unusable_value_names_the_key(self, kwargs, message):
        with pytest.raises(ValueError) as exc_info:
            LatencyParams(**kwargs)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"internet_heavy_weight": 0.0},
            {"internet_heavy_weight": 1.0},
            {"internal_low": 80.0},
            {"internet_heavy_median": 1e-9, "internet_fast_mode": 1e-9},
        ],
    )
    def test_edge_values_accepted(self, kwargs):
        LatencyModel(AccessPath.RELAY_INTERNET, 0, LatencyParams(**kwargs)).samples(10)

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"internet_heavy_sigma": 1000.0}, "internet_heavy_sigma"),
            ({"internet_fast_sigma": 30.0}, "internet_fast_sigma"),
            ({"internet_heavy_median": 1e308}, "internet_heavy_sigma"),
        ],
    )
    def test_overflowing_log_normal_rejected(self, kwargs, key):
        with pytest.raises(ValueError, match=f"^{key} overflows the log-normal draw"):
            LatencyParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, keys",
        [
            ({"internal_high": 1e308, "wifi_overhead_high": 1e308},
             "internal_high + wifi_overhead_high"),
            ({"external_sd": 1e308}, "external_mean + external_sd"),
            ({"internal_high": 1e308, "internet_heavy_floor": 1e308},
             "internal_high + internet_heavy_floor"),
            ({"internet_floor": 1.79e308, "internet_fast_mode": 1e305},
             "internal_high + internet_floor"),
        ],
    )
    def test_overflowing_largest_delay_rejected(self, kwargs, keys):
        # each value is finite, but the largest delay a path can draw is not
        with pytest.raises(ValueError) as exc_info:
            LatencyParams(**kwargs)
        assert str(exc_info.value) == f"{keys} overflows the largest delay"

    def test_largest_delay_bound_is_tight(self):
        # the wifi band's top sums to the largest finite float and is accepted;
        # one step further overflows
        top = sys.float_info.max / 2
        params = LatencyParams(internal_low=top, internal_high=top,
                               wifi_overhead_low=top, wifi_overhead_high=top)
        assert LatencyModel(AccessPath.RELAY_WIFI, 0, params).sample_at(0) == sys.float_info.max
        with pytest.raises(ValueError, match="^internal_high \\+ wifi_overhead_high"):
            replace(params, wifi_overhead_high=math.nextafter(top, math.inf))

    def test_sigma_bound_is_the_largest_exponent(self):
        # |z| of a Box-Muller normal on 53-bit uniforms peaks where
        # 1 - u = 2**-53 and the cosine is 1
        z_max = math.sqrt(-2.0 * math.log(2.0**-53))
        log_max = math.log(sys.float_info.max)
        median = 400.0
        sigma = (log_max - math.log(median)) / z_max
        while math.log(median) + sigma * z_max > log_max:
            sigma = math.nextafter(sigma, 0.0)
        # the largest accepted sigma still draws a finite delay at the peak |z|
        LatencyParams(internet_heavy_sigma=sigma, internet_heavy_median=median)
        assert math.isfinite(math.exp(math.log(median) + sigma * z_max))
        with pytest.raises(ValueError):
            LatencyParams(
                internet_heavy_sigma=math.nextafter(sigma, math.inf),
                internet_heavy_median=median,
            )
        # the fast branch adds sigma**2 to its exponent: 22 fits, 23 does not
        LatencyParams(internet_fast_sigma=22.0)
        assert math.isfinite(math.exp(math.log(85.0) + 22.0**2 + 22.0 * z_max))
        with pytest.raises(ValueError):
            LatencyParams(internet_fast_sigma=23.0)

    def test_default_params_shared(self):
        a = LatencyModel(AccessPath.DIRECT_INTERNAL, 0)
        b = LatencyModel(AccessPath.RELAY_WIFI, 1)
        assert a.params is b.params
        assert a.params == LatencyParams()

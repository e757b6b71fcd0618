import math
import random
from dataclasses import replace

import pytest

from serelay import bench
from serelay.apdu import CommandApdu
from serelay.bench import (
    BenchmarkError,
    BenchmarkSpec,
    Histogram,
    histogram_from_csv,
    histogram_to_csv,
    render_ascii,
    run_benchmark,
    sample_benchmark,
)
from serelay.cli import main
from serelay.latency import AccessPath, LatencyParams
from serelay.profile import CardProfile
from serelay.secure_element import (
    ISD_PREFIX_AID,
    ChannelOrigin,
    PaymentApplet,
    PpseApplet,
    SecureElement,
    WalletControlApplet,
    select_command,
)


class CountingSecureElement(SecureElement):
    calls = 0

    def process(self, origin, cmd):
        self.calls += 1
        return super().process(origin, cmd)


class TestHistogram:
    def test_default_layout(self):
        hist = Histogram()
        assert hist.bin_count == 160
        assert hist.bin_width_ms == 50.0
        assert hist.overflow_threshold_ms == 7950.0

    def test_bin_assignment(self):
        hist = Histogram(bin_width_ms=50.0, bin_count=160)
        hist.add(0.0)
        hist.add(49.999)
        hist.add(50.0)  # boundary lands in bin 1
        hist.add(7949.0)
        hist.add(7950.0)  # first overflow value
        hist.add(8000.0)
        hist.add(123456.0)
        assert hist.counts[0] == 2
        assert hist.counts[1] == 1
        assert hist.counts[158] == 1
        assert hist.counts[159] == 3
        assert hist.total == 7

    def test_boundary_rule(self):
        hist = Histogram(bin_width_ms=5.0, bin_count=30)
        for k in range(0, 29):
            hist.add(k * 5.0)
        for k, count in enumerate(hist.counts):
            assert count == (1 if k < 29 else 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram().add(-1.0)

    @pytest.mark.parametrize("delay", [math.nan, -math.inf])
    def test_nan_rejected_like_a_negative(self, delay):
        hist = Histogram()
        with pytest.raises(ValueError, match="delay must be a number >= 0"):
            hist.add(delay)
        assert hist.total == 0

    @pytest.mark.parametrize(
        "width, delay",
        [(1e-320, 5.0), (50.0, math.inf), (1e-300, 1e300), (50.0, 1e308)],
    )
    def test_overflowing_quotient_lands_in_overflow_bin(self, width, delay):
        hist = Histogram(bin_width_ms=width, bin_count=4)
        hist.add(delay)
        assert hist.counts == [0, 0, 0, 1]
        assert hist.total == 1

    def test_finite_delays_bin_as_floor_division(self):
        rng = random.Random(4)
        delays = [rng.uniform(0, 9000) for _ in range(2000)] + [k * 50.0 for k in range(170)]
        hist = Histogram()
        for delay in delays:
            hist.add(delay)
        expected = [0] * 160
        for delay in delays:
            expected[min(int(delay // 50.0), 159)] += 1
        assert hist.counts == expected

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            Histogram(bin_width_ms=0)
        with pytest.raises(ValueError):
            Histogram(bin_count=1)
        with pytest.raises(ValueError):
            Histogram(counts=[0, 0, 0], bin_count=2)


    def test_total_is_the_sum_of_given_counts(self):
        hist = Histogram(bin_count=2, counts=[3, 1])
        assert hist.total == 4
        assert render_ascii(hist).splitlines() == [
            "total=4 bins=2 width=50ms",
            f"{'0-50':>14} ms |{'#' * 60} 3",
            f"{'>=50':>14} ms |{'#' * 20} 1",
        ]
        with pytest.raises(TypeError):
            Histogram(bin_count=2, counts=[3, 1], total=99)  # no total to disagree with

    @pytest.mark.parametrize("width", [float("nan"), float("inf")])
    def test_non_finite_bin_width_rejected(self, width):
        with pytest.raises(ValueError, match="bin_width_ms must be positive and finite"):
            Histogram(bin_width_ms=width)


class TestCsv:
    def test_header_and_rows(self):
        hist = Histogram(bin_width_ms=50.0, bin_count=160)
        lines = histogram_to_csv(hist).splitlines()
        assert lines[0] == "bin_start_ms,bin_end_ms,count"
        assert len(lines) == 161  # header + one row per bin
        assert lines[1] == "0,50,0"
        assert lines[-1] == "7950,overflow,0"

    def test_empty_histogram_is_all_zero(self):
        hist = Histogram(bin_width_ms=1.0, bin_count=5)
        rows = histogram_to_csv(hist).splitlines()[1:]
        assert all(row.endswith(",0") for row in rows)

    def test_single_sample_at_zero(self):
        hist = Histogram(bin_width_ms=1.0, bin_count=5)
        hist.add(0.0)
        rows = histogram_to_csv(hist).splitlines()[1:]
        assert rows[0] == "0,1,1"

    def test_round_trip(self):
        hist = Histogram(bin_width_ms=5.0, bin_count=30)
        for v in (0.0, 4.9, 12.0, 500.0, 144.9):
            hist.add(v)
        assert histogram_from_csv(histogram_to_csv(hist)) == hist

    def test_round_trip_default_layout(self):
        hist = Histogram()
        for v in (30.0, 65.0, 7949.0, 9000.0):
            hist.add(v)
        parsed = histogram_from_csv(histogram_to_csv(hist))
        assert parsed == hist
        assert parsed.total == 4

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            histogram_from_csv("nope\n0,1,0\n1,overflow,0\n")

    def test_missing_overflow_label_rejected(self):
        with pytest.raises(ValueError):
            histogram_from_csv("bin_start_ms,bin_end_ms,count\n0,1,0\n1,2,0\n")

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="row 0 has a negative count -5"):
            histogram_from_csv("bin_start_ms,bin_end_ms,count\n0,50,-5\n50,overflow,3\n")

    @pytest.mark.parametrize("row", ["50,overflow,3,1", "50,overflow"])
    def test_row_with_wrong_field_count_rejected(self, row):
        fields = row.count(",") + 1
        with pytest.raises(ValueError, match=f"row 1 has {fields} fields, expected 3"):
            histogram_from_csv(f"bin_start_ms,bin_end_ms,count\n0,50,2\n{row}\n")


class TestRunBenchmark:
    def test_conservation(self):
        spec = BenchmarkSpec(path=AccessPath.DIRECT_EXTERNAL, repetitions=500, seed=1)
        hist = run_benchmark(spec)
        assert hist.total == 500

    def test_external_mass_in_low_bins(self):
        # zoom layout: 1 ms bins over 0-50 ms
        spec = BenchmarkSpec(
            path=AccessPath.DIRECT_EXTERNAL,
            repetitions=1000,
            seed=1,
            bin_width_ms=1.0,
            bin_count=51,
        )
        hist = run_benchmark(spec)
        assert sum(hist.counts[20:45]) > 990
        assert hist.counts[-1] == 0

    def test_internal_mass_within_50_80(self):
        spec = BenchmarkSpec(
            path=AccessPath.DIRECT_INTERNAL,
            repetitions=1000,
            seed=2,
            bin_width_ms=5.0,
            bin_count=31,
        )
        hist = run_benchmark(spec)
        # bins 10..16 cover 50-85 ms (the 80.0 boundary lands in bin 16)
        assert sum(hist.counts[10:17]) == 1000

    def test_internet_majority_above_one_second(self):
        spec = BenchmarkSpec(path=AccessPath.RELAY_INTERNET, repetitions=1000, seed=3)
        hist = run_benchmark(spec)
        above_1s = sum(hist.counts[20:])
        assert above_1s >= 500

    def test_seeded_runs_identical(self):
        spec = BenchmarkSpec(path=AccessPath.RELAY_WIFI, repetitions=300, seed=9)
        assert run_benchmark(spec).counts == run_benchmark(spec).counts

    def test_workload_command_shape(self):
        # SELECT card manager by its 7-byte name: 13-byte command, 105-byte response
        raw = select_command(ISD_PREFIX_AID).to_bytes()
        cmd = CommandApdu.parse(raw)
        assert len(raw) == 13
        assert cmd.data == bytes.fromhex("A0000000035350")
        se = SecureElement()
        se.open_session(ChannelOrigin.CONTACTLESS)
        resp = se.process(ChannelOrigin.CONTACTLESS, cmd)
        assert resp.is_success
        assert len(resp.to_bytes()) == 105

    def test_unavailable_path_aborts(self):
        # an SE without the card manager stub cannot serve the workload
        profile = CardProfile()
        se = SecureElement(
            profile=profile,
            applets=(PpseApplet(), PaymentApplet(profile), WalletControlApplet()),
        )
        spec = BenchmarkSpec(path=AccessPath.DIRECT_EXTERNAL, repetitions=10, seed=0)
        with pytest.raises(BenchmarkError):
            run_benchmark(spec, se=se)

    @pytest.mark.parametrize("repetitions", [1, 500])
    def test_one_exchange_per_run(self, repetitions):
        se = CountingSecureElement()
        spec = BenchmarkSpec(path=AccessPath.RELAY_WIFI, repetitions=repetitions, seed=0)
        assert run_benchmark(spec, se=se).total == repetitions
        assert se.calls == 1

    def test_unavailable_path_aborts_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a delay was drawn")

        monkeypatch.setattr(bench, "sample_columns", no_draw)
        profile = CardProfile()
        se = SecureElement(
            profile=profile,
            applets=(PpseApplet(), PaymentApplet(profile), WalletControlApplet()),
        )
        spec = BenchmarkSpec(path=AccessPath.DIRECT_INTERNAL, repetitions=10, seed=0)
        with pytest.raises(BenchmarkError, match="path internal unavailable"):
            run_benchmark(spec, se=se)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(repetitions=0)

    @pytest.mark.parametrize(
        "layout, message",
        [
            ({"bin_count": 1}, "bin_count must be at least 2"),
            ({"bin_count": 0}, "bin_count must be at least 2"),
            ({"bin_width_ms": 0.0}, "bin_width_ms must be positive and finite"),
            ({"bin_width_ms": math.inf}, "bin_width_ms must be positive and finite"),
            ({"bin_width_ms": math.nan}, "bin_width_ms must be positive and finite"),
        ],
    )
    def test_bad_layout_rejected_by_the_spec(self, layout, message):
        with pytest.raises(ValueError, match=message):
            BenchmarkSpec(**layout)

    def test_bad_layout_fails_before_any_draw(self, monkeypatch, capsys, tmp_path):
        def no_draw(*args):
            raise AssertionError("a delay was drawn")

        monkeypatch.setattr(bench, "sample_columns", no_draw)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            main(["bench", "--path", "all", "--bins", "1", "--reps", "300000", "--out", str(out)])
        assert exc_info.value.code == 2
        assert "bin_count must be at least 2" in capsys.readouterr().err
        assert not out.exists()


class TestSampleIndexMajor:
    def test_each_spec_equals_its_own_run(self):
        # paths with their own layouts, one twice, sampled together
        specs = [
            BenchmarkSpec(path=path, repetitions=300, seed=5, bin_width_ms=width)
            for path, width in zip(
                [*AccessPath, AccessPath.RELAY_INTERNET], [1.0, 5.0, 20.0, 50.0, 10.0]
            )
        ]
        together = sample_benchmark(specs)
        assert len(together) == len(specs)
        for spec, (hist, delays) in zip(specs, together):
            alone_hist, alone_delays = sample_benchmark([spec])[0]
            assert delays == alone_delays
            assert hist == alone_hist

    def test_specs_on_one_path_get_their_own_lists(self):
        specs = [
            BenchmarkSpec(path=AccessPath.RELAY_WIFI, repetitions=200, seed=2, bin_width_ms=width,
                          bin_count=count)
            for width, count in [(50.0, 160), (5.0, 40)]
        ]
        (hist_a, delays_a), (hist_b, delays_b) = sample_benchmark(specs)
        assert delays_a is not delays_b
        for spec, hist, delays in zip(specs, (hist_a, hist_b), (delays_a, delays_b)):
            assert (hist, delays) == sample_benchmark([spec])[0]
        unsorted = list(delays_b)
        delays_a.sort()
        assert delays_b == unsorted != delays_a

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 6), ("repetitions", 20), ("params", LatencyParams(external_sd=1.0))],
    )
    def test_specs_must_share_the_draw(self, field, value):
        first = BenchmarkSpec(path=AccessPath.DIRECT_EXTERNAL, repetitions=10, seed=5)
        other = replace(first, path=AccessPath.RELAY_WIFI, **{field: value})
        with pytest.raises(ValueError):
            sample_benchmark([first, other])

    def test_one_se_serves_every_spec(self):
        se = CountingSecureElement()
        paths = (AccessPath.DIRECT_EXTERNAL, AccessPath.RELAY_WIFI, AccessPath.DIRECT_INTERNAL)
        specs = [BenchmarkSpec(path=path, repetitions=50, seed=3) for path in paths]
        results = sample_benchmark(specs, se=se)
        assert se.calls == len(specs)
        assert results == sample_benchmark(specs)


class TestAsciiChart:
    def test_renders_occupied_bins(self):
        hist = Histogram(bin_width_ms=10.0, bin_count=5)
        hist.add(3.0)
        hist.add(3.0)
        hist.add(200.0)
        text = render_ascii(hist)
        assert "0-10" in text
        assert ">=40" in text
        assert "total=3" in text

"""The Mersenne Twister stream's pins, replayed through the stdlib reference.

Before the latency draw became a keyed hash, every seeded delay came from
``random.Random(f"{seed}:{index}")``. This module patches
:func:`serelay.latency.sample_columns` (its bindings in ``latency`` and
``bench``) and ``LatencyModel.sample_at`` with that stream, restated by
``test_latency.stdlib_reference``, and checks the report grid, the sample grid
and the bench output against the values the old code produced, kept verbatim.
Passing shows that only the draw changed: everything built on the delays makes
of the old stream exactly what it made before.
"""
import pytest

from serelay import bench, latency
from serelay.cli import main
from test_cli import sha256
from test_latency import sample_grid_digest, stdlib_reference
from test_report_identity import GOLDEN_RUNS, UNTIMED_RUNS, report_digest

REPORT_DIGEST = "a160af8da273b38159d2f781d4bf2f93296235569d655e1334459cf2a688c3b8"
UNTIMED_REPORT_DIGEST = "ddcb40a5891f19b221e07700a29706b91cf8a9e7d353c852b2aa354ad5340931"
GRID_DIGEST = "ca9f1e273eda360198440ea314f0e1f00843bc7c677a7db4954a1441b1fc6ce6"
BENCH_SUMMARY_LINES = [
    "external: reps=200 min_ms=23.2 median_ms=30.2 max_ms=39.1",
    "internal: reps=200 min_ms=50.1 median_ms=65.0 max_ms=80.0",
    "wifi: reps=200 min_ms=154.9 median_ms=220.1 max_ms=288.8",
    "internet: reps=200 min_ms=236.8 median_ms=1209.7 max_ms=4952.0 median_ms>1000: true",
]
BENCH_SUMMARY_DIGEST = "2732501c0ab0aa32c4ce535815296960bc51921a02b40c20cfe05599dc774bc9"
BENCH_OUTPUT_DIGEST = "60c8ac8968ca39c9319a062ab04c81f8177ac96e9a36820e0b19c8a9c27712c8"
BENCH_CSV_DIGESTS = {
    "external.csv": "3f4934e36cd1b700f5bfb8e73744bc0d914a17b96ac380d76c9b74eeb51cfc0c",
    "internal.csv": "a274ad57a1b1051983890b1b51294a865637f5fa80fd245c7d3cd7ae317951e4",
    "wifi.csv": "fb52e9cd29c8fcb7abc1a01fa7a8939fd1a390d59b613db08e42cd4e7fe1e290",
    "internet.csv": "19cedbf5fa49f9e235fdac378f5967b37ca6050138047d66c3adfec75089822e",
}


def old_columns(paths, seed, indices, params):
    return {path: [stdlib_reference(path, seed, k, params) for k in indices] for path in paths}


def old_sample_at(model, index):
    return stdlib_reference(model.path, model.seed, index, model.params)


@pytest.fixture(autouse=True)
def mersenne_twister_stream(monkeypatch):
    monkeypatch.setattr(latency, "sample_columns", old_columns)
    monkeypatch.setattr(bench, "sample_columns", old_columns)
    monkeypatch.setattr(latency.LatencyModel, "sample_at", old_sample_at)


def test_report_grid():
    digest, runs, outcomes, untimed = report_digest()
    assert runs == GOLDEN_RUNS
    assert runs - outcomes["timed_out"] == UNTIMED_RUNS
    assert untimed == UNTIMED_REPORT_DIGEST
    assert digest == REPORT_DIGEST


def test_sample_grid():
    assert sample_grid_digest() == GRID_DIGEST


@pytest.mark.parametrize("extra", [[]])
def test_bench_output(tmp_path, capsys, extra):
    rc = main(
        ["bench", "--path", "all", "--reps", "200", "--seed", "3", "--ascii",
         "--out", str(tmp_path), *extra]
    )
    assert rc == 0
    out = capsys.readouterr().out
    summaries = [line for line in out.splitlines() if "reps=" in line]
    assert summaries == BENCH_SUMMARY_LINES
    assert sha256("".join(line + "\n" for line in summaries)) == BENCH_SUMMARY_DIGEST
    assert sha256(out) == BENCH_OUTPUT_DIGEST
    assert {p.name: sha256(p.read_text()) for p in tmp_path.glob("*.csv")} == BENCH_CSV_DIGESTS

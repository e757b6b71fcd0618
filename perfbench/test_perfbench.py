"""Self-tests of the benchmark: tiny smoke runs, planted faults, exit codes.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from serelay import bench, scenarios
from serelay.apdu import ResponseApdu
from serelay.latency import AccessPath
from serelay.secure_element import SecureElement

import worker
from workloads import BenchHistogram, RelayTcp, ScenarioOp, SweepInproc, expected_outcome

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(cls, tmp_path, count):
    workload = cls(3, tmp_path)
    workload.ops = workload.ops[:count]
    return workload


@pytest.mark.parametrize(
    "cls, count", [(SweepInproc, 24), (BenchHistogram, 1), (RelayTcp, 3)]
)
def test_each_workload_passes_its_checks(cls, tmp_path, count):
    workload = tiny(cls, tmp_path, count)
    try:
        result = worker.measure(workload, 0, trace=False, out_dir=tmp_path)
    finally:
        workload.close()
    assert (result["attempted"], result["failed"]) == (count, 0), result["problems"]
    expected = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"}
    assert expected <= set(result["metrics"])


def test_traced_run_reports_every_per_layer_metric_and_repeats(tmp_path):
    counts = []
    for _ in range(2):
        workload = tiny(SweepInproc, tmp_path, 24)
        result = worker.measure(workload, 0, trace=True, out_dir=tmp_path)
        assert result["failed"] == 0, result["problems"]
        assert {m["name"] for m in SPEC["per_layer"]} <= set(result["metrics"])
        counts.append(
            {k: v for k, (v, unit) in result["metrics"].items() if unit in ("count", "ratio")}
        )
    assert counts[0] == counts[1]
    assert counts[0]["tlv.nodes_built"] > 0


def test_sweep_table_repeats_for_a_seed(tmp_path):
    tables = []
    for _ in range(2):
        workload = tiny(SweepInproc, tmp_path, 40)
        tables.append(worker.measure(workload, 0, trace=False, out_dir=tmp_path)["sweep_table"])
    assert tables[0] == tables[1]
    assert sum(sum(row.values()) for row in tables[0].values()) == 40


def test_closed_form_timeout_matches_the_documented_case():
    op = ScenarioOp("relay", AccessPath.RELAY_INTERNET, 500.0, "none", 7, 0)
    assert expected_outcome(op)[0] == "timed_out"
    assert expected_outcome(ScenarioOp("relay", AccessPath.RELAY_WIFI, None, "none", 7, 0)) == (
        "approved",
        None,
        5,
    )


class FlippedCvc3(SecureElement):
    """Answers COMPUTE CRYPTOGRAPHIC CHECKSUM with one track 1 CVC3 bit flipped."""

    def process(self, origin, cmd):
        resp = super().process(origin, cmd)
        if cmd.ins != 0x2A or not resp.is_success:
            return resp
        data = bytearray(resp.data)
        data[data.index(b"\x9f\x60\x02") + 3] ^= 0x01
        return ResponseApdu(bytes(data), resp.sw1, resp.sw2)


class NeverLocks(SecureElement):
    """Acknowledges the lock command but leaves the wallet unlocked."""

    def lock_wallet(self):
        pass


def test_flipped_cvc3_byte_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(scenarios, "SecureElement", FlippedCvc3)
    workload = tiny(SweepInproc, tmp_path, 40)
    approved = sum(expected_outcome(op)[0] == "approved" for op in workload.ops)
    result = worker.measure(workload, 0, trace=False, out_dir=tmp_path)
    assert approved > 0
    assert result["failed"] == approved
    assert result["metrics"]["failed_frac"][0] == approved / 40


def test_wallet_left_unlocked_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(scenarios, "SecureElement", NeverLocks)
    workload = tiny(RelayTcp, tmp_path, 2)
    result = worker.measure(workload, 0, trace=False, out_dir=tmp_path)
    assert result["failed"] == 2
    assert any("wallet left unlocked" in p for p in result["problems"])


def test_shifted_histogram_sample_counts_as_failed(tmp_path, monkeypatch):
    original = bench.Histogram.add

    def add(self, delay_ms):
        original(self, delay_ms + (bench.Histogram().bin_width_ms if self.total == 0 else 0))

    monkeypatch.setattr(bench.Histogram, "add", add)
    workload = tiny(BenchHistogram, tmp_path, 1)
    try:
        result = worker.measure(workload, 0, trace=False, out_dir=tmp_path)
    finally:
        workload.close()
    assert result["failed"] == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_inproc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

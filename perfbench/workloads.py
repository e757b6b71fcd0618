"""The benchmark's workloads: seeded inputs, one op each, and the op's checks.

Each workload is a closed loop with one client: the harness runs ``ops`` in
order as one pass, the next op only after the previous one returned, and
times ``run`` alone. Ops call serelay through module attributes
(``scenarios.run_relay_attack``), so the traced run sees the call. ``check``
runs afterwards, untimed, and returns the problems it found (an empty list
for a correct op). ``label`` names an op's
outcome for the determinism check across passes.
"""
from __future__ import annotations

import contextlib
import io
import random
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from serelay import cli, scenarios
from serelay.bench import histogram_from_csv
from serelay.latency import AccessPath, LatencyModel, LatencyParams
from serelay.profile import CardProfile, CountermeasurePolicy
from serelay.secure_element import ChannelOrigin

import oracles

PROFILE = CardProfile(
    pan=oracles.PAN,
    expiry=oracles.EXPIRY,
    service_code=oracles.SERVICE_CODE,
    discretionary=oracles.DISCRETIONARY,
    cvc3_key=oracles.CVC3_KEY,
    pin=oracles.PIN,
)

POLICIES = {
    "none": CountermeasurePolicy(),
    "pin_required": CountermeasurePolicy(require_pin_on_card=True),
    "pin_required_pin_known": CountermeasurePolicy(require_pin_on_card=True),
    "aid_internal_disabled": CountermeasurePolicy(
        internal_disabled_aids=frozenset({oracles.PREPAID_AID})
    ),
}

# cell policy -> (outcome without a timeout, reason, terminal steps exchanged)
EXPECTED = {
    "none": ("approved", None, 5),
    "pin_required": ("refused", "unlock_failed", 0),
    "pin_required_pin_known": ("approved", None, 5),
    "aid_internal_disabled": ("refused", "access_denied", 0),
    "internal_unlocked": ("approved", None, 5),
    "contactless_no_unlock": ("declined", "6985", 2),
}

OUTCOMES = ("approved", "timed_out", "declined", "refused")

# every delay of the relay path at zero, so a TCP op's wall time is host cost
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


@dataclass(frozen=True)
class ScenarioOp:
    scenario: str  # "relay" or "direct"
    path: AccessPath
    timeout_ms: Optional[float]
    policy: str
    seed: int
    atc: int

    @property
    def cell(self) -> str:
        timeout = "none" if self.timeout_ms is None else f"{self.timeout_ms:g}"
        return f"{self.scenario}/{self.path.value}/{timeout}/{self.policy}"


@dataclass
class Observation:
    outcome: str
    reason: Optional[str]
    report: object = None
    row: Optional[dict] = None
    se: object = None


def _draw(rng: random.Random) -> tuple[int, int]:
    return rng.getrandbits(32), rng.randrange(0xFFFF)


def expected_outcome(op: ScenarioOp) -> tuple[str, Optional[str], int]:
    """Outcome, reason and steps exchanged, from the closed-form timeout rule."""
    outcome, reason, steps = EXPECTED[op.policy]
    over = oracles.first_step_over(
        LatencyModel(op.path, op.seed).sample_at, steps, op.timeout_ms
    )
    if over is not None:
        return "timed_out", None, over + 1
    return outcome, reason, steps


def _observe_relay(result) -> Observation:
    if result.report is None:
        return Observation("refused", result.session_error, se=result.se)
    report = result.report
    return Observation(report.outcome, report.reason, report, report.to_dict(), result.se)


def check_observation(op: ScenarioOp, obs: Observation) -> list[str]:
    outcome, reason, steps = expected_outcome(op)
    if (obs.outcome, obs.reason) != (outcome, reason):
        return [f"{op.cell} seed {op.seed}: {obs.outcome}/{obs.reason}, expected {outcome}/{reason}"]
    problems = []
    if obs.report is not None:
        if len(obs.report.steps) != steps:
            problems.append(f"{len(obs.report.steps)} steps, expected {steps}")
        if (obs.row["outcome"], obs.row["seed"], len(obs.row["steps"])) != (
            obs.outcome,
            op.seed,
            steps,
        ):
            problems.append("report row disagrees with the report")
        if obs.outcome == "approved":
            problems += oracles.check_approved(obs.report, op.seed, op.atc)
    if op.scenario == "relay" and not obs.se.wallet_locked:
        problems.append("wallet left unlocked after the relay run")
    return [f"{op.cell} seed {op.seed}: {p}" for p in problems]


class SweepInproc:
    """In-process relay sweep plus countermeasure and direct cells."""

    name = "sweep_inproc"
    warmup_ops = 10
    max_ops_per_s = None
    ops_per_block = None
    seeds_per_grid_cell = 48
    seeds_per_countermeasure_cell = 4
    seeds_per_direct_cell = 6

    def __init__(self, seed: int, scratch: Path):
        rng = random.Random(seed)
        ops = []
        for path in (AccessPath.RELAY_WIFI, AccessPath.RELAY_INTERNET):
            for timeout in (None, 500.0, 1000.0, 2000.0):
                for _ in range(self.seeds_per_grid_cell):
                    ops.append(ScenarioOp("relay", path, timeout, "none", *_draw(rng)))
        for policy in ("pin_required", "pin_required_pin_known", "aid_internal_disabled"):
            for _ in range(self.seeds_per_countermeasure_cell):
                ops.append(ScenarioOp("relay", AccessPath.RELAY_WIFI, None, policy, *_draw(rng)))
        for policy, path in (
            ("internal_unlocked", AccessPath.DIRECT_INTERNAL),
            ("contactless_no_unlock", AccessPath.DIRECT_EXTERNAL),
        ):
            for _ in range(self.seeds_per_direct_cell):
                ops.append(ScenarioOp("direct", path, None, policy, *_draw(rng)))
        rng.shuffle(ops)
        self.ops = ops

    def params(self) -> dict:
        return {
            "ops_per_pass": len(self.ops),
            "grid": "relay wifi/internet x timeout none/500/1000/2000 ms",
            "seeds_per_grid_cell": self.seeds_per_grid_cell,
            "seeds_per_countermeasure_cell": self.seeds_per_countermeasure_cell,
            "seeds_per_direct_cell": self.seeds_per_direct_cell,
        }

    def run(self, op: ScenarioOp) -> Observation:
        if op.scenario == "relay":
            result = scenarios.run_relay_attack(
                profile=PROFILE,
                policy=POLICIES[op.policy],
                path=op.path,
                seed=op.seed,
                timeout_ms=op.timeout_ms,
                relay_pin=oracles.PIN if op.policy == "pin_required_pin_known" else None,
                atc=op.atc,
            )
            return _observe_relay(result)
        contactless = op.policy == "contactless_no_unlock"
        report = scenarios.run_pos_direct(
            origin=ChannelOrigin.CONTACTLESS if contactless else ChannelOrigin.INTERNAL,
            profile=PROFILE,
            unlock=not contactless,
            seed=op.seed,
            timeout_ms=op.timeout_ms,
            atc=op.atc,
        )
        return Observation(report.outcome, report.reason, report, report.to_dict())

    def check(self, op: ScenarioOp, obs: Observation) -> list[str]:
        return check_observation(op, obs)

    def label(self, op: ScenarioOp, obs: Observation) -> str:
        return obs.outcome

    def table(self, labels: list[str]) -> dict:
        """Outcome counts per path x timeout x policy cell for one pass."""
        table: dict[str, dict[str, int]] = {}
        for op, outcome in zip(self.ops, labels):
            row = table.setdefault(op.cell, dict.fromkeys(OUTCOMES, 0))
            row[outcome] = row.get(outcome, 0) + 1
        return dict(sorted(table.items()))

    def close(self) -> None:
        pass


class RelayTcp:
    """Relay attack over loopback TCP with every modelled delay at zero."""

    name = "relay_tcp"
    warmup_ops = 10
    ops_per_pass = 40
    # The host stalls single ops for milliseconds now and then; short blocks
    # keep such a stall to the few ops_per_s samples it falls in.
    ops_per_block = 5
    # Each op leaves one loopback socket in TIME_WAIT for about 60 s. At this
    # rate repeated runs hold a few thousand of them, well inside the
    # ephemeral port range, so the kernel's port search stays out of the result.
    max_ops_per_s = 80

    def __init__(self, seed: int, scratch: Path):
        rng = random.Random(seed)
        self.ops = [
            ScenarioOp("relay", AccessPath.RELAY_WIFI, None, "none", *_draw(rng))
            for _ in range(self.ops_per_pass)
        ]

    def params(self) -> dict:
        return {
            "ops_per_pass": len(self.ops),
            "path": "wifi",
            "latency_params": "all delays 0",
            "max_ops_per_s": self.max_ops_per_s,
        }

    def run(self, op: ScenarioOp) -> Observation:
        result = scenarios.run_relay_attack(
            profile=PROFILE,
            path=op.path,
            latency_params=ZERO_DELAYS,
            seed=op.seed,
            transport="tcp",
            atc=op.atc,
        )
        return _observe_relay(result)

    def check(self, op: ScenarioOp, obs: Observation) -> list[str]:
        alive = [t.name for t in threading.enumerate() if t.name == "relay-app"]
        problems = [f"relay thread still alive after return: {alive}"] if alive else []
        return problems + check_observation(op, obs)

    def label(self, op: ScenarioOp, obs: Observation) -> str:
        return obs.outcome

    def close(self) -> None:
        pass


class BenchHistogram:
    """`serelay bench --path all` called in-process, one call per op."""

    name = "bench_histogram"
    warmup_ops = 1
    max_ops_per_s = None
    ops_per_block = None
    ops_per_pass = 4
    reps = 1000

    def __init__(self, seed: int, scratch: Path):
        rng = random.Random(seed)
        self.ops = [rng.getrandbits(32) for _ in range(self.ops_per_pass)]
        self.out_dir = scratch / "csv"
        self._expected: dict[int, dict[str, list[int]]] = {}

    def params(self) -> dict:
        return {
            "ops_per_pass": len(self.ops),
            "argv": f"bench --path all --reps {self.reps} --seed <op seed> --out <dir>",
        }

    def run(self, op: int) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(
                ["bench", "--path", "all", "--reps", str(self.reps), "--seed", str(op),
                 "--out", str(self.out_dir)]
            )
        return status, out.getvalue()

    def expected(self, seed: int) -> dict[str, list[int]]:
        if seed not in self._expected:
            self._expected[seed] = {
                path.value: oracles.bin_counts(
                    [LatencyModel(path, seed).sample_at(k) for k in range(self.reps)]
                )
                for path in AccessPath
            }
        return self._expected[seed]

    def check(self, op: int, result: tuple[int, str]) -> list[str]:
        status, stdout = result
        problems = [] if status == 0 else [f"seed {op}: exit status {status}"]
        summaries = [line for line in stdout.splitlines() if f"reps={self.reps} " in line]
        if len(summaries) != len(AccessPath):
            problems.append(f"seed {op}: {len(summaries)} summary lines")
        for path, counts in self.expected(op).items():
            csv = self.out_dir / f"{path}.csv"
            try:
                hist = histogram_from_csv(csv.read_text())
            except (OSError, ValueError) as exc:
                problems.append(f"seed {op} {path}: {exc}")
                continue
            finally:
                csv.unlink(missing_ok=True)
            if hist.total != self.reps or hist.counts != counts:
                problems.append(f"seed {op} {path}: histogram differs from the binned samples")
        return problems

    def label(self, op: int, result: tuple[int, str]) -> str:
        return str(result[0])

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SweepInproc, BenchHistogram, RelayTcp)}

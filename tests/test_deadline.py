"""The terminal's deadline is one rule on every transport.

The session endpoint waits each modelled delay once, against the nearer of
the relay's hard ceiling and the terminal's deadline. A wait cut short never
reaches the secure element and ends the session, which locks the wallet,
before the call returns. These tests pin that rule in-process, over TCP and
across the two, and check it against the closed form of the delays.
"""
import math
import random
import threading
import time

import pytest

from serelay.latency import AccessPath, LatencyModel, LatencyParams
from serelay.scenarios import run_pos_direct, run_relay_attack
from serelay.secure_element import PPSE_AID, SecureElement, select_command
from serelay.terminal import APPROVED, CARD_REMOVED, TIMED_OUT

STEPS = 5  # an approved transaction takes five round trips


class SpySecureElement(SecureElement):
    """A secure element that records every command it processes."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.seen = []

    def process(self, origin, cmd):
        self.seen.append(cmd.to_bytes())
        return super().process(origin, cmd)


def relay_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "relay-app" and t.is_alive()]


@pytest.mark.parametrize("run", ["relay", "direct"])
def test_late_command_never_reaches_the_se(run):
    # seed 7's first internet delay is 1323.7 ms: the terminal gives up at
    # 500 ms, and the SELECT it sent is never handed to the secure element
    se = SpySecureElement(atc=7)
    kwargs = dict(se=se, seed=7, path=AccessPath.RELAY_INTERNET, timeout_ms=500)
    if run == "relay":
        report = run_relay_attack(**kwargs).report
        assert se.wallet_locked
    else:
        report = run_pos_direct(**kwargs)
    assert LatencyModel(AccessPath.RELAY_INTERNET, 7).sample_at(0) > 1300
    assert report.outcome == TIMED_OUT
    assert report.total_ms == 500.0
    assert [(s.name, s.rapdu, s.elapsed_ms) for s in report.steps] == [
        ("select_ppse", b"", 500.0)
    ]
    assert select_command(PPSE_AID).to_bytes() not in se.seen
    assert all(selected is None for selected in se.selected.values())
    assert se.atc == 7


def test_tcp_run_returns_at_the_deadline_with_the_wallet_locked():
    # every internet delay is over 6.5 s; the relay's wait ends when the
    # terminal hangs up at 500 ms, and the relay thread is gone on return
    params = LatencyParams(internet_heavy_weight=1, internet_heavy_floor=6500)
    se = SpySecureElement()
    before = relay_threads()
    started = time.monotonic()
    result = run_relay_attack(
        se=se, path=AccessPath.RELAY_INTERNET, latency_params=params, seed=7,
        timeout_ms=500, transport="tcp",
    )
    assert time.monotonic() - started < 1.5
    assert result.report.outcome == TIMED_OUT
    assert len(result.report.steps) == 1
    assert se.wallet_locked
    assert select_command(PPSE_AID).to_bytes() not in se.seen
    assert relay_threads() == before


# Zero jitter: each path draws one of at most two fixed delays, so each
# case's limits can be kept at least MARGIN_MS from every delay, and TCP
# scheduling noise cannot move an outcome. Seed 1's internet delays are 295,
# 560, 295, 295 and 560 ms; every other path's are flat.
FLAT = LatencyParams(
    external_sd=0.0,
    internal_low=60.0,
    internal_high=60.0,
    wifi_overhead_low=80.0,
    wifi_overhead_high=80.0,
    internet_fast_sigma=0.0,
    internet_heavy_sigma=0.0,
    internet_heavy_floor=400.0,
    internet_heavy_median=100.0,
)
FLAT_SEED = 1
MARGIN_MS = 50.0


def without_wall_fields(report) -> dict:
    row = report.to_dict()
    del row["total_ms"]
    for step in row["steps"]:
        del step["elapsed_ms"]
    return row


def se_state(se: SpySecureElement) -> dict:
    return {
        "wallet_locked": se.wallet_locked,
        "atc": se.atc,
        "pin_retries": se.pin_retries,
        "pin_verified": se.pin_verified,
        "selected": dict(se.selected),
        "seen": se.seen,
    }


@pytest.mark.parametrize(
    "path, timeout_ms, ceiling_ms, outcome",
    [
        (AccessPath.DIRECT_INTERNAL, None, None, APPROVED),
        (AccessPath.RELAY_WIFI, 350.0, None, TIMED_OUT),  # 140, 280 | 420
        (AccessPath.DIRECT_INTERNAL, None, 10.0, CARD_REMOVED),
        (AccessPath.RELAY_INTERNET, 500.0, 400.0, TIMED_OUT),  # 295 | 560 > 205 left
        (AccessPath.RELAY_INTERNET, 1000.0, 400.0, CARD_REMOVED),  # 295 | 560 > 400
    ],
)
def test_in_process_and_tcp_runs_agree(path, timeout_ms, ceiling_ms, outcome):
    model = LatencyModel(path, FLAT_SEED, FLAT)
    elapsed = 0.0
    for index in range(STEPS):
        delay = model.sample_at(index)
        limits = [] if ceiling_ms is None else [ceiling_ms]
        if timeout_ms is not None:
            limits.append(timeout_ms - elapsed)
        assert all(abs(delay - limit) >= MARGIN_MS for limit in limits), index
        if any(delay > limit for limit in limits):
            # where the step passes both limits, the nearer must be clearly nearer
            assert len(limits) < 2 or abs(limits[0] - limits[1]) >= MARGIN_MS
            break
        elapsed += delay
    rows, states = [], []
    for transport in ("inproc", "tcp"):
        se = SpySecureElement(atc=3)
        result = run_relay_attack(
            se=se, path=path, latency_params=FLAT, seed=FLAT_SEED, timeout_ms=timeout_ms,
            hard_ceiling_ms=ceiling_ms, transport=transport,
        )
        assert result.report.outcome == outcome, transport
        rows.append(without_wall_fields(result.report))
        states.append(se_state(se))
    assert rows[0] == rows[1]
    assert states[0] == states[1]
    assert states[0]["wallet_locked"]


def closed_form(delays, timeout_ms, ceiling_ms):
    """Outcome, steps recorded and total time, from the delays alone.

    The run stops at the first step whose delay passes the ceiling or whose
    cumulative delay passes the timeout. Where both happen at one step, the
    nearer of the two limits decides, the ceiling on a tie. A ceiling cut
    records no step, since the relay answers with an error; a deadline cut
    records the unanswered step.
    """
    starts = [0.0]  # starts[k] is when step k is sent, starts[k + 1] when it is answered
    for delay in delays:
        starts.append(starts[-1] + delay)
    over = next((k for k in range(len(delays)) if timeout_ms is not None
                 and starts[k + 1] > timeout_ms), None)
    cut = next((k for k, d in enumerate(delays) if ceiling_ms is not None
                and d > ceiling_ms), None)
    if cut is not None and (over is None or cut < over
                            or (cut == over and ceiling_ms <= timeout_ms - starts[cut])):
        return CARD_REMOVED, cut, starts[cut] + ceiling_ms
    if over is not None:
        return TIMED_OUT, over + 1, timeout_ms
    return APPROVED, len(delays), starts[-1]


def test_in_process_runs_follow_the_closed_form():
    r = random.Random(2024)
    outcomes = {APPROVED: 0, TIMED_OUT: 0, CARD_REMOVED: 0}
    both_passed = {TIMED_OUT: 0, CARD_REMOVED: 0}
    for _ in range(600):
        low = r.uniform(0, 300)
        overhead_low = r.uniform(0, 500)
        params = LatencyParams(
            internal_low=low,
            internal_high=low + r.uniform(0, 300),
            wifi_overhead_low=overhead_low,
            wifi_overhead_high=overhead_low + r.uniform(0, 500),
            internet_heavy_weight=r.random(),
        )
        path = r.choice(list(AccessPath))
        seed = r.getrandbits(32)
        timeout_ms = r.choice((None, r.uniform(50, 2000)))
        ceiling_ms = r.choice((None, r.uniform(20, 800)))
        delays = [LatencyModel(path, seed, params).sample_at(k) for k in range(STEPS)]
        outcome, steps, total_ms = closed_form(delays, timeout_ms, ceiling_ms)
        result = run_relay_attack(
            path=path, latency_params=params, seed=seed, timeout_ms=timeout_ms,
            hard_ceiling_ms=ceiling_ms,
        )
        report = result.report
        case = (path, seed, timeout_ms, ceiling_ms, delays)
        assert (report.outcome, len(report.steps)) == (outcome, steps), case
        # the deadline's budget is the timeout less the time spent, so the
        # clock lands on the timeout up to the rounding of that subtraction
        assert math.isclose(report.total_ms, total_ms, rel_tol=1e-12), case
        assert result.se.wallet_locked
        if ceiling_ms is None:
            direct = run_pos_direct(
                path=path, latency_params=params, seed=seed, timeout_ms=timeout_ms
            )
            assert direct.to_dict() == report.to_dict(), case
        outcomes[outcome] += 1
        if outcome != APPROVED and timeout_ms is not None and ceiling_ms is not None:
            last = steps if outcome == CARD_REMOVED else steps - 1
            if delays[last] > max(ceiling_ms, timeout_ms - sum(delays[:last])):
                both_passed[outcome] += 1  # the nearer of the two limits decided
    assert min(outcomes.values()) >= 40, outcomes
    assert min(both_passed.values()) >= 10, both_passed

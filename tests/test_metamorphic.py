"""Relations between runs with the same seed, which need no golden value.

Transparency: the relay "simply proxies any bits". With no terminal timeout a
relayed run and a direct run on the internal channel must exchange the same
C-APDUs and R-APDUs and end the same way; only the step times may differ.

Timeout: a run approved at one terminal timeout is approved at every larger
one and with none, and its step count never falls as the timeout grows.

Delay: widening a path's delay bands upward never approves a run that timed
out.

Countermeasures: the on-card PIN check without the PIN, or the payment AID
disabled internally, never lets a relayed run through; with the right PIN the
PIN check changes nothing the terminal sees.

Ceiling: a hard ceiling above every delay the run draws changes no report.

Transport: each relation holds over TCP too, where a run says what the same
run says in-process. There every wifi step takes one fixed time, and every
limit stays MARGIN_MS from every step, so scheduling noise moves no outcome.
"""
import math
from dataclasses import replace

import pytest

from serelay.latency import DEFAULT_PARAMS, AccessPath, LatencyModel, LatencyParams
from serelay.profile import CountermeasurePolicy
from serelay.scenarios import run_pos_direct, run_relay_attack
from serelay.secure_element import PREPAID_AID
from serelay.terminal import APPROVED

SEEDS = range(200)
RELAY_PATHS = [AccessPath.RELAY_WIFI, AccessPath.RELAY_INTERNET]
# ascending; None (no timeout) is the largest
TIMEOUTS = (300.0, 500.0, 800.0, 1000.0, 1200.0, 2000.0, None)


def flat_wifi(step_ms: float) -> LatencyParams:
    """Delays under which every wifi step takes exactly ``step_ms``."""
    return LatencyParams(
        internal_low=0.0, internal_high=0.0, wifi_overhead_low=step_ms, wifi_overhead_high=step_ms
    )


# every delay of the wifi path is 0, so a run over TCP waits for nothing
ZERO_DELAYS = flat_wifi(0.0)
STEP_MS = 100.0
MARGIN_MS = 50.0
PIN_ON_CARD = CountermeasurePolicy(require_pin_on_card=True)
REFUSING_POLICIES = [
    PIN_ON_CARD,
    CountermeasurePolicy(internal_disabled_aids=frozenset({PREPAID_AID})),
]


def exchange(report) -> tuple:
    """What a run said and how it ended, without its times."""
    steps = [(step.name, step.capdu, step.rapdu) for step in report.steps]
    return report.outcome, report.reason, steps


def over_tcp(**kwargs):
    """A relayed run over TCP, checked to say what it says in-process."""
    tcp = run_relay_attack(transport="tcp", **kwargs)
    inproc = run_relay_attack(**kwargs)
    assert tcp.session_error == inproc.session_error
    if inproc.report is not None:
        assert exchange(tcp.report) == exchange(inproc.report)
    return tcp


def clear_of_steps(step_ms: float, limit_ms: float) -> bool:
    """Whether every cumulative step time is MARGIN_MS or more from the limit."""
    return all(abs(k * step_ms - limit_ms) >= MARGIN_MS for k in range(1, 6))


@pytest.mark.parametrize("path", RELAY_PATHS)
def test_relay_is_transparent_in_process(path):
    for seed in SEEDS:
        direct = run_pos_direct(seed=seed)
        relayed = run_relay_attack(seed=seed, path=path)
        assert relayed.session_error is None, seed
        assert exchange(relayed.report) == exchange(direct), seed
        assert direct.outcome == APPROVED, seed


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_relay_is_transparent_over_tcp(seed):
    direct = run_pos_direct(seed=seed)
    relayed = run_relay_attack(
        seed=seed, path=AccessPath.RELAY_WIFI, latency_params=ZERO_DELAYS, transport="tcp"
    )
    assert relayed.session_error is None
    assert exchange(relayed.report) == exchange(direct)
    assert direct.outcome == APPROVED


@pytest.mark.parametrize("path", RELAY_PATHS)
def test_a_longer_timeout_never_undoes_an_approval(path):
    for seed in SEEDS:
        reports = [
            run_relay_attack(seed=seed, path=path, timeout_ms=timeout).report
            for timeout in TIMEOUTS
        ]
        approved = [report.approved for report in reports]
        assert approved == sorted(approved), seed  # no approval before a refusal
        steps = [len(report.steps) for report in reports]
        assert steps == sorted(steps), seed


@pytest.mark.parametrize("timeout_ms", [1000.0, 1200.0, 1400.0])
def test_longer_delays_never_approve_a_run_that_timed_out(timeout_ms):
    # at 1200 ms, 181 of the 200 base runs and 17 of the widened ones approve
    wider = replace(
        DEFAULT_PARAMS,
        **{name: 1.2 * getattr(DEFAULT_PARAMS, name) for name in (
            "internal_low", "internal_high", "wifi_overhead_low", "wifi_overhead_high")},
    )
    for seed in SEEDS:
        base = run_relay_attack(seed=seed, timeout_ms=timeout_ms)
        widened = run_relay_attack(seed=seed, timeout_ms=timeout_ms, latency_params=wider)
        assert base.approved or not widened.approved, seed


@pytest.mark.parametrize("policy", REFUSING_POLICIES, ids=["pin-on-card", "payment-aid-internal"])
@pytest.mark.parametrize("path", RELAY_PATHS)
def test_countermeasure_never_approves_a_relay(path, policy):
    for seed in SEEDS:
        assert not run_relay_attack(seed=seed, path=path, policy=policy).approved, seed


@pytest.mark.parametrize("timeout_ms", [None, 1000.0])
@pytest.mark.parametrize("path", RELAY_PATHS)
def test_known_pin_makes_the_pin_check_invisible(path, timeout_ms):
    for seed in SEEDS:
        plain = run_relay_attack(seed=seed, path=path, timeout_ms=timeout_ms)
        with_pin = run_relay_attack(
            seed=seed, path=path, timeout_ms=timeout_ms, policy=PIN_ON_CARD, relay_pin="1234"
        )
        assert with_pin.session_error is None, seed
        assert exchange(with_pin.report) == exchange(plain.report), seed


@pytest.mark.parametrize("path", RELAY_PATHS)
def test_a_ceiling_above_every_delay_changes_no_report(path):
    for seed in SEEDS:
        plain = run_relay_attack(seed=seed, path=path).report
        assert len(plain.steps) == 5, seed  # one drawn delay per step
        model = LatencyModel(path, seed)
        # the next float above the largest delay: the tightest ceiling above them all
        ceiling = math.nextafter(max(model.sample_at(index) for index in range(5)), math.inf)
        capped = run_relay_attack(seed=seed, path=path, hard_ceiling_ms=ceiling).report
        assert capped.to_dict() == plain.to_dict(), seed


def test_a_longer_timeout_never_undoes_an_approval_over_tcp():
    timeouts = (150.0, 350.0, None)
    assert all(clear_of_steps(STEP_MS, t) for t in timeouts[:-1])
    reports = [
        over_tcp(seed=1, latency_params=flat_wifi(STEP_MS), timeout_ms=t).report
        for t in timeouts
    ]
    approved = [report.approved for report in reports]
    assert approved == sorted(approved) == [False, False, True]
    steps = [len(report.steps) for report in reports]
    assert steps == sorted(steps) == [2, 4, 5]


def test_longer_delays_never_approve_a_run_that_timed_out_over_tcp():
    # 100 ms steps are answered by 500 ms; 150 ms steps pass 550 ms at the fourth
    timeout_ms = 550.0
    wider = 1.5 * STEP_MS
    assert clear_of_steps(STEP_MS, timeout_ms) and clear_of_steps(wider, timeout_ms)
    base = over_tcp(seed=1, latency_params=flat_wifi(STEP_MS), timeout_ms=timeout_ms)
    widened = over_tcp(seed=1, latency_params=flat_wifi(wider), timeout_ms=timeout_ms)
    assert base.approved and not widened.approved


@pytest.mark.parametrize("policy", REFUSING_POLICIES, ids=["pin-on-card", "payment-aid-internal"])
@pytest.mark.parametrize("seed", [1, 7])
def test_countermeasure_never_approves_a_relay_over_tcp(seed, policy):
    assert not over_tcp(seed=seed, policy=policy, latency_params=ZERO_DELAYS).approved


@pytest.mark.parametrize("seed", [1, 7])
def test_known_pin_makes_the_pin_check_invisible_over_tcp(seed):
    plain = over_tcp(seed=seed, latency_params=ZERO_DELAYS)
    with_pin = over_tcp(
        seed=seed, latency_params=ZERO_DELAYS, policy=PIN_ON_CARD, relay_pin="1234"
    )
    assert with_pin.session_error is None
    assert exchange(with_pin.report) == exchange(plain.report)


def test_a_ceiling_above_every_delay_changes_no_report_over_tcp():
    ceiling_ms = STEP_MS + MARGIN_MS
    params = flat_wifi(STEP_MS)
    capped = over_tcp(seed=1, latency_params=params, hard_ceiling_ms=ceiling_ms)
    plain = run_relay_attack(seed=1, latency_params=params)
    assert capped.approved
    assert exchange(capped.report) == exchange(plain.report)

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
# every delay of the wifi path is 0, so a run over TCP waits for nothing
ZERO_DELAYS = LatencyParams(
    internal_low=0.0, internal_high=0.0, wifi_overhead_low=0.0, wifi_overhead_high=0.0
)
PIN_ON_CARD = CountermeasurePolicy(require_pin_on_card=True)
REFUSING_POLICIES = [
    PIN_ON_CARD,
    CountermeasurePolicy(internal_disabled_aids=frozenset({PREPAID_AID})),
]


def exchange(report) -> tuple:
    """What a run said and how it ended, without its times."""
    steps = [(step.name, step.capdu, step.rapdu) for step in report.steps]
    return report.outcome, report.reason, steps


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

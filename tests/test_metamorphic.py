"""Relations between runs with the same seed, which need no golden value.

Transparency: the relay "simply proxies any bits". With no terminal timeout a
relayed run and a direct run on the internal channel must exchange the same
C-APDUs and R-APDUs and end the same way; only the step times may differ.
"""
import pytest

from serelay.latency import AccessPath, LatencyParams
from serelay.scenarios import run_pos_direct, run_relay_attack
from serelay.terminal import APPROVED

SEEDS = range(200)
# every delay of the wifi path is 0, so a run over TCP waits for nothing
ZERO_DELAYS = LatencyParams(
    internal_low=0.0, internal_high=0.0, wifi_overhead_low=0.0, wifi_overhead_high=0.0
)


def exchange(report) -> tuple:
    """What a run said and how it ended, without its times."""
    steps = [(step.name, step.capdu, step.rapdu) for step in report.steps]
    return report.outcome, report.reason, steps


@pytest.mark.parametrize("path", [AccessPath.RELAY_WIFI, AccessPath.RELAY_INTERNET])
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

"""Direct runs and relayed runs share one pipeline; these tests pin what that
promises: the same report for the same delays, and what a run leaves behind."""
import errno
import socket
import threading

import pytest

from serelay import cli, scenarios
from serelay.latency import AccessPath, LatencyParams
from serelay.profile import CardProfile, CountermeasurePolicy
from serelay.scenarios import run_pos_direct, run_relay_attack
from serelay.secure_element import ChannelOrigin, SecureElement
from serelay.terminal import APPROVED, TIMED_OUT


def test_direct_and_relayed_runs_give_the_same_report():
    # a direct run over a relay path's delays is timed and answered the way the
    # relayed run is: only the endpoint in front of the SE differs
    outcomes = {APPROVED: 0, TIMED_OUT: 0}
    for path in (AccessPath.RELAY_WIFI, AccessPath.RELAY_INTERNET):
        for seed in range(30):
            for timeout_ms in (None, 500, 1000, 2000):
                direct = run_pos_direct(seed=seed, path=path, timeout_ms=timeout_ms, atc=seed)
                relayed = run_relay_attack(seed=seed, path=path, timeout_ms=timeout_ms, atc=seed)
                assert direct.to_dict() == relayed.report.to_dict(), (path, seed, timeout_ms)
                outcomes[direct.outcome] += 1
    assert outcomes == {APPROVED: 95, TIMED_OUT: 145}


@pytest.mark.parametrize("origin", list(ChannelOrigin))
def test_direct_run_closes_its_channel(origin):
    se = SecureElement(atc=4)
    report = run_pos_direct(origin=origin, se=se, seed=1)
    assert report.outcome == APPROVED
    # the emulator's SESSION_CLOSE drops the channel, as at field-off; the
    # wallet stays as the local unlock left it
    assert se.selected[origin] is None
    assert se.pin_verified is False
    assert se.wallet_locked is False
    assert se.atc == report.atc == 5


def test_tcp_step_past_the_deadline_is_recorded_empty():
    # every exchange takes 600 ms against a 300 ms deadline: the terminal stops
    # waiting at the deadline and the first step is recorded without a reply
    params = LatencyParams(
        internal_low=0, internal_high=0, wifi_overhead_low=600, wifi_overhead_high=600
    )
    se = SecureElement(atc=9)
    relays_before = {t for t in threading.enumerate() if t.name == "relay-app"}
    result = run_relay_attack(
        se=se,
        path=AccessPath.RELAY_WIFI,
        latency_params=params,
        seed=3,
        timeout_ms=300,
        transport="tcp",
    )
    report = result.report
    assert report.outcome == TIMED_OUT
    assert len(report.steps) == 1
    step = report.steps[0]
    assert step.name == "select_ppse"
    assert step.rapdu == b"" and step.sw is None
    assert 300 <= step.elapsed_ms < 600
    assert se.wallet_locked
    assert se.atc == 9
    relays_after = {t for t in threading.enumerate() if t.name == "relay-app" and t.is_alive()}
    assert relays_after <= relays_before


def _relay_threads():
    return {t for t in threading.enumerate() if t.name == "relay-app"}


def _guarded(call) -> BaseException:
    """Run ``call`` on a worker joined with a timeout; return what it raised."""
    raised = []

    def attempt():
        try:
            call()
        except (OSError, SystemExit) as exc:
            raised.append(exc)

    worker = threading.Thread(target=attempt, daemon=True)
    worker.start()
    worker.join(timeout=5.0)
    assert not worker.is_alive(), "the run is still blocked"
    assert len(raised) == 1
    return raised[0]


def _refuse_connect(*args, **kwargs):
    raise OSError(errno.EADDRNOTAVAIL, "Cannot assign requested address")


@pytest.mark.parametrize("connect", ["fails", "goes_elsewhere"])
def test_tcp_run_whose_loopback_join_fails_raises_and_leaves_nothing(monkeypatch, connect):
    # a connect that fails (say EADDRNOTAVAIL once ephemeral ports run out) or
    # never reaches the listener must not leave the run blocked in accept
    listeners, strays = [], []
    create_server = socket.create_server

    def recording_create_server(*args, **kwargs):
        listeners.append(create_server(*args, **kwargs))
        return listeners[-1]

    def connect_elsewhere(*args, **kwargs):
        strays.extend(socket.socketpair())
        return strays[0]

    monkeypatch.setattr(scenarios.socket, "create_server", recording_create_server)
    if connect == "fails":
        monkeypatch.setattr(scenarios.socket, "create_connection", _refuse_connect)
    else:
        monkeypatch.setattr(scenarios.socket, "create_connection", connect_elsewhere)
        monkeypatch.setattr(scenarios, "CONNECT_TIMEOUT_S", 0.2)
    relays_before = _relay_threads()
    try:
        raised = _guarded(lambda: run_relay_attack(seed=1, transport="tcp"))
        assert isinstance(raised, OSError)
        assert [listener.fileno() for listener in listeners] == [-1]
        # the relay end of a connect that went elsewhere is closed as well
        assert all(sock.fileno() == -1 for sock in strays[:1])
        assert _relay_threads() == relays_before
    finally:
        for sock in strays:
            sock.close()


def test_failed_loopback_join_is_a_usage_error_at_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(scenarios.socket, "create_connection", _refuse_connect)
    raised = _guarded(lambda: cli.main(["relay-attack", "--seed", "1", "--transport", "tcp"]))
    assert isinstance(raised, SystemExit) and raised.code == 2
    assert "Cannot assign requested address" in capsys.readouterr().err


@pytest.mark.parametrize("run", [run_pos_direct, run_relay_attack])
@pytest.mark.parametrize(
    "card",
    [
        {"profile": CardProfile()},
        {"policy": CountermeasurePolicy(require_pin_on_card=True)},
        {"atc": 9},
    ],
    ids=["profile", "policy", "atc"],
)
def test_a_card_given_two_ways_is_refused(run, card):
    # with se= the other card options used to be dropped: the PIN policy
    # was never applied and the relay approved
    se = SecureElement()
    with pytest.raises(ValueError, match="pass se or profile/policy/atc, not both"):
        run(se=se, seed=1, **card)
    assert se.atc == 0


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_pin_that_is_not_ascii_is_refused_before_any_session(transport):
    # the VERIFY command used to be built at session open: over TCP the
    # relay-app thread died on it and the run reported the relay unreachable
    relays_before = _relay_threads()
    with pytest.raises(ValueError, match="ascii"):
        run_relay_attack(seed=7, relay_pin="12\u00e94", transport=transport)
    assert _relay_threads() == relays_before


PIN_RUNS = {
    "relay-inproc": lambda pin: run_relay_attack(seed=7, relay_pin=pin),
    "relay-tcp": lambda pin: run_relay_attack(seed=7, relay_pin=pin, transport="tcp"),
    "direct": lambda pin: run_pos_direct(seed=7, pin=pin),
}


@pytest.mark.parametrize("pin", ["12\u00e94", "12"], ids=["not-ascii", "too-short"])
@pytest.mark.parametrize("run", list(PIN_RUNS.values()), ids=list(PIN_RUNS))
def test_a_pin_verify_cannot_carry_is_refused_by_its_rule(run, pin):
    # a non-ASCII PIN used to fail with the codec's own text, naming neither
    # the PIN nor the rule, and a two-digit one reached the card
    relays_before = _relay_threads()
    with pytest.raises(ValueError, match=f"^pin must be 4-8 decimal digits .*{pin!r}$"):
        run(pin)
    assert _relay_threads() == relays_before

import contextlib
import dataclasses
import errno
import math
import random
import select
import socket
import threading
import time
import types

import pytest

from genutil import SELECT_PPSE_C, SELECT_PPSE_R, SELECT_WALLET_C, UNLOCK_C
from serelay.apdu import CommandApdu
from serelay.cli import main
from serelay.hexutil import format_hex, parse_hex
from serelay.latency import AccessPath, LatencyModel, LatencyParams
from serelay.profile import CountermeasurePolicy
from serelay.relay import (
    ActivationRefused,
    CardEmulator,
    CardRemoved,
    ErrorReason,
    ExchangeTimeout,
    FrameKind,
    InProcessTransport,
    RelayApp,
    RelayProtocolError,
    RemoteSecureElement,
    SecureElementHost,
    SocketTransport,
    TransportClosed,
    WireFrame,
    connect,
    error_frame,
    se_exchange,
)
from serelay.scenarios import run_relay_attack
from serelay.secure_element import PREPAID_AID, WALLET_AID, ChannelOrigin, SecureElement


class TestWireFrame:
    def test_layout(self):
        frame = WireFrame(FrameKind.C_APDU, b"\x00\xa4")
        assert frame.encode() == b"\x03\x00\x02\x00\xa4"

    def test_empty_payload_layout(self):
        assert WireFrame(FrameKind.SESSION_OPEN).encode() == b"\x01\x00\x00"

    def test_round_trip(self):
        frame = WireFrame(FrameKind.R_APDU, bytes(range(40)))
        assert WireFrame.decode(frame.encode()) == frame

    def test_open_close_must_be_empty(self):
        with pytest.raises(RelayProtocolError):
            WireFrame(FrameKind.SESSION_CLOSE, b"\x01")

    def test_unknown_kind_rejected(self):
        with pytest.raises(RelayProtocolError):
            WireFrame.decode(b"\x7f\x00\x00")

    def test_every_first_byte_names_its_kind_or_none(self):
        kinds = {kind.value: kind for kind in FrameKind}
        for byte in range(256):
            if byte in kinds:
                assert WireFrame.decode(bytes((byte, 0, 0))).kind is kinds[byte]
            else:
                with pytest.raises(RelayProtocolError, match=f"unknown frame kind {byte:#04x}"):
                    WireFrame.decode(bytes((byte, 0, 0)))

    def test_truncated_rejected(self):
        with pytest.raises(RelayProtocolError):
            WireFrame.decode(b"\x03\x00\x05\x01")

    def test_trailing_bytes_rejected(self):
        with pytest.raises(RelayProtocolError):
            WireFrame.decode(b"\x01\x00\x00\xff")

    def test_error_frame_reason(self):
        frame = error_frame(ErrorReason.UNLOCK_FAILED, "sw=6985")
        assert frame.kind is FrameKind.ERROR
        assert frame.payload[0] == ErrorReason.UNLOCK_FAILED

    def test_kind_and_payload_are_converted(self):
        frame = WireFrame(3, bytearray(b"x"))
        assert frame.kind is FrameKind.C_APDU
        assert type(frame.payload) is bytes
        assert frame == WireFrame(FrameKind.C_APDU, b"x")
        assert hash(frame) == hash(WireFrame(FrameKind.C_APDU, b"x"))
        assert frame != WireFrame(FrameKind.R_APDU, b"x")

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError):
            WireFrame(0x09)

    @pytest.mark.parametrize("kind", [FrameKind.SESSION_OPEN, 0x01])
    def test_open_must_be_empty(self, kind):
        with pytest.raises(RelayProtocolError):
            WireFrame(kind, b"x")

    def test_payload_length_limit(self):
        assert len(WireFrame(FrameKind.C_APDU, bytes(0xFFFF)).payload) == 0xFFFF
        with pytest.raises(RelayProtocolError):
            WireFrame(FrameKind.C_APDU, bytes(0x10000))

    def test_fields_cannot_be_reassigned(self):
        frame = WireFrame(FrameKind.C_APDU, b"x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            frame.payload = b"y"
        with pytest.raises(dataclasses.FrozenInstanceError):
            frame.kind = FrameKind.R_APDU


def make_pair(policy=None, se=None, **relay_kwargs):
    se = se if se is not None else SecureElement(policy=policy)
    relay = RelayApp(se, **relay_kwargs)
    emulator = CardEmulator(InProcessTransport(relay))
    return se, relay, emulator


class TestRelaySession:
    def test_open_unlocks_and_acks(self):
        se, relay, emulator = make_pair()
        emulator.activate_field()
        assert relay.session_open
        assert not se.wallet_locked

    def test_relayed_select_ppse_is_verbatim(self):
        _, _, emulator = make_pair()
        emulator.activate_field()
        reply = emulator.exchange(parse_hex(SELECT_PPSE_C))
        assert format_hex(reply) == SELECT_PPSE_R

    def test_close_locks_wallet(self):
        se, relay, emulator = make_pair()
        emulator.activate_field()
        assert not se.wallet_locked
        emulator.deactivate_field()
        assert se.wallet_locked
        assert not relay.session_open

    def test_transport_loss_locks_wallet(self):
        se, relay, emulator = make_pair()
        emulator.activate_field()
        emulator.transport.close()  # abrupt loss, no SESSION_CLOSE
        assert se.wallet_locked
        assert not relay.session_open

    def test_apdu_requires_open_session(self):
        _, relay, emulator = make_pair()
        replies = relay.handle_frame(
            WireFrame(FrameKind.C_APDU, b"\x00\x00\x00\x00"), emulator.transport
        )
        assert replies[0].kind is FrameKind.ERROR

    def test_double_open_errors(self):
        _, relay, emulator = make_pair()
        emulator.activate_field()
        replies = relay.handle_frame(WireFrame(FrameKind.SESSION_OPEN), emulator.transport)
        assert replies[0].kind is FrameKind.ERROR

    def test_exchange_without_activation(self):
        _, _, emulator = make_pair()
        with pytest.raises(CardRemoved):
            emulator.exchange(b"\x00\x00\x00\x00")

    def test_malformed_relayed_apdu_answers_6700(self):
        _, _, emulator = make_pair()
        emulator.activate_field()
        reply = emulator.exchange(b"\x00")
        assert reply == b"\x67\x00"

    def test_same_malformed_command_answers_6700_every_time(self):
        # the command memo stores no failure
        se = SecureElement()
        lc_overrun = b"\x00\xa4\x04\x00\x05\x01"
        for _ in range(2):
            assert se_exchange(se, ChannelOrigin.INTERNAL, lc_overrun) == b"\x67\x00"
        reply = se_exchange(se, ChannelOrigin.INTERNAL, parse_hex(SELECT_PPSE_C))
        assert reply == parse_hex(SELECT_PPSE_R)


class TestOpenFailures:
    def test_pin_policy_blocks_unlock(self):
        policy = CountermeasurePolicy(require_pin_on_card=True)
        se, relay, emulator = make_pair(policy=policy)
        with pytest.raises(ActivationRefused) as exc_info:
            emulator.activate_field()
        assert exc_info.value.reason == "unlock_failed"
        assert se.wallet_locked
        assert not relay.session_open

    def test_pin_policy_bypassed_with_known_pin(self):
        policy = CountermeasurePolicy(require_pin_on_card=True)
        se, _, emulator = make_pair(policy=policy, pin="1234")
        emulator.activate_field()
        assert not se.wallet_locked

    def test_wrong_pin_fails_unlock(self):
        policy = CountermeasurePolicy(require_pin_on_card=True)
        se, _, emulator = make_pair(policy=policy, pin="9999")
        with pytest.raises(ActivationRefused) as exc_info:
            emulator.activate_field()
        assert exc_info.value.reason == "unlock_failed"
        assert se.wallet_locked

    def test_internal_disable_refuses_session(self):
        policy = CountermeasurePolicy(
            internal_disabled_aids=frozenset({PREPAID_AID})
        )
        se, relay, emulator = make_pair(policy=policy)
        with pytest.raises(ActivationRefused) as exc_info:
            emulator.activate_field()
        assert exc_info.value.reason == "access_denied"
        assert se.wallet_locked
        assert not relay.session_open


def _refused_behind_se_host(se) -> str:
    relay = RelayApp(RemoteSecureElement(InProcessTransport(SecureElementHost(se))))
    emulator = CardEmulator(InProcessTransport(relay))
    with pytest.raises(ActivationRefused) as exc_info:
        emulator.activate_field()
    emulator.close()
    return exc_info.value.reason


REFUSED_ROUTES = {
    "inproc": lambda se: run_relay_attack(se=se, seed=1).session_error,
    "tcp": lambda se: run_relay_attack(se=se, seed=1, transport="tcp").session_error,
    "se_host": _refused_behind_se_host,
}


@pytest.mark.parametrize("route", REFUSED_ROUTES)
def test_refused_session_locks_a_wallet_unlocked_before_the_run(route):
    # the wallet's on-card component is disabled internally, so no LOCK APDU
    # can reach it: only a direct lock at the session end relocks the wallet
    se = SecureElement(
        policy=CountermeasurePolicy(internal_disabled_aids=frozenset({WALLET_AID}))
    )
    se.wallet_locked = False
    assert REFUSED_ROUTES[route](se) == "access_denied"
    assert se.wallet_locked


class TestLatencyInjection:
    def test_injected_delay_reaches_clock(self):
        model = LatencyModel(AccessPath.RELAY_WIFI, seed=5)
        expected = LatencyModel(AccessPath.RELAY_WIFI, seed=5).sample_at(0)
        _, _, emulator = make_pair(model=model)
        transport = emulator.transport
        emulator.activate_field()
        before = transport.now_ms()
        emulator.exchange(parse_hex(SELECT_PPSE_C))
        assert transport.now_ms() - before == pytest.approx(expected)

    def test_payload_not_altered_by_injection(self):
        _, _, emulator = make_pair(model=LatencyModel(AccessPath.RELAY_INTERNET, seed=5))
        emulator.activate_field()
        assert format_hex(emulator.exchange(parse_hex(SELECT_PPSE_C))) == SELECT_PPSE_R

    def test_hard_ceiling_surfaces_error(self):
        _, _, emulator = make_pair(
            model=LatencyModel(AccessPath.RELAY_INTERNET, seed=5),
            hard_ceiling_ms=1.0,  # every internet sample exceeds this
        )
        emulator.activate_field()
        with pytest.raises(CardRemoved):
            emulator.exchange(parse_hex(SELECT_PPSE_C))

    @pytest.mark.parametrize("transport", ["inproc", "tcp"])
    @pytest.mark.parametrize("ceiling_ms", [-50.0, 0.0, math.nan, math.inf])
    def test_hard_ceiling_must_be_positive_and_finite(self, ceiling_ms, transport):
        def relay_threads():
            return [t for t in threading.enumerate() if t.name == "relay-app"]

        before = relay_threads()
        with pytest.raises(ValueError, match="hard_ceiling_ms"):
            run_relay_attack(seed=1, hard_ceiling_ms=ceiling_ms, transport=transport)
        assert relay_threads() == before

    @pytest.mark.parametrize(
        "ceiling_ms, deadline_ms, limit_ms, timeout_frame",
        [
            (None, None, math.inf, False),
            (None, 200.0, 200.0, False),
            (None, 300.0, 300.0, False),
            (None, 400.0, 400.0, False),
            (300.0, None, 300.0, True),
            (300.0, 200.0, 200.0, False),
            (300.0, 300.0, 300.0, True),  # a tie is the ceiling's
            (300.0, 400.0, 300.0, True),
        ],
    )
    def test_wait_limit_and_cut_short_reply(self, ceiling_ms, deadline_ms, limit_ms, timeout_frame):
        class CutShortTransport:
            """Takes no time and ends every wait early, recording its limit."""

            def __init__(self):
                self.limits = []

            def wait_ms(self, delay_ms, limit_ms):
                self.limits.append(limit_ms)
                return False

        class FixedDelay:
            def sample_ms(self):
                return 1000.0

        transport = CutShortTransport()
        se = SecureElement()
        relay = RelayApp(se, model=FixedDelay(), hard_ceiling_ms=ceiling_ms)
        relay.handle_frame(WireFrame(FrameKind.SESSION_OPEN), transport)
        replies = relay.handle_frame(
            WireFrame(FrameKind.C_APDU, parse_hex(SELECT_PPSE_C)), transport, deadline_ms
        )
        assert transport.limits == [limit_ms]
        assert replies == ([error_frame(ErrorReason.TIMEOUT, "1000ms")] if timeout_frame else [])
        assert not relay.session_open
        assert se.wallet_locked
        assert se.selected[ChannelOrigin.INTERNAL] is None

    def test_zero_delay_model(self):
        _, _, emulator = make_pair(model=None)
        transport = emulator.transport
        emulator.activate_field()
        emulator.exchange(parse_hex(SELECT_PPSE_C))
        assert transport.now_ms() == 0.0


class TestFrameOrdering:
    def test_fifo_over_one_session(self):
        _, _, emulator = make_pair()
        emulator.activate_field()
        seen = []
        for ins in (0xA4, 0xB2, 0xA8):
            cmd = CommandApdu(0x00, ins, 0x00, 0x00)
            seen.append(emulator.exchange(cmd.to_bytes()))
        # one response per command, in order, no crosstalk
        assert len(seen) == 3


class TestEarlyFrame:
    """A C-APDU sent while the one before it waits out its delay, on both transports."""

    @staticmethod
    def replies_to_two_commands(relay, over: str, count: int) -> list[WireFrame]:
        """Open a session, send two C-APDUs back to back, read ``count`` replies."""
        command = WireFrame(FrameKind.C_APDU, parse_hex(SELECT_PPSE_C))
        thread = None
        if over == "inproc":
            client = InProcessTransport(relay)
        else:
            near, far = socket.socketpair()
            thread = threading.Thread(
                target=relay.serve, args=(SocketTransport(near),), daemon=True
            )
            thread.start()
            client = SocketTransport(far)
        try:
            client.send_frame(WireFrame(FrameKind.SESSION_OPEN))
            assert client.recv_frame(timeout_ms=2000).kind is FrameKind.SESSION_OPEN
            client.send_frame(command)
            client.send_frame(command)
            return [client.recv_frame(timeout_ms=2000) for _ in range(count)]
        finally:
            client.close()
            if thread is not None:
                thread.join(timeout=5)
                assert not thread.is_alive()

    @pytest.mark.parametrize("over", ["inproc", "socketpair"])
    @pytest.mark.parametrize(
        "ceiling_ms, expected",
        [
            (None, [error_frame(ErrorReason.SESSION_STATE, "session not open")]),
            (
                1000.0,
                [
                    error_frame(ErrorReason.TIMEOUT, "300ms"),
                    error_frame(ErrorReason.SESSION_STATE, "session not open"),
                ],
            ),
        ],
        ids=["no_ceiling", "ceiling"],
    )
    def test_early_frame_ends_the_wait_and_the_session(self, over, ceiling_ms, expected):
        # the second command ends the first one's 300 ms wait, so the first
        # never reaches the SE (with a TIMEOUT error if the ceiling was the
        # limit) and the second finds the session closed
        params = LatencyParams(internal_low=300.0, internal_high=300.0)
        se = SecureElement()
        seen = []
        process = se.process
        se.process = lambda origin, cmd: seen.append(cmd.to_bytes()) or process(origin, cmd)
        relay = RelayApp(
            se,
            model=LatencyModel(AccessPath.DIRECT_INTERNAL, 1, params),
            hard_ceiling_ms=ceiling_ms,
        )
        assert self.replies_to_two_commands(relay, over, len(expected)) == expected
        assert parse_hex(SELECT_PPSE_C) not in seen
        assert se.wallet_locked
        assert not relay.session_open


class TestTcpTransport:
    def test_relay_over_loopback(self):
        se = SecureElement()
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        addr = listener.getsockname()
        relay = RelayApp(se)

        def serve():
            relay.serve(SocketTransport(socket.create_connection(addr, timeout=5)))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        conn, _ = listener.accept()
        listener.close()
        emulator = CardEmulator(SocketTransport(conn))
        emulator.activate_field()
        reply = emulator.exchange(parse_hex(SELECT_PPSE_C))
        assert format_hex(reply) == SELECT_PPSE_R
        emulator.deactivate_field()
        assert se.wallet_locked
        emulator.close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_timeout_mid_frame_closes_transport(self):
        near, far = socket.socketpair()
        transport = SocketTransport(near)
        raw = WireFrame(FrameKind.R_APDU, b"\x90\x00").encode()
        try:
            far.sendall(raw[:2])  # two header bytes, then the peer stalls
            with pytest.raises(ExchangeTimeout):
                transport.recv_frame(timeout_ms=50)
            with contextlib.suppress(OSError):  # the transport may have hung up
                far.sendall(raw[2:])
            # the rest of the frame must not be read as a fresh header
            with pytest.raises(TransportClosed):
                transport.recv_frame(timeout_ms=200)
        finally:
            transport.close()
            far.close()

    def test_a_buffered_frame_costs_no_syscall(self, monkeypatch):
        near, far = socket.socketpair()
        transport = SocketTransport(near)
        frames = [WireFrame(FrameKind.R_APDU, bytes((n, 0x90, 0x00))) for n in range(3)]

        def syscall(*args):
            pytest.fail("a read with a whole frame buffered made a syscall")

        try:
            far.sendall(b"".join(f.encode() for f in frames))
            assert transport.recv_frame() == frames[0]
            transport._sock = types.SimpleNamespace(recv=syscall)
            monkeypatch.setattr(select, "select", syscall)
            assert transport.recv_frame() == frames[1]
            assert transport.recv_frame(timeout_ms=0) == frames[2]
        finally:
            monkeypatch.undo()
            transport._sock = near
            transport.close()
            far.close()

    def test_unanswered_close_does_not_block(self):
        near, far = socket.socketpair()
        peer = SocketTransport(far)
        emulator = CardEmulator(SocketTransport(near))

        def silent_peer():
            peer.recv_frame()  # SESSION_OPEN
            peer.send_frame(WireFrame(FrameKind.SESSION_OPEN))
            peer.recv_frame()  # SESSION_CLOSE, never acknowledged

        peer_thread = threading.Thread(target=silent_peer, daemon=True)
        peer_thread.start()
        try:
            emulator.activate_field()
            closer = threading.Thread(target=emulator.deactivate_field, daemon=True)
            closer.start()
            closer.join(timeout=3)
            assert not closer.is_alive()
            assert not emulator.session_open
        finally:
            emulator.close()
            peer.close()
            peer_thread.join(timeout=5)

    def test_abrupt_socket_loss_locks_wallet(self):
        se = SecureElement()
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        addr = listener.getsockname()
        relay = RelayApp(se)

        def serve():
            relay.serve(SocketTransport(socket.create_connection(addr, timeout=5)))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        conn, _ = listener.accept()
        listener.close()
        emulator = CardEmulator(SocketTransport(conn))
        emulator.activate_field()
        assert not se.wallet_locked
        conn.close()  # yank the wire mid-session
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert se.wallet_locked


class TestConnect:
    @staticmethod
    def record_attempts(monkeypatch, attempt) -> list[tuple[float, float]]:
        """Each connect attempt's ``(monotonic time, timeout)``."""
        attempts = []

        def recording(address, timeout):
            attempts.append((time.monotonic(), timeout))
            return attempt(address, timeout=timeout)

        monkeypatch.setattr(socket, "create_connection", recording)
        return attempts

    def test_reaches_a_peer_that_starts_listening_late(self, monkeypatch):
        attempts = self.record_attempts(monkeypatch, socket.create_connection)
        # a bound socket refuses connections until it listens
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            late = threading.Timer(0.3, server.listen)
            late.start()
            try:
                connect(server.getsockname(), 5.0).close()
            finally:
                late.join(timeout=5)
        assert attempts[-1][0] - attempts[0][0] >= 0.25

    def test_refusals_are_retried_within_one_deadline(self, monkeypatch):
        def refuse(address, timeout):
            raise ConnectionRefusedError(errno.ECONNREFUSED, "Connection refused")

        attempts = self.record_attempts(monkeypatch, refuse)
        start = time.monotonic()
        with pytest.raises(ConnectionRefusedError):
            connect(("127.0.0.1", 9), 0.3)
        assert 0.3 <= time.monotonic() - start < 0.5
        assert len(attempts) > 2
        # an attempt may take only what is left of the deadline (give or take
        # the clock reads between connect's and this recorder's)
        for at, timeout in attempts:
            assert 0 < timeout <= start + 0.3 - at + 0.01

    def test_any_other_error_is_a_usage_error_at_once(self, monkeypatch, capsys):
        def unresolvable(address, timeout):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        attempts = self.record_attempts(monkeypatch, unresolvable)
        start = time.monotonic()
        with pytest.raises(SystemExit) as exc_info:
            main(["relay-app", "--connect", "127.0.0.1:9"])
        assert exc_info.value.code == 2
        assert time.monotonic() - start < 1.0
        assert len(attempts) == 1
        assert "Name or service not known" in capsys.readouterr().err


class TestSecureElementHost:
    def test_remote_se_behind_host(self):
        se = SecureElement()
        host = SecureElementHost(se)
        remote = RemoteSecureElement(InProcessTransport(host))
        relay = RelayApp(remote)
        emulator = CardEmulator(InProcessTransport(relay))
        emulator.activate_field()
        assert not se.wallet_locked
        reply = emulator.exchange(parse_hex(SELECT_PPSE_C))
        assert format_hex(reply) == SELECT_PPSE_R
        emulator.deactivate_field()
        assert se.wallet_locked

    def test_host_transport_loss_locks_defensively(self):
        se = SecureElement()
        host = SecureElementHost(se)
        transport = InProcessTransport(host)
        transport.send_frame(WireFrame(FrameKind.SESSION_OPEN))
        assert transport.recv_frame().kind is FrameKind.SESSION_OPEN
        se.wallet_locked = False  # as if an unlock had gone through
        transport.close()
        assert se.wallet_locked

    def test_closed_transport_raises(self):
        host = SecureElementHost(SecureElement())
        transport = InProcessTransport(host)
        transport.close()
        with pytest.raises(TransportClosed):
            transport.send_frame(WireFrame(FrameKind.SESSION_OPEN))

    def test_dead_se_link_refuses_activation(self):
        se = SecureElement()
        se_link = InProcessTransport(SecureElementHost(se))
        remote = RemoteSecureElement(se_link)
        relay = RelayApp(remote)
        emulator = CardEmulator(InProcessTransport(relay))
        se_link.close()  # SE host gone before the session even opens
        with pytest.raises(ActivationRefused) as exc_info:
            emulator.activate_field()
        assert exc_info.value.reason == "access_denied"

    def test_se_link_dies_mid_session(self):
        se = SecureElement()
        se_link = InProcessTransport(SecureElementHost(se))
        relay = RelayApp(RemoteSecureElement(se_link))
        emulator = CardEmulator(InProcessTransport(relay))
        emulator.activate_field()
        assert not se.wallet_locked
        se_link.close()  # SE host gone while the relay session is open
        with pytest.raises(CardRemoved, match="^relay reported access_denied$"):
            emulator.exchange(parse_hex(SELECT_PPSE_C))
        assert not relay.session_open
        assert se.wallet_locked


def send_in_pieces(sock: socket.socket, raw: bytes, r: random.Random) -> None:
    """Send ``raw`` cut at random points, pausing now and then between pieces."""
    cuts = sorted(r.sample(range(1, len(raw)), min(len(raw) - 1, r.randrange(4))))
    for start, end in zip([0, *cuts], [*cuts, len(raw)]):
        sock.sendall(raw[start:end])
        if r.random() < 0.3:
            time.sleep(0.001)


def frame(kind: FrameKind, payload: bytes = b"") -> bytes:
    return WireFrame(kind, payload).encode()


# what the peer sends last, after which it hangs up: a clean close or garbage
ENDINGS = {
    "clean_close": b"\x02\x00\x00",
    "unknown_kind": b"\x7f\x00\x00",
    "truncated_payload": b"\x03\x00\x0a\x00\xa4\x04",
    "truncated_header": b"\x03\x00",
    "payload_on_close": b"\x02\x00\x01\xff",
    "oversized_length": b"\x04\xff\xff" + bytes(100),
}


class TestServeAgainstBadPeers:
    """``serve`` over a socketpair, fed frames in random pieces, then an ending."""

    @staticmethod
    def start(endpoint, near):
        errors = []

        def serve():
            try:
                endpoint.serve(SocketTransport(near))
            except Exception as exc:  # anything escaping serve is a traceback
                errors.append(exc)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return thread, errors

    @pytest.mark.parametrize("ending", sorted(ENDINGS))
    @pytest.mark.parametrize("role", ["relay_app", "se_host"])
    @pytest.mark.parametrize("trial", range(3))
    def test_loop_exits_with_the_wallet_locked(self, trial, role, ending):
        r = random.Random(f"{trial}:{role}:{ending}")
        se = SecureElement()
        endpoint = RelayApp(se) if role == "relay_app" else SecureElementHost(se)
        near, far = socket.socketpair()
        thread, errors = self.start(endpoint, near)
        peer = SocketTransport(far)
        try:
            send_in_pieces(far, frame(FrameKind.SESSION_OPEN), r)
            assert peer.recv_frame(timeout_ms=2000).kind is FrameKind.SESSION_OPEN
            if role == "se_host":  # the host's peer unlocks the wallet itself
                for capdu in (SELECT_WALLET_C, UNLOCK_C):
                    send_in_pieces(far, frame(FrameKind.C_APDU, parse_hex(capdu)), r)
                    assert peer.recv_frame(timeout_ms=2000).payload == b"\x90\x00"
            assert not se.wallet_locked
            for _ in range(r.randrange(3)):
                # a frame of a kind the endpoint does not take is answered, not fatal
                kind = r.choice((FrameKind.C_APDU, FrameKind.R_APDU, FrameKind.ERROR))
                send_in_pieces(far, frame(kind, parse_hex(SELECT_PPSE_C)), r)
                reply = peer.recv_frame(timeout_ms=2000)
                expected = FrameKind.R_APDU if kind is FrameKind.C_APDU else FrameKind.ERROR
                assert reply.kind is expected
            send_in_pieces(far, ENDINGS[ending], r)
        finally:
            peer.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert errors == []
        assert se.wallet_locked
        assert not endpoint.session_open

    @pytest.mark.parametrize("role", ["relay_app", "se_host"])
    def test_peer_that_stalls_mid_session_is_dropped_at_the_idle_limit(self, role, monkeypatch):
        # the peer opens a session, unlocking the wallet, and then sends
        # nothing; the endpoint used to wait for it, wallet unlocked, forever
        monkeypatch.setattr("serelay.relay.IDLE_LIMIT_MS", 200.0)
        se = SecureElement()
        endpoint = RelayApp(se) if role == "relay_app" else SecureElementHost(se)
        near, far = socket.socketpair()
        thread, errors = self.start(endpoint, near)
        peer = SocketTransport(far)
        try:
            peer.send_frame(WireFrame(FrameKind.SESSION_OPEN))
            assert peer.recv_frame(timeout_ms=2000).kind is FrameKind.SESSION_OPEN
            if role == "se_host":
                for capdu in (SELECT_WALLET_C, UNLOCK_C):
                    peer.send_frame(WireFrame(FrameKind.C_APDU, parse_hex(capdu)))
                    assert peer.recv_frame(timeout_ms=2000).payload == b"\x90\x00"
            assert not se.wallet_locked
            thread.join(timeout=1.0)
            assert not thread.is_alive()
            assert errors == []
            assert se.wallet_locked
            assert not endpoint.session_open
            with pytest.raises(TransportClosed):  # the endpoint hung up
                peer.recv_frame(timeout_ms=1000)
        finally:
            peer.close()
            thread.join(timeout=5)

    def test_peer_hanging_up_cuts_the_relay_wait_short(self):
        # every delay is over 5 s; the peer hangs up after 50 ms, and the relay
        # ends its session then without handing the command to the SE
        params = LatencyParams(internet_heavy_weight=1, internet_heavy_floor=5000)
        se = SecureElement()
        seen = []
        process = se.process
        se.process = lambda origin, cmd: seen.append(cmd.to_bytes()) or process(origin, cmd)
        relay = RelayApp(se, model=LatencyModel(AccessPath.RELAY_INTERNET, 1, params))
        near, far = socket.socketpair()
        thread, errors = self.start(relay, near)
        peer = SocketTransport(far)
        try:
            peer.send_frame(WireFrame(FrameKind.SESSION_OPEN))
            assert peer.recv_frame(timeout_ms=2000).kind is FrameKind.SESSION_OPEN
            peer.send_frame(WireFrame(FrameKind.C_APDU, parse_hex(SELECT_PPSE_C)))
            time.sleep(0.05)
            started = time.monotonic()
        finally:
            peer.close()
        thread.join(timeout=5)
        assert time.monotonic() - started < 1.0
        assert not thread.is_alive()
        assert errors == []
        assert se.wallet_locked
        assert parse_hex(SELECT_PPSE_C) not in seen

    @pytest.mark.parametrize("gap_s", [None, 0.05], ids=["one_send", "two_sends"])
    def test_early_frame_has_one_outcome_however_it_is_segmented(self, gap_s):
        # a second C-APDU arrives while the first waits out its 300 ms delay;
        # whether both came in one chunk or apart, the wait ends the session,
        # the first command never reaches the SE and the second is refused
        params = LatencyParams(internal_low=300.0, internal_high=300.0)
        se = SecureElement()
        seen = []
        process = se.process
        se.process = lambda origin, cmd: seen.append(cmd.to_bytes()) or process(origin, cmd)
        relay = RelayApp(se, model=LatencyModel(AccessPath.DIRECT_INTERNAL, 1, params))
        near, far = socket.socketpair()
        thread, errors = self.start(relay, near)
        peer = SocketTransport(far)
        command = frame(FrameKind.C_APDU, parse_hex(SELECT_PPSE_C))
        try:
            peer.send_frame(WireFrame(FrameKind.SESSION_OPEN))
            assert peer.recv_frame(timeout_ms=2000).kind is FrameKind.SESSION_OPEN
            if gap_s is None:
                far.sendall(command + command)
            else:
                far.sendall(command)
                time.sleep(gap_s)
                far.sendall(command)
            reply = peer.recv_frame(timeout_ms=2000)
            assert reply == error_frame(ErrorReason.SESSION_STATE, "session not open")
        finally:
            peer.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert errors == []
        assert se.wallet_locked
        assert not relay.session_open
        assert parse_hex(SELECT_PPSE_C) not in seen

    def test_read_timeout_bounds_the_whole_frame(self):
        # a peer that sends one byte every 50 ms never lets a single recv time
        # out, but the 200 ms deadline covers the frame, not each byte
        near, far = socket.socketpair()
        transport = SocketTransport(near)
        stop = threading.Event()

        def drip():
            for byte in frame(FrameKind.R_APDU, bytes(40)):
                if stop.wait(0.05):
                    return
                with contextlib.suppress(OSError):
                    far.send(bytes((byte,)))

        dripper = threading.Thread(target=drip, daemon=True)
        dripper.start()
        try:
            started = time.monotonic()
            with pytest.raises(ExchangeTimeout):
                transport.recv_frame(timeout_ms=200)
            assert time.monotonic() - started < 0.2 + 0.15
            with pytest.raises(TransportClosed):  # it timed out mid-frame
                transport.recv_frame(timeout_ms=200)
        finally:
            stop.set()
            dripper.join(timeout=5)
            transport.close()
            far.close()
        assert not dripper.is_alive()

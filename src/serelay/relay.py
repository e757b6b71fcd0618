"""Relay plumbing: framed wire protocol, transports and both endpoints.

Frames are ``[1-byte kind][2-byte big-endian length][payload]``. One relay
session lives per connection: the card emulator announces field activation
with SESSION_OPEN, shuttles C-APDU/R-APDU frames while the field is up and
tears down with SESSION_CLOSE. OPEN and CLOSE are echoed back as
acknowledgements; fatal conditions come back as an ERROR frame whose first
payload byte is a reason code.

A session endpoint owns one SE channel and delays every C-APDU by the access
path before the one hop into the SE; a direct run is a plain endpoint. The
phone-side relay app is an SE host that selects the wallet's on-card
component, unlocks the wallet and probes the payment applet on session open.
Every session end (clean close, dead SE hop, cut-short wait, lost transport)
goes through :meth:`SessionEndpoint.end_session`; on the SE host and the
relay app it locks the wallet by a direct call, so an ended session never
leaves it spendable.
"""
from __future__ import annotations

import functools
import logging
import math
import select
import socket
import time
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Protocol

from .apdu import CommandApdu, MalformedApdu, ResponseApdu
from .latency import LatencyModel, VirtualClock
from .secure_element import (
    ChannelOrigin,
    PREPAID_AID,
    SW_WRONG_LENGTH,
    UNLOCK_COMMAND,
    WALLET_AID,
    select_command,
    status,
    verify_command,
)

logger = logging.getLogger(__name__)

FRAME_HEADER_LEN = 3
MAX_PAYLOAD_LEN = 0xFFFF
# APDU frames are a few hundred bytes at most; a longer frame takes more than
# one recv. A read size of a whole 64 KiB frame raised peak RSS by ~0.3 MB.
_RECV_SIZE = 4096
# how long a session client waits for the SESSION_CLOSE echo of a silent peer
CLOSE_ACK_TIMEOUT_MS = 1000.0


class FrameKind(IntEnum):
    SESSION_OPEN = 0x01
    SESSION_CLOSE = 0x02
    C_APDU = 0x03
    R_APDU = 0x04
    ERROR = 0x05


class ErrorReason(IntEnum):
    ACCESS_DENIED = 0x01
    UNLOCK_FAILED = 0x02
    SESSION_STATE = 0x03
    TIMEOUT = 0x04


class RelayProtocolError(Exception):
    """Peer sent bytes that do not form a valid frame sequence."""


class TransportClosed(Exception):
    """The underlying stream is gone."""


class SessionFailed(Exception):
    """A session client's peer refused or lost the session."""


class ActivationRefused(SessionFailed):
    """Relay endpoint rejected the session open."""

    def __init__(self, reason: str):
        super().__init__(f"field activation refused: {reason}")
        self.reason = reason


class CardRemoved(SessionFailed):
    """The emulated card vanished mid-transaction (transport or relay fault)."""


class ExchangeTimeout(Exception):
    """No response within the caller's deadline."""


_BARE_KINDS = (FrameKind.SESSION_OPEN, FrameKind.SESSION_CLOSE)
# the kind of each first byte, None where the byte names no kind
_KIND_OF_BYTE = tuple(map({kind.value: kind for kind in FrameKind}.get, range(256)))


@dataclass(frozen=True)
class WireFrame:
    kind: FrameKind
    payload: bytes = b""

    def __post_init__(self) -> None:
        # the pipeline's own frames already hold the right types
        if type(self.kind) is not FrameKind:
            object.__setattr__(self, "kind", FrameKind(self.kind))
        if type(self.payload) is not bytes:
            object.__setattr__(self, "payload", bytes(self.payload))
        if self.payload and self.kind in _BARE_KINDS:
            raise RelayProtocolError(f"{self.kind.name} frames carry no payload")
        if len(self.payload) > MAX_PAYLOAD_LEN:
            raise RelayProtocolError("frame payload too large")

    def encode(self) -> bytes:
        return (
            bytes((self.kind,))
            + len(self.payload).to_bytes(2, "big")
            + self.payload
        )

    @classmethod
    def decode(cls, raw: bytes) -> "WireFrame":
        if len(raw) < FRAME_HEADER_LEN:
            raise RelayProtocolError("short frame header")
        kind = _KIND_OF_BYTE[raw[0]]
        if kind is None:
            raise RelayProtocolError(f"unknown frame kind {raw[0]:#04x}")
        end = FRAME_HEADER_LEN + (raw[1] << 8 | raw[2])
        if len(raw) < end:
            raise RelayProtocolError("truncated frame payload")
        if len(raw) > end:
            raise RelayProtocolError(f"{len(raw) - end} trailing bytes after frame")
        return cls(kind=kind, payload=raw[FRAME_HEADER_LEN:end])


# the bare frames every session sends and echoes, built once
_OPEN_FRAME = WireFrame(FrameKind.SESSION_OPEN)
_CLOSE_FRAME = WireFrame(FrameKind.SESSION_CLOSE)


def error_frame(reason: ErrorReason, detail: str = "") -> WireFrame:
    return WireFrame(FrameKind.ERROR, bytes((reason,)) + detail.encode("utf-8"))


def error_reason_name(frame: WireFrame) -> str:
    if frame.kind is not FrameKind.ERROR or not frame.payload:
        return "unknown"
    try:
        return ErrorReason(frame.payload[0]).name.lower()
    except ValueError:
        return f"code_{frame.payload[0]:#04x}"


class Transport(Protocol):
    def send_frame(self, frame: WireFrame) -> None: ...

    def recv_frame(self, timeout_ms: Optional[float] = None) -> WireFrame: ...

    def wait_ms(self, delay_ms: float, limit_ms: float = math.inf) -> bool:
        """Wait out ``delay_ms``; False if ``limit_ms`` or the peer cut it short.

        Anything the peer sends, or its hang-up, ends the wait. A zero delay
        waits for nothing and takes no time.
        """

    def close(self) -> None: ...


class SocketTransport:
    """Frame stream over a connected TCP (or socketpair) socket.

    The socket stays in blocking mode. Bytes read past the current frame are
    kept, so a frame that is already buffered costs no syscall. A read with a
    timeout waits against one deadline for the whole frame, so a peer that
    drips bytes cannot stretch it; timing out in the middle of a frame closes
    the transport, since the rest of that frame would be read as the next
    header.
    """

    def __init__(self, sock: socket.socket):
        sock.setblocking(True)
        self._sock = sock
        self._closed = False
        self._buf = bytearray()

    def send_frame(self, frame: WireFrame) -> None:
        if self._closed:
            raise TransportClosed("transport already closed")
        try:
            self._sock.sendall(frame.encode())
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc

    def recv_frame(self, timeout_ms: Optional[float] = None) -> WireFrame:
        if self._closed:
            raise TransportClosed("transport already closed")
        buf = self._buf
        deadline = None
        while True:
            if len(buf) >= FRAME_HEADER_LEN:
                end = FRAME_HEADER_LEN + (buf[1] << 8 | buf[2])
                if len(buf) >= end:
                    raw = bytes(buf[:end])
                    del buf[:end]
                    return WireFrame.decode(raw)
            if timeout_ms is not None:
                if deadline is None:
                    deadline = time.monotonic() + timeout_ms / 1000.0
                # past the deadline, a zero wait still takes bytes that have arrived
                remaining_s = max(deadline - time.monotonic(), 0.0)
                if not select.select([self._sock], [], [], remaining_s)[0]:
                    if buf:
                        self.close()
                    raise ExchangeTimeout("no frame within deadline")
            try:
                chunk = self._sock.recv(_RECV_SIZE)
            except OSError as exc:
                raise TransportClosed(str(exc)) from exc
            if not chunk:
                raise TransportClosed("peer closed the connection")
            if (
                not buf
                and len(chunk) >= FRAME_HEADER_LEN
                and len(chunk) == FRAME_HEADER_LEN + (chunk[1] << 8 | chunk[2])
            ):
                return WireFrame.decode(chunk)  # the usual case: one chunk, one frame
            buf += chunk

    def wait_ms(self, delay_ms: float, limit_ms: float = math.inf) -> bool:
        if delay_ms > 0:
            seconds = min(delay_ms, limit_ms) / 1000.0
            if self._buf or select.select([self._sock], [], [], seconds)[0]:
                return False
        return delay_ms <= limit_ms

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()


def connect(address: tuple[str, int], timeout_s: float) -> SocketTransport:
    """A transport on a TCP connection to ``address``, made within ``timeout_s``.

    A refused attempt is retried every 50 ms, since the peer role may still
    be starting; any other ``OSError`` raises at once. All attempts share one
    deadline, and each one may take only the time left.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return SocketTransport(socket.create_connection(address, timeout=timeout_s))
        except ConnectionRefusedError:
            time.sleep(max(min(0.05, deadline - time.monotonic()), 0.0))
            timeout_s = deadline - time.monotonic()
            if timeout_s <= 0:
                raise


class InProcessTransport:
    """Single-threaded transport that runs a handler on the caller's thread.

    Used where both endpoints live in one process: ``recv_frame`` hands the
    oldest sent frame and the caller's deadline to the handler, and the next
    one while a frame gets no reply, so a pipelining client reads what it
    would read over a socket. :class:`ExchangeTimeout` means the deadline
    cut the last reply off. Waits move ``clock``, the run's virtual time.
    """

    def __init__(self, handler: SessionEndpoint):
        self._handler = handler
        self._sent: deque[WireFrame] = deque()
        self._closed = False
        self.clock = VirtualClock()

    def send_frame(self, frame: WireFrame) -> None:
        if self._closed:
            raise TransportClosed("transport already closed")
        self._sent.append(frame)

    def recv_frame(self, timeout_ms: Optional[float] = None) -> WireFrame:
        if self._closed:
            raise TransportClosed("transport already closed")
        if not self._sent:
            raise RelayProtocolError("no frame pending")
        while self._sent:
            for reply in self._handler.handle_frame(self._sent.popleft(), self, timeout_ms):
                return reply
        raise ExchangeTimeout("no frame within deadline")

    def wait_ms(self, delay_ms: float, limit_ms: float = math.inf) -> bool:
        if delay_ms > 0 and self._sent:
            return False  # a frame sent early, as a socket would have it readable
        return self.clock.sleep_ms(delay_ms, limit_ms)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._handler.end_session()


# Each distinct command is parsed once; sharing the result is safe because
# CommandApdu is frozen. lru_cache stores no exception, so malformed bytes
# are parsed, and answered, on every call.
_COMMAND_MEMO_SIZE = 32
_parse_command = functools.lru_cache(maxsize=_COMMAND_MEMO_SIZE)(CommandApdu.parse)

# the selections every relay session opens with, built once
_SELECT_WALLET = select_command(WALLET_AID)
_SELECT_PAYMENT = select_command(PREPAID_AID)


def se_exchange(se, origin: ChannelOrigin, capdu: bytes) -> bytes:
    """Hand one raw C-APDU to the secure element and return the raw R-APDU.

    Transparent pipes never raise: bytes that do not parse as a command are
    answered the way a confused card would answer them.
    """
    try:
        cmd = _parse_command(capdu)
    except MalformedApdu:
        return status(SW_WRONG_LENGTH).to_bytes()
    return se.process(origin, cmd).to_bytes()


def unlock_wallet(se, pin: Optional[str] = None) -> Optional[WireFrame]:
    """What the wallet app does on the owner's phone: select, verify, unlock.

    Opens the internal channel first; returns the ERROR frame saying why the
    wallet stayed locked, or ``None`` once it is unlocked.
    """
    se.open_session(ChannelOrigin.INTERNAL)
    if not se.process(ChannelOrigin.INTERNAL, _SELECT_WALLET).is_success:
        return error_frame(ErrorReason.ACCESS_DENIED, "on-card component")
    if pin is not None:
        se.process(ChannelOrigin.INTERNAL, verify_command(pin))
    unlock = se.process(ChannelOrigin.INTERNAL, UNLOCK_COMMAND)
    if not unlock.is_success:
        return error_frame(ErrorReason.UNLOCK_FAILED, f"sw={unlock.sw:04X}")
    return None


class SessionEndpoint:
    """Frame state machine of an endpoint that owns one of an SE's channels.

    One session lives per connection, and every end of it takes
    :meth:`end_session`; subclasses decide what opening and closing do. A
    C-APDU waits ``model``'s next delay on the transport that carried it, up
    to the nearer of ``hard_ceiling_ms`` and the caller's deadline, then
    takes :func:`se_exchange` on ``origin``. A wait cut short, by the limit
    or by an early frame or hang-up of the peer, ends the session instead,
    with a TIMEOUT error if the ceiling was the limit. A remote SE that
    vanishes mid-session ends the session with ACCESS_DENIED.
    """

    def __init__(self, se, origin=ChannelOrigin.INTERNAL, model=None):
        self.se = se
        self.origin = origin
        self.model = model
        self.hard_ceiling_ms: Optional[float] = None
        self.session_open = False

    def _open(self) -> Optional[WireFrame]:
        """Prepare the channel; an ERROR frame refuses the session."""
        self.se.open_session(self.origin)
        return None

    def _close(self) -> None:
        self.se.close_session(self.origin)

    def end_session(self) -> None:
        if self.session_open:
            logger.info("ending the open session")
            self.session_open = False
            self._close()

    def _relay(
        self, capdu: bytes, transport: Transport, deadline_ms: Optional[float]
    ) -> list[WireFrame]:
        delay_ms = self.model.sample_ms() if self.model is not None else 0.0
        limit = math.inf if deadline_ms is None else deadline_ms
        ceiling = self.hard_ceiling_ms
        if ceiling is not None and not limit < ceiling:  # the ceiling wins a tie
            limit = ceiling
        if transport.wait_ms(delay_ms, limit):
            return [WireFrame(FrameKind.R_APDU, se_exchange(self.se, self.origin, capdu))]
        self.end_session()  # the command never reaches the SE
        if limit == ceiling:
            return [error_frame(ErrorReason.TIMEOUT, f"{delay_ms:.0f}ms")]
        return []

    def handle_frame(
        self, frame: WireFrame, transport: Transport, deadline_ms: Optional[float] = None
    ) -> list[WireFrame]:
        if frame.kind is FrameKind.SESSION_OPEN:
            if self.session_open:
                return [error_frame(ErrorReason.SESSION_STATE, "already open")]
            try:
                failure = self._open()
            except SessionFailed:
                failure = error_frame(ErrorReason.ACCESS_DENIED, "SE unreachable")
            if failure is not None:
                self._close()
                return [failure]
            self.session_open = True
            return [_OPEN_FRAME]
        if frame.kind is FrameKind.SESSION_CLOSE:
            self.end_session()
            return [_CLOSE_FRAME]
        if frame.kind is FrameKind.C_APDU:
            if not self.session_open:
                return [error_frame(ErrorReason.SESSION_STATE, "session not open")]
            try:
                return self._relay(frame.payload, transport, deadline_ms)
            except SessionFailed:
                self.end_session()
                return [error_frame(ErrorReason.ACCESS_DENIED, "SE unreachable")]
        return [error_frame(ErrorReason.SESSION_STATE, f"unexpected {frame.kind.name}")]

    def serve(self, transport: Transport) -> None:
        """Drive one connection until the peer goes away."""
        try:
            while True:
                for reply in self.handle_frame(transport.recv_frame(), transport):
                    transport.send_frame(reply)
        except (TransportClosed, RelayProtocolError):
            pass
        finally:
            self.end_session()
            transport.close()


class SecureElementHost(SessionEndpoint):
    """Serves a secure element's internal channel over the wire protocol.

    Lets the relay app run in a different process from the SE. Every session
    end, a clean close as much as transport loss or a refused open, locks the
    wallet, keeping the session-hygiene guarantee across a distributed
    deployment. The lock is a direct call, not an APDU: a policy that
    disables the wallet's on-card component internally would refuse the lock
    command.
    """

    def _close(self) -> None:
        self.se.lock_wallet()
        super()._close()


class RelayApp(SecureElementHost):
    """Phone-side endpoint bridging the SE's internal channel to the wire.

    ``se`` may be a local :class:`~serelay.secure_element.SecureElement` or
    any object with the same ``open_session``/``process``/``lock_wallet``/
    ``close_session`` surface (e.g. a remote client). ``pin`` is the wallet
    PIN the attacker managed to learn, if any; without it the on-card PIN
    countermeasure makes the unlock step fail. The teardown is the SE host's.
    """

    def __init__(
        self,
        se,
        model: Optional[LatencyModel] = None,
        pin: Optional[str] = None,
        hard_ceiling_ms: Optional[float] = None,
    ):
        if hard_ceiling_ms is not None and not 0 < hard_ceiling_ms < math.inf:
            raise ValueError("hard_ceiling_ms must be positive and finite")
        super().__init__(se, model=model)
        self.pin = pin
        self.hard_ceiling_ms = hard_ceiling_ms

    def _open(self) -> Optional[WireFrame]:
        failure = unlock_wallet(self.se, self.pin)
        if failure is not None:
            return failure
        # probe that the payment applet is actually reachable on this channel
        probe = self.se.process(ChannelOrigin.INTERNAL, _SELECT_PAYMENT)
        if not probe.is_success:
            return error_frame(ErrorReason.ACCESS_DENIED, "payment applet")
        return None


class SessionClient:
    """Client half of one session with a :class:`SessionEndpoint`.

    A refused open raises :class:`ActivationRefused`, a failed exchange
    :class:`CardRemoved` and ends the session; closing swallows errors.
    """

    def __init__(self, transport: Transport):
        self.transport = transport
        self.session_open = False

    def _open(self) -> None:
        if self.session_open:
            return
        try:
            self.transport.send_frame(_OPEN_FRAME)
            reply = self.transport.recv_frame()
        except (TransportClosed, RelayProtocolError) as exc:
            raise ActivationRefused(f"relay unreachable: {exc}") from exc
        if reply.kind is FrameKind.ERROR:
            raise ActivationRefused(error_reason_name(reply))
        if reply.kind is not FrameKind.SESSION_OPEN:
            raise ActivationRefused(f"unexpected {reply.kind.name} frame")
        self.session_open = True

    def exchange(self, capdu: bytes, max_wait_ms: Optional[float] = None) -> bytes:
        if not self.session_open:
            raise CardRemoved("field not active")
        self.session_open = False  # a timeout or failure below ends the session
        try:
            self.transport.send_frame(WireFrame(FrameKind.C_APDU, capdu))
            reply = self.transport.recv_frame(timeout_ms=max_wait_ms)
        except (TransportClosed, RelayProtocolError) as exc:
            raise CardRemoved(str(exc)) from exc
        if reply.kind is not FrameKind.R_APDU:
            raise CardRemoved(f"relay reported {error_reason_name(reply)}")
        self.session_open = True
        return reply.payload

    def _close(self) -> None:
        if not self.session_open:
            return
        self.session_open = False
        try:
            self.transport.send_frame(_CLOSE_FRAME)
            self.transport.recv_frame(timeout_ms=CLOSE_ACK_TIMEOUT_MS)
        except (TransportClosed, RelayProtocolError, ExchangeTimeout):
            pass


class CardEmulator(SessionClient):
    """Terminal-side endpoint: presents the relayed SE as a local card."""

    def activate_field(self) -> None:
        self._open()

    def deactivate_field(self) -> None:
        self._close()

    def close(self) -> None:
        self.deactivate_field()
        self.transport.close()


class RemoteSecureElement(SessionClient):
    """Client for :class:`SecureElementHost`; quacks like a local SE."""

    def open_session(self, origin: ChannelOrigin) -> None:
        self._open()

    def process(self, origin: ChannelOrigin, cmd: CommandApdu) -> ResponseApdu:
        return ResponseApdu.parse(self.exchange(cmd.to_bytes()))

    def lock_wallet(self) -> None:
        """End the session: the host locks the wallet at every session end."""
        self._close()

    def close_session(self, origin: ChannelOrigin) -> None:
        self._close()

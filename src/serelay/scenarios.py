"""End-to-end scenario orchestration shared by the CLI and the test suite.

Both experiments run terminal -> card emulator -> frames -> session endpoint
-> secure element. A direct run puts a plain endpoint on either channel; the
relay attack puts the relay app there, in-process on a virtual clock for
deterministic mass runs or over TCP loopback with real threads and sleeps.
Only the access path's delays differ.
"""
from __future__ import annotations

import logging
import random
import socket
import threading
from dataclasses import dataclass
from typing import Optional

from .latency import AccessPath, LatencyModel, LatencyParams
from .profile import CardProfile, CountermeasurePolicy
from .relay import (
    ActivationRefused,
    CardEmulator,
    InProcessTransport,
    RelayApp,
    SessionEndpoint,
    SocketTransport,
    connect,
    unlock_wallet,
)
from .secure_element import ChannelOrigin, SecureElement, verify_command
from .terminal import TerminalConfig, TransactionReport, run_transaction

logger = logging.getLogger(__name__)

# bounds both the connect and the accept that join a TCP run's two ends
CONNECT_TIMEOUT_S = 5.0


def resolve_seed(seed: Optional[int]) -> int:
    """Take the caller's seed or draw one from system entropy."""
    if seed is not None:
        return seed
    return random.SystemRandom().getrandbits(32)


def _card(
    se: Optional[SecureElement],
    profile: Optional[CardProfile],
    policy: Optional[CountermeasurePolicy],
    atc: int,
) -> SecureElement:
    """``se`` itself, or a new SE built from the card options; never both."""
    if se is None:
        return SecureElement(profile=profile, policy=policy, atc=atc)
    if profile is not None or policy is not None or atc:
        raise ValueError("pass se or profile/policy/atc, not both")
    return se


def run_pos_direct(
    origin: ChannelOrigin = ChannelOrigin.INTERNAL,
    profile: Optional[CardProfile] = None,
    policy: Optional[CountermeasurePolicy] = None,
    se: Optional[SecureElement] = None,
    unlock: bool = True,
    pin: Optional[str] = None,
    seed: Optional[int] = None,
    path: Optional[AccessPath] = None,
    latency_params: Optional[LatencyParams] = None,
    timeout_ms: Optional[float] = None,
    atc: int = 0,
) -> TransactionReport:
    """One terminal transaction through a plain session endpoint on ``origin``."""
    seed = resolve_seed(seed)
    cfg = TerminalConfig(timeout_ms=timeout_ms, seed=seed)
    se = _card(se, profile, policy, atc)
    verify = None if pin is None else verify_command(pin)
    if unlock and unlock_wallet(se, verify) is not None:
        logger.info("local unlock failed; transaction will run against a locked wallet")
    if path is None:
        contactless = origin is ChannelOrigin.CONTACTLESS
        path = AccessPath.DIRECT_EXTERNAL if contactless else AccessPath.DIRECT_INTERNAL
    endpoint = SessionEndpoint(se, origin, LatencyModel(path, seed, latency_params))
    return _run_relayed_transaction(CardEmulator(InProcessTransport(endpoint)), se, cfg).report


@dataclass
class RelayAttackResult:
    """Either a terminal report or the reason the session never opened."""

    report: Optional[TransactionReport]
    session_error: Optional[str]
    se: Optional[SecureElement]

    @property
    def approved(self) -> bool:
        return self.report is not None and self.report.approved


def run_relay_attack(
    profile: Optional[CardProfile] = None,
    policy: Optional[CountermeasurePolicy] = None,
    se: Optional[SecureElement] = None,
    path: AccessPath = AccessPath.RELAY_WIFI,
    latency_params: Optional[LatencyParams] = None,
    seed: Optional[int] = None,
    timeout_ms: Optional[float] = None,
    relay_pin: Optional[str] = None,
    hard_ceiling_ms: Optional[float] = None,
    transport: str = "inproc",
    atc: int = 0,
) -> RelayAttackResult:
    """Full relay attack: terminal -> emulator -> relay app -> secure element."""
    seed = resolve_seed(seed)
    cfg = TerminalConfig(timeout_ms=timeout_ms, seed=seed)
    se = _card(se, profile, policy, atc)
    if transport not in ("inproc", "tcp"):
        raise ValueError(f"unknown transport {transport!r}")
    relay = RelayApp(
        se,
        model=LatencyModel(path, seed, latency_params),
        pin=relay_pin,
        hard_ceiling_ms=hard_ceiling_ms,
    )
    if transport == "inproc":
        return _run_relayed_transaction(CardEmulator(InProcessTransport(relay)), se, cfg)
    emulator, relay_thread = _serve_over_loopback(relay)
    try:
        return _run_relayed_transaction(emulator, se, cfg)
    finally:
        relay_thread.join(timeout=5.0)
        if relay_thread.is_alive():
            raise RuntimeError("the relay app did not end its session")


def _run_relayed_transaction(
    emulator: CardEmulator, se: Optional[SecureElement], cfg: TerminalConfig
) -> RelayAttackResult:
    """Activate the field, run one transaction, close the emulator.

    ``se`` is only carried into the result; it is ``None`` where the secure
    element lives in another process.
    """
    try:
        try:
            emulator.activate_field()
        except ActivationRefused as refused:
            return RelayAttackResult(report=None, session_error=refused.reason, se=se)
        report = run_transaction(emulator, cfg)
        return RelayAttackResult(report=report, session_error=None, se=se)
    finally:
        emulator.close()


def _serve_over_loopback(relay: RelayApp) -> tuple[CardEmulator, threading.Thread]:
    """Connect ``relay`` to an emulator over TCP, then serve it on its own thread.

    Both ends connect before the thread starts, so a failed connect or accept
    raises here, within :data:`CONNECT_TIMEOUT_S`, and leaves no thread.
    """
    with socket.create_server(("127.0.0.1", 0), backlog=1) as listener:
        listener.settimeout(CONNECT_TIMEOUT_S)
        relay_end = connect(listener.getsockname(), CONNECT_TIMEOUT_S)
        try:
            conn, _peer = listener.accept()
        except OSError:
            relay_end.close()
            raise
    relay_thread = threading.Thread(
        target=relay.serve, args=(relay_end,), name="relay-app", daemon=True
    )
    relay_thread.start()
    return CardEmulator(SocketTransport(conn)), relay_thread

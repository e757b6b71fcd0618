"""POS terminal simulator driving the contactless Mag-Stripe flow.

The transaction is the standard five-step sequence: select the payment
system environment, select the highest-priority application it lists, get
processing options, read the track data record(s) named by the file
locator, then request a cryptographic checksum over a fresh unpredictable
number. The terminal works against any card interface exposing
``exchange(bytes) -> bytes``, whether the in-process secure element or a card
emulator on the far side of a relay.

A reply without a status word, a non-9000 status word or a response the
terminal cannot use declines the transaction with a reason naming the
fault. The fields read from each distinct response are kept in a bounded
memo keyed on its bytes, so only COMPUTE CC, whose bytes never repeat, is
decoded in every transaction; a malformed response is never cached.
"""
from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from typing import Optional, Protocol

from . import tlv
from .apdu import CommandApdu, MalformedApdu, ResponseApdu
from .hexutil import format_hex
from .latency import LatencyModel, WallClock
from .relay import CardRemoved, ExchangeTimeout, se_exchange
from .secure_element import (
    ChannelOrigin,
    GPO_COMMAND,
    PPSE_AID,
    SecureElement,
    compute_cc_command,
    read_record_command,
    select_command,
)


class MalformedAfl(Exception):
    """Application file locator entry is not a 4-byte record range."""


class MalformedTrack(Exception):
    """Track 2 bytes are not digits split by a D separator."""


class CardInterface(Protocol):
    def exchange(self, capdu: bytes, max_wait_ms: Optional[float] = None) -> bytes: ...


# transaction outcomes
APPROVED = "approved"
DECLINED = "declined"
TIMED_OUT = "timed_out"
CARD_REMOVED = "card_removed"


@dataclass(frozen=True)
class TerminalConfig:
    """Knobs of one terminal run.

    ``timeout_ms`` is the optional ceiling for the transaction as a whole,
    measured from the first command to the last response; by default no
    ceiling is enforced. ``fixed_un`` pins the unpredictable number for
    reproducing golden traces; otherwise it is drawn from ``seed``.
    """

    timeout_ms: Optional[float] = None
    seed: Optional[int] = None
    fixed_un: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if self.fixed_un is not None and len(self.fixed_un) != 4:
            raise ValueError("fixed_un must be exactly 4 bytes")


@dataclass
class TransactionStep:
    name: str
    capdu: bytes
    rapdu: bytes
    elapsed_ms: float

    @property
    def sw(self) -> Optional[int]:
        """Status word, or ``None`` for a step whose response holds none: one
        that timed out, or a reply shorter than two bytes."""
        if len(self.rapdu) < 2:
            return None
        return ResponseApdu.parse(self.rapdu).sw


@dataclass
class TransactionReport:
    """Per-step trace plus every field the terminal extracted."""

    outcome: str = DECLINED
    reason: Optional[str] = None
    steps: list[TransactionStep] = field(default_factory=list)
    pan: Optional[str] = None
    expiry: Optional[str] = None
    service_code: Optional[str] = None
    discretionary: Optional[str] = None
    track1: Optional[bytes] = None
    track2: Optional[bytes] = None
    un: Optional[bytes] = None
    atc: Optional[int] = None
    cvc3_track1: Optional[bytes] = None
    cvc3_track2: Optional[bytes] = None
    total_ms: float = 0.0
    seed: Optional[int] = None

    @property
    def approved(self) -> bool:
        return self.outcome == APPROVED

    def to_dict(self) -> dict:
        def hx(value: Optional[bytes]) -> Optional[str]:
            return format_hex(value) if value is not None else None

        return {
            "outcome": self.outcome,
            "reason": self.reason,
            "seed": self.seed,
            "total_ms": round(self.total_ms, 3),
            "pan": self.pan,
            "expiry": self.expiry,
            "service_code": self.service_code,
            "discretionary": self.discretionary,
            "track1": hx(self.track1),
            "track2": hx(self.track2),
            "un": hx(self.un),
            "atc": self.atc,
            "cvc3_track1": hx(self.cvc3_track1),
            "cvc3_track2": hx(self.cvc3_track2),
            "steps": [
                {
                    "name": s.name,
                    "capdu": format_hex(s.capdu),
                    "rapdu": format_hex(s.rapdu),
                    "elapsed_ms": round(s.elapsed_ms, 3),
                }
                for s in self.steps
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_trace(self) -> str:
        lines = []
        for step in self.steps:
            lines.append(f"[{step.name}] {step.elapsed_ms:9.3f} ms")
            lines.append(f"  > {format_hex(step.capdu, sep=' ')}")
            lines.append(f"  < {format_hex(step.rapdu, sep=' ')}")
        summary = f"outcome: {self.outcome}"
        if self.reason:
            summary += f" ({self.reason})"
        lines.append(summary)
        lines.append(f"total: {self.total_ms:.3f} ms over {len(self.steps)} steps")
        return "\n".join(lines)


def parse_afl(raw: bytes) -> tuple[int, int, int, int]:
    """Split one 4-byte file locator entry into (sfi, first, last, signed)."""
    if len(raw) != 4:
        raise MalformedAfl(f"AFL entry must be 4 bytes, got {len(raw)}")
    return raw[0] >> 3, raw[1], raw[2], raw[3]


def parse_track2(raw: bytes) -> tuple[str, str, str, str]:
    """Split packed track 2 into (pan, expiry, service_code, discretionary)."""
    nibbles = raw.hex().upper()
    if nibbles.endswith("F"):
        nibbles = nibbles[:-1]
    pan, sep, tail = nibbles.partition("D")
    if not sep:
        raise MalformedTrack("no field separator in track 2")
    if not pan.isdigit() or not tail.isdigit():
        raise MalformedTrack("non-digit nibble in track 2")
    if len(tail) < 7:
        raise MalformedTrack("track 2 too short after separator")
    return pan, tail[:4], tail[4:7], tail[7:]


class _Abort(Exception):
    def __init__(self, outcome: str, reason: Optional[str] = None):
        super().__init__(reason or outcome)
        self.outcome = outcome
        self.reason = reason


def run_transaction(
    card: CardInterface,
    cfg: Optional[TerminalConfig] = None,
    clock=None,
) -> TransactionReport:
    """Drive one Mag-Stripe transaction and report everything observed."""
    cfg = cfg if cfg is not None else TerminalConfig()
    clock = clock if clock is not None else WallClock()
    rng = random.Random(cfg.seed)
    un = cfg.fixed_un if cfg.fixed_un is not None else rng.randbytes(4)

    report = TransactionReport(seed=cfg.seed, un=un)
    start = clock.now_ms()

    def step(name: str, cmd: CommandApdu) -> ResponseApdu:
        elapsed = clock.now_ms() - start
        budget: Optional[float] = None
        if cfg.timeout_ms is not None:
            budget = cfg.timeout_ms - elapsed
            if budget <= 0:
                raise _Abort(TIMED_OUT)
        raw = cmd.to_bytes()
        sent_at = clock.now_ms()
        try:
            reply = card.exchange(raw, max_wait_ms=budget)
        except ExchangeTimeout:
            report.steps.append(TransactionStep(name, raw, b"", clock.now_ms() - sent_at))
            raise _Abort(TIMED_OUT) from None
        report.steps.append(TransactionStep(name, raw, reply, clock.now_ms() - sent_at))
        if cfg.timeout_ms is not None and clock.now_ms() - start > cfg.timeout_ms:
            raise _Abort(TIMED_OUT)
        try:
            resp = ResponseApdu.parse(reply)
        except MalformedApdu:
            raise _Abort(DECLINED, "malformed_response") from None
        if not resp.is_success:
            raise _Abort(DECLINED, f"{resp.sw:04X}")
        return resp

    try:
        _run_steps(report, step, un)
        report.outcome = APPROVED
        report.reason = None
    except _Abort as abort:
        report.outcome = abort.outcome
        report.reason = abort.reason
    except CardRemoved as exc:
        report.outcome = CARD_REMOVED
        report.reason = str(exc)
    report.total_ms = clock.now_ms() - start
    return report


# What the terminal reads from a response is memoised on the response bytes.
# The memos are bounded and hold only immutable values; lru_cache stores no
# exception, so a malformed response is parsed every time.
_MEMO_SIZE = 32

# tag paths of the fields read from each response, as raw tags
_FCI_PATHS = ((b"\x6f", b"\x84"),)
_GPO_PATHS = ((b"\x77", b"\x82"), (b"\x77", b"\x94"))
_RECORD_PATHS = ((b"\x70", b"\x56"), (b"\x70", b"\x9f\x6b"))
_CC_PATHS = ((b"\x77", b"\x9f\x61"), (b"\x77", b"\x9f\x60"), (b"\x77", b"\x9f\x36"))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _pick_application(fci: bytes) -> bytes:
    try:
        nodes = tlv.decode(fci)
    except tlv.TlvError:
        raise _Abort(DECLINED, "malformed_ppse_fci") from None
    candidates: list[tuple[int, bytes]] = []
    for template in tlv.find_all(nodes, b"\x61"):
        aid = tlv.find(template.children, [b"\x4f"])
        if aid is None:
            continue
        priority = tlv.find(template.children, [b"\x87"])
        candidates.append((priority[0] if priority else 0xFF, aid))
    if not candidates:
        raise _Abort(DECLINED, "no_supported_application")
    candidates.sort(key=lambda item: item[0])
    return candidates[0][1]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _fields(
    raw: bytes, paths: tuple[tuple[bytes, ...], ...], reason: str
) -> tuple[Optional[bytes], ...]:
    """Values at ``paths`` in the TLV response ``raw``; decline with ``reason``
    if ``raw`` does not decode."""
    try:
        nodes = tlv.decode(raw)
    except tlv.TlvError:
        raise _Abort(DECLINED, reason) from None
    return tuple(tlv.find(nodes, path) for path in paths)


def _run_steps(report: TransactionReport, step, un: bytes) -> None:
    ppse = step("select_ppse", select_command(PPSE_AID))
    aid = _pick_application(ppse.data)

    fci = step("select_aid", select_command(aid))
    (df_name,) = _fields(fci.data, _FCI_PATHS, "malformed_fci")
    if df_name != aid:
        raise _Abort(DECLINED, "fci_name_mismatch")

    gpo = step("gpo", GPO_COMMAND)
    aip, afl = _fields(gpo.data, _GPO_PATHS, "malformed_gpo")
    if aip is None or len(aip) != 2:
        raise _Abort(DECLINED, "missing_aip")
    if aip[1] & 0x80:
        raise _Abort(DECLINED, "unsupported_profile")
    if afl is None or not afl or len(afl) % 4:
        raise _Abort(DECLINED, "malformed_afl")

    for chunk_at in range(0, len(afl), 4):
        sfi, first, last, _signed = parse_afl(afl[chunk_at : chunk_at + 4])
        for record_no in range(first, last + 1):
            record = step("read_record", read_record_command(sfi, record_no))
            track1, track2 = _fields(record.data, _RECORD_PATHS, "malformed_record")
            if track1 is not None:
                report.track1 = track1
            if track2 is not None:
                report.track2 = track2
    if report.track2 is None:
        raise _Abort(DECLINED, "missing_track_data")
    try:
        report.pan, report.expiry, report.service_code, report.discretionary = (
            parse_track2(report.track2)
        )
    except MalformedTrack:
        raise _Abort(DECLINED, "malformed_track2") from None

    cc = step("compute_cc", compute_cc_command(un))
    # a cryptogram never repeats, so it is read past the memo
    cvc3_t2, cvc3_t1, atc = _fields.__wrapped__(
        cc.data, _CC_PATHS, "malformed_cryptogram"
    )
    if cvc3_t1 is None or cvc3_t2 is None or atc is None or len(atc) != 2:
        raise _Abort(DECLINED, "missing_cryptogram")
    report.cvc3_track1 = cvc3_t1
    report.cvc3_track2 = cvc3_t2
    report.atc = int.from_bytes(atc, "big")


class DirectCardInterface:
    """Card interface straight into an in-process secure element.

    Applies the access path's sampled delay to every exchange, then takes
    the same hop into the secure element a relayed command takes, so a run
    over this interface is timed and answered the way a relayed run is.
    """

    def __init__(
        self,
        se: SecureElement,
        origin: ChannelOrigin,
        model: Optional[LatencyModel] = None,
        clock=None,
    ):
        self.se = se
        self.origin = origin
        self.model = model
        self.clock = clock if clock is not None else WallClock()

    def exchange(self, capdu: bytes, max_wait_ms: Optional[float] = None) -> bytes:
        if self.model is not None:
            self.clock.sleep_ms(self.model.sample_ms())
        return se_exchange(self.se, self.origin, capdu)

"""Simulated embedded secure element.

Models the applet registry of a wallet-enabled phone: a payment system
environment directory, a Mag-Stripe payment applet gated by a wallet lock
flag, the wallet's on-card control component (reachable only through the
internal interface), and a card-manager stub used as benchmark workload.

Commands arrive on one of two channels (internal or contactless) and every
command yields exactly one response APDU; failures are status words, never
exceptions.
"""
from __future__ import annotations

import functools
import hashlib
import hmac
from enum import Enum
from typing import Dict, Iterable, Optional, Sequence

from . import tlv
from .apdu import CommandApdu, ResponseApdu
from .profile import CardProfile, CountermeasurePolicy
from .tlv import TlvNode


class ChannelOrigin(Enum):
    INTERNAL = "internal"
    CONTACTLESS = "contactless"


# status words
SW_SUCCESS = 0x9000
SW_WRONG_LENGTH = 0x6700
SW_PIN_BLOCKED = 0x6983
SW_CONDITIONS_NOT_SATISFIED = 0x6985
SW_WRONG_DATA = 0x6A80
SW_NOT_FOUND = 0x6A82
SW_RECORD_NOT_FOUND = 0x6A83
SW_INS_NOT_SUPPORTED = 0x6D00
SW_CLA_NOT_SUPPORTED = 0x6E00
SW_PIN_RETRIES_BASE = 0x63C0  # low nibble carries the remaining tries

# applet identifiers (the wallet layout this testbed reproduces)
PPSE_AID = bytes.fromhex("325041592E5359532E4444463031")  # "2PAY.SYS.DDF01"
PREPAID_AID = bytes.fromhex("A0000000041010AA54303200FF01FFFF")
MASTERCARD_AID = bytes.fromhex("A0000000041010")
WALLET_AID = bytes.fromhex("A0000004762010")
ISD_AID = bytes.fromhex("A000000003535041")
ISD_PREFIX_AID = bytes.fromhex("A0000000035350")

MAG_STRIPE_VERSION = bytes.fromhex("0001")  # tag 9F6C
DEFAULT_AIP = bytes.fromhex("0000")  # tag 82: Mag-Stripe profile only
DEFAULT_AFL = bytes.fromhex("08010100")  # tag 94: SFI 1, record 1 only

# instruction bytes
INS_SELECT = 0xA4
INS_VERIFY = 0x20
INS_GPO = 0xA8
INS_READ_RECORD = 0xB2
INS_COMPUTE_CC = 0x2A
INS_LOCK_CTRL = 0xE2
INS_GET_DATA = 0xCA
INS_GET_STATUS = 0xF2
INS_CARD_TOGGLE = 0xF0

P2_UNLOCK = 0xAA
P2_LOCK = 0x55


def select_command(aid: bytes) -> CommandApdu:
    return CommandApdu(0x00, INS_SELECT, 0x04, 0x00, data=aid, le=0)


def verify_command(pin: str) -> CommandApdu:
    return CommandApdu(0x00, INS_VERIFY, 0x00, 0x00, data=pin.encode("ascii"))


UNLOCK_COMMAND = CommandApdu(0x80, INS_LOCK_CTRL, 0x00, P2_UNLOCK, le=0)
# the data is an empty command template (tag 83): the applet asks for no PDOL
GPO_COMMAND = CommandApdu(0x80, INS_GPO, 0x00, 0x00, data=b"\x83\x00", le=0)


def read_record_command(sfi: int, record_no: int) -> CommandApdu:
    return CommandApdu(0x00, INS_READ_RECORD, record_no, (sfi << 3) | 0x04, le=0)


def compute_cc_command(un: bytes) -> CommandApdu:
    return CommandApdu(0x80, INS_COMPUTE_CC, 0x8E, 0x80, data=un, le=0)


PIN_RETRY_LIMIT = 3

# keyed stand-in for the proprietary dynamic card verification code: the
# first two digest bytes over (track label || UN || ATC). Deliberately not
# the genuine derivation; it only preserves the per-UN/per-ATC dynamics.
CVC3_TRACK1_LABEL = b"T1"
CVC3_TRACK2_LABEL = b"T2"


def compute_cvc3(key: bytes, track_label: bytes, un: bytes, atc: int) -> bytes:
    msg = track_label + un + atc.to_bytes(2, "big")
    return hmac.new(key, msg, hashlib.sha256).digest()[:2]


# Every response except COMPUTE CC is a pure function of its status word or
# of an applet's configuration, so each is built once and the same frozen
# ResponseApdu answers every later call: bare status words in a module-level
# memo, applet replies when the applet is built. A new SecureElement is built
# for every run, so the default applets are shared per profile. Both memos are
# bounded because callers may construct arbitrarily many configurations.
_RESPONSE_MEMO_SIZE = 32

_bare_status = functools.lru_cache(maxsize=_RESPONSE_MEMO_SIZE)(ResponseApdu.from_sw)


def status(sw: int, data: bytes = b"") -> ResponseApdu:
    """The response ``data || sw``; one shared object when there is no data."""
    return ResponseApdu.from_sw(sw, data) if data else _bare_status(sw)


CARD_LIST_REPLY = status(
    SW_SUCCESS, TlvNode.constructed(0xA5, [TlvNode.primitive(0x4F, PREPAID_AID)]).encode()
)
STATUS_REPLY = status(
    SW_SUCCESS, TlvNode.constructed(0xE3, [TlvNode.primitive(0x4F, PREPAID_AID)]).encode()
)
CARD_MANAGER_REPLY = status(
    SW_SUCCESS,
    TlvNode.constructed(
        0x6F,
        [
            TlvNode.primitive(0x84, ISD_AID),
            TlvNode.constructed(0xA5, [TlvNode.primitive(0xC0, bytes(87))]),
        ],
    ).encode(),
)


class Applet:
    """Base class: a registry entry answering SELECT and channel commands."""

    def __init__(self, aids: Sequence[bytes], internal_only: bool = False):
        self.aids = tuple(bytes(a) for a in aids)
        self.internal_only = internal_only

    @property
    def aid(self) -> bytes:
        return self.aids[0]

    def select(self, se: "SecureElement", origin: ChannelOrigin) -> ResponseApdu:
        return status(SW_SUCCESS)

    def process(
        self, se: "SecureElement", origin: ChannelOrigin, cmd: CommandApdu
    ) -> ResponseApdu:
        return status(SW_INS_NOT_SUPPORTED)


class PpseApplet(Applet):
    """Payment system environment: lists the installed payment applications."""

    def __init__(self, entries: Optional[Sequence[tuple[bytes, int]]] = None):
        super().__init__([PPSE_AID])
        self.entries = (
            tuple((bytes(aid), priority) for aid, priority in entries)
            if entries is not None
            else ((PREPAID_AID, 1), (MASTERCARD_AID, 2))
        )
        templates = [
            TlvNode.constructed(
                0x61,
                [
                    TlvNode.primitive(0x4F, aid),
                    TlvNode.primitive(0x87, bytes((priority,))),
                ],
            )
            for aid, priority in self.entries
        ]
        node = TlvNode.constructed(
            0x6F,
            [
                TlvNode.primitive(0x84, PPSE_AID),
                TlvNode.constructed(0xA5, [TlvNode.constructed(0xBF0C, templates)]),
            ],
        )
        self._fci = status(SW_SUCCESS, node.encode())

    def select(self, se: "SecureElement", origin: ChannelOrigin) -> ResponseApdu:
        return self._fci


class PaymentApplet(Applet):
    """Mag-Stripe payment applet; refuses selection while the wallet is locked."""

    def __init__(
        self,
        profile: CardProfile,
        aid: bytes = PREPAID_AID,
        label: str = "MasterCard",
        aip: bytes = DEFAULT_AIP,
        afl: bytes = DEFAULT_AFL,
    ):
        super().__init__([aid])
        self.profile = profile
        self.label = label
        self.aip = bytes(aip)
        self.afl = bytes(afl)
        # every reply but COMPUTE CC's, built once
        fci = TlvNode.constructed(
            0x6F,
            [
                TlvNode.primitive(0x84, self.aid),
                TlvNode.constructed(0xA5, [TlvNode.primitive(0x50, label.encode("ascii"))]),
            ],
        )
        gpo = TlvNode.constructed(
            0x77, [TlvNode.primitive(0x82, self.aip), TlvNode.primitive(0x94, self.afl)]
        )
        record = TlvNode.constructed(
            0x70,
            [
                TlvNode.primitive(0x9F6C, MAG_STRIPE_VERSION),
                TlvNode.primitive(0x9F62, profile.track1_cvc3_bitmap),
                TlvNode.primitive(0x9F63, profile.track1_unatc_bitmap),
                TlvNode.primitive(0x56, profile.track1()),
                TlvNode.primitive(0x9F64, bytes((profile.track1_atc_digits,))),
                TlvNode.primitive(0x9F65, profile.track2_cvc3_bitmap),
                TlvNode.primitive(0x9F66, profile.track2_unatc_bitmap),
                TlvNode.primitive(0x9F6B, profile.track2()),
                TlvNode.primitive(0x9F67, bytes((profile.track2_atc_digits,))),
            ],
        )
        self._fci = status(SW_SUCCESS, fci.encode())
        self._gpo = status(SW_SUCCESS, gpo.encode())
        self._record = status(SW_SUCCESS, record.encode())

    def select(self, se: "SecureElement", origin: ChannelOrigin) -> ResponseApdu:
        if se.wallet_locked:
            return status(SW_CONDITIONS_NOT_SATISFIED)
        return self._fci

    def process(
        self, se: "SecureElement", origin: ChannelOrigin, cmd: CommandApdu
    ) -> ResponseApdu:
        if cmd.cla == 0x80 and cmd.ins == INS_GPO and (cmd.p1, cmd.p2) == (0, 0):
            if cmd.data != GPO_COMMAND.data:
                return status(SW_WRONG_DATA)
            return self._gpo
        if cmd.cla == 0x00 and cmd.ins == INS_READ_RECORD:
            # single data file: SFI 1, record 1
            if (cmd.p1, cmd.p2) != (0x01, 0x0C):
                return status(SW_RECORD_NOT_FOUND)
            return self._record
        if cmd.cla == 0x80 and cmd.ins == INS_COMPUTE_CC and (cmd.p1, cmd.p2) == (0x8E, 0x80):
            if len(cmd.data) != 4:
                return status(SW_WRONG_LENGTH)
            se.atc = (se.atc + 1) & 0xFFFF
            key = self.profile.cvc3_key
            body = TlvNode.constructed(
                0x77,
                [
                    TlvNode.primitive(
                        0x9F61, compute_cvc3(key, CVC3_TRACK2_LABEL, cmd.data, se.atc)
                    ),
                    TlvNode.primitive(
                        0x9F60, compute_cvc3(key, CVC3_TRACK1_LABEL, cmd.data, se.atc)
                    ),
                    TlvNode.primitive(0x9F36, se.atc.to_bytes(2, "big")),
                ],
            )
            return status(SW_SUCCESS, body.encode())
        return status(SW_INS_NOT_SUPPORTED)


class WalletControlApplet(Applet):
    """The wallet's on-card component: lock state, PIN gate, card toggles.

    Only reachable through the internal interface. The list/status payloads
    are fixed stubs; the corresponding commands on the real card are
    undocumented, so nothing authoritative is claimed about their content.
    """

    def __init__(self):
        super().__init__([WALLET_AID], internal_only=True)

    def process(
        self, se: "SecureElement", origin: ChannelOrigin, cmd: CommandApdu
    ) -> ResponseApdu:
        if origin is not ChannelOrigin.INTERNAL:
            return status(SW_CONDITIONS_NOT_SATISFIED)
        if cmd.cla == 0x00 and cmd.ins == INS_VERIFY and (cmd.p1, cmd.p2) == (0, 0):
            return self._verify(se, cmd)
        if cmd.cla != 0x80:
            return status(SW_INS_NOT_SUPPORTED)
        if cmd.ins == INS_LOCK_CTRL and cmd.p1 == 0x00:
            if cmd.p2 == P2_UNLOCK:
                return self._unlock(se)
            if cmd.p2 == P2_LOCK:
                return self._lock(se)
            return status(SW_INS_NOT_SUPPORTED)
        if cmd.ins == INS_GET_DATA and (cmd.p1, cmd.p2) == (0x00, 0xA5):
            return CARD_LIST_REPLY
        if cmd.ins == INS_GET_STATUS and (cmd.p1, cmd.p2) == (0x40, 0x00):
            return STATUS_REPLY
        if cmd.ins == INS_CARD_TOGGLE and cmd.p2 == 0x01 and cmd.p1 in (0x01, 0x02):
            return self._toggle_card(se, enable=(cmd.p1 == 0x02), data=cmd.data)
        return status(SW_INS_NOT_SUPPORTED)

    def _verify(self, se: "SecureElement", cmd: CommandApdu) -> ResponseApdu:
        if se.pin_retries == 0:
            return status(SW_PIN_BLOCKED)
        try:
            candidate = cmd.data.decode("ascii")
        except UnicodeDecodeError:
            candidate = ""
        if candidate == se.profile.pin:
            se.pin_retries = PIN_RETRY_LIMIT
            se.pin_verified = True
            return status(SW_SUCCESS)
        se.pin_retries -= 1
        return status(SW_PIN_RETRIES_BASE | se.pin_retries)

    def _unlock(self, se: "SecureElement") -> ResponseApdu:
        if se.policy.require_pin_on_card and not se.pin_verified:
            return status(SW_CONDITIONS_NOT_SATISFIED)
        se.wallet_locked = False
        return status(SW_SUCCESS)

    def _lock(self, se: "SecureElement") -> ResponseApdu:
        se.lock_wallet()
        return status(SW_SUCCESS)

    def _toggle_card(
        self, se: "SecureElement", enable: bool, data: bytes
    ) -> ResponseApdu:
        try:
            nodes = tlv.decode(data)
        except tlv.TlvError:
            return status(SW_WRONG_DATA)
        target = tlv.find(nodes, [0x4F])
        if target is None:
            return status(SW_WRONG_DATA)
        if target not in se.registry:
            return status(SW_NOT_FOUND)
        if enable:
            se.contactless_disabled.discard(target)
        else:
            se.contactless_disabled.add(target)
        return status(SW_SUCCESS)


class CardManagerStub(Applet):
    """Issuer security domain stand-in used purely as a timing workload.

    Registered under both its full AID and the 7-byte name commonly used to
    select it, and answers SELECT with a fixed 103-byte payload (a 105-byte
    response frame including the status word).
    """

    def __init__(self):
        super().__init__([ISD_AID, ISD_PREFIX_AID])

    def select(self, se: "SecureElement", origin: ChannelOrigin) -> ResponseApdu:
        return CARD_MANAGER_REPLY


# Applets keep no state of their own (it lives on the SecureElement), so one
# default set serves every instance built from an equal profile.
@functools.lru_cache(maxsize=_RESPONSE_MEMO_SIZE)
def _default_applets(profile: CardProfile) -> tuple[Applet, ...]:
    return (PpseApplet(), PaymentApplet(profile), WalletControlApplet(), CardManagerStub())


_DEFAULT_PROFILE = CardProfile()
_DEFAULT_POLICY = CountermeasurePolicy()


class SecureElement:
    """One secure element instance with per-channel selection state.

    A single broker must own the instance; commands are processed one at a
    time (the transports in this package serialize them by construction).
    """

    def __init__(
        self,
        profile: Optional[CardProfile] = None,
        policy: Optional[CountermeasurePolicy] = None,
        applets: Optional[Iterable[Applet]] = None,
        atc: int = 0,
        wallet_locked: bool = True,
    ):
        if not (isinstance(atc, int) and 0 <= atc <= 0xFFFF):
            raise ValueError(f"atc must be an integer 0-65535, got {atc!r}")
        self.profile = profile if profile is not None else _DEFAULT_PROFILE
        self.policy = policy if policy is not None else _DEFAULT_POLICY
        if applets is None:
            applets = _default_applets(self.profile)
        self.registry: Dict[bytes, Applet] = {}
        for applet in applets:
            for aid in applet.aids:
                if aid in self.registry:
                    raise ValueError(f"duplicate AID {aid.hex()}")
                self.registry[aid] = applet
        unknown = self.policy.internal_disabled_aids - self.registry.keys()
        if unknown:
            raise ValueError(
                "policy references unregistered AIDs: "
                + ", ".join(sorted(a.hex() for a in unknown))
            )
        self.wallet_locked = wallet_locked
        self.atc = atc
        self.pin_retries = PIN_RETRY_LIMIT
        self.pin_verified = False
        self.contactless_disabled: set[bytes] = set()
        self.selected: Dict[ChannelOrigin, Optional[bytes]] = {
            ChannelOrigin.INTERNAL: None,
            ChannelOrigin.CONTACTLESS: None,
        }

    # -- session plumbing ---------------------------------------------------

    def open_session(self, origin: ChannelOrigin) -> None:
        """Opening and closing both reset the channel: nothing selected, PIN unverified."""
        self.selected[origin] = None
        if origin is ChannelOrigin.INTERNAL:
            self.pin_verified = False

    close_session = open_session

    def lock_wallet(self) -> None:
        """Lock and drop any non-wallet selection on either channel."""
        self.wallet_locked = True
        for origin in self.selected:
            if self.selected[origin] != WALLET_AID:
                self.selected[origin] = None

    # -- command dispatch ---------------------------------------------------

    def process(self, origin: ChannelOrigin, cmd: CommandApdu) -> ResponseApdu:
        if cmd.cla not in (0x00, 0x80):
            return status(SW_CLA_NOT_SUPPORTED)
        if cmd.cla == 0x00 and cmd.ins == INS_SELECT and cmd.p1 == 0x04:
            return self._select(origin, cmd.data)
        aid = self.selected[origin]
        if aid is None:
            return status(SW_CONDITIONS_NOT_SATISFIED)
        blocked = self._origin_block(origin, aid)
        if blocked is not None:
            return blocked
        return self.registry[aid].process(self, origin, cmd)

    def _origin_block(
        self, origin: ChannelOrigin, aid: bytes
    ) -> Optional[ResponseApdu]:
        if (
            origin is ChannelOrigin.INTERNAL
            and aid in self.policy.internal_disabled_aids
        ):
            return status(SW_NOT_FOUND)
        if origin is ChannelOrigin.CONTACTLESS and aid in self.contactless_disabled:
            return status(SW_NOT_FOUND)
        return None

    def _select(self, origin: ChannelOrigin, name: bytes) -> ResponseApdu:
        applet = self.registry.get(name)
        if applet is None:
            self.selected[origin] = None
            return status(SW_NOT_FOUND)
        if applet.internal_only and origin is not ChannelOrigin.INTERNAL:
            self.selected[origin] = None
            return status(SW_NOT_FOUND)
        blocked = self._origin_block(origin, name)
        if blocked is not None:
            self.selected[origin] = None
            return blocked
        resp = applet.select(self, origin)
        self.selected[origin] = name if resp.is_success else None
        return resp

import dataclasses
import hashlib
import hmac
import itertools

import pytest

from genutil import (
    CC_SKELETON,
    COMPUTE_CC_C,
    DISABLE_CARD_C,
    ENABLE_CARD_C,
    GET_STATUS_C,
    GPO_C,
    GPO_R,
    LIST_CARDS_C,
    LOCK_C,
    READ_RECORD_C,
    RECORD_OUTER_LEN,
    RECORD_SKELETON,
    SELECT_AID_C,
    SELECT_AID_R,
    SELECT_PPSE_C,
    SELECT_PPSE_R,
    SELECT_WALLET_C,
    UNLOCK_C,
)
from serelay import tlv
from serelay.apdu import CommandApdu, ResponseApdu
from serelay.hexutil import format_hex, parse_hex
from serelay.profile import CardProfile, CountermeasurePolicy, luhn_check_digit
from serelay.secure_element import (
    CardManagerStub,
    ChannelOrigin,
    ISD_AID,
    ISD_PREFIX_AID,
    MASTERCARD_AID,
    PPSE_AID,
    PREPAID_AID,
    PaymentApplet,
    PpseApplet,
    SecureElement,
    WALLET_AID,
    WalletControlApplet,
    verify_command,
)
from serelay.tlv import TlvNode

INTERNAL = ChannelOrigin.INTERNAL
CONTACTLESS = ChannelOrigin.CONTACTLESS


def send(se: SecureElement, origin: ChannelOrigin, hex_cmd: str):
    return se.process(origin, CommandApdu.from_hex(hex_cmd))


def select(se: SecureElement, origin: ChannelOrigin, aid: bytes):
    return se.process(origin, CommandApdu(0x00, 0xA4, 0x04, 0x00, data=aid, le=0))


def unlocked_se(**kwargs) -> SecureElement:
    se = SecureElement(**kwargs)
    se.open_session(INTERNAL)
    assert send(se, INTERNAL, SELECT_WALLET_C).is_success
    assert send(se, INTERNAL, UNLOCK_C).is_success
    return se


class TestSelectionAndOrigins:
    def test_wallet_selectable_internally(self):
        se = SecureElement()
        assert send(se, INTERNAL, SELECT_WALLET_C).sw == 0x9000

    def test_wallet_hidden_from_contactless(self):
        se = SecureElement()
        assert send(se, CONTACTLESS, SELECT_WALLET_C).sw == 0x6A82
        assert se.selected[CONTACTLESS] is None

    def test_unknown_aid(self):
        se = SecureElement()
        assert select(se, CONTACTLESS, b"\xde\xad\xbe\xef\x99").sw == 0x6A82

    def test_wrong_ppse_name(self):
        se = SecureElement()
        resp = select(se, CONTACTLESS, b"1PAY.SYS.DDF01")
        assert resp.sw == 0x6A82

    def test_truncated_payment_aid_is_distinct(self):
        # 7-byte name is listed in the directory but not registered
        se = unlocked_se()
        assert select(se, CONTACTLESS, MASTERCARD_AID).sw == 0x6A82

    def test_channels_hold_independent_selection(self):
        se = unlocked_se()
        assert select(se, CONTACTLESS, PPSE_AID).is_success
        assert se.selected[CONTACTLESS] == PPSE_AID
        assert se.selected[INTERNAL] == WALLET_AID

    def test_failed_select_clears_selection(self):
        se = unlocked_se()
        assert select(se, INTERNAL, PREPAID_AID).is_success
        assert select(se, INTERNAL, b"\xde\xad\xbe\xef\x99").sw == 0x6A82
        assert se.selected[INTERNAL] is None

    def test_command_without_selection(self):
        se = SecureElement()
        assert send(se, CONTACTLESS, GPO_C).sw == 0x6985

    def test_unsupported_class_byte(self):
        se = SecureElement()
        resp = se.process(CONTACTLESS, CommandApdu(0xFF, 0xA4, 0x04, 0x00))
        assert resp.sw == 0x6E00

    def test_isd_stub_answers_both_origins(self):
        se = SecureElement()
        for origin in (INTERNAL, CONTACTLESS):
            resp = select(se, origin, ISD_PREFIX_AID)
            assert resp.is_success
            assert len(resp.to_bytes()) == 105


class TestGoldenResponses:
    def test_ppse_select_bytes(self):
        se = SecureElement()
        resp = send(se, CONTACTLESS, SELECT_PPSE_C)
        assert format_hex(resp.to_bytes()) == SELECT_PPSE_R

    def test_ppse_reselect_is_stateless(self):
        se = unlocked_se()
        first = send(se, CONTACTLESS, SELECT_PPSE_C)
        assert select(se, CONTACTLESS, PREPAID_AID).is_success
        again = send(se, CONTACTLESS, SELECT_PPSE_C)
        assert first == again

    def test_payment_select_bytes(self):
        se = unlocked_se()
        resp = send(se, CONTACTLESS, SELECT_AID_C)
        assert format_hex(resp.to_bytes()) == SELECT_AID_R

    def test_gpo_bytes(self):
        se = unlocked_se()
        send(se, CONTACTLESS, SELECT_AID_C)
        resp = send(se, CONTACTLESS, GPO_C)
        assert format_hex(resp.to_bytes()) == GPO_R


class TestLockGate:
    def test_locked_wallet_refuses_payment_select(self):
        se = SecureElement()
        resp = send(se, CONTACTLESS, SELECT_AID_C)
        assert resp.sw == 0x6985
        assert se.selected[CONTACTLESS] is None

    def test_unlock_idempotent(self):
        se = unlocked_se()
        assert send(se, INTERNAL, UNLOCK_C).sw == 0x9000
        assert not se.wallet_locked

    def test_lock_idempotent(self):
        se = SecureElement()
        se.open_session(INTERNAL)
        send(se, INTERNAL, SELECT_WALLET_C)
        assert send(se, INTERNAL, LOCK_C).sw == 0x9000
        assert send(se, INTERNAL, LOCK_C).sw == 0x9000
        assert se.wallet_locked

    def test_lock_clears_contactless_selection(self):
        se = unlocked_se()
        assert select(se, CONTACTLESS, PREPAID_AID).is_success
        send(se, INTERNAL, SELECT_WALLET_C)
        send(se, INTERNAL, LOCK_C)
        assert se.selected[CONTACTLESS] is None
        assert send(se, CONTACTLESS, GPO_C).sw == 0x6985

    def test_no_track_data_or_cvc3_while_locked(self):
        se = SecureElement()
        for cmd in (SELECT_AID_C, GPO_C, READ_RECORD_C, COMPUTE_CC_C):
            resp = send(se, CONTACTLESS, cmd)
            assert resp.sw != 0x9000
            assert resp.data == b""
        assert se.atc == 0


class TestPinVerification:
    def policy(self) -> CountermeasurePolicy:
        return CountermeasurePolicy(require_pin_on_card=True)

    def verify(self, se: SecureElement, pin: str):
        return se.process(
            INTERNAL, CommandApdu(0x00, 0x20, 0x00, 0x00, data=pin.encode())
        )

    def test_unlock_refused_without_verify(self):
        se = SecureElement(policy=self.policy())
        se.open_session(INTERNAL)
        send(se, INTERNAL, SELECT_WALLET_C)
        assert send(se, INTERNAL, UNLOCK_C).sw == 0x6985
        assert se.wallet_locked

    def test_unlock_after_correct_pin(self):
        se = SecureElement(policy=self.policy())
        se.open_session(INTERNAL)
        send(se, INTERNAL, SELECT_WALLET_C)
        assert self.verify(se, "1234").sw == 0x9000
        assert send(se, INTERNAL, UNLOCK_C).sw == 0x9000
        assert not se.wallet_locked

    def test_retry_counter_sequence(self):
        # independent countdown oracle: 3 tries, 63Cx reports what remains
        se = SecureElement(policy=self.policy())
        se.open_session(INTERNAL)
        send(se, INTERNAL, SELECT_WALLET_C)
        expected_remaining = [2, 1, 0]
        for remaining in expected_remaining:
            resp = self.verify(se, "0000")
            assert resp.sw == 0x63C0 | remaining
        assert self.verify(se, "0000").sw == 0x6983
        assert self.verify(se, "1234").sw == 0x6983  # correct PIN is blocked too

    def test_successful_verify_resets_counter(self):
        se = SecureElement(policy=self.policy())
        se.open_session(INTERNAL)
        send(se, INTERNAL, SELECT_WALLET_C)
        assert self.verify(se, "0000").sw == 0x63C2
        assert self.verify(se, "1234").sw == 0x9000
        assert self.verify(se, "0000").sw == 0x63C2

    def test_verification_state_dies_with_session(self):
        se = SecureElement(policy=self.policy())
        se.open_session(INTERNAL)
        send(se, INTERNAL, SELECT_WALLET_C)
        self.verify(se, "1234")
        se.close_session(INTERNAL)
        se.open_session(INTERNAL)
        send(se, INTERNAL, SELECT_WALLET_C)
        assert send(se, INTERNAL, UNLOCK_C).sw == 0x6985


class TestPaymentApplet:
    def test_gpo_before_select(self):
        se = unlocked_se()
        se2 = SecureElement()
        se2.open_session(CONTACTLESS)
        assert send(se2, CONTACTLESS, GPO_C).sw == 0x6985

    def test_gpo_rejects_other_pdol_data(self):
        se = unlocked_se()
        send(se, CONTACTLESS, SELECT_AID_C)
        resp = se.process(
            CONTACTLESS,
            CommandApdu(0x80, 0xA8, 0x00, 0x00, data=parse_hex("8302AABB"), le=0),
        )
        assert resp.sw == 0x6A80

    def test_record_skeleton(self):
        se = unlocked_se()
        send(se, CONTACTLESS, SELECT_AID_C)
        resp = send(se, CONTACTLESS, READ_RECORD_C)
        assert resp.is_success
        (record,) = tlv.decode(resp.data)
        assert record.tag == b"\x70"
        assert len(record.payload) == RECORD_OUTER_LEN
        layout = [
            (format_hex(child.tag), len(child.value)) for child in record.children
        ]
        assert layout == RECORD_SKELETON

    def test_record_track_contents(self):
        profile = CardProfile()
        se = unlocked_se(profile=profile)
        send(se, CONTACTLESS, SELECT_AID_C)
        resp = send(se, CONTACTLESS, READ_RECORD_C)
        nodes = tlv.decode(resp.data)
        assert tlv.find(nodes, [0x70, 0x56]) == profile.track1()
        assert tlv.find(nodes, [0x70, 0x9F6B]) == profile.track2()
        assert tlv.find(nodes, [0x70, 0x9F62]) == profile.track1_cvc3_bitmap
        assert tlv.find(nodes, [0x70, 0x9F64]) == b"\x04"

    def test_only_record_one_exists(self):
        se = unlocked_se()
        send(se, CONTACTLESS, SELECT_AID_C)
        resp = se.process(CONTACTLESS, CommandApdu(0x00, 0xB2, 0x02, 0x0C, le=0))
        assert resp.sw == 0x6A83

    def test_unknown_instruction(self):
        se = unlocked_se()
        send(se, CONTACTLESS, SELECT_AID_C)
        resp = se.process(CONTACTLESS, CommandApdu(0x80, 0xF1, 0x00, 0x00))
        assert resp.sw == 0x6D00


class TestComputeCryptographicChecksum:
    def run_cc(self, se, un: bytes):
        return se.process(
            CONTACTLESS, CommandApdu(0x80, 0x2A, 0x8E, 0x80, data=un, le=0)
        )

    def test_response_skeleton_and_atc(self):
        se = unlocked_se(atc=0x11)
        send(se, CONTACTLESS, SELECT_AID_C)
        resp = self.run_cc(se, parse_hex("00000080"))
        assert resp.is_success
        (body,) = tlv.decode(resp.data)
        assert body.tag == b"\x77" and len(body.payload) == 0x0F
        layout = [(format_hex(c.tag), len(c.value)) for c in body.children]
        assert layout == CC_SKELETON
        assert tlv.find([body], [0x9F36]) == parse_hex("0012")
        assert se.atc == 0x12

    def test_cvc3_matches_independent_digest(self):
        profile = CardProfile()
        se = unlocked_se(profile=profile)
        send(se, CONTACTLESS, SELECT_AID_C)
        un = parse_hex("00000080")
        resp = self.run_cc(se, un)
        nodes = tlv.decode(resp.data)
        atc = se.atc.to_bytes(2, "big")
        expect_t1 = hmac.new(profile.cvc3_key, b"T1" + un + atc, hashlib.sha256).digest()[:2]
        expect_t2 = hmac.new(profile.cvc3_key, b"T2" + un + atc, hashlib.sha256).digest()[:2]
        assert tlv.find(nodes, [0x77, 0x9F60]) == expect_t1
        assert tlv.find(nodes, [0x77, 0x9F61]) == expect_t2

    def test_same_un_different_atc_changes_cvc3(self):
        se = unlocked_se()
        send(se, CONTACTLESS, SELECT_AID_C)
        un = parse_hex("DEADBEEF")
        first = tlv.decode(self.run_cc(se, un).data)
        second = tlv.decode(self.run_cc(se, un).data)
        assert tlv.find(first, [0x77, 0x9F36]) != tlv.find(second, [0x77, 0x9F36])
        assert tlv.find(first, [0x77, 0x9F61]) != tlv.find(second, [0x77, 0x9F61])

    def test_wrong_un_length(self):
        se = unlocked_se()
        send(se, CONTACTLESS, SELECT_AID_C)
        resp = self.run_cc(se, b"\x00\x00\x00")
        assert resp.sw == 0x6700
        assert se.atc == 0

    def test_atc_monotonic_and_only_cc_moves_it(self):
        se = unlocked_se()
        send(se, CONTACTLESS, SELECT_AID_C)
        for expected in range(1, 6):
            assert self.run_cc(se, b"\x00\x00\x00\x01").is_success
            assert se.atc == expected
        send(se, CONTACTLESS, READ_RECORD_C)
        send(se, CONTACTLESS, SELECT_PPSE_C)
        assert se.atc == 5


class TestWalletMisc:
    def test_list_cards_stub(self):
        se = SecureElement()
        se.open_session(INTERNAL)
        send(se, INTERNAL, SELECT_WALLET_C)
        resp = send(se, INTERNAL, LIST_CARDS_C)
        assert resp.is_success and resp.data != b""

    def test_get_status_stub(self):
        se = SecureElement()
        se.open_session(INTERNAL)
        send(se, INTERNAL, SELECT_WALLET_C)
        resp = send(se, INTERNAL, GET_STATUS_C)
        assert resp.is_success and resp.data != b""

    def test_unknown_wallet_instruction(self):
        se = SecureElement()
        se.open_session(INTERNAL)
        send(se, INTERNAL, SELECT_WALLET_C)
        resp = se.process(INTERNAL, CommandApdu(0x80, 0xF1, 0x00, 0x00))
        assert resp.sw == 0x6D00

    def test_disable_card_blocks_contactless_select(self):
        se = unlocked_se()
        assert send(se, INTERNAL, DISABLE_CARD_C).is_success
        assert send(se, CONTACTLESS, SELECT_AID_C).sw == 0x6A82
        # internal access still works: the toggle is contactless-only
        assert select(se, INTERNAL, PREPAID_AID).is_success

    def test_enable_card_restores_contactless_select(self):
        se = unlocked_se()
        send(se, INTERNAL, DISABLE_CARD_C)
        assert send(se, INTERNAL, ENABLE_CARD_C).is_success
        assert send(se, CONTACTLESS, SELECT_AID_C).is_success

    def test_toggle_sequences_match_flag_oracle(self):
        # after any toggle sequence, selectability equals the last action
        se = unlocked_se()
        import random

        r = random.Random(0x70C6)
        enabled = True
        for _ in range(40):
            enable = r.random() < 0.5
            send(se, INTERNAL, ENABLE_CARD_C if enable else DISABLE_CARD_C)
            enabled = enable
            got = send(se, CONTACTLESS, SELECT_AID_C).is_success
            assert got == enabled

    def test_toggle_unknown_aid(self):
        se = SecureElement()
        se.open_session(INTERNAL)
        send(se, INTERNAL, SELECT_WALLET_C)
        cmd = "80F00101094F07DEADBEEF99887700"
        assert send(se, INTERNAL, cmd).sw == 0x6A82


class TestInternalDisablePolicy:
    def policy(self) -> CountermeasurePolicy:
        return CountermeasurePolicy(
            internal_disabled_aids=frozenset({PREPAID_AID})
        )

    def test_internal_select_refused_contactless_works(self):
        se = SecureElement(policy=self.policy())
        se.open_session(INTERNAL)
        send(se, INTERNAL, SELECT_WALLET_C)
        send(se, INTERNAL, UNLOCK_C)
        assert select(se, INTERNAL, PREPAID_AID).sw == 0x6A82
        assert select(se, CONTACTLESS, PREPAID_AID).is_success

    def test_commands_to_disabled_selection_fail(self):
        # policy flipped on mid-session: the dispatch gate still applies
        se = unlocked_se()
        assert select(se, INTERNAL, PREPAID_AID).is_success
        se.policy = self.policy()
        for cmd in (GPO_C, READ_RECORD_C, COMPUTE_CC_C):
            assert send(se, INTERNAL, cmd).sw == 0x6A82

    def test_policy_must_reference_registered_aids(self):
        with pytest.raises(ValueError):
            SecureElement(
                policy=CountermeasurePolicy(
                    internal_disabled_aids=frozenset({b"\xde\xad\xbe\xef\x99"})
                )
            )


class TestDeterminism:
    def test_identical_triples_identical_responses(self):
        def run():
            se = unlocked_se(atc=7)
            send(se, CONTACTLESS, SELECT_AID_C)
            send(se, CONTACTLESS, GPO_C)
            return [
                send(se, CONTACTLESS, READ_RECORD_C).to_bytes(),
                send(se, CONTACTLESS, COMPUTE_CC_C).to_bytes(),
            ]

        assert run() == run()


# ---------------------------------------------------------------------------
# brute-force state-machine oracle
# ---------------------------------------------------------------------------

CMD_SELECT_WALLET = ("select", "wallet")
CMD_SELECT_PPSE = ("select", "ppse")
CMD_SELECT_PAYMENT = ("select", "payment")
CMD_SELECT_UNKNOWN = ("select", "unknown")
CMD_UNLOCK = ("wallet", "unlock")
CMD_LOCK = ("wallet", "lock")
CMD_VERIFY_GOOD = ("wallet", "verify_good")
CMD_VERIFY_BAD = ("wallet", "verify_bad")
CMD_GPO = ("payment", "gpo")
CMD_READ_RECORD = ("payment", "read_record")
CMD_COMPUTE_CC = ("payment", "compute_cc")

ALL_COMMANDS = [
    CMD_SELECT_WALLET,
    CMD_SELECT_PPSE,
    CMD_SELECT_PAYMENT,
    CMD_SELECT_UNKNOWN,
    CMD_UNLOCK,
    CMD_LOCK,
    CMD_VERIFY_GOOD,
    CMD_VERIFY_BAD,
    CMD_GPO,
    CMD_READ_RECORD,
    CMD_COMPUTE_CC,
]

COMMAND_BYTES = {
    CMD_SELECT_WALLET: SELECT_WALLET_C,
    CMD_SELECT_PPSE: SELECT_PPSE_C,
    CMD_SELECT_PAYMENT: SELECT_AID_C,
    CMD_SELECT_UNKNOWN: "00A4040005DEADBEEF9900",
    CMD_UNLOCK: UNLOCK_C,
    CMD_LOCK: LOCK_C,
    CMD_VERIFY_GOOD: "002000000431323334",
    CMD_VERIFY_BAD: "002000000430303030",
    CMD_GPO: GPO_C,
    CMD_READ_RECORD: READ_RECORD_C,
    CMD_COMPUTE_CC: COMPUTE_CC_C,
}


def oracle_expected(pin_required, payment_disabled, origin, locked, verified, selected, command):
    """Documented dispatch rules, written flat and independent of the code.

    Returns (sw, locked_after). ``selected`` is one of None/"wallet"/"ppse"/
    "payment". PIN retries are at their initial value of 3 in every case.
    """
    kind, name = command
    internal = origin is INTERNAL
    if kind == "select":
        if name == "unknown":
            return 0x6A82, locked
        if name == "wallet":
            return (0x9000, locked) if internal else (0x6A82, locked)
        if name == "ppse":
            return 0x9000, locked
        # payment applet
        if internal and payment_disabled:
            return 0x6A82, locked
        if locked:
            return 0x6985, locked
        return 0x9000, locked
    # non-select commands land on whatever is selected on this channel;
    # a channel-blocked selection answers 6A82 before the applet is asked
    if selected is None:
        return 0x6985, locked
    if selected == "payment" and internal and payment_disabled:
        return 0x6A82, locked
    if kind == "wallet":
        if selected != "wallet":
            return 0x6D00, locked
        if not internal:
            return 0x6985, locked  # unreachable in practice, defensive gate
        if name == "unlock":
            if pin_required and not verified:
                return 0x6985, locked
            return 0x9000, False
        if name == "lock":
            return 0x9000, True
        if name == "verify_good":
            return 0x9000, locked
        return 0x63C2, locked  # first wrong try from 3 retries
    # payment commands
    if selected in ("wallet", "ppse"):
        if selected == "wallet" and not internal:
            return 0x6985, locked
        return 0x6D00, locked
    return 0x9000, locked


SELECTED_AIDS = {"wallet": WALLET_AID, "ppse": PPSE_AID, "payment": PREPAID_AID}


def reachable(origin, locked, verified, selected, pin_required):
    """Prune state combinations the real command flow cannot produce.

    A forced wallet-on-contactless selection is kept: it cannot arise through
    SELECT, but enumerating it exercises the applet's own origin gate.
    """
    if selected == "payment" and locked:
        return False  # locking always clears payment selections
    if verified and not pin_required:
        # VERIFY works either way, but only enumerate it where it matters
        return False
    return True


def test_state_machine_against_enumeration_oracle():
    cases = 0
    for pin_required, payment_disabled, origin, locked, verified, selected, command in itertools.product(
        (False, True),
        (False, True),
        (INTERNAL, CONTACTLESS),
        (True, False),
        (False, True),
        (None, "wallet", "ppse", "payment"),
        ALL_COMMANDS,
    ):
        if not reachable(origin, locked, verified, selected, pin_required):
            continue
        policy = CountermeasurePolicy(
            require_pin_on_card=pin_required,
            internal_disabled_aids=(
                frozenset({PREPAID_AID}) if payment_disabled else frozenset()
            ),
        )
        se = SecureElement(policy=policy, wallet_locked=locked)
        se.open_session(origin)
        se.pin_verified = verified
        se.selected[origin] = SELECTED_AIDS.get(selected)

        expected_sw, expected_locked = oracle_expected(
            pin_required, payment_disabled, origin, locked, verified, selected, command
        )
        resp = send(se, origin, COMMAND_BYTES[command])
        context = (
            f"pin_required={pin_required} disabled={payment_disabled} "
            f"origin={origin.value} locked={locked} verified={verified} "
            f"selected={selected} command={command}"
        )
        assert resp.sw == expected_sw, f"sw mismatch: {context} got {resp.sw:04X}"
        assert se.wallet_locked == expected_locked, f"lock mismatch: {context}"
        cases += 1
    assert cases > 700


# -- memoized static responses ------------------------------------------------
#
# The references below rebuild each response as a fresh, fully validated
# TlvNode tree on every call, the way the card answered before its static
# responses were memoized.


def fresh_ppse_fci(entries) -> bytes:
    templates = [
        TlvNode.constructed(
            0x61, [TlvNode.primitive(0x4F, aid), TlvNode.primitive(0x87, bytes((prio,)))]
        )
        for aid, prio in entries
    ]
    return TlvNode.constructed(
        0x6F,
        [
            TlvNode.primitive(0x84, PPSE_AID),
            TlvNode.constructed(0xA5, [TlvNode.constructed(0xBF0C, templates)]),
        ],
    ).encode()


def fresh_payment_fci(aid: bytes, label: str) -> bytes:
    return TlvNode.constructed(
        0x6F,
        [
            TlvNode.primitive(0x84, aid),
            TlvNode.constructed(0xA5, [TlvNode.primitive(0x50, label.encode("ascii"))]),
        ],
    ).encode()


def fresh_gpo(aip: bytes, afl: bytes) -> bytes:
    return TlvNode.constructed(
        0x77, [TlvNode.primitive(0x82, aip), TlvNode.primitive(0x94, afl)]
    ).encode()


def fresh_record(p: CardProfile) -> bytes:
    fields = [
        (0x9F6C, bytes.fromhex("0001")),
        (0x9F62, p.track1_cvc3_bitmap),
        (0x9F63, p.track1_unatc_bitmap),
        (0x56, p.track1()),
        (0x9F64, bytes((p.track1_atc_digits,))),
        (0x9F65, p.track2_cvc3_bitmap),
        (0x9F66, p.track2_unatc_bitmap),
        (0x9F6B, p.track2()),
        (0x9F67, bytes((p.track2_atc_digits,))),
    ]
    return TlvNode.constructed(
        0x70, [TlvNode.primitive(tag, value) for tag, value in fields]
    ).encode()


FRESH_CARD_LIST = TlvNode.constructed(0xA5, [TlvNode.primitive(0x4F, PREPAID_AID)]).encode()
FRESH_STATUS = TlvNode.constructed(0xE3, [TlvNode.primitive(0x4F, PREPAID_AID)]).encode()
FRESH_CARD_MANAGER = TlvNode.constructed(
    0x6F,
    [
        TlvNode.primitive(0x84, ISD_AID),
        TlvNode.constructed(0xA5, [TlvNode.primitive(0xC0, bytes(87))]),
    ],
).encode()

DEFAULT_CONFIG = {
    "profile": CardProfile(),
    "entries": ((PREPAID_AID, 1), (MASTERCARD_AID, 2)),
    "aid": PREPAID_AID,
    "label": "MasterCard",
    "aip": bytes.fromhex("0000"),
    "afl": bytes.fromhex("08010100"),
}
CUSTOM_CONFIG = {
    "profile": CardProfile(
        pan="541333000000001" + str(luhn_check_digit("541333000000001")),
        expiry="2912",
        service_code="201",
        discretionary="9876543210123",
        track1_atc_digits=3,
        cvc3_key=bytes(range(16)),
    ),
    "entries": ((MASTERCARD_AID, 1), (PREPAID_AID, 3), (bytes.fromhex("A0000000043060"), 4)),
    "aid": MASTERCARD_AID,
    "label": "Prepaid",
    "aip": bytes.fromhex("0080"),
    "afl": bytes.fromhex("08010100"),
}


def configured_se(config) -> SecureElement:
    payment = PaymentApplet(
        config["profile"],
        aid=config["aid"],
        label=config["label"],
        aip=config["aip"],
        afl=config["afl"],
    )
    applets = (PpseApplet(config["entries"]), payment, WalletControlApplet(), CardManagerStub())
    return unlocked_se(profile=config["profile"], applets=applets)


def static_replies(se: SecureElement, config) -> dict[str, ResponseApdu]:
    """Every static response of an unlocked ``se``, asked for in one round."""
    assert send(se, INTERNAL, SELECT_WALLET_C).is_success
    out = {
        "list_cards": send(se, INTERNAL, LIST_CARDS_C),
        "status": send(se, INTERNAL, GET_STATUS_C),
        "card_manager": select(se, INTERNAL, ISD_PREFIX_AID),
    }
    se.open_session(CONTACTLESS)
    out["ppse_fci"] = select(se, CONTACTLESS, PPSE_AID)
    out["payment_fci"] = select(se, CONTACTLESS, config["aid"])
    out["gpo"] = send(se, CONTACTLESS, GPO_C)
    out["record"] = send(se, CONTACTLESS, READ_RECORD_C)
    return out


def static_responses(config) -> dict[str, bytes]:
    """Data of every static response, from a freshly built SE."""
    out = static_replies(configured_se(config), config)
    for name, resp in out.items():
        assert resp.is_success, name
    return {name: resp.data for name, resp in out.items()}


def fresh_responses(config) -> dict[str, bytes]:
    return {
        "list_cards": FRESH_CARD_LIST,
        "status": FRESH_STATUS,
        "card_manager": FRESH_CARD_MANAGER,
        "ppse_fci": fresh_ppse_fci(config["entries"]),
        "payment_fci": fresh_payment_fci(config["aid"], config["label"]),
        "gpo": fresh_gpo(config["aip"], config["afl"]),
        "record": fresh_record(config["profile"]),
    }


class TestMemoizedResponses:
    @pytest.mark.parametrize("config", [DEFAULT_CONFIG, CUSTOM_CONFIG], ids=["default", "custom"])
    def test_identical_to_fresh_tree_encode(self, config):
        # twice: the first SE may fill the memo, the second reads it back
        for _ in range(2):
            assert static_responses(config) == fresh_responses(config)

    @pytest.mark.parametrize("config", [DEFAULT_CONFIG, CUSTOM_CONFIG], ids=["default", "custom"])
    def test_repeated_replies_equal_fresh_frames(self, config):
        expected = {name: data + b"\x90\x00" for name, data in fresh_responses(config).items()}
        for se in (configured_se(config), configured_se(config)):
            for _ in range(2):
                frames = {name: r.to_bytes() for name, r in static_replies(se, config).items()}
                assert frames == expected

    def test_locked_wallet_refuses_after_serving_fci(self):
        se = unlocked_se()
        se.open_session(CONTACTLESS)
        assert send(se, CONTACTLESS, SELECT_AID_C).to_bytes() == parse_hex(SELECT_AID_R)
        assert send(se, INTERNAL, LOCK_C).is_success
        refused = send(se, CONTACTLESS, SELECT_AID_C)
        assert (refused.data, refused.sw) == (b"", 0x6985)
        assert se.selected[CONTACTLESS] is None
        assert send(se, INTERNAL, UNLOCK_C).is_success
        assert send(se, CONTACTLESS, SELECT_AID_C).to_bytes() == parse_hex(SELECT_AID_R)

    def test_configurations_do_not_share_responses(self):
        # interleaved, so a memo keyed too coarsely would leak one into the other
        default_a = static_responses(DEFAULT_CONFIG)
        custom = static_responses(CUSTOM_CONFIG)
        default_b = static_responses(DEFAULT_CONFIG)
        assert default_a == default_b == fresh_responses(DEFAULT_CONFIG)
        assert custom == fresh_responses(CUSTOM_CONFIG)
        for name in ("ppse_fci", "payment_fci", "gpo", "record"):
            assert custom[name] != default_a[name], name

    def test_profiles_never_swap_records(self):
        profiles = [DEFAULT_CONFIG["profile"], CUSTOM_CONFIG["profile"]]
        ses = [unlocked_se(profile=p) for p in profiles]
        for se in ses:
            se.open_session(CONTACTLESS)
            assert send(se, CONTACTLESS, SELECT_AID_C).is_success
        for _ in range(2):
            for se, profile in zip(ses, profiles):
                record = send(se, CONTACTLESS, READ_RECORD_C).data
                assert record == fresh_record(profile)
                assert tlv.find(tlv.decode(record), [0x70, 0x9F6B]) == profile.track2()

    def test_consecutive_compute_cc_responses_differ(self):
        se = unlocked_se(atc=0x11)
        se.open_session(CONTACTLESS)
        assert send(se, CONTACTLESS, SELECT_AID_C).is_success
        first = send(se, CONTACTLESS, COMPUTE_CC_C)
        second = send(se, CONTACTLESS, COMPUTE_CC_C)
        assert first.is_success and second.is_success
        assert first.data != second.data
        atcs = [tlv.find(tlv.decode(r.data), [0x77, 0x9F36]) for r in (first, second)]
        assert atcs == [parse_hex("0012"), parse_hex("0013")]


class TestSharedApplets:
    @pytest.mark.parametrize("same", [True, False], ids=["one_profile", "equal_profiles"])
    def test_equal_profiles_share_applets_but_not_state(self, same):
        profile = CUSTOM_CONFIG["profile"]
        other = profile if same else dataclasses.replace(profile)
        assert other == profile and (other is profile) == same
        a = SecureElement(profile=profile, atc=9)
        b = SecureElement(profile=other, atc=9)
        assert a.registry is not b.registry
        assert a.registry.keys() == b.registry.keys()
        assert all(a.registry[aid] is b.registry[aid] for aid in a.registry)
        assert b.profile is other
        # move every piece of per-instance state on a alone
        a.open_session(INTERNAL)
        assert send(a, INTERNAL, SELECT_WALLET_C).is_success
        assert a.process(INTERNAL, verify_command("0000")).sw == 0x63C2
        assert send(a, INTERNAL, UNLOCK_C).is_success
        assert send(a, INTERNAL, DISABLE_CARD_C).is_success
        a.open_session(CONTACTLESS)
        assert select(a, CONTACTLESS, PPSE_AID).is_success
        assert select(a, INTERNAL, PREPAID_AID).is_success
        assert send(a, INTERNAL, COMPUTE_CC_C).is_success
        assert (a.atc, a.wallet_locked, a.pin_retries) == (10, False, 2)
        assert a.contactless_disabled == {PREPAID_AID}
        assert a.selected == {INTERNAL: PREPAID_AID, CONTACTLESS: PPSE_AID}
        assert (b.atc, b.wallet_locked, b.pin_retries) == (9, True, 3)
        assert b.contactless_disabled == set()
        assert b.selected == {INTERNAL: None, CONTACTLESS: None}
        b.open_session(CONTACTLESS)
        assert select(b, CONTACTLESS, PREPAID_AID).sw == 0x6985

    def test_default_se_shares_applets_with_a_default_profile(self):
        default, explicit = SecureElement(), SecureElement(profile=CardProfile())
        assert all(default.registry[aid] is explicit.registry[aid] for aid in default.registry)
        custom = SecureElement(profile=CUSTOM_CONFIG["profile"])
        assert custom.registry[PREPAID_AID] is not default.registry[PREPAID_AID]

    def test_custom_applets_are_used_as_given(self):
        applets = (PpseApplet(((MASTERCARD_AID, 1),)), WalletControlApplet())
        se = SecureElement(applets=applets)
        assert se.registry.keys() == {PPSE_AID, WALLET_AID}
        assert se.registry[PPSE_AID] is applets[0]
        assert se.registry[WALLET_AID] is applets[1]
        # nor do given applets leak into the default set
        assert SecureElement().registry[PPSE_AID] is not applets[0]


class TestAtcRange:
    @pytest.mark.parametrize("atc", [-1, 0x10000, 70000, 1.5])
    def test_start_outside_two_bytes_is_refused(self, atc):
        # a float passes a range check alone, then breaks COMPUTE CC mid-run
        with pytest.raises(ValueError, match=f"atc must be an integer 0-65535, got {atc!r}"):
            SecureElement(atc=atc)

    @pytest.mark.parametrize("atc", [0, 0xFFFF])
    def test_start_inside_two_bytes_is_kept(self, atc):
        assert SecureElement(atc=atc).atc == atc

    def test_compute_cc_rolls_over_to_zero(self):
        se = unlocked_se(atc=0xFFFF)
        se.open_session(CONTACTLESS)
        assert send(se, CONTACTLESS, SELECT_AID_C).is_success
        resp = send(se, CONTACTLESS, COMPUTE_CC_C)
        assert tlv.find(tlv.decode(resp.data), [0x77, 0x9F36]) == b"\x00\x00"
        assert se.atc == 0

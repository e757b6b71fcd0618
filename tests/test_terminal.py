import hashlib
import hmac
import socket
import threading

import pytest

import serelay.relay
import serelay.terminal
from serelay.apdu import CommandApdu
from serelay.hexutil import parse_hex
from serelay.latency import AccessPath, LatencyModel
from serelay.profile import CardProfile, luhn_check_digit
from serelay.relay import (
    CardEmulator,
    CardRemoved,
    FrameKind,
    InProcessTransport,
    SessionEndpoint,
    SocketTransport,
    WireFrame,
    unlock_wallet,
)
from serelay.secure_element import (
    DEFAULT_AFL,
    DEFAULT_AIP,
    INS_COMPUTE_CC,
    INS_GPO,
    INS_READ_RECORD,
    INS_SELECT,
    MASTERCARD_AID,
    PPSE_AID,
    ChannelOrigin,
    PaymentApplet,
    PpseApplet,
    SecureElement,
    WalletControlApplet,
    CardManagerStub,
)
from serelay.tlv import TlvNode
from serelay.scenarios import run_pos_direct
from serelay.terminal import (
    APPROVED,
    CARD_REMOVED,
    DECLINED,
    TIMED_OUT,
    MalformedAfl,
    MalformedTrack,
    TerminalConfig,
    TransactionReport,
    TransactionStep,
    parse_afl,
    parse_track2,
    run_transaction,
)


class TestParseAfl:
    def test_single_record_entry(self):
        assert parse_afl(parse_hex("08010100")) == (1, 1, 1, 0)

    def test_multi_record_entry(self):
        # independent bit-layout oracle: sfi in the top 5 bits of byte 1,
        # then first record, last record, signed count
        raw = parse_hex("10020300")
        expected = (raw[0] >> 3, raw[1], raw[2], raw[3])
        assert expected == (2, 2, 3, 0)
        assert parse_afl(raw) == expected

    def test_empty_rejected(self):
        with pytest.raises(MalformedAfl):
            parse_afl(b"")

    def test_wrong_length_rejected(self):
        with pytest.raises(MalformedAfl):
            parse_afl(parse_hex("080101"))
        with pytest.raises(MalformedAfl):
            parse_afl(parse_hex("0801010000"))


class TestParseTrack2:
    def test_default_profile_track(self):
        profile = CardProfile()
        pan, expiry, service, disc = parse_track2(profile.track2())
        assert pan == profile.pan
        assert expiry == "1711"
        assert service == "101"
        assert disc == "0010000000000"

    def test_even_digit_count_without_padding(self):
        raw = parse_hex("1234567890123456D17111011234")
        pan, expiry, service, disc = parse_track2(raw)
        assert pan == "1234567890123456"
        assert (expiry, service, disc) == ("1711", "101", "1234")

    def test_all_f_rejected(self):
        with pytest.raises(MalformedTrack):
            parse_track2(b"\xff" * 10)

    def test_missing_separator_rejected(self):
        with pytest.raises(MalformedTrack):
            parse_track2(parse_hex("12345678"))

    def test_non_digit_nibble_rejected(self):
        with pytest.raises(MalformedTrack):
            parse_track2(parse_hex("1234A678D1711101"))

    def test_short_tail_rejected(self):
        with pytest.raises(MalformedTrack):
            parse_track2(parse_hex("1234D171"))


def direct_card(se, origin, model=None):
    """A card emulator with its field up, straight in front of ``se``'s channel."""
    card = CardEmulator(InProcessTransport(SessionEndpoint(se, origin, model)))
    card.activate_field()
    return card


def unlocked_card(se=None, origin=ChannelOrigin.INTERNAL, **kwargs):
    se = se if se is not None else SecureElement(**kwargs)
    unlock_wallet(se)
    return se, direct_card(se, origin)


class TestRunTransaction:
    def test_direct_internal_approved(self):
        profile = CardProfile()
        se, card = unlocked_card(profile=profile)
        report = run_transaction(card, TerminalConfig(seed=3))
        assert report.outcome == APPROVED
        assert report.pan == profile.pan
        assert report.expiry == "1711" and report.service_code == "101"
        assert report.track1 == profile.track1()
        assert report.track2 == profile.track2()
        assert report.atc == 1 and se.atc == 1
        assert [s.name for s in report.steps] == [
            "select_ppse",
            "select_aid",
            "gpo",
            "read_record",
            "compute_cc",
        ]
        assert all(s.sw == 0x9000 for s in report.steps)

    def test_report_matches_step_by_step_oracle(self):
        # replay the terminal's recorded C-APDUs against a second, identical
        # SE and compare responses byte for byte
        se, card = unlocked_card()
        report = run_transaction(card, TerminalConfig(seed=9))
        oracle_se, _ = unlocked_card()
        oracle_se.open_session(ChannelOrigin.INTERNAL)
        for step in report.steps:
            expected = oracle_se.process(
                ChannelOrigin.INTERNAL, CommandApdu.parse(step.capdu)
            )
            assert expected.to_bytes() == step.rapdu

    def test_cvc3_fields_match_stand_in_digest(self):
        profile = CardProfile()
        _, card = unlocked_card(profile=profile)
        report = run_transaction(card, TerminalConfig(seed=4))
        atc = report.atc.to_bytes(2, "big")
        key = profile.cvc3_key
        assert report.cvc3_track1 == hmac.new(
            key, b"T1" + report.un + atc, hashlib.sha256
        ).digest()[:2]
        assert report.cvc3_track2 == hmac.new(
            key, b"T2" + report.un + atc, hashlib.sha256
        ).digest()[:2]

    def test_locked_wallet_declines_at_select_aid(self):
        se = SecureElement()
        card = direct_card(se, ChannelOrigin.CONTACTLESS)
        report = run_transaction(card, TerminalConfig(seed=1))
        assert report.outcome == DECLINED
        assert report.reason == "6985"
        assert report.steps[-1].name == "select_aid"

    def test_un_recorded_and_fresh_per_seed(self):
        _, card = unlocked_card()
        report_a = run_transaction(card, TerminalConfig(seed=100))
        _, card = unlocked_card()
        report_b = run_transaction(card, TerminalConfig(seed=101))
        assert report_a.un != report_b.un
        sent_un = report_a.steps[-1].capdu[5:9]
        assert sent_un == report_a.un

    def test_fixed_un_is_used(self):
        _, card = unlocked_card()
        cfg = TerminalConfig(seed=5, fixed_un=parse_hex("00000080"))
        report = run_transaction(card, cfg)
        assert report.un == parse_hex("00000080")
        assert report.steps[-1].capdu == parse_hex("802A8E80040000008000")

    def test_unsupported_profile_declined(self):
        # AIP byte 2 bit 8 advertises a beyond-Mag-Stripe profile
        profile = CardProfile()
        applets = (
            PpseApplet(),
            PaymentApplet(profile, aip=parse_hex("0080")),
            WalletControlApplet(),
            CardManagerStub(),
        )
        se = SecureElement(profile=profile, applets=applets)
        _, card = unlocked_card(se=se)
        report = run_transaction(card, TerminalConfig(seed=2))
        assert report.outcome == DECLINED
        assert report.reason == "unsupported_profile"

    def test_card_removed_outcome(self):
        class DeadCard:
            def exchange(self, capdu, max_wait_ms=None):
                raise CardRemoved("field lost")

            def now_ms(self):
                return 0.0

        report = run_transaction(DeadCard(), TerminalConfig(seed=2))
        assert report.outcome == CARD_REMOVED


STEP_OF_INS = {
    INS_GPO: "gpo",
    INS_READ_RECORD: "read_record",
    INS_COMPUTE_CC: "compute_cc",
}


def step_name(capdu: bytes) -> str:
    """The terminal step a C-APDU belongs to, read from its INS and data."""
    if capdu[1] == INS_SELECT:
        return "select_ppse" if capdu[5 : 5 + capdu[4]] == PPSE_AID else "select_aid"
    return STEP_OF_INS[capdu[1]]


def approved_replies() -> dict[str, bytes]:
    """The R-APDU of each step of an approved run on a default secure element."""
    _, card = unlocked_card()
    report = run_transaction(card, TerminalConfig(seed=11))
    assert report.outcome == APPROVED
    return {s.name: s.rapdu for s in report.steps}


APPROVED_REPLIES = approved_replies()


class ScriptedCard:
    """Card interface answering each step with a canned R-APDU.

    Steps not named in ``replies`` get the approved run's answer.
    """

    def __init__(self, **replies: bytes):
        self.replies = {**APPROVED_REPLIES, **replies}

    def exchange(self, capdu, max_wait_ms=None):
        return self.replies[step_name(capdu)]

    def now_ms(self):
        return 0.0


def run_scripted(**replies: bytes) -> TransactionReport:
    card = ScriptedCard(**replies)
    return run_transaction(card, TerminalConfig(seed=2))


prim, cons = TlvNode.primitive, TlvNode.constructed


def ok(tag: int, *children: TlvNode) -> bytes:
    """One constructed object plus status 9000."""
    return cons(tag, children).encode() + b"\x90\x00"


# tag 6F announces 5 value bytes and 2 follow
TRUNCATED = parse_hex("6F05840E9000")
AIP = prim(0x82, DEFAULT_AIP)
AFL = prim(0x94, DEFAULT_AFL)
CVC3S = (prim(0x9F61, b"\x12\x34"), prim(0x9F60, b"\x56\x78"))

# (reason, step, R-APDU): every reason the terminal gives a malformed or
# unusable 9000 response
DECLINE_CASES = [
    ("malformed_ppse_fci", "select_ppse", TRUNCATED),
    (
        "no_supported_application",
        "select_ppse",
        ok(0x6F, prim(0x84, PPSE_AID), cons(0xA5, [cons(0xBF0C, [])])),
    ),
    (
        "no_supported_application",  # a template without an AID is skipped
        "select_ppse",
        ok(0x6F, cons(0xA5, [cons(0xBF0C, [cons(0x61, [prim(0x87, b"\x01")])])])),
    ),
    ("malformed_fci", "select_aid", TRUNCATED),
    ("fci_name_mismatch", "select_aid", ok(0x6F, prim(0x84, MASTERCARD_AID))),
    ("fci_name_mismatch", "select_aid", ok(0x6F, cons(0xA5, []))),
    ("malformed_gpo", "gpo", TRUNCATED),
    ("missing_aip", "gpo", ok(0x77, AFL)),
    ("missing_aip", "gpo", ok(0x77, prim(0x82, b"\x00"), AFL)),
    ("unsupported_profile", "gpo", ok(0x77, prim(0x82, parse_hex("0080")), AFL)),
    ("malformed_afl", "gpo", ok(0x77, AIP)),
    ("malformed_afl", "gpo", ok(0x77, AIP, prim(0x94, b""))),
    ("malformed_afl", "gpo", ok(0x77, AIP, prim(0x94, parse_hex("080101")))),
    ("malformed_record", "read_record", TRUNCATED),
    ("missing_track_data", "read_record", ok(0x70, prim(0x56, b"B5430"))),
    ("malformed_track2", "read_record", ok(0x70, prim(0x9F6B, parse_hex("12345678")))),
    ("malformed_cryptogram", "compute_cc", TRUNCATED),
    ("missing_cryptogram", "compute_cc", ok(0x77, *CVC3S)),
    ("missing_cryptogram", "compute_cc", ok(0x77, *CVC3S, prim(0x9F36, b"\x01"))),
]


class TestDeclineReasons:
    def test_scripted_card_approves_with_approved_replies(self):
        report = run_scripted()
        assert report.outcome == APPROVED
        assert [s.rapdu for s in report.steps] == list(APPROVED_REPLIES.values())

    @pytest.mark.parametrize(
        "reason, step, reply", DECLINE_CASES, ids=[case[0] for case in DECLINE_CASES]
    )
    def test_reason(self, reason, step, reply):
        report = run_scripted(**{step: reply})
        assert (report.outcome, report.reason) == (DECLINED, reason)
        assert report.steps[-1].name == step
        assert report.steps[-1].rapdu == reply

    def test_malformed_replies_after_approved_runs_and_each_other(self):
        # whatever the terminal remembers of earlier responses, a malformed
        # reply declines with its own reason: right after an approved run,
        # and then back to back, twice over
        for reason, step, reply in DECLINE_CASES:
            assert run_scripted().outcome == APPROVED
            assert run_scripted(**{step: reply}).reason == reason
        for _ in range(2):
            for reason, step, reply in DECLINE_CASES:
                assert run_scripted(**{step: reply}).reason == reason

    def test_interleaved_cards_report_their_own_fields(self):
        pan = "543011111111111"
        pan += str(luhn_check_digit(pan))
        other = CardProfile(pan=pan, cvc3_key=bytes(range(16)))
        plain, _ = unlocked_card()
        custom, _ = unlocked_card(profile=other)
        beyond = SecureElement(
            applets=(
                PpseApplet(),
                PaymentApplet(CardProfile(), aip=parse_hex("0080")),
                WalletControlApplet(),
                CardManagerStub(),
            )
        )
        unlock_wallet(beyond)
        cards = ((plain, CardProfile()), (custom, other), (beyond, None))
        for seed in range(3):
            for se, profile in cards:
                card = direct_card(se, ChannelOrigin.INTERNAL)
                cfg = TerminalConfig(seed=seed)
                report = run_transaction(card, cfg)
                if profile is None:
                    assert report.outcome == DECLINED
                    assert report.reason == "unsupported_profile"
                    assert report.pan is None and report.track2 is None
                    continue
                assert report.outcome == APPROVED
                assert report.pan == profile.pan
                assert report.track1 == profile.track1()
                assert report.track2 == profile.track2()
                assert report.atc == se.atc == seed + 1
                assert report.cvc3_track2 == hmac.new(
                    profile.cvc3_key,
                    b"T2" + report.un + report.atc.to_bytes(2, "big"),
                    hashlib.sha256,
                ).digest()[:2]


class TestTimeout:
    def run_with_ceiling(self, ceiling, seed=8):
        se = SecureElement()
        unlock_wallet(se)
        card = direct_card(
            se,
            ChannelOrigin.INTERNAL,
            model=LatencyModel(AccessPath.RELAY_INTERNET, seed=seed),
        )
        cfg = TerminalConfig(seed=seed, timeout_ms=ceiling)
        return run_transaction(card, cfg)

    def test_no_timeout_by_default(self):
        se = SecureElement()
        unlock_wallet(se)
        card = direct_card(
            se,
            ChannelOrigin.INTERNAL,
            model=LatencyModel(AccessPath.RELAY_INTERNET, seed=8),
        )
        report = run_transaction(card, TerminalConfig(seed=8))
        assert report.outcome == APPROVED

    def test_internet_path_times_out_at_500ms(self):
        report = self.run_with_ceiling(500.0)
        assert report.outcome == TIMED_OUT
        assert len(report.steps) < 5

    def test_monotone_in_the_ceiling(self):
        # if a run times out at ceiling T it times out at every T' < T
        outcomes = [
            self.run_with_ceiling(float(ceiling)).outcome
            for ceiling in (200, 500, 1500, 4000, 12000, 60000)
        ]
        finished = False
        for outcome in outcomes:  # ceilings ascend
            if outcome == TIMED_OUT:
                assert not finished, f"non-monotone outcomes: {outcomes}"
            else:
                finished = True
                assert outcome == APPROVED
        assert outcomes[0] == TIMED_OUT  # 200 ms can never fit five round trips
        assert outcomes[-1] == APPROVED

    def test_total_time_reflects_injected_delays(self):
        report = self.run_with_ceiling(500.0)
        assert report.total_ms == 500.0

    def test_in_process_report_is_in_modelled_time(self):
        # the terminal reads the time of the transport that carries its frames
        se = SecureElement()
        unlock_wallet(se)
        endpoint = SessionEndpoint(
            se, ChannelOrigin.INTERNAL, LatencyModel(AccessPath.RELAY_INTERNET, 1)
        )
        card = CardEmulator(InProcessTransport(endpoint))
        card.activate_field()
        report = run_transaction(card, TerminalConfig(seed=1, timeout_ms=500))
        direct = run_pos_direct(seed=1, path=AccessPath.RELAY_INTERNET, timeout_ms=500)
        assert report.to_dict() == direct.to_dict()
        assert report.total_ms == 500.0


class TestTransactionStep:
    def test_sw_of_answered_step(self):
        step = TransactionStep("gpo", parse_hex("80A8000002830000"), parse_hex("6985"), 1.0)
        assert step.sw == 0x6985

    def test_sw_of_unanswered_step_is_none(self):
        # a step that timed out over a socket records an empty response
        step = TransactionStep("select_ppse", parse_hex("00A4040000"), b"", 500.0)
        assert step.sw is None

    def test_sw_of_one_byte_reply_is_none(self):
        step = TransactionStep("gpo", parse_hex("80A8000002830000"), b"\x90", 1.0)
        assert step.sw is None


class TestShortReply:
    """A reply too short to hold a status word declines the transaction."""

    @pytest.mark.parametrize("step", ["select_ppse", "gpo", "compute_cc"])
    @pytest.mark.parametrize("reply", [b"", b"\x90"], ids=["empty", "one_byte"])
    def test_in_process(self, step, reply):
        report = run_scripted(**{step: reply})
        assert (report.outcome, report.reason) == (DECLINED, "malformed_response")
        assert report.steps[-1].name == step
        assert report.steps[-1].rapdu == reply
        assert report.steps[-1].sw is None
        assert "malformed_response" in report.render_trace()

    def test_one_byte_r_apdu_frame_over_a_socket(self):
        near, far = socket.socketpair()
        emulator = CardEmulator(SocketTransport(near))
        peer = SocketTransport(far)
        seen = []

        def relay():
            # echo open and close, answer the first C-APDU with one byte
            while True:
                frame = peer.recv_frame(timeout_ms=5000)
                seen.append(frame.kind)
                if frame.kind is FrameKind.C_APDU:
                    peer.send_frame(WireFrame(FrameKind.R_APDU, b"\x90"))
                    continue
                peer.send_frame(frame)
                if frame.kind is FrameKind.SESSION_CLOSE:
                    return

        thread = threading.Thread(target=relay, daemon=True)
        thread.start()
        try:
            emulator.activate_field()
            report = run_transaction(emulator, TerminalConfig(seed=1))
            emulator.deactivate_field()
            thread.join(timeout=5)
        finally:
            emulator.close()
            peer.close()
        assert not thread.is_alive()
        kinds = [FrameKind.SESSION_OPEN, FrameKind.C_APDU, FrameKind.SESSION_CLOSE]
        assert seen == kinds
        assert (report.outcome, report.reason) == (DECLINED, "malformed_response")
        assert [(s.name, s.rapdu, s.sw) for s in report.steps] == [
            ("select_ppse", b"\x90", None)
        ]
        # over a socket the step takes wall time
        assert report.steps[0].elapsed_ms > 0


class TestMemos:
    """Commands are encoded and responses parsed once; no failure is cached."""

    def test_malformed_reply_declines_every_transaction(self):
        for _ in range(2):
            report = run_scripted(gpo=b"\x90")
            assert (report.outcome, report.reason) == (DECLINED, "malformed_response")

    @pytest.mark.parametrize(
        "name",
        [
            "terminal._parse_response",
            "terminal._select_bytes",
            "terminal._read_record_bytes",
            "relay._parse_command",
        ],
    )
    def test_memo_is_bounded(self, name):
        module, memo = name.split(".")
        maxsize = getattr(getattr(serelay, module), memo).cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 64


class TestReportSerialization:
    def test_json_round_trippable_dict(self):
        _, card = unlocked_card()
        report = run_transaction(card, TerminalConfig(seed=6))
        data = report.to_dict()
        assert data["outcome"] == APPROVED
        assert data["steps"][0]["name"] == "select_ppse"
        assert data["un"] == report.un.hex().upper()
        import json

        assert json.loads(report.to_json()) == data

    def test_trace_contains_steps_and_outcome(self):
        _, card = unlocked_card()
        report = run_transaction(card, TerminalConfig(seed=6))
        trace = report.render_trace()
        assert "[select_ppse]" in trace
        assert "outcome: approved" in trace

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TerminalConfig(timeout_ms=0)
        with pytest.raises(ValueError):
            TerminalConfig(fixed_un=b"\x00")

    @pytest.mark.parametrize("timeout_ms", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, timeout_ms):
        with pytest.raises(ValueError, match="timeout_ms must be positive and finite"):
            TerminalConfig(timeout_ms=timeout_ms)


class TestPosDirectScenario:
    def test_internal_with_unlock_approves(self):
        report = run_pos_direct(seed=21)
        assert report.outcome == APPROVED

    def test_contactless_without_unlock_declines_6985(self):
        report = run_pos_direct(
            origin=ChannelOrigin.CONTACTLESS, unlock=False, seed=21
        )
        assert report.outcome == DECLINED
        assert report.reason == "6985"

    def test_contactless_with_local_unlock_approves(self):
        report = run_pos_direct(origin=ChannelOrigin.CONTACTLESS, seed=21)
        assert report.outcome == APPROVED

    def test_seed_is_recorded_when_drawn(self):
        report = run_pos_direct()
        assert report.seed is not None

    def test_pin_policy_blocks_unlock_without_pin(self):
        from serelay.profile import CountermeasurePolicy

        policy = CountermeasurePolicy(require_pin_on_card=True)
        report = run_pos_direct(policy=policy, seed=21)
        assert report.outcome == DECLINED and report.reason == "6985"

    def test_pin_policy_satisfied_with_correct_pin(self):
        from serelay.profile import CountermeasurePolicy

        policy = CountermeasurePolicy(require_pin_on_card=True)
        report = run_pos_direct(policy=policy, pin="1234", seed=21)
        assert report.outcome == APPROVED

    def test_internal_without_unlock_declines(self):
        report = run_pos_direct(unlock=False, seed=21)
        assert report.outcome == DECLINED and report.reason == "6985"

"""Acceptance suite: one test per release criterion.

Each test prints a ``CRITERION n: PASS`` line with its measured runtime
(visible with ``pytest -s``); the assertions carry the actual tolerances.
"""
import itertools
import random
import statistics
import time

from genutil import (
    CC_SKELETON,
    COMPUTE_CC_C,
    GPO_C,
    GPO_R,
    READ_RECORD_C,
    RECORD_OUTER_LEN,
    RECORD_SKELETON,
    SELECT_AID_C,
    SELECT_AID_R,
    SELECT_PPSE_C,
    SELECT_PPSE_R,
    SELECT_WALLET_C,
    UNLOCK_C,
    LOCK_C,
    random_command,
    random_tlv_forest,
)
from test_secure_element import (
    ALL_COMMANDS,
    COMMAND_BYTES,
    SELECTED_AIDS,
    oracle_expected,
    reachable,
)

from serelay import tlv
from serelay.apdu import CommandApdu, MalformedApdu, ResponseApdu
from serelay.bench import Histogram, histogram_from_csv, histogram_to_csv, sample_benchmark
from serelay.hexutil import format_hex, parse_hex
from serelay.latency import AccessPath, LatencyModel
from serelay.profile import CardProfile, CountermeasurePolicy
from serelay.relay import CardEmulator, InProcessTransport, RelayApp
from serelay.scenarios import run_pos_direct, run_relay_attack
from serelay.secure_element import ChannelOrigin, PREPAID_AID, SecureElement
from serelay.terminal import APPROVED, TIMED_OUT

INTERNAL = ChannelOrigin.INTERNAL
CONTACTLESS = ChannelOrigin.CONTACTLESS


class _Budget:
    def __init__(self, number: int, limit_s: float, summary: str):
        self.number = number
        self.limit_s = limit_s
        self.summary = summary

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its {self.limit_s}s budget "
                f"({elapsed:.2f}s)"
            )
            print(
                f"CRITERION {self.number}: PASS "
                f"({elapsed:.2f}s < {self.limit_s:g}s) - {self.summary}"
            )
        else:
            print(f"CRITERION {self.number}: FAIL - {self.summary}")
        return False


def send(se, origin, hex_cmd):
    return se.process(origin, CommandApdu.from_hex(hex_cmd))


def unlocked_se(**kwargs) -> SecureElement:
    se = SecureElement(**kwargs)
    se.open_session(INTERNAL)
    send(se, INTERNAL, SELECT_WALLET_C)
    send(se, INTERNAL, UNLOCK_C)
    return se


def test_criterion_1_golden_byte_conformance():
    with _Budget(1, 1.0, "golden command/response bytes"):
        se = unlocked_se(atc=0x11)
        se.open_session(CONTACTLESS)

        resp = send(se, CONTACTLESS, SELECT_PPSE_C)
        assert format_hex(resp.to_bytes()) == SELECT_PPSE_R

        resp = send(se, CONTACTLESS, SELECT_AID_C)
        assert format_hex(resp.to_bytes()) == SELECT_AID_R

        resp = send(se, CONTACTLESS, GPO_C)
        assert format_hex(resp.to_bytes()) == GPO_R

        # record response: structural skeleton (tags and lengths, in order)
        resp = send(se, CONTACTLESS, READ_RECORD_C)
        assert resp.is_success
        (record,) = tlv.decode(resp.data)
        assert record.tag == b"\x70" and len(record.payload) == RECORD_OUTER_LEN
        layout = [(format_hex(n.tag), len(n.value)) for n in record.children]
        assert layout == RECORD_SKELETON

        # checksum response: structural skeleton, ATC value as traced
        resp = send(se, CONTACTLESS, COMPUTE_CC_C)
        assert resp.is_success
        (body,) = tlv.decode(resp.data)
        assert body.tag == b"\x77" and len(body.payload) == 0x0F
        assert [(format_hex(n.tag), len(n.value)) for n in body.children] == CC_SKELETON
        assert tlv.find([body], [0x9F36]) == parse_hex("0012")


def test_criterion_2_end_to_end_relay_over_loopback():
    with _Budget(2, 5.0, "relay over TCP loopback equals direct internal run"):
        seed = 2024
        relayed = run_relay_attack(
            seed=seed, path=AccessPath.RELAY_WIFI, transport="tcp"
        )
        assert relayed.session_error is None
        assert relayed.report is not None
        assert relayed.report.outcome == APPROVED

        direct = run_pos_direct(origin=INTERNAL, seed=seed)
        assert direct.outcome == APPROVED

        relayed_bytes = [(s.capdu, s.rapdu) for s in relayed.report.steps]
        direct_bytes = [(s.capdu, s.rapdu) for s in direct.steps]
        assert relayed_bytes == direct_bytes

        assert relayed.report.atc == 1  # fresh SE: counter moved by exactly one
        assert direct.atc == 1


def test_criterion_3_countermeasures_flip_the_baseline():
    with _Budget(3, 60.0, "timeout, on-card PIN and interface-disable all break the relay"):
        # baseline for reference: same setup as criterion 2 approves
        baseline = run_relay_attack(seed=0, path=AccessPath.RELAY_WIFI)
        assert baseline.approved

        # (a) 500 ms terminal ceiling over the internet path
        timed_out = 0
        for seed in range(100):
            result = run_relay_attack(
                seed=seed,
                path=AccessPath.RELAY_INTERNET,
                timeout_ms=500.0,
            )
            if result.report is not None and result.report.outcome == TIMED_OUT:
                timed_out += 1
        assert timed_out >= 95, f"only {timed_out}/100 runs timed out"

        # (b) on-card PIN verification, relay app does not know the PIN
        policy = CountermeasurePolicy(require_pin_on_card=True)
        result = run_relay_attack(seed=1, policy=policy)
        assert result.session_error == "unlock_failed"
        assert result.se is not None and result.se.wallet_locked

        # (c) internal interface disabled for the payment applet: the relay
        # session is refused while a contactless terminal still approves
        policy = CountermeasurePolicy(
            internal_disabled_aids=frozenset({PREPAID_AID})
        )
        result = run_relay_attack(seed=1, policy=policy)
        assert result.session_error == "access_denied"
        assert result.se is not None and result.se.wallet_locked
        direct = run_pos_direct(
            origin=CONTACTLESS, policy=policy, unlock=True, seed=1
        )
        assert direct.outcome == APPROVED


def test_criterion_4_latency_model_properties():
    with _Budget(4, 30.0, "path delay distributions match their documented bands"):
        n = 5000
        external = LatencyModel(AccessPath.DIRECT_EXTERNAL, seed=77).samples(n)
        assert abs(statistics.fmean(external) - 30.0) <= 5.0

        internal_model = LatencyModel(AccessPath.DIRECT_INTERNAL, seed=77)
        internal = internal_model.samples(n)
        assert all(50.0 <= v <= 80.0 for v in internal)

        wifi_model = LatencyModel(AccessPath.RELAY_WIFI, seed=77)
        in_band = sum(
            1
            for k in range(n)
            if 100.0 <= wifi_model.sample_at(k) - internal_model.sample_at(k) <= 210.0
        )
        assert in_band >= int(n * 0.99), f"{in_band}/{n} within 100-210 ms"

        internet_model = LatencyModel(AccessPath.RELAY_INTERNET, seed=77)
        internet = internet_model.samples(n)
        assert statistics.median(internet) > 1000.0
        min_added = min(
            internet_model.sample_at(k) - internal_model.sample_at(k)
            for k in range(n)
        )
        assert min_added >= 150.0


def test_criterion_5_histogram_methodology():
    with _Budget(5, 10.0, "default layout, conservation and CSV round trip"):
        reps = 5000
        [(hist, _delays)] = sample_benchmark([AccessPath.DIRECT_EXTERNAL], reps, seed=5)
        assert hist.bin_count == 160
        assert hist.bin_width_ms == 50.0
        assert hist.overflow_threshold_ms == 7950.0
        assert sum(hist.counts) == hist.total == reps

        # the final bin absorbs everything above the regular range
        probe = Histogram()
        probe.add(8000.0)
        probe.add(8001.0)
        probe.add(123456.0)
        assert probe.counts[-1] == 3

        assert histogram_from_csv(histogram_to_csv(hist)) == hist
        assert len(histogram_to_csv(hist).splitlines()) == 161


def test_criterion_6_codec_properties():
    with _Budget(6, 30.0, "10k round trips, 10k fuzz inputs, all tables decode"):
        r = random.Random(0xC0DEC)
        for _ in range(10_000):
            forest = random_tlv_forest(r)
            assert tlv.decode(tlv.encode(forest)) == forest
        for _ in range(10_000):
            cmd = random_command(r)
            assert CommandApdu.parse(cmd.to_bytes()) == cmd
        for _ in range(10_000):
            raw = r.randbytes(r.randrange(0, 64))
            try:
                nodes = tlv.decode(raw)
            except tlv.TlvError:
                pass
            else:
                assert tlv.encode(nodes) == raw
            try:
                CommandApdu.parse(raw)
            except MalformedApdu:
                pass

        _assert_all_ten_tables_decode()


def _assert_all_ten_tables_decode():
    # table 1: select the payment system environment
    cmd = CommandApdu.from_hex(SELECT_PPSE_C)
    assert (cmd.cla, cmd.ins, cmd.p1, cmd.p2) == (0x00, 0xA4, 0x04, 0x00)
    assert cmd.data == b"2PAY.SYS.DDF01" and cmd.le == 0

    # table 2: directory listing with both applications and priorities
    resp = ResponseApdu.from_hex(SELECT_PPSE_R)
    assert resp.sw == 0x9000
    nodes = tlv.decode(resp.data)
    fci = nodes[0]
    assert fci.tag == b"\x6f" and len(fci.payload) == 0x3A
    assert tlv.find(nodes, [0x6F, 0x84]) == b"2PAY.SYS.DDF01"
    templates = tlv.find_all(nodes, 0x61)
    assert [len(t.payload) for t in templates] == [0x15, 0x0C]
    assert tlv.find(templates[0].children, [0x4F]) == parse_hex(
        "A0000000041010AA54303200FF01FFFF"
    )
    assert tlv.find(templates[0].children, [0x87]) == b"\x01"
    assert tlv.find(templates[1].children, [0x4F]) == parse_hex("A0000000041010")
    assert tlv.find(templates[1].children, [0x87]) == b"\x02"

    # table 3: select the prepaid application by its 16-byte name
    cmd = CommandApdu.from_hex(SELECT_AID_C)
    assert cmd.data == parse_hex("A0000000041010AA54303200FF01FFFF")

    # table 4: application FCI with label
    resp = ResponseApdu.from_hex(SELECT_AID_R)
    nodes = tlv.decode(resp.data)
    assert len(nodes[0].payload) == 0x20
    assert tlv.find(nodes, [0x6F, 0x84]) == parse_hex(
        "A0000000041010AA54303200FF01FFFF"
    )
    assert tlv.find(nodes, [0x6F, 0xA5, 0x50]) == b"MasterCard"

    # table 5: get processing options with an empty command template
    cmd = CommandApdu.from_hex(GPO_C)
    assert (cmd.cla, cmd.ins) == (0x80, 0xA8) and cmd.data == parse_hex("8300")

    # table 6: profile bits and file locator
    resp = ResponseApdu.from_hex(GPO_R)
    nodes = tlv.decode(resp.data)
    aip = tlv.find(nodes, [0x77, 0x82])
    assert aip == b"\x00\x00" and not aip[1] & 0x80  # Mag-Stripe only
    assert tlv.find(nodes, [0x77, 0x94]) == parse_hex("08010100")

    # table 7: read record 1 of short file 1
    cmd = CommandApdu.from_hex(READ_RECORD_C)
    assert (cmd.ins, cmd.p1, cmd.p2) == (0xB2, 0x01, 0x0C)

    # table 8: record skeleton plus every unmasked value
    profile = CardProfile()
    se = unlocked_se(profile=profile)
    se.open_session(CONTACTLESS)
    send(se, CONTACTLESS, SELECT_AID_C)
    record = tlv.decode(send(se, CONTACTLESS, READ_RECORD_C).data)
    assert tlv.find(record, [0x70, 0x9F6C]) == parse_hex("0001")
    assert tlv.find(record, [0x70, 0x9F62]) == parse_hex("000000000038")
    assert tlv.find(record, [0x70, 0x9F63]) == parse_hex("0000000003C6")
    assert tlv.find(record, [0x70, 0x9F64]) == b"\x04"
    assert tlv.find(record, [0x70, 0x9F65]) == parse_hex("0038")
    assert tlv.find(record, [0x70, 0x9F66]) == parse_hex("03C6")
    assert tlv.find(record, [0x70, 0x9F67]) == b"\x04"
    track1 = tlv.find(record, [0x70, 0x56])
    assert track1 is not None and len(track1) == 0x29
    text = track1.decode("ascii")
    assert text[0] == "B" and "^ /^" in text
    assert text.endswith("17111010010000000000")
    track2 = tlv.find(record, [0x70, 0x9F6B])
    assert track2 is not None and len(track2) == 0x13
    nibbles = track2.hex().upper()
    assert "D1711101" in nibbles and nibbles.endswith("0010000000000F")

    # table 9: checksum request with the traced unpredictable number
    cmd = CommandApdu.from_hex(COMPUTE_CC_C)
    assert (cmd.cla, cmd.ins, cmd.p1, cmd.p2) == (0x80, 0x2A, 0x8E, 0x80)
    assert cmd.data == parse_hex("00000080")

    # table 10: checksum response skeleton with the traced counter value
    se = unlocked_se(atc=0x11)
    se.open_session(CONTACTLESS)
    send(se, CONTACTLESS, SELECT_AID_C)
    body = tlv.decode(send(se, CONTACTLESS, COMPUTE_CC_C).data)
    assert [(format_hex(n.tag), len(n.value)) for n in body[0].children] == CC_SKELETON
    assert tlv.find(body, [0x77, 0x9F36]) == parse_hex("0012")


def test_criterion_7_state_machine_suite():
    with _Budget(7, 10.0, "state machine vs brute-force enumeration"):
        # lock/unlock idempotence
        se = unlocked_se()
        assert send(se, INTERNAL, UNLOCK_C).sw == 0x9000
        assert not se.wallet_locked
        assert send(se, INTERNAL, LOCK_C).sw == 0x9000
        assert send(se, INTERNAL, LOCK_C).sw == 0x9000
        assert se.wallet_locked

        # origin gate: on-card component unreachable over contactless
        se = SecureElement()
        assert send(se, CONTACTLESS, SELECT_WALLET_C).sw == 0x6A82

        # locked wallet refuses payment selection
        assert send(se, CONTACTLESS, SELECT_AID_C).sw == 0x6985

        # ATC monotonicity: n checksums from fresh state leave atc == n
        se = unlocked_se()
        se.open_session(CONTACTLESS)
        send(se, CONTACTLESS, SELECT_AID_C)
        for n in range(1, 9):
            assert send(se, CONTACTLESS, COMPUTE_CC_C).is_success
            assert se.atc == n
        send(se, CONTACTLESS, READ_RECORD_C)
        send(se, CONTACTLESS, SELECT_PPSE_C)
        assert se.atc == 8

        # PIN retry ladder
        se = SecureElement(policy=CountermeasurePolicy(require_pin_on_card=True))
        se.open_session(INTERNAL)
        send(se, INTERNAL, SELECT_WALLET_C)
        bad = CommandApdu(0x00, 0x20, 0x00, 0x00, data=b"0000")
        assert se.process(INTERNAL, bad).sw == 0x63C2
        assert se.process(INTERNAL, bad).sw == 0x63C1
        assert se.process(INTERNAL, bad).sw == 0x63C0
        assert se.process(INTERNAL, bad).sw == 0x6983

        # session teardown always locks, including abrupt transport loss
        for abrupt in (False, True):
            se = SecureElement()
            relay = RelayApp(se)
            emulator = CardEmulator(InProcessTransport(relay))
            emulator.activate_field()
            assert not se.wallet_locked
            if abrupt:
                emulator.transport.close()
            else:
                emulator.deactivate_field()
            assert se.wallet_locked

        # brute-force enumeration of the dispatch space
        cases = 0
        for combo in itertools.product(
            (False, True),
            (False, True),
            (INTERNAL, CONTACTLESS),
            (True, False),
            (False, True),
            (None, "wallet", "ppse", "payment"),
            ALL_COMMANDS,
        ):
            pin_required, disabled, origin, locked, verified, selected, command = combo
            if not reachable(origin, locked, verified, selected, pin_required):
                continue
            policy = CountermeasurePolicy(
                require_pin_on_card=pin_required,
                internal_disabled_aids=(
                    frozenset({PREPAID_AID}) if disabled else frozenset()
                ),
            )
            se = SecureElement(policy=policy, wallet_locked=locked)
            se.open_session(origin)
            se.pin_verified = verified
            se.selected[origin] = SELECTED_AIDS.get(selected)
            expected_sw, expected_locked = oracle_expected(
                pin_required, disabled, origin, locked, verified, selected, command
            )
            resp = send(se, origin, COMMAND_BYTES[command])
            assert resp.sw == expected_sw, combo
            assert se.wallet_locked == expected_locked, combo
            cases += 1
        assert cases > 700

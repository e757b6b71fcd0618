import dataclasses
import random

import pytest

from genutil import (
    COMPUTE_CC_C,
    GPO_C,
    READ_RECORD_C,
    SELECT_AID_C,
    SELECT_PPSE_C,
    SELECT_WALLET_C,
    random_command,
)
from serelay.apdu import (
    CommandApdu,
    MalformedApdu,
    ResponseApdu,
    UnsupportedLength,
)
from serelay.hexutil import parse_hex

# every one-octet field, each built with the others at valid values
OCTET_FIELDS = {
    "cla": lambda v: CommandApdu(v, 0, 0, 0),
    "ins": lambda v: CommandApdu(0, v, 0, 0),
    "p1": lambda v: CommandApdu(0, 0, v, 0),
    "p2": lambda v: CommandApdu(0, 0, 0, v),
    "le": lambda v: CommandApdu(0, 0, 0, 0, le=v),
    "sw1": lambda v: ResponseApdu(b"", v, 0),
    "sw2": lambda v: ResponseApdu(b"", 0x90, v),
}


class TestParseCommand:
    def test_select_ppse_trace(self):
        cmd = CommandApdu.from_hex(SELECT_PPSE_C)
        assert (cmd.cla, cmd.ins, cmd.p1, cmd.p2) == (0x00, 0xA4, 0x04, 0x00)
        assert cmd.data == b"2PAY.SYS.DDF01"
        assert cmd.le == 0

    def test_read_record_trace(self):
        cmd = CommandApdu.from_hex(READ_RECORD_C)
        assert (cmd.cla, cmd.ins, cmd.p1, cmd.p2) == (0x00, 0xB2, 0x01, 0x0C)
        assert cmd.data == b""
        assert cmd.le == 0

    def test_minimal_case_1(self):
        cmd = CommandApdu.parse(bytes(4))
        assert (cmd.cla, cmd.ins, cmd.p1, cmd.p2) == (0, 0, 0, 0)
        assert cmd.data == b"" and cmd.le is None

    def test_case_3_without_le(self):
        cmd = CommandApdu.parse(bytes.fromhex("00A4040002AABB"))
        assert cmd.data == b"\xaa\xbb" and cmd.le is None

    def test_select_wallet_trace(self):
        cmd = CommandApdu.from_hex(SELECT_WALLET_C)
        assert cmd.data.hex().upper() == "A0000004762010"
        assert cmd.le == 0

    def test_too_short(self):
        with pytest.raises(MalformedApdu):
            CommandApdu.parse(b"\x00\xa4\x04")

    def test_lc_overruns_frame(self):
        # Lc says 5 data bytes but only 2 remain
        with pytest.raises(MalformedApdu):
            CommandApdu.parse(bytes.fromhex("00A4040005AABB"))

    def test_lc_underruns_frame(self):
        # two bytes too many after the declared data and Le
        with pytest.raises(MalformedApdu):
            CommandApdu.parse(bytes.fromhex("00A4040001AA0000"))

    def test_extended_length_rejected(self):
        with pytest.raises(MalformedApdu):
            CommandApdu.parse(bytes.fromhex("00A4040000001122"))


class TestSerializeCommand:
    def test_gpo_golden(self):
        cmd = CommandApdu(0x80, 0xA8, 0x00, 0x00, data=parse_hex("8300"), le=0)
        assert cmd.hex() == GPO_C

    def test_compute_cc_golden(self):
        cmd = CommandApdu(0x80, 0x2A, 0x8E, 0x80, data=parse_hex("00000080"), le=0)
        assert cmd.hex() == COMPUTE_CC_C

    def test_select_aid_golden(self):
        aid = parse_hex("A0000000041010AA54303200FF01FFFF")
        cmd = CommandApdu(0x00, 0xA4, 0x04, 0x00, data=aid, le=0)
        assert cmd.hex() == SELECT_AID_C

    def test_case_1_is_four_bytes(self):
        assert len(CommandApdu(0x00, 0x00, 0x00, 0x00).to_bytes()) == 4

    def test_oversize_data_rejected(self):
        cmd = CommandApdu(0x00, 0xA4, 0x04, 0x00, data=bytes(256))
        with pytest.raises(UnsupportedLength):
            cmd.to_bytes()

    def test_le_zero_preserved(self):
        cmd = CommandApdu.parse(bytes.fromhex("00B2010C00"))
        assert CommandApdu.parse(cmd.to_bytes()).le == 0

    def test_field_range_checked(self):
        with pytest.raises(ValueError):
            CommandApdu(0x100, 0, 0, 0)
        with pytest.raises(ValueError):
            CommandApdu(0, 0, 0, 0, le=256)

    @pytest.mark.parametrize("value", [-1, 256])
    @pytest.mark.parametrize("field", [*OCTET_FIELDS])
    def test_octet_field_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a single octet"):
            OCTET_FIELDS[field](value)

    @pytest.mark.parametrize("value", [0, 255])
    @pytest.mark.parametrize("field", [*OCTET_FIELDS])
    def test_octet_field_bounds_accepted(self, field, value):
        apdu = OCTET_FIELDS[field](value)
        assert getattr(apdu, field) == value


class TestParseResponse:
    def test_status_only(self):
        resp = ResponseApdu.from_hex("9000")
        assert resp.data == b"" and resp.sw == 0x9000 and resp.is_success

    def test_error_status(self):
        resp = ResponseApdu.from_hex("6A82")
        assert resp.sw == 0x6A82 and not resp.is_success

    def test_gpo_response_split(self):
        resp = ResponseApdu.from_hex("770A820200009404080101009000")
        assert len(resp.data) == 12
        assert (resp.sw1, resp.sw2) == (0x90, 0x00)

    def test_too_short(self):
        with pytest.raises(MalformedApdu):
            ResponseApdu.parse(b"\x90")

    def test_serialized_length(self):
        resp = ResponseApdu.from_sw(0x9000, data=b"\x01\x02\x03")
        assert len(resp.to_bytes()) == len(resp.data) + 2


class TestRoundTrip:
    def test_generated_commands_round_trip(self):
        r = random.Random(0xAD01)
        for _ in range(2000):
            cmd = random_command(r)
            assert CommandApdu.parse(cmd.to_bytes()) == cmd

    def test_reparse_of_serialized_bytes_is_stable(self):
        r = random.Random(0xAD02)
        for _ in range(500):
            raw = random_command(r).to_bytes()
            assert CommandApdu.parse(raw).to_bytes() == raw

    def test_generated_responses_round_trip(self):
        r = random.Random(0xAD03)
        for _ in range(1000):
            resp = ResponseApdu(
                data=r.randbytes(r.randrange(0, 64)),
                sw1=r.randrange(0x100),
                sw2=r.randrange(0x100),
            )
            assert ResponseApdu.parse(resp.to_bytes()) == resp

    def test_fuzzed_bytes_never_crash(self):
        r = random.Random(0xAD04)
        for _ in range(2000):
            raw = r.randbytes(r.randrange(0, 32))
            try:
                cmd = CommandApdu.parse(raw)
            except MalformedApdu:
                continue
            assert cmd.to_bytes() == raw


class TestValueObjects:
    """Equality, hashing and immutability that shared and memoised APDUs rely on."""

    def test_command_equality_and_hash_follow_the_fields(self):
        built = CommandApdu(0x00, 0xA4, 0x04, 0x00, data=bytearray(b"\x32\x50"), le=0)
        parsed = CommandApdu.parse(bytes.fromhex("00A4040002325000"))
        assert type(built.data) is bytes
        assert built == parsed and hash(built) == hash(parsed)
        assert built != CommandApdu(0x00, 0xA4, 0x04, 0x00, data=b"\x32\x50")
        assert len({built, parsed}) == 1

    def test_response_equality_and_hash_follow_the_fields(self):
        built = ResponseApdu(bytearray(b"\x6f\x00"), 0x90, 0x00)
        parsed = ResponseApdu.parse(b"\x6f\x00\x90\x00")
        assert type(built.data) is bytes
        assert built == parsed and hash(built) == hash(parsed)
        assert built != ResponseApdu(b"\x6f\x00", 0x6A, 0x82)
        assert ResponseApdu.from_sw(0x9000) == ResponseApdu(b"", 0x90, 0x00)

    @pytest.mark.parametrize(
        "value, field",
        [
            (CommandApdu(0x00, 0xA4, 0x04, 0x00), "cla"),
            (CommandApdu(0x00, 0xA4, 0x04, 0x00), "data"),
            (ResponseApdu(b"", 0x90, 0x00), "sw1"),
            (ResponseApdu(b"", 0x90, 0x00), "data"),
        ],
    )
    def test_fields_cannot_be_reassigned(self, value, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, b"" if field == "data" else 0x80)

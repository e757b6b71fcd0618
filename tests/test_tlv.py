import random

import pytest

from genutil import (
    COMPUTE_CC_C,
    GPO_R,
    READ_RECORD_C,
    SELECT_AID_C,
    SELECT_AID_R,
    SELECT_PPSE_R,
    SELECT_WALLET_C,
    UNLOCK_C,
    random_tlv_forest,
)
from serelay import tlv
from serelay.apdu import CommandApdu
from serelay.hexutil import parse_hex
from serelay.secure_element import ChannelOrigin, SecureElement
from serelay.tlv import TlvError, TlvNode, tag_bytes


def _ppse_fci() -> bytes:
    return parse_hex(SELECT_PPSE_R)[:-2]


class TestDecode:
    def test_gpo_response_tree(self):
        nodes = tlv.decode(parse_hex(GPO_R)[:-2])
        assert len(nodes) == 1
        outer = nodes[0]
        assert outer.tag == b"\x77" and outer.is_constructed
        assert [child.tag.hex().upper() for child in outer.children] == ["82", "94"]
        assert outer.children[0].value == b"\x00\x00"
        assert outer.children[1].value == parse_hex("08010100")

    def test_ppse_fci_breakdown(self):
        # lengths as printed in the trace: 3A / 0E / 28 / 25 / 15 / 0C
        nodes = tlv.decode(_ppse_fci())
        fci = nodes[0]
        assert fci.tag == b"\x6f" and len(fci.payload) == 0x3A
        df_name, proprietary = fci.children
        assert df_name.tag == b"\x84"
        assert df_name.value == b"2PAY.SYS.DDF01" and len(df_name.value) == 0x0E
        assert proprietary.tag == b"\xa5" and len(proprietary.payload) == 0x28
        (discretionary,) = proprietary.children
        assert discretionary.tag == b"\xbf\x0c"
        assert len(discretionary.payload) == 0x25
        first, second = discretionary.children
        assert len(first.payload) == 0x15 and len(second.payload) == 0x0C
        assert first.children[1].value == b"\x01"  # priority 1
        assert second.children[1].value == b"\x02"  # priority 2

    def test_payment_fci_label(self):
        nodes = tlv.decode(parse_hex(SELECT_AID_R)[:-2])
        assert tlv.find(nodes, [0x6F, 0xA5, 0x50]) == b"MasterCard"

    def test_empty_input(self):
        assert tlv.decode(b"") == []

    def test_truncated_value(self):
        with pytest.raises(TlvError):
            tlv.decode(parse_hex("840EAABB"))

    def test_indefinite_length_rejected(self):
        with pytest.raises(TlvError):
            tlv.decode(parse_hex("3080AABB0000"))

    def test_length_overflow_rejected(self):
        with pytest.raises(TlvError):
            tlv.decode(parse_hex("8483010000") + bytes(0x10000))

    def test_non_minimal_length_rejected(self):
        # length 5 must be encoded as 05, not 81 05
        with pytest.raises(TlvError):
            tlv.decode(parse_hex("84 81 05 AABBCCDDEE"))

    def test_constructed_value_must_parse(self):
        with pytest.raises(TlvError):
            tlv.decode(parse_hex("A102FFFF"))

    def test_long_form_lengths(self):
        body = bytes(0x90)
        nodes = tlv.decode(b"\x84\x81\x90" + body)
        assert nodes[0].value == body
        body = bytes(0x120)
        nodes = tlv.decode(b"\x84\x82\x01\x20" + body)
        assert nodes[0].value == body


class TestEncode:
    def test_primitive_golden(self):
        node = TlvNode.primitive(0x50, b"MasterCard")
        assert node.encode().hex().upper() == "500A4D617374657243617264"

    def test_cc_template_outer_length(self):
        node = TlvNode.constructed(
            0x77,
            [
                TlvNode.primitive(0x9F61, b"\x2b\x2b"),
                TlvNode.primitive(0x9F60, b"\x2b\x2b"),
                TlvNode.primitive(0x9F36, b"\x00\x12"),
            ],
        )
        raw = node.encode()
        assert len(raw) == 17
        assert raw[0] == 0x77 and raw[1] == 0x0F
        assert tlv.find(tlv.decode(raw), [0x77, 0x9F36]) == b"\x00\x12"

    def test_empty_value_node(self):
        assert TlvNode.primitive(0x83, b"").encode() == b"\x83\x00"
        assert TlvNode.constructed(0xA5, []).encode() == b"\xa5\x00"

    def test_oversize_value_rejected(self):
        with pytest.raises(TlvError):
            TlvNode.primitive(0x84, bytes(0x10000)).encode()

    def test_variant_mismatch_rejected(self):
        with pytest.raises(TlvError):
            TlvNode(tag=b"\xa5", value=b"\x01")  # constructed tag, raw value
        with pytest.raises(TlvError):
            TlvNode(tag=b"\x84", children=(TlvNode.primitive(0x50, b""),))

    def test_tag_bytes_helper(self):
        assert tag_bytes(0x9F6B) == b"\x9f\x6b"
        assert tag_bytes(0x56) == b"\x56"
        assert tag_bytes(b"\xbf\x0c") == b"\xbf\x0c"
        with pytest.raises(TlvError):
            tag_bytes(b"\x9f")  # announces a second byte that is missing
        with pytest.raises(TlvError):
            tag_bytes(b"\x84\x01")  # single-byte tag with a trailing byte


class TestFind:
    def test_nested_path(self):
        nodes = tlv.decode(parse_hex(GPO_R)[:-2])
        assert tlv.find(nodes, [0x77, 0x94]) == parse_hex("08010100")

    def test_deep_path(self):
        nodes = tlv.decode(_ppse_fci())
        aid = tlv.find(nodes, [0x6F, 0xA5, 0xBF0C, 0x61, 0x4F])
        assert aid == parse_hex("A0000000041010AA54303200FF01FFFF")

    def test_absent_tag_is_none(self):
        nodes = tlv.decode(_ppse_fci())
        assert tlv.find(nodes, [0xFF]) is None
        assert tlv.find(nodes, [0x6F, 0xFF]) is None

    def test_depth_first_descends(self):
        nodes = tlv.decode(parse_hex(GPO_R)[:-2])
        # single-tag path finds nested primitives without naming the template
        assert tlv.find(nodes, [0x82]) == b"\x00\x00"

    def test_find_all(self):
        nodes = tlv.decode(_ppse_fci())
        templates = tlv.find_all(nodes, 0x61)
        assert len(templates) == 2


class TestRoundTrip:
    def test_golden_traces_round_trip(self):
        for trace in (SELECT_PPSE_R, SELECT_AID_R, GPO_R):
            raw = parse_hex(trace)[:-2]
            assert tlv.encode(tlv.decode(raw)) == raw

    def test_generated_forests_round_trip(self):
        r = random.Random(0x71F0)
        for _ in range(1500):
            forest = random_tlv_forest(r)
            raw = tlv.encode(forest)
            assert tlv.decode(raw) == forest

    def test_decoded_bytes_reencode_identically(self):
        r = random.Random(0x71F1)
        for _ in range(1500):
            raw = tlv.encode(random_tlv_forest(r))
            assert tlv.encode(tlv.decode(raw)) == raw

    def test_fuzzed_bytes_never_crash(self):
        r = random.Random(0x71F2)
        for _ in range(3000):
            raw = r.randbytes(r.randrange(0, 48))
            try:
                nodes = tlv.decode(raw)
            except TlvError:
                continue
            assert tlv.encode(nodes) == raw


def _revalidated(node: TlvNode) -> TlvNode:
    """The same tree rebuilt through the public, validating constructor."""
    return TlvNode(
        tag=node.tag,
        value=node.value,
        children=tuple(_revalidated(child) for child in node.children),
    )


def _card_responses() -> list[bytes]:
    """Golden traces plus the record and checksum of the default card."""
    se = SecureElement()
    se.open_session(ChannelOrigin.INTERNAL)
    for cmd in (SELECT_WALLET_C, UNLOCK_C, SELECT_AID_C):
        se.process(ChannelOrigin.INTERNAL, CommandApdu.from_hex(cmd))
    live = [
        se.process(ChannelOrigin.INTERNAL, CommandApdu.from_hex(cmd)).data
        for cmd in (READ_RECORD_C, COMPUTE_CC_C)
    ]
    assert all(live)
    return [parse_hex(r)[:-2] for r in (SELECT_PPSE_R, SELECT_AID_R, GPO_R)] + live


# tag-level faults, each fed to the decoder behind a valid enclosing length
MALFORMED_TAG_INPUTS = [
    "9F",  # announces a second tag byte that is missing
    "9F81",  # continuation bit set on the last available byte
    "9F818101 00",  # four tag bytes
    "A102FFFF",  # constructed value whose nested tag never terminates
    "A1039F8181",  # nested tag truncated inside a constructed value
]


class TestDecodedNodes:
    def test_golden_responses_equal_validated_trees(self):
        for raw in _card_responses():
            decoded = tlv.decode(raw)
            validated = [_revalidated(node) for node in decoded]
            assert decoded == validated
            assert [hash(n) for n in decoded] == [hash(n) for n in validated]
            assert tlv.encode(validated) == raw

    def test_decoded_gpo_equals_hand_built_tree(self):
        expected = TlvNode.constructed(
            0x77,
            [
                TlvNode.primitive(0x82, parse_hex("0000")),
                TlvNode.primitive(0x94, parse_hex("08010100")),
            ],
        )
        (decoded,) = tlv.decode(parse_hex(GPO_R)[:-2])
        assert decoded == expected and hash(decoded) == hash(expected)
        assert {decoded, expected} == {expected}

    def test_decoded_fields_are_bytes_for_bytearray_input(self):
        (node,) = tlv.decode(bytearray(parse_hex(GPO_R)[:-2]))
        for n in (node, *node.children):
            assert type(n.tag) is bytes and type(n.value) is bytes
            assert type(n.children) is tuple

    @pytest.mark.parametrize("text", MALFORMED_TAG_INPUTS)
    def test_malformed_tags_still_rejected(self, text):
        with pytest.raises(TlvError):
            tlv.decode(parse_hex(text))

    @pytest.mark.parametrize("tag", [b"\x9f", b"\x84\x01", b"\x9f\x81\x81\x01", b"\x9f\x81"])
    def test_public_constructors_still_validate(self, tag):
        with pytest.raises(TlvError):
            TlvNode(tag=tag, value=b"")
        with pytest.raises(TlvError):
            TlvNode.primitive(tag, b"")

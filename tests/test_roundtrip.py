"""Seeded round-trip properties of every format a run writes and reads.

A histogram read back from its own CSV equals the one written, at any bin
width; a stream of wire frames read through :class:`SocketTransport` gives
back every frame, however the bytes are cut into sends. APDUs, TLV trees and
config files parse back to the objects that wrote them.
"""
import itertools
import random
import select
import socket
import threading
import time
from dataclasses import fields

import pytest

from serelay import tlv
from serelay.apdu import CommandApdu, ResponseApdu
from serelay.bench import Histogram, histogram_from_csv, histogram_to_csv
from serelay.latency import LatencyParams
from serelay.profile import CardProfile, CountermeasurePolicy, luhn_check_digit
from serelay.relay import (
    MAX_PAYLOAD_LEN,
    ErrorReason,
    FrameKind,
    SocketTransport,
    WireFrame,
    error_frame,
)
from serelay.secure_element import PREPAID_AID, WALLET_AID


@pytest.mark.parametrize("seed", range(4))
def test_histogram_csv_round_trips_at_any_width(seed):
    r = random.Random(seed)
    for _ in range(100):
        width = 10 ** r.uniform(-3, 9)
        if r.random() < 0.3:
            width = float(round(width, r.randrange(-3, 4)) or 1e-3)
        bin_count = r.randrange(2, 300)
        counts = [r.choice((0, 0, 1, r.randrange(10**6))) for _ in range(bin_count)]
        hist = Histogram(
            bin_width_ms=width, bin_count=bin_count, counts=counts, total=sum(counts)
        )
        assert histogram_from_csv(histogram_to_csv(hist)) == hist


def test_a_width_that_g_would_round_reads_back_exactly():
    hist = Histogram(bin_width_ms=1234567.0, bin_count=4, counts=[1, 0, 2, 3], total=6)
    assert histogram_from_csv(histogram_to_csv(hist)) == hist


@pytest.mark.parametrize(
    "row", ["0,50,x", "0,5x,1", "zero,50,1"], ids=["count", "end", "start"]
)
def test_a_cell_that_is_not_a_number_names_its_row(row):
    with pytest.raises(ValueError, match=f"^row 0 has a field that is not a number: '{row}'$"):
        histogram_from_csv(f"bin_start_ms,bin_end_ms,count\n{row}\n50,overflow,3\n")


def frames_of_every_kind(r: random.Random) -> list[WireFrame]:
    def payload(size):
        return bytes(r.randrange(256) for _ in range(size))

    return [
        WireFrame(FrameKind.SESSION_OPEN),
        WireFrame(FrameKind.C_APDU, payload(r.randrange(4, 30))),
        WireFrame(FrameKind.R_APDU, payload(2)),
        WireFrame(FrameKind.C_APDU, b""),
        error_frame(ErrorReason.TIMEOUT, "312ms"),
        WireFrame(FrameKind.R_APDU, payload(r.randrange(256, 300))),
        WireFrame(FrameKind.SESSION_CLOSE),
    ]


def send_in_turns(near: socket.socket, far: socket.socket, pieces: list[bytes]) -> threading.Thread:
    """Send each piece only once the reader has drained the one before it.

    So each piece reaches the reader as its own chunk, and a cut inside a
    frame really splits that frame across reads.
    """

    def run():
        for piece in pieces:
            while select.select([near], [], [], 0)[0]:
                time.sleep(0)
            far.sendall(piece)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def read_back(pieces: list[bytes], count: int) -> list[WireFrame]:
    near, far = socket.socketpair()
    transport = SocketTransport(near)
    sender = send_in_turns(near, far, pieces)
    try:
        frames = [transport.recv_frame(timeout_ms=2000) for _ in range(count)]
        assert not transport.has_pending()
    finally:
        sender.join(timeout=5)
        transport.close()
        far.close()
    assert not sender.is_alive()
    return frames


@pytest.mark.parametrize("seed", range(2))
def test_frames_read_back_when_the_stream_is_cut_at_any_byte(seed):
    frames = frames_of_every_kind(random.Random(seed))
    stream = b"".join(f.encode() for f in frames)
    # one cut at every byte boundary, including the ones between frames
    for cut in range(1, len(stream)):
        assert read_back([stream[:cut], stream[cut:]], len(frames)) == frames


def test_frames_read_back_one_byte_at_a_time():
    frames = frames_of_every_kind(random.Random(7))[:5]
    stream = b"".join(f.encode() for f in frames)
    assert read_back([bytes((b,)) for b in stream], len(frames)) == frames


def test_largest_frame_reads_back_behind_a_small_one():
    frames = [
        WireFrame(FrameKind.R_APDU, b"\x90\x00"),
        WireFrame(FrameKind.C_APDU, bytes(MAX_PAYLOAD_LEN)),
    ]
    stream = b"".join(f.encode() for f in frames)
    assert read_back([stream], len(frames)) == frames


@pytest.mark.parametrize(
    "le, size", itertools.product((None, 0, 0xFF), (0, 1, 255)), ids=str
)
def test_command_apdus_parse_back(le, size):
    r = random.Random(size)
    for _ in range(20):
        cmd = CommandApdu(*r.randbytes(4), data=r.randbytes(size), le=le)
        assert CommandApdu.parse(cmd.to_bytes()) == cmd


def test_response_apdus_parse_back():
    r = random.Random(3)
    for size in [0, 1, 2, 255, 256, *(r.randrange(300) for _ in range(50))]:
        resp = ResponseApdu(r.randbytes(size), r.randrange(256), r.randrange(256))
        assert ResponseApdu.parse(resp.to_bytes()) == resp


# value lengths on both sides of each length form: one byte, 81 xx and 82 xx xx
EDGE_LENGTHS = (0, 1, 0x7F, 0x80, 0xFF, 0x100)


def random_tag(r: random.Random, size: int, constructed: bool) -> bytes:
    first = r.choice((0x00, 0x40, 0x80, 0xC0)) | (tlv.CONSTRUCTED_BIT if constructed else 0)
    if size == 1:
        return bytes((first | r.randrange(0x1F),))
    middle = bytes(0x80 | r.randrange(0x80) for _ in range(size - 2))
    return bytes((first | 0x1F,)) + middle + bytes((r.randrange(0x80),))


def random_tree(r: random.Random, depth: int) -> tlv.TlvNode:
    size = r.randint(1, tlv.MAX_TAG_LEN)
    if depth and r.random() < 0.5:
        children = [random_tree(r, depth - 1) for _ in range(r.randrange(4))]
        return tlv.TlvNode(random_tag(r, size, True), children=children)
    value = r.randbytes(r.choice(EDGE_LENGTHS + (r.randrange(0x200),)))
    return tlv.TlvNode(random_tag(r, size, False), value=value)


@pytest.mark.parametrize("size", range(1, tlv.MAX_TAG_LEN + 1))
@pytest.mark.parametrize("length", EDGE_LENGTHS)
def test_tlv_edge_lengths_decode_back_under_every_tag_size(size, length):
    r = random.Random(length)
    leaf = tlv.TlvNode(random_tag(r, size, False), value=r.randbytes(length))
    nodes = [tlv.TlvNode(random_tag(r, size, True), children=[leaf]), leaf]
    assert tlv.decode(tlv.encode(nodes)) == nodes


@pytest.mark.parametrize("seed", range(4))
def test_tlv_trees_decode_back(seed):
    r = random.Random(seed)
    for _ in range(50):
        nodes = [random_tree(r, depth=3) for _ in range(r.randrange(1, 4))]
        assert tlv.decode(tlv.encode(nodes)) == nodes


def _non_default_configs():
    r = random.Random(11)
    pan_base = "".join(r.choice("0123456789") for _ in range(15))
    return [
        CardProfile(
            pan=pan_base + str(luhn_check_digit(pan_base)),
            expiry="2912",
            service_code="201",
            discretionary="1234567890123",
            track1_cvc3_bitmap=r.randbytes(6),
            track1_unatc_bitmap=r.randbytes(6),
            track2_cvc3_bitmap=r.randbytes(2),
            track2_unatc_bitmap=r.randbytes(2),
            track1_atc_digits=3,
            track2_atc_digits=5,
            cvc3_key=r.randbytes(16),
            pin="0000",
        ),
        CountermeasurePolicy(
            require_pin_on_card=True, internal_disabled_aids={PREPAID_AID, WALLET_AID}
        ),
        LatencyParams(
            external_mean=12.5,
            external_sd=0.1,
            internal_low=1 / 3,
            internal_high=2.75,
            wifi_overhead_low=0.0,
            wifi_overhead_high=1e-3,
            internet_floor=149.9,
            internet_fast_mode=0.2,
            internet_fast_sigma=0.3,
            internet_heavy_weight=1.0,
            internet_heavy_floor=2000.0,
            internet_heavy_median=1e4,
            internet_heavy_sigma=0.7,
        ),
    ]


@pytest.mark.parametrize("config", _non_default_configs(), ids=lambda c: type(c).__name__)
def test_config_files_load_back(tmp_path, config):
    default = type(config)()
    assert all(getattr(config, f.name) != getattr(default, f.name) for f in fields(config))
    path = tmp_path / "config.json"
    config.save(path)
    assert type(config).load(path) == config

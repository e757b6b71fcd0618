"""Seeded round-trip properties of the two byte formats a run writes and reads.

A histogram read back from its own CSV equals the one written, at any bin
width; a stream of wire frames read through :class:`SocketTransport` gives
back every frame, however the bytes are cut into sends.
"""
import random
import select
import socket
import threading
import time

import pytest

from serelay.bench import Histogram, histogram_from_csv, histogram_to_csv
from serelay.relay import (
    MAX_PAYLOAD_LEN,
    ErrorReason,
    FrameKind,
    SocketTransport,
    WireFrame,
    error_frame,
)


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

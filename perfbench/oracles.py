"""Independent expectations the benchmark checks the program's outputs against.

Nothing here calls into serelay: the card profile, the CVC3 stand-in and the
histogram layout are restated from the package's documentation, so a defect
in the package cannot make its own check pass.
"""
from __future__ import annotations

import hashlib
import hmac
import random
from typing import Callable, Optional, Sequence

# the card personalisation every workload runs with (README, "Configuration files")
PAN = "5430000000070002"
EXPIRY = "1711"
SERVICE_CODE = "101"
DISCRETIONARY = "0010000000000"
CVC3_KEY = bytes.fromhex("404142434445464748494A4B4C4D4E4F")
PIN = "1234"
PREPAID_AID = bytes.fromhex("A0000000041010AA54303200FF01FFFF")

# the default histogram layout of `serelay bench` (README, "Command-line usage")
BIN_WIDTH_MS = 50.0
BIN_COUNT = 160


def cvc3(label: bytes, un: bytes, atc: int) -> bytes:
    """HMAC-SHA256(key, label || UN || ATC)[:2], the documented stand-in."""
    return hmac.new(CVC3_KEY, label + un + atc.to_bytes(2, "big"), hashlib.sha256).digest()[:2]


def check_approved(report, seed: int, start_atc: int) -> list[str]:
    """Problems with an approved transaction report, empty when it is right."""
    problems = []
    fields = (report.pan, report.expiry, report.service_code, report.discretionary)
    if fields != (PAN, EXPIRY, SERVICE_CODE, DISCRETIONARY):
        problems.append(f"track fields {fields} differ from the profile")
    if report.un != random.Random(seed).randbytes(4):
        problems.append("unpredictable number is not the seeded draw")
    expected_atc = (start_atc + 1) & 0xFFFF
    if report.atc != expected_atc:
        problems.append(f"atc {report.atc} != {expected_atc}")
        return problems
    if report.un is not None:
        if report.cvc3_track1 != cvc3(b"T1", report.un, report.atc):
            problems.append("track 1 CVC3 mismatch")
        if report.cvc3_track2 != cvc3(b"T2", report.un, report.atc):
            problems.append("track 2 CVC3 mismatch")
    return problems


def first_step_over(
    sample_at: Callable[[int], float], steps: int, timeout_ms: Optional[float]
) -> Optional[int]:
    """Index of the first step whose cumulative delay exceeds the timeout."""
    if timeout_ms is None:
        return None
    total = 0.0
    for k in range(steps):
        total += sample_at(k)
        if total > timeout_ms:
            return k
    return None


def bin_counts(delays: Sequence[float]) -> list[int]:
    """Counts of the default layout; the last bin collects the overflow."""
    counts = [0] * BIN_COUNT
    for delay in delays:
        counts[min(int(delay // BIN_WIDTH_MS), BIN_COUNT - 1)] += 1
    return counts

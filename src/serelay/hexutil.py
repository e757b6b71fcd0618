"""Hex-string helpers shared by the CLI, config loaders and golden tests."""
from __future__ import annotations


def parse_hex(text: str) -> bytes:
    """Convert a hex string to bytes.

    Input is case-insensitive and may contain spaces, tabs or newlines
    between byte pairs (as commonly found in protocol trace dumps).
    """
    compact = "".join(text.split())
    if len(compact) % 2 != 0:
        raise ValueError(f"odd-length hex string ({len(compact)} digits)")
    try:
        return bytes.fromhex(compact)
    except ValueError:
        raise ValueError(f"invalid hex string: {text!r}") from None


def format_hex(data: bytes, sep: str = "") -> str:
    """Format bytes as an uppercase hex string, ``sep`` (one character) between bytes."""
    return (data.hex(sep) if sep else data.hex()).upper()

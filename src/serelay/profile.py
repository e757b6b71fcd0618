"""Card personalization data, countermeasure switches and their file form.

Both structures load from JSON files through :class:`JsonConfig`, as do the
latency parameters; byte-valued fields are hex strings, digit-valued fields
are decimal strings. The bundled defaults describe a synthetic prepaid
MasterCard-style profile: the PAN is made up (Luhn-valid) and the CVC3 key
is a fixed test key, so nothing here encodes a real card.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Union

from .hexutil import format_hex, parse_hex


def luhn_check_digit(digits: str) -> int:
    """Check digit that makes ``digits + str(result)`` Luhn-valid."""
    total = 0
    for pos, ch in enumerate(reversed(digits)):
        d = int(ch)
        if pos % 2 == 0:  # positions counted with the check digit appended
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return (10 - total % 10) % 10


def luhn_valid(digits: str) -> bool:
    if not (digits.isascii() and digits.isdigit()) or len(digits) < 2:
        return False
    return luhn_check_digit(digits[:-1]) == int(digits[-1])


# fixed 16-byte test key; any resemblance to issuer key material is accidental
DEFAULT_CVC3_KEY = bytes.fromhex("404142434445464748494A4B4C4D4E4F")

_DEFAULT_PAN_BASE = "543000000007000"  # 15 digits; check digit appended below
DEFAULT_PAN = _DEFAULT_PAN_BASE + str(luhn_check_digit(_DEFAULT_PAN_BASE))


def _require_digits(name: str, value: str, fewest: int, most: int) -> str:
    # str.isdigit alone takes superscripts and other scripts' digits
    if not (isinstance(value, str) and value.isascii() and value.isdigit()
            and fewest <= len(value) <= most):
        count = fewest if fewest == most else f"{fewest}-{most}"
        raise ValueError(f"{name} must be {count} decimal digits (ascii), got {value!r}")
    return value


def check_pin(pin: str) -> str:
    """``pin`` itself if VERIFY can carry it: 4-8 ASCII decimal digits."""
    return _require_digits("pin", pin, 4, 8)


def _require_bytes(name: str, value: bytes, length: int) -> None:
    if not (isinstance(value, bytes) and len(value) == length):
        raise ValueError(f"{name} must be {length} bytes")


# field annotation -> (JSON types a file may give it, what the error asks for)
_JSON_FORMS: dict[str, tuple[Any, str]] = {
    "bool": (bool, "true or false"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "bytes": (str, "a hex string"),
    "frozenset[bytes]": (list, "a list of hex strings"),
}


def _decode_value(annotation: str, value: Any, where: str) -> Any:
    json_type, wanted = _JSON_FORMS[annotation]
    # bool is an int subclass, but true/false is no number in a config file
    if not isinstance(value, json_type) or (
        isinstance(value, bool) and json_type is not bool
    ):
        raise ValueError(f"{where} must be {wanted}, got {value!r}")
    if annotation == "bytes":
        try:
            return parse_hex(value)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if annotation == "frozenset[bytes]":
        return frozenset(_decode_value("bytes", item, where) for item in value)
    return value


def _encode_value(value: Any) -> Any:
    if isinstance(value, bytes):
        return format_hex(value)
    if isinstance(value, frozenset):
        return sorted(format_hex(item) for item in value)
    return value


class JsonConfig:
    """File form shared by the frozen config dataclasses.

    A file is one JSON object keyed by field name: ``bytes`` fields are hex
    strings, the AID set is a sorted list of hex strings, and every other
    field keeps its JSON type. Omitted keys keep their defaults; a file that
    is not one object, an unknown key or a wrong-typed or invalid value is a
    ``ValueError`` whose message starts with the file's path.
    """

    @classmethod
    def load(cls, path: Union[str, Path]):
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: expected one JSON object")
        annotations = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for key, value in raw.items():
            if key not in annotations:
                raise ValueError(f"{path}: unknown key {key!r}")
            kwargs[key] = _decode_value(annotations[key], value, f"{path}: {key}")
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def save(self, path: Union[str, Path]) -> None:
        raw = {f.name: _encode_value(getattr(self, f.name)) for f in fields(self)}
        Path(path).write_text(json.dumps(raw, indent=2) + "\n")


@dataclass(frozen=True)
class CardProfile(JsonConfig):
    """Everything the payment applet needs to build its data file record."""

    pan: str = DEFAULT_PAN
    expiry: str = "1711"  # YYMM
    service_code: str = "101"
    discretionary: str = "0010000000000"
    track1_cvc3_bitmap: bytes = bytes.fromhex("000000000038")  # tag 9F62
    track1_unatc_bitmap: bytes = bytes.fromhex("0000000003C6")  # tag 9F63
    track2_cvc3_bitmap: bytes = bytes.fromhex("0038")  # tag 9F65
    track2_unatc_bitmap: bytes = bytes.fromhex("03C6")  # tag 9F66
    track1_atc_digits: int = 4  # tag 9F64
    track2_atc_digits: int = 4  # tag 9F67
    cvc3_key: bytes = DEFAULT_CVC3_KEY
    pin: str = "1234"

    def __post_init__(self) -> None:
        _require_digits("pan", self.pan, 16, 16)
        if not luhn_valid(self.pan):
            raise ValueError(f"PAN {self.pan!r} fails the Luhn check")
        _require_digits("expiry", self.expiry, 4, 4)
        _require_digits("service_code", self.service_code, 3, 3)
        _require_digits("discretionary", self.discretionary, 13, 13)
        _require_bytes("track1_cvc3_bitmap", self.track1_cvc3_bitmap, 6)
        _require_bytes("track1_unatc_bitmap", self.track1_unatc_bitmap, 6)
        _require_bytes("track2_cvc3_bitmap", self.track2_cvc3_bitmap, 2)
        _require_bytes("track2_unatc_bitmap", self.track2_unatc_bitmap, 2)
        _require_bytes("cvc3_key", self.cvc3_key, 16)
        check_pin(self.pin)
        for name in ("track1_atc_digits", "track2_atc_digits"):
            if not 0 <= getattr(self, name) <= 9:
                raise ValueError(f"{name} out of range")

    def track1(self) -> bytes:
        """Track 1 (structure B) as ASCII; cardholder name left blank."""
        text = (
            "B"
            + self.pan
            + "^ /^"
            + self.expiry
            + self.service_code
            + self.discretionary
        )
        return text.encode("ascii")

    def track2(self) -> bytes:
        """Track 2 as packed nibbles with D separator and F padding."""
        digits = self.pan + "D" + self.expiry + self.service_code + self.discretionary
        if len(digits) % 2:
            digits += "F"
        return bytes.fromhex(digits)


@dataclass(frozen=True)
class CountermeasurePolicy(JsonConfig):
    """Secure-element hardening toggles, all off by default.

    ``require_pin_on_card`` moves PIN verification onto the card: the unlock
    command is refused until a VERIFY with the correct PIN succeeded in the
    same internal session. ``internal_disabled_aids`` lists applets that must
    not be reachable through the internal interface at all.
    """

    require_pin_on_card: bool = False
    internal_disabled_aids: frozenset[bytes] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        normalized = frozenset(bytes(a) for a in self.internal_disabled_aids)
        object.__setattr__(self, "internal_disabled_aids", normalized)
        for aid in normalized:
            if not 5 <= len(aid) <= 16:
                raise ValueError(f"AID {aid.hex()} must be 5-16 bytes")

"""ISO 7816-4 command/response APDU framing.

Only the short encoding (cases 1-4, one-byte Lc/Le) is supported; every
frame this testbed exchanges fits in it. Extended-length frames are
rejected rather than silently mangled.
"""
from __future__ import annotations

from dataclasses import dataclass

from .hexutil import format_hex, parse_hex


class MalformedApdu(Exception):
    """Raw bytes do not form a consistent short-form APDU."""


class UnsupportedLength(Exception):
    """Value does not fit the short APDU encoding."""


def _check_octet(name: str, value: int) -> None:
    if not 0 <= value <= 0xFF:
        raise ValueError(f"{name} must be a single octet, got {value!r}")


@dataclass(frozen=True)
class CommandApdu:
    """A command APDU (reader to card).

    ``le`` is the raw trailer byte: ``None`` means no Le field (cases 1/3),
    ``0`` means "up to 256 bytes expected" and is preserved verbatim on
    re-serialization.
    """

    cla: int
    ins: int
    p1: int
    p2: int
    data: bytes = b""
    le: int | None = None

    def __post_init__(self) -> None:
        le = self.le
        if not (
            0 <= self.cla <= 0xFF
            and 0 <= self.ins <= 0xFF
            and 0 <= self.p1 <= 0xFF
            and 0 <= self.p2 <= 0xFF
            and (le is None or 0 <= le <= 0xFF)
        ):
            for name in ("cla", "ins", "p1", "p2"):
                _check_octet(name, getattr(self, name))
            _check_octet("le", le)
        if not isinstance(self.data, bytes):
            object.__setattr__(self, "data", bytes(self.data))

    @classmethod
    def parse(cls, raw: bytes) -> "CommandApdu":
        """Decode a short-form command frame.

        The case is inferred from length arithmetic alone: 4 bytes is a bare
        header, 5 bytes is header+Le, anything longer must carry Lc with a
        matching data field and at most one trailing Le byte.
        """
        if len(raw) < 4:
            raise MalformedApdu(f"command frame too short ({len(raw)} bytes)")
        cla, ins, p1, p2 = raw[0], raw[1], raw[2], raw[3]
        body = raw[4:]
        if not body:
            return cls(cla, ins, p1, p2)
        if len(body) == 1:
            return cls(cla, ins, p1, p2, le=body[0])
        lc = body[0]
        if lc == 0:
            # a 00 Lc in a >5 byte frame marks the extended encoding
            raise MalformedApdu("extended-length command frames not supported")
        rest = body[1:]
        if len(rest) == lc:
            return cls(cla, ins, p1, p2, data=rest)
        if len(rest) == lc + 1:
            return cls(cla, ins, p1, p2, data=rest[:lc], le=rest[lc])
        raise MalformedApdu(
            f"Lc={lc} inconsistent with {len(rest)} bytes after the Lc field"
        )

    @classmethod
    def from_hex(cls, text: str) -> "CommandApdu":
        return cls.parse(parse_hex(text))

    def to_bytes(self) -> bytes:
        if len(self.data) > 0xFF:
            raise UnsupportedLength(
                f"{len(self.data)}-byte data field exceeds short-form capacity"
            )
        out = bytes((self.cla, self.ins, self.p1, self.p2))
        if self.data:
            out += bytes((len(self.data),)) + self.data
        if self.le is not None:
            out += bytes((self.le,))
        return out

    def hex(self) -> str:
        return format_hex(self.to_bytes())


@dataclass(frozen=True)
class ResponseApdu:
    """A response APDU (card to reader): optional data plus status word."""

    data: bytes
    sw1: int
    sw2: int

    def __post_init__(self) -> None:
        if not (0 <= self.sw1 <= 0xFF and 0 <= self.sw2 <= 0xFF):
            _check_octet("sw1", self.sw1)
            _check_octet("sw2", self.sw2)
        if not isinstance(self.data, bytes):
            object.__setattr__(self, "data", bytes(self.data))

    @property
    def sw(self) -> int:
        return (self.sw1 << 8) | self.sw2

    @property
    def is_success(self) -> bool:
        return self.sw1 == 0x90 and self.sw2 == 0x00

    @classmethod
    def from_sw(cls, sw: int, data: bytes = b"") -> "ResponseApdu":
        return cls(data=data, sw1=(sw >> 8) & 0xFF, sw2=sw & 0xFF)

    @classmethod
    def parse(cls, raw: bytes) -> "ResponseApdu":
        if len(raw) < 2:
            raise MalformedApdu(f"response frame too short ({len(raw)} bytes)")
        return cls(data=raw[:-2], sw1=raw[-2], sw2=raw[-1])

    @classmethod
    def from_hex(cls, text: str) -> "ResponseApdu":
        return cls.parse(parse_hex(text))

    def to_bytes(self) -> bytes:
        return self.data + bytes((self.sw1, self.sw2))

    def hex(self) -> str:
        return format_hex(self.to_bytes())


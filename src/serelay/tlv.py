"""BER-TLV tree codec.

Tags are kept as raw byte strings (1-3 bytes) so two-byte identifiers such
as 9F6B survive round trips exactly. Only definite lengths up to 65535 are
accepted, and non-minimal length encodings are rejected, which makes
``encode(decode(x)) == x`` hold for every input that decodes at all.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

TagLike = Union[int, bytes]

CONSTRUCTED_BIT = 0x20
MAX_TAG_LEN = 3
MAX_VALUE_LEN = 0xFFFF


class TlvError(Exception):
    """Malformed, truncated or unsupported TLV encoding."""


def tag_bytes(tag: TagLike) -> bytes:
    """Normalize an int or bytes tag to its raw byte representation."""
    if isinstance(tag, int):
        if tag <= 0:
            raise TlvError(f"invalid tag {tag!r}")
        out = tag.to_bytes((tag.bit_length() + 7) // 8, "big")
    else:
        out = bytes(tag)
    _validate_tag(out)
    return out


def _validate_tag(tag: bytes) -> None:
    if not 1 <= len(tag) <= MAX_TAG_LEN:
        raise TlvError(f"tag must be 1-{MAX_TAG_LEN} bytes, got {tag.hex()!r}")
    if len(tag) == 1:
        if tag[0] & 0x1F == 0x1F:
            raise TlvError(f"one-byte tag {tag.hex()} announces subsequent bytes")
        return
    if tag[0] & 0x1F != 0x1F:
        raise TlvError(f"multi-byte tag {tag.hex()} lacks the leading 1F marker")
    # every subsequent byte except the last carries the continuation bit
    for b in tag[1:-1]:
        if not b & 0x80:
            raise TlvError(f"tag {tag.hex()} terminates early")
    if tag[-1] & 0x80:
        raise TlvError(f"tag {tag.hex()} does not terminate")


@dataclass(frozen=True)
class TlvNode:
    """One TLV data object: primitive (raw value) or constructed (children)."""

    tag: bytes
    value: bytes = b""
    children: tuple["TlvNode", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tag", bytes(self.tag))
        object.__setattr__(self, "value", bytes(self.value))
        object.__setattr__(self, "children", tuple(self.children))
        _validate_tag(self.tag)
        if self.is_constructed:
            if self.value:
                raise TlvError(
                    f"constructed tag {self.tag.hex()} cannot carry a raw value"
                )
        elif self.children:
            raise TlvError(f"primitive tag {self.tag.hex()} cannot have children")

    @property
    def is_constructed(self) -> bool:
        return bool(self.tag[0] & CONSTRUCTED_BIT)

    @classmethod
    def primitive(cls, tag: TagLike, value: bytes) -> "TlvNode":
        return cls(tag=tag_bytes(tag), value=value)

    @classmethod
    def constructed(cls, tag: TagLike, children: Iterable["TlvNode"]) -> "TlvNode":
        return cls(tag=tag_bytes(tag), children=tuple(children))

    @property
    def payload(self) -> bytes:
        """The encoded value field (children are re-encoded for constructed)."""
        if self.is_constructed:
            return b"".join(child.encode() for child in self.children)
        return self.value

    def encode(self) -> bytes:
        payload = self.payload
        return self.tag + encode_length(len(payload)) + payload


def encode_length(length: int) -> bytes:
    if length < 0:
        raise TlvError(f"negative length {length}")
    if length < 0x80:
        return bytes((length,))
    if length <= 0xFF:
        return bytes((0x81, length))
    if length <= MAX_VALUE_LEN:
        return bytes((0x82, length >> 8, length & 0xFF))
    raise TlvError(f"value length {length} exceeds {MAX_VALUE_LEN}")


def _read_tag(buf: bytes, off: int) -> tuple[bytes, int]:
    start = off
    if off >= len(buf):
        raise TlvError("truncated tag")
    first = buf[off]
    off += 1
    if first & 0x1F == 0x1F:
        while True:
            if off >= len(buf):
                raise TlvError("truncated multi-byte tag")
            cont = buf[off] & 0x80
            off += 1
            if off - start > MAX_TAG_LEN:
                raise TlvError(f"tag longer than {MAX_TAG_LEN} bytes at offset {start}")
            if not cont:
                break
    return buf[start:off], off


def _read_length(buf: bytes, off: int) -> tuple[int, int]:
    if off >= len(buf):
        raise TlvError("truncated length")
    first = buf[off]
    off += 1
    if first < 0x80:
        return first, off
    if first == 0x80:
        raise TlvError("indefinite length not supported")
    extra = first & 0x7F
    if extra > 2:
        raise TlvError(f"length form {first:02X} exceeds the 65535-byte cap")
    if off + extra > len(buf):
        raise TlvError("truncated long-form length")
    length = int.from_bytes(buf[off : off + extra], "big")
    off += extra
    # reject non-minimal forms so re-encoding reproduces the input
    if extra == 1 and length < 0x80:
        raise TlvError(f"non-minimal length encoding 81 {length:02X}")
    if extra == 2 and length < 0x100:
        raise TlvError(f"non-minimal length encoding 82 {length:04X}")
    return length, off


def _decode_one(buf: bytes, off: int) -> tuple[TlvNode, int]:
    tag, off = _read_tag(buf, off)
    length, off = _read_length(buf, off)
    if off + length > len(buf):
        raise TlvError(
            f"value of tag {tag.hex()} truncated (need {length}, "
            f"have {len(buf) - off})"
        )
    chunk = buf[off : off + length]
    off += length
    if tag[0] & CONSTRUCTED_BIT:
        return _decoded_node(tag, b"", tuple(decode(chunk))), off
    return _decoded_node(tag, chunk, ()), off


def _decoded_node(tag: bytes, value: bytes, children: tuple) -> TlvNode:
    """Node for a tag :func:`_read_tag` accepted, built without re-validation.

    ``_read_tag`` already enforces every rule ``_validate_tag`` checks, and
    :func:`_decode_one` puts a raw value only under a primitive tag, so
    ``__post_init__`` would prove nothing new. The result is equal (and
    hash-equal) to the validated node with the same fields.
    """
    node = object.__new__(TlvNode)
    vars(node).update(tag=bytes(tag), value=bytes(value), children=children)
    return node


def decode(raw: bytes) -> list[TlvNode]:
    """Decode a concatenation of TLV objects into a tree list."""
    nodes: list[TlvNode] = []
    off = 0
    while off < len(raw):
        node, off = _decode_one(raw, off)
        nodes.append(node)
    return nodes


def encode(nodes: Iterable[TlvNode]) -> bytes:
    """Concatenated encoding of a tree list; inverse of :func:`decode`."""
    return b"".join(node.encode() for node in nodes)


def _find_first(nodes: Sequence[TlvNode], tag: bytes) -> Optional[TlvNode]:
    for node in nodes:
        if node.tag == tag:
            return node
        found = _find_first(node.children, tag)
        if found is not None:
            return found
    return None


def find(nodes: Sequence[TlvNode], path: Sequence[TagLike]) -> Optional[bytes]:
    """Value of the first node matching a nested tag path, depth-first.

    Each path element is located anywhere below the previous match; absence
    is reported as ``None``, never as an error. A tag no node could legally
    carry (e.g. a lone ``FF``) is trivially absent.
    """
    current: Sequence[TlvNode] = tuple(nodes)
    node: Optional[TlvNode] = None
    for raw_tag in path:
        try:
            wanted = tag_bytes(raw_tag)
        except TlvError:
            return None
        node = _find_first(current, wanted)
        if node is None:
            return None
        current = node.children
    return node.payload if node is not None else None


def find_all(nodes: Sequence[TlvNode], tag: TagLike) -> list[TlvNode]:
    """All direct or nested nodes carrying the given tag, depth-first order."""
    try:
        wanted = tag_bytes(tag)
    except TlvError:
        return []
    out: list[TlvNode] = []
    for node in nodes:
        if node.tag == wanted:
            out.append(node)
        out.extend(find_all(node.children, wanted))
    return out

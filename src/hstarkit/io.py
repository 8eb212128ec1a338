"""JSON document schemas and deterministic serialization.

Integers outside the 53-bit window are encoded as decimal strings so the
documents survive any JSON parser without precision loss; both encodings
are accepted on input. Serialization is byte-deterministic: fixed field
order, compact separators, newline-terminated UTF-8.
"""
from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from typing import Any

from .errors import DocumentError, HstarkitError
from .hstar import HStarVector
from .simplex import LatticeSimplex, from_vertices

SCHEMA_VERSION = "1"
_SAFE = 2**53 - 1


# Pieces this short pass any digit limit the interpreter allows (>= 640).
_PIECE = 10**600
_ECHO_CHARS = 40
_INT_STRING = re.compile(r"-?[0-9]+")


def _decimal(value: int) -> str:
    """Exact decimal string of a computed integer of any size, converted in
    pieces so that the digit limit meant for untrusted input does not apply."""
    if value < 0:
        return "-" + _decimal(-value)
    if value < _PIECE:
        return str(value)
    half = value.bit_length() * 3 // 20  # about half the digits (log10 2 > 0.3)
    high, low = divmod(value, 10**half)
    return _decimal(high) + _decimal(low).rjust(half, "0")


def encode_int(value: int) -> int | str:
    return value if -_SAFE <= value <= _SAFE else _decimal(value)


def _echo(value: Any) -> str:
    """The repr of a rejected input value, cut after its first characters."""
    text = repr(value)
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"


def decode_int(value: Any) -> int:
    if isinstance(value, bool):
        raise DocumentError(f"expected integer, got {_echo(value)}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        # Only the form encode_int writes: int() would also take "1_0", " 7 ",
        # "+5" and non-ASCII digits.
        if not _INT_STRING.fullmatch(value):
            raise DocumentError(f"not an integer string: {_echo(value)}")
        try:
            return int(value, 10)
        except ValueError as exc:
            # The limit stays: it guards untrusted JSON against slow conversion.
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            raise DocumentError(
                f"integer string longer than the {limit}-digit limit: {_echo(value)}"
            ) from exc
    raise DocumentError(f"expected integer, got {_echo(value)}")


def _encoded(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {key: _encoded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encoded(value) for value in obj]
    return encode_int(obj) if isinstance(obj, int) and not isinstance(obj, bool) else obj


def canonical_dumps(obj: Any) -> str:
    """Compact, field-order-preserving JSON with a trailing newline; ints via encode_int."""
    return json.dumps(_encoded(obj), ensure_ascii=False, separators=(",", ":")) + "\n"


@dataclass(frozen=True)
class SimplexDocument:
    ambient_dim: int
    vertices: tuple[tuple[int, ...], ...]
    name: str | None = None
    expected_hstar: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        # The rule of HStarVector: a pin it breaks could never match.
        try:
            if self.expected_hstar is not None:
                HStarVector(self.expected_hstar)
        except ValueError as exc:
            raise DocumentError(
                "expected_hstar must start with 1 and have no negative entry or trailing zero"
            ) from exc

    def to_json_dict(self) -> dict:
        out: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
        if self.name is not None:
            out["name"] = self.name
        out["ambient_dim"] = self.ambient_dim
        out["vertices"] = [[encode_int(x) for x in v] for v in self.vertices]
        if self.expected_hstar is not None:
            out["expected_hstar"] = [encode_int(x) for x in self.expected_hstar]
        return out

    def to_simplex(self) -> LatticeSimplex:
        return from_vertices(self.ambient_dim, self.vertices)

    @classmethod
    def from_simplex(
        cls,
        simplex: LatticeSimplex,
        name: str | None = None,
        expected_hstar: tuple[int, ...] | None = None,
    ) -> "SimplexDocument":
        return cls(simplex.ambient_dim, simplex.vertices, name, expected_hstar)

    @classmethod
    def from_json_dict(cls, data: Any) -> "SimplexDocument":
        if not isinstance(data, dict):
            raise DocumentError("document must be a JSON object")
        allowed = {"schema_version", "name", "ambient_dim", "vertices", "expected_hstar"}
        unknown = set(data) - allowed
        if unknown:
            raise DocumentError(f"unknown fields: {sorted(unknown)}")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise DocumentError("missing or unsupported schema_version")
        if "ambient_dim" not in data or "vertices" not in data:
            raise DocumentError("ambient_dim and vertices are required")
        name = data.get("name")
        if name is not None and not isinstance(name, str):
            raise DocumentError("name must be a string")
        ambient = decode_int(data["ambient_dim"])
        raw = data["vertices"]
        if not isinstance(raw, list) or not raw or not all(isinstance(v, list) for v in raw):
            raise DocumentError("vertices must be a nonempty list of lists")
        # Shape errors are refused before any entry is decoded.
        if len(raw) > ambient + 1:
            raise DocumentError(
                f"{len(raw)} vertices, but a simplex in ambient_dim {ambient} has at most {ambient + 1}"
            )
        for i, v in enumerate(raw):
            if len(v) != ambient:
                raise DocumentError(f"vertex {i} has {len(v)} entries, ambient_dim is {ambient}")
        vertices = tuple(tuple(decode_int(x) for x in v) for v in raw)
        expected = data.get("expected_hstar")
        if expected is not None:
            if not isinstance(expected, list):
                raise DocumentError("expected_hstar must be a list")
            expected = tuple(decode_int(x) for x in expected)
        return cls(ambient, vertices, name, expected)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict; a repeated key is an error, not a silent overwrite."""
    out: dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise DocumentError(f"duplicate key {_echo(key)}")
        out[key] = value
    return out


def parse_simplex_document(text: str) -> SimplexDocument:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # syntax, or an integer literal over the digit limit
        raise DocumentError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("invalid JSON: nested too deeply") from exc
    return SimplexDocument.from_json_dict(data)


def load_simplex_document(path) -> SimplexDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:  # no error here names the file: load_simplex does
        raise DocumentError(f"cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not UTF-8: {exc}") from exc
    return parse_simplex_document(text)


def load_simplex(path, name: str | None = None) -> tuple[SimplexDocument, LatticeSimplex]:
    """The document at ``path`` and its simplex; each error starts with ``name`` or the path."""
    try:
        doc = load_simplex_document(path)
        return doc, doc.to_simplex()
    except HstarkitError as exc:
        raise DocumentError(f"{name or path}: {exc}") from exc

"""Canonical JSON: the byte-exact serialization everything signs and hashes.

Rules: object keys sorted by UTF-8 byte order, no insignificant whitespace,
integers in shortest decimal form, strings NFC-normalized UTF-8. The same
value canonicalizes to the same bytes on every platform, which is what makes
signatures verifiable by independent parties.
"""

from __future__ import annotations

import json
import unicodedata
from typing import Any

_SCALARS = (bool, int, float)
# leaf types encoded as they are; a subclass (IntEnum, a str subclass) takes the normalising copy
_PLAIN_LEAVES = frozenset((str, int, float, bool, type(None)))
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"), allow_nan=False)


def _plain(value: Any) -> bool:
    """True iff value holds only exact dicts with str keys, lists, tuples and plain leaves."""
    kind = type(value)
    if kind in _PLAIN_LEAVES:
        return True
    if kind is dict:
        for k, v in value.items():
            if type(k) is not str or not _plain(v):
                return False
        return True
    if kind is list or kind is tuple:
        for v in value:
            if not _plain(v):
                return False
        return True
    return False


def _normalize(value: Any) -> Any:
    if value is None or isinstance(value, _SCALARS):
        return value
    if isinstance(value, str):
        return unicodedata.normalize("NFC", value)
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"canonical JSON object keys must be strings, got {type(k).__name__}")
            out[unicodedata.normalize("NFC", k)] = _normalize(v)
        return out
    raise TypeError(f"value of type {type(value).__name__} is not canonical-JSON encodable")


def canonical_text(value: Any) -> str:
    """Render a JSON value in canonical form."""
    # sorted() on str compares code points, which for UTF-8 equals byte order
    if _plain(value):
        text = _ENCODER.encode(value)
        # NFC leaves ASCII as it is, so an ASCII rendering needs no normalised copy
        if text.isascii():
            return text
    return _ENCODER.encode(_normalize(value))


def canonical_bytes(value: Any) -> bytes:
    """Canonical UTF-8 bytes of a JSON value; the input to every hash and signature."""
    return canonical_text(value).encode("utf-8")


def parse(data: bytes | str) -> Any:
    """Inverse of canonical_bytes for well-formed input. Raises ValueError on bad JSON."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return json.loads(data)

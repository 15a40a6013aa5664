import json
import math
import unicodedata
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghub import canonical
from ghub.canonical import _normalize, canonical_bytes, canonical_text, parse


def test_keys_sorted_and_compact():
    assert canonical_text({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_nested_sorting():
    assert canonical_text({"z": {"y": 1, "x": [3, {"b": 0, "a": 1}]}}) == '{"z":{"x":[3,{"a":1,"b":0}],"y":1}}'


def test_scalars():
    assert canonical_text([None, True, False, 0, -7, 1.5, ""]) == '[null,true,false,0,-7,1.5,""]'


def test_nfc_normalization():
    composed = "café"
    decomposed = "café"
    assert composed != decomposed
    assert canonical_bytes(composed) == canonical_bytes(decomposed)
    assert canonical_bytes({composed: 1}) == canonical_bytes({decomposed: 1})


def test_utf8_not_escaped():
    assert canonical_bytes("é") == b'"\xc3\xa9"'


def test_newlines_escaped_inside_strings():
    assert b"\n" not in canonical_bytes({"text": "line1\nline2"})


def test_rejects_non_json_types():
    with pytest.raises(TypeError):
        canonical_bytes({"key": object()})
    with pytest.raises(TypeError):
        canonical_bytes({1: "non-string key"})
    with pytest.raises(TypeError):
        canonical_bytes({"s": {1, 2}})


def test_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        canonical_bytes(math.nan)
    with pytest.raises(ValueError):
        canonical_bytes(math.inf)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**12), max_value=10**12)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_reparse_fixpoint(value):
    first = canonical_bytes(value)
    assert canonical_bytes(parse(first)) == first


@given(json_values)
def test_parsed_value_is_nfc_of_input(value):
    def nfc(v):
        if isinstance(v, str):
            return unicodedata.normalize("NFC", v)
        if isinstance(v, list):
            return [nfc(x) for x in v]
        if isinstance(v, dict):
            return {nfc(k): nfc(x) for k, x in v.items()}
        return v

    assert parse(canonical_bytes(value)) == nfc(value)


class Label(str):
    pass


class Table(dict):
    pass


class Level(IntEnum):
    LOW = 1
    HIGH = 2


def reference_bytes(value):
    """The encoding before the ASCII fast path: a normalised copy, then json.dumps."""
    try:
        return json.dumps(
            _normalize(value), sort_keys=True, ensure_ascii=False, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
    except Exception as exc:
        return type(exc)


def fast_bytes(value):
    try:
        return canonical_bytes(value)
    except Exception as exc:
        return type(exc)


# ASCII, composed and decomposed letters, and a code point NFC rewrites (the Angstrom sign)
texts = st.text(st.sampled_from("abe\"\\\n\x00\u00e9\u0301\u212b\u00c5\U0001f600") | st.characters(), max_size=8)
keys = st.one_of(
    texts,
    texts.map(Label),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.booleans(),
)
mixed_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | texts
    | texts.map(Label)
    | st.sampled_from(list(Level)),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(texts, children, max_size=4)
    | st.dictionaries(texts, children, max_size=4).map(Table)
    | st.dictionaries(keys, children, max_size=3),
    max_leaves=16,
)


@given(mixed_values)
@settings(max_examples=300, deadline=None)
def test_fast_path_matches_the_normalising_encoder(value):
    assert fast_bytes(value) == reference_bytes(value)


@pytest.mark.parametrize(
    "value, outcome",
    [
        ({1: "x"}, TypeError),
        ({"a": float("nan")}, ValueError),
        ({"a": [1, float("-inf")]}, ValueError),
        ({"cafe\u0301": 1}, b'{"caf\xc3\xa9":1}'),
        ({"caf\u00e9": 1}, b'{"caf\xc3\xa9":1}'),
        ({"k": ("a", Label("cafe\u0301"), Level.HIGH)}, b'{"k":["a","caf\xc3\xa9",2]}'),
    ],
)
def test_fast_path_cases(value, outcome):
    assert fast_bytes(value) == outcome == reference_bytes(value)


def test_an_ascii_value_is_encoded_without_a_normalised_copy(monkeypatch):
    def refused(value):
        raise AssertionError("normalised copy made")

    monkeypatch.setattr(canonical, "_normalize", refused)
    envelope = {"id": "7f3a", "op": "pdp.evaluate", "version": 1, "body": {"now": 17, "ok": True, "v": [1.5, None]}}
    assert canonical_text(envelope) == (
        '{"body":{"now":17,"ok":true,"v":[1.5,null]},"id":"7f3a","op":"pdp.evaluate","version":1}'
    )
    with pytest.raises(AssertionError):
        canonical_text({"k": "caf\u00e9"})

"""The JSON writer of ``symcd.cli``: the bytes ``json.dumps(value, sort_keys=True, indent=2)`` gives, without json."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcd.cli import _json, _uncapped_int_digits, main, render

# Every code point, lone surrogates included, and the ones each escape rule exists for drawn often.
CHARACTERS = st.characters(exclude_categories=()) | st.sampled_from(
    "\x00\x1f\x7f\x80𐏿\U00010000\U0001f600\U0010ffff　٣\"\\/\b\t\n\f\r"
)
TEXTS = st.text(CHARACTERS, max_size=8)
BIG = 10**4300  # more than CPython's default 4,300 int-to-str digits
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(BIG, BIG * 10**200)
    | st.integers(-BIG * 10**200, -BIG)
    | TEXTS
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXTS, inner, max_size=4),
    max_leaves=10,
)


@settings(max_examples=120, deadline=None)
@given(DOCUMENTS)
def test_the_writer_writes_what_json_dumps_writes(value):
    with _uncapped_int_digits():
        assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [0.5, Fraction(1, 2), float("nan"), {1: "a"}, {"a": [1, 2.0]}, {"a": {Fraction(1)}}])
def test_the_writer_refuses_what_a_json_answer_never_holds(value):
    with pytest.raises(TypeError):
        _json(value)
    with pytest.raises(TypeError):
        render({"command": "class", "inputs": {}, "result": {"value": value}, "provenance": []}, "json")


# golden.json holds no non-ASCII argv; these echo their expression, escaped as json escapes it.
@pytest.mark.parametrize(
    "expression, echoed",
    [("theta^٣", "theta^\\u0663"), ("theta　^　3", "theta\\u3000^\\u30003")],
)
def test_a_non_ascii_expression_is_echoed_as_json_writes_it(capsys, expression, echoed):
    assert main(["--format", "json", "intersect", expression, "--g", "4", "--d", "3"]) == 0
    out = capsys.readouterr().out
    document = json.loads(out)
    assert document["result"]["value"] == "24"
    assert f'"expression": "{echoed}"' in out
    assert out == json.dumps(document, sort_keys=True, indent=2) + "\n"

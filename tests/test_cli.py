import contextlib
import errno
import fractions
import functools
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symcd
from symcd import cones
from symcd.cli import main
from symcd.cones import volume_general
from symcd.cycles import CycleClass, evaluate_top, multiply, theta_class, x_class
from symcd.errors import PreconditionError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


@contextlib.contextmanager
def _uncapped():
    """Lift CPython's cap on int-to-str digits inside the block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _assert_no_floats(value):
    assert not isinstance(value, float), f"float leaked into JSON output: {value!r}"
    if isinstance(value, dict):
        for key, inner in value.items():
            assert not isinstance(key, float)
            _assert_no_floats(inner)
    elif isinstance(value, list):
        for inner in value:
            _assert_no_floats(inner)


def test_class_ramification(capsys):
    code, doc, _ = run_json(capsys, "class", "ramification", "--g", "4", "--d", "3")
    assert code == 0
    assert doc["command"] == "class"
    assert doc["result"]["a"] == "10"
    assert doc["result"]["b"] == "12"
    assert doc["result"]["pretty"] == "10*theta - 12*x"
    assert doc["provenance"]
    _assert_no_floats(doc)


def test_class_subordinate(capsys):
    code, doc, _ = run_json(capsys, "class", "subordinate", "--g", "4", "--d", "3", "--n", "5", "--r", "2")
    assert code == 0
    assert doc["result"]["pretty"] == "theta - x"
    assert doc["result"]["coefficients"] == ["1", "-1"]


def test_class_small_diagonal(capsys):
    code, doc, _ = run_json(capsys, "class", "small-diagonal", "--g", "7", "--d", "2")
    assert code == 0
    assert doc["result"]["coefficients"] == ["-2", "16"]
    assert doc["result"]["monomials"] == ["theta", "x"]


def test_class_bipartition_variants(capsys):
    code, doc, _ = run_json(capsys, "class", "bipartition-diagonal", "--g", "4", "--d", "3")
    assert code == 0
    assert doc["result"]["coefficients"] == ["0", "12", "-90", "228"]
    code, doc, _ = run_json(
        capsys, "class", "bipartition-diagonal", "--g", "4", "--d", "3", "--statement-variant"
    )
    assert code == 0
    assert doc["result"]["coefficients"] == ["0", "12", "-102", "228"]


def test_class_e_k(capsys):
    code, doc, _ = run_json(capsys, "class", "e-k", "--k", "3")
    assert code == 0
    assert doc["result"]["pretty"] == "3*theta - 5*x"
    assert doc["result"]["genus"] == 5
    assert doc["result"]["symmetric_power"] == 3


def test_class_unknown_name_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "class", "nonsense", "--g", "4")
    assert code == 2
    _assert_refused_in_one_error_line(out, err)
    assert err.startswith("usage error: argument name: invalid choice: 'nonsense'")


def test_class_missing_flag(capsys):
    code, out, err = run_cli(capsys, "class", "ramification", "--g", "4")
    assert code == 2
    assert "--d" in err


# every class name and the flags it requires, in the order they are checked
CLASS_FLAGS = {
    "subordinate": ("--g", "--d", "--n", "--r"),
    "small-diagonal": ("--g", "--d"),
    "bipartition-diagonal": ("--g", "--d"),
    "ramification": ("--g", "--d"),
    "e-k": ("--k",),
    "hyperelliptic-c1d": ("--g", "--d"),
}
FLAG_VALUES = {"--g": "5", "--d": "3", "--n": "6", "--r": "2", "--k": "3"}


def test_class_flags_cover_the_catalog_registry():
    from symcd import cli

    registry = {name: tuple(f"--{flag}" for flag in entry.flags) for name, entry in cli._CLASSES.items()}
    assert registry == CLASS_FLAGS


@pytest.mark.parametrize("name", CLASS_FLAGS)
def test_class_with_its_flags_answers(capsys, name):
    argv = [token for flag in CLASS_FLAGS[name] for token in (flag, FLAG_VALUES[flag])]
    code, doc, _ = run_json(capsys, "class", name, *argv)
    assert code == 0
    assert doc["inputs"]["name"] == name


@pytest.mark.parametrize(
    "name, missing", [(name, flag) for name, flags in CLASS_FLAGS.items() for flag in flags]
)
def test_class_without_a_required_flag_names_it(capsys, name, missing):
    argv = [token for flag in CLASS_FLAGS[name] if flag != missing for token in (flag, FLAG_VALUES[flag])]
    code, out, err = run_cli(capsys, "class", name, *argv)
    assert code == 2
    assert out == ""
    assert f"{missing} is required for {name}" in err
    _assert_one_line(err)


# each class with every flag at or next to the cap on class flags
CLASS_AT_CAP = {
    "subordinate": {"--g": "2", "--d": "1000", "--n": "1000", "--r": "0"},
    "small-diagonal": {"--g": "1000", "--d": "1000"},
    "bipartition-diagonal": {"--g": "1000", "--d": "999"},
    "ramification": {"--g": "1000", "--d": "999"},
    "e-k": {"--k": "1000"},
    "hyperelliptic-c1d": {"--g": "1000", "--d": "1000"},
}


@pytest.mark.parametrize("name", CLASS_AT_CAP)
def test_class_answers_at_the_flag_cap(capsys, name):
    argv = [token for item in CLASS_AT_CAP[name].items() for token in item]
    start = time.perf_counter()
    code, doc, err = run_json(capsys, "class", name, *argv)
    assert time.perf_counter() - start < 1
    assert code == 0, err
    assert doc["inputs"]["name"] == name


@pytest.mark.parametrize(
    "name, flag, value",
    [(name, flag, value) for name, flags in CLASS_AT_CAP.items() for flag in flags for value in ("1001", "-1001")],
)
def test_class_refuses_a_flag_past_the_cap(capsys, name, flag, value):
    argv = [token for key, given in CLASS_AT_CAP[name].items() for token in (key, value if key == flag else given)]
    code, out, err = run_cli(capsys, "class", name, *argv)
    assert code == 2
    assert out == ""
    assert f"{flag} {value} is too large for class: at most 1000 in absolute value" in err
    _assert_one_line(err)


def test_class_refuses_a_flag_past_the_cap_that_its_name_does_not_read(capsys):
    # e-k reads only --k, but every flag of class is held to the same cap
    assert run_cli(capsys, "class", "e-k", "--k", "3", "--g", "1000")[0] == 0
    code, out, err = run_cli(capsys, "class", "e-k", "--k", "3", "--g", "5000")
    assert code == 2
    _assert_refused_in_one_error_line(out, err)
    assert err == "usage error: --g 5000 is too large for class: at most 1000 in absolute value\n"


def test_class_subordinate_at_a_large_degree_is_refused_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "class", "subordinate", "--g", "3", "--d", "3000", "--n", "3000", "--r", "0")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    _assert_one_line(err)


def test_class_bad_range_is_precondition_error(capsys):
    code, out, err = run_cli(capsys, "class", "ramification", "--g", "4", "--d", "4")
    assert code == 3
    assert "d <= g-1" in err or "2 <= d" in err


def test_intersect_examples(capsys):
    code, doc, _ = run_json(capsys, "intersect", "(theta - x)^3", "--g", "4", "--d", "3")
    assert code == 0
    assert doc["result"]["value"] == "-1"

    code, doc, _ = run_json(capsys, "intersect", "theta^3", "--g", "5", "--d", "3")
    assert code == 0
    assert doc["result"]["value"] == "60"

    code, doc, _ = run_json(capsys, "intersect", "smalldiag * ramification", "--g", "4", "--d", "3")
    assert code == 0
    assert doc["result"]["value"] == "324"


def test_class_and_intersect_look_up_the_constructor_at_every_call(capsys, monkeypatch):
    from symcd import catalog

    _, doc, _ = run_json(capsys, "class", "ramification", "--g", "4", "--d", "3")
    assert doc["result"]["coefficients"] == ["10", "-12"]
    calls = []

    def patched(g, d):
        calls.append((g, d))
        return x_class(g, d)

    monkeypatch.setattr(catalog, "ramification_divisor_class", patched)
    code, doc, _ = run_json(capsys, "class", "ramification", "--g", "4", "--d", "3")
    assert code == 0
    assert doc["result"]["coefficients"] == ["0", "1"]
    code, doc, _ = run_json(capsys, "intersect", "smalldiag * ramification", "--g", "4", "--d", "3")
    assert code == 0
    assert doc["result"]["value"] == str(evaluate_top(catalog.small_diagonal_class(4, 3) * x_class(4, 3)))
    assert calls == [(4, 3), (4, 3)]


# Each other route into the library, patched in its home module so that the
# first argv is answered as the second one is.
_ROUTES = {
    "evaluate_top": (
        "cycles",
        lambda original: lambda value: original(2 * value),
        ("intersect", "theta^3", "--g", "5", "--d", "3"),
        ("intersect", "2 * theta^3", "--g", "5", "--d", "3"),
    ),
    "effective_cone": (
        "cones",
        lambda original: lambda g, d, hyperelliptic: original(g + 1, d + 1, hyperelliptic=hyperelliptic),
        ("cone", "--g", "5", "--d", "3"),
        ("cone", "--g", "6", "--d", "4"),
    ),
    "nef_facts": (
        "cones",
        lambda original: lambda g, d, hyperelliptic: original(g + 1, d + 1, hyperelliptic=hyperelliptic),
        ("cone", "--kind", "nef", "--g", "5", "--d", "3"),
        ("cone", "--kind", "nef", "--g", "6", "--d", "4"),
    ),
    "volume_general": (
        "cones",
        lambda original: lambda g, t: original(g, t / 2),
        ("volume", "--g", "5", "--d", "4", "--t", "1/2"),
        ("volume", "--g", "5", "--d", "4", "--t", "1/4"),
    ),
    "run_all": (
        "verify",
        lambda original: lambda suite, bound: original("orth", 3),
        ("verify", "--suite", "diagonal", "--max", "4"),
        ("verify", "--suite", "orth", "--max", "3"),
    ),
}


@pytest.mark.parametrize("name", sorted(_ROUTES))
def test_every_subcommand_looks_up_the_library_at_every_call(capsys, monkeypatch, name):
    home, stand_in, argv, answered_as = _ROUTES[name]
    unpatched, expected = (run_json(capsys, *each)[1]["result"] for each in (argv, answered_as))
    assert unpatched != expected
    module = getattr(symcd, home)
    monkeypatch.setattr(module, name, stand_in(getattr(module, name)))
    code, doc, err = run_json(capsys, *argv)
    assert code == 0, err
    assert doc["result"] == expected


def test_intersect_rational_scalars(capsys):
    code, doc, _ = run_json(capsys, "intersect", "(theta - 5/3 * x)^3", "--g", "5", "--d", "3")
    assert code == 0
    assert doc["result"]["value"] == "-80/27"


def test_intersect_codim_mismatch(capsys):
    code, out, err = run_cli(capsys, "intersect", "theta^2", "--g", "4", "--d", "3")
    assert (code, out) == (3, "")
    assert err == "error: top-degree evaluation on C_3 needs codimension 3 (got 2)\n"


def test_intersect_scalar_expression_rejected(capsys):
    code, out, err = run_cli(capsys, "intersect", "2 * 3", "--g", "4", "--d", "3")
    assert code == 3


def test_intersect_unknown_name(capsys):
    code, out, err = run_cli(capsys, "intersect", "theta * mystery", "--g", "4", "--d", "3")
    assert code == 2
    assert "mystery" in err


def test_intersect_syntax_error(capsys):
    code, out, err = run_cli(capsys, "intersect", "theta +", "--g", "4", "--d", "3")
    assert code == 2


def _assert_one_line(err):
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "expression, line",
    [
        ("1/0 * theta^3", "usage error: zero denominator in '1/0'"),
        ("theta )", "usage error: trailing input in expression: ')'"),
        ("theta^x", "usage error: exponent must be a non-negative integer (got 'x')"),
        ("(theta theta)", "usage error: unbalanced parentheses in expression"),
        ("theta +  % x  ", "usage error: cannot tokenize expression at: '% x'"),
    ],
    ids=["zero-denominator", "trailing-input", "exponent", "unbalanced", "untokenizable"],
)
def test_intersect_zero_denominator_is_usage_error(capsys, expression, line):
    code, out, err = run_cli(capsys, "intersect", expression, "--g", "4", "--d", "3")
    assert code == 2
    assert out == ""
    assert err == line + "\n"


@pytest.mark.parametrize(
    "expression",
    ["(" * 2000 + "theta^3" + ")" * 2000, "1*" + "-" * 2000 + "theta^3"],
    ids=["parentheses", "unary-minus"],
)
def test_intersect_nesting_depth_is_limited(capsys, expression):
    code, out, err = run_cli(capsys, "intersect", expression, "--g", "4", "--d", "3")
    assert code == 2
    assert out == ""
    assert "nested" in err
    _assert_one_line(err)


def test_intersect_moderate_nesting_still_evaluates(capsys):
    expression = "(" * 50 + "theta^3" + ")" * 50
    code, doc, _ = run_json(capsys, "intersect", expression, "--g", "4", "--d", "3")
    assert code == 0
    assert doc["result"]["value"] == "24"  # 4!/1!


@pytest.mark.parametrize(
    "expression",
    [
        "2^3000000 * theta^3",
        "2^100001 * theta^3",
        "(1/2)^100001 * theta^3",
        "(2^50000)^3 * theta^3",
        "(2*theta^0)^100001 * theta^3",
        "(theta^0 * 1/2)^100001 * theta^3",
        "(3*theta^0)^1000000000000 * theta^3",
        "(2^40000*theta)^3",
    ],
)
def test_intersect_scalar_power_is_capped(capsys, expression):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "intersect", expression, "--g", "4", "--d", "3")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    # refused by the check ahead of the power, not by the size check after it
    assert " power " in err and "is too large: its value would exceed 2^100000" in err
    _assert_one_line(err)


@pytest.mark.parametrize(
    "expression, value",
    [
        ("2^10 * theta^3", 24 * 2**10),
        ("2^100000 * theta^3", 24 * 2**100000),
        ("(1/3)^5 * theta^3", Fraction(24, 3**5)),
        ("0^99999999999 * theta^3", 0),
        ("1^99999999999 * theta^3", 24),
        ("2^50000 * 2^50000 * theta^3", 24 * 2**100000),
        ("theta^3 * 2^50000 * 2^50000", 24 * 2**100000),
        ("-(2^100000) * theta^3", -24 * 2**100000),
        ("(1/2)^50000 * theta^3 * (1/2)^50000", Fraction(24, 2**100000)),
        ("2^99999 * theta^3 + 2^99999 * theta^3", 24 * 2**100000),
        ("(theta^0)^1000000000000 * theta^3", 24),
        ("(-(theta^0))^1000000000001 * theta^3", -24),
        ("(0*theta^0)^1000000000000 * theta^3", 0),
        ("(2*theta^0)^100000 * theta^3", 24 * 2**100000),
        ("(theta^0 * 1/2)^100000 * theta^3", Fraction(24, 2**100000)),
        ("0" * 40_000 + "2 * theta^3", 48),
        ("(theta^0)^" + "9" * 30_103 + " * theta^3", 24),
        ("(-(theta^0))^" + "9" * 30_103 + " * theta^3", -24),
        ("theta^3   ", 24),
        ("theta^3" + " " * 100_000, 24),
    ],
    ids=[
        "2^10",
        "2^100000",
        "(1/3)^5",
        "0^huge",
        "1^huge",
        "product",
        "class-product",
        "negated",
        "reciprocal",
        "sum",
        "unit-class^huge",
        "negative-unit-class^huge",
        "zero-class^huge",
        "class^100000",
        "reciprocal-class^100000",
        "zero-padded-literal",
        "unit-class^longest-exponent",
        "negative-unit-class^longest-exponent",
        "trailing-spaces",
        "long-trailing-whitespace",
    ],
)
def test_intersect_scalar_powers_within_the_cap_answer(capsys, expression, value):
    start = time.perf_counter()
    code, doc, err = run_json(capsys, "intersect", expression, "--g", "4", "--d", "3")
    assert time.perf_counter() - start < 1
    assert code == 0, err
    with _uncapped():
        assert doc["result"]["value"] == str(value)


_LONG = " * ".join(["2^100000"] * 20)


@pytest.mark.parametrize(
    "expression, refused",
    [
        (_LONG + " * theta^3", "a scalar"),
        ("theta^3 * " + _LONG, "a class coefficient"),
        ("3^100000 * theta^3", "a scalar"),
        ("(2^100000 + 2^100000) * theta^3", "a scalar"),
        ("-(2^100000 * 2) * theta^3", "a scalar"),
        ("1" + "0" * 30200 + " * theta^3", "a scalar"),
        ("theta^3 * 2^100000 + theta^3 * 2^100000", "a class coefficient"),
    ],
    ids=["scalar-first", "class-first", "power", "sum", "negated-product", "literal", "class-sum"],
)
def test_intersect_scalars_beyond_the_bound_are_refused(capsys, expression, refused):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "intersect", expression, "--g", "4", "--d", "3")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert f"{refused} in the expression is too large" in err
    _assert_one_line(err)


# A literal, exponents included, is judged by the rule --t follows: a part with
# more digits than 2^100000 (leading zeros aside) is refused before it is read,
# even where the reduced value, or the power of a unit, would be within the bound.
@pytest.mark.parametrize(
    "expression",
    [
        "1" * 600_000 + "*theta^2",
        "1/" + "1" * 600_000 + "*theta^2",
        "1" + "0" * 30_103 + "/1" + "0" * 30_103 + "*theta^2",
        "theta^" + "1" * 600_000,
        "(theta^0)^" + "1" * 600_000 + " * theta^2",
    ],
    ids=["long-p", "long-q", "reduces-within-the-bound", "long-exponent", "unit-class^long-exponent"],
)
def test_intersect_literal_longer_than_the_bound_is_refused_before_it_is_read(capsys, expression):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "intersect", expression, "--g", "5", "--d", "2")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert err == "usage error: a scalar in the expression is too large: it exceeds 2^100000\n"


def test_the_scalar_digit_bound_is_the_digit_count_of_the_scalar_bound():
    from symcd import cli

    with _uncapped():
        assert len(str(cli._MAX_SCALAR)) == cli._MAX_SCALAR_DIGITS


@pytest.mark.parametrize(
    "expression, g, d, codim",
    [("theta^4", 4, 3, 4), ("(theta^2)^3", 6, 5, 6), ("theta^100000000000000", 4, 3, 100000000000000)],
)
def test_intersect_class_power_keeps_codimension_refusal(capsys, expression, g, d, codim):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "intersect", expression, "--g", str(g), "--d", str(d))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err == f"error: product has codimension {codim}, beyond the dimension of C_{d}\n"


# The costliest calls found within the caps on intersect's flags.
INTERSECT_AT_CAP = [
    ["(theta-x)^1000", "--g", "1999", "--d", "1000"],
    ["(theta + 2*x)^500 * (3*theta - x)^500", "--g", "1999", "--d", "1000"],
    ["ek * theta^999", "--g", "1999", "--d", "1000", "--k", "1000"],
    ["c1d * (theta - x)^999", "--g", "1000", "--d", "1000"],
    ["subordinate * theta^500", "--g", "1999", "--d", "1000", "--n", "1000", "--r", "500"],
    ["smalldiag * ramification", "--g", "1999", "--d", "1000"],
]


@pytest.mark.parametrize("argv", INTERSECT_AT_CAP, ids=[argv[0] for argv in INTERSECT_AT_CAP])
def test_intersect_answers_at_the_flag_caps_quickly(capsys, argv):
    start = time.perf_counter()
    code, doc, err = run_json(capsys, "intersect", *argv)
    assert time.perf_counter() - start < 1
    assert code == 0, err
    assert doc["result"]["codimension"] == int(argv[argv.index("--d") + 1])


def _divisor_power_value(g, d, a, b, exponent):
    """The top-degree value of (a*theta + b*x)^exponent * theta^(d - exponent) on C_d, from the binomial theorem.

    The sum over k of C(e, k) a^(e-k) b^k g!/(g-d+k)!, since x^k * theta^(d-k)
    is g!/(g-d+k)!, the number of d-k ordered picks from g; it is taken by
    Horner's rule in a, so each step multiplies the sum by a alone.
    """
    value = 0
    for k in range(exponent + 1):
        value = value * a + math.comb(exponent, k) * b**k * math.perm(g, d - k)
    return value


# Large powers at the flag caps, each with the divisor a*theta + b*x it raises and the exponent.
POWERS_AT_CAP = {
    "ramification^1000": (*symcd.ramification_divisor_class(1999, 1000).numerators, 1000),
    "(2^99*(theta-x))^1000": (2**99, -(2**99), 1000),
    "(3^60*theta-2^95*x)^1000": (3**60, -(2**95), 1000),
    "(theta - 2^200*x)^500 * theta^500": (1, -(2**200), 500),
}


@pytest.mark.parametrize("expression, divisor", POWERS_AT_CAP.items(), ids=list(POWERS_AT_CAP))
def test_large_powers_at_the_flag_caps_answer_quickly_and_exactly(capsys, expression, divisor):
    start = time.perf_counter()
    code, doc, err = run_json(capsys, "intersect", expression, "--g", "1999", "--d", "1000")
    assert time.perf_counter() - start < 1
    assert code == 0, err
    with _uncapped():
        assert doc["result"]["value"] == str(_divisor_power_value(1999, 1000, *divisor))


@pytest.mark.parametrize(
    "expression",
    ["(2^99999*(theta - x))^1000", "(2^101*theta - x)^1000", "(theta - 2^201*x)^500 * theta^500"],
)
def test_intersect_class_power_beyond_the_bound_is_refused_before_it_is_computed(capsys, expression):
    # The first would need about 12 GB if it were computed.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "intersect", expression, "--g", "1999", "--d", "1000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "class power" in err and "is too large: its value would exceed 2^100000" in err
    _assert_one_line(err)


@pytest.mark.parametrize(
    "flags, refused",
    [
        (["--g", "2000", "--d", "3"], "--g 2000 is too large for intersect: at most 1999"),
        (["--g", "-2000", "--d", "3"], "--g -2000 is too large for intersect: at most 1999"),
        (["--g", "4", "--d", "1001"], "--d 1001 is too large for intersect: at most 1000"),
        (["--g", "4", "--d", "-1001"], "--d -1001 is too large for intersect: at most 1000"),
        (["--g", "4", "--d", "3", "--n", "1001", "--r", "0"], "--n 1001 is too large for intersect: at most 1000"),
        (["--g", "4", "--d", "3", "--n", "3", "--r", "-1001"], "--r -1001 is too large for intersect: at most 1000"),
        (["--g", "4", "--d", "3", "--k", "1001"], "--k 1001 is too large for intersect: at most 1000"),
        (["--g", "3000", "--d", "3000"], "--g 3000 is too large for intersect"),
        (["--g", "-" + "9" * 4000, "--d", "300", "--n", "300", "--r", "0"], "is too large for intersect"),
    ],
    ids=["g", "negative-g", "d", "negative-d", "n", "negative-r", "k", "g-and-d", "huge-negative-g"],
)
def test_intersect_refuses_a_flag_past_its_cap(capsys, flags, refused):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "intersect", "subordinate", *flags)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert refused in err
    _assert_one_line(err)


@pytest.mark.parametrize("g, d, k", [(5, 4, 3), (6, 3, 3), (4, 3, 3), (7, 4, 3), (5, 3, 4)])
def test_intersect_ek_off_its_curve_is_precondition_error(capsys, g, d, k):
    argv = ["intersect", f"ek * theta^{d - 1}", "--g", str(g), "--d", str(d), "--k", str(k)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "ek lives on C_k in genus 2k-1" in err
    _assert_one_line(err)


@pytest.mark.parametrize(
    "expression, flags, missing",
    [
        ("subordinate * theta^2", ["--r", "2"], "--n"),
        ("subordinate * theta^2", ["--n", "6"], "--r"),
        ("ek^3", [], "--k"),
    ],
)
def test_intersect_name_without_its_flag_is_usage_error(capsys, expression, flags, missing):
    code, out, err = run_cli(capsys, "intersect", expression, "--g", "5", "--d", "3", *flags)
    assert code == 2
    assert out == ""
    assert f"{missing} is required for the" in err
    _assert_one_line(err)


# Expression trees over theta, x and literals p or p/q: ("name", n),
# ("number", p, q or None), ("neg", a), (op, a, b) for op in + - *, and
# ("^", a, e, symbol).
_NAMES = st.sampled_from(("theta", "x")).map(lambda name: ("name", name))
_NUMBERS = st.tuples(st.just("number"), st.integers(0, 12), st.none() | st.integers(0, 6))
_POWER = st.sampled_from(("^", "**"))
_TREES = st.recursive(
    _NAMES | _NUMBERS,
    lambda inner: st.one_of(
        st.tuples(st.just("neg"), inner),
        st.tuples(st.sampled_from("+-*"), inner, inner),
        st.tuples(st.just("^"), inner, st.integers(0, 4), _POWER),
    ),
    max_leaves=8,
)


@functools.lru_cache(maxsize=None)
def _homogeneous(codim: int, depth: int):
    """Trees whose every sum adds terms of one codimension, ``codim`` in all,
    so that most of them reach top degree; a power e of a base of codimension
    b has codimension b*e, and at codimension 0 the base may be any class."""
    if codim == 0:
        leaves = _NUMBERS
    elif codim == 1:
        leaves = _NAMES
    else:
        leaves = st.tuples(st.just("^"), _NAMES, st.just(codim), _POWER)
    if depth == 0:
        return leaves
    same = _homogeneous(codim, depth - 1)
    if codim == 0:
        power = st.tuples(st.just("^"), same, st.integers(0, 4), _POWER) | st.tuples(
            st.just("^"), _homogeneous(1, depth - 1) | _homogeneous(2, depth - 1), st.just(0), _POWER
        )
    else:
        exponents = [e for e in range(1, codim + 1) if codim % e == 0]
        power = st.sampled_from(exponents).flatmap(
            lambda e: st.tuples(st.just("^"), _homogeneous(codim // e, depth - 1), st.just(e), _POWER)
        )
    product = st.integers(0, codim).flatmap(
        lambda a: st.tuples(st.just("*"), _homogeneous(a, depth - 1), _homogeneous(codim - a, depth - 1))
    )
    return st.one_of(leaves, st.tuples(st.just("neg"), same), st.tuples(st.sampled_from("+-"), same, same), product, power)


# Binding strength of each node, and the least strength each operand needs
# to go without parentheses: unary minus takes an atom, so -a^2 is (-a)^2.
_STRENGTH = {"+": 1, "-": 1, "*": 2, "^": 3, "neg": 4, "name": 5, "number": 5}


def _render(tree, least: int = 0) -> str:
    kind = tree[0]
    if kind == "name":
        text = tree[1]
    elif kind == "number":
        text = str(tree[1]) if tree[2] is None else f"{tree[1]}/{tree[2]}"
    elif kind == "neg":
        text = "-" + _render(tree[1], 4)
    elif kind == "^":
        text = f"{_render(tree[1], 4)}{tree[3]}{tree[2]}"
    else:
        strength = _STRENGTH[kind]
        text = f"{_render(tree[1], strength)} {kind} {_render(tree[2], strength + 1)}"
    return text if _STRENGTH[kind] >= least else f"({text})"


def _scalar_or_class(value):
    """A codimension-0 class as the scalar it is; anything else unchanged."""
    if isinstance(value, CycleClass) and value.codim == 0:
        return Fraction(value.numerators[0], value.denominator)
    return value


def _reference(tree, g, d):
    """The tree's value with scalars kept as ``Fraction``: a scalar scales a
    class, and a scalar and a class do not add.  Only a class of codimension
    0, which is read as its scalar, goes beyond what the parser did before
    scalars became classes (``theta^0 + 1`` was refused then)."""
    kind = tree[0]
    if kind == "name":
        return (theta_class if tree[1] == "theta" else x_class)(g, d)
    if kind == "number":
        return Fraction(tree[1], 1 if tree[2] is None else tree[2])
    left = _reference(tree[1], g, d)
    if kind == "neg":
        return -left
    if kind == "^":
        return _scalar_or_class(left ** tree[2])
    right = _reference(tree[2], g, d)
    if kind == "*":
        if isinstance(left, Fraction) and isinstance(right, Fraction):
            return left * right
        if isinstance(left, Fraction) or isinstance(right, Fraction):
            scalar, cls = (left, right) if isinstance(left, Fraction) else (right, left)
            return cls.scale(scalar)
        return _scalar_or_class(multiply(left, right))
    if isinstance(left, Fraction) != isinstance(right, Fraction):
        raise PreconditionError("cannot add a scalar to a class")
    return left + right if kind == "+" else left - right


def _reference_outcome(tree, g, d):
    """(exit code, printed value or None) of ``intersect`` on the tree."""
    try:
        value = _reference(tree, g, d)
    except ZeroDivisionError:
        return 2, None
    except PreconditionError:
        return 3, None
    if isinstance(value, Fraction) or value.codim != d:
        return 3, None
    return 0, str(evaluate_top(value))


@pytest.mark.parametrize("expression", ["2 * mystery", "2 +", "theta * mystery", "1/2"])
def test_intersect_literal_needs_a_valid_space_like_a_name(capsys, expression):
    # A literal is a class on C_d in genus g, so it is refused on a genus
    # below 2 as theta is, before the parser reads on.
    code, out, err = run_cli(capsys, "intersect", expression, "--g", "1", "--d", "3")
    assert (code, out, err) == (3, "", "error: genus must be at least 2 (got 1)\n")


@settings(max_examples=300, deadline=None)
@given(g=st.integers(2, 5), d=st.integers(2, 4), data=st.data())
def test_intersect_agrees_with_a_reference_that_keeps_scalars_apart(g, d, data):
    tree = data.draw(_TREES | _homogeneous(d, 3), label="tree")
    expression = _render(tree)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "json", "intersect", "--g", str(g), "--d", str(d), "--", expression])
    value = json.loads(out.getvalue())["result"]["value"] if code == 0 else None
    assert (code, value) == _reference_outcome(tree, g, d), (expression, err.getvalue())


def test_cone_hyperelliptic(capsys):
    code, doc, _ = run_json(capsys, "cone", "--g", "5", "--d", "3", "--curve", "hyperelliptic")
    assert code == 0
    assert doc["result"]["status"] == "exact"
    assert doc["result"]["upper_ray"] == {"theta": -1, "x": 7, "pretty": "-theta + 7*x"}
    assert doc["result"]["lower_ray"] == {"theta": 1, "x": -3, "pretty": "theta - 3*x"}
    assert "lower_outer_ray" not in doc["result"]


def test_cone_bracket(capsys):
    code, doc, _ = run_json(capsys, "cone", "--g", "8", "--d", "4", "--curve", "general")
    assert code == 0
    assert doc["result"]["status"] == "inner-and-outer-bracket"
    assert doc["result"]["lower_ray"]["pretty"] == "theta - 2*x"
    assert doc["result"]["lower_outer_ray"]["pretty"] == "theta - 5*x"


def test_cone_nef_kind(capsys):
    code, doc, _ = run_json(capsys, "cone", "--g", "4", "--d", "3", "--curve", "general", "--kind", "nef")
    assert code == 0
    assert doc["result"]["diagonal_nef_ray"]["pretty"] == "-theta + 12*x"
    assert doc["result"]["gonality"] == 3
    assert doc["result"]["theta_minus_x_ample"] is False


def test_cone_out_of_range(capsys):
    code, out, err = run_cli(capsys, "cone", "--g", "3", "--d", "2", "--curve", "general")
    assert code == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cone", "--g", "9", "--d", "9"), "nonhyperelliptic cone needs g >= 4 and 2 <= d <= g-1 (got g=9, d=9)"),
        (("cone", "--g", "3", "--d", "2"), "nonhyperelliptic cone needs g >= 4 and 2 <= d <= g-1 (got g=3, d=2)"),
        (("cone", "--g", "1", "--d", "3"), "nonhyperelliptic cone needs g >= 4 and 2 <= d <= g-1 (got g=1, d=3)"),
        (("cone", "--g", "9", "--d", "10", "--curve", "hyperelliptic"), "hyperelliptic cone needs 2 <= d <= g"),
        (("cone", "--g", "9", "--d", "1", "--curve", "hyperelliptic", "--kind", "nef"), "nef data needs 2 <= d <= g"),
        (("cone", "--g", "1", "--d", "3", "--kind", "nef"), "genus must be at least 2 (got 1)"),
        (("volume", "--g", "9", "--d", "10", "--t", "1/2", "--curve", "hyperelliptic"), "volume needs 2 <= d <= g"),
        (("volume", "--g", "9", "--d", "1", "--t", "1/2", "--curve", "hyperelliptic"), "volume needs 2 <= d <= g"),
        (("class", "ramification", "--g", "9", "--d", "9"), "ramification divisor needs g >= 4 and 2 <= d <= g-1"),
        (("class", "ramification", "--g", "3", "--d", "2"), "ramification divisor needs g >= 4 and 2 <= d <= g-1"),
    ],
)
def test_a_pair_outside_its_proven_range_exits_three_in_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    _assert_refused_in_one_error_line(out, err)
    assert message in err


@pytest.mark.parametrize("flag", ["--n", "--r", "--k"])
@pytest.mark.parametrize(
    "argv",
    [["cone", "--g", "5", "--d", "3"], ["volume", "--g", "5", "--d", "4", "--t", "1/2"]],
    ids=["cone", "volume"],
)
def test_cone_and_volume_refuse_flags_they_do_not_read(capsys, argv, flag):
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, flag, "4")
    assert code == 2
    assert out == ""
    assert err == f"usage error: unrecognized arguments for {argv[0]}: {flag} 4\n"


# Each argv spells a real flag by a prefix: --kind, --statement-variant, --max
# and the root's --format.  A prefix is not a flag.
FLAG_PREFIXES = {
    "cone-kind": ["cone", "--g", "5", "--d", "3", "--k", "nef"],
    "class-statement-variant": ["class", "ramification", "--g", "4", "--d", "3", "--stat"],
    "verify-max": ["verify", "--suite", "combsum", "--ma", "5"],
    "root-format": ["--form", "json", "cone", "--g", "5", "--d", "3"],
}


def _outcome(argv):
    """Exit code, stdout and stderr of ``main(argv)``; a refusal raises no ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_refused_in_one_error_line(out, err):
    # stderr is exactly one line, the one that says what is wrong, in at most 400 bytes
    assert out == "" and "Traceback" not in err
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert err.startswith(("usage error: ", "error: ")), err
    assert len(err.encode(errors="backslashreplace")) <= 400, err[:500]


def _assert_cut_from(err, line):
    """``err`` is ``line`` on one line, whole if it fits in 400 bytes, else its
    start and end around a count of the characters left out between them."""
    if len(line.encode()) < 400:
        assert err == line + "\n"
        return
    head, left_out, tail = re.fullmatch(r"(.*?)\[\.\.\. (\d+) characters left out \.\.\.\](.*)\n", err).groups()
    assert line.startswith(head) and line.endswith(tail)
    assert len(head) + int(left_out) + len(tail) == len(line)
    assert len(err.encode()) <= 400


_T_TOO_LARGE = "its numerator or denominator exceeds 2^100000"

# Refusals that echo a long argument, each with its exit code and the line it
# would print whole; an expression with spaces is cut like one without.
LONG_REFUSALS = {
    "volume-t": (
        ["volume", "--g", "5", "--d", "4", "--t=" + "9" * 100_000],
        2,
        f"usage error: argument --t: not an exact rational: '{'9' * 100_000}' ({_T_TOO_LARGE})",
    ),
    "cone-g": (
        ["cone", "--g", "9" * 100_000, "--d", "3"],
        2,
        f"usage error: argument --g: invalid int value: '{'9' * 100_000}'",
    ),
    "intersect-spaced": (
        ["intersect", "theta %" + " x" * 50_000, "--g", "4", "--d", "3"],
        2,
        f"usage error: cannot tokenize expression at: '%{' x' * 50_000}'",
    ),
    "cone-d": (
        ["cone", "--g", "4", "--d", "9" * 4000],
        3,
        f"error: nonhyperelliptic cone needs g >= 4 and 2 <= d <= g-1 (got g=4, d={'9' * 4000})",
    ),
    "verify-max": (
        ["verify", "--max", "9" * 4000],
        3,
        f"error: --max must be at most 100 for suite 'all' (got {'9' * 4000})",
    ),
}


@pytest.mark.parametrize("argv, code, line", LONG_REFUSALS.values(), ids=LONG_REFUSALS)
def test_a_long_refusal_is_cut_to_one_line_of_400_bytes(argv, code, line):
    assert len(line.encode()) > 400
    refused, out, err = _outcome(argv)
    assert refused == code
    _assert_refused_in_one_error_line(out, err)
    _assert_cut_from(err, line)


def test_a_cut_refusal_keeps_its_start_and_its_reason():
    err = _outcome(LONG_REFUSALS["volume-t"][0])[2]
    assert err.startswith("usage error: argument --t: not an exact rational: '999")
    assert err.endswith(f"999' ({_T_TOO_LARGE})\n")


def test_a_cut_refusal_line_counts_bytes_not_characters():
    # each 'é' takes two bytes in UTF-8, so the line is cut at 400 bytes, not 400 characters
    code, out, err = _outcome(["intersect", "theta %" + "é" * 300, "--g", "4", "--d", "3"])
    assert code == 2
    _assert_refused_in_one_error_line(out, err)
    _assert_cut_from(err, f"usage error: cannot tokenize expression at: '%{'é' * 300}'")


# One argv each subcommand answers
ANSWERED = {
    "class": ["class", "ramification", "--g", "4", "--d", "3"],
    "intersect": ["intersect", "theta^3", "--g", "4", "--d", "3"],
    "cone": ["cone", "--g", "5", "--d", "3"],
    "volume": ["volume", "--g", "5", "--d", "4", "--t", "1/2"],
    "verify": ["verify", "--suite", "combsum", "--max", "5"],
}


@pytest.mark.parametrize("argv", ANSWERED.values(), ids=ANSWERED)
def test_an_unknown_flag_is_refused_in_the_name_of_its_subcommand(argv):
    assert _outcome(argv)[0] == 0
    # after the subcommand, and before it, where the root parser collects it
    for refused in ([*argv, "--zz", "1"], ["--zz", *argv]):
        code, out, err = _outcome(refused)
        assert code == 2
        _assert_refused_in_one_error_line(out, err)
        assert err.startswith(f"usage error: unrecognized arguments for {argv[0]}: --zz"), err


# The flags each call of a subcommand needs, which argparse requires
FIXED_FLAGS = {"intersect": "gd", "cone": "gd", "volume": "gdt"}


@pytest.mark.parametrize("command, flag", [(command, flag) for command, flags in FIXED_FLAGS.items() for flag in flags])
def test_a_missing_fixed_flag_is_refused_by_argparse(command, flag):
    argv = ANSWERED[command]
    at = argv.index(f"--{flag}")
    code, out, err = _outcome(argv[:at] + argv[at + 2 :])
    assert code == 2
    _assert_refused_in_one_error_line(out, err)
    assert err == f"usage error: the following arguments are required: --{flag}\n"


@pytest.mark.parametrize("argv", FLAG_PREFIXES.values(), ids=FLAG_PREFIXES)
def test_a_prefix_of_a_flag_is_a_usage_error(argv):
    code, out, err = _outcome(argv)
    assert code == 2
    _assert_refused_in_one_error_line(out, err)
    assert "unrecognized arguments" in err or "invalid choice: 'json'" in err


# What argparse refuses, each as main's one usage-error line and exit 2 (with
# the abbreviated flags, unknown class names and malformed --t tested above).
ARGPARSE_REFUSALS = {
    "bad-choice": (["cone", "--g", "5", "--d", "3", "--kind", "foo"], "argument --kind: invalid choice: 'foo'"),
    "no-subcommand": ([], "the following arguments are required: command"),
    "root-flag-only": (["--format", "json"], "the following arguments are required: command"),
    "unknown-subcommand": (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    "missing-expression": (["intersect", "--g", "4", "--d", "3"], "the following arguments are required: expression"),
    # argparse reads a word that starts with "-" as a flag; the README puts such an expression after "--"
    "expression-with-a-leading-minus": (
        ["intersect", "-theta^3", "--g", "5", "--d", "3"],
        "the following arguments are required: expression",
    ),
    "volume-without-flags": (["volume"], "the following arguments are required: --g, --d, --t"),
    # parsed under CPython's digit cap, which main lifts only to run a command
    "cone-genus-of-5000-digits": (["cone", "--g", "1" * 5000, "--d", "3"], "argument --g: invalid int value"),
    "class-degree-of-5000-digits": (
        ["class", "ramification", "--g", "4", "--d", "9" * 5000],
        "argument --d: invalid int value",
    ),
    "verify-max-of-5000-digits": (["verify", "--max", "-" + "9" * 5000], "argument --max: invalid int value"),
}


@pytest.mark.parametrize("argv, message", ARGPARSE_REFUSALS.values(), ids=ARGPARSE_REFUSALS)
def test_argparse_refusals_are_one_usage_error_line(argv, message):
    code, out, err = _outcome(argv)
    assert code == 2
    _assert_refused_in_one_error_line(out, err)
    assert err.startswith(f"usage error: {message}"), err


# Each help text as printed at 80 columns when every call built all six
# parsers; CPython 3.10-3.13 print the same bytes.
HELP_TEXTS = json.loads((Path(__file__).resolve().parent / "help_texts.json").read_text())


@pytest.mark.parametrize("argv", HELP_TEXTS)
def test_help_still_exits_zero(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(argv.split())
    assert excinfo.value.code == 0
    assert capsys.readouterr() == (HELP_TEXTS[argv], "")


# The same texts at 40 and 200 columns.  CPython 3.13 wraps the root usage
# line differently at 40 columns, so that one text has a variant of its own.
HELP_TEXTS_BY_WIDTH = json.loads((Path(__file__).resolve().parent / "help_texts_by_width.json").read_text())


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("argv", HELP_TEXTS)
def test_help_texts_follow_the_terminal_width(monkeypatch, capsys, argv, columns):
    expected = HELP_TEXTS_BY_WIDTH[columns][argv]
    if sys.version_info >= (3, 13):
        expected = HELP_TEXTS_BY_WIDTH.get(f"{columns} since Python 3.13", {}).get(argv, expected)
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as excinfo:
        main(argv.split())
    assert excinfo.value.code == 0
    assert capsys.readouterr() == (expected, "")


def _count_calls(monkeypatch, owner, name):
    """A list that grows by one at each call of ``owner.name`` until the test ends."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["class", "ramification", "--g", "4", "--d", "3"],
        ["class", "subordinate", "--g", "6", "--d", "4", "--n", "6", "--r", "1"],
        ["class", "small-diagonal", "--g", "4", "--d", "3"],
    ],
    ids=["codim-1", "codim-3", "codim-2"],
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_class_document_builds_no_fraction(monkeypatch, capsys, argv, fmt):
    # Each read of ``coeffs`` builds every Fraction; the document's texts are written from the integers.
    builds = []
    real = CycleClass.coeffs.fget

    def counted(cls):
        builds.append(None)
        return real(cls)

    def refused(*args):
        raise AssertionError("a class document should build no Fraction")

    monkeypatch.setattr(CycleClass, "coeffs", property(counted))
    monkeypatch.setattr(fractions, "Fraction", refused)
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert builds == []
    monkeypatch.undo()
    assert run_cli(capsys, *argv, "--format", fmt) == (0, out, "")


@pytest.fixture
def cleared_declarations():
    """Each subcommand's declarations dropped, so that the test's first call of it builds them."""
    from symcd import cli

    cli._declared.cache_clear()


# argparse reads the terminal size for each formatter it builds, one per
# add_argument, unless the parser's formatter is given a width; the declarations
# are built too, at the first call of a subcommand.
@pytest.mark.parametrize(
    "argv",
    [*ANSWERED.values(), ["--help"], ["volume", "--help"], ["--version"]],
    ids=[*ANSWERED, "help", "volume-help", "version"],
)
def test_a_call_reads_the_terminal_size_at_most_once_per_parser_it_builds(monkeypatch, cleared_declarations, argv):
    import shutil

    from symcd import cli

    built = _count_calls(monkeypatch, cli._Parser, "__init__")
    reads = _count_calls(monkeypatch, shutil, "get_terminal_size")
    with contextlib.suppress(SystemExit):
        _outcome(argv)
    assert built and len(reads) <= len(built)


@pytest.mark.parametrize("argv", ANSWERED.values(), ids=ANSWERED)
def test_a_repeated_call_declares_the_roots_three_arguments_only(monkeypatch, argv):
    import argparse

    assert _outcome(argv)[0] == 0
    declared = _count_calls(monkeypatch, argparse.ArgumentParser, "add_argument")
    assert _outcome(argv)[0] == 0
    assert len(declared) == 3  # -h, --version and --format; the subcommand's were declared at the first call


# argparse formats the root's usage line to name the subcommands' prog, unless it is given.
@pytest.mark.parametrize("argv", ANSWERED.values(), ids=ANSWERED)
def test_an_answered_call_formats_no_usage_line(monkeypatch, argv):
    import argparse

    usages = _count_calls(monkeypatch, argparse.HelpFormatter, "add_usage")
    assert _outcome(argv)[0] == 0
    assert usages == []


@pytest.mark.parametrize(
    ("argv", "built"),
    [
        *[(argv, ["symcd", f"symcd {command}"]) for command, argv in ANSWERED.items()],
        (["cone", "--help"], ["symcd", "symcd cone"]),
        (["--help"], ["symcd"]),
        (["--version"], ["symcd"]),
    ],
    ids=[*ANSWERED, "cone-help", "help", "version"],
)
def test_a_call_builds_the_root_parser_and_its_own_only(monkeypatch, argv, built):
    from symcd import cli

    progs = []
    init = cli._Parser.__init__

    def spy(self, **kwargs):
        progs.append(kwargs["prog"])
        init(self, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    with contextlib.suppress(SystemExit):
        _outcome(argv)
    assert progs == built


# --------------------------------------------------------------------------
# an answer that cannot be written exits 5, with one line on stderr


class _RefusingStdout(io.StringIO):
    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize(
    "stdout, reason",
    [
        (_RefusingStdout(BrokenPipeError(errno.EPIPE, "Broken pipe")), "[Errno 32] Broken pipe"),
        (_RefusingStdout(OSError(errno.ENOSPC, "No space left on device")), "[Errno 28] No space left on device"),
        (None, "standard output is closed"),
    ],
    ids=["broken-pipe", "disk-full", "closed"],
)
def test_an_answer_that_cannot_be_written_exits_five(stdout, reason):
    err = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(["cone", "--g", "6", "--d", "5"])
        replaced = sys.stdout
    replaced.close()
    assert code == 5
    assert err.getvalue() == f"error: the answer could not be written: {reason}\n"
    # so that the flush at exit writes nowhere rather than failing again
    assert replaced.name == os.devnull


# one refusal of each code a handler or argparse finds, with that code
_REFUSED = {
    "precondition": (["intersect", "theta^9", "--g", "4", "--d", "3"], 3),
    "usage": (["bogus"], 2),
    "out-of-domain": (["volume", "--g", "5", "--d", "4", "--t", "9"], 4),
}


@pytest.mark.parametrize(
    "stderr",
    [
        _RefusingStdout(OSError(errno.ENOSPC, "No space left on device")),
        _RefusingStdout(BrokenPipeError(errno.EPIPE, "Broken pipe")),
        None,
    ],
    ids=["disk-full", "broken-pipe", "closed"],
)
@pytest.mark.parametrize("argv, expected", _REFUSED.values(), ids=_REFUSED)
def test_a_refusal_that_cannot_be_written_keeps_its_exit_code(stderr, argv, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stderr):
        code = main(argv)
        replaced = sys.stderr
    replaced.close()
    assert code == expected
    assert out.getvalue() == ""  # a closed stderr does not send the line where an answer goes
    assert replaced.name == os.devnull


@pytest.mark.parametrize(
    "stdout, reason",
    [
        (_RefusingStdout(OSError(errno.ENOSPC, "No space left on device")), "[Errno 28] No space left on device"),
        (None, "standard output is closed"),
    ],
    ids=["disk-full", "closed"],
)
@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["volume", "--help"]], ids=" ".join)
def test_help_or_version_text_that_cannot_be_written_exits_five(stdout, reason, argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(argv)
        replaced = sys.stdout
    replaced.close()
    assert code == 5
    assert err.getvalue() == f"error: the answer could not be written: {reason}\n"
    assert replaced.name == os.devnull


def _cli_env():
    """The environment of a fresh interpreter that imports this checkout's ``symcd``."""
    src = str(Path(symcd.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _cli_process(argv, stderr=subprocess.PIPE, **kwargs):
    command = [sys.executable, "-m", "symcd.cli", *argv]
    return subprocess.Popen(command, env=_cli_env(), stderr=stderr, **kwargs)


@pytest.mark.parametrize(
    "argv", [ANSWERED["intersect"], _REFUSED["precondition"][0], ["--help"]], ids=["answer", "refusal", "help"]
)
def test_main_never_freezes_the_collector(capsys, argv):
    # In process, each call's argparse parsers are cyclic garbage the collector must still reach.
    frozen = gc.get_freeze_count()
    with contextlib.suppress(SystemExit):
        main(argv)
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("argv", [ANSWERED["intersect"], ["--help"]], ids=["answer", "help"])
def test_the_process_entry_freezes_the_collector_before_exit(argv):
    # An atexit hook runs after ``run`` returns or raises SystemExit, and before the exit-time collections.
    code = (
        "import atexit, gc, sys\n"
        "from symcd import cli\n"
        "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        f"sys.argv = ['symcd', *{argv!r}]\n"
        "sys.exit(cli.run())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_cli_env(), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "frozen: True\n")
    assert ("\nvalue: 24\n" if argv == ANSWERED["intersect"] else "usage: symcd") in done.stdout


def test_a_profiled_call_still_prints_its_profile():
    # The interpreter shuts down as usual after ``run``: a hard exit would lose cProfile's report.
    command = [sys.executable, "-m", "cProfile", "-m", "symcd.cli", *ANSWERED["intersect"]]
    done = subprocess.run(command, env=_cli_env(), capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert "\nvalue: 24\n" in done.stdout
    assert "function calls" in done.stdout


def test_a_reader_that_stops_early_gets_exit_five_and_one_line():
    # 2.5 MB of output, far more than a pipe holds, so the writer meets the closed end.
    argv = ["class", "subordinate", "--g", "2", "--d", "1000", "--n", "1000", "--r", "0"]
    with _cli_process(argv, stdout=subprocess.PIPE) as process:
        assert len(process.stdout.read(10)) == 10
        process.stdout.close()
        err = process.stderr.read().decode()
        assert process.wait(timeout=60) == 5
    assert err == "error: the answer could not be written: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_an_answer_written_to_a_full_device_gets_exit_five_and_one_line():
    with open("/dev/full", "wb") as full, _cli_process(["cone", "--g", "6", "--d", "5"], stdout=full) as process:
        err = process.stderr.read().decode()
        assert process.wait(timeout=60) == 5
    assert err == "error: the answer could not be written: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["cone", "--help"]], ids=" ".join)
def test_help_or_version_written_to_a_full_device_gets_exit_five_and_one_line(argv):
    with open("/dev/full", "wb") as full, _cli_process(argv, stdout=full) as process:
        err = process.stderr.read().decode()
        assert process.wait(timeout=60) == 5
    assert err == "error: the answer could not be written: [Errno 28] No space left on device\n"


@pytest.mark.parametrize(
    "argv", [["--version"], ["--help"], ["cone", "--d", "3"], ["cone", "--g", "6", "--d", "5"]], ids=" ".join
)
def test_a_closed_stdout_gets_exit_five_and_one_line(argv):
    # Everything bound for stdout exits 5; a refusal goes to stderr, which stays open.
    with _cli_process(argv, stdout=subprocess.DEVNULL, preexec_fn=functools.partial(os.close, 1)) as process:
        err = process.stderr.read().decode()
        code = process.wait(timeout=60)
    if argv == ["cone", "--d", "3"]:
        assert code == 2
        assert err == "usage error: the following arguments are required: --g\n"
    else:
        assert code == 5
        assert err == "error: the answer could not be written: standard output is closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv, expected", _REFUSED.values(), ids=_REFUSED)
def test_a_refusal_with_stderr_on_a_full_device_keeps_its_exit_code(argv, expected):
    with open("/dev/full", "wb") as full, _cli_process(argv, stdout=subprocess.PIPE, stderr=full) as process:
        out = process.stdout.read()
        assert process.wait(timeout=60) == expected
    assert out == b""


@pytest.mark.parametrize("argv, expected", _REFUSED.values(), ids=_REFUSED)
def test_a_refusal_with_stderr_closed_leaves_stdout_empty(argv, expected):
    with _cli_process(argv, stdout=subprocess.PIPE, preexec_fn=functools.partial(os.close, 2)) as process:
        out = process.stdout.read()
        assert process.wait(timeout=60) == expected
    assert out == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_an_answer_with_both_streams_on_a_full_device_gets_exit_five():
    with open("/dev/full", "wb") as full:
        with _cli_process(["cone", "--g", "6", "--d", "5"], stdout=full, stderr=full) as process:
            assert process.wait(timeout=60) == 5


def test_volume_general(capsys):
    code, doc, _ = run_json(capsys, "volume", "--g", "4", "--d", "3", "--curve", "general", "--t", "1")
    assert code == 0
    assert doc["result"]["value"] == "1"
    code, doc, _ = run_json(capsys, "volume", "--g", "4", "--d", "3", "--curve", "general", "--t", "1/2")
    assert code == 0
    assert doc["result"]["value"] == "73/8"


def test_volume_hyperelliptic(capsys):
    code, doc, _ = run_json(
        capsys, "volume", "--g", "5", "--d", "4", "--curve", "hyperelliptic", "--t", "1"
    )
    assert code == 0
    assert doc["result"]["value"] == "15/2"


def test_volume_out_of_domain_exits_four(capsys):
    code, out, err = run_cli(capsys, "volume", "--g", "4", "--d", "3", "--curve", "general", "--t", "3")
    assert code == 4
    assert "[0, 12/11]" in err


def test_volume_wrong_power_is_precondition(capsys):
    code, out, err = run_cli(capsys, "volume", "--g", "4", "--d", "2", "--curve", "general", "--t", "1")
    assert code == 3


def test_volume_prints_numbers_beyond_the_int_str_digit_limit(capsys):
    # t = 10^-50 at g = 100 gives a denominator of about 4,950 digits, past
    # Python's default 4,300-digit cap on int-to-str conversion.
    t = "1/1" + "0" * 50
    limit = sys.get_int_max_str_digits()
    code, doc, err = run_json(capsys, "volume", "--g", "100", "--d", "99", "--t", t)
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit  # the cap is restored
    with _uncapped():
        expected = str(volume_general(100, Fraction(t)))
    assert len(expected) > limit
    assert doc["result"]["value"] == expected


def test_concurrent_calls_each_run_with_the_digit_cap_lifted(capsys, monkeypatch):
    """The cap is one setting of the process.  Call B enters, call A enters,
    then B leaves: had B put the cap back, A would run under it.  The calls
    take turns instead, so A enters only after B has left (B's wait for A
    times out), and each reads the cap lifted."""
    b_inside, a_inside, b_done = threading.Event(), threading.Event(), threading.Event()
    seen, codes = {}, {}

    def volume_general(g, t, original=cones.volume_general):
        call = threading.current_thread().name
        if call == "B":
            b_inside.set()
            a_inside.wait(0.5)
        else:
            a_inside.set()
            b_done.wait(0.5)
        seen[call] = sys.get_int_max_str_digits()
        return original(g, t)

    def run():
        codes[threading.current_thread().name] = main(["volume", "--g", "5", "--d", "4", "--t", "1/2"])

    monkeypatch.setattr(cones, "volume_general", volume_general)
    limit = sys.get_int_max_str_digits()
    b, a = threading.Thread(target=run, name="B"), threading.Thread(target=run, name="A")
    b.start()
    b_inside.wait(0.5)
    a.start()
    b.join()
    b_done.set()
    a.join()
    assert capsys.readouterr().out.count("value: 501/16") == 2
    assert codes == {"A": 0, "B": 0}
    assert seen == {"A": 0, "B": 0}
    assert sys.get_int_max_str_digits() == limit


def test_concurrent_calls_under_a_short_switch_interval_all_answer(capsys):
    # Three threads print volumes of about 4,950 digits while a fourth runs cone calls;
    # a call that ran under another's restored cap raised ValueError out of main.
    t = "1/1" + "0" * 50
    codes = []

    def run(argv, times):
        for _ in range(times):
            try:
                codes.append(main(argv))
            except ValueError as exc:
                codes.append(str(exc)[:60])

    volume, cone = ["volume", "--g", "100", "--d", "99", "--t", t], ["cone", "--g", "4", "--d", "3"]
    threads = [threading.Thread(target=run, args=(volume, 25)) for _ in range(3)]
    threads.append(threading.Thread(target=run, args=(cone, 150)))
    limit, interval = sys.get_int_max_str_digits(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    capsys.readouterr()
    assert codes == [0] * 225
    assert sys.get_int_max_str_digits() == limit


def test_concurrent_first_calls_answer_as_serial_calls_do(monkeypatch, cleared_declarations):
    # Threads that start with no declarations built race to build them, and then
    # share their Action objects; each answer must be the one a serial call writes.
    from symcd import cli

    written = {}
    monkeypatch.setattr(cli, "_write", lambda text, stream="stdout": written.setdefault(stream, []).append(text))
    argvs = [ANSWERED["intersect"], ANSWERED["class"], ["intersect", "(theta-x)^5*ramification", "--g", "9", "--d", "6"]]
    serial = []
    for argv in argvs:
        assert main(argv) == 0
        (answer,) = written.pop("stdout")
        serial.append(answer)
    assert written == {}
    cli._declared.cache_clear()
    answers = {}

    def run(argv):
        answers[threading.current_thread().name] = [main(argv) for _ in range(20)]

    threads = [threading.Thread(target=run, args=(argv,), name=str(i)) for i, argv in enumerate(argvs * 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == {str(i): [0] * 20 for i in range(len(threads))}
    assert sorted(written) == ["stdout"]
    assert sorted(written["stdout"]) == sorted(serial * 40)


def test_volume_at_genus_3000_answers_quickly(capsys):
    start = time.perf_counter()
    code, doc, err = run_json(capsys, "volume", "--g", "3000", "--d", "2999", "--t", "1/2")
    assert time.perf_counter() - start < 2
    assert code == 0, err
    assert doc["result"]["value"].endswith("/" + str(2**2999))


@pytest.mark.parametrize("curve, d", [("general", 4999), ("hyperelliptic", 2500)])
def test_volume_answers_at_the_genus_cap(capsys, curve, d):
    code, doc, err = run_json(capsys, "volume", "--curve", curve, "--g", "5000", "--d", str(d), "--t", "1/2")
    assert code == 0, err
    assert doc["inputs"]["g"] == 5000


@pytest.mark.parametrize("curve, d", [("general", 5000), ("hyperelliptic", 2500)])
def test_volume_refuses_a_genus_past_the_cap(capsys, curve, d):
    code, out, err = run_cli(capsys, "volume", "--curve", curve, "--g", "5001", "--d", str(d), "--t", "1/2")
    assert code == 2
    assert out == ""
    assert "at most 5000" in err
    _assert_one_line(err)


def test_volume_refuses_a_genus_below_minus_the_cap_as_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "volume", "--g", "-5001", "--d", "4", "--t", "1/2")
    assert code == 2
    _assert_refused_in_one_error_line(out, err)
    assert err == "usage error: --g -5001 is too large for volume: at most 5000 in absolute value\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--curve", "hyperelliptic", "--g", "4", "--d", "20000", "--t", "1/2"), "needs 2 <= d <= g"),
        (("--curve", "hyperelliptic", "--g", "4", "--d", "100", "--t", "1/2"), "needs 2 <= d <= g"),
        (("--curve", "hyperelliptic", "--g", "5000", "--d", "5001", "--t", f"1/{2**100}"), "needs 2 <= d <= g"),
        (("--g", "5000", "--d", "3", "--t", f"1/{2**100}"), "applies on C_(g-1)"),
        (("--g", "5000", "--d", "3", "--t", "1/2"), "applies on C_(g-1)"),
    ],
)
def test_volume_refuses_a_wrong_d_whatever_t_is(capsys, argv, message):
    code, out, err = run_cli(capsys, "volume", *argv)
    assert code == 3
    assert out == ""
    assert message in err
    _assert_one_line(err)


with _uncapped():
    _T_WITH_A_LONG_DENOMINATOR = f"1/{2**60000}"


# The limit refuses a genus off the general domain before the size of t is judged.
@pytest.mark.parametrize("t", ["1/2", _T_WITH_A_LONG_DENOMINATOR], ids=["short-t", "long-t"])
def test_volume_refuses_a_genus_off_the_domain_whatever_t_is(capsys, t):
    code, out, err = run_cli(capsys, "volume", "--g", "3", "--d", "2", "--t", t)
    assert code == 3
    assert out == ""
    assert err == "error: general volume needs g >= 4 and 2 <= d <= g-1 (got g=3, d=2)\n"


LONG_T = "123456789012345678901/123456789012345678902"


@pytest.mark.parametrize(
    "argv",
    [
        ("--g", "5000", "--d", "4999", "--t", LONG_T),
        ("--g", "5000", "--d", "4999", "--t", f"1/{2**21}"),
        ("--curve", "hyperelliptic", "--g", "5000", "--d", "2500", "--t", f"1/{2**40}"),
    ],
)
def test_volume_refuses_a_t_whose_denominator_is_too_long(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "volume", *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "denominator would exceed 2^100000" in err
    _assert_one_line(err)


@pytest.mark.parametrize(
    "argv",
    [
        # (g-1) * (bit length of q - 1) = 4999 * 20, just within 100000
        ("--g", "5000", "--d", "4999", "--t", f"{2**21 - 2}/{2**21 - 1}"),
        # d * (bit length of (g-d+1) q - 1) = 2500 * 37
        ("--curve", "hyperelliptic", "--g", "5000", "--d", "2500", "--t", f"1/{2**26}"),
    ],
)
def test_volume_answers_a_long_t_within_the_bound(capsys, argv):
    start = time.perf_counter()
    code, doc, err = run_json(capsys, "volume", *argv)
    assert time.perf_counter() - start < 2
    assert code == 0, err
    assert doc["inputs"]["t"] == argv[-1]


def test_volume_answers_a_t_past_the_int_str_digit_limit(capsys):
    # 4,400 and 4,401 digits, past CPython's 4,300-digit cap on str-to-int, within 2^100000
    p, q = (10**4400 - 1) // 9, (10**4401 - 1) // 3
    with _uncapped():
        t = f"{p}/{q}"
    limit = sys.get_int_max_str_digits()
    code, doc, err = run_json(capsys, "volume", "--g", "4", "--d", "3", "--t", t)
    assert code == 0, err[:300]
    assert sys.get_int_max_str_digits() == limit
    with _uncapped():
        assert doc["result"]["value"] == str(volume_general(4, Fraction(p, q)))


with _uncapped():
    _BOUND = str(1 << 100_000)
    _PAST_THE_BOUND = str((1 << 100_000) + 1)


# A --t integer within 2^100000 is read whatever its length, and then lies
# outside the proven interval; one past it is refused, by its digit count
# before it is converted when it has more digits than 2^100000 (30,103).
@pytest.mark.parametrize(
    ("t", "code"),
    [
        ("9" * 5000, 4),
        (_BOUND, 4),
        ("-" + "0" * 40_000 + "7", 4),
        (_PAST_THE_BOUND, 2),
        ("9" * 30_103, 2),
        ("1" * 30_104, 2),
        ("1/" + "9" * 10**6, 2),
        ("9" * 10**6 + "/2", 2),
    ],
    ids=["5000-digits", "the-bound", "zero-padded", "past-the-bound", "30103-nines", "30104-ones", "long-q", "long-p"],
)
def test_volume_reads_a_t_up_to_the_bound_and_refuses_one_past_it(t, code):
    start = time.perf_counter()
    refused, out, err = _outcome(["volume", "--g", "5", "--d", "4", f"--t={t}"])
    assert time.perf_counter() - start < 1
    assert refused == code
    _assert_refused_in_one_error_line(out, err)
    if code == 2:
        assert err.endswith(f"({_T_TOO_LARGE})\n"), err
    else:
        assert err.startswith("error: t=") and err.endswith(" is outside the proven interval [0, 20/19] for genus 5\n")


def test_version_names_the_package_and_python(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    version = sys.version.split()[0]
    assert capsys.readouterr().out == f"symcd 0.1.0 (Python {version})\n"


def test_volume_malformed_t_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "volume", "--g", "4", "--d", "3", "--curve", "general", "--t", "one")
    assert code == 2
    _assert_refused_in_one_error_line(out, err)
    assert err.startswith("usage error: argument --t: not an exact rational: 'one'")


# Fraction itself accepts these; a short exponent form stands for a number of
# a million digits, which took 16 s to build and printed a 1 MB refusal.
@pytest.mark.parametrize("t", ["1e-1000000", "1e1000000", "1e3", "1.5", ".5", "1_000", "1/1_0", "1/2.0"])
def test_volume_t_other_than_an_integer_or_p_over_q_is_refused_at_once(capsys, t):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "volume", "--g", "5", "--d", "4", f"--t={t}")
    assert time.perf_counter() - start < 1
    assert code == 2
    _assert_refused_in_one_error_line(out, err)
    assert len(err.encode()) < 200
    assert err.startswith(f"usage error: argument --t: not an exact rational: {t!r}")


@pytest.mark.parametrize(("t", "shown"), [("3", "3"), ("-1/2", "-1/2"), ("+1/2", "1/2"), (" 2/4 ", "1/2")])
def test_volume_takes_an_integer_or_p_over_q_with_sign_and_spaces(capsys, t, shown):
    code, doc, err = run_json(capsys, "volume", "--g", "5", "--d", "4", f"--t={t}")
    assert code in (0, 4), err
    if code == 0:
        assert doc["inputs"]["t"] == shown


# A signed p/q after --t is its value, as a signed integer always was; a word
# of another form that starts with "-" is still read as a flag.
@pytest.mark.parametrize(
    ("t", "code", "line"),
    [
        ("-1/2", 4, "error: t=-1/2 is outside the proven interval [0, 20/19] for genus 5\n"),
        ("-1", 4, "error: t=-1 is outside the proven interval [0, 20/19] for genus 5\n"),
        ("-1/2/3", 2, "usage error: argument --t: expected one argument\n"),
        ("-1/", 2, "usage error: argument --t: expected one argument\n"),
    ],
)
def test_volume_reads_a_signed_t_given_as_the_next_word(t, code, line):
    assert _outcome(["volume", "--g", "5", "--d", "4", "--t", t]) == (code, "", line)


@pytest.mark.parametrize("t", ["-0/3", "-0"])
def test_volume_reads_minus_zero_over_q_as_zero(capsys, t):
    code, doc, err = run_json(capsys, "volume", "--g", "5", "--d", "4", "--t", t)
    assert code == 0, err
    assert (doc["inputs"]["t"], doc["result"]["value"]) == ("0", "120")


def test_verify_all_passes(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "all", "--max", "6")
    assert code == 0
    assert doc["result"]["all_passed"] is True
    assert doc["result"]["failures"] == 0
    statuses = {entry["name"]: entry["status"] for entry in doc["result"]["reports"]}
    assert statuses["bipartition-diagonal-statement-variant"] == "documented-discrepancy"
    _assert_no_floats(doc)


def test_verify_single_suite(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "combsum", "--max", "5")
    assert code == 0
    assert len(doc["result"]["reports"]) == 1
    assert doc["result"]["reports"][0]["status"] == "pass"


def test_verify_all_clamps_the_diagonal_and_link_sweeps(capsys):
    code, doc, _ = run_json(capsys, "verify", "--suite", "all", "--max", "51")
    assert code == 0
    ranges = [(entry["name"], entry["parameter_range"]) for entry in doc["result"]["reports"]]
    assert ranges == [
        ("binomial-convolution-identity", "1 <= m <= 51"),
        ("pencil-residual-link", "3 <= k <= 50"),
        ("pencil-orthogonality", "2 <= k <= 51"),
        ("bipartition-diagonal-agreement", "3 <= g <= 12, 2 <= d <= g-1"),
        ("bipartition-diagonal-statement-variant", "(g, d) = (4, 3)"),
        ("ramification-test-curves", "4 <= g <= 51, 2 <= d <= g-1"),
        ("volume-polynomial-identity", "4 <= g <= 51"),
    ]


SUITE_MINIMUMS = {
    "all": 4,
    "combsum": 1,
    "pencil-link": 3,
    "orth": 2,
    "diagonal": 4,
    "dd-system": 4,
    "volume": 4,
}


def test_suite_minimums_cover_the_runner_table():
    from symcd import verify

    assert SUITE_MINIMUMS == {"all": 4, **{name: row.minimum for name, row in verify.SUITES.items()}}


@pytest.mark.parametrize("suite", sorted(SUITE_MINIMUMS))
def test_verify_max_below_suite_minimum_is_refused(capsys, suite):
    for bound in (SUITE_MINIMUMS[suite] - 1, 0, -5):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max", str(bound))
        assert code == 3, (suite, bound)
        assert out == ""
        assert err == f"error: --max must be at least {SUITE_MINIMUMS[suite]} for suite {suite!r} (got {bound})\n"
        _assert_one_line(err)


@pytest.mark.parametrize("suite", sorted(SUITE_MINIMUMS))
def test_verify_max_at_suite_minimum_runs(capsys, suite):
    code, doc, _ = run_json(capsys, "verify", "--suite", suite, "--max", str(SUITE_MINIMUMS[suite]))
    assert code == 0
    assert doc["inputs"]["max"] == SUITE_MINIMUMS[suite]
    assert doc["result"]["all_passed"] is True


# The largest --max each suite accepts; under "all" the capped suites run at
# their caps, so the smallest uncapped maximum binds.
SUITE_MAXIMA = {
    "all": 100,
    "combsum": 1000,
    "pencil-link": 800,
    "orth": 500,
    "diagonal": 60,
    "dd-system": 140,
    "volume": 100,
}


def test_suite_maxima_cover_the_runner_table():
    from symcd import verify

    assert SUITE_MAXIMA == {"all": 100, **{name: row.maximum for name, row in verify.SUITES.items()}}
    # a suite's cap under "all" lies below its own maximum, so it never binds there
    assert all(row.cap is None or row.minimum <= row.cap < row.maximum for row in verify.SUITES.values())


@pytest.mark.parametrize("suite", sorted(SUITE_MAXIMA))
def test_verify_max_above_suite_maximum_is_refused(capsys, suite):
    for bound in (SUITE_MAXIMA[suite] + 1, 10**6, int("9" * 4000)):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max", str(bound))
        assert time.perf_counter() - started < 1, (suite, bound)
        assert code == 3, (suite, bound)
        assert out == ""
        # the 4,000-digit bound is echoed cut, in one line of at most 400 bytes
        _assert_cut_from(err, f"error: --max must be at most {SUITE_MAXIMA[suite]} for suite {suite!r} (got {bound})")
        _assert_one_line(err)


@pytest.mark.parametrize("suite", sorted(SUITE_MAXIMA))
def test_verify_max_at_suite_maximum_runs(capsys, suite):
    code, doc, _ = run_json(capsys, "verify", "--suite", suite, "--max", str(SUITE_MAXIMA[suite]))
    assert code == 0
    assert doc["inputs"]["max"] == SUITE_MAXIMA[suite]
    assert doc["result"]["all_passed"] is True


def test_json_output_is_deterministic_and_round_trips(capsys):
    code, out1, _ = run_cli(capsys, "class", "ramification", "--g", "4", "--d", "3", "--format", "json")
    code, out2, _ = run_cli(capsys, "class", "ramification", "--g", "4", "--d", "3", "--format", "json")
    assert out1 == out2
    doc = json.loads(out1)
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc


def test_format_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("SYMCD_FORMAT", "json")
    code, out, _ = run_cli(capsys, "class", "ramification", "--g", "4", "--d", "3")
    assert code == 0
    json.loads(out)  # parses as JSON
    # an explicit flag overrides the environment
    monkeypatch.setenv("SYMCD_FORMAT", "json")
    code, out, _ = run_cli(capsys, "class", "ramification", "--g", "4", "--d", "3", "--format", "text")
    assert out.startswith("command: class")


@pytest.mark.parametrize(
    "argv, text",
    [
        (
            ("class", "ramification", "--g", "4", "--d", "3"),
            """\
command: class
inputs: d=3, g=4, name=ramification
a: 10
b: 12
codimension: 1
coefficients:
  - 10
  - -12
genus: 4
monomials:
  - theta
  - x
pretty: 10*theta - 12*x
symmetric_power: 3
provenance: Gauss-map ramification divisor, solved from small-diagonal and moving-point test curves
""",
        ),
        (
            ("cone", "--g", "4", "--d", "3", "--kind", "nef"),
            """\
command: cone
inputs: curve=general, d=3, g=4, kind=nef
diagonal_nef_ray:
  pretty: -theta + 12*x
  theta: -1
  x: 12
gonality: 3
theta_boundary_ray: None
theta_minus_x_ample: False
provenance: -theta + dg*x is nef and big with augmented base locus the small diagonal (Pacienza)
provenance: theta - x is ample whenever no degree-d divisor moves in a pencil (d below the gonality)
""",
        ),
    ],
    ids=["lists", "nested-none-bool"],
)
def test_text_output_lays_out_every_shape_a_result_has(capsys, argv, text):
    # keys sorted, a nested dict indented under its key, a list one "- item" line each
    assert run_cli(capsys, *argv, "--format", "text") == (0, text, "")


def test_format_flag_before_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "class", "ramification", "--g", "4", "--d", "3")
    assert code == 0
    json.loads(out)


def test_text_verify_renders_one_line_per_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "diagonal", "--max", "5")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("PASS") for line in lines)
    assert any(line.startswith("DOCUMENTED-DISCREPANCY") for line in lines)


# --------------------------------------------------------------------------
# every argv of every subcommand ends in a documented exit code


def _integer_edges():
    """0, +-1, 2, each cap on an integer flag and each bound of ``--max``
    with its neighbours, their negatives, a 100-digit value, values of 4,300
    digits, the most CPython's int-from-str accepts, and of 4,301 digits,
    which argparse therefore refuses."""
    from symcd import cli, verify

    edges = {cap for flags in cli._FLAG_CAPS.values() for cap in flags.values()}
    for row in verify.SUITES.values():
        edges |= {row.minimum, row.maximum, *([row.cap] if row.cap else [])}
    values = {0, 1, 2, 10**100, *(edge + step for edge in edges for step in (-1, 0, 1))}
    longest = ("9" * 4300, "-" + "9" * 4300, "9" * 4301, "-" + "9" * 4301)
    return (*sorted(str(sign * value) for value in values for sign in (1, -1)), *longest)


_INTEGERS = _integer_edges()
_T_VALUES = ("0", "1", "-1", "1/2", "2", "2097150/2097151", "1/2097152", "1/0", "one", "9" * 4300, "1e-1000000", "1.5")
_CURVES = ("general", "hyperelliptic")
# The flags of each subcommand: None for a switch, else the values to draw.
_CLASS_INTEGERS = dict.fromkeys(("--g", "--d", "--n", "--r", "--k"), _INTEGERS)
_ARGV_FLAGS = {
    "class": {**_CLASS_INTEGERS, "--statement-variant": None},
    "intersect": _CLASS_INTEGERS,
    "cone": {"--g": _INTEGERS, "--d": _INTEGERS, "--curve": _CURVES, "--kind": ("effective", "nef")},
    "volume": {"--g": _INTEGERS, "--d": _INTEGERS, "--t": _T_VALUES, "--curve": _CURVES},
    "verify": {"--suite": tuple(SUITE_MINIMUMS), "--max": _INTEGERS},
}
_ROOT_FLAGS = {"--format": ("json", "text"), "--version": None}
# Expressions keep to unit coefficients: a power of a class whose coefficients
# have many bits is a known slow path (minutes at the caps).
_POSITIONAL = {
    "class": tuple(CLASS_FLAGS),
    "intersect": (
        "theta^3",
        "(theta - x)^1000",
        "smalldiag * theta",
        "ek",
        "c1d * theta^999",
        "subordinate * x",
        "ramification * theta^999",
        "1/0 * theta^3",
        "2^100001",
        "(" * 101 + "theta" + ")" * 101,
    ),
}


@st.composite
def _argv(draw):
    """An argv over one subcommand, and whether one of its flags is spelled
    by a proper prefix, which is then not a flag at all."""
    command = draw(st.sampled_from(sorted(_ARGV_FLAGS)))
    flags = {**_ARGV_FLAGS[command], "--format": _ROOT_FLAGS["--format"]}
    argv = [command, *([draw(st.sampled_from(_POSITIONAL[command]))] if command in _POSITIONAL else [])]
    for flag, values in sorted(flags.items()):
        if not draw(st.integers(0, 4)):  # each flag is given four times in five
            continue
        if values is None:
            argv.append(flag)
        elif values is _INTEGERS and draw(st.integers(0, 2)):  # and an integer is small twice in three
            argv += [flag, str(draw(st.integers(-1, 12)))]
        else:
            argv += [flag, draw(st.sampled_from(values))]
    if draw(st.booleans()):
        argv = ["--format", draw(st.sampled_from(_ROOT_FLAGS["--format"])), *argv]
    if draw(st.integers(0, 3)):
        return argv, False
    every = {**flags, **_ROOT_FLAGS}
    prefixes = [
        (flag[:end], values, at_root)
        for at_root, pool in ((False, flags), (True, _ROOT_FLAGS))
        for flag, values in pool.items()
        for end in range(3, len(flag))
        if flag[:end] not in every
    ]
    prefix, values, at_root = draw(st.sampled_from(prefixes))
    token = [prefix] if values is None else [prefix, draw(st.sampled_from(values))]
    return (token + argv if at_root else argv + token), True


@settings(max_examples=200, deadline=None)
@given(case=_argv())
def test_every_argv_ends_in_a_documented_exit_code(case):
    argv, abbreviated = case
    start = time.perf_counter()
    code, out, err = _outcome(argv)
    assert time.perf_counter() - start < 4, argv
    assert code in (0, 1, 2, 3, 4), (argv, err)
    assert "Traceback" not in err, argv
    if abbreviated:
        assert code == 2, argv
    if code in (2, 3, 4):
        _assert_refused_in_one_error_line(out, err)

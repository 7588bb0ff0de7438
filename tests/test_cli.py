import json
import sys
import time
from fractions import Fraction

import pytest

from symcd.cli import main
from symcd.cones import volume_general


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


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
    with pytest.raises(SystemExit) as excinfo:
        main(["class", "nonsense", "--g", "4"])
    assert excinfo.value.code == 2


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


def test_intersect_rational_scalars(capsys):
    code, doc, _ = run_json(capsys, "intersect", "(theta - 5/3 * x)^3", "--g", "5", "--d", "3")
    assert code == 0
    assert doc["result"]["value"] == "-80/27"


def test_intersect_codim_mismatch(capsys):
    code, out, err = run_cli(capsys, "intersect", "theta^2", "--g", "4", "--d", "3")
    assert code == 3
    assert "codimension" in err


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


def test_intersect_zero_denominator_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "intersect", "1/0 * theta^3", "--g", "4", "--d", "3")
    assert code == 2
    assert out == ""
    assert "1/0" in err
    _assert_one_line(err)


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
    ],
)
def test_intersect_scalar_powers_within_the_cap_answer(capsys, expression, value):
    start = time.perf_counter()
    code, doc, err = run_json(capsys, "intersect", expression, "--g", "4", "--d", "3")
    assert time.perf_counter() - start < 1
    assert code == 0, err
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert doc["result"]["value"] == str(value)
    finally:
        sys.set_int_max_str_digits(limit)


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
    sys.set_int_max_str_digits(0)
    try:
        expected = str(volume_general(100, Fraction(t)))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) > limit
    assert doc["result"]["value"] == expected


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


def test_version_names_the_package_and_python(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    version = sys.version.split()[0]
    assert capsys.readouterr().out == f"symcd 0.1.0 (Python {version})\n"


def test_volume_malformed_t_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["volume", "--g", "4", "--d", "3", "--curve", "general", "--t", "one"])
    assert excinfo.value.code == 2


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
        assert err == f"error: --max must be at most {SUITE_MAXIMA[suite]} for suite {suite!r} (got {bound})\n"
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

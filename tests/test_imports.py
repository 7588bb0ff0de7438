"""What each entry point loads, and the lazily re-exported package namespace.

The import checks run in fresh interpreters, since this test process has long
since imported every module.
"""

import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import symcd

SRC = str(Path(symcd.__file__).resolve().parents[1])

PUBLIC_NAMES = [
    "BivariateSeries",
    "gen_binomial",
    "as_rational",
    "CycleClass",
    "divisor_class",
    "evaluate_top",
    "multiply",
    "theta_class",
    "x_class",
    "TestCurveSolution",
    "binomial_convolution_identity",
    "bipartition_diagonal_class",
    "bipartition_diagonal_extraction",
    "hyperelliptic_pencil_locus_class",
    "pencil_residual_divisor_class",
    "pencil_residual_sums",
    "ramification_divisor_class",
    "small_diagonal_class",
    "solve_test_curve_system",
    "subordinate_class",
    "subordinate_pencil_intersections",
    "residuation_pullback",
    "Cone2D",
    "ConeStatus",
    "Membership",
    "NefFacts",
    "Ray",
    "effective_cone",
    "effective_slope_bound",
    "general_volume_limit",
    "hyperelliptic_volume_limit",
    "nef_facts",
    "volume_general",
    "volume_hyperelliptic",
    "volume_integrality",
    "OutOfProvenDomainError",
    "PreconditionError",
    "CheckReport",
    "CheckStatus",
    "all_passed",
    "run_all",
]


def _fresh(code: str, packages: tuple = ("symcd",)) -> list:
    """Run ``code`` in a fresh interpreter and return the sorted names of the
    modules it loaded from ``packages``."""
    script = (
        code
        + "\nimport json, sys"
        + f"\nwatched = {packages!r}"
        + "\nprint(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] in watched)))"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_loads_only_errors():
    assert _fresh("import symcd.cli") == ["symcd", "symcd.cli", "symcd.errors"]


def test_root_help_loads_no_verify():
    code = "from symcd.cli import main\ntry:\n    main(['--help'])\nexcept SystemExit as done:\n    assert not done.code"
    assert _fresh(code) == ["symcd", "symcd.cli", "symcd.errors"]


def test_residuation_lives_in_cones():
    assert symcd.residuation_pullback.__module__ == "symcd.cones"
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("symcd.residuation")


def test_importing_the_package_loads_no_submodule():
    assert _fresh("import symcd") == ["symcd"]


@pytest.mark.parametrize(
    "argv",
    [
        ["class", "ramification", "--g", "4", "--d", "3"],
        ["intersect", "smalldiag * ramification", "--g", "4", "--d", "3"],
    ],
)
def test_class_and_intersect_load_neither_verify_nor_cones(argv):
    loaded = _fresh(f"from symcd.cli import main\nassert main({argv!r}) == 0")
    assert "symcd.catalog" in loaded
    assert "symcd.verify" not in loaded
    assert "symcd.cones" not in loaded


@pytest.mark.parametrize("kind", ["effective", "nef"])
def test_cone_does_not_load_verify(kind):
    argv = ["cone", "--g", "4", "--d", "3", "--kind", kind]
    loaded = _fresh(f"from symcd.cli import main\nassert main({argv!r}) == 0")
    assert "symcd.cones" in loaded
    assert "symcd.verify" not in loaded


# One answered call of each subcommand.
ANSWERED_CALLS = [
    ["class", "ramification", "--g", "4", "--d", "3"],
    ["intersect", "smalldiag * ramification", "--g", "4", "--d", "3"],
    ["cone", "--g", "4", "--d", "3", "--curve", "hyperelliptic"],
    ["volume", "--g", "4", "--d", "3", "--t", "1/2"],
    ["verify", "--suite", "all", "--max", "4"],
]


@pytest.mark.parametrize("argv", ANSWERED_CALLS)
def test_no_subcommand_loads_dataclasses_or_inspect(argv):
    # typing and enum are left out: site may load them before any symcd code runs.
    code = f"from symcd.cli import main\nassert main({argv!r}) == 0"
    assert _fresh(code, ("dataclasses", "inspect")) == []


# combinatorics holds only the tests' references; the exact coercion lives in cycles.
@pytest.mark.parametrize("argv", ANSWERED_CALLS)
def test_no_subcommand_loads_combinatorics(argv):
    loaded = _fresh(f"from symcd.cli import main\nassert main({argv!r}) == 0")
    assert "symcd.cycles" in loaded
    assert "symcd.combinatorics" not in loaded


def test_as_rational_lives_in_cycles():
    from symcd import combinatorics, cycles

    assert symcd.as_rational.__module__ == "symcd.cycles"
    assert combinatorics.as_rational is cycles.as_rational is symcd.as_rational


def test_package_attribute_resolves_the_submodule():
    code = "import symcd, sys\nassert symcd.verify is sys.modules['symcd.verify']\nassert symcd.cli.main"
    assert "symcd.verify" in _fresh(code)


def test_star_import_binds_every_public_name():
    code = "from symcd import *\nimport symcd\nassert all(name in globals() for name in symcd.__all__)"
    _fresh(code)


# Wrappers and second homes of a fact, each deleted from the module it lived in.
DELETED_FROM_MODULES = {
    "factorial": "combinatorics",
    "inv_factorial": "combinatorics",
    "linear_power_coefficient": "combinatorics",
    "monomial_value": "cycles",
    "convolution_residual": "catalog",
    "DivisorClass": "cycles",
    "CurveContext": "cones",
    "CurveType": "cones",
}


def test_public_names_are_unchanged_without_the_deleted_aliases():
    assert symcd.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 41
    for deleted in (
        "Rational",
        "series_multiply",
        "apply_matrix",
        "residuation_inverse_pullback",
        "residuation_involution_matrix",
        "CheckLimits",
    ):
        assert deleted not in symcd.__all__
        with pytest.raises(AttributeError):
            getattr(symcd, deleted)


# Each submodule's __all__ is read from the package's table, so a submodule
# star-imported before anything else must still find the table and bind its names.
@pytest.mark.parametrize("module", sorted(symcd._EXPORTS))
def test_star_import_of_a_submodule_first_binds_its_public_names(module):
    kept_out_of_the_package = ["sweep", "check_orth"] if module == "verify" else []
    code = (
        f"from symcd.{module} import *\n"
        "import symcd\n"
        f"assert all(name in globals() for name in [*symcd._EXPORTS[{module!r}], *{kept_out_of_the_package!r}])"
    )
    assert f"symcd.{module}" in _fresh(code)


@pytest.mark.parametrize("name", sorted(DELETED_FROM_MODULES))
def test_deleted_second_homes_are_gone(name):
    module = importlib.import_module(f"symcd.{DELETED_FROM_MODULES[name]}")
    assert name not in symcd.__all__
    assert name not in dir(symcd)
    assert name not in module.__all__
    assert not hasattr(module, name)
    with pytest.raises(AttributeError):
        getattr(symcd, name)


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_the_object_of_its_defining_module(name):
    value = getattr(symcd, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("symcd.")
    assert getattr(home, name) is value


def test_cli_constructors_are_public_names_of_their_home_modules():
    from symcd import cli

    for entry in cli._CATALOG:
        name = entry.constructor
        assert name in symcd.__all__
        home = importlib.import_module(f"symcd.{symcd._HOME[name]}")
        assert getattr(symcd, name) is getattr(home, name)


def test_the_package_metadata_reads_its_version_from_the_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls [tool.setuptools] beta
        project = pyprojecttoml.read_configuration(Path(SRC).parent / "pyproject.toml")["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == symcd.__version__


def test_dir_lists_public_names_and_submodules():
    listing = dir(symcd)
    assert set(PUBLIC_NAMES) <= set(listing)
    assert {"cli", "verify", "cones", "__version__"} <= set(listing)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        symcd.Rational
    with pytest.raises(AttributeError):
        symcd.no_such_name

"""Command-line front end.

Subcommands
-----------
* ``class``     -- print a named divisor/cycle class from the catalog
* ``intersect`` -- evaluate a product expression of classes in top degree
* ``cone``      -- effective-cone rays (or nef facts with ``--kind nef``)
* ``volume``    -- exact volume of theta - t*x on the proven interval
* ``verify``    -- run the exact identity suite

All rationals are printed as "p/q" strings (plain decimal strings for
integers); JSON output is deterministic, uses sorted keys, and never contains
a floating-point literal.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 violated precondition, 4 out of the proven domain, 5 the
answer could not be written (a closed stdout, a broken pipe, a full disk).

The default output format is text; set SYMCD_FORMAT=json (or pass --format)
to switch.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction

import symcd

from .errors import OutOfProvenDomainError, PreconditionError

FORMAT_ENV_VAR = "SYMCD_FORMAT"

# --------------------------------------------------------------------------
# registry: the named classes, each listed once

_Entry = namedtuple("_Entry", "class_name intersect_name constructor flags provenance")

# One row per named class: its name for ``class``, its name in ``intersect``
# expressions (None where it has none), the public name of its constructor,
# the flags the constructor takes in order, and its provenance line.  Like
# every library name here, the constructor is looked up on the package at every
# call (in ``_cmd_class`` or ``_ExpressionParser.atom``) and never kept, so
# rebinding it in its module (as the benchmark's tracer does) takes effect at once.
_CATALOG = (
    _Entry(None, "theta", "theta_class", ("g", "d"), None),
    _Entry(None, "x", "x_class", ("g", "d"), None),
    _Entry(
        "subordinate",
        "subordinate",
        "subordinate_class",
        ("g", "d", "n", "r"),
        "degeneracy-locus formula for loci subordinate to a linear series "
        "(Arbarello-Cornalba-Griffiths-Harris)",
    ),
    _Entry(
        "small-diagonal",
        "smalldiag",
        "small_diagonal_class",
        ("g", "d"),
        "pushforward of the curve under p |-> d*p",
    ),
    _Entry(
        "bipartition-diagonal",
        None,
        "bipartition_diagonal_class",
        ("g", "d"),
        "pushforward of C x C under (p, q) |-> (g-d+1)p + d*q, by coefficient extraction",
    ),
    _Entry(
        "ramification",
        "ramification",
        "ramification_divisor_class",
        ("g", "d"),
        "Gauss-map ramification divisor, solved from small-diagonal and moving-point test curves",
    ),
    _Entry(
        "e-k",
        "ek",
        "pencil_residual_divisor_class",
        ("k",),
        "pushforward to C_k of the pencil locus C^(k-2)_(3k-5) in genus 2k-1",
    ),
    _Entry(
        "hyperelliptic-c1d",
        "c1d",
        "hyperelliptic_pencil_locus_class",
        ("g", "d"),
        "C^1_d equals the locus subordinate to the (d-1)-st power of the hyperelliptic pencil",
    ),
)
_CLASSES = {entry.class_name: entry for entry in _CATALOG if entry.class_name}
_INTERSECT_NAMES = {entry.intersect_name: entry for entry in _CATALOG if entry.intersect_name}

# The names of ``verify.SUITES``, in its order, for argparse; listed here so
# that importing the CLI does not import ``verify``.
_SUITE_NAMES = ("combsum", "pencil-link", "orth", "diagonal", "dd-system", "volume")


class UsageError(Exception):
    """Bad command usage, whether argparse or a handler detects it."""


def _parse_fraction(text: str) -> Fraction:
    try:
        # Fraction alone also takes 1.5, 1_000 and 1e-1000000, a number of a million digits.
        if not re.fullmatch(r"\s*[-+]?\d+(?:/\d+)?\s*", text):
            raise ValueError("only an integer or p/q is accepted")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r} ({exc})")


def _require(args: argparse.Namespace, flag: str, why: str):
    value = getattr(args, flag)
    if value is None:
        raise UsageError(f"--{flag} is required for {why}")
    return value


def _flag_values(entry: _Entry, args: argparse.Namespace, why: str, **given) -> list:
    """The arguments of ``entry``'s constructor: each flag's value in ``given``, else its required value in ``args``."""
    return [given[flag] if flag in given else _require(args, flag, why) for flag in entry.flags]


def _class_document(cls) -> dict:
    codim = cls.codim
    result = {
        "genus": cls.genus,
        "symmetric_power": cls.d,
        "codimension": codim,
        "monomials": [symcd.cycles._monomial_name(k, codim - k) or "1" for k in range(codim + 1)],
        "coefficients": [str(c) for c in cls.coeffs],
        "pretty": str(cls),
    }
    if codim == 1:
        # a*theta - b*x convention
        result["a"] = str(cls.coeffs[0])
        result["b"] = str(-cls.coeffs[1])
    return result


def _ray_document(ray) -> dict:
    return {"theta": ray.theta, "x": ray.x, "pretty": str(ray)}


# --------------------------------------------------------------------------
# intersect expression parsing

_TOKEN_RE = re.compile(r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>\*\*|[-+*^()]))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise UsageError(f"cannot tokenize expression at: {remainder!r}")
        tokens.append(match.group("number") or match.group("name") or match.group("op"))
        pos = match.end()
    return tokens


_MAX_NESTING = 100
_MAX_SCALAR_BITS = 100_000
_MAX_SCALAR = 1 << _MAX_SCALAR_BITS


class _ExpressionParser:
    """Recursive-descent parser for polynomials in the named classes.

    Grammar: expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := atom (('^'|'**') INT)?; atom := NUMBER | NAME | '(' expr ')' |
    '-' atom.  Every value is a homogeneous class on C_d in genus g: ``atom``
    builds a NAME from its ``_CATALOG`` row, other flags than g and d read from
    ``args``, and a NUMBER p or p/q is the codimension-0 class p/q, so a scalar
    is the degree-0 part of the ring and needs no rules of its own.  Sums take
    classes of equal codimension, and products and powers add codimensions up
    to d.  Parentheses and unary minus together may nest at most
    ``_MAX_NESTING`` levels deep, far from the interpreter's recursion limit.

    Every value the parser builds is bounded: its integer numerators and
    their common denominator may not exceed 2^``_MAX_SCALAR_BITS`` (about
    30,000 decimal digits) in absolute value, or the expression is a usage
    error.  Computing and printing larger numbers takes time quadratic in
    their size, so without the bound a long product of large numbers runs for
    hours.  Literals, sums, products and powers are checked; a negation keeps
    the size of a value already checked.

    A power is refused before it is computed when its value must exceed the
    bound.  A power of a class in lowest terms is in lowest terms (Gauss's
    lemma), so its denominator is the base's to the power.  Its largest
    numerator is at least m^e / (c*e + 1), with m the base's largest
    numerator and c its codimension: by Parseval, m is at most the base
    polynomial's largest value on the unit circle, and the power's largest
    value there is at most the sum of its c*e + 1 coefficients.  So the power
    is refused when e * (bit length of m - 1) less the bit length of c*e, or
    e * (bit length of the denominator - 1), exceeds the bound.  At
    codimension 0 the allowance is nothing and m/denominator is the scalar
    itself.  A power that passes has at most d+1 coefficients of bounded
    size, so its cost is bounded too.  Refusals call a value of codimension 0
    a scalar and any other a class.
    """

    def __init__(self, text: str, g: int, d: int, args: argparse.Namespace):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.g, self.d, self.args = g, d, args

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> str:
        token = self.peek()
        if token is None:
            raise UsageError("unexpected end of expression")
        self.pos += 1
        return token

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise UsageError(f"trailing input in expression: {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.advance()
            right = self.term()
            value = _bounded(value + right if op == "+" else value - right)
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.advance()
            value = _bounded(value * self.factor())
        return value

    def factor(self):
        value = self.atom()
        if self.peek() in ("^", "**"):
            self.advance()
            exponent_token = self.advance()
            if not exponent_token.isdigit():
                raise UsageError(f"exponent must be a non-negative integer (got {exponent_token!r})")
            exponent = int(exponent_token)
            spread = (value.codim * exponent).bit_length()
            top = max(map(abs, value.numerators)).bit_length() - 1
            if max(top * exponent - spread, (value.denominator.bit_length() - 1) * exponent) > _MAX_SCALAR_BITS:
                what = "class" if value.codim else "scalar"
                raise UsageError(
                    f"{what} power {exponent_token} is too large: its value would exceed 2^{_MAX_SCALAR_BITS}"
                )
            value = _bounded(value**exponent)
        return value

    def atom(self):
        token = self.advance()
        if token in ("(", "-"):
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise UsageError(f"expression is nested more than {_MAX_NESTING} levels deep")
            if token == "(":
                value = self.expr()
                if self.advance() != ")":
                    raise UsageError("unbalanced parentheses in expression")
            else:
                value = -self.atom()
            self.depth -= 1
            return value
        if token[0].isdigit():
            numerator, _, denominator = token.partition("/")
            try:
                return _bounded(symcd.CycleClass.from_numerators(self.g, self.d, (int(numerator),), int(denominator or 1)))
            except ZeroDivisionError:
                raise UsageError(f"zero denominator in {token!r}") from None
        entry = _INTERSECT_NAMES.get(token)
        if entry is None:
            raise UsageError(f"unknown name in expression: {token!r}")
        values = _flag_values(entry, self.args, f"the {token!r} name", g=self.g, d=self.d)
        if token == "ek" and (self.g, self.d) != (2 * values[0] - 1, values[0]):
            raise PreconditionError(f"ek lives on C_k in genus 2k-1; got k={values[0]} with g={self.g}, d={self.d}")
        return getattr(symcd, entry.constructor)(*values)


def _bounded(value):
    """``value`` itself, unless a number it is built from exceeds 2^_MAX_SCALAR_BITS."""
    if any(abs(n) > _MAX_SCALAR for n in (value.denominator, *value.numerators)):
        what = "class coefficient" if value.codim else "scalar"
        raise UsageError(f"a {what} in the expression is too large: it exceeds 2^{_MAX_SCALAR_BITS}")
    return value


# --------------------------------------------------------------------------
# subcommand handlers; each returns the (inputs, result, provenance) of its document


# Every integer flag ``class`` and ``intersect`` read is at most this in
# absolute value, but for the genus of ``intersect``.  A class on C_d has up to
# d+1 coefficients over one denominator as large as d!, so its cost and its
# size grow without limit in --d; at the cap the largest,
# ``subordinate --g 2 --d 1000 --n 1000 --r 0``, takes 0.3 s and prints 2.5 MB
# as one CLI call.  ``intersect`` takes a genus up to that of the largest ``ek``
# (genus 2k-1 at k = 1,000).  At the caps ``(theta-x)^1000`` answers in about
# 0.1 s as one CLI call, but a power of a named class with larger coefficients
# is slow: ``ramification^1000`` (31-bit coefficients) took 10-14 s on a 2-vCPU
# VM; the ROADMAP direction "Exact powers at the caps" plans the faster power.
_MAX_CLASS_FLAG = 1_000
_MAX_INTERSECT_GENUS = 2 * _MAX_CLASS_FLAG - 1


def _check_flag_caps(command: str, values: dict, genus_cap: int = _MAX_CLASS_FLAG) -> None:
    """Refuse a given integer flag beyond its cap, before anything is built."""
    for flag, value in values.items():
        cap = genus_cap if flag == "g" else _MAX_CLASS_FLAG
        if value is not None and abs(value) > cap:
            raise UsageError(f"--{flag} {value} is too large for {command}: at most {cap} in absolute value")


def _cmd_class(args) -> tuple[dict, dict, list]:
    name = args.name
    entry = _CLASSES[name]
    values = _flag_values(entry, args, name)
    flags = dict(zip(entry.flags, values))
    _check_flag_caps("class", flags)
    inputs = {"name": name, **flags}
    provenance = [entry.provenance]
    if name == "bipartition-diagonal":
        inputs["variant"] = "statement" if args.statement_variant else "proof"
        values.append(inputs["variant"])
        if args.statement_variant:
            provenance.append("statement variant: x*theta coefficient known to disagree with the extraction oracle")
    return inputs, _class_document(getattr(symcd, entry.constructor)(*values)), provenance


def _cmd_intersect(args) -> tuple[dict, dict, list]:
    g = _require(args, "g", "intersect")
    d = _require(args, "d", "intersect")
    _check_flag_caps("intersect", {flag: getattr(args, flag) for flag in "gdnrk"}, _MAX_INTERSECT_GENUS)
    value = _ExpressionParser(args.expression, g, d, args).parse()
    if value.codim != d:
        raise PreconditionError(f"expression has codimension {value.codim}; top-degree evaluation on C_{d} needs {d}")
    return (
        {"expression": args.expression, "g": g, "d": d},
        {"value": str(symcd.evaluate_top(value)), "codimension": value.codim},
        ["Poincare formula: x^k * theta^(d-k) = g!/(g-d+k)! on C_d"],
    )


def _cmd_cone(args) -> tuple[dict, dict, list]:
    g = _require(args, "g", "cone")
    d = _require(args, "d", "cone")
    hyperelliptic = args.curve == "hyperelliptic"
    inputs = {"g": g, "d": d, "curve": args.curve, "kind": args.kind}
    if args.kind == "effective":
        cone = symcd.effective_cone(g, d, hyperelliptic=hyperelliptic)
        result = {
            "status": cone.status.value,
            "upper_ray": _ray_document(cone.upper),
            "lower_ray": _ray_document(cone.lower),
        }
        if cone.lower_outer is not None:
            result["lower_outer_ray"] = _ray_document(cone.lower_outer)
        provenance = list(cone.provenance)
    else:
        facts = symcd.nef_facts(g, d, hyperelliptic=hyperelliptic)
        result = {
            "diagonal_nef_ray": None if facts.diagonal_nef_ray is None else _ray_document(facts.diagonal_nef_ray),
            "theta_boundary_ray": None if facts.theta_boundary_ray is None else _ray_document(facts.theta_boundary_ray),
            "gonality": facts.gonality,
            "theta_minus_x_ample": facts.theta_minus_x_ample,
        }
        provenance = list(facts.provenance)
    return inputs, result, provenance


# The exact volume's cost grows about quadratically in g (0.2 s at g = 5,000,
# 2 s at 20,000, for one CLI call), so larger genera are refused.  Its size
# grows with the denominator of t = p/q as well: the value is one number over
# q^(g-1) for the general curve and over ((g-d+1)q)^d for the hyperelliptic
# one, so a t whose denominator power would exceed 2^_MAX_SCALAR_BITS, the
# bound on every number ``intersect`` builds, is refused too.
_MAX_VOLUME_GENUS = 5_000
_VOLUME_PROVENANCE = {
    "general": "volume of theta - t*x on C_(g-1): residuation onto the nef subcone, then top self-intersection",
    "hyperelliptic": "Zariski decomposition with positive part proportional to theta",
}


def _cmd_volume(args) -> tuple[dict, dict, list]:
    g = _require(args, "g", "volume")
    if g > _MAX_VOLUME_GENUS:
        raise UsageError(f"--g {g} is too large for volume: at most {_MAX_VOLUME_GENUS}")
    d = _require(args, "d", "volume")
    t = _require(args, "t", "volume")
    # A wrong --d is refused before the size of t is judged, since that size
    # depends on d.
    general = args.curve == "general"
    if general:
        if d != g - 1:
            raise PreconditionError(f"the general-curve volume formula applies on C_(g-1); got d={d} with g={g}")
        limit = symcd.general_volume_limit(g)
        base, power = t.denominator, g - 1
    else:
        limit = symcd.hyperelliptic_volume_limit(g, d)
        base, power = limit * t.denominator, d
    if (base.bit_length() - 1) * power > _MAX_SCALAR_BITS:
        raise UsageError(
            f"--t {t} is too long for volume at g={g}: the value's denominator would exceed 2^{_MAX_SCALAR_BITS}"
        )
    value = symcd.volume_general(g, t) if general else symcd.volume_hyperelliptic(g, d, t)
    return (
        {"g": g, "d": d, "curve": args.curve, "t": str(t)},
        {"value": str(value), "proven_interval": f"[0, {limit}]"},
        [_VOLUME_PROVENANCE[args.curve]],
    )


def _report_document(report) -> dict:
    entry: dict = {
        "name": report.name,
        "parameter_range": report.parameter_range,
        "status": report.status.value,
    }
    if report.note:
        entry["note"] = report.note
    if report.counterexample is not None:
        entry["counterexample"] = {
            "parameters": list(report.counterexample.parameters),
            "lhs": report.counterexample.lhs,
            "rhs": report.counterexample.rhs,
        }
    return entry


def _cmd_verify(args) -> tuple[dict, dict, list]:
    reports = symcd.run_all(args.suite, args.max)
    return (
        {"suite": args.suite, "max": args.max},
        {
            "reports": [_report_document(report) for report in reports],
            "failures": sum(1 for report in reports if report.status is symcd.CheckStatus.FAIL),
            "all_passed": symcd.all_passed(reports),
        },
        ["exact re-derivation of the identity catalog; no tolerances"],
    )


# --------------------------------------------------------------------------
# rendering


def _render_text_value(value, indent: str, lines: list[str]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            if isinstance(inner, (dict, list)):
                lines.append(f"{indent}{key}:")
                _render_text_value(inner, indent + "  ", lines)
            else:
                lines.append(f"{indent}{key}: {inner}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}-")
                _render_text_value(item, indent + "  ", lines)
            else:
                lines.append(f"{indent}- {item}")
    else:
        lines.append(f"{indent}{value}")


def render(document: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(document, sort_keys=True, indent=2)
    inputs, result = document["inputs"], document["result"]
    rendered = ", ".join(f"{key}={inputs[key]}" for key in sorted(inputs) if inputs[key] is not None)
    lines = [f"command: {document['command']}", f"inputs: {rendered}"]
    if document["command"] == "verify":
        for entry in result["reports"]:
            status = entry["status"].upper()
            line = f"{status:24s} {entry['name']}  ({entry['parameter_range']})"
            if "counterexample" in entry:
                ce = entry["counterexample"]
                line += f"  at {tuple(ce['parameters'])}: {ce['lhs']} != {ce['rhs']}"
            lines.append(line)
        lines.append(f"failures: {result['failures']}")
        lines.append(f"all passed: {result['all_passed']}")
    else:
        _render_text_value(result, "", lines)
    for citation in document["provenance"]:
        lines.append(f"provenance: {citation}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Refuses by raising :class:`UsageError`, which ``main`` prints as one line,
    and takes flags spelled in full only: a prefix would change meaning once a
    flag sharing it is added.  Subparsers are of this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symcd",
        description="Exact divisor classes, intersection numbers, cones, and volumes on symmetric powers of curves.",
    )
    parser.add_argument(
        "--version", action="version", version=f"symcd {symcd.__version__} (Python {sys.version.split()[0]})"
    )
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default=None,
        help=f"output format (default: ${FORMAT_ENV_VAR} or text)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    integer_flags = {
        "g": "genus",
        "d": "symmetric power index",
        "n": "degree of the linear series",
        "r": "dimension of the linear series",
        "k": "pencil parameter",
    }

    def add_flags(sub, integers: str):
        # Also accepted after the subcommand; SUPPRESS keeps a root-level
        # --format from being clobbered by the subparser default.
        sub.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
        for flag in integers:
            sub.add_argument(f"--{flag}", type=int, default=None, help=integer_flags[flag])

    def add_curve(sub):
        sub.add_argument("--curve", choices=("general", "hyperelliptic"), default="general", help="curve type")

    class_parser = subparsers.add_parser("class", help="print a named class from the catalog")
    class_parser.add_argument("name", choices=tuple(_CLASSES))
    add_flags(class_parser, "gdnrk")
    class_parser.add_argument(
        "--statement-variant",
        action="store_true",
        help="build the statement variant of the bipartition diagonal (documented discrepancy)",
    )
    class_parser.set_defaults(handler=_cmd_class)

    intersect_parser = subparsers.add_parser("intersect", help="evaluate a top-degree product expression")
    intersect_parser.add_argument("expression")
    add_flags(intersect_parser, "gdnrk")
    intersect_parser.set_defaults(handler=_cmd_intersect)

    cone_parser = subparsers.add_parser("cone", help="cone boundary data")
    add_flags(cone_parser, "gd")
    add_curve(cone_parser)
    cone_parser.add_argument("--kind", choices=("effective", "nef"), default="effective")
    cone_parser.set_defaults(handler=_cmd_cone)

    volume_parser = subparsers.add_parser("volume", help="exact volume of theta - t*x")
    add_flags(volume_parser, "gd")
    volume_parser.add_argument("--t", type=_parse_fraction, default=None, help="rational 'p/q' literal")
    add_curve(volume_parser)
    volume_parser.set_defaults(handler=_cmd_volume)

    verify_parser = subparsers.add_parser("verify", help="run the exact identity suite")
    add_flags(verify_parser, "")
    verify_parser.add_argument("--suite", choices=("all", *_SUITE_NAMES), default="all")
    verify_parser.add_argument("--max", type=int, default=None, help="sweep bound override")
    verify_parser.set_defaults(handler=_cmd_verify)

    return parser


def _resolve_format(explicit: str | None) -> str:
    if explicit in ("json", "text"):
        return explicit
    env = os.environ.get(FORMAT_ENV_VAR, "")
    return env if env in ("json", "text") else "text"


@contextlib.contextmanager
def _uncapped_int_digits():
    """Lift CPython's cap on int-to-str digits while a command runs.

    Every answer is printed exactly, and exact answers (a volume at large
    genus, a long-denominator t) can run past the default 4,300 digits.
    """
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _write(text: str) -> bool:
    """Print ``text`` on stdout, or say in one line on stderr why it could not be.

    A closed stdout (``sys.stdout is None``) fails too.  After a failure stdout
    is ``os.devnull``, so the flush at exit (into a broken pipe, say) cannot raise again.
    """
    try:
        if sys.stdout is None:
            raise OSError("standard output is closed")
        print(text)
        sys.stdout.flush()
        return True
    except OSError as exc:
        sys.stdout = open(os.devnull, "w")
        print(f"error: the answer could not be written: {exc}", file=sys.stderr)
        return False


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; ``--help`` and ``--version`` exit 0.

    The exit code is 5 when the answer could not be written, else 1 when
    ``verify`` reports a failure, else 0 for an answer.
    """
    try:
        # Parsed under CPython's digit cap, so an integer flag of more than
        # 4,300 digits is refused as an invalid int.
        args, extras = _build_parser().parse_known_args(argv)
        if extras:  # named here, where the subcommand is known, not by the root parser
            raise UsageError(f"unrecognized arguments for {args.command}: {' '.join(extras)}")
        with _uncapped_int_digits():
            inputs, result, provenance = args.handler(args)
            document = {"command": args.command, "inputs": inputs, "result": result, "provenance": provenance}
            if not _write(render(document, _resolve_format(args.format))):
                return 5
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OutOfProvenDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0 if result.get("all_passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())

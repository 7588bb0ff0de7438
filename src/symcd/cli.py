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
Every line goes through one writer, ``_write``; a refusal that cannot be
written on stderr is lost, and its exit code stays.

The default output format is text; set SYMCD_FORMAT=json (or pass --format)
to switch.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
import threading
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


class UsageError(Exception):
    """Bad command usage, whether argparse or a handler detects it."""


class _WriteFailed(Exception):
    """A line could not be written: an answer, the text of ``--help`` or ``--version``, or a refusal."""


def _parse_fraction(text: str) -> Fraction:
    try:
        # Fraction alone also takes 1.5, 1_000 and 1e-1000000, a number of a million digits.
        if not re.fullmatch(r"\s*[-+]?\d+(?:/\d+)?\s*", text):
            raise ValueError("only an integer or p/q is accepted")
        # At most 2^_MAX_SCALAR_BITS, by the digit rule ``_tokenize`` applies: a too long part is not read,
        if not _too_long(text):
            with _uncapped_int_digits():  # and a shorter one is read past CPython's 4,300-digit cap
                value = Fraction(text)
            if max(abs(value.numerator), value.denominator) <= _MAX_SCALAR:
                return value
        raise ValueError(f"its numerator or denominator exceeds 2^{_MAX_SCALAR_BITS}")
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r} ({exc})")


def _flag_values(entry: _Entry, args: argparse.Namespace, why: str) -> list:
    """The arguments of ``entry``'s constructor: each flag's value in ``args`` if it is there."""
    values = [getattr(args, flag, None) for flag in entry.flags]
    if None in values:
        raise UsageError(f"--{entry.flags[values.index(None)]} is required for {why}")
    return values


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
        if _too_long(match.group("number") or ""):
            raise UsageError(f"a scalar in the expression is too large: it exceeds 2^{_MAX_SCALAR_BITS}")
        tokens.append(match.group("number") or match.group("name") or match.group("op"))
        pos = match.end()
    return tokens


def _too_long(text: str) -> bool:
    """Whether a run of digits in ``text`` has more than _MAX_SCALAR_DIGITS digits, leading zeros aside."""
    return len(text) > _MAX_SCALAR_DIGITS and any(
        len(digits.lstrip("0")) > _MAX_SCALAR_DIGITS for digits in re.findall(r"\d+", text)
    )


_MAX_NESTING = 100
_MAX_SCALAR_BITS = 100_000
_MAX_SCALAR = 1 << _MAX_SCALAR_BITS
_MAX_SCALAR_DIGITS = 30_103  # the decimal digits of _MAX_SCALAR


class _ExpressionParser:
    """Recursive-descent parser for polynomials in the named classes.

    Grammar: expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := atom (('^'|'**') INT)?; atom := NUMBER | NAME | '(' expr ')' |
    '-' atom.  Every value is a homogeneous class on C_d in genus g: ``atom``
    builds a NAME from its ``_CATALOG`` row, every flag (g and d too) read from
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
    the size of a value already checked.  ``_tokenize`` judges every number
    token, literal or exponent, by ``_too_long`` before it is read.

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

    def __init__(self, text: str, args: argparse.Namespace):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.args = args

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
        g, d = self.args.g, self.args.d
        if token[0].isdigit():
            numerator, _, denominator = token.partition("/")
            try:
                return _bounded(symcd.CycleClass.from_numerators(g, d, (int(numerator),), int(denominator or 1)))
            except ZeroDivisionError:
                raise UsageError(f"zero denominator in {token!r}") from None
        entry = _INTERSECT_NAMES.get(token)
        if entry is None:
            raise UsageError(f"unknown name in expression: {token!r}")
        values = _flag_values(entry, self.args, f"the {token!r} name")
        if token == "ek" and (g, d) != (2 * values[0] - 1, values[0]):
            raise PreconditionError(f"ek lives on C_k in genus 2k-1; got k={values[0]} with g={g}, d={d}")
        return getattr(symcd, entry.constructor)(*values)


def _bounded(value):
    """``value`` itself, unless a number it is built from exceeds 2^_MAX_SCALAR_BITS."""
    if any(abs(n) > _MAX_SCALAR for n in (value.denominator, *value.numerators)):
        what = "class coefficient" if value.codim else "scalar"
        raise UsageError(f"a {what} in the expression is too large: it exceeds 2^{_MAX_SCALAR_BITS}")
    return value


# --------------------------------------------------------------------------
# subcommand handlers; each returns the (inputs, result, provenance) of its document


# Every integer flag ``class`` and ``intersect`` take is at most this in
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
# The exact volume's cost grows about quadratically in g (0.2 s at g = 5,000,
# 2 s at 20,000, for one CLI call), so larger genera are refused.
_MAX_VOLUME_GENUS = 5_000
# Each subcommand's capped flags, in the order g, d, n, r, k; ``main`` refuses one past its cap.
_FLAG_CAPS = {
    "class": dict.fromkeys("gdnrk", _MAX_CLASS_FLAG),
    "intersect": {"g": 2 * _MAX_CLASS_FLAG - 1, **dict.fromkeys("dnrk", _MAX_CLASS_FLAG)},
    "volume": {"g": _MAX_VOLUME_GENUS},
}


def _cmd_class(args) -> tuple[dict, dict, list]:
    name = args.name
    entry = _CLASSES[name]
    values = _flag_values(entry, args, name)
    inputs = {"name": name, **dict(zip(entry.flags, values))}
    provenance = [entry.provenance]
    if name == "bipartition-diagonal":
        inputs["variant"] = "statement" if args.statement_variant else "proof"
        values.append(inputs["variant"])
        if args.statement_variant:
            provenance.append("statement variant: x*theta coefficient known to disagree with the extraction oracle")
    return inputs, _class_document(getattr(symcd, entry.constructor)(*values)), provenance


def _cmd_intersect(args) -> tuple[dict, dict, list]:
    g, d = args.g, args.d
    value = _ExpressionParser(args.expression, args).parse()
    return (
        {"expression": args.expression, "g": g, "d": d},
        {"value": str(symcd.evaluate_top(value)), "codimension": value.codim},
        ["Poincare formula: x^k * theta^(d-k) = g!/(g-d+k)! on C_d"],
    )


def _cmd_cone(args) -> tuple[dict, dict, list]:
    g, d = args.g, args.d
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


_VOLUME_PROVENANCE = {
    "general": "volume of theta - t*x on C_(g-1): residuation onto the nef subcone, then top self-intersection",
    "hyperelliptic": "Zariski decomposition with positive part proportional to theta",
}


def _cmd_volume(args) -> tuple[dict, dict, list]:
    g, d, t = args.g, args.d, args.t
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
    # The exact volume's size grows with the denominator of t = p/q: the value is
    # one number over q^(g-1) for the general curve and over ((g-d+1)q)^d for the
    # hyperelliptic one, so a t whose denominator power would exceed
    # 2^_MAX_SCALAR_BITS, the bound on every number ``intersect`` builds, is refused.
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


def _render_text_value(value: dict, indent: str, lines: list[str]) -> None:
    """A line per key, sorted; a ray (a dict) nests, and a list of scalars has a ``- item`` line each."""
    for key in sorted(value):
        inner = value[key]
        if isinstance(inner, dict):
            lines.append(f"{indent}{key}:")
            _render_text_value(inner, indent + "  ", lines)
        elif isinstance(inner, list):
            lines.append(f"{indent}{key}:")
            lines.extend(f"{indent}  - {item}" for item in inner)
        else:
            lines.append(f"{indent}{key}: {inner}")


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
    flag sharing it is added.  Subparsers are of this class too.

    The help texts are argparse's own, without its repeated work: the terminal
    is read once, for the width argparse computes, not once per argument, and
    ``-h`` has its help line as written, not looked up in gettext's catalogs.
    A word ``-p/q`` is a value, as ``-p`` and ``-p.q`` are, so ``--t -1/2``
    reads t."""

    def __init__(self, **kwargs):
        import shutil  # here, as in argparse, so that importing the CLI loads no more

        width = shutil.get_terminal_size().columns - 2
        super().__init__(
            allow_abbrev=False,
            add_help=False,
            formatter_class=functools.partial(argparse.HelpFormatter, width=width),
            **kwargs,
        )
        self.add_argument("-h", "--help", action="help", help="show this help message and exit")
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    def error(self, message):
        raise UsageError(message)

    def _print_message(self, message, file=None):
        # argparse prints --help and --version on sys.stdout, which is None when it
        # is closed; every line goes through _write, as an answer does.
        _write(message.removesuffix("\n"), "stdout" if file is sys.stdout else "stderr")


class _Subparser:
    """A subcommand's ``_Parser``, built from ``add_parser``'s keywords and ``add_arguments`` when argparse
    first uses it, so a call builds only its own; every attribute is the built parser's, whichever argparse reads."""

    def __init__(self, add_arguments, **kwargs):
        self._add_arguments, self._kwargs, self._parser = add_arguments, kwargs, None

    def __getattr__(self, name):
        if self._parser is None:
            self._parser = _Parser(**self._kwargs)
            self._add_arguments(self._parser)
        return getattr(self._parser, name)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symcd",
        description="Exact divisor classes, intersection numbers, cones, and volumes on symmetric powers of curves.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"symcd {symcd.__version__} (Python {sys.version.split()[0]})",
        help="show program's version number and exit",  # CPython 3.13 looks the default up in gettext
    )
    parser.add_argument(
        "--format", choices=("json", "text"), help=f"output format (default: ${FORMAT_ENV_VAR} or text)"
    )
    # the prog argparse would find by formatting the root's usage line
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Subparser, prog="symcd")

    integer_flags = {
        "g": "genus",
        "d": "symmetric power index",
        "n": "degree of the linear series",
        "r": "dimension of the linear series",
        "k": "pencil parameter",
    }

    def add_flags(sub, integers: str, required: str = ""):
        # Also accepted after the subcommand; SUPPRESS keeps a root-level
        # --format from being clobbered by the subparser default.
        sub.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
        for flag in integers:
            sub.add_argument(f"--{flag}", type=int, required=flag in required, help=integer_flags[flag])

    def add_curve(sub):
        sub.add_argument("--curve", choices=("general", "hyperelliptic"), default="general", help="curve type")

    def add_class(sub):
        sub.add_argument("name", choices=tuple(_CLASSES))
        add_flags(sub, "gdnrk")
        sub.add_argument(
            "--statement-variant",
            action="store_true",
            help="build the statement variant of the bipartition diagonal (documented discrepancy)",
        )
        sub.set_defaults(handler=_cmd_class)

    def add_intersect(sub):
        sub.add_argument("expression")
        add_flags(sub, "gdnrk", required="gd")
        sub.set_defaults(handler=_cmd_intersect)

    def add_cone(sub):
        add_flags(sub, "gd", required="gd")
        add_curve(sub)
        sub.add_argument("--kind", choices=("effective", "nef"), default="effective")
        sub.set_defaults(handler=_cmd_cone)

    def add_volume(sub):
        add_flags(sub, "gd", required="gd")
        sub.add_argument("--t", type=_parse_fraction, required=True, help="rational 'p/q' literal")
        add_curve(sub)
        sub.set_defaults(handler=_cmd_volume)

    def add_verify(sub):
        add_flags(sub, "")
        sub.add_argument("--suite", choices=("all", *symcd.verify.SUITES), default="all")
        sub.add_argument("--max", type=int, default=None, help="sweep bound override")
        sub.set_defaults(handler=_cmd_verify)

    subparsers.add_parser("class", help="print a named class from the catalog", add_arguments=add_class)
    subparsers.add_parser("intersect", help="evaluate a top-degree product expression", add_arguments=add_intersect)
    subparsers.add_parser("cone", help="cone boundary data", add_arguments=add_cone)
    subparsers.add_parser("volume", help="exact volume of theta - t*x", add_arguments=add_volume)
    subparsers.add_parser("verify", help="run the exact identity suite", add_arguments=add_verify)
    return parser


def _resolve_format(explicit: str | None) -> str:
    env = os.environ.get(FORMAT_ENV_VAR, "")
    return explicit or (env if env in ("json", "text") else "text")


_DIGIT_CAP_LOCK = threading.RLock()


@contextlib.contextmanager
def _uncapped_int_digits():
    """Lift CPython's cap on int-to-str digits while a command runs.

    Every answer is printed exactly, and exact answers (a volume at large
    genus, a long-denominator t) can run past the default 4,300 digits.  The
    cap is one setting of the process, so concurrent calls take turns here:
    otherwise the first to leave would put the cap back under one still
    running.
    """
    with _DIGIT_CAP_LOCK:
        cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if cap:
            sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            if cap:
                sys.set_int_max_str_digits(cap)


def _refuse(code: int, line: str) -> int:
    """Write ``line`` on stderr and return ``code``, also when the line cannot be
    written.  A refusal may echo an argument of any length, so a line of 400
    bytes or more (in UTF-8, with its newline) keeps its start, which says what
    was refused, and its end, which often says why, around a count of the
    characters left out."""
    data = line.encode(errors="backslashreplace")
    if len(data) >= 400:
        head, tail = data[:200].decode(errors="ignore"), data[-150:].decode(errors="ignore")
        line = f"{head}[... {len(data.decode()) - len(head) - len(tail)} characters left out ...]{tail}"
    with contextlib.suppress(_WriteFailed):
        _write(line, "stderr")
    return code


def _write(text: str, stream: str = "stdout") -> None:
    """Print ``text`` on ``sys.stdout`` or ``sys.stderr``, as ``stream`` names it, or raise :class:`_WriteFailed`.

    Every line the CLI prints goes through here.  A closed stream (``None``, which ``print`` takes for
    stdout) fails too.  After a failure the stream is ``os.devnull``, so the flush at exit (into a broken
    pipe, say) cannot raise again.
    """
    try:
        file = getattr(sys, stream)
        if file is None:
            raise OSError(f"standard {'output' if stream == 'stdout' else 'error'} is closed")
        print(text, file=file)
        file.flush()
    except OSError as exc:
        setattr(sys, stream, open(os.devnull, "w"))
        raise _WriteFailed(f"the answer could not be written: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; ``--help`` and ``--version`` exit 0.

    The exit code is 5 when the answer, or the text of ``--help`` or
    ``--version``, could not be written, else 1 when ``verify`` reports a
    failure, else 0 for an answer.
    """
    try:
        # Parsed under CPython's digit cap, so an integer flag of more than
        # 4,300 digits is refused as an invalid int.
        args, extras = _build_parser().parse_known_args(argv)
        if extras:  # named here, where the subcommand is known, not by the root parser
            raise UsageError(f"unrecognized arguments for {args.command}: {' '.join(extras)}")
        for flag, cap in _FLAG_CAPS.get(args.command, {}).items():
            value = getattr(args, flag)
            if value is not None and abs(value) > cap:
                raise UsageError(f"--{flag} {value} is too large for {args.command}: at most {cap} in absolute value")
        with _uncapped_int_digits():
            inputs, result, provenance = args.handler(args)
            document = {"command": args.command, "inputs": inputs, "result": result, "provenance": provenance}
            _write(render(document, _resolve_format(args.format)))
    except _WriteFailed as exc:
        return _refuse(5, f"error: {exc}")
    except UsageError as exc:
        return _refuse(2, f"usage error: {exc}")
    except OutOfProvenDomainError as exc:
        return _refuse(4, f"error: {exc}")
    except PreconditionError as exc:
        return _refuse(3, f"error: {exc}")
    return 0 if result.get("all_passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())

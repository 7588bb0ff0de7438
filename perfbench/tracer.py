"""Per-layer tracing, installed from outside the library.

:meth:`Tracer.install` rebinds public ``symcd`` names in every ``symcd`` module
that holds them, and :meth:`Tracer.uninstall` puts the originals back.

* Spans (name, start, end, parent) are recorded around ``cli.main``, the
  ``verify`` checks, the ``catalog`` and ``cones`` public functions, and
  ``cycles.multiply`` / ``cycles.evaluate_top``.
* Leaves in ``combinatorics`` are not spans, because one default verify pass
  makes a quarter of a million calls and a stress sweep millions:
  ``gen_binomial`` and the ``BivariateSeries`` operations are counted and
  timed, and their time is charged to the enclosing span, so that span's self
  time excludes it.  ``as_rational`` is only counted, since its cost is close
  to the timer's.
* ``CycleClass`` constructions and ``verify.sweep`` cases are counted.

A span's self time is its duration minus its child spans and leaf time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from symcd import catalog, cli, combinatorics, cones, cycles, verify

CHECKS = (
    "check_combsum",
    "check_pencil_residual_link",
    "check_orth",
    "check_diagonal_agreement",
    "diagonal_statement_discrepancy",
    "check_dd_system",
    "check_volume_identity",
)
CONES_FUNCTIONS = (
    "effective_slope_bound",
    "effective_cone",
    "nef_facts",
    "volume_general",
    "volume_hyperelliptic",
    "volume_integrality",
)
SERIES_METHODS = ("__mul__", "__pow__", "inverse")


def _span_targets() -> dict[object, str]:
    targets = {cli.main: "cli.main"}
    targets.update({getattr(verify, name): f"verify.{name}" for name in CHECKS})
    targets.update(
        {getattr(catalog, name): f"catalog.{name}" for name in catalog.__all__ if name != "TestCurveSolution"}
    )
    targets.update({getattr(cones, name): f"cones.{name}" for name in CONES_FUNCTIONS})
    targets.update({cycles.multiply: "cycles.multiply", cycles.evaluate_top: "cycles.evaluate_top"})
    return targets


def _symcd_modules():
    return [m for name, m in sys.modules.items() if name == "symcd" or name.startswith("symcd.")]


class Tracer:
    """Spans and counts of one traced pass; create one per pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end, leaf_s)
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.leaf_s: defaultdict = defaultdict(float)
        self.cases: Counter = Counter()
        self.op = 0
        self._stack: list[list] = []  # [id, name, start, child_s, leaf_s]
        self._in_leaf = False
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, fn, name):
        def traced(*args, **kwargs):
            stack = self._stack
            frame = [len(self.spans) + len(stack), name, time.perf_counter(), 0.0, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span_id, _, start, child_s, leaf_s = frame
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                self.spans.append((self.op, span_id, parent[0] if parent else None, name, start, end, leaf_s))
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - child_s - leaf_s

        return traced

    def _leaf(self, fn, key):
        calls = self.calls

        def timed(*args, **kwargs):
            calls[key] += 1
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._in_leaf = False
                self.leaf_s[key] += elapsed
                if self._stack:
                    self._stack[-1][4] += elapsed

        return timed

    def _counted(self, fn, key):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _sweep(self, fn):
        def traced_sweep(name, parameter_range, cases, sides):
            check = self._stack[-1][1] if self._stack else "verify.sweep"

            def counted_sides(params):
                self.cases[check] += 1
                return sides(params)

            return fn(name, parameter_range, cases, counted_sides)

        return traced_sweep

    # -- install / uninstall --------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        replacements = {fn: self._span(fn, name) for fn, name in _span_targets().items()}
        replacements[combinatorics.gen_binomial] = self._leaf(combinatorics.gen_binomial, "combinatorics.gen_binomial")
        replacements[combinatorics.as_rational] = self._counted(combinatorics.as_rational, "combinatorics.as_rational")
        replacements[verify.sweep] = self._sweep(verify.sweep)
        by_id = {id(fn): wrapper for fn, wrapper in replacements.items()}
        for module in _symcd_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    self._set(module, attr, by_id[id(value)])
        for method in SERIES_METHODS:
            original = vars(combinatorics.BivariateSeries)[method]
            self._set(combinatorics.BivariateSeries, method, self._leaf(original, "combinatorics.series"))
        self._set(
            cycles.CycleClass,
            "__post_init__",
            self._counted(vars(cycles.CycleClass)["__post_init__"], "cycles.classes_built"),
        )

    def uninstall(self) -> bool:
        """Restore every rebound name; True when each is the original again."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        restored = all(
            (vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)) is original
            for owner, attr, original in self._saved
        )
        self._saved.clear()
        return restored and not self._stack

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals of this pass (cli.* timings are added by the caller)."""

        def layer(prefix, table, zero=0.0):
            return sum((value for name, value in table.items() if name.startswith(prefix)), zero)

        out = {
            "combinatorics.series.calls": self.calls["combinatorics.series"],
            "combinatorics.series.self_s": self.leaf_s["combinatorics.series"],
            "combinatorics.gen_binomial.calls": self.calls["combinatorics.gen_binomial"],
            "combinatorics.gen_binomial.self_s": self.leaf_s["combinatorics.gen_binomial"],
            "combinatorics.as_rational.calls": self.calls["combinatorics.as_rational"],
            "cycles.classes_built": self.calls["cycles.classes_built"],
            "cycles.multiply.calls": self.calls["cycles.multiply"],
            "cycles.multiply.self_s": self.self_s["cycles.multiply"],
            "cycles.evaluate_top.calls": self.calls["cycles.evaluate_top"],
            "cycles.evaluate_top.self_s": self.self_s["cycles.evaluate_top"],
            "catalog.bipartition_diagonal_extraction.self_s": self.self_s["catalog.bipartition_diagonal_extraction"],
            "catalog.solve_test_curve_system.self_s": self.self_s["catalog.solve_test_curve_system"],
            "catalog.self_s": layer("catalog.", self.self_s),
            "cones.calls": layer("cones.", self.calls, 0),
            "cones.self_s": layer("cones.", self.self_s),
            "verify.self_s": layer("verify.", self.self_s),
            "cli.main.self_s": self.self_s["cli.main"],
        }
        for name in CHECKS:
            span, stem = f"verify.{name}", name.removeprefix("check_")
            # diagonal_statement_discrepancy compares one fixed case per call
            out[f"verify.{stem}.s"] = self.total_s[span]
            out[f"verify.{stem}.cases"] = self.cases[span] if span in self.cases else self.calls[span]
        return out


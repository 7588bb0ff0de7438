"""The symcd benchmark: seeded workloads through the public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is loaded from ``src``.
The workloads, their metrics and units are listed in ``BENCHMARK.json``, and
``perfbench/README.md`` says which per-layer metric should move which
end-to-end metric.

``--trace 0`` is a closed loop with one client: it repeats one seeded pass of
inputs until ``--seconds`` have elapsed and reports the end-to-end metrics
(see ``timed_run`` for how latencies are taken).
``--trace 1`` runs one untraced and two traced passes instead, checks that
they agree, and reports the per-layer metrics of the first traced pass.

Every output is checked: stdout of a valid call must match its golden digest
byte for byte, verify reports must carry their expected status, and a refusal
must end in its documented exit code without a traceback.  A call that misses
its expected outcome counts as failed; a wrong answer also makes ``correct``
false.  The last line of stdout is the result object; the line before it holds
provenance and sample counts, and traced spans go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import corpus

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
CHILD_TIMEOUT_S = 150
SETUP_EVERY_S = 1.0
SETUP_MIN_SAMPLES = 7
TRACE_SAMPLES = 5
DISCREPANCY_CHECK = "bipartition-diagonal-statement-variant"


class Outcome(NamedTuple):
    code: int
    stdout: bytes
    stderr: str
    seconds: float


def child_env() -> dict[str, str]:
    """Environment of every child interpreter: the checkout's ``src`` on the
    path, and bytecode caching on, as for an installed package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str], env: dict[str, str]) -> Outcome:
    start = time.perf_counter()
    proc = subprocess.run(args, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
    seconds = time.perf_counter() - start
    return Outcome(proc.returncode, proc.stdout, proc.stderr.decode(errors="replace"), seconds)


class Runner:
    """Runs one argv of ``symcd.cli`` as a subprocess or in this process."""

    def __init__(self, in_process: bool):
        self.in_process = in_process
        self.env = child_env()

    def __call__(self, argv: tuple[str, ...]) -> Outcome:
        if not self.in_process:
            return run_child([sys.executable, "-m", "symcd.cli", *argv], self.env)
        from symcd import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:
                traceback.print_exc()
                code = 1
            seconds = time.perf_counter() - start
        return Outcome(code, out.getvalue().encode(), err.getvalue(), seconds)

    def run_pass(self, entries, traced: bool = True) -> tuple[list[Outcome], dict, list, bool]:
        """One pass, with the tracer installed unless ``traced`` is false:
        outcomes, per-layer metrics, spans, and whether every rebound name
        was restored.

        Out of process, each call runs in `child.py`, which installs the
        tracer in the child, so the untraced baseline of the tracing overhead
        runs through the same helper.
        """
        if self.in_process:
            from tracer import Tracer

            tracer = Tracer()
            if traced:
                tracer.install()
            try:
                outcomes = []
                for op, entry in enumerate(entries):
                    tracer.op = op
                    outcomes.append(self(entry.argv))
            finally:
                restored = tracer.uninstall()
            return outcomes, tracer.metrics(), tracer.spans, restored
        outcomes, totals, spans, restored = [], {}, [], True
        interpreter_s, import_s = [], []
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            summary_path = Path(tmp) / "trace.json"
            script = [sys.executable, str(HERE / "child.py"), "main", str(summary_path) if traced else "-"]
            for op, entry in enumerate(entries):
                interpreter_s.append(run_child([sys.executable, "-c", "pass"], self.env).seconds)
                outcomes.append(run_child([*script, json.dumps(entry.argv)], self.env))
                if not traced:
                    continue
                summary = json.loads(summary_path.read_text())
                for name, value in summary["metrics"].items():
                    totals[name] = totals.get(name, 0) + value
                spans.extend([op, *span[1:]] for span in summary["spans"])
                import_s.append(summary["import_s"])
                restored = restored and summary["restored"]
        if traced:
            totals["cli.interpreter_ms"] = statistics.median(interpreter_s) * 1000
            totals["cli.import_ms"] = statistics.median(import_s) * 1000
        return outcomes, totals, spans, restored


# --------------------------------------------------------------------------
# correctness


def judge(entry, outcome: Outcome, golden: dict[str, str]) -> str:
    """'ok', 'failed' (missed its documented outcome) or 'wrong' (an answer
    differs from the golden one)."""
    if 0 in entry.codes:
        expected = golden.get(json.dumps(entry.argv))
        if expected != hashlib.sha256(outcome.stdout).hexdigest():
            return "wrong"
        if "verify" in entry.argv and not reports_as_expected(outcome.stdout):
            return "wrong"
    if outcome.code not in entry.codes or "Traceback" in outcome.stderr:
        return "failed"
    return "ok"


def reports_as_expected(stdout: bytes) -> bool:
    reports = json.loads(stdout)["result"]["reports"]
    return all(
        report["status"] == ("documented-discrepancy" if report["name"] == DISCREPANCY_CHECK else "pass")
        for report in reports
    )


# --------------------------------------------------------------------------
# workloads


class Workload(NamedTuple):
    entries: Callable[[int], list]  # seed -> the corpus.Entry list of one pass
    in_process: bool


WORKLOADS = {
    "cli-oneshot": Workload(corpus.cli_corpus, False),
    "verify-default": Workload(lambda seed: [corpus.VERIFY_DEFAULT], True),
    "verify-stress": Workload(corpus.stress_pass, True),
    "intersect-large": Workload(corpus.intersect_round, True),
}


def setup_sample(env: dict[str, str]) -> float:
    """Seconds of `import symcd.cli` in a fresh interpreter."""
    outcome = run_child([sys.executable, str(HERE / "child.py"), "import"], env)
    if outcome.code != 0:
        raise RuntimeError(f"importing symcd.cli failed:\n{outcome.stderr}")
    return float(outcome.stdout)


def nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# --------------------------------------------------------------------------
# machine pace
#
# The host is shared.  Its speed switches between levels about 1.65x apart,
# each held for half a second to minutes, and which level prevails moves from
# minute to minute: raw medians moved by up to 60% between sets of runs.  So
# each timing is rescaled by reference work that never touches symcd, timed
# next to it on the same CPU:
#
# * in-process calls: a SIGALRM timer runs `reference_work` every TICK_S on
#   this thread, inside the calls too;
# * subprocess calls and set-up samples: a fresh interpreter importing the
#   stdlib modules `symcd.cli` uses is timed (wall time, and the import
#   inside it), every PROBE_EVERY_S on `cli-oneshot` and before each set-up
#   sample.  The timer is off while a child runs, since the child shares the
#   CPU.
#
# A timing, less the ticks inside it, is multiplied by nominal / mean of its
# references: the ticks inside the call, or the PROBE_WINDOW nearest in time
# when fewer fell inside.  The mean follows the share of time spent at each
# speed; references slower than OUTLIER_CAP run medians are capped there.
#
# The nominal times are these references' medians on a 2-vCPU x86-64 VM
# under CPython 3.11; they only fix the scale, so that a rescaled time reads
# as it would there.  The raw medians go to the detail line.

TICK_S = 0.05
OUTLIER_CAP = 3.0  # references slower than this many run medians were interrupted
PROBE_EVERY_S = 0.25
PROBE_WINDOW = 5
STDLIB_IMPORT = (
    "import time; start = time.perf_counter(); "
    "import argparse, dataclasses, enum, fractions, itertools, json, math, re, typing; "
    "print(time.perf_counter() - start)"
)
NOMINAL_S = {"tick": 0.0010, "spawn": 0.0950, "import": 0.0200}


def reference_work() -> None:
    """About a millisecond of stdlib work shaped like symcd's own: Fraction
    sums, big-integer products and dict updates."""
    total, table, power = Fraction(0), {}, 7**400
    for i in range(1, 200):
        total += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
        table[i % 17] = table.get(i % 17, 0) + power * i


class Pace:
    """Reference timings of one run, as (start, seconds) by kind."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self.probes: dict[str, list[tuple[float, float]]] = {"tick": [], "spawn": [], "import": []}
        self.ticking = False

    def probe(self) -> None:
        """Time a fresh interpreter importing stdlib."""
        now = time.perf_counter()
        outcome = run_child([sys.executable, "-c", STDLIB_IMPORT], self.env)
        self.probes["spawn"].append((now, outcome.seconds))
        self.probes["import"].append((now, float(outcome.stdout)))

    def _tick(self, signum, frame) -> None:
        # Collections here would sweep symcd's garbage on the tick's clock.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_work()
        self.probes["tick"].append((start, time.perf_counter() - start))
        if collecting:
            gc.enable()

    @contextlib.contextmanager
    def paused(self):
        """Stop the timer while a child runs, since the child shares the CPU."""
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            if self.ticking:
                signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    @contextlib.contextmanager
    def ticks(self, on: bool):
        if not on:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        self.ticking = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.ticking = False
            signal.signal(signal.SIGALRM, previous)

    def rescaled(self, kind: str, timings: list[tuple[float, float]]) -> list[float]:
        """Each (start, seconds), less the ticks inside it, at nominal pace."""
        probes = self.probes[kind]
        cap = OUTLIER_CAP * statistics.median(s for _, s in probes)
        out = []
        for start, seconds in timings:
            inside = probes[bisect.bisect_left(probes, (start,)) : bisect.bisect_left(probes, (start + seconds,))]
            if len(inside) >= PROBE_WINDOW:
                used = inside
            else:
                mid = start + seconds / 2
                used = sorted(probes, key=lambda probe: abs(probe[0] - mid))[:PROBE_WINDOW]
            reference = statistics.fmean(min(s, cap) for _, s in used)
            out.append((seconds - sum(s for _, s in inside)) * NOMINAL_S[kind] / reference)
        return out


def timed_run(workload: Workload, entries, seconds: float, golden) -> tuple[dict, dict, list[str]]:
    """Repeat the pass until `seconds` have elapsed, timing every call.

    p50 and p90 are taken over all timed calls, each rescaled by the machine
    pace during it (see above).  Set-up samples, one per SETUP_EVERY_S and at
    least SETUP_MIN_SAMPLES, are rescaled by the import reference, and their
    median is reported.
    """
    runner = Runner(workload.in_process)
    pace = Pace(runner.env)
    setup_sample(runner.env)  # untimed: fills the bytecode cache
    for _ in range(PROBE_WINDOW):
        pace.probe()
    calls, setups, verdicts = [], [], []  # (start, seconds)
    start = next_probe = next_setup = time.perf_counter()
    with pace.ticks(workload.in_process):
        while time.perf_counter() - start < seconds:
            for entry in entries:
                began = time.perf_counter()
                outcome = runner(entry.argv)
                calls.append((began, outcome.seconds))
                verdicts.append(judge(entry, outcome, golden))
                if time.perf_counter() >= next_setup:
                    with pace.paused():
                        pace.probe()
                        setups.append((time.perf_counter(), setup_sample(runner.env)))
                    next_setup = time.perf_counter() + SETUP_EVERY_S
                elif not workload.in_process and time.perf_counter() >= next_probe:
                    pace.probe()
                    next_probe = time.perf_counter() + PROBE_EVERY_S
    while len(setups) < SETUP_MIN_SAMPLES:
        setups.append((time.perf_counter(), setup_sample(runner.env)))
    for _ in range(PROBE_WINDOW):
        pace.probe()

    kind = "tick" if workload.in_process else "spawn"
    latencies = pace.rescaled(kind, calls)
    setup = pace.rescaled("import", setups)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "latency_ms_p50": statistics.median(latencies) * 1000,
        "latency_ms_p90": nearest_rank(latencies, 0.9) * 1000,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "success_rate": verdicts.count("ok") / len(verdicts),
    }
    detail = {
        "inputs": len(entries),
        "passes": len(calls) // len(entries),
        "latency_samples": len(latencies),
        "setup_samples": len(setup),
        "raw_latency_ms_p50": statistics.median(took for _, took in calls) * 1000,
        "raw_setup_s": statistics.median(took for _, took in setups),
        "reference_s": {k: statistics.median(s for _, s in v) for k, v in pace.probes.items() if v},
        "ticks": len(pace.probes["tick"]),
    }
    return metrics, detail, verdicts


def traced_run(workload: Workload, entries, name: str, seed: int, golden) -> tuple[dict, dict, list[str], list[str]]:
    runner = Runner(workload.in_process)
    problems = []
    untraced = runner.run_pass(entries, traced=False)[0]
    first, metrics, spans, restored_first = runner.run_pass(entries)
    second, metrics_again, _, restored_second = runner.run_pass(entries)
    verdicts = [judge(e, o, golden) for pass_ in (untraced, first, second) for e, o in zip(entries, pass_)]

    def visible(outcomes):
        return [(o.code, o.stdout, "Traceback" in o.stderr) for o in outcomes]

    if not (visible(first) == visible(untraced) == visible(second)):
        problems.append("a traced pass returned other outputs than the untraced pass")
    counts = {k: v for k, v in metrics.items() if k.endswith((".calls", ".cases", "classes_built"))}
    if any(metrics_again[k] != v for k, v in counts.items()):
        problems.append("count metrics differ between the two traced passes")
    if not (restored_first and restored_second):
        problems.append("a rebound symcd name was not restored after tracing")
    if name == "intersect-large" and metrics["combinatorics.series.calls"] != 0:
        problems.append("intersect-large reached BivariateSeries")

    if workload.in_process:
        env = runner.env
        metrics["cli.interpreter_ms"] = statistics.median(
            run_child([sys.executable, "-c", "pass"], env).seconds for _ in range(TRACE_SAMPLES)
        ) * 1000
        metrics["cli.import_ms"] = statistics.median(setup_sample(env) for _ in range(TRACE_SAMPLES)) * 1000
    untraced_s = sum(o.seconds for o in untraced)
    traced_s = statistics.median([sum(o.seconds for o in first), sum(o.seconds for o in second)])
    metrics["trace.overhead_ratio"] = traced_s / untraced_s

    span_file = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(span_file, "w") as handle:
        handle.write(json.dumps(["op", "id", "parent", "name", "start", "end", "leaf_s"]) + "\n")
        handle.writelines(json.dumps(list(span)) + "\n" for span in spans)
    detail = {"spans": len(spans), "span_file": str(span_file.relative_to(ROOT)), "calls_per_pass": len(entries)}
    return metrics, detail, verdicts, problems


# --------------------------------------------------------------------------
# provenance


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "symcd").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, loadavg_start: str | None) -> dict:
    import symcd

    return {
        "seed": seed,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "symcd_version": symcd.__version__,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg_start,
        "loadavg_end": read_loadavg(),
    }


# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "symcd" / "cli.py").is_file() or not spec_path.is_file():
        print("run from the root of a symcd checkout (src/symcd and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    loadavg_start = read_loadavg()
    workload = WORKLOADS[args.workload]
    entries = workload.entries(args.seed)
    golden = json.loads((HERE / "golden.json").read_text())
    if args.trace:
        metrics, detail, verdicts, problems = traced_run(workload, entries, args.workload, args.seed, golden)
        declared = spec["per_layer"]
    else:
        metrics, detail, verdicts = timed_run(workload, entries, args.seconds, golden)
        problems = []
        declared = spec["end_to_end"]
    if "wrong" in verdicts:
        problems.append(f"{verdicts.count('wrong')} answers differ from their golden outputs")
    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)

    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    print(json.dumps({"workload": args.workload, "provenance": provenance(args.seed, loadavg_start), "detail": detail}))
    result = {
        "correct": not problems,
        "attempted": len(verdicts),
        "failed": len(verdicts) - verdicts.count("ok"),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

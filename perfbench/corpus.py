"""Seeded inputs for the benchmark workloads.

Every input is drawn from a finite pool of candidates, so that the golden
outputs of all of them can be captured once (``make_golden.py``) and any seed
can be checked.  An input is an :class:`Entry`: the argv handed to
``symcd.cli`` and the exit codes that count as its documented outcome.  An
entry whose codes are ``{0}`` must also reproduce its golden stdout byte for
byte.

The composition of each workload is fixed and only the parameters are seeded,
so percentiles and failure shares are comparable across seeds.
"""

from __future__ import annotations

import random
from typing import NamedTuple

JSON = ("--format", "json")


class Entry(NamedTuple):
    argv: tuple[str, ...]
    codes: frozenset[int] = frozenset({0})


def _entry(*argv, codes=(0,)) -> Entry:
    return Entry(JSON + tuple(str(a) for a in argv), frozenset(codes))


def _intersect(expression: str, g: int, d: int, *flags, codes=(0,)) -> Entry:
    return _entry("intersect", expression, "--g", g, "--d", d, *flags, codes=codes)


def intersect_slots(d: int) -> list[list[Entry]]:
    """Top-degree queries on C_d, one slot per expression template.

    Each template meets its preconditions for every genus offered: the
    ramification divisor needs g >= d+1, c1d needs d <= g, the subordinate
    locus n >= d >= r, and ek lives on C_k in genus 2k-1.
    """
    genera = range(max(d + 1, 4), max(d + 1, 4) + 6)
    splits = sorted({k for k in (1, d // 3, d // 2, 2 * d // 3, d - 1) if 1 <= k <= d - 1})
    ranks = sorted({r for r in (1, d // 4, d // 2, d - 1) if 1 <= r <= d - 1})
    return [
        [_intersect(f"(theta - x)^{d}", g, d) for g in genera],
        [_intersect("smalldiag * ramification", g, d) for g in genera],
        [_intersect(f"c1d * (theta - x)^{d - 1}", g, d) for g in genera],
        [
            _intersect(f"(theta + 2*x)^{k} * (3*theta - x)^{d - k}", g, d)
            for g in genera
            for k in splits
        ],
        [
            _intersect(f"subordinate * theta^{r}", g, d, "--n", n, "--r", r)
            for g in genera
            for r in ranks
            for n in (d, d + 1, d + 2)
        ],
        [_intersect(f"ek * theta^{d - 1}", 2 * d - 1, d, "--k", d)],
    ]


LARGE_POWERS = (10, 40, 100)
SMALL_POWERS = (3, 4, 5, 6)

# The two known defects: both end in a traceback with exit 1 instead of a
# usage error (2), so each counts as a failed operation until it is fixed.
DEFECTS = (
    _intersect("1/0 * theta^3", 4, 3, codes=(2,)),
    _intersect("(" * 2000 + "theta^3" + ")" * 2000, 4, 3, codes=(2,)),
)


def _cli_slots() -> list[list[Entry]]:
    """One-shot CLI calls: all five subcommands, six class names, both curve
    types and cone kinds, verify at small bounds, refusals and the defects.

    ``volume --g 3000`` is left out: it costs about 4.9 s per call against
    about 0.1 s for the others.
    """
    small = [intersect_slots(d) for d in SMALL_POWERS]
    fractions = ("0", "1/3", "1/2", "2/3", "1")
    return [
        [
            _entry("class", "subordinate", "--g", g, "--d", d, "--n", n, "--r", r)
            for g in range(3, 9)
            for d in range(2, 6)
            for r in range(d)
            for n in range(d, d + 3)
        ],
        [_entry("class", "small-diagonal", "--g", g, "--d", d) for g in range(2, 11) for d in range(2, 9)],
        [
            _entry("class", "bipartition-diagonal", "--g", g, "--d", d, *variant)
            for g in range(3, 11)
            for d in range(2, g)
            for variant in ((), ("--statement-variant",))
        ],
        [_entry("class", "ramification", "--g", g, "--d", d) for g in range(4, 13) for d in range(2, g)],
        [_entry("class", "e-k", "--k", k) for k in range(3, 15)],
        [_entry("class", "hyperelliptic-c1d", "--g", g, "--d", d) for g in range(2, 11) for d in range(2, g + 1)],
        [entry for by_d in small for entry in by_d[0]],
        [entry for by_d in small for entry in by_d[1]],
        [entry for by_d in small for entry in by_d[3]],
        [entry for by_d in small for entry in by_d[4]],
        [
            _entry("cone", "--g", g, "--d", d, "--kind", "effective")
            for g in range(4, 13)
            for d in range(2, g)
        ],
        [
            _entry("cone", "--g", g, "--d", d, "--curve", "hyperelliptic", "--kind", "effective")
            for g in range(2, 13)
            for d in range(2, g + 1)
        ],
        [_entry("cone", "--g", g, "--d", d, "--kind", "nef") for g in range(2, 13) for d in range(2, g + 3)],
        [
            _entry("cone", "--g", g, "--d", d, "--curve", "hyperelliptic", "--kind", "nef")
            for g in range(2, 13)
            for d in range(2, g + 1)
        ],
        [_entry("volume", "--g", g, "--d", g - 1, "--t", t) for g in range(4, 13) for t in fractions],
        [_entry("volume", "--g", g, "--d", g - 1, "--t", f"{g * g - g}/{g * g - g - 1}") for g in range(4, 13)],
        [
            _entry("volume", "--curve", "hyperelliptic", "--g", g, "--d", d, "--t", t)
            for g in range(2, 11)
            for d in range(2, g + 1)
            for t in fractions
        ],
        [_entry("verify", "--suite", "all", "--max", 4)],
        [
            _entry("verify", "--suite", suite, "--max", m)
            for suite, bounds in (
                ("combsum", (20, 30)),
                ("pencil-link", (6, 8)),
                ("orth", (4, 6)),
                ("diagonal", (4,)),
                ("dd-system", (4, 5)),
                ("volume", (4, 5)),
            )
            for m in bounds
        ],
        [
            _entry("class", "subordinate", "--g", 5, "--d", 3, codes=(2,)),
            _intersect("theta +", 5, 3, codes=(2,)),
            _intersect("theta % x", 5, 3, codes=(2,)),
            _entry("class", "no-such-class", codes=(2,)),
            _entry("volume", "--g", 6, "--d", 5, codes=(2,)),
        ],
        [
            _entry("class", "ramification", "--g", 3, "--d", 2, codes=(3,)),
            _intersect("theta^2", 5, 3, codes=(3,)),
            _entry("cone", "--g", 3, "--d", 2, codes=(3,)),
            _entry("volume", "--g", 7, "--d", 5, "--t", "1/2", codes=(3,)),
        ],
        [
            *(_entry("volume", "--g", g, "--d", g - 1, "--t", "2", codes=(4,)) for g in range(4, 9)),
            *(
                _entry("volume", "--curve", "hyperelliptic", "--g", g, "--d", 3, "--t", g, codes=(4,))
                for g in range(3, 9)
            ),
        ],
        [DEFECTS[0]],
        [DEFECTS[1]],
    ]


def cli_corpus(seed: int) -> list[Entry]:
    """About 25 one-shot argv: one draw from every slot, in a seeded order."""
    rng = random.Random(seed)
    corpus = [rng.choice(slot) for slot in _cli_slots()]
    rng.shuffle(corpus)
    return corpus


def intersect_round(seed: int) -> list[Entry]:
    """Five distinct queries per template (one for ek) at each of
    d = 10, 40, 100, in a seeded order."""
    rng = random.Random(seed)
    queries = [q for d in LARGE_POWERS for slot in intersect_slots(d) for q in rng.sample(slot, min(5, len(slot)))]
    rng.shuffle(queries)
    return queries


VERIFY_DEFAULT = _entry("verify")

# The ROADMAP stress bounds, one `verify --suite` call each.
STRESS_BOUNDS = (
    ("diagonal", 30),
    ("volume", 40),
    ("orth", 200),
    ("combsum", 400),
    ("dd-system", 40),
    ("pencil-link", 100),
)


def stress_pass(seed: int) -> list[Entry]:
    """Every suite once at its stress bound, in a seeded order."""
    suites = [_entry("verify", "--suite", suite, "--max", bound) for suite, bound in STRESS_BOUNDS]
    random.Random(seed).shuffle(suites)
    return suites


def golden_pool() -> list[Entry]:
    """Every entry any seed can draw that must match a golden stdout."""
    slots = _cli_slots() + [slot for d in LARGE_POWERS for slot in intersect_slots(d)]
    pool = [entry for slot in slots for entry in slot] + [VERIFY_DEFAULT] + stress_pass(0)
    unique = dict.fromkeys(entry for entry in pool if entry.codes == frozenset({0}))
    return list(unique)

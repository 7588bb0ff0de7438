"""Capture the golden stdout digest of every valid input any seed can draw.

    python3 perfbench/make_golden.py

Run from the root of a checkout.  It writes ``perfbench/golden.json``, a map
from the JSON-encoded argv to the SHA-256 of its ``--format json`` stdout.
The digests pin the outputs of the commit they were captured at; capture
them again only when an output is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import corpus
    from run import Runner

    runner = Runner(in_process=True)
    golden = {}
    for entry in corpus.golden_pool():
        outcome = runner(entry.argv)
        if outcome.code != 0:
            raise SystemExit(f"exit {outcome.code} for {entry.argv}:\n{outcome.stderr}")
        golden[json.dumps(entry.argv)] = hashlib.sha256(outcome.stdout).hexdigest()
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"{len(golden)} golden digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())

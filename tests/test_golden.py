"""Byte-identical ``--format json`` output on the benchmark's golden corpus.

``perfbench/golden.json`` maps each JSON-encoded argv to the SHA-256 of the
stdout ``symcd.cli.main`` printed for it when the digests were captured.
Every argv must still exit 0 and print exactly the same bytes.
"""

import hashlib
import json
from pathlib import Path

from symcd.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"


def test_every_golden_argv_prints_its_captured_output(capsys):
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) > 1000
    mismatches = []
    for key, digest in golden.items():
        argv = json.loads(key)
        code = main(argv)
        out = capsys.readouterr().out
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            mismatches.append((argv, code))
    assert not mismatches, f"{len(mismatches)} of {len(golden)} differ, first: {mismatches[:3]}"

"""Run every workload once and print each metric by name, value and unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Exits non-zero when a workload fails to
run or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    for workload in spec["workloads"]:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"]]
        command += ["--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload['name']}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        status |= not result["correct"]
        print(
            f"{workload['name']}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}"
        )
        for name, metric in result["metrics"].items():
            print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())

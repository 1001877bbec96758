"""Steadiness check: run one workload N times, each with its own seed.

Usage, from the repository root:

    python3 bench/steady.py --workload ess-sweep --runs 10

The runs use seeds 1..N and the run length from BENCHMARK.json.  For every
end-to-end metric it prints the median of the runs, the spread (distance
between the first and third quartile, as a share of the median) and the
metric's bound.  It exits 1 when a run is incorrect, when the share of
failed operations differs between runs, or when a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    results = []
    for seed in range(1, args.runs + 1):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)

    ok = all(r["correct"] for r in results)
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    if len(shares) != 1:
        ok = False
    print(f"failed share: {sorted(str(s) for s in shares)}")
    print(f"{'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        verdict = "ok" if spread <= metric["bound"] / 3 else "WIDE"
        if spread > metric["bound"]:
            verdict, ok = "OVER", False
        print(f"{name:<20} {median:>12.4f} {spread:>8.3f} {metric['bound']:>6} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

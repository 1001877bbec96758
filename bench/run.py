"""nbcolor benchmark: one workload per run, one JSON result on the last line.

Usage, from the repository root:

    python3 bench/run.py --workload ess-sweep --seed 1 --seconds 20 --trace 0

Workloads: ess-sweep, family-witness, small-screen, cli-pipeline (see
bench/README.md).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps nbcolor's public functions and reports the per-layer metrics instead.
The program is imported from ``src/`` of the checkout, never from an
installed copy, and the run refuses ``python -O`` so that the solver's own
witness assertion stays active.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import NOMINAL_LOOP_S, OUT, ROOT, SRC, Pass, Timing, child_env

SETUP_REPEATS = 7
STARTUP_REPEATS = 7
CLI_SUBCOMMANDS = ("construct", "verify", "analyze", "export-cnf", "product",
                   "union", "solve", "reduce", "decode", "export-dot")


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def make_workload(args: argparse.Namespace):
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliPipeline:
        return cls(args.seed, traced=bool(args.trace))
    return cls(args.seed)


def setup_probe(args: argparse.Namespace):
    """A callable that times one fresh process doing this run's set-up
    (start the interpreter, import, generate the inputs) and exiting."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]

    def probe() -> float:
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True)
        return time.perf_counter() - start

    return probe


def measure(workload, seconds: float, probe=None) -> tuple[Timing, list[str], list[float]]:
    """Whole passes over the workload's inputs until ``seconds`` have gone by.

    Set-up probes are spread over the run, between passes, so that their
    median does not rest on one stretch of the host's speed; each is
    corrected for that speed like the calls (see ``Timing``).
    """
    timing = Timing()
    errors: list[str] = []
    probes: list[tuple[float, float]] = []
    start = time.monotonic()
    while not timing.passes or time.monotonic() < start + seconds:
        due = start + seconds * len(probes) / SETUP_REPEATS
        if probe is not None and len(probes) < SETUP_REPEATS and time.monotonic() >= due:
            probes.append((probe(), timing.reference()))
        p = Pass(timing)
        p.run(workload.ops, errors)
        timing.add(p)
    while probe is not None and len(probes) < SETUP_REPEATS:
        probes.append((probe(), timing.reference()))
    setups = [t * NOMINAL_LOOP_S / loop for t, loop in probes]
    return timing, errors, setups


def end_to_end(args, workload, timing: Timing, setup_s: float) -> dict:
    """Every end-to-end metric, defined the same way on every workload.

    The result format carries all of them in every run; README.md marks the
    pairs each workload exists to measure.  An operation of ess-sweep is one
    round trip, so ``round_trips_per_s`` is operations per second.
    """
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-pipeline" else resource.RUSAGE_SELF
    solves = timing.per_call("solve")
    solve_steps = [step for step in timing.sums if step.split(":")[0] == "solve"]
    pass_s = timing.median_pass()
    values = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "round_trips_per_s": (len(workload.ops) / pass_s, "1/s"),
        "solves_per_s": (len(solves) / timing.median_pass(*solve_steps), "1/s"),
        "solve_p50_ms": (1000.0 * statistics.median(solves), "ms"),
        "pipelines_per_s": (1.0 / pass_s, "1/s"),
        "command_p50_ms": (1000.0 * statistics.median(timing.per_call()), "ms"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def cli_startup_ms() -> float:
    """Fresh interpreter importing nbcolor.cli, minus a bare interpreter."""
    env = child_env()
    loaded, bare = [], []
    for _ in range(STARTUP_REPEATS):
        for code, bucket in (("import nbcolor.cli", loaded), ("pass", bare)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            bucket.append(time.perf_counter() - start)
    return 1000.0 * (statistics.median(loaded) - statistics.median(bare))


def per_layer(args, workload, timing: Timing, tracer) -> dict:
    from tracing import layer_metrics, merge_totals

    n = len(timing.passes)
    dump = OUT / f"trace-{args.workload}-{args.seed}.json"
    if tracer is not None:
        totals = tracer.totals()
        tracer.write(dump)
    else:
        totals: dict = {}
        children = []
        for path in workload.spans:
            try:
                child = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            merge_totals(totals, child["totals"])
            children.append(child["spans"])
        dump.write_text(json.dumps({"children": children, "totals": totals}))
    values = {name: (v, _unit(name)) for name, v in layer_metrics(totals, n).items()}
    cli = args.workload == "cli-pipeline"
    values["cli.startup_ms"] = (cli_startup_ms() if cli else 0.0, "ms")
    for sub in CLI_SUBCOMMANDS:
        times = timing.per_call(sub) if cli else []
        values[f"cli.{sub}_ms"] = (1000.0 * statistics.median(times) if times else 0.0, "ms")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name == "io.bytes":
        return "bytes"
    return "count"


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("error: run without -O; the solver's witness assertion must stay active",
              file=sys.stderr)
        return 2
    if not (SRC / "nbcolor" / "__init__.py").is_file():
        print(f"error: no nbcolor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # One CPU for this process and every child, so that the reference loop
    # runs where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.setup_only:
        make_workload(args).close()
        return 0

    workload = make_workload(args)
    try:
        tracer = None
        if args.trace and args.workload != "cli-pipeline":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        probe = None if args.trace else setup_probe(args)
        timing, errors, setups = measure(workload, args.seconds, probe)
        if args.trace:
            metrics = per_layer(args, workload, timing, tracer)
        else:
            metrics = end_to_end(args, workload, timing, statistics.median(setups))
    finally:
        workload.close()

    print(f"{args.workload}: {len(timing.passes)} passes of {len(workload.ops)} operations; "
          f"program time per pass: median {statistics.median(timing.pass_times):.4f} s, "
          f"{timing.median_pass():.4f} s at reference speed")
    for what, count in sorted(timing.failures.items()):
        print(f"failed {count}x: {what}")
    for error in errors:
        print(f"wrong: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": timing.attempted,
        "failed": timing.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

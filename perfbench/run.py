"""Benchmark: host cost of regenerating the paper's figures, per workload.

    python3 perfbench/run.py --workload daos-ior --seed 0 --seconds 40 --trace 0

Runs batches of the workload (see ``workloads.py``), each in a fresh
interpreter (``batch.py``), one after another, until the next batch would
end after ``--seconds``.  Every batch regenerates the same figures from
the same seed, so their series must be bit-identical.

``--trace 0`` prints the end-to-end metrics: medians over the batches of
host wall and CPU time of the figure regeneration, modelled ops per host
second, set-up time, peak RSS, and the distance from the paper's numbers.
``--trace 1`` alternates untraced and traced batches and prints the
per-layer metrics of the traced ones, plus the tracing overhead; it
writes the spans of the first traced batch once, at the end, to
``perfbench/out/trace-<workload>-seed<seed>.json``.

The last line of output is one JSON object with the keys ``correct``,
``attempted`` (points run), ``failed`` (points that raised or returned a
non-finite bandwidth) and ``metrics``.  ``correct`` is false when a shape
check of a figure fails, a point fails, or two batches of the run
disagree on a modelled series.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("daos-ior", "nwp-apps", "degraded-exact")
#: the whole run, batches included, ends within this many seconds
RUN_LIMIT_S = 170.0
#: the seed a run uses when none is given: the harness's own default
#: base_seed, so a default run regenerates the figures the CLI prints
DEFAULT_SEED = 0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "sim_ops_per_s": "op/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "paper_err_pct": "%",
}


class BatchError(RuntimeError):
    """A batch process died or printed no result."""


def spawn(workload: str, seed: int, trace: int, timeout: float) -> dict:
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "batch.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--spawned-at", repr(spawned_at),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BatchError(f"batch took longer than {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BatchError(f"batch exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - spawned_at
    return result


def run_batches(workload: str, seed: int, seconds: float, pattern) -> list:
    """Cycle through ``pattern`` (trace flags) until the next batch of
    that kind, at the length of the longest one so far, would end after
    ``seconds``.  Each kind in the pattern runs at least once."""
    start = time.monotonic()
    longest = {flag: 0.0 for flag in pattern}
    batches = []
    while True:
        trace = pattern[len(batches) % len(pattern)]
        elapsed = time.monotonic() - start
        if len(batches) >= len(pattern) and elapsed + longest[trace] > seconds:
            return batches
        result = spawn(workload, seed, trace, timeout=RUN_LIMIT_S - elapsed)
        longest[trace] = max(longest[trace], result["elapsed_s"])
        batches.append(result)


def verdict(batches: list) -> tuple:
    """(attempted, failed, problems) over every batch of a run."""
    problems = []
    for b in batches:
        if b["error"]:
            problems.append(f"batch error: {b['error']}")
        problems.extend(f"shape check failed: {c}" for c in b["checks_failed"])
    if len({b["digest"] for b in batches}) != 1:
        problems.append("batches of one seed produced different modelled series")
    attempted = sum(b["points_attempted"] for b in batches)
    failed = sum(b["points_failed"] for b in batches)
    if failed:
        problems.append(f"{failed} of {attempted} points raised or returned non-finite bandwidth")
    return attempted, failed, problems


def end_to_end(batches: list) -> dict:
    paper = {b["paper_err_pct"] for b in batches}
    return {
        "wall_s": statistics.median(b["wall_s"] for b in batches),
        "cpu_s": statistics.median(b["cpu_s"] for b in batches),
        "sim_ops_per_s": statistics.median(b["ops"] / b["wall_s"] for b in batches),
        "setup_s": statistics.median(b["setup_s"] for b in batches),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
        "paper_err_pct": paper.pop() if len(paper) == 1 else None,
    }


def layer_unit(name: str) -> str:
    if name == "trace.overhead_frac":
        return "ratio"
    return "s" if "s" in name.split(".")[-1].split("_") else "count"


def per_layer(untraced: list, traced: list, problems: list) -> dict:
    """Counts from the traced batches (which must agree exactly), times as
    medians over them, and the traced/untraced wall-time ratio."""
    layers = {}
    for name in traced[0]["layers"]:
        values = [b["layers"][name] for b in traced]
        if layer_unit(name) == "count":
            if len(set(values)) != 1:
                problems.append(f"traced batches disagree on {name}: {values}")
            layers[name] = values[0]
        else:
            layers[name] = statistics.median(values)
    layers["trace.overhead_frac"] = (
        statistics.median(b["wall_s"] for b in traced)
        / statistics.median(b["wall_s"] for b in untraced)
        - 1.0
    )
    return layers


def write_trace(workload: str, seed: int, layers: dict, batches: list, traced: dict) -> Path:
    out = HERE / "out" / f"trace-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "layers": layers,
        "batches": [
            {k: b[k] for k in ("trace", "setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
            for b in batches
        ],
        "span_fields": ["id", "name", "start_s", "end_s", "parent"],
        "spans": traced["spans"],
        "totals_fields": ["calls", "total_s", "self_s"],
        "totals": traced["totals"],
        "counts": traced["counts"],
    }
    out.write_text(json.dumps(doc, indent=1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    pattern = (0, 1) if args.trace else (0,)
    try:
        batches = run_batches(args.workload, args.seed, args.seconds, pattern)
    except BatchError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems = verdict(batches)
    untraced = [b for b in batches if b["trace"] == 0]
    traced = [b for b in batches if b["trace"] == 1]

    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced batches, {attempted} points")
    checks = max(len(b["checks_failed"]) for b in batches)
    print(f"  checks_failed = {checks} count (of {batches[0]['checks_total']} per batch)")
    print(f"  points_failed_frac = {failed / max(attempted, 1):.6g} ratio")
    if args.trace:
        values = per_layer(untraced, traced, problems)
        units = {name: layer_unit(name) for name in values}
        path = write_trace(args.workload, args.seed, values, batches, traced[0])
        print(f"  spans written to {path.relative_to(ROOT)}")
    else:
        values = end_to_end(untraced)
        units = END_TO_END_UNITS
        if values["paper_err_pct"] is None and not any(b["error"] for b in untraced):
            problems.append("batches disagree on paper_err_pct")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}" if value is not None else f"  {name} = n/a")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

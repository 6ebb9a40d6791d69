"""Benchmark-regression pipeline: BENCH_<git-sha>.json documents.

Runs every figure at quick scale and records, per figure:

- the **modelled** results — every series' means/stds and the shape-check
  outcomes.  These must never drift: the model is deterministic per
  seed, so any change here is a semantic change to the simulation and
  ``tools/bench_compare.py`` flags it at any magnitude;
- the **host** cost — wall-clock seconds and simulator events executed,
  hence events/second.  This is the ROADMAP north-star ("as fast as the
  hardware allows"): a >10% wall-clock regression between two BENCH
  files fails the comparison;
- the **engine** profile (schema 3, via simprof): flow-network
  recomputes and the event-queue depth high-water mark per figure.
  ``events``/``recomputes``/``peak_queue_depth`` are deterministic per
  seed, so the comparator treats any change as a semantic model/kernel
  change; the derived per-second rates get the wall-clock tolerance.

The document is schema-versioned so future PRs can evolve the layout
without breaking the comparator::

    python -m repro.harness.bench --out BENCH_abc1234.json
    python tools/bench_compare.py BENCH_old.json BENCH_new.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import time
from typing import Dict, Optional, Sequence

import repro.obs as obs_mod
from repro.harness.cache import ResultCache
from repro.harness.executor import ExecutionReport, Executor, execute_plan
from repro.harness.figures import FIGURES, plan_figure

__all__ = [
    "BENCH_SCHEMA",
    "git_sha",
    "bench_filename",
    "figure_record",
    "collect_bench",
    "write_bench",
    "main",
]

#: schema version of the BENCH json document.  Version 2 added the
#: ``executor``/``cache`` top-level fields and the per-figure
#: ``execution`` record (plan sizes, dedup, executed points); version 3
#: added the simprof engine fields per figure (``recomputes``,
#: ``recomputes_per_second``, ``peak_queue_depth``); version 4 changed
#: ``peak_queue_depth`` to count *live* events only (cancelled
#: tombstones are compacted away and no longer inflate the peak) and
#: added ``recomputes_per_event`` (the cohort-scalability kernel
#: metric: how much flow-solving one event costs on average);
#: version 5 added the resilience counts to the per-figure
#: ``execution`` record (``retried``/``timed_out``/``quarantined``/
#: ``resumed`` — all zero on a clean run) and ``corrupt_discarded`` to
#: cache stats.  ``tools/bench_compare.py`` accepts 1 through 5 and
#: skips the exact ``peak_queue_depth`` comparison across the 3<->4
#: semantic boundary.
BENCH_SCHEMA = 5


def git_sha(short: bool = True) -> str:
    """The repo's HEAD commit (short form), or ``"unknown"`` outside git."""
    cmd = ["git", "rev-parse", "--short" if short else "--verify", "HEAD"]
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=10, check=True
        )
        return out.stdout.strip() or "unknown"
    except (subprocess.SubprocessError, OSError):
        # no git binary, not a repo, or the command timed out
        return "unknown"


def bench_filename(sha: Optional[str] = None) -> str:
    return f"BENCH_{sha or git_sha()}.json"


def figure_record(
    result,
    wall_seconds: float,
    events: int,
    execution: Optional[ExecutionReport] = None,
    profile: Optional[obs_mod.ProfileRecorder] = None,
) -> Dict:
    """One figure's BENCH entry from its result + host-side cost.

    With a simprof ``profile`` the schema-3 engine fields are included:
    ``recomputes`` and ``peak_queue_depth`` (deterministic per seed,
    compared exactly) plus ``recomputes_per_second`` (wall-derived,
    compared with tolerance, like ``events_per_second``).
    """
    series: Dict[str, Dict] = {}
    for panel, rows in sorted(result.panels.items()):
        for s in rows:
            series[f"{panel}/{s.label}"] = {
                "xs": list(s.xs),
                "means": list(s.means),
                "stds": list(s.stds),
                "unit": s.unit,
            }
    rec = {
        "title": result.title,
        "wall_seconds": wall_seconds,
        "events": events,
        "events_per_second": events / wall_seconds if wall_seconds > 0 else 0.0,
        "checks_passed": sum(1 for c in result.checks if c.passed),
        "checks_total": len(result.checks),
        "series": series,
    }
    if profile is not None:
        rec["recomputes"] = int(profile.recomputes)
        rec["recomputes_per_second"] = (
            profile.recomputes / wall_seconds if wall_seconds > 0 else 0.0
        )
        rec["recomputes_per_event"] = (
            profile.recomputes / events if events > 0 else 0.0
        )
        rec["peak_queue_depth"] = int(profile.queue_depth_peak)
    if execution is not None:
        exec_doc = execution.as_dict()
        # cumulative cache stats live at the document top level; the
        # per-figure entry keeps only the plan/execution accounting
        exec_doc.pop("cache", None)
        rec["execution"] = exec_doc
    return rec


def collect_bench(
    figures: Optional[Sequence[str]] = None,
    scale: str = "quick",
    sha: Optional[str] = None,
    verbose: bool = False,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict:
    """Run the figures and assemble the full BENCH document."""
    fig_ids = list(figures) if figures else sorted(FIGURES)
    # the CLI's executor: in-process at jobs=1, the resilient worker
    # pool beyond, so the bench measures what the CLI runs
    executor = Executor(jobs=jobs)
    cache = ResultCache(cache_dir) if cache_dir else None
    doc: Dict = {
        "schema": BENCH_SCHEMA,
        "git_sha": sha or git_sha(),
        "scale": scale,
        "executor": {"jobs": executor.jobs},
        "cache": None,  # cumulative stats filled in after the loop
        "figures": {},
    }
    for fig_id in fig_ids:
        # A fresh Observability (with a simprof recorder for the schema-3
        # engine fields) per figure isolates the counters; instrumentation
        # never changes modelled numbers, so the recorded series are
        # identical to an unobserved run.
        obs = obs_mod.Observability(profile=obs_mod.ProfileRecorder())
        t0 = time.perf_counter()
        with obs_mod.activated(obs):
            result, report = execute_plan(
                plan_figure(fig_id, scale), executor=executor, cache=cache
            )
        wall = time.perf_counter() - t0
        obs.finalize()
        events = int(obs.registry.counter("sim.events_executed").value)
        doc["figures"][fig_id] = figure_record(
            result, wall, events, execution=report, profile=obs.profile
        )
        if verbose:
            rec = doc["figures"][fig_id]
            print(
                f"{fig_id:>5}: {wall:7.2f}s  {events:>9} events  "
                f"{rec['events_per_second']:>10.0f} ev/s  "
                f"{rec['recomputes']:>8} recomputes  "
                f"qpeak {rec['peak_queue_depth']:>6}  "
                f"checks {rec['checks_passed']}/{rec['checks_total']}"
            )
    if cache is not None:
        doc["cache"] = cache.stats.as_dict()
        if verbose:
            print(f"cache: {cache.stats.summary()}")
    return doc


def write_bench(doc: Dict, out: str) -> None:
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness.bench",
        description="Run every figure and record modelled results + host cost",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="output file (default: BENCH_<git-sha>.json)",
    )
    parser.add_argument(
        "--scale", choices=("quick", "full"), default="quick",
        help="figure scale (default: quick)",
    )
    parser.add_argument(
        "--figures", metavar="IDS", default=None,
        help=f"comma-separated figure ids (default: all of {sorted(FIGURES)})",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="execute points across N worker processes (default: 1)",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="content-addressed result cache directory (default: none)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    figures = args.figures.split(",") if args.figures else None
    if figures:
        unknown = [f for f in figures if f not in FIGURES]
        if unknown:
            parser.error(f"unknown figure(s) {unknown}; known: {sorted(FIGURES)}")
    sha = git_sha()
    doc = collect_bench(
        figures=figures, scale=args.scale, sha=sha, verbose=True,
        jobs=args.jobs, cache_dir=args.cache_dir,
    )
    out = args.out or bench_filename(sha)
    write_bench(doc, out)
    total = sum(rec["wall_seconds"] for rec in doc["figures"].values())
    print(f"{len(doc['figures'])} figure(s), {total:.1f}s total -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

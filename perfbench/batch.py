"""One batch: regenerate one workload's figures once, in this process.

Run by ``run.py`` in a fresh interpreter per batch, so every batch pays
the imports and planning a ``python -m repro.harness.cli`` user pays, and
no in-process cache survives from one batch to the next::

    python3 perfbench/batch.py --workload daos-ior --seed 0 --trace 0 \\
        --spawned-at <time.monotonic() of the parent just before the spawn>

Prints one JSON object as its last line of output.  With ``--trace 1``
the layer wrappers of ``tracing.py`` and a simprof recorder are attached
and the object also carries the per-layer numbers and the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class RecordingExecutor:
    """The CLI's ``SerialExecutor``, keeping each result as it completes."""

    jobs = 1

    def __init__(self, inner) -> None:
        self.inner = inner
        self.results = []
        self.raised = 0

    def run_tasks(self, tasks, on_result=None):
        def note(task, result):
            self.results.append(result)
            if on_result is not None:
                on_result(task, result)

        try:
            return self.inner.run_tasks(tasks, on_result=note)
        except Exception:
            self.raised += 1
            raise


def series_digest(figures) -> str:
    """SHA-256 over every series' means and stds, bit-exact."""
    h = hashlib.sha256()
    for figure in figures:
        for panel, series_list in figure.panels.items():
            for series in series_list:
                h.update(f"{figure.fig_id}|{panel}|{series.label}|".encode())
                for value in (*series.xs, *series.means, *series.stds):
                    h.update(float(value).hex().encode() + b",")
    return h.hexdigest()


def _finite(result) -> bool:
    return all(math.isfinite(v) for v in (*result.write_bw, *result.read_bw))


def layer_metrics(recorder, observability, results) -> dict:
    profile = observability.profile
    registry = observability.registry

    def counter(name: str) -> float:
        instrument = registry.get(name)
        return instrument.value if instrument is not None else 0.0

    points = recorder.durations("harness.point")
    return {
        "harness.points": recorder.calls("harness.point"),
        "harness.point_s_p50": statistics.median(points) if points else 0.0,
        "harness.plan_s": recorder.seconds("harness.plan"),
        "harness.assemble_s": recorder.seconds("harness.assemble"),
        "hardware.cluster_builds": recorder.calls("hardware.cluster_build"),
        "hardware.cluster_build_s": recorder.seconds("hardware.cluster_build"),
        "workloads.driver_s": recorder.seconds("workloads.driver"),
        "workloads.driver_self_s": recorder.self_seconds("workloads.driver"),
        "sim.run_s": recorder.seconds("sim.run"),
        "sim.solver_s": profile.recompute_wall,
        "sim.dispatch_s": profile.dispatch_wall,
        "sim.events": profile.events_dispatched,
        "sim.recomputes": profile.recomputes,
        "sim.recomputes_full": profile.recomputes_full,
        "sim.recompute_edges": profile.recompute_edges,
        "sim.peak_queue_depth": profile.queue_depth_peak,
        "sim.hash_calls": recorder.calls("sim.hash"),
        "daos.charges_calls": recorder.calls("daos.charges"),
        "daos.charges_s": recorder.seconds("daos.charges"),
        "daos.kv_loads_calls": recorder.calls("daos.kv_loads"),
        "daos.kv_loads_s": recorder.seconds("daos.kv_loads"),
        "daos.placement_calls": recorder.calls("daos.placement"),
        "daos.placement_s": recorder.seconds("daos.placement"),
        "daos.data_s": recorder.seconds("daos.data"),
        "ceph.pg_of_calls": recorder.calls("ceph.pg_of"),
        "ceph.pg_of_s": recorder.seconds("ceph.pg_of"),
        "fdb.keys_built": recorder.calls("fdb.make_key"),
        "fdb.keys_s": recorder.seconds("fdb.make_key"),
        "fdb.key_sequences": recorder.calls("fdb.key_sequence"),
        "lustre.mds_requests": recorder.calls("lustre.mds_request"),
        "faults.lost_ops": sum(r.lost_ops[0] * r.reps for r in results),
        "faults.retried": counter("ops.retried"),
        "faults.failed_over": counter("ops.failed_over"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
    import repro.obs as obs
    from repro.harness.executor import SerialExecutor, execute_plans

    import paper
    import workloads

    plans = workloads.WORKLOADS[args.workload]()
    executor = RecordingExecutor(SerialExecutor())
    observability = obs.Observability(profile=obs.ProfileRecorder()) if args.trace else None
    error = None
    figures = []
    cpu0 = time.process_time()
    t0 = time.monotonic()
    try:
        with obs.activated(observability):
            figures, _ = execute_plans(plans, executor=executor, base_seed=args.seed)
    except Exception as exc:  # reported as a failed batch, not a crash
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.monotonic() - t0
    cpu_s = time.process_time() - cpu0

    results = executor.results
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": t0 - args.spawned_at,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": workloads.modelled_ops(plans),
        "points_attempted": len(results) + executor.raised,
        "points_failed": executor.raised + sum(not _finite(r) for r in results),
        "checks_total": sum(len(f.checks) for f in figures),
        "checks_failed": [
            f"{f.fig_id}: {c.description} ({c.detail})"
            for f in figures
            for c in f.checks
            if not c.passed
        ],
        "digest": series_digest(figures),
        "paper_err_pct": None if error else paper.paper_err_pct(args.workload, figures),
        "error": error,
    }
    if args.trace:
        out["layers"] = layer_metrics(recorder, observability, results)
        out["spans"] = recorder.spans
        out["totals"] = recorder.totals
        out["counts"] = recorder.counts
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark itself (about two minutes on two cores):

    python3 perfbench/selftest.py

For every workload, at the default seed:

- *transparency*: an untraced batch and two traced batches produce the
  same series digest (every series' means and stds, bit-exact), so the
  layer wrappers and the simprof recorder do not change the model;
- *repeatable counts*: the two traced batches report exactly equal
  per-layer counts;
- *wrappers reach their calls*: every per-layer count the layer table of
  README.md assigns to the workload is non-zero.

Then every workload runs once more, untraced, on the held-out seed and
must pass every shape check with no failed point.
"""

from __future__ import annotations

import sys

from run import DEFAULT_SEED, RUN_LIMIT_S, WORKLOADS, layer_unit, spawn

#: a seed used neither while the benchmark was tuned nor by default
HELD_OUT_SEED = 104729

#: per-layer numbers that must be non-zero, by the workload the layer
#: table assigns them to
ASSIGNED = {
    "daos-ior": (
        "harness.points", "hardware.cluster_builds",
        "daos.charges_calls", "daos.placement_calls",
    ),
    "nwp-apps": (
        "harness.points", "daos.kv_loads_calls", "ceph.pg_of_calls",
        "fdb.keys_built", "fdb.key_sequences", "lustre.mds_requests",
    ),
    "degraded-exact": (
        "harness.points", "sim.events", "sim.recomputes", "sim.recompute_edges",
        "sim.peak_queue_depth", "sim.hash_calls", "daos.data_s",
        "faults.lost_ops", "faults.retried", "faults.failed_over",
    ),
}


def check(failures: list, ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    failures: list = []
    for workload in WORKLOADS:
        print(f"{workload}, seed {DEFAULT_SEED}")
        plain = spawn(workload, DEFAULT_SEED, 0, RUN_LIMIT_S)
        traced = [spawn(workload, DEFAULT_SEED, 1, RUN_LIMIT_S) for _ in range(2)]
        digests = {b["digest"] for b in [plain, *traced]}
        check(failures, len(digests) == 1, "traced and untraced series are byte-identical")
        counts = [
            {k: v for k, v in b["layers"].items() if layer_unit(k) == "count"} for b in traced
        ]
        check(failures, counts[0] == counts[1], "two traced batches give equal per-layer counts")
        for name in ASSIGNED[workload]:
            value = traced[0]["layers"][name]
            check(failures, value > 0, f"{name} = {value:g} is non-zero")
    for workload in WORKLOADS:
        print(f"{workload}, held-out seed {HELD_OUT_SEED}")
        held = spawn(workload, HELD_OUT_SEED, 0, RUN_LIMIT_S)
        check(failures, held["error"] is None, f"no batch error ({held['error']})")
        check(failures, not held["checks_failed"],
              f"checks_failed = {len(held['checks_failed'])} of {held['checks_total']}")
        check(failures, held["points_failed"] == 0,
              f"points_failed_frac = {held['points_failed']}/{held['points_attempted']}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: groups of the harness's quick-scale figure plans.

Each workload is a list of :class:`~repro.harness.plan.RunPlan`\\ s that
one process hands to ``execute_plans`` with a ``SerialExecutor`` and no
result cache, exactly as ``python -m repro.harness.cli --jobs 1`` does.
Plans run with one repetition per point instead of the quick scale's two,
so that several batches fit in one measured run.  Where a whole figure
does not fit, the workload runs a subset of its points through a plan of
its own (:func:`_points_plan`); such a plan has no shape checks, so it
adds nothing to ``checks_failed``.

Why each workload exists (see README.md for the layer table):

- ``daos-ior`` -- IOR over every DAOS client path, 1 MiB and 1 KiB ops,
  RP_2 and cohorts.  Host time goes to DAOS charge/placement arithmetic
  and the IOR driver, not the flow solver.
- ``nwp-apps`` -- fdb-hammer on DAOS, Lustre and Ceph plus Field I/O:
  fdb key building, Ceph PG hashing, DAOS KV load computation.  Keys are
  unique per rank, unlike the repeating IOR layouts.
- ``degraded-exact`` -- exact-mode IOR across a target failure and
  rebuild, plus one point whose writes are retried across a short server
  crash: the event calendar, the flow solver and the functional DAOS
  data path dominate.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.harness import figures
from repro.harness.experiment import PointSpec
from repro.harness.plan import RunPlan, make_plan
from repro.units import GiB

#: repetitions per point (the quick scale uses 2; see module docstring)
REPS = 1
#: process-per-node count of the trimmed nwp-apps sweep points
NWP_PPN = 16


def _one_rep(fig_id: str) -> RunPlan:
    plan = figures.plan_figure(fig_id, "quick")
    return make_plan(plan.fig_id, plan.scale, REPS, plan.specs, plan.assembler)


def _points_plan(fig_id: str, labelled: Sequence[Tuple[str, PointSpec]]) -> RunPlan:
    """A plan over chosen points whose figure has one write and one read
    series per point (GiB/s, mean and std over repetitions), no checks."""
    labelled = list(labelled)
    if not labelled:
        raise ValueError(f"{fig_id}: no points selected")

    def assemble(results) -> figures.FigureResult:
        panels: Dict[str, List[figures.Series]] = {"write": [], "read": []}
        for label, spec in labelled:
            point = results[spec]
            for phase, (mean, std) in (("write", point.write_bw), ("read", point.read_bw)):
                panels[phase].append(
                    figures.Series(label, [float(spec.total_processes)], [mean / GiB], [std / GiB])
                )
        return figures.FigureResult(
            fig_id=fig_id,
            title=f"{fig_id}: selected points",
            xlabel="total processes",
            panels=panels,
            paper_expectation="",
        )

    return make_plan(fig_id, "quick", REPS, [spec for _, spec in labelled], assemble)


def _daos_ior() -> List[RunPlan]:
    return [_one_rep(fig) for fig in ("F1", "F2", "F4", "RP2", "SC")]


def _nwp_apps() -> List[RunPlan]:
    store_label = {"daos": "fdb DAOS", "lustre": "fdb Lustre", "ceph": "fdb Ceph"}
    fdb = [
        (store_label[spec.store], spec)
        for spec in figures.plan_figure("F9", "quick").specs
        if spec.ppn == NWP_PPN
    ]
    fieldio = [
        ("Field I/O", spec)
        for spec in figures.plan_figure("F3", "quick").specs
        if spec.workload == "fieldio" and spec.ppn == NWP_PPN
    ]
    return [_points_plan("NWP", fdb + fieldio)]


def _degraded_exact() -> List[RunPlan]:
    fd = _one_rep("FD")
    # FD's failure lands in the read phase, where RP_2/EC fail over and SX
    # loses ops, so nothing is retried.  A 2 ms server crash in the write
    # phase of the SX point makes the client retry policy run as well.
    sx = next(spec for spec in fd.specs if spec.object_class == "SX")
    blip = sx.with_(faults="server@write+0.02:1,recover=0.002")
    # FD's points again (deduplicated, so not run twice) expose the healthy
    # write phase that FD's own figure does not plot.
    points = [(spec.object_class, spec) for spec in fd.specs]
    return [fd, _points_plan("FD-write", points + [("SX server blip", blip)])]


WORKLOADS: Dict[str, Callable[[], List[RunPlan]]] = {
    "daos-ior": _daos_ior,
    "nwp-apps": _nwp_apps,
    "degraded-exact": _degraded_exact,
}


def modelled_ops(plans: Sequence[RunPlan]) -> int:
    """Modelled write + read ops over every unique point and repetition."""
    tasks = {(spec, plan.reps) for plan in plans for spec in plan.specs}
    return sum(
        2 * spec.modelled_processes * spec.ops_per_process * reps for spec, reps in tasks
    )

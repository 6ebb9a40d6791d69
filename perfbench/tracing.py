"""Spans and call counts around each layer's public functions.

The traced batch wraps the functions below before it plans anything.
Every wrapper is installed on *every* binding of the function: a name
imported with ``from module import name`` (``stable_hash64`` in
``ceph/placement.py``, ``place_groups`` in ``daos/obj.py``,
``key_sequence`` in ``workloads/fdb_hammer.py``, ...) is a second
reference that patching the defining module alone would miss, and the
layer would read zero.  Methods are patched on their class.

Three kinds of wrapper:

- ``SPANS`` -- few calls per point; each call is kept as a span
  ``(id, name, start, end, parent)``;
- ``TIMED`` -- hot plain functions; calls, total and self time are
  accumulated per name (keeping every call would cost more memory than
  the simulation);
- ``COUNTED`` -- generator functions (a client op's work runs later,
  inside the event loop, so an outer timer would read only the creation
  of the generator) and ``stable_hash64``, which is too cheap to time:
  calls are counted, not timed.

Self time is a span's duration minus the durations of the timed spans
directly inside it.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.ceph.placement import PgMap
from repro.daos.array import DaosArray
from repro.daos.kv import DaosKV
from repro.hardware.cluster import Cluster
from repro.harness import experiment, figures, plan
from repro.lustre.client import LustreClient
from repro.sim.core import Simulator
from repro.workloads import fdb_hammer, fieldio, ior
import repro.daos.placement
import repro.fdb.schema
import repro.sim.randomness

#: (span name, owner, attribute): owner is a module (every binding of the
#: function is patched) or a class (the method is patched)
SPANS = (
    ("harness.plan", figures, "plan_figure"),
    ("harness.plan", plan, "dedupe_plans"),
    ("harness.point", experiment, "run_point"),
    ("harness.assemble", plan.RunPlan, "assemble"),
    ("hardware.cluster_build", Cluster, "__init__"),
    ("workloads.driver", ior, "run_ior"),
    ("workloads.driver", fdb_hammer, "run_fdb_hammer"),
    ("workloads.driver", fieldio, "run_fieldio"),
    ("sim.run", Simulator, "run"),
)
TIMED = (
    ("daos.charges", DaosArray, "bulk_charges"),
    ("daos.kv_loads", DaosKV, "bulk_op_loads"),
    ("daos.placement", repro.daos.placement, "place_groups"),
    ("daos.data", DaosArray, "read"),
    ("daos.data", DaosArray, "write"),
    ("ceph.pg_of", PgMap, "pg_of"),
    ("fdb.make_key", repro.fdb.schema, "make_key"),
)
COUNTED = (
    ("sim.hash", repro.sim.randomness, "stable_hash64"),
    ("fdb.key_sequence", repro.fdb.schema, "key_sequence"),
    ("lustre.mds_request", LustreClient, "mds_request"),
)

Span = Tuple[int, str, float, float, Optional[int]]


class Recorder:
    """In-memory spans and per-name totals; nothing is written until the
    batch ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: name -> calls, for COUNTED functions
        self.counts: Dict[str, int] = {}
        # open frames: [start, child seconds, kept-span id of this frame or
        # of its nearest kept ancestor]
        self._stack: List[List[Any]] = []

    def _timed(self, name: str, fn: Callable[..., Any], keep: bool) -> Callable[..., Any]:
        stack = self._stack
        cell = self.totals.setdefault(name, [0, 0.0, 0.0])
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][2] if stack else None
            sid = len(spans) if keep else parent
            if keep:
                spans.append((sid, name, 0.0, 0.0, parent))  # filled on exit
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep:
                    spans[sid] = (sid, name, frame[0], end, parent)

        return wrapper

    def _counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for group, make in (
            (SPANS, lambda n, f: self._timed(n, f, keep=True)),
            (TIMED, lambda n, f: self._timed(n, f, keep=False)),
            (COUNTED, self._counted),
        ):
            for name, owner, attr in group:
                original = getattr(owner, attr)
                wrapped = make(name, original)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                else:
                    _rebind(original, wrapped)

    def calls(self, name: str) -> int:
        if name in self.counts:
            return self.counts[name]
        return int(self.totals[name][0])

    def seconds(self, name: str) -> float:
        return self.totals[name][1]

    def self_seconds(self, name: str) -> float:
        return self.totals[name][2]

    def durations(self, name: str) -> List[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]


def _rebind(original: Callable[..., Any], wrapped: Callable[..., Any]) -> None:
    """Point every module-level binding of ``original`` in the ``repro``
    package at ``wrapped``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)

"""Charge profiles: the vectorised IOR charge fold against its scalar
reference, aggregate-mode data loss, layout isolation, and the memoised
cohort weight.

The references below are the per-group ``bulk_charges`` loop and the
rank-by-rank dict fold that the profiles replace.  They live here, not
in ``src/``, so the comparison keeps an independent oracle: every charge
must match bit for bit (``float.hex``) and in dict key order.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np
import pytest

from repro.daos.array import DaosArray
from repro.daos.client import _EXACT_COHORT_SUM, cohort_weight
from repro.daos.container import Container
from repro.daos.pool import Pool, Target
from repro.daos.rebuild import run_rebuild
from repro.errors import DataLossError
from repro.hardware import Cluster
from repro.units import KiB, MiB
from repro.workloads import ior
from repro.workloads.common import DaosEnv, WorkloadConfig
from repro.workloads.ior import charge_profile, run_ior


# ---------------------------------------------------------------------------
# scalar references


def reference_bulk_charges(arr: DaosArray, kind: str, nbytes: int) -> Dict[Target, float]:
    """The per-group, per-member loop with an ``add`` closure."""
    charges: Dict[Target, float] = {}
    share = nbytes / arr.n_groups

    def add(target: Target, amount: float) -> None:
        charges[target] = charges.get(target, 0.0) + amount

    for group in arr.groups:
        if arr.oc.is_ec:
            k = arr.oc.ec_k
            if kind == "write":
                for member in group:
                    add(member, share / k)
            else:
                served = 0
                for member in group:
                    if served >= k:
                        break
                    if member.alive:
                        add(member, share / k)
                        served += 1
        elif arr.oc.is_replicated:
            for member in group:
                if member.alive:
                    add(member, share)
                    if kind == "read":
                        break
        else:
            add(group[0], share)
    return charges


def reference_fold(arrays: List[DaosArray], kind: str, nbytes: int) -> Dict[Target, float]:
    """Rank by rank, target by target: unit charges scaled and summed."""
    charges: Dict[Target, float] = {}
    for arr in arrays:
        for target, nb in reference_bulk_charges(arr, kind, 1).items():
            charges[target] = charges.get(target, 0.0) + nb * nbytes
    return charges


def bits(charges: Dict[Target, float]) -> List[Tuple[int, str]]:
    return [(id(t), float(v).hex()) for t, v in charges.items()]


def container(n_servers: int = 4, materialize: bool = False) -> Container:
    pool = Pool(Cluster(n_servers=n_servers, n_clients=1, seed=0))
    return pool.create_container("c", materialize=materialize)


CLASSES = ("SX", "RP_2", "RP_2GX", "EC_2P1", "EC_2P1GX")


# ---------------------------------------------------------------------------
# bulk_charges against the reference loop


@pytest.mark.parametrize("oc", CLASSES)
@pytest.mark.parametrize("kind", ["write", "read"])
@pytest.mark.parametrize("nbytes", [1, 3 * MiB, 7 * KiB + 3])
def test_bulk_charges_bitwise_equals_reference(oc, kind, nbytes):
    cont = container()
    for _ in range(4):
        arr = cont.new_array(oc, chunk_size=MiB)
        assert bits(arr.bulk_charges(kind, nbytes)) == bits(
            reference_bulk_charges(arr, kind, nbytes)
        )


@pytest.mark.parametrize("oc", ["RP_2GX", "EC_2P1GX"])
def test_bulk_charges_degraded_groups_equal_reference(oc):
    """One dead member per affected group: replicas fail over, EC reads
    skip the dead cell, writes skip (RP) or still charge (EC) it."""
    cont = container()
    arr = cont.new_array(oc, chunk_size=MiB)
    cont.pool.fail_target(arr.groups[0][0].global_index)
    for kind in ("write", "read"):
        assert bits(arr.bulk_charges(kind, MiB)) == bits(
            reference_bulk_charges(arr, kind, MiB)
        )


def test_plain_charges_fold_when_two_groups_share_a_target():
    """The plain-class shortcut must fall back to the sequential sum."""
    cont = container()
    arr = cont.new_array("SX", chunk_size=MiB)
    arr.groups[1][0] = arr.groups[0][0]
    assert bits(arr.bulk_charges("write", 3 * MiB)) == bits(
        reference_bulk_charges(arr, "write", 3 * MiB)
    )


# ---------------------------------------------------------------------------
# aggregate-mode reads of dead groups lose the data, as exact mode does


def _kill_group(arr: DaosArray, gi: int = 0) -> None:
    for member in arr.groups[gi]:
        if member.alive:
            arr.container.pool.fail_target(member.global_index)


@pytest.mark.parametrize("oc", ["SX", "RP_2", "EC_2P1"])
def test_bulk_read_of_dead_group_raises_data_loss(oc):
    arr = container().new_array(oc, chunk_size=MiB)
    _kill_group(arr)
    with pytest.raises(DataLossError):
        arr.bulk_charges("read", MiB)


def test_bulk_read_of_ec_group_below_k_raises_data_loss():
    arr = container().new_array("EC_2P1", chunk_size=MiB)
    pool = arr.container.pool
    for member in arr.groups[0][:2]:  # two of three cells: k=2 not reachable
        pool.fail_target(member.global_index)
    with pytest.raises(DataLossError):
        arr.bulk_charges("read", MiB)


@pytest.mark.parametrize("oc", ["SX", "RP_2", "EC_2P1"])
def test_exact_read_of_dead_group_raises_data_loss(oc):
    """The functional path the aggregate fast path must agree with."""
    arr = container(materialize=True).new_array(oc, chunk_size=4 * KiB)
    arr.write(0, bytes(4 * KiB))
    _kill_group(arr)
    with pytest.raises(DataLossError):
        arr.read(0, 4 * KiB)


@pytest.mark.parametrize("oc", ["SX", "RP_2", "EC_2P1"])
def test_aggregate_ior_records_dead_read_batches_as_lost(oc):
    env = DaosEnv(Cluster(n_servers=4, n_clients=1, seed=0))
    cfg = WorkloadConfig(
        n_client_nodes=1, ppn=2, ops_per_process=8, batches=2,
        write_phase=False, object_class=oc,
    )
    for target in env.pool.targets:
        env.pool.fail_target(target.global_index)
    rec = run_ior(env, cfg, "DAOS")
    assert rec.lost_ops("read") == 2 * 8
    assert rec.bandwidth("read") == 0.0


# ---------------------------------------------------------------------------
# the profile fold against the reference, through every runner that uses it


def _check_charges(monkeypatch, fail_after_first: bool = False) -> List[str]:
    """Wrap ``_DaosIor._charges`` so every batch is compared with the
    reference fold; returns the phases checked."""
    original = ior._DaosIor._charges
    seen: List[str] = []

    def checked(self: Any, states: Any, phase: str, ops: int) -> Dict[Target, float]:
        got = original(self, states, phase, ops)
        kind = "write" if phase == "write" else "read"
        arrays = [self._array_of(s) for s in states]
        want = reference_fold(arrays, kind, ops * self.cfg.op_size)
        assert bits(got) == bits(want)
        if fail_after_first and not seen:
            # between batches: the next call must see the new pool map
            pool = arrays[0].container.pool
            pool.fail_target(arrays[0].groups[0][0].global_index)
        seen.append(phase)
        return got

    monkeypatch.setattr(ior._DaosIor, "_charges", checked)
    return seen


def _run(api: str, cohort: int = 1, **cfg_kwargs: Any):
    env = DaosEnv(Cluster(n_servers=4, n_clients=2, seed=3), cohort=cohort)
    cfg = WorkloadConfig(
        n_client_nodes=2, ppn=3, ops_per_process=9, batches=3, cohort=cohort,
        **cfg_kwargs,
    )
    return run_ior(env, cfg, api)


@pytest.mark.parametrize("api", ["DAOS", "DFS", "POSIX", "POSIX+IL"])
@pytest.mark.parametrize("oc", ["SX", "RP_2GX", "EC_2P1GX"])
def test_profile_fold_bitwise_equals_reference(monkeypatch, api, oc):
    seen = _check_charges(monkeypatch)
    _run(api, object_class=oc)
    assert seen.count("write") == seen.count("read") == 2 * 3


@pytest.mark.parametrize("api", ["DAOS", "DFS"])
def test_profile_fold_shared_file(monkeypatch, api):
    """Every row is the same array: still a row-by-row fold, not k * x."""
    seen = _check_charges(monkeypatch)
    _run(api, shared_file=True)
    assert len(seen) == 2 * 2 * 3


def test_profile_fold_cohort(monkeypatch):
    seen = _check_charges(monkeypatch)
    _run("DAOS", cohort=2)
    assert len(seen) == 2 * 2 * 3


@pytest.mark.parametrize("api", ["DAOS", "POSIX"])
def test_profile_invalidated_by_fail_target(monkeypatch, api):
    seen = _check_charges(monkeypatch, fail_after_first=True)
    rec = _run(api, object_class="RP_2GX")
    assert len(seen) == 2 * 2 * 3
    assert rec.lost_ops("write") == rec.lost_ops("read") == 0


def test_profile_invalidated_by_rebuild_relayout():
    env = DaosEnv(Cluster(n_servers=4, n_clients=1, seed=0))
    cont = env.pool.create_container("c", materialize=False)
    arrays = [cont.new_array("RP_2GX", chunk_size=MiB) for _ in range(3)]
    runner = ior._DaosIor(env, WorkloadConfig(n_client_nodes=1, ppn=3, object_class="RP_2GX"))
    states = [(None, arr) for arr in arrays]
    before = runner._charges(states, "write", 4)
    victim = arrays[0].groups[0][0]
    env.pool.fail_target(victim.global_index)
    degraded = runner._charges(states, "write", 4)
    assert victim in before and victim not in degraded
    proc = env.cluster.sim.process(run_rebuild(env.pool, victim))
    env.cluster.sim.run()
    assert proc.result.shards_rebuilt > 0
    # the relayout moved shards onto replacements: the degraded profile
    # is stale and must not be reused
    rebuilt = runner._charges(states, "write", 4)
    assert bits(rebuilt) != bits(degraded)
    assert bits(rebuilt) == bits(reference_fold(arrays, "write", 4 * MiB))


def test_charge_profile_layout():
    """Rows in input order, columns in first-appearance order, zeros where
    an array does not touch a target; one bulk_charges per array."""
    cont = container()
    a, b = cont.new_array("RP_2", chunk_size=MiB), cont.new_array("RP_2", chunk_size=MiB)
    targets, matrix = charge_profile([a, b, a], "write")
    units = [reference_bulk_charges(x, "write", 1) for x in (a, b, a)]
    assert targets == list(dict.fromkeys(t for u in units for t in u))
    for row, unit in zip(matrix, units):
        assert row.tolist() == [unit.get(t, 0.0) for t in targets]
    assert matrix.dtype == np.float64


# ---------------------------------------------------------------------------
# layouts are private to each object


def test_layout_isolation_under_rebuild():
    """Two arrays starting at the same ring slot: a rebuild rewriting a
    member of one must leave the other's groups untouched."""
    cont = container(materialize=True)
    a = cont.new_array("RP_2GX", chunk_size=4 * KiB)
    a.write(0, bytes(range(256)) * 64)
    # an unregistered twin (the rebuild only walks registered objects)
    # with a different OID whose placement starts on the same slot
    twin = None
    for _ in range(10_000):
        candidate = DaosArray(cont, cont.alloc_oid(), a.oc, chunk_size=4 * KiB)
        if candidate.groups[0][0] is a.groups[0][0]:
            twin = candidate
            break
    assert twin is not None
    twin_before = [list(g) for g in twin.groups]
    assert twin_before == [list(g) for g in a.groups]
    victim = a.groups[0][1]
    pool = cont.pool
    pool.fail_target(victim.global_index)
    proc = pool.cluster.sim.process(run_rebuild(pool, victim))
    pool.cluster.sim.run()
    assert proc.result.shards_rebuilt > 0
    assert a.groups[0][1] is not victim
    assert [list(g) for g in twin.groups] == twin_before
    assert all(g is not h for g in a.groups for h in twin.groups)


# ---------------------------------------------------------------------------
# memoised cohort weight


@pytest.mark.parametrize("w", [0.1, 1.0 / 3.0, 7.3e-4])
@pytest.mark.parametrize("n", [1, 2, 3, _EXACT_COHORT_SUM])
def test_cohort_weight_memo_equals_explicit_fold(w, n):
    total = 0.0
    for _ in range(n):
        total += w
    assert cohort_weight(w, n) == total  # exact: fold-sum contract
    hits = cohort_weight.cache_info().hits
    assert cohort_weight(w, n) == total  # exact: the memoised value
    assert cohort_weight.cache_info().hits == hits + 1


def test_cohort_weight_memo_above_threshold_multiplies():
    n = _EXACT_COHORT_SUM + 1
    for w in (0.1, 1.0 / 3.0):
        assert cohort_weight(w, n) == n * w  # exact: same expression
        assert cohort_weight(w, n) == n * w  # exact: memoised

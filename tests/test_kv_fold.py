"""KV load fold and key sweeps: the cached serving layout and the batch
fold against their scalar references, the validated-once key sweep, and
the allocation-free key strings and Ceph primary lookup.

The references below are the per-group ``bulk_op_loads`` loop, the
dict-by-dict ``merge`` closure of the Field I/O and fdb-hammer batches,
a ``make_key``-per-field key sweep and the dict-based key strings that
the fast paths replace.  They live here, not in ``src/``, so the
comparison keeps an independent oracle: every load must match bit for
bit (``float.hex``) and in dict key order.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterator, List, Tuple

import pytest

from repro.ceph.placement import PgMap
from repro.daos.container import Container
from repro.daos.kv import DaosKV
from repro.daos.pool import Pool, Target
from repro.daos.rebuild import run_rebuild
from repro.errors import InvalidArgumentError, UnavailableError
from repro.fdb.schema import SCHEMA_KEYS, FdbKey, key_sequence, make_key
from repro.hardware import Cluster
from repro.workloads import fdb_hammer, fieldio, ior
from repro.workloads.common import DaosEnv, WorkloadConfig
from repro.workloads.fdb_hammer import run_fdb_hammer
from repro.workloads.fieldio import run_fieldio


# ---------------------------------------------------------------------------
# scalar references

Loads = Tuple[Dict[Target, float], Dict[Any, float]]


def reference_loads(kv: DaosKV, kind: str, n_ops: float, value_size: float) -> Loads:
    """The per-group walk: every serving target and its engine, in group
    order, each added ``n_ops / n_groups`` (times the value size)."""
    charges: Dict[Target, float] = {}
    engine_ops: Dict[Any, float] = {}
    per_group = n_ops / kv.n_groups
    for group in kv.groups:
        members = [t for t in group if t.alive]
        if not members:
            raise UnavailableError("KV group fully down")
        serving = members if kind == "put" else members[:1]
        for target in serving:
            charges[target] = charges.get(target, 0.0) + per_group * value_size
            engine_ops[target.engine] = engine_ops.get(target.engine, 0.0) + per_group
    return charges, engine_ops


def reference_merge(charges: Dict[Target, float], req: Dict[Any, float],
                    loads: List[Loads]) -> Loads:
    """The ``merge`` closure, applied once per KV in batch order."""
    charges, req = dict(charges), dict(req)
    for c, e in loads:
        for t, nb in c.items():
            charges[t] = charges.get(t, 0.0) + nb
        for eng, n in e.items():
            req[eng] = req.get(eng, 0.0) + n
    return charges, req


def reference_sweep(n_fields: int, member: int = 0, **kwargs: Any) -> Iterator[FdbKey]:
    """One validated ``make_key`` per field, step-level-param order."""
    params = kwargs.get("params", (129, 130, 131, 132, 133))
    levels = kwargs.get("levels", (1000, 850, 700, 500, 300, 100))
    count, step = 0, 0
    while count < n_fields:
        for level in levels:
            for param in params:
                if count >= n_fields:
                    return
                yield make_key(
                    class_="od", stream="enfo", expver="0001",
                    date=kwargs.get("date", 20240101), time="0000", domain="g",
                    type="pf", levtype="pl", step=step, param=param,
                    levelist=f"{level}.{member}",
                )
                count += 1
        step += 6


def reference_canonical(key: FdbKey) -> str:
    d = dict(key.items)
    return ",".join(f"{k}={d[k]}" for k in SCHEMA_KEYS if k in d)


def reference_index_group(key: FdbKey) -> str:
    d = dict(key.items)
    return ",".join(f"{k}={d[k]}" for k in ("class", "stream", "expver", "date", "time") if k in d)


def bits(loads: Dict[Any, float]) -> List[Tuple[int, str]]:
    return [(id(k), float(v).hex()) for k, v in loads.items()]


def same(got: Loads, want: Loads) -> bool:
    return bits(got[0]) == bits(want[0]) and bits(got[1]) == bits(want[1])


def container(n_servers: int = 4) -> Container:
    pool = Pool(Cluster(n_servers=n_servers, n_clients=1, seed=0))
    return pool.create_container("c", materialize=False)


CLASSES = ("S1", "SX", "RP_2", "RP_2GX")
#: op counts whose per-group share is inexact in binary (1/3, 7/64, ...)
N_OPS = (1, 7, 96, 10_000 / 3)


# ---------------------------------------------------------------------------
# bulk_op_loads against the per-group walk


@pytest.mark.parametrize("oc", CLASSES)
@pytest.mark.parametrize("kind", ["put", "get"])
@pytest.mark.parametrize("n_ops", N_OPS)
def test_loads_bitwise_equal_reference(oc, kind, n_ops):
    cont = container()
    for value_size in (24, 192):
        kv = cont.new_kv(oc)
        for _ in range(2):  # the second call reads the cached layout
            assert same(kv.bulk_op_loads(kind, n_ops, value_size),
                        reference_loads(kv, kind, n_ops, value_size))


@pytest.mark.parametrize("kind", ["put", "get"])
def test_loads_when_a_target_serves_several_groups(kind):
    """m > 1: the target's share is added once per group, not m * x."""
    kv = container().new_kv("SX")
    for gi in (1, 2, 5):
        kv.groups[gi][0] = kv.groups[0][0]
    served = Counter(g[0] for g in kv.groups)
    assert served[kv.groups[0][0]] == 4
    for n_ops in N_OPS:
        assert same(kv.bulk_op_loads(kind, n_ops, 192), reference_loads(kv, kind, n_ops, 192))


def test_layout_dropped_by_fail_and_restore_target():
    kv = container().new_kv("RP_2GX")
    pool = kv.container.pool
    victim = kv.groups[0][0]
    before = kv.bulk_op_loads("put", 7, 24)
    pool.fail_target(victim.global_index)
    degraded = kv.bulk_op_loads("put", 7, 24)
    assert victim in before[0] and victim not in degraded[0]
    assert same(degraded, reference_loads(kv, "put", 7, 24))
    # gets fail over to the group's second replica
    assert same(kv.bulk_op_loads("get", 7, 24), reference_loads(kv, "get", 7, 24))
    pool.restore_target(victim.global_index)
    assert same(kv.bulk_op_loads("put", 7, 24), before)


def test_layout_dropped_by_rebuild_relocation():
    """A rebuild moves shards onto live targets, which then serve two
    groups: a real m > 1 layout reached through the pool map."""
    env = DaosEnv(Cluster(n_servers=4, n_clients=1, seed=0))
    kv = env.pool.create_container("c", materialize=False).new_kv("RP_2GX")
    victim = kv.groups[0][0]
    env.pool.fail_target(victim.global_index)
    degraded = kv.bulk_op_loads("put", 7, 24)
    proc = env.cluster.sim.process(run_rebuild(env.pool, victim))
    env.cluster.sim.run()
    assert proc.result.shards_rebuilt > 0
    rebuilt = kv.bulk_op_loads("put", 7, 24)
    assert max(Counter(t for g in kv.groups for t in g).values()) > 1
    assert bits(rebuilt[0]) != bits(degraded[0])
    assert same(rebuilt, reference_loads(kv, "put", 7, 24))


@pytest.mark.parametrize("oc", ["SX", "RP_2GX"])
@pytest.mark.parametrize("kind", ["put", "get"])
def test_fully_down_group_raises_unavailable(oc, kind):
    kv = container().new_kv(oc)
    kv.bulk_op_loads(kind, 7, 24)  # a cached layout must not hide the failure
    for member in kv.groups[0]:
        kv.container.pool.fail_target(member.global_index)
    with pytest.raises(UnavailableError):
        kv.bulk_op_loads(kind, 7, 24)
    with pytest.raises(UnavailableError):  # nothing was cached by the raise
        kv.bulk_op_loads(kind, 7, 24)


def test_loads_reject_unknown_kind():
    with pytest.raises(InvalidArgumentError):
        container().new_kv("SX").bulk_op_loads("scan", 1, 24)


# ---------------------------------------------------------------------------
# the batch fold against the merge closure, through both runners


def _check_folds(monkeypatch, fail_after_first: bool = False) -> List[str]:
    """Wrap ``fold_kv_loads`` where Field I/O and fdb-hammer call it, so
    every batch is compared with the merge closure; returns the kinds
    checked."""
    original = ior.fold_kv_loads
    seen: List[str] = []

    def checked(charges: Any, req: Any, kv_ops: Any, kind: str, value_size: float) -> Loads:
        kv_ops = list(kv_ops)
        want = reference_merge(
            charges, req, [reference_loads(kv, kind, n, value_size) for kv, n in kv_ops]
        )
        got = original(charges, req, kv_ops, kind, value_size)
        assert same(got, want)
        if fail_after_first and not seen:
            # between batches: the next call must see the new pool map
            kv = kv_ops[-1][0]
            kv.container.pool.fail_target(kv.groups[0][0].global_index)
        seen.append(kind)
        return got

    monkeypatch.setattr(fieldio, "fold_kv_loads", checked)
    monkeypatch.setattr(fdb_hammer, "fold_kv_loads", checked)
    return seen


def _cfg(**kwargs: Any) -> WorkloadConfig:
    return WorkloadConfig(n_client_nodes=2, ppn=3, ops_per_process=9, batches=3, **kwargs)


def _env() -> DaosEnv:
    return DaosEnv(Cluster(n_servers=4, n_clients=2, seed=3))


@pytest.mark.parametrize("kv_class", ["S1", "SX", "RP_2GX"])
def test_fieldio_fold_bitwise_equals_merge(monkeypatch, kv_class):
    seen = _check_folds(monkeypatch)
    run_fieldio(_env(), _cfg(kv_object_class=kv_class))
    assert seen.count("put") == seen.count("get") == 2 * 3


@pytest.mark.parametrize("kv_class", ["S1", "SX", "RP_2"])
def test_fdb_hammer_fold_bitwise_equals_merge(monkeypatch, kv_class):
    seen = _check_folds(monkeypatch)
    run_fdb_hammer(_env(), _cfg(), "DAOS", kv_class=kv_class)
    assert seen.count("put") == seen.count("get") == 2 * 3


def test_fold_sees_fail_target_between_batches(monkeypatch):
    seen = _check_folds(monkeypatch, fail_after_first=True)
    rec = run_fieldio(_env(), _cfg(kv_object_class="RP_2GX"))
    assert len(seen) == 2 * 2 * 3
    assert rec.lost_ops("write") == rec.lost_ops("read") == 0


def test_fold_computes_each_shared_kv_once(monkeypatch):
    """Loads are built once per distinct (kv, n_ops), then folded once per
    use: three ranks sharing one KV add its row three times, and the same
    KV with another op count is a row of its own."""
    cont = container()
    shared, own = cont.new_kv("SX"), [cont.new_kv("SX") for _ in range(3)]
    calls: List[Tuple[int, float]] = []
    original = DaosKV.bulk_op_loads

    def counted(self: DaosKV, kind: str, n_ops: float, value_size: float) -> Loads:
        calls.append((id(self), n_ops))
        return original(self, kind, n_ops, value_size)

    monkeypatch.setattr(DaosKV, "bulk_op_loads", counted)
    charges = ior.uniform_target_charges(cont.pool, 3 * 9 * 1024.0)
    req = ior.engine_request_ops(charges, 27)
    kv_ops = [pair for kv in own for pair in ((shared, 9), (kv, 63))] + [(shared, 18)]
    got = ior.fold_kv_loads(charges, req, kv_ops, "put", 192)
    assert sorted(calls) == sorted({(id(kv), n) for kv, n in kv_ops})
    want = reference_merge(charges, req, [reference_loads(kv, "put", n, 192) for kv, n in kv_ops])
    assert same(got, want)


def test_row_matrix_copies_repeated_rows():
    a, b = {"x": 0.1, "y": 0.2}, {"z": 1 / 3, "x": 0.7}
    keys, matrix = ior.row_matrix([a, b, a, a])
    assert keys == ["x", "y", "z"]
    assert matrix.tolist() == [[0.1, 0.2, 0.0], [0.7, 0.0, 1 / 3], [0.1, 0.2, 0.0], [0.1, 0.2, 0.0]]
    acc = ior.fold_rows(matrix).tolist()
    assert [v.hex() for v in acc] == [v.hex() for v in ((((0.0 + 0.1) + 0.7) + 0.1) + 0.1,
                                                       (0.2 + 0.2) + 0.2, 1 / 3)]


# ---------------------------------------------------------------------------
# key sweeps: validated once, equal to a make_key per field


@pytest.mark.parametrize("n_fields", [0, 1, 29, 30, 31, 96])
@pytest.mark.parametrize("member", [0, 3, 17])
def test_key_sequence_equals_make_key_reference(n_fields, member):
    got = list(key_sequence(n_fields, member=member))
    want = list(reference_sweep(n_fields, member=member))
    assert len(got) == n_fields
    assert got == want
    for g, w in zip(got, want):
        assert type(g) is FdbKey
        assert g.items == w.items
        assert hash(g) == hash(w)
        assert g.canonical() == w.canonical()
        assert g.index_group() == w.index_group()


def test_key_sequence_custom_axes():
    kwargs = dict(date=20250101, params=(7,), levels=(10, 20))
    got = list(key_sequence(5, member=2, **kwargs))
    assert got == list(reference_sweep(5, member=2, **kwargs))
    assert [dict(k.items)["step"] for k in got] == ["0", "0", "6", "6", "12"]


def test_key_sequence_validates_once(monkeypatch):
    from repro.fdb import schema

    built: List[FdbKey] = []
    original = schema.make_key

    def counted(**attrs: Any) -> FdbKey:
        built.append(original(**attrs))
        return built[-1]

    monkeypatch.setattr(schema, "make_key", counted)
    keys = list(schema.key_sequence(31, member=1))
    assert len(built) == 1 and keys[0] is built[0]
    # later keys share the first key's constant head items
    assert all(k.items[i] is keys[0].items[i] for k in keys for i in range(8))
    assert list(schema.key_sequence(0)) == [] and len(built) == 1


@pytest.mark.parametrize("axes", [dict(params=()), dict(levels=()), dict(params=(), levels=())])
def test_key_sequence_rejects_empty_axes(axes):
    with pytest.raises(InvalidArgumentError):
        key_sequence(3, **axes)
    assert list(key_sequence(0, **axes)) == []


# ---------------------------------------------------------------------------
# key strings without a per-call dict


def test_canonical_and_index_group_of_out_of_order_key():
    ordered = make_key(class_="od", stream="oper", expver="0001", date=20240101, time=0,
                       step=0, param=130, levelist=500)
    shuffled = FdbKey(tuple(reversed(ordered.items)))
    partial = FdbKey((("step", "6"), ("time", "12"), ("class", "rd"), ("param", "1"),
                      ("date", "2"), ("stream", "oper")))
    for key in (ordered, shuffled, partial):
        assert key.canonical() == reference_canonical(key)
        assert key.index_group() == reference_index_group(key)
        assert str(key) == reference_canonical(key)
    assert shuffled.canonical() == ordered.canonical()
    assert partial.index_group() == "class=rd,stream=oper,date=2,time=12"


# ---------------------------------------------------------------------------
# the Ceph primary lookup


def test_pgmap_primary_is_first_of_acting_set(monkeypatch):
    pgmap = _pgmap()
    calls = Counter()
    original = PgMap.pg_of

    def counted(self: PgMap, name: str) -> int:
        calls[name] += 1
        return original(self, name)

    monkeypatch.setattr(PgMap, "pg_of", counted)
    for i in range(200):
        name = f"obj.{i}"
        assert pgmap.primary(name) is pgmap.acting_set(name)[0]
        assert calls[name] == 2  # one hash per lookup, as before


def _pgmap() -> PgMap:
    from repro.workloads.common import CephEnv

    env = CephEnv(Cluster(n_servers=4, n_clients=1, seed=0))
    return PgMap("fdb", 64, env.ceph.osds, size=2)

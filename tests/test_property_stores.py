"""Property-based tests: store semantics against oracle models.

Each simulated store must behave, functionally, exactly like a plain
byte-array / dictionary oracle under arbitrary operation sequences —
regardless of sharding, replication, or erasure coding.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.daos import DaosArray, DaosKV, Pool
from repro.daos.objclass import ObjectClass
from repro.hardware import Cluster
from repro.units import KiB

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CHUNK = 1 * KiB
SPAN = 8 * CHUNK  # address space exercised


def make_pool():
    return Pool(Cluster(n_servers=3, n_clients=1, seed=0))


def make_array(pool, oc: str, materialize: bool = True) -> DaosArray:
    cont = pool.create_container(f"prop-{oc}-{pool.n_containers}", materialize=materialize)
    oid = cont.alloc_oid()
    arr = DaosArray(cont, oid, ObjectClass.parse(oc), chunk_size=CHUNK)
    cont.register(oid, arr)
    return arr


write_ops = st.lists(
    st.tuples(
        st.integers(0, SPAN - 1),  # offset
        st.binary(min_size=1, max_size=2 * CHUNK),  # data
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("oc", ["S1", "S2", "SX", "RP_2", "EC_2P1"])
@settings(**SETTINGS)
@given(ops=write_ops)
def test_array_matches_bytearray_oracle(oc, ops):
    """Arbitrary overlapping writes then a full read-back must equal a
    plain bytearray applying the same writes.  A non-materialised twin
    on an identical pool, given only the lengths, reads back zeros of
    the requested length and charges, extents and sizes exactly alike."""
    pool = make_pool()
    arr = make_array(pool, oc)
    twin = make_array(make_pool(), oc, materialize=False)

    def by_index(charges):
        return [(t.global_index, type(nb), nb) for t, nb in charges.items()]

    oracle = bytearray(SPAN + 2 * CHUNK)
    top = 0
    for offset, data in ops:
        charges = arr.write(offset, data)
        assert by_index(twin.write(offset, nbytes=len(data))) == by_index(charges)
        oracle[offset : offset + len(data)] = data
        top = max(top, offset + len(data))
    got, charges = arr.read(0, top)
    assert got == bytes(oracle[:top])
    assert arr.size() == top
    zeros, twin_charges = twin.read(0, top)
    assert type(zeros) is bytes and zeros == bytes(top)
    assert by_index(twin_charges) == by_index(charges)
    assert list(twin._extents.items()) == list(arr._extents.items())
    assert twin.size() == top


@pytest.mark.parametrize("oc", ["RP_2", "EC_2P1"])
@settings(**SETTINGS)
@given(ops=write_ops, data=st.data())
def test_array_oracle_survives_one_failure(oc, ops, data):
    """With single-failure redundancy, killing any one target of the
    object leaves every byte readable and correct."""
    pool = make_pool()
    arr = make_array(pool, oc)
    oracle = bytearray(SPAN + 2 * CHUNK)
    top = 0
    for offset, blob in ops:
        arr.write(offset, blob)
        oracle[offset : offset + len(blob)] = blob
        top = max(top, offset + len(blob))
    targets = arr.all_targets()
    victim = data.draw(st.sampled_from(targets))
    pool.fail_target(victim.global_index)
    got, _ = arr.read(0, top)
    assert got == bytes(oracle[:top])


@settings(**SETTINGS)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "remove"]),
            st.text(alphabet="abcdef", min_size=1, max_size=8),
            st.binary(max_size=64),
        ),
        max_size=25,
    )
)
def test_kv_matches_dict_oracle(ops):
    pool = make_pool()
    cont = pool.create_container("kv-prop")
    kv = DaosKV(cont, cont.alloc_oid(), ObjectClass.parse("S4"))
    oracle = {}
    for op, key, value in ops:
        if op == "put":
            kv.put(key, value)
            oracle[key] = value
        else:
            if key in oracle:
                kv.remove(key)
                del oracle[key]
    assert kv.keys() == set(oracle)
    for key, value in oracle.items():
        assert kv.get(key)[0] == value


@settings(**SETTINGS)
@given(ops=write_ops)
def test_lustre_matches_bytearray_oracle(ops):
    from repro.lustre import LustreClient, LustreFilesystem

    cluster = Cluster(n_servers=2, n_clients=1, seed=0)
    fs = LustreFilesystem(cluster)
    client = LustreClient(fs, cluster.clients[0])
    oracle = bytearray(SPAN + 2 * CHUNK)
    top = 0
    result = {}

    def flow():
        nonlocal top
        fh = yield from client.create("/prop", stripe_count=4, stripe_size=CHUNK)
        for offset, data in ops:
            yield from client.write(fh, offset, data)
            oracle[offset : offset + len(data)] = data
            top = max(top, offset + len(data))
        result["data"] = yield from client.read(fh, 0, top)

    cluster.sim.process(flow())
    cluster.sim.run()
    assert result["data"] == bytes(oracle[:top])


@settings(**SETTINGS)
@given(ops=write_ops)
def test_rados_matches_bytearray_oracle(ops):
    from repro.ceph import CephCluster, RadosClient

    cluster = Cluster(n_servers=2, n_clients=1, seed=0)
    ceph = CephCluster(cluster)
    client = RadosClient(ceph, cluster.clients[0])
    oracle = bytearray(SPAN + 2 * CHUNK)
    top = 0
    result = {}

    def flow():
        nonlocal top
        yield from client.connect()
        pool = yield from client.create_pool("prop")
        for offset, data in ops:
            yield from client.write(pool, "obj", offset, data)
            oracle[offset : offset + len(data)] = data
            top = max(top, offset + len(data))
        result["data"] = yield from client.read(pool, "obj", 0, top)

    cluster.sim.process(flow())
    cluster.sim.run()
    assert result["data"] == bytes(oracle[:top])

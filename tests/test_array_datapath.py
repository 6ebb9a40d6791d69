"""Exact-mode DAOS array data path: the copy-free read/write against the
copying implementation it replaced.

``CopyingArray`` below keeps the old ``_load_chunk``, ``_store_chunk``,
``write`` and ``read``: every write loaded or zero-filled a whole chunk,
every read assembled each chunk and copied the piece three times, even
for a non-materialised container whose bytes are all zeros.  The
references live here, not in ``src/``, so the comparison keeps an
independent oracle.  Each script runs on two identically built pools,
one holding a ``CopyingArray`` and one a ``DaosArray``; after every op
the returned bytes, the charges (type, value and key order), the raised
exception (type and message), the extents, ``size()``, ``failovers``,
the container epoch, the group layout, and every target's liveness,
device bytes and shard contents must be equal.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.daos import erasure
from repro.daos.array import DaosArray, _zeros
from repro.daos.objclass import ObjectClass
from repro.daos.pool import Pool, Target
from repro.daos.rebuild import run_rebuild
from repro.errors import (
    DataLossError,
    InvalidArgumentError,
    ReproError,
    UnavailableError,
)
from repro.hardware import Cluster
from repro.units import KiB

CHUNK = 1 * KiB


# ---------------------------------------------------------------------------
# copying reference


class CopyingArray(DaosArray):
    """The data path before it went copy-free, method for method."""

    def _load_chunk(self, chunk_idx: int) -> Optional[bytearray]:  # type: ignore[override]
        extent = self._extents.get(chunk_idx)
        if extent is None:
            return None
        gi = self._group_of_chunk(chunk_idx)
        buf = bytearray(self.chunk_size)
        if not self.materialize:
            return buf
        group = self.groups[gi]
        if self.oc.is_ec:
            k, p = self.oc.ec_k, self.oc.ec_p
            cells: Dict[int, bytes] = {}
            for member, target in enumerate(group):
                if not target.alive:
                    continue
                shard = target.array_shards.get(self.shard_key(gi, member))
                if shard is not None and chunk_idx in shard:
                    cells[member] = shard[chunk_idx]
            data_cells = self._resolve_cells(cells, k, p, chunk_idx)
            for j, cell in enumerate(data_cells):
                buf[j * self.cell_size : j * self.cell_size + len(cell)] = cell
        else:
            for member, target in enumerate(group):
                if not target.alive:
                    continue
                shard = target.array_shards.get(self.shard_key(gi, member))
                if shard is not None and chunk_idx in shard:
                    data = shard[chunk_idx]
                    buf[: len(data)] = data
                    break
            else:
                raise DataLossError(
                    f"chunk {chunk_idx} of {self.oid}: no live replica"
                )
        if extent < len(buf):
            buf[extent:] = bytes(len(buf) - extent)
        return buf

    def _store_chunk(self, chunk_idx: int, buf: bytearray, extent: int) -> Dict[Target, int]:  # type: ignore[override]
        gi = self._group_of_chunk(chunk_idx)
        group = self.groups[gi]
        charges: Dict[Target, int] = {}
        if self.oc.is_ec:
            k, p = self.oc.ec_k, self.oc.ec_p
            cell = self.cell_size
            data_cells = [bytes(buf[j * cell : (j + 1) * cell]) for j in range(k)]
            alive_total = sum(1 for t in group if t.alive)
            if alive_total < k:
                raise UnavailableError(
                    f"chunk {chunk_idx} of {self.oid}: below EC write quorum"
                )
            parity_cells = erasure.encode(data_cells, p) if self.materialize else [b""] * p
            for member, target in enumerate(group):
                if not target.alive:
                    continue
                if self.materialize:
                    payload = data_cells[member] if member < k else parity_cells[member - k]
                else:
                    payload = b""
                self._put_shard_chunk(
                    target, self.shard_key(gi, member), chunk_idx, payload, cell
                )
                charges[target] = cell
        else:
            alive = [(m, t) for m, t in enumerate(group) if t.alive]
            if not alive:
                raise UnavailableError(f"chunk {chunk_idx} of {self.oid}: group down")
            payload = bytes(buf[:extent]) if self.materialize else b""
            for member, target in alive:
                self._put_shard_chunk(
                    target, self.shard_key(gi, member), chunk_idx, payload, extent
                )
                charges[target] = extent
        return charges

    def write(self, offset, data=None, nbytes=None):  # type: ignore[override]
        if data is not None:
            nbytes = len(data)
        if nbytes is None:
            raise InvalidArgumentError("write needs data or nbytes")
        if offset < 0:
            raise InvalidArgumentError(f"negative offset: {offset}")
        if nbytes == 0:
            return {}
        if self.materialize and data is None:
            raise InvalidArgumentError("materializing container requires data bytes")
        charges: Dict[Target, int] = {}
        pos = 0
        for chunk_idx in self._chunk_range(offset, nbytes):
            chunk_base = chunk_idx * self.chunk_size
            start = max(offset, chunk_base) - chunk_base
            end = min(offset + nbytes, chunk_base + self.chunk_size) - chunk_base
            piece_len = end - start
            prev_extent = self._extents.get(chunk_idx, 0)
            if prev_extent:
                buf = self._load_chunk(chunk_idx)
            else:
                buf = bytearray(self.chunk_size)
            if self.materialize:
                buf[start:end] = data[pos : pos + piece_len]
            new_extent = max(prev_extent, end)
            chunk_charges = self._store_chunk(chunk_idx, buf, new_extent)
            self._extents[chunk_idx] = new_extent
            if self.oc.is_ec:
                k, p = self.oc.ec_k, self.oc.ec_p
                data_share = piece_len / k
                for member, target in enumerate(self.groups[self._group_of_chunk(chunk_idx)]):
                    if target in chunk_charges:
                        chunk_charges[target] = int(round(data_share))
            else:
                for target in chunk_charges:
                    chunk_charges[target] = piece_len
            for target, nb in chunk_charges.items():
                charges[target] = charges.get(target, 0) + nb
            pos += piece_len
        self._size = max(self._size, offset + nbytes)
        self.container.epoch += 1
        return charges

    def read(self, offset, nbytes):  # type: ignore[override]
        if offset < 0 or nbytes < 0:
            raise InvalidArgumentError("negative offset or length")
        if nbytes == 0:
            return b"", {}
        out = bytearray(nbytes)
        charges: Dict[Target, int] = {}
        for chunk_idx in self._chunk_range(offset, nbytes):
            chunk_base = chunk_idx * self.chunk_size
            start = max(offset, chunk_base) - chunk_base
            end = min(offset + nbytes, chunk_base + self.chunk_size) - chunk_base
            extent = self._extents.get(chunk_idx, 0)
            if extent == 0:
                continue
            buf = self._load_chunk(chunk_idx)
            piece = bytes(buf[start:end])
            out_base = chunk_base + start - offset
            out[out_base : out_base + len(piece)] = piece
            read_len = min(end, extent) - start
            if read_len <= 0:
                continue
            gi = self._group_of_chunk(chunk_idx)
            group = self.groups[gi]
            if self.oc.is_ec:
                per_cell = read_len / self.oc.ec_k
                served = 0
                failed_over = False
                for member, target in enumerate(group):
                    if served >= self.oc.ec_k:
                        break
                    if target.alive:
                        charges[target] = charges.get(target, 0) + int(round(per_cell))
                        served += 1
                    else:
                        failed_over = True
                if served < self.oc.ec_k:
                    raise DataLossError(
                        f"chunk {chunk_idx} of {self.oid}: "
                        f"only {served} of {self.oc.ec_k} cells live"
                    )
                if failed_over:
                    self.failovers += 1
            else:
                for member, target in enumerate(group):
                    if target.alive:
                        charges[target] = charges.get(target, 0) + read_len
                        if member > 0:
                            self.failovers += 1
                        break
                else:
                    raise DataLossError(
                        f"chunk {chunk_idx} of {self.oid}: no live replica"
                    )
        return bytes(out), charges


# ---------------------------------------------------------------------------
# harness

C = CHUNK
Op = Tuple[Any, ...]


def W(offset: int, n: int) -> Op:
    return ("write", offset, n)


def WB(offset: int, n: int) -> Op:
    """Write with data bytes, which a non-materialised container drops."""
    return ("write_bytes", offset, n)


def R(offset: int, n: int) -> Op:
    return ("read", offset, n)


def T(size: int) -> Op:
    return ("truncate", size)


def F(gi: int, mi: int) -> Op:
    """Fail member ``mi`` of group ``gi`` (each taken modulo the group
    width and count, so one script fits every class)."""
    return ("fail", gi, mi)


def Restore(gi: int, mi: int) -> Op:
    return ("restore", gi, mi)


def Rebuild(gi: int, mi: int) -> Op:
    """Rebuild the pool after the failure of member ``mi`` of group ``gi``."""
    return ("rebuild", gi, mi)


SCRIPTS: Dict[str, List[Op]] = {
    "aligned": [W(0, C), R(0, C), W(C, 2 * C), R(0, 3 * C)],
    "unaligned": [W(100, 300), R(50, 500), R(0, C), R(399, 2)],
    "multi_chunk": [W(C // 2, 3 * C + 17), R(0, 5 * C), R(C - 1, 2 * C + 3)],
    "overwrite": [W(0, 2 * C), W(C // 4, C), R(0, 2 * C), W(0, C), R(0, 2 * C)],
    "extend": [W(0, 100), WB(100, 2 * C), W(50, 3 * C), R(0, 4 * C)],
    "holes_and_past_end": [
        W(3 * C, 10), R(0, 4 * C), R(3 * C + 5, 100), R(10 * C, 50),
        W(C + 1, 1), R(0, 4 * C),
    ],
    "truncate": [
        W(0, 3 * C), T(C + 7), R(0, 3 * C), T(5 * C), R(0, 5 * C),
        W(2 * C, 5), R(0, 3 * C), T(0), R(0, C), W(C // 2, C), R(0, 2 * C),
    ],
    "zero_length": [W(0, 0), R(5, 0), W(C, 10), R(C, 0)],
    "fail_first_member_then_read": [W(0, 4 * C), F(0, 0), R(0, 4 * C), R(C, C)],
    "fail_last_member_then_read": [W(0, 4 * C), F(0, -1), R(0, 4 * C)],
    "fail_two_members_then_read": [W(0, 4 * C), F(0, 0), F(0, 1), R(C, 2 * C), R(0, 4 * C)],
    "fail_then_write": [
        W(0, 2 * C), F(0, 0), W(0, 2 * C), R(0, 2 * C), W(C // 2, 3 * C), R(0, 4 * C),
    ],
    "write_fails_mid_op": [F(3, 0), F(3, 1), W(0, 4 * C), R(0, 4 * C)],
    "read_after_rebuild": [
        W(0, 4 * C), F(0, 0), Rebuild(0, 0), R(0, 4 * C), W(C // 2, C), R(0, 4 * C),
    ],
    "restore_without_rebuild": [
        W(0, 2 * C), F(0, 0), W(0, 2 * C), Restore(0, 0), R(0, 2 * C), W(0, C), R(0, 2 * C),
    ],
}

#: one group (RP_2, EC_2P1) and groups across all targets (SX and GX)
CLASSES = ["SX", "RP_2", "RP_2GX", "EC_2P1", "EC_2P1GX"]


def payload(step: int, n: int) -> bytes:
    return bytes((i * 31 + step * 7 + 1) % 251 for i in range(n))


def build(cls: type, oc: str, materialize: bool) -> Tuple[Pool, DaosArray]:
    pool = Pool(Cluster(n_servers=3, n_clients=1, seed=0))
    cont = pool.create_container("datapath", materialize=materialize)
    oid = cont.alloc_oid()
    arr = cls(cont, oid, ObjectClass.parse(oc), chunk_size=CHUNK)
    cont.register(oid, arr)
    return pool, arr


def seed_write(arr: DaosArray, n: int) -> None:
    if arr.materialize:
        arr.write(0, payload(0, n))
    else:
        arr.write(0, nbytes=n)


def exact(value: Any) -> Tuple[str, Any]:
    return type(value).__name__, value.hex() if isinstance(value, float) else value


def charge_list(charges: Dict[Target, Any]) -> List[Tuple[int, Tuple[str, Any]]]:
    return [(t.global_index, exact(v)) for t, v in charges.items()]


def apply(pool: Pool, arr: DaosArray, step: int, op: Op) -> Any:
    kind = op[0]
    if kind in ("write", "write_bytes"):
        _, offset, n = op
        if arr.materialize or kind == "write_bytes":
            return charge_list(arr.write(offset, payload(step, n)))
        return charge_list(arr.write(offset, nbytes=n))
    if kind == "read":
        data, charges = arr.read(op[1], op[2])
        return type(data).__name__, data, charge_list(charges)
    if kind == "truncate":
        arr.truncate(op[1])
        return None
    _, gi, mi = op
    target = arr.groups[gi % arr.n_groups][mi % arr.oc.group_width]
    if kind == "fail":
        pool.fail_target(target.global_index)
        return None
    if kind == "restore":
        pool.restore_target(target.global_index)
        return None
    assert kind == "rebuild"
    proc = pool.cluster.sim.process(run_rebuild(pool, target))
    pool.cluster.sim.run()
    report = proc.result
    return report.shards_rebuilt, report.bytes_moved, report.objects_lost


def outcome(pool: Pool, arr: DaosArray, step: int, op: Op) -> Tuple[Any, ...]:
    try:
        return ("ok", apply(pool, arr, step, op))
    except ReproError as exc:
        return ("raised", type(exc).__name__, str(exc))


def snapshot(pool: Pool, arr: DaosArray) -> Dict[str, Any]:
    return {
        "extents": list(arr._extents.items()),
        "size": arr.size(),
        "failovers": arr.failovers,
        "epoch": arr.container.epoch,
        "groups": [[t.global_index for t in g] for g in arr.groups],
        "targets": [
            (
                t.global_index,
                t.alive,
                t.device.used_bytes,
                [(key, list(shard.items())) for key, shard in t.array_shards.items()],
            )
            for t in pool.ring
        ],
    }


def run_both(oc: str, materialize: bool, script: List[Op]) -> List[Tuple[Any, ...]]:
    """Run ``script`` on the reference and on the real array, asserting
    equality after every op; returns the real array's outcomes."""
    ref_pool, ref = build(CopyingArray, oc, materialize)
    new_pool, new = build(DaosArray, oc, materialize)
    assert snapshot(new_pool, new) == snapshot(ref_pool, ref)
    outcomes = []
    for step, op in enumerate(script):
        want = outcome(ref_pool, ref, step, op)
        got = outcome(new_pool, new, step, op)
        assert got == want, (step, op)
        assert snapshot(new_pool, new) == snapshot(ref_pool, ref), (step, op)
        outcomes.append(got)
    return outcomes


# ---------------------------------------------------------------------------
# exact equivalence


@pytest.mark.parametrize("materialize", [True, False], ids=["materialised", "synthetic"])
@pytest.mark.parametrize("oc", CLASSES)
@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_matches_copying_reference(script, oc, materialize):
    run_both(oc, materialize, SCRIPTS[script])


def test_scripts_reach_every_error_path():
    """The scripts above cover failover, EC reconstruction, data loss and
    a rejected write on each class, so the comparison exercises them."""
    seen = set()
    for oc in CLASSES:
        for name, script in SCRIPTS.items():
            for got in run_both(oc, False, script):
                if got[0] == "raised":
                    seen.add((oc, got[1]))
    for oc in CLASSES:
        assert {(oc, "DataLossError"), (oc, "UnavailableError")} <= seen
        if oc != "SX":
            pool, arr = build(DaosArray, oc, False)
            for step, op in enumerate(SCRIPTS["fail_first_member_then_read"]):
                apply(pool, arr, step, op)
            assert arr.failovers > 0


@pytest.mark.parametrize("oc", CLASSES)
def test_non_materialised_path_assembles_no_chunks(oc, monkeypatch):
    """Reads and writes of a non-materialised array never load a chunk
    and never cut EC cells."""

    def boom(*args, **kwargs):
        raise AssertionError("non-materialised path assembled a chunk")

    monkeypatch.setattr(DaosArray, "_load_chunk", boom)
    monkeypatch.setattr(erasure, "encode", boom)
    for script in SCRIPTS.values():
        pool, arr = build(DaosArray, oc, False)
        for step, op in enumerate(script):
            outcome(pool, arr, step, op)


def test_non_materialised_reads_share_one_zero_buffer():
    pool, arr = build(DaosArray, "RP_2", False)
    arr.write(0, nbytes=3 * C)
    first, _ = arr.read(0, 2 * C)
    second, _ = arr.read(C, 2 * C)
    assert type(first) is bytes and first == bytes(2 * C)
    assert first is second
    hole, charges = arr.read(10 * C, 2 * C)
    assert hole is first and charges == {}
    assert _zeros.cache_info().maxsize <= 4


# ---------------------------------------------------------------------------
# argument validation


@pytest.mark.parametrize("materialize", [True, False])
@pytest.mark.parametrize(
    "offset, nbytes",
    [(100, -5), (0, -1), (-1, 4), (1.5, 4), (0, 10.5), (0, 2.0), ("0", 4)],
)
def test_write_rejects_bad_range_without_side_effects(materialize, offset, nbytes):
    pool, arr = build(DaosArray, "SX", materialize)
    seed_write(arr, 10)
    before = snapshot(pool, arr)
    with pytest.raises(InvalidArgumentError):
        arr.write(offset, nbytes=nbytes)
    assert snapshot(pool, arr) == before
    assert arr.size() == 10


@pytest.mark.parametrize("materialize", [True, False])
@pytest.mark.parametrize(
    "offset, nbytes", [(0, -5), (-1, 4), (1.5, 4), (0, 10.5), (0, 2.0), (0, None)]
)
def test_read_rejects_bad_range(materialize, offset, nbytes):
    pool, arr = build(DaosArray, "SX", materialize)
    seed_write(arr, 10)
    with pytest.raises(InvalidArgumentError):
        arr.read(offset, nbytes)


def test_negative_ranges_keep_their_messages():
    _, arr = build(DaosArray, "SX", False)
    with pytest.raises(InvalidArgumentError, match="^negative offset: -1$"):
        arr.write(-1, nbytes=4)
    with pytest.raises(InvalidArgumentError, match="^negative length: -5$"):
        arr.write(100, nbytes=-5)
    with pytest.raises(InvalidArgumentError, match="^negative offset or length$"):
        arr.read(0, -1)
    with pytest.raises(InvalidArgumentError, match="^write needs data or nbytes$"):
        arr.write(0)

"""DAOS Key-Value objects.

Paper Section I: "Key-Values provide a mapping between keys
(limited-length strings) and values (arbitrary-length data) that can be
queried."  Keys hash to a shard group; within a group the value is
replicated per the object class (the paper replicates indexing KVs with
RP_2 rather than erasure-coding them, Section III-D).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Set, Tuple

from repro.daos.container import Container
from repro.daos.obj import DaosObject
from repro.daos.objclass import ObjectClass
from repro.daos.oid import ObjectId
from repro.daos.placement import jump_consistent_hash
from repro.daos.pool import Target
from repro.errors import (
    DataLossError,
    InvalidArgumentError,
    NotFoundError,
    UnavailableError,
)
from repro.sim.randomness import stable_hash64
from repro.units import Bytes

__all__ = ["DaosKV", "MAX_KEY_LENGTH"]

#: DAOS dkeys are bounded; we enforce a paper-plausible bound.
MAX_KEY_LENGTH = 256


class DaosKV(DaosObject):
    """A distributed dictionary object."""

    kind = "kv"

    def __init__(self, container: Container, oid: ObjectId, oc: ObjectClass):
        if oc.is_ec:
            raise InvalidArgumentError(
                f"KV objects cannot be erasure-coded (class {oc.name})"
            )
        super().__init__(container, oid, oc)
        #: kind -> (pool map version, serving layout); see :meth:`_serving`
        self._layouts: Dict[str, Tuple[int, Tuple[Dict[Target, int], Dict[Any, int]]]] = {}

    # -- internals ---------------------------------------------------------
    def _group_for(self, key: str) -> int:
        return jump_consistent_hash(stable_hash64(key), self.n_groups)

    def _shard_store(self, target: Target, group_idx: int, member_idx: int) -> Dict:
        skey = self.shard_key(group_idx, member_idx)
        store = target.kv_shards.get(skey)
        if store is None:
            store = {}
            target.kv_shards[skey] = store
        return store

    @staticmethod
    def _check_key(key: str) -> None:
        if not isinstance(key, str) or not key:
            raise InvalidArgumentError(f"KV key must be a non-empty string: {key!r}")
        if len(key) > MAX_KEY_LENGTH:
            raise InvalidArgumentError(
                f"KV key exceeds {MAX_KEY_LENGTH} characters ({len(key)})"
            )

    # -- functional operations (timing added by DaosClient) ------------------
    def put(self, key: str, value: bytes) -> Dict[Target, int]:
        """Store ``key -> value``; returns per-target byte charges."""
        self._check_key(key)
        if not isinstance(value, (bytes, bytearray)):
            raise InvalidArgumentError("KV value must be bytes")
        gi = self._group_for(key)
        group = self.groups[gi]
        alive = [(m, t) for m, t in enumerate(group) if t.alive]
        if not alive:
            raise UnavailableError(f"no live replica for key {key!r}")
        # KV values are always materialised (they are small: directory
        # entries, index records); only bulk Array data honours the
        # container's materialize switch.
        charges: Dict[Target, int] = {}
        payload = bytes(value)
        for member, target in alive:
            store = self._shard_store(target, gi, member)
            store[key] = payload
            charges[target] = len(value)
        self.container.epoch += 1
        return charges

    def get(self, key: str) -> Tuple[bytes, Target]:
        """Fetch a value; returns ``(value, serving_target)``."""
        self._check_key(key)
        gi = self._group_for(key)
        group = self.groups[gi]
        alive = [(m, t) for m, t in enumerate(group) if t.alive]
        if not alive:
            # every replica (and its data) is gone: not retryable
            raise DataLossError(f"no live replica for key {key!r}")
        for member, target in alive:
            store = target.kv_shards.get(self.shard_key(gi, member))
            if store is not None and key in store:
                return store[key], target
        raise NotFoundError(f"key {key!r} not found")

    def remove(self, key: str) -> None:
        self._check_key(key)
        gi = self._group_for(key)
        found = False
        for member, target in enumerate(self.groups[gi]):
            if not target.alive:
                continue
            store = target.kv_shards.get(self.shard_key(gi, member))
            if store is not None and key in store:
                del store[key]
                found = True
        if not found:
            raise NotFoundError(f"key {key!r} not found")
        self.container.epoch += 1

    def contains(self, key: str) -> bool:
        try:
            self.get(key)
            return True
        except NotFoundError:
            return False

    def keys(self) -> Set[str]:
        """Union of keys across all live shards (a full enumeration)."""
        out: Set[str] = set()
        for gi, group in enumerate(self.groups):
            for member, target in enumerate(group):
                if not target.alive:
                    continue
                store = target.kv_shards.get(self.shard_key(gi, member))
                if store:
                    out.update(store.keys())
        return out

    def __len__(self) -> int:
        return len(self.keys())

    def value_size(self, key: str) -> int:
        value, _ = self.get(key)
        return len(value)

    def bulk_op_loads(
        self, kind: str, n_ops: float, value_size: Bytes
    ) -> Tuple[Dict[Target, float], Dict]:
        """Analytic loads for ``n_ops`` puts/gets with uniformly hashed
        keys: per-target value bytes and per-engine request ops.

        Puts hit every replica of a group; gets are served by one.  Used
        by the benchmark harness to batch index traffic (Field I/O and
        fdb-hammer average ~10 KV ops per field, paper Section III-B).
        Each target and engine gets ``n_ops / n_groups`` (times the value
        size for targets) added once per group it serves, in group order,
        from the cached serving layout.
        """
        if kind not in ("put", "get"):
            raise InvalidArgumentError(f"kind must be 'put' or 'get': {kind}")
        per_group = n_ops / self.n_groups
        targets, engines = self._serving(kind)
        return _repeat_sums(targets, per_group * value_size), _repeat_sums(engines, per_group)

    def _serving(self, kind: str) -> Tuple[Dict[Target, int], Dict[Any, int]]:
        """How many groups each target serves and how many serving slots
        each engine holds, both in order of first appearance over the
        groups.  Cached per kind and stamped with ``Pool.map_version``,
        which target failures, restores and rebuild relocations bump."""
        version = self.container.pool.map_version
        cached = self._layouts.get(kind)
        if cached is not None and cached[0] == version:
            return cached[1]
        targets: Dict[Target, int] = {}
        engines: Dict[Any, int] = {}
        for group in self.groups:
            members = [t for t in group if t.alive]
            if not members:
                raise UnavailableError("KV group fully down")
            serving = members if kind == "put" else members[:1]
            for target in serving:
                targets[target] = targets.get(target, 0) + 1
                engines[target.engine] = engines.get(target.engine, 0) + 1
        self._layouts[kind] = (version, (targets, engines))
        return targets, engines

    def wipe(self) -> None:
        for gi, group in enumerate(self.groups):
            for member, target in enumerate(group):
                target.kv_shards.pop(self.shard_key(gi, member), None)


def _repeat_sums(counts: Dict[Any, int], x: float) -> Dict[Any, float]:
    """``key -> 0.0 + x + ... + x`` with ``counts[key]`` terms: the float
    sums of adding ``x`` once per served group, one fold per distinct
    count."""
    sums: Dict[int, float] = {}
    for m in set(counts.values()):
        acc = 0.0
        for _ in range(m):
            acc += x
        sums[m] = acc
    if len(sums) == 1:
        (value,) = sums.values()
        return dict.fromkeys(counts, value)
    return {key: sums[m] for key, m in counts.items()}

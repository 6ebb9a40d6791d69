"""The MARS-style key schema identifying weather fields.

An FDB key is an ordered set of metadata attributes (class, stream,
date, parameter, level, ...) that uniquely identifies one field — one
2-D slice of one variable of one forecast step.  fdb-hammer and Field
I/O both sweep sequences of such keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Dict, Iterator, Sequence, Tuple

from repro.errors import InvalidArgumentError

__all__ = ["SCHEMA_KEYS", "REQUIRED_KEYS", "FdbKey", "make_key", "key_sequence"]

#: recognised attributes, in canonical order (a pragmatic MARS subset)
SCHEMA_KEYS: Tuple[str, ...] = (
    "class",
    "stream",
    "expver",
    "date",
    "time",
    "domain",
    "type",
    "levtype",
    "step",
    "param",
    "levelist",
)

#: attributes every key must carry to be archivable
REQUIRED_KEYS: Tuple[str, ...] = ("class", "stream", "date", "time", "step", "param")

#: attribute -> its position in :data:`SCHEMA_KEYS`
_POSITION: Dict[str, int] = {name: i for i, name in enumerate(SCHEMA_KEYS)}
#: the attributes of :meth:`FdbKey.index_group`
_GROUP_KEYS = frozenset(("class", "stream", "expver", "date", "time"))


@dataclass(frozen=True)
class FdbKey:
    """An immutable, hashable field identifier."""

    items: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        names = [k for k, _ in self.items]
        if len(set(names)) != len(names):
            raise InvalidArgumentError(f"duplicate attributes in key: {names}")
        unknown = set(names) - set(SCHEMA_KEYS)
        if unknown:
            raise InvalidArgumentError(f"unknown key attributes: {sorted(unknown)}")
        missing = set(REQUIRED_KEYS) - set(names)
        if missing:
            raise InvalidArgumentError(f"key is missing {sorted(missing)}")

    def _schema_items(self) -> Sequence[Tuple[str, str]]:
        """``items`` in schema order; a key built directly from a tuple may
        hold them in any order."""
        items = self.items
        positions = [_POSITION[k] for k, _ in items]
        if positions == sorted(positions):
            return items
        return sorted(items, key=lambda item: _POSITION[item[0]])

    def canonical(self) -> str:
        """Canonical string form, in schema order (the index key)."""
        return ",".join([f"{k}={v}" for k, v in self._schema_items()])

    def index_group(self) -> str:
        """The coarse prefix FDB groups index entries by (one forecast)."""
        return ",".join([f"{k}={v}" for k, v in self._schema_items() if k in _GROUP_KEYS])

    def __str__(self) -> str:
        return self.canonical()


def make_key(**attrs: "str | int") -> FdbKey:
    """Build a key from keyword attributes, normalising values to str.

    >>> str(make_key(class_="od", stream="oper", date=20240101, time=0,
    ...              step=0, param=130))
    'class=od,stream=oper,date=20240101,time=0,step=0,param=130'
    """
    if "class_" in attrs:  # `class` is a Python keyword
        attrs["class"] = attrs.pop("class_")
    d = {k: str(v) for k, v in attrs.items()}
    unknown = set(d) - set(SCHEMA_KEYS)
    if unknown:
        raise InvalidArgumentError(f"unknown key attributes: {sorted(unknown)}")
    items = tuple((k, d[k]) for k in SCHEMA_KEYS if k in d)
    return FdbKey(items)


def key_sequence(
    n_fields: int,
    member: int = 0,
    date: int = 20240101,
    params: Tuple[int, ...] = (129, 130, 131, 132, 133),
    levels: Tuple[int, ...] = (1000, 850, 700, 500, 300, 100),
) -> Iterator[FdbKey]:
    """The key sweep one fdb-hammer / Field I/O process archives.

    Fields iterate fastest over parameter, then level, then forecast
    step, mirroring how an NWP model emits output.  ``member`` (the
    ensemble member / process number) keeps per-process sequences
    disjoint.

    The first key is built by :func:`make_key`, which validates the
    attribute names once per sweep.  Every later key has the same names
    and differs only in step, parameter and level, so it is built
    without the per-key validation and shares the first key's constant
    head items.
    """
    if n_fields > 0 and not (params and levels):
        raise InvalidArgumentError(
            f"a sweep of {n_fields} fields needs at least one parameter and one level"
        )
    return _sweep(n_fields, member, date, params, levels)


def _sweep(
    n_fields: int, member: int, date: int, params: Tuple[int, ...], levels: Tuple[int, ...]
) -> Iterator[FdbKey]:
    if n_fields <= 0:
        return
    first = make_key(
        class_="od",
        stream="enfo",
        expver="0001",
        date=date,
        time="0000",
        domain="g",
        type="pf",
        levtype="pl",
        step=0,
        param=params[0],
        levelist=f"{levels[0]}.{member}",
    )
    yield first
    head = first.items[:8]  # class .. levtype
    n_steps = -(-n_fields // (len(levels) * len(params)))
    cells = product(
        [("step", str(6 * s)) for s in range(n_steps)],
        [("levelist", f"{level}.{member}") for level in levels],
        [("param", str(param)) for param in params],
    )
    new, set_items = object.__new__, object.__setattr__
    for step, level, param in islice(cells, 1, n_fields):
        key = new(FdbKey)
        set_items(key, "items", (*head, step, param, level))
        yield key

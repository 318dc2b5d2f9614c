"""Versioned in-memory object store — one per replica site.

This is the local storage substrate the paper assumes each site has
("each site is capable of maintaining local consistency", section 2.2).
It supports:

* plain get/put and one apply loop for the operation algebra,
* per-key access timestamps for the basic-timestamp divergence engine,
* Thomas-write-rule application for RITU single-version overwrites,
* snapshots and restores for crash simulation and convergence checks.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple
)

from ..core.operations import (
    DecrementOp,
    IncrementOp,
    Operation,
    TimestampedWriteOp,
)

__all__ = ["KeyValueStore", "StoreSnapshot", "KeyNotFound"]


class KeyNotFound(KeyError):
    """Raised when reading a key with no value and no default."""


#: value types no apply and no caller can change in place.
_SCALARS = frozenset({int, float, str, bool, type(None)})


def _detached(value: Any) -> Any:
    """``value`` itself when it is an immutable scalar, else a deep
    copy: a list or dict written from JSON, or an append tuple, which
    can hold one."""
    if type(value) in _SCALARS:
        return value
    return copy.deepcopy(value)


#: what a key that holds no value reads as, inside the store.
_ABSENT = object()


@dataclass(frozen=True)
class StoreSnapshot:
    """An immutable copy of a store's contents at one instant."""

    values: Mapping[str, Any]
    stamps: Mapping[str, Optional[Tuple[int, int]]]


class KeyValueStore:
    """Dictionary store with operation-algebra application: each key's
    value in one dict, and the write stamp of each key that has one
    in another."""

    def __init__(self, initial: Optional[Mapping[str, Any]] = None) -> None:
        self._values: Dict[str, Any] = {}
        #: key -> timestamp of the newest timestamped (RITU) write
        #: applied to it; a key no such write reached has no entry.
        self._stamps: Dict[str, Tuple[int, int]] = {}
        if initial:
            for key, value in initial.items():
                self.put(key, value)

    # -- basic access --------------------------------------------------------

    def get(self, key: str, default: Any = KeyNotFound) -> Any:
        value = self._values.get(key, _ABSENT)
        if value is _ABSENT:
            if default is KeyNotFound:
                raise KeyNotFound(key)
            return default
        return value

    def put(self, key: str, value: Any) -> None:
        self._values[key] = value

    def keys(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    # -- operation application -------------------------------------------------

    def apply(self, op: Operation, default: Any = 0) -> Any:
        """Apply one operation and return the (new or read) value."""
        return self.apply_many((op,), default)

    def apply_many(self, ops: Iterable[Any], default: Any = 0) -> Any:
        """Apply ``ops`` in order; return the value the last one left
        (or read).  The store's one apply loop.

        An item is an :class:`Operation` or the checked wire array of
        one (``["inc", key, amount]``, as ``mset.check_ops`` passed
        it).  Timestamped writes go through the Thomas write rule: an
        update carrying an older timestamp than the installed one is
        ignored (paper section 3.3: 'An RITU update trying to overwrite
        a newer version is ignored').  Missing keys are materialized
        with ``default`` so commutative arithmetic has an identity to
        act on.  An increment or decrement of an exact ``int``/``float``
        runs inline — :meth:`_ArithmeticOp._check_numeric`'s own first
        test — from an array as from an object; any other array is
        built at its apply instant, and every other operation runs
        through its :meth:`Operation.apply`.
        """
        values = self._values
        value = None
        for op in ops:
            if type(op) is list:
                tag = op[0]
                if tag == "inc" or tag == "dec":
                    value = values.get(key := op[1], _ABSENT)
                    if value is _ABSENT:
                        # An increment's initial value is ``default``.
                        value = values[key] = copy.copy(default)
                    if type(value) is int or type(value) is float:
                        if tag == "inc":
                            value += op[2]
                        else:
                            value -= op[2]
                        values[key] = value
                        continue
                # The codec is a layer above the store: imported here,
                # where an array first needs its object.
                from ..replica.mset import decode_op

                op = decode_op(op)
            value = values.get(key := op.key, _ABSENT)
            if value is _ABSENT:
                value = values[key] = copy.copy(op.initial_value(default))
            cls = type(op)
            exact = type(value) is int or type(value) is float
            if cls is IncrementOp and exact:
                value += op.amount
            elif cls is DecrementOp and exact:
                value -= op.amount
            elif cls is TimestampedWriteOp:
                stamp = self._stamps.get(key)
                current = (stamp, value) if stamp is not None else None
                self._stamps[key], value = op.apply_timestamped(current)
            else:
                value = op.apply(value)
                if not op.is_write_op:
                    continue
            values[key] = value
        return value

    def stamp_of(self, key: str) -> Optional[Tuple[int, int]]:
        """Timestamp of the newest RITU write on ``key``, if any."""
        return self._stamps.get(key)

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> StoreSnapshot:
        """A copy of the contents that later applies leave unchanged
        (crash simulation / convergence checks): mutable values are
        deep-copied, immutable scalars shared."""
        return StoreSnapshot(
            values={k: _detached(v) for k, v in self._values.items()},
            stamps={k: self._stamps.get(k) for k in self._values},
        )

    def image(self) -> Tuple[Dict[str, Any], Dict[str, List[int]]]:
        """The contents as a checkpoint holds them: a copy of the values
        dict — its value objects shared, which no apply changes in place
        (:meth:`restore` detaches them) — and, for each key that has
        one, its write stamp as a list."""
        return dict(self._values), {
            key: list(stamp) for key, stamp in self._stamps.items()
        }

    def restore(self, snapshot: StoreSnapshot) -> None:
        """Replace contents with a snapshot (crash recovery)."""
        self._values = {k: _detached(v) for k, v in snapshot.values.items()}
        self._stamps = {
            key: stamp for key, stamp in snapshot.stamps.items()
            if stamp is not None and key in self._values
        }

    def as_dict(self) -> Dict[str, Any]:
        """Plain mapping of present keys to values (for assertions)."""
        return dict(self._values)

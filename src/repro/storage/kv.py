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
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from ..core.operations import (
    DecrementOp,
    IncrementOp,
    Operation,
    TimestampedWriteOp,
)

__all__ = ["KeyValueStore", "StoreSnapshot", "KeyNotFound"]


class KeyNotFound(KeyError):
    """Raised when reading a key with no value and no default."""


@dataclass
class _Cell:
    """Storage cell for one key."""

    value: Any = None
    present: bool = False
    #: Timestamp of the newest timestamped (RITU) write applied.
    write_stamp: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class StoreSnapshot:
    """An immutable copy of a store's contents at one instant."""

    values: Mapping[str, Any]
    stamps: Mapping[str, Optional[Tuple[int, int]]]


class KeyValueStore:
    """Dictionary-of-cells store with operation-algebra application."""

    def __init__(self, initial: Optional[Mapping[str, Any]] = None) -> None:
        self._cells: Dict[str, _Cell] = {}
        if initial:
            for key, value in initial.items():
                self.put(key, value)

    # -- basic access --------------------------------------------------------

    def get(self, key: str, default: Any = KeyNotFound) -> Any:
        cell = self._cells.get(key)
        if cell is None or not cell.present:
            if default is KeyNotFound:
                raise KeyNotFound(key)
            return default
        return cell.value

    def put(self, key: str, value: Any) -> None:
        cell = self._cells.setdefault(key, _Cell())
        cell.value = value
        cell.present = True

    def keys(self) -> Iterator[str]:
        return (k for k, c in self._cells.items() if c.present)

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- operation application -------------------------------------------------

    def apply(self, op: Operation, default: Any = 0) -> Any:
        """Apply one operation and return the (new or read) value."""
        return self.apply_many((op,), default)

    def apply_many(self, ops: Iterable[Operation], default: Any = 0) -> Any:
        """Apply ``ops`` in order; return the value the last one left
        (or read).  The store's one apply loop.

        Timestamped writes go through the Thomas write rule: an update
        carrying an older timestamp than the installed one is ignored
        (paper section 3.3: 'An RITU update trying to overwrite a newer
        version is ignored').  Missing keys are materialized with
        ``default`` so commutative arithmetic has an identity to act on.
        An increment or decrement of an exact ``int``/``float`` runs
        inline — :meth:`_ArithmeticOp._check_numeric`'s own first test —
        and every other operation through its :meth:`Operation.apply`.
        """
        cells = self._cells
        value = None
        for op in ops:
            cell = cells.get(key := op.key)
            if cell is None:
                # Not setdefault: that would construct (and usually
                # throw away) a _Cell per applied operation.
                cell = cells[key] = _Cell()
            if not cell.present:
                cell.value = copy.copy(op.initial_value(default))
                cell.present = True
            value = cell.value
            cls = type(op)
            exact = type(value) is int or type(value) is float
            if cls is IncrementOp and exact:
                value += op.amount
            elif cls is DecrementOp and exact:
                value -= op.amount
            elif cls is TimestampedWriteOp:
                current = (
                    (cell.write_stamp, value)
                    if cell.write_stamp is not None
                    else None
                )
                cell.write_stamp, value = op.apply_timestamped(current)
            else:
                value = op.apply(value)
                if not op.is_write_op:
                    continue
            cell.value = value
        return value

    def stamp_of(self, key: str) -> Optional[Tuple[int, int]]:
        """Timestamp of the newest RITU write on ``key``, if any."""
        cell = self._cells.get(key)
        return cell.write_stamp if cell else None

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> StoreSnapshot:
        """Deep-copied snapshot (crash simulation / convergence checks)."""
        return StoreSnapshot(
            values={k: copy.deepcopy(c.value) for k, c in self._cells.items() if c.present},
            stamps={k: c.write_stamp for k, c in self._cells.items() if c.present},
        )

    def restore(self, snapshot: StoreSnapshot) -> None:
        """Replace contents with a snapshot (crash recovery)."""
        self._cells.clear()
        for key, value in snapshot.values.items():
            self.put(key, copy.deepcopy(value))
            self._cells[key].write_stamp = snapshot.stamps.get(key)

    def as_dict(self) -> Dict[str, Any]:
        """Plain mapping of present keys to values (for assertions)."""
        return {k: self.get(k) for k in self.keys()}

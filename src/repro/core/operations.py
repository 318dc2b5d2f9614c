"""Operation algebra for epsilon-transactions.

The paper's replica control methods are driven by *operation semantics*:

* COMMU (section 3.2) requires update operations to commute.
* RITU (section 3.3) requires updates to be read-independent
  ("blind writes" / timestamped overwrites).
* COMPE (section 4) requires every update operation to publish a
  compensation (inverse) operation.

This module provides the operation classes and the three relations the
methods consume: *conflict*, *commutativity*, and *inverse*.  Conflict
and commutativity are decided structurally, so the serializability
checkers, the lock manager, and the replica control methods all share a
single source of truth about what reorderings are legal.

Operations are immutable values: frozen, slotted dataclasses whose
read/write flags are class facts, built by a constructor that stores
each field through its slot descriptor (every replica builds every
update's operations).  Applying an operation to a store is
done through :meth:`Operation.apply`, which takes and returns plain
Python values; the storage substrate decides versioning and visibility.
"""

from __future__ import annotations

import numbers
from dataclasses import MISSING, dataclass, fields
from typing import Any, ClassVar, Optional, Tuple

__all__ = [
    "Operation",
    "ReadOp",
    "WriteOp",
    "IncrementOp",
    "DecrementOp",
    "MultiplyOp",
    "DivideOp",
    "AppendOp",
    "TimestampedWriteOp",
    "conflicts",
    "commutes",
    "is_write",
    "OperationError",
]


class OperationError(Exception):
    """Raised when an operation cannot be applied or inverted."""


def _slot_init(cls: type) -> type:
    """Give the slotted frozen dataclass ``cls`` a constructor with the
    generated one's signature that stores each field through its slot
    descriptor.

    The generated ``__init__`` of a frozen dataclass sets each field
    with ``object.__setattr__(self, name, value)``, a by-name lookup
    per field that makes construction about 1.7x slower.  Mutation
    still goes through the dataclass ``__setattr__`` and raises
    ``FrozenInstanceError``.  Descriptors are read off ``cls`` itself:
    on Python 3.10 a subclass re-declares its base's slots.
    """
    env = {}
    params, body = ["self"], []
    for f in fields(cls):
        env["_set_" + f.name] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env["_default_" + f.name] = f.default
            params.append("%s=_default_%s" % (f.name, f.name))
        body.append("    _set_%s(self, %s)\n" % (f.name, f.name))
    exec("def __init__(%s):\n%s" % (", ".join(params), "".join(body)), env)
    init = env["__init__"]
    init.__qualname__ = cls.__qualname__ + ".__init__"
    cls.__init__ = init
    return cls


@dataclass(frozen=True, slots=True)
class Operation:
    """Base class for all operations in the algebra.

    Attributes:
        key: the logical object the operation touches.  Replica control
            is per logical object; the replicated system maps a key to
            one physical copy per site.
    """

    key: str

    #: Class facts consumed by checkers and replica control.
    is_read_op: ClassVar[bool] = False
    is_write_op: ClassVar[bool] = False
    #: True when the new value does not depend on the old value
    #: (RITU-eligible "blind write").
    read_independent: ClassVar[bool] = False

    def apply(self, value: Any) -> Any:
        """Return the new object value after this operation runs.

        Read operations return ``value`` unchanged.
        """
        raise NotImplementedError

    def initial_value(self, default: Any) -> Any:
        """Value materialized for a missing key before applying.

        Most operations act on the store's configured default;
        sequence-valued operations (append) need their own identity.
        """
        return default

    def value_delta(self) -> Optional[float]:
        """Worst-case |change| this operation makes to the value.

        Supports value-based epsilon specs (paper section 5.1, the
        'data value changed asynchronously' spatial-consistency
        criterion of interdependent data management / controlled
        inconsistency).  ``None`` means unknown/unbounded — a query
        with a finite value budget must treat such an update as
        exceeding it.
        """
        return None

    def inverse(self, prior_value: Any) -> Optional["Operation"]:
        """Return the compensation operation for this one, or ``None``.

        ``prior_value`` is the object value *before* this operation ran;
        overwrite-style operations need it to build their compensation
        (paper section 4.2: "to rollback RITU with overwrite we must also
        record the value being overwritten on the log").
        """
        raise NotImplementedError

    def commutes_with(self, other: "Operation") -> bool:
        """Structural commutativity on the same key.

        Operations on different keys always commute; callers should use
        the module-level :func:`commutes`, which handles that case.
        """
        raise NotImplementedError


@_slot_init
@dataclass(frozen=True, slots=True)
class ReadOp(Operation):
    """Read the current value of ``key``."""

    is_read_op = True

    def apply(self, value: Any) -> Any:
        return value

    def inverse(self, prior_value: Any) -> Optional[Operation]:
        return None

    def commutes_with(self, other: Operation) -> bool:
        return other.is_read_op


@_slot_init
@dataclass(frozen=True, slots=True)
class WriteOp(Operation):
    """Overwrite ``key`` with ``value`` (classical R/W model write)."""

    value: Any = None
    is_write_op = True
    read_independent = True

    def apply(self, value: Any) -> Any:
        return self.value

    def inverse(self, prior_value: Any) -> Optional[Operation]:
        return WriteOp(self.key, prior_value)

    def commutes_with(self, other: Operation) -> bool:
        # A write never commutes with a read of the same key; two writes
        # commute only when they install the same value.
        if other.is_read_op:
            return False
        if isinstance(other, WriteOp):
            return bool(self.value == other.value)
        return False


@dataclass(frozen=True, slots=True)
class _ArithmeticOp(Operation):
    """Shared machinery for numeric read-modify-write operations."""

    amount: float = 0
    is_write_op = True

    def _check_numeric(self, value: Any) -> float:
        # Exact types first: the ``numbers.Number`` ABC check is the
        # slow path, for bool, Fraction, Decimal and the refusal.
        cls = type(value)
        if cls is int or cls is float:
            return value
        if not isinstance(value, numbers.Number):
            raise OperationError(
                "%s requires a numeric value for %r, got %r"
                % (type(self).__name__, self.key, value)
            )
        return value


@_slot_init
@dataclass(frozen=True, slots=True)
class IncrementOp(_ArithmeticOp):
    """``key += amount``.  Commutes with other increments/decrements."""

    def apply(self, value: Any) -> Any:
        return self._check_numeric(value) + self.amount

    def inverse(self, prior_value: Any) -> Optional[Operation]:
        return DecrementOp(self.key, self.amount)

    def commutes_with(self, other: Operation) -> bool:
        return isinstance(other, (IncrementOp, DecrementOp))

    def value_delta(self) -> Optional[float]:
        return abs(self.amount)


@_slot_init
@dataclass(frozen=True, slots=True)
class DecrementOp(_ArithmeticOp):
    """``key -= amount``.  Commutes with other increments/decrements."""

    def apply(self, value: Any) -> Any:
        return self._check_numeric(value) - self.amount

    def inverse(self, prior_value: Any) -> Optional[Operation]:
        return IncrementOp(self.key, self.amount)

    def commutes_with(self, other: Operation) -> bool:
        return isinstance(other, (IncrementOp, DecrementOp))

    def value_delta(self) -> Optional[float]:
        return abs(self.amount)


@_slot_init
@dataclass(frozen=True, slots=True)
class MultiplyOp(_ArithmeticOp):
    """``key *= amount``.  Commutes with other multiplies/divides only.

    The paper's section 4.1 worked example uses exactly this pair:
    ``Inc(x, 10) . Mul(x, 2) . Dec(x, 10) != Mul(x, 2)``, which is why
    compensation of a non-commutative log requires rollback-and-replay.
    """

    def apply(self, value: Any) -> Any:
        return self._check_numeric(value) * self.amount

    def inverse(self, prior_value: Any) -> Optional[Operation]:
        if self.amount == 0:
            # Multiplication by zero destroys information; compensation
            # must restore the recorded prior value.
            return WriteOp(self.key, prior_value)
        return DivideOp(self.key, self.amount)

    def commutes_with(self, other: Operation) -> bool:
        return isinstance(other, (MultiplyOp, DivideOp))


@_slot_init
@dataclass(frozen=True, slots=True)
class DivideOp(_ArithmeticOp):
    """``key /= amount``.  Commutes with other multiplies/divides only."""

    def apply(self, value: Any) -> Any:
        if self.amount == 0:
            raise OperationError("division by zero on %r" % self.key)
        return self._check_numeric(value) / self.amount

    def inverse(self, prior_value: Any) -> Optional[Operation]:
        return MultiplyOp(self.key, self.amount)

    def commutes_with(self, other: Operation) -> bool:
        return isinstance(other, (MultiplyOp, DivideOp))


@_slot_init
@dataclass(frozen=True, slots=True)
class AppendOp(Operation):
    """Append ``item`` to a sequence-valued object.

    Appends commute *as sets*: the final contents are order-independent
    even though the sequence order is not.  The paper's COMMU analysis
    only needs state convergence up to the application's equality, so we
    model append-commutativity at the multiset level and normalize in
    :meth:`apply` consumers that need canonical ordering.
    """

    item: Any = None
    is_write_op = True

    def initial_value(self, default: Any) -> Any:
        return ()

    def apply(self, value: Any) -> Any:
        if value is None:
            value = ()
        if not isinstance(value, tuple):
            raise OperationError(
                "AppendOp requires a tuple value for %r, got %r" % (self.key, value)
            )
        return value + (self.item,)

    def inverse(self, prior_value: Any) -> Optional[Operation]:
        return _RemoveLastOp(self.key, self.item)

    def value_delta(self) -> Optional[float]:
        return 1.0  # one element of drift

    def commutes_with(self, other: Operation) -> bool:
        # Multiset-commutative with other appends.
        return isinstance(other, AppendOp)


@_slot_init
@dataclass(frozen=True, slots=True)
class _RemoveLastOp(Operation):
    """Compensation for :class:`AppendOp`: remove one occurrence of item."""

    item: Any = None
    is_write_op = True

    def apply(self, value: Any) -> Any:
        if not isinstance(value, tuple):
            raise OperationError(
                "_RemoveLastOp requires a tuple value for %r" % self.key
            )
        out = list(value)
        for i in range(len(out) - 1, -1, -1):
            if out[i] == self.item:
                del out[i]
                return tuple(out)
        raise OperationError(
            "cannot compensate append: %r not present in %r" % (self.item, self.key)
        )

    def inverse(self, prior_value: Any) -> Optional[Operation]:
        return AppendOp(self.key, self.item)

    def commutes_with(self, other: Operation) -> bool:
        return False


@_slot_init
@dataclass(frozen=True, slots=True)
class TimestampedWriteOp(Operation):
    """RITU-style timestamped blind write.

    The operation carries its own timestamp; the store applies it with
    the Thomas write rule (an older write never overwrites a newer
    version) or, in multiversion mode, installs an immutable version at
    ``timestamp``.  Because the outcome depends only on (timestamp,
    value) pairs and not on arrival order, any two timestamped writes
    commute — this is the paper's "read-independent timestamped update".
    """

    value: Any = None
    timestamp: Tuple[int, int] = (0, 0)
    is_write_op = True
    read_independent = True

    def apply(self, value: Any) -> Any:
        # Plain apply ignores the stored timestamp; the RITU store uses
        # apply_timestamped() on the (timestamp, value) history instead.
        return self.value

    def apply_timestamped(
        self, current: Optional[Tuple[Tuple[int, int], Any]]
    ) -> Tuple[Tuple[int, int], Any]:
        """Thomas-write-rule application on a (timestamp, value) cell."""
        if current is None or current[0] < self.timestamp:
            return (self.timestamp, self.value)
        return current

    def inverse(self, prior_value: Any) -> Optional[Operation]:
        # Multiversion compensation: re-install the prior value at the
        # same timestamp (paper section 4.2).
        return TimestampedWriteOp(self.key, prior_value, self.timestamp)

    def commutes_with(self, other: Operation) -> bool:
        return isinstance(other, TimestampedWriteOp)


def is_write(op: Operation) -> bool:
    """True when ``op`` modifies object state."""
    return op.is_write_op


def commutes(a: Operation, b: Operation) -> bool:
    """Full commutativity relation used by checkers and lock tables.

    Operations on distinct keys always commute.  On the same key the
    structural relation of the operation classes decides; the relation is
    symmetric by construction (we test both directions and require
    agreement, falling back to the OR of the two directions so that a
    class only needs to know about peers it commutes with).
    """
    if a.key != b.key:
        return True
    return a.commutes_with(b) or b.commutes_with(a)


def conflicts(a: Operation, b: Operation) -> bool:
    """Conflict relation: same key, at least one write, not commuting.

    This is the dependency relation used to build serialization graphs
    (paper section 2.1: R/W and W/W dependencies), refined by operation
    semantics — commuting writes do not conflict, which is precisely the
    extra freedom COMMU and RITU exploit.
    """
    if a.key != b.key:
        return False
    if a.is_read_op and b.is_read_op:
        return False
    return not commutes(a, b)

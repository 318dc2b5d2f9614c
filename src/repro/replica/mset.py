"""MSets: the unit of asynchronous update propagation, and their codec.

Paper section 2.2: "At each site, an ET is represented by a message set
or MSet. ... An update MSet is a set of replica maintenance operations
which propagates updates to object replicas."  MSets travel in stable
queues and are processed independently by each local system.

Their JSON codec is here too, one encoding for a request, a log line,
a wire entry, an inbox line and a checkpoint.  An operation is a
positional array, tag first — ``["read", key]``, ``[tag, key, arg]``
(the amount of ``inc``/``dec``/``mul``/``div``, the value of
``write``, the item of ``append``), ``["tswrite", key, value, [time,
site]]`` — with finite arguments and a non-zero divisor, or
:func:`encode_op` and :func:`decode_op` raise :class:`ProtocolError`;
an encoded MSet omits what it leaves at its default.  Decoding is one
checking pass over one table: :func:`check_ops` runs it alone,
:func:`decode_ops` builds the operations as it goes.  A logged or
relayed entry's payload is a plain update's operations alone, or
``{"mset": ...}``; :func:`decode_payloads` reads both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.operations import (
    AppendOp,
    DecrementOp,
    DivideOp,
    IncrementOp,
    MultiplyOp,
    Operation,
    ReadOp,
    TimestampedWriteOp,
    WriteOp,
)
from ..core.transactions import TransactionID
from ..sim.clocks import GlobalOrder

__all__ = [
    "MSet",
    "MSetKind",
    "ProtocolError",
    "encode_op",
    "decode_op",
    "encode_ops",
    "decode_ops",
    "check_ops",
    "check_ops_many",
    "encode_mset",
    "decode_mset",
    "decode_payloads",
]


class MSetKind:
    """Message kinds exchanged by replica control methods."""

    UPDATE = "update"  #: apply these operations to the local replica
    COMMIT = "commit"  #: backward control: the global update committed
    ABORT = "abort"  #: backward control: compensate the global update
    PREPARE = "prepare"  #: synchronous baselines: 2PC round one
    VOTE = "vote"  #: synchronous baselines: participant reply
    DECISION = "decision"  #: synchronous baselines: 2PC round two


@dataclass(frozen=True, slots=True)
class MSet:
    """A replica maintenance message.

    A frozen, slotted value built once per site per update, so its
    constructor stores each field through its slot descriptor instead
    of the generated by-name ``object.__setattr__``.

    Attributes:
        tid: the update ET this MSet belongs to.
        kind: one of :class:`MSetKind`.
        ops: the write operations to apply (empty for control messages).
        origin: site that generated the MSet.
        order: total-order token (ORDUP) or origin timestamp (RITU);
            ``None`` for methods that do not sort.
        txn_number: global transaction number (RITU multiversion VTNC).
        info: method-specific extras (saga id, vote payloads, ...).
        keys: distinct written keys in first-write order, computed once
            by the constructor (so :func:`dataclasses.replace` recomputes
            it) and left out of equality, hash and repr.
    """

    tid: TransactionID
    kind: str = MSetKind.UPDATE
    ops: Tuple[Operation, ...] = ()
    origin: str = ""
    order: Optional[GlobalOrder] = None
    txn_number: Optional[int] = None
    info: Tuple[Tuple[str, Any], ...] = ()
    keys: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        tid: TransactionID,
        kind: str = MSetKind.UPDATE,
        ops: Tuple[Operation, ...] = (),
        origin: str = "",
        order: Optional[GlobalOrder] = None,
        txn_number: Optional[int] = None,
        info: Tuple[Tuple[str, Any], ...] = (),
    ) -> None:
        _fill(self, tid, kind, ops, origin, order, txn_number, info)

    def get_info(self, key: str, default: Any = None) -> Any:
        for k, v in self.info:
            if k == key:
                return v
        return default


_set_tid = MSet.tid.__set__
_set_kind = MSet.kind.__set__
_set_ops = MSet.ops.__set__
_set_origin = MSet.origin.__set__
_set_order = MSet.order.__set__
_set_txn_number = MSet.txn_number.__set__
_set_info = MSet.info.__set__
_set_keys = MSet.keys.__set__
_new = object.__new__


def _fill(
    mset: MSet,
    tid: TransactionID,
    kind: str,
    ops: Tuple[Operation, ...],
    origin: str,
    order: Optional[GlobalOrder],
    txn_number: Optional[int],
    info: Tuple[Tuple[str, Any], ...],
) -> MSet:
    """Store every field of ``mset`` through its slot, ``keys`` too:
    the one builder behind :class:`MSet` and :func:`decode_mset`."""
    _set_tid(mset, tid)
    _set_kind(mset, kind)
    _set_ops(mset, ops)
    _set_origin(mset, origin)
    _set_order(mset, order)
    _set_txn_number(mset, txn_number)
    _set_info(mset, info)
    _set_keys(
        mset,
        (ops[0].key,) if len(ops) == 1
        else tuple({op.key: None for op in ops}),
    )
    return mset


class ProtocolError(RuntimeError):
    """Raised on malformed frames or unknown payload tags."""


def _finite(obj: Any) -> bool:
    """False when some float inside ``obj`` is NaN or infinite."""
    todo = [obj]
    while todo:
        item = todo.pop()
        if isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
        elif type(item) is float and not math.isfinite(item):
            return False
    return True


# -- operation algebra <-> JSON ----------------------------------------------

_OP_ENCODERS = {
    ReadOp: lambda op: ["read", op.key],
    WriteOp: lambda op: ["write", op.key, op.value],
    IncrementOp: lambda op: ["inc", op.key, op.amount],
    DecrementOp: lambda op: ["dec", op.key, op.amount],
    MultiplyOp: lambda op: ["mul", op.key, op.amount],
    DivideOp: lambda op: ["div", op.key, op.amount],
    AppendOp: lambda op: ["append", op.key, op.item],
    TimestampedWriteOp: lambda op: [
        "tswrite", op.key, op.value, list(op.timestamp)
    ],
}


def _check_arguments(data: list) -> None:
    """Refuse, before anything is logged, a NaN or infinity in an
    encoded operation's arguments (the codec has no spelling for it)
    and a zero divisor (it fails at apply, after every replica logged
    it).  Callers skip the common case: one non-zero exact int."""
    if not _finite(data):
        raise ProtocolError("non-finite number in operation %r" % (data,))
    if data[0] == "div" and data[2] == 0:
        raise ProtocolError("division by zero on %r" % (data[1],))


def encode_op(op: Operation) -> list:
    encode = _OP_ENCODERS.get(type(op))
    if encode is None:
        raise ProtocolError("operation %r has no wire encoding" % (op,))
    data = encode(op)
    if len(data) > 2 and (
        type(data[2]) is not int or not data[2] or len(data) > 3
    ):
        _check_arguments(data)
    return data


def _wrong_arity(data: list, arity: int) -> ProtocolError:
    return ProtocolError(
        "%s operation must be an array of %d: %r" % (data[0], arity, data)
    )


def _keyless(data: list) -> ProtocolError:
    return ProtocolError("operation without a key: %r" % (data,))


#: tag -> ``(class, arity, numeric)`` of each encoded operation
#: (``numeric``: the argument after the key is an amount): the one
#: table :func:`check_ops` and :func:`decode_ops` read.
_OPS: Dict[str, Tuple[type, int, bool]] = {
    "read": (ReadOp, 2, False), "tswrite": (TimestampedWriteOp, 4, False),
    "write": (WriteOp, 3, False), "append": (AppendOp, 3, False),
    "inc": (IncrementOp, 3, True), "dec": (DecrementOp, 3, True),
    "mul": (MultiplyOp, 3, True), "div": (DivideOp, 3, True),
}


def _pass(run: Sequence[Any], build: bool) -> List[Operation]:
    """The one pass over a run of encoded operation lists: every
    refusal of the codec, the first one raised as
    :class:`ProtocolError`, and with ``build`` the operations of them
    all, in order."""
    ops: List[Operation] = []
    for data in run:
        if not isinstance(data, (list, tuple)):
            raise ProtocolError("ops must be a sequence: %r" % (data,))
        for item in data:
            if not isinstance(item, list):
                raise ProtocolError(
                    "operation must be an array: %r" % (item,)
                )
            try:
                cls, arity, numeric = _OPS[item[0]]
            except (IndexError, KeyError, TypeError):
                # empty, unknown, unhashable
                tag = item[0] if item else None
                raise ProtocolError(
                    "unknown operation tag %r" % (tag,)
                ) from None
            if len(item) != arity:
                raise _wrong_arity(item, arity)
            key = item[1]
            if not isinstance(key, str):
                raise _keyless(item)
            if arity == 3:
                arg = item[2]
                # Exact int or float, all a JSON parse yields for a
                # number: not a string (``"NaN"``) or a bool (an ``int``
                # to ``isinstance``).
                if (
                    numeric
                    and type(arg) is not int
                    and type(arg) is not float
                ):
                    raise ProtocolError(
                        "non-numeric operation amount %r" % (arg,)
                    )
                if type(arg) is not int or not arg:
                    _check_arguments(item)
                if build:
                    ops.append(cls(key, arg))
            elif arity == 2:
                if build:
                    ops.append(cls(key))
            else:
                _check_arguments(item)
                # Thomas-rule timestamps are exactly [int time, site
                # name] pairs: any other stamp fails to compare (or
                # compares nonsensically) with the store's stamps at
                # apply time, after it was logged.
                ts = item[3]
                if (
                    not isinstance(ts, (list, tuple))
                    or len(ts) != 2
                    or type(ts[0]) is not int
                    or type(ts[1]) is not str
                    or not ts[1]
                ):
                    raise ProtocolError(
                        "tswrite ts must be a [time, site] pair: %r" % (ts,)
                    )
                if build:
                    ops.append(cls(key, item[2], tuple(ts)))
    return ops


def check_ops(data: Sequence[list]) -> Sequence[list]:
    """The check pass of the operation codec: ``data`` itself once each
    array in it is an operation's encoding.  A COMMU receiver applies
    the checked arrays themselves."""
    _pass((data,), False)
    return data


def check_ops_many(run: Sequence[Sequence[list]]) -> None:
    """:func:`check_ops` of every operation list in ``run``, in one
    pass: a receiver checks a whole batch's plain entries at once."""
    _pass(run, False)


def decode_op(data: list) -> Operation:
    return decode_ops((data,))[0]


def encode_ops(ops: Sequence[Operation]) -> list:
    return [encode_op(op) for op in ops]


def decode_ops(data: Sequence[list]) -> Tuple[Operation, ...]:
    """The check pass that also builds: :func:`check_ops`'s refusals,
    then the operations."""
    return tuple(_pass((data,), True))


# -- MSets -------------------------------------------------------------------


def encode_mset(mset: MSet, ops: Optional[list] = None) -> Dict[str, Any]:
    """``tid``, ``ops`` and ``origin`` always; the rest only where it
    differs from the default :func:`decode_mset` assumes.  ``ops``:
    ``mset.ops`` already encoded, when the caller holds them (the
    origin, the request's own arrays)."""
    out: Dict[str, Any] = {
        "tid": mset.tid,
        "ops": encode_ops(mset.ops) if ops is None else ops,
        "origin": mset.origin,
    }
    if mset.kind != MSetKind.UPDATE:
        out["kind"] = mset.kind
    if mset.order is not None:
        out["order"] = list(mset.order)
    if mset.txn_number is not None:
        out["txn"] = mset.txn_number
    if mset.info:
        out["info"] = [[k, v] for k, v in mset.info]
    return out


def decode_mset(data: Dict[str, Any]) -> MSet:
    """Decode one encoded MSet, totally: any malformed payload raises
    :class:`ProtocolError`, never a bare ``ValueError``/``TypeError``
    that would escape the receiver's protocol-error handling (and
    leave ``data_received`` with an unhandled exception).

    A plain update's entry written by a tree from before the array
    form (exactly ``tid``, ``ops`` and ``origin``) is one of these.
    """
    if not isinstance(data, dict):
        raise ProtocolError("mset must be an object: %r" % (data,))
    get = data.get
    kind = get("kind", MSetKind.UPDATE)
    if not isinstance(kind, str):
        raise ProtocolError("mset kind must be a string: %r" % (kind,))
    origin = get("origin", "")
    if not isinstance(origin, str):
        raise ProtocolError("mset origin must be a string: %r" % (origin,))
    order = get("order")
    if order is not None:
        if not isinstance(order, (list, tuple)):
            raise ProtocolError(
                "mset order must be a sequence: %r" % (order,)
            )
        order = tuple(order)
    info = get("info", ())
    if info != ():  # absent: no pairs to check
        if not isinstance(info, (list, tuple)):
            raise ProtocolError("mset info must be a sequence: %r" % (info,))
        for pair in info:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ProtocolError("malformed mset info pair: %r" % (pair,))
        info = tuple([(pair[0], pair[1]) for pair in info])
    return _fill(
        _new(MSet),
        get("tid"),
        kind,
        decode_ops(get("ops", ())),
        origin,
        order,
        get("txn"),
        info,
    )


# -- log and wire payloads ---------------------------------------------------

#: the entry types of a run of plain updates' payloads alone.
_ARRAYS = {list}


def decode_payloads(
    origin: str, first: int, payloads: Sequence[Any], pairs: bool = False
) -> List[Any]:
    """The entry each of ``payloads`` applies as — the records
    ``origin`` logged as ``first``, ``first + 1``, ... — the one reader
    of the payload format, for a peer batch, a log replay and an
    outbox reload alike.

    An array is a plain update's payload: its write operations'
    encodings.  Its tid is ``"<origin>:<seq>"`` — its log position, so
    the payload does not carry it — and it comes back as ``(tid,
    ops)``, ``ops`` the checked arrays themselves, with ``pairs``; else
    as its :class:`MSet`.  An object is any other entry, ``{"mset":
    ...}``, and comes back as its ``mset`` decoded (:func:`decode_mset`).
    Anything else is refused, as is any malformed entry, with
    :class:`ProtocolError`.  With ``pairs`` the arrays of the run are
    checked in one pass, and a run of arrays alone builds no
    :class:`MSet` and no dict."""
    if pairs and {*map(type, payloads)} == _ARRAYS:
        # The common run: a peer's plain updates, nothing else.
        check_ops_many(payloads)
        seqs = range(first, first + len(payloads))
        return list(zip([f"{origin}:{seq}" for seq in seqs], payloads))
    out: List[Any] = []
    arrays = []
    for seq, payload in enumerate(payloads, first):
        if type(payload) is list:
            if pairs:
                out.append((f"{origin}:{seq}", payload))
                arrays.append(payload)
            else:
                out.append(_fill(
                    _new(MSet), f"{origin}:{seq}", MSetKind.UPDATE,
                    decode_ops(payload), origin, None, None, (),
                ))
        elif type(payload) is dict:
            out.append(decode_mset(payload.get("mset")))
        else:
            raise ProtocolError(
                "payload must be an array or an object: %r" % (payload,)
            )
    check_ops_many(arrays)
    return out

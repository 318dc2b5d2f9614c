"""Outside-in tracer: timing wrappers swapped in at benchmark time.

Nothing under ``src/`` knows about this file.  :meth:`Tracer.install`
replaces the layer entry points listed in :data:`TARGETS` with
wrappers and :meth:`Tracer.uninstall` puts the originals back
(identity-checked by ``test_bench.py``).  Module-level ``protocol``
functions are imported *by name* into ``server.py``/``client.py``, so a
function target is replaced on every loaded ``repro.*`` module whose
attribute *is* the original; methods are replaced on the defining
class.

Timing model.  Everything runs on one event-loop thread, so a span's
cost is the time it spends *on the CPU*, not its wall duration: an
``async`` target is driven step by step (each resume up to the next
suspension is timed), a plain function is one step.  Steps nest
strictly -- the loop resumes the outermost coroutine, which resumes the
next, and all of them return before the task suspends -- so one stack
of open steps is enough to know the enclosing span ("the span that
caused it", always in the same asyncio task).  A span's *run* time is
the sum of its steps, its *self* time is run minus the run time of the
spans nested in it, and self times over all spans add up to the CPU
spent inside any wrapped function; the rest of the process's CPU
(event loop, streams, selectors, the benchmark's own callers) is the
unattributed remainder.

Aggregates (count, wall, run, self, steps) cover every call.  Full
spans are kept for one root span in ``sample_every`` together with
everything nested under it, and written as JSON lines by
:meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import types
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["TARGETS", "Target", "Tracer"]

_clock = time.perf_counter

Ident = Optional[Callable[[tuple, Any], Any]]


class Target(NamedTuple):
    """One entry point to wrap: ``owner`` is ``module:Class`` for a
    method or a bare module name for a function."""

    layer: str
    owner: str
    attr: str
    #: best-effort identifier visible from outside (request id, tid),
    #: from the call's positional args and its result.
    ident: Ident = None


def _frame_id(args: tuple, result: Any) -> Any:
    frame = args[1] if len(args) > 1 else None
    return frame.get("id") if isinstance(frame, dict) else None


def _result_id(args: tuple, result: Any) -> Any:
    return result.get("id") if isinstance(result, dict) else None


def _result_tid(args: tuple, result: Any) -> Any:
    return result.get("tid") if isinstance(result, dict) else None


def _mset_tid(args: tuple, result: Any) -> Any:
    return getattr(args[1], "tid", None) if len(args) > 1 else None


def _first_mset_tid(args: tuple, result: Any) -> Any:
    msets = args[1] if len(args) > 1 else ()
    return getattr(msets[0], "tid", None) if msets else None


def _decoded_tid(args: tuple, result: Any) -> Any:
    return getattr(result, "tid", None)


_CLIENT = "repro.live.client:LiveClient"
_CACHE = "repro.live.read_cache:EpsilonReadCache"
_TOKEN = "repro.consistency:SessionToken"
_ROUTER = "repro.live.router:ShardRouter"
_SERVER = "repro.live.server:ReplicaServer"
_ENGINE = "repro.live.engine:LiveEngine"
_COMMU = "repro.live.engine:CommuLiveEngine"
_ORDUP = "repro.live.engine:OrdupLiveEngine"
_LOG = "repro.live.durable_queue:_DurableLog"
_OUTBOX = "repro.live.durable_queue:DurableOutbox"
_INBOX = "repro.live.durable_queue:DurableInbox"
_PROTOCOL = "repro.live.protocol"

#: the layer entry points, outermost first within each layer.
TARGETS: Tuple[Target, ...] = (
    Target("client", _CLIENT, "update", _result_tid),
    Target("client", _CLIENT, "_query"),
    Target("client", _CLIENT, "_issue_query"),
    Target("client", _CLIENT, "request", _result_id),
    Target("client", _CLIENT, "_route"),
    Target("read_cache", _CACHE, "lookup"),
    Target("read_cache", _CACHE, "store"),
    Target("read_cache", _CACHE, "invalidate"),
    Target("consistency", "repro.consistency", "resolve_read_options"),
    Target("consistency", _TOKEN, "merge"),
    Target("consistency", _TOKEN, "observe_write"),
    Target("consistency", _TOKEN, "dominated_by"),
    Target("consistency", _TOKEN, "encode"),
    Target("router", _ROUTER, "update"),
    Target("router", _ROUTER, "query"),
    Target("router", _ROUTER, "_call"),
    Target("protocol", _PROTOCOL, "encode_frame"),
    Target("protocol", _PROTOCOL, "read_frame"),
    Target("protocol", _PROTOCOL, "payload_blob"),
    Target("protocol", _PROTOCOL, "encode_bin_batch_frame"),
    Target("protocol", _PROTOCOL, "decode_bin_frame"),
    Target("protocol", _PROTOCOL, "encode_mset"),
    Target("protocol", _PROTOCOL, "decode_mset", _decoded_tid),
    Target("protocol", _PROTOCOL, "encode_ops"),
    Target("protocol", _PROTOCOL, "decode_ops"),
    Target("server", _SERVER, "_serve_request", _frame_id),
    Target("server", _SERVER, "_handle_update", _result_tid),
    Target("server", _SERVER, "_handle_query"),
    Target("server", _SERVER, "_send_batches"),
    Target("server", _SERVER, "_on_mset_batch_frame"),
    Target("server", _SERVER, "_on_peer_ack"),
    Target("engine", _ENGINE, "accept", _mset_tid),
    Target("engine", _ENGINE, "accept_batch", _first_mset_tid),
    Target("engine", _COMMU, "fully_acked_many"),
    Target("engine", _COMMU, "query"),
    Target("engine", _ORDUP, "query"),
    Target("durable_queue", _OUTBOX, "append_many"),
    Target("durable_queue", _OUTBOX, "ack_through"),
    Target("durable_queue", _INBOX, "record"),
    Target("durable_queue", _INBOX, "record_many"),
    Target("durable_queue", _LOG, "sync"),
    Target("election", _SERVER, "_acquire_order"),
)

# aggregate slots
COUNT, WALL, RUN, SELF, STEPS = range(5)


class Tracer:
    """Installs the wrappers, aggregates every call, samples full spans."""

    def __init__(self, sample_every: int = 64) -> None:
        self.sample_every = max(1, int(sample_every))
        #: span name -> [count, wall_s, run_s, self_s, steps]
        self.totals: Dict[str, List[float]] = {}
        self.layers: Dict[str, str] = {}
        #: sampled spans, flushed by :meth:`write_spans`.
        self.spans: List[Dict[str, Any]] = []
        #: open steps, innermost last: [nested_run_s, span_id, keep_list]
        self._stack: List[list] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._roots = 0
        self._next_id = 0

    # -- install / uninstall ---------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def install(self) -> None:
        """Swap every target for its wrapper (idempotent)."""
        if self._patched:
            return
        try:
            for target in TARGETS:
                self._install_one(target)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, target: Target) -> None:
        module_name, _, class_name = target.owner.partition(":")
        module = sys.modules.get(module_name)
        if module is None:
            __import__(module_name)
            module = sys.modules[module_name]
        name = "%s.%s" % (target.layer, target.attr.lstrip("_"))
        self.layers[name] = target.layer
        if class_name:
            owner = getattr(module, class_name)
            original = owner.__dict__[target.attr]
            self._swap(owner, target.attr, original,
                       self._wrap(name, original, target.ident))
            return
        original = getattr(module, target.attr)
        wrapper = self._wrap(name, original, target.ident)
        for other_name, other in list(sys.modules.items()):
            if (
                other is not None
                and (other_name == "repro" or other_name.startswith("repro."))
                and other.__dict__.get(target.attr) is original
            ):
                self._swap(other, target.attr, original, wrapper)

    def _swap(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back (safe to call twice)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name: str, fn: Any, ident: Ident) -> Any:
        wrap = (
            self._wrap_async if inspect.iscoroutinefunction(fn)
            else self._wrap_sync
        )
        wrapper = wrap(name, fn, ident)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _open(self) -> list:
        """Start a span: decide whether its tree is kept, push nothing."""
        stack = self._stack
        self._next_id += 1
        if stack:
            parent = stack[-1]
            return [0.0, self._next_id, parent[2], parent[1]]
        self._roots += 1
        keep = [] if self._roots % self.sample_every == 0 else None
        return [0.0, self._next_id, keep, None]

    def _close(
        self, name: str, frame: list, start: float, end: float,
        run: float, steps: int, ident: Ident, args: tuple, result: Any,
    ) -> None:
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0, 0.0, 0]
        total[COUNT] += 1
        total[WALL] += end - start
        total[RUN] += run
        total[SELF] += run - frame[0]
        total[STEPS] += steps
        keep = frame[2]
        if keep is None:
            return
        keep.append(
            {
                "id": frame[1],
                "parent": frame[3],
                "name": name,
                "layer": self.layers[name],
                "start": start,
                "end": end,
                "run_us": run * 1e6,
                "self_us": (run - frame[0]) * 1e6,
                "steps": steps,
                "ident": _jsonable(ident(args, result)) if ident else None,
            }
        )
        if frame[3] is None:  # the root closed: its tree is complete
            self.spans.extend(keep)

    def _wrap_sync(self, name: str, fn: Any, ident: Ident) -> Any:
        stack = self._stack
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer._open()
            stack.append(frame)
            result = None
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                tracer._close(
                    name, frame, start, end, end - start, 1,
                    ident, args, result,
                )

        return traced

    def _wrap_async(self, name: str, fn: Any, ident: Ident) -> Any:
        stack = self._stack
        tracer = self

        @types.coroutine
        def drive(coro: Any, args: tuple) -> Any:
            frame = tracer._open()
            run = 0.0
            steps = 0
            start = _clock()
            result = None
            value: Any = None
            error: Optional[BaseException] = None
            try:
                while True:
                    stack.append(frame)
                    began = _clock()
                    try:
                        if error is None:
                            awaited = coro.send(value)
                        else:
                            pending, error = error, None
                            awaited = coro.throw(pending)
                    except StopIteration as stop:
                        result = stop.value
                        return result
                    finally:
                        spent = _clock() - began
                        stack.pop()
                        if stack:
                            stack[-1][0] += spent
                        run += spent
                        steps += 1
                    try:
                        value = yield awaited
                    except GeneratorExit:
                        coro.close()
                        raise
                    except BaseException as exc:  # forwarded, not handled
                        error = exc
            finally:
                tracer._close(
                    name, frame, start, _clock(), run, steps,
                    ident, args, result,
                )

        # A real coroutine function, so create_task() accepts the call.
        async def traced(*args: Any, **kwargs: Any) -> Any:
            return await drive(fn(*args, **kwargs), args)

        return traced

    # -- readout ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Tuple[float, ...]]:
        """Copy of the aggregates (difference two to get a window)."""
        return {name: tuple(total) for name, total in self.totals.items()}

    def write_spans(self, path: Any) -> int:
        """Write the sampled spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
        return len(self.spans)


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)

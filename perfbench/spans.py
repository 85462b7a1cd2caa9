"""Spans around layer entry points, kept in memory, and per-layer self time.

A span is one call of a wrapped entry point: its layer, start and end
(``time.perf_counter_ns``), the index of the span that was open when it
started (its parent, ``-1`` for none) and the RPC id its arguments
carry (0 when they carry none).  Spans are appended to flat ``array``
columns so a traced simulation with millions of them stays small, and
are written out once, when the traced run ends.

A layer's self time is the sum, over its spans, of each span's duration
minus the durations of its direct children.  Coroutine entry points (the
live wire functions) are timed step by step: each resumption of the
coroutine is one span, so the time the coroutine spends suspended in
the event loop is not booked to its layer.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

RpcOf = Callable[[Tuple[Any, ...]], int]
RpcOfResult = Callable[[Any], int]

_clock = time.perf_counter_ns


class SpanRecorder:
    """Wraps entry points and records one span per call."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.layer = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.rpc = array("q")
        self._stack: List[int] = [-1]
        #: Plain call counters for boundaries that get no span.
        self.counters: Dict[str, int] = {}
        self._patched: List[Tuple[Any, str, Any]] = []

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return lid

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        rpc_of: Optional[RpcOf] = None,
        rpc_of_result: Optional[RpcOfResult] = None,
    ) -> Callable[..., Any]:
        """A synchronous wrapper recording one span per call of ``fn``."""
        lid = self.layer_id(layer)
        layers, starts, ends = self.layer, self.start, self.end
        parents, rpcs, stack = self.parent, self.rpc, self._stack
        clock = _clock

        # open()/close() inlined over locals: this runs on every call of
        # every wrapped entry point, millions of times per traced run.
        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            idx = len(layers)
            layers.append(lid)
            parents.append(stack[-1])
            rpcs.append(rpc_of(args) if rpc_of is not None else 0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if rpc_of_result is not None:
                rpcs[idx] = rpc_of_result(result)
            return result

        return spanned

    def wrap_async(
        self,
        fn: Callable[..., Any],
        layer: str,
        rpc_of: Optional[RpcOf] = None,
        rpc_of_result: Optional[RpcOfResult] = None,
    ) -> Callable[..., Any]:
        """A coroutine-function wrapper recording one span per step."""
        recorder = self
        lid = self.layer_id(layer)

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> "_SteppedAwait":
            rpc = rpc_of(args) if rpc_of is not None else 0
            return _SteppedAwait(
                recorder, fn(*args, **kwargs), lid, rpc, rpc_of_result
            )

        return spanned

    def open(self, lid: int, rpc: int) -> int:
        idx = len(self.layer)
        self.layer.append(lid)
        self.parent.append(self._stack[-1])
        self.rpc.append(rpc)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def patch(
        self,
        owner: Any,
        attr: str,
        layer: str,
        rpc_of: Optional[RpcOf] = None,
        rpc_of_result: Optional[RpcOfResult] = None,
        is_async: bool = False,
    ) -> None:
        """Wrap ``owner.attr`` (a class method or module function) in spans."""
        maker = self.wrap_async if is_async else self.wrap
        self.replace(owner, attr, lambda fn: maker(fn, layer, rpc_of, rpc_of_result))

    def count(self, owner: Any, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        counters = self.counters
        counters.setdefault(counter, 0)

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                counters[counter] += 1
                return fn(*args, **kwargs)

            return counted

        self.replace(owner, attr, make)

    def replace(
        self,
        owner: Any,
        attr: str,
        make: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> None:
        """Set ``owner.attr`` to ``make(original)``; :meth:`unpatch` undoes it."""
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every patched attribute (latest first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def dump(self, stem: Path) -> None:
        """Write the span columns to ``<stem>.bin`` and ``<stem>.json``."""
        with open(f"{stem}.bin", "wb") as fh:
            for column in (self.layer, self.start, self.end, self.parent, self.rpc):
                column.tofile(fh)
        meta = {"layers": self.layers, "spans": len(self.layer), "counters": self.counters}
        with open(f"{stem}.json", "w") as fh:
            json.dump(meta, fh)


class _SteppedAwait:
    """Drives one coroutine, recording a span around each resumption."""

    __slots__ = ("_recorder", "_coro", "_lid", "_rpc", "_rpc_of_result")

    def __init__(
        self,
        recorder: SpanRecorder,
        coro: Any,
        lid: int,
        rpc: int,
        rpc_of_result: Optional[RpcOfResult],
    ) -> None:
        self._recorder = recorder
        self._coro = coro
        self._lid = lid
        self._rpc = rpc
        self._rpc_of_result = rpc_of_result

    def __await__(self) -> Any:
        recorder, coro = self._recorder, self._coro
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            idx = recorder.open(self._lid, self._rpc)
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                recorder.close(idx)
                if self._rpc_of_result is not None:
                    recorder.rpc[idx] = self._rpc_of_result(stop.value)
                return stop.value
            except BaseException:
                recorder.close(idx)
                raise
            recorder.close(idx)
            value, error = None, None
            try:
                value = yield yielded
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # relayed into the coroutine
                error = exc


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
class SpanTable:
    """The span columns of one process, as written by :meth:`dump`."""

    def __init__(
        self,
        layers: List[str],
        layer: "array[int]",
        start: "array[int]",
        end: "array[int]",
        parent: "array[int]",
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        self.layers = layers
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.counters = dict(counters or {})

    @classmethod
    def load(cls, stem: Path) -> "SpanTable":
        with open(f"{stem}.json") as fh:
            meta = json.load(fh)
        n = meta["spans"]
        columns = [array("i"), array("q"), array("q"), array("q"), array("q")]
        with open(f"{stem}.bin", "rb") as fh:
            for column in columns:
                column.fromfile(fh, n)
        layer, start, end, parent, _rpc = columns
        return cls(meta["layers"], layer, start, end, parent, meta["counters"])


def layer_totals(table: SpanTable) -> Dict[str, Tuple[int, int]]:
    """``layer -> (spans, self_ns)`` for one table.

    Raises ``ValueError`` on a span that never closed or that outlives
    its parent, either of which would make self time meaningless.
    """
    n = len(table.layer)
    child_ns = array("q", bytes(8 * n))
    start, end, parent = table.start, table.end, table.parent
    for i in range(n):
        if end[i] < start[i]:
            raise ValueError(f"span {i} ({table.layers[table.layer[i]]}) never closed")
        p = parent[i]
        if p >= 0:
            if start[i] < start[p] or end[i] > end[p]:
                raise ValueError(f"span {i} is not inside its parent {p}")
            child_ns[p] += end[i] - start[i]
    calls = [0] * len(table.layers)
    self_ns = [0] * len(table.layers)
    for i in range(n):
        lid = table.layer[i]
        calls[lid] += 1
        self_ns[lid] += end[i] - start[i] - child_ns[i]
    return {name: (calls[k], self_ns[k]) for k, name in enumerate(table.layers)}


def merge_totals(
    tables: Iterable[SpanTable],
) -> Tuple[Dict[str, Tuple[int, int]], Dict[str, int]]:
    """Per-layer ``(spans, self_ns)`` and counters summed over processes."""
    totals: Dict[str, Tuple[int, int]] = {}
    counters: Dict[str, int] = {}
    for table in tables:
        for name, (calls, self_ns) in layer_totals(table).items():
            c, s = totals.get(name, (0, 0))
            totals[name] = (c + calls, s + self_ns)
        for name, value in table.counters.items():
            counters[name] = counters.get(name, 0) + value
    return totals, counters

"""Spans recorded around the public calls into each layer of ``repro``.

The benchmark installs these wrappers from its own files — the program under
test is not edited.  Each wrapped call becomes one span ``(id, name, start,
end, parent, request, rows, useful)``: ``parent`` is the span that was open in
the same logical call chain (a context variable, carried across the server's
executor hop by the ``AsyncServer._in_worker`` wrapper), ``request`` is the
id of the root span of that chain, ``rows`` the packets the call was handed
and ``useful`` the rows it resolved (only the remainder reports it).

A layer's self time is its spans' durations minus the part of each span that
its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict


def _rows_of_first_arg(args, result):
    return len(args[1])


def _rows_of_decoded(args, result):
    return len(result[1])


def _one(args, result):
    return 1


def _resolved_rows(args, result):
    return int((result[0] >= 0).sum())


class SpanRecorder:
    """Keeps spans in memory; :meth:`dump` writes them when the run ends."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._undo: list[tuple] = []

    def _open(self):
        span_id = next(self._ids)
        outer = self._current.get()
        parent, request = (outer if outer is not None else (-1, span_id))
        token = self._current.set((span_id, request))
        return span_id, parent, request, token

    def wrap(self, owner, attr: str, name: str, rows=None, useful=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        record = self.spans.append
        clock = time.perf_counter_ns

        if isinstance(raw, property):
            getter = raw.fget

            def traced_get(obj):
                span_id, parent, request, token = self._open()
                start = clock()
                try:
                    return getter(obj)
                finally:
                    self._current.reset(token)
                    record((span_id, name, start, clock(), parent, request, 0, 0))

            setattr(owner, attr, property(traced_get, raw.fset, raw.fdel))
            return

        if inspect.iscoroutinefunction(raw):

            @functools.wraps(raw)
            async def traced_async(*args, **kwargs):
                span_id, parent, request, token = self._open()
                start = clock()
                try:
                    return await raw(*args, **kwargs)
                finally:
                    self._current.reset(token)
                    record((span_id, name, start, clock(), parent, request, 0, 0))

            setattr(owner, attr, traced_async)
            return

        is_classmethod = isinstance(raw, classmethod)
        call = raw.__func__ if is_classmethod else raw

        @functools.wraps(call)
        def traced(*args, **kwargs):
            span_id, parent, request, token = self._open()
            start = clock()
            result = failed = None
            try:
                result = call(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                self._current.reset(token)
                n = rows(args, result) if rows is not None and not failed else 0
                u = useful(args, result) if useful is not None and not failed else 0
                record((span_id, name, start, end, parent, request, n, u))

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def carry_into_executor(self, owner, attr: str) -> None:
        """Make ``owner.attr(fn, *args)`` run ``fn`` in the caller's context,
        so spans opened in the executor thread get the caller's span as
        parent."""
        raw = owner.__dict__[attr]
        self._undo.append((owner, attr, raw))

        @functools.wraps(raw)
        async def carried(obj, fn, *args):
            return await raw(obj, contextvars.copy_context().run, fn, *args)

        setattr(owner, attr, carried)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    from repro.classifiers.tuplemerge import TupleMergeClassifier
    from repro.core.nuevomatch import ISetIndex
    from repro.engine.engine import ClassificationEngine
    from repro.serving import wire
    from repro.serving.flowcache import CachedEngine, FlowCache
    from repro.serving.server import AsyncServer
    from repro.serving.sharded import ShardedEngine
    from repro.serving.updates import UpdateQueue
    from repro.serving.workers import ShardWorkerRuntime

    wrap = recorder.wrap
    wrap(ClassificationEngine, "build", "train")
    wrap(ClassificationEngine, "classify_block", "engine", rows=_rows_of_first_arg)
    wrap(ISetIndex, "lookup_block", "iset", rows=_rows_of_first_arg)
    wrap(
        TupleMergeClassifier,
        "classify_block_with_floors",
        "remainder",
        rows=_rows_of_first_arg,
        useful=_resolved_rows,
    )
    wrap(CachedEngine, "classify_block", "flowcache", rows=_rows_of_first_arg)
    wrap(FlowCache, "probe_block", "flowcache.probe", rows=_rows_of_first_arg)
    wrap(FlowCache, "fill_block", "flowcache.fill", rows=_rows_of_first_arg)
    wrap(ShardedEngine, "classify_block", "sharded", rows=_rows_of_first_arg)
    wrap(ShardedEngine, "ruleset", "sharded.ruleset")
    wrap(ShardWorkerRuntime, "classify_block", "workers", rows=_rows_of_first_arg)
    wrap(UpdateQueue, "insert", "updates", rows=_one)
    wrap(UpdateQueue, "remove", "updates", rows=_one)
    wrap(wire, "decode_classify_request", "wire.decode", rows=_rows_of_decoded)
    wrap(wire, "encode_classify_response", "wire.encode", rows=_rows_of_first_arg)
    wrap(AsyncServer, "start", "server.start")
    wrap(AsyncServer, "_serve_binary", "server")
    wrap(AsyncServer, "_serve_request", "server.json")
    recorder.carry_into_executor(AsyncServer, "_in_worker")


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    covered = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


class LayerTotals:
    """Per-layer self time, call counts, rows and durations from raw spans."""

    def __init__(self, spans):
        by_id = {span[0]: span for span in spans}
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span in spans:
            parent = by_id.get(span[4])
            if parent is not None:
                # Clip to the parent: a child that outlives it (it cannot,
                # but clocks are per call) never makes self time negative.
                children[span[4]].append(
                    (max(span[2], parent[2]), min(span[3], parent[3]))
                )
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.rows: dict[str, int] = defaultdict(int)
        self.useful: dict[str, int] = defaultdict(int)
        self.durations_ns: dict[str, list[int]] = defaultdict(list)
        self.spans = spans
        for span in spans:
            span_id, name, start, end, _parent, _request, rows, useful = span
            duration = end - start
            self.self_ns[name] += duration - _union_ns(children.get(span_id, []))
            self.calls[name] += 1
            self.rows[name] += rows
            self.useful[name] += useful
            self.durations_ns[name].append(duration)

    def total_ns(self, name: str) -> int:
        return sum(self.durations_ns.get(name, []))

    def per_row_ns(self, name: str) -> float:
        rows = self.rows.get(name, 0)
        return self.self_ns.get(name, 0) / rows if rows else 0.0


def setup_train_s(spans) -> float:
    """Training time spent before the server started listening."""
    starts = [s[2] for s in spans if s[1] == "server.start"]
    listen = min(starts) if starts else float("inf")
    return sum(s[3] - s[2] for s in spans if s[1] == "train" and s[2] < listen) / 1e9


def load_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)]

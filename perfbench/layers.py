"""The traced run: spans around each layer's public entry points.

:class:`LayerTracer` patches module and class attributes of the engine
from outside — including names other modules imported by value, such as
``repro.core.server.process_node`` — so the program itself carries no
instrumentation.  Each call records a span ``[name, start, end, parent,
qid]``; spans stay in memory and are written as JSONL when the run ends.
A layer's self time is its spans' durations minus the part their child
spans cover.

Every wrapped entry point is synchronous, so on the asyncio transport too
a span's children run strictly inside it and a plain stack gives the
parent.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

from repro import wire
from repro.core import aio_engine, cht, logtable, plancache, resultmemo
from repro.core import engine as core_engine
from repro.core import server as core_server
from repro.core.logtable import LogAction
from repro.model import database
from repro.net import aio, network, reliable, simclock
from repro.relational import compile as relational_compile

__all__ = ["LAYERS", "LayerTracer"]

#: Layers in report order; a span named ``"<layer>.<entry>"`` belongs to
#: ``<layer>``.
LAYERS = (
    "disql", "html", "model", "plancache", "relational", "processing",
    "resultmemo", "logtable", "cht", "server", "net", "wire", "simclock",
)


def _qid_of(args: tuple) -> str | None:
    """The query id a call works for, when one of its arguments names it."""
    for arg in args:
        qid = getattr(arg, "qid", None)
        if qid is None:
            query = getattr(arg, "query", None)
            qid = getattr(query, "qid", None)
        if qid is None and isinstance(arg, list) and arg:
            query = getattr(arg[0], "query", None)
            qid = getattr(query, "qid", None)
        if qid is not None:
            return str(qid)
    return None


def _kib_parsed(counts: Counter, args: tuple, result: object) -> None:
    counts["html.bytes"] += len(args[0])


def _rows_out(counts: Counter, args: tuple, result: object) -> None:
    counts["relational.rows"] += len(result)


def _observed(counts: Counter, args: tuple, result: object) -> None:
    counts["logtable.observed"] += len(result)
    counts["logtable.dropped"] += sum(1 for o in result if o.action is LogAction.DROP)


#: (owner, attribute, span name, optional counter hook).
_ENTRY_POINTS: tuple[tuple[object, str, str, Callable | None], ...] = (
    (core_engine, "compile_disql", "disql.compile", None),
    (aio_engine, "compile_disql", "disql.compile", None),
    (database, "parse_html", "html.parse", _kib_parsed),
    (database.DatabaseConstructor, "construct", "model.construct", None),
    (database, "build_node_database", "model.build", None),
    (plancache.PlanCache, "plan_for", "plancache.plan_for", None),
    (relational_compile.CompiledPlan, "execute_columnar", "relational.execute_columnar", _rows_out),
    (relational_compile.CompiledPlan, "execute", "relational.execute", _rows_out),
    (core_server, "process_node", "processing.process_node", None),
    (core_server, "process_frontier", "processing.process_frontier", None),
    (resultmemo.ResultMemo, "view", "resultmemo.view", None),
    (resultmemo.NodeMemoView, "rows", "resultmemo.rows", None),
    (resultmemo.NodeMemoView, "fanout", "resultmemo.fanout", None),
    (logtable.NodeQueryLogTable, "observe_bulk", "logtable.observe_bulk", _observed),
    (cht.CurrentHostsTable, "add", "cht.add", None),
    (cht.CurrentHostsTable, "mark_deleted", "cht.mark_deleted", None),
    (cht.CurrentHostsTable, "check_consistency", "cht.check", None),
    (network.Network, "send", "net.send", None),
    (reliable.ReliableChannel, "send", "net.reliable_send", None),
    (aio.AsyncioTransport, "send", "net.aio_send", None),
    (wire, "encode_message", "wire.encode", None),
    (wire, "decode_message", "wire.decode", None),
    (wire, "decode_envelope", "wire.decode_envelope", None),
    (aio, "decode_envelope", "wire.decode_envelope", None),
    (simclock.SimClock, "run", "simclock.run", None),
)

#: Transports whose ``listen`` registers message handlers; each handler
#: registered while tracing is wrapped in a ``server.handle`` span.
_LISTENERS = (network.Network, aio.AsyncioTransport)


class LayerTracer:
    """Installs span wrappers and turns the spans into per-layer figures."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            qid = _qid_of(args) or (spans[parent][4] if parent >= 0 else None)
            record = [name, clock(), 0.0, parent, qid]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for owner, attribute, name, hook in _ENTRY_POINTS:
            self._patch(owner, attribute, self._wrap(getattr(owner, attribute), name, hook))
        for transport in _LISTENERS:
            listen = transport.listen
            wrap = self._wrap

            def traced_listen(self_, site, port, listener, _listen=listen):
                return _listen(self_, site, port, wrap(listener, "server.handle", None))

            self._patch(transport, "listen", traced_listen)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def reset(self) -> None:
        """Forget spans and counts recorded so far (e.g. during warm-up)."""
        self.spans.clear()
        self.counts.clear()

    # -- analysis -------------------------------------------------------------

    def self_seconds(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Self time in raw seconds per layer and per span name, and the
        number of spans per name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, __ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_layer: dict[str, float] = defaultdict(float)
        by_name: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, __, ___) in enumerate(self.spans):
            self_time = (end - start) - child_time[index]
            by_layer[name.split(".", 1)[0]] += self_time
            by_name[name] += self_time
            calls[name] += 1
        return by_layer, by_name, calls

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, (name, start, end, parent, qid) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent if parent >= 0 else None,
                            "qid": qid,
                        }
                    )
                )
                out.write("\n")

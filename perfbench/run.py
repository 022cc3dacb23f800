#!/usr/bin/env python3
"""EXP-E1: whole DISQL queries timed from submission to CHT completion.

Runs one workload (see ``perfbench/workloads.py``) through the public
engine API, checks every answer against the data-shipping oracle, and
prints one JSON object as the last line of standard output::

    python3 perfbench/run.py --workload drill-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics of a traced pass instead, plus the tracing overhead, and
writes the spans to ``perfbench/out/spans-<workload>-<seed>.jsonl``.

A run has four parts, in this order:

1. **set-up**, repeated; ``setup_s`` is the median of the calibrated
   repetitions.  It generates the web, renders every page, builds the
   engine and runs the warm-up queries;
2. the **timed pass**: a closed loop of queries for ``--seconds``, in
   slices bracketed by calibration readings (``calibration.py``), after a
   ``gc.collect()``; GC stays enabled;
3. the **record pass**: a fixed number of queries on a fresh engine under
   ``tracemalloc``.  It gives ``retained_kib_per_query`` and, because it
   runs the same queries in the same order every time, the deterministic
   simulator figures: messages, bytes and SimClock response times;
4. the **oracle check**, outside every timed region: each query must be
   COMPLETE and its distinct row set must equal the data-shipping
   engine's.  Any other outcome counts as a failed query, and the run
   exits non-zero.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro  # noqa: E402
from repro import QueryStatus, WebDisEngine  # noqa: E402
from repro.baselines.datashipping import DataShippingEngine  # noqa: E402
from repro.core.aio_engine import AsyncioWebDisEngine  # noqa: E402
from repro.model.database import DatabaseConstructor  # noqa: E402

from calibration import Calibrator  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: A socket query that has not completed after this long counts as failed.
QUERY_TIMEOUT_S = 10.0
#: The percentile reported as ``query_tail_ms`` and ``vresp_tail_s``.  A
#: fixed percentile repeats from run to run where "the highest with ten
#: samples beyond it" would move with the sample count; a run with too few
#: samples falls back to the highest of ``_TAIL_FALLBACKS`` that has ten.
TAIL_PCT = 90.0
_TAIL_FALLBACKS = (80.0, 75.0, 50.0)

OUT_DIR = Path(__file__).resolve().parent / "out"


def _log(message: str) -> None:
    print(message, flush=True)


# -- closed-loop runners --------------------------------------------------------


def _slice_open(submitted: int, start: float, budget: float | None, limit: int | None) -> bool:
    """Whether a slice that began at ``start`` may submit another query."""
    if limit is not None and submitted >= limit:
        return False
    return budget is None or time.perf_counter() - start < budget


class SimRunner:
    """Runs queries on the simulator; ``engine.run()`` drives the clock."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed

    async def new_engine(self, web) -> WebDisEngine:
        network = self.workload.network
        return WebDisEngine(
            web,
            config=self.workload.config,
            net_config=network(self.seed, web) if network is not None else None,
        )

    async def close(self, engine) -> None:
        pass

    async def close_all(self) -> None:
        pass

    async def run_slice(self, engine, texts, budget: float | None, limit: int | None) -> list:
        """Closed loop with ``in_flight`` queries until ``budget`` seconds
        have passed or ``limit`` queries were submitted; each completion
        submits the next query.  Returns ``[text, handle, seconds]``
        records; ``seconds`` stays None for a query that never completed."""
        records: list[list] = []
        start = time.perf_counter()

        def submit() -> None:
            if not _slice_open(len(records), start, budget, limit):
                return
            record = [next(texts), None, None]
            records.append(record)
            submitted = time.perf_counter()

            def done(handle) -> None:
                record[2] = time.perf_counter() - submitted
                submit()

            record[1] = engine.submit_disql(record[0], on_complete=done)

        for __ in range(self.workload.in_flight):
            submit()
        engine.run()
        return records


class SocketRunner:
    """Runs queries over loopback TCP, timed from ``submit_disql`` to the
    ``on_complete`` hook (``AsyncioWebDisEngine.run`` polls every 20 ms and
    would round latencies to the poll interval)."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self._open: list[AsyncioWebDisEngine] = []

    async def new_engine(self, web) -> AsyncioWebDisEngine:
        engine = AsyncioWebDisEngine(web, config=self.workload.config)
        self._open.append(engine)
        return engine

    async def close(self, engine) -> None:
        self._open.remove(engine)
        await engine.aclose()

    async def close_all(self) -> None:
        while self._open:
            await self.close(self._open[-1])

    async def run_slice(self, engine, texts, budget: float | None, limit: int | None) -> list:
        loop = asyncio.get_running_loop()
        records: list[list] = []
        start = time.perf_counter()

        async def client() -> None:
            while _slice_open(len(records), start, budget, limit):
                record = [next(texts), None, None]
                records.append(record)
                finished = loop.create_future()
                submitted = time.perf_counter()

                def done(handle, record=record, finished=finished, submitted=submitted) -> None:
                    record[2] = time.perf_counter() - submitted
                    if not finished.done():
                        finished.set_result(None)

                record[1] = engine.submit_disql(record[0], on_complete=done)
                try:
                    await asyncio.wait_for(finished, QUERY_TIMEOUT_S)
                except asyncio.TimeoutError:
                    return

        await asyncio.gather(*(client() for __ in range(self.workload.in_flight)))
        return records


# -- measurement ----------------------------------------------------------------


def _counters(engine) -> dict[str, float]:
    """The engine's public counters and gauges, for before/after deltas."""
    stats = engine.stats
    servers = engine.servers.values()
    return {
        "messages": stats.messages_sent,
        "bytes": stats.bytes_sent,
        "retries": stats.retried_sends,
        "memo_hits": stats.memo_hits,
        "memo_misses": stats.memo_misses,
        "memo_bytes": stats.memo_bytes_est,
        "builds": stats.db_cache_misses,
        "parse_hits": stats.parse_cache_hits,
        "index_hits": stats.index_hits,
        "index_builds": stats.index_builds,
        "forwards": stats.clones_forwarded,
        "nodes": stats.node_queries_evaluated,
        "events": getattr(engine.clock, "events_executed", 0),
        "log_entries": engine.total_log_entries(),
        "parsed_docs": sum(s.constructor.cache_info()["parsed_documents"] for s in servers),
        "plan_hits": sum(s.plans.hits for s in servers),
        "plan_misses": sum(s.plans.misses for s in servers),
    }


@dataclass
class Phase:
    """The records and calibrated busy time of one timed pass."""

    records: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    raw_latencies: list = field(default_factory=list)
    vresp: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    busy_s: float = 0.0
    busy_raw_s: float = 0.0
    totals: dict = field(default_factory=dict)
    _entered: dict = field(default_factory=dict)

    def enter(self, engine) -> None:
        self._entered[id(engine)] = _counters(engine)

    def leave(self, engine) -> None:
        before = self._entered.pop(id(engine))
        for key, value in _counters(engine).items():
            self.totals[key] = self.totals.get(key, 0) + value - before[key]

    def add(self, records: list, wall: float, factor: float, sim: bool) -> None:
        self.records.extend(records)
        self.busy_s += wall * factor
        self.busy_raw_s += wall
        self.factors.append(factor)
        for __, handle, seconds in records:
            if seconds is None:
                continue
            self.raw_latencies.append(seconds)
            self.latencies.append(seconds * factor)
            response = handle.response_time()
            if response is not None:
                self.vresp.append(response if sim else response * factor)

    @property
    def completed(self) -> int:
        return len(self.latencies)


async def _timed_pass(runner, workload: Workload, web, engine, texts, seconds, cal) -> tuple:
    """The closed loop for ``seconds``, in calibrated slices.  Engines are
    replaced between slices every ``workload.rotation`` queries."""
    phase = Phase()
    sim = workload.transport == "sim"
    if workload.rotation:
        await runner.close(engine)
        engine = await runner.new_engine(web)
    phase.enter(engine)
    used = 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if workload.rotation and used >= workload.rotation:
            phase.leave(engine)
            await runner.close(engine)
            engine = await runner.new_engine(web)
            phase.enter(engine)
            used = 0
        limit = workload.rotation - used if workload.rotation else None
        cal.begin()
        start = time.perf_counter()
        records = await runner.run_slice(engine, texts, workload.slice_seconds, limit)
        wall = time.perf_counter() - start
        phase.add(records, wall, cal.end(), sim)
        used += len(records)
    phase.leave(engine)
    return phase, engine


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _tail_pct(count: int) -> float:
    """:data:`TAIL_PCT` if at least ten of ``count`` samples lie beyond it,
    else the highest fallback that has ten beyond it."""
    for pct in (TAIL_PCT, *_TAIL_FALLBACKS):
        if count - math.ceil(pct / 100.0 * count) >= 10:
            return pct
    return _TAIL_FALLBACKS[-1]


async def _set_up(runner, workload: Workload, seed: int, reps: int, cal) -> tuple:
    """``reps`` calibrated set-ups; returns the last one's web, engine and
    warm-up records, and every repetition's calibrated seconds."""
    times = []
    engine = None
    for rep in range(reps):
        if engine is not None:
            await runner.close(engine)
        gc.collect()
        cal.begin()
        start = time.perf_counter()
        web = workload.build_web(seed)
        web.total_bytes()  # pages render lazily: read every Page.html now
        engine = await runner.new_engine(web)
        warmup = workload.warmup(seed, web)
        records = await runner.run_slice(engine, iter(warmup), None, len(warmup))
        times.append((time.perf_counter() - start) * cal.end())
    return web, engine, records, times


async def _record_pass(runner, workload: Workload, web, engine, texts) -> dict:
    """The next ``record_queries`` texts, then the next ``memory_queries``
    under tracemalloc, on the warmed set-up engine (a fresh one for
    rotating workloads).  The same seed always runs the same sequence."""
    if workload.rotation:
        await runner.close(engine)
        engine = await runner.new_engine(web)
    count = workload.record_queries
    before = _counters(engine)
    records = await runner.run_slice(engine, texts, None, count)
    after = _counters(engine)

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        records += await runner.run_slice(engine, texts, None, workload.memory_queries)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    handles = engine.client.handles()
    gauges = {
        "log_entries": engine.total_log_entries(),
        "parsed_documents": _counters(engine)["parsed_docs"],
        "memo_bytes_est": engine.stats.memo_bytes_est,
        "cht_records_held": sum(len(h.cht.history()) for h in handles),
        "handles_held": len(handles),
    }
    return {
        "engine": engine,
        "records": records,
        "retained_kib": grown / 1024.0 / workload.memory_queries,
        "messages": (after["messages"] - before["messages"]) / count,
        "kib": (after["bytes"] - before["bytes"]) / 1024.0 / count,
        "vresp": [h.response_time() for __, h, s in records[:count] if s is not None],
        "gauges": gauges,
    }


def _check(records: list, web) -> int:
    """Failed queries among ``records``: not COMPLETE, or a distinct row
    set different from the data-shipping oracle's."""
    expected: dict[str, set] = {}
    # One database cache and one set of sitewide DOCUMENT tables for every
    # reference run: the oracle builds each page's relations, and each
    # site's table, once instead of once per query.
    constructor = DatabaseConstructor(cache_size=web.page_count())
    site_documents: dict = {}
    failed = 0
    for text, handle, seconds in records:
        if seconds is None or handle.status is not QueryStatus.COMPLETE:
            failed += 1
            continue
        if text not in expected:
            oracle = DataShippingEngine(web)
            oracle.constructor = constructor
            oracle._site_documents = site_documents
            reference = oracle.run_query(text)
            expected[text] = {(r.header, r.values) for r in reference.unique_rows()}
        if {(r.header, r.values) for r in handle.unique_rows()} != expected[text]:
            failed += 1
    return failed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the two kinds of run ----------------------------------------------------------


async def _end_to_end(workload: Workload, runner, args) -> tuple[dict, list, object]:
    cal = Calibrator()
    started = time.perf_counter()
    web, engine, warm, setups = await _set_up(runner, workload, args.seed, SETUP_REPS, cal)
    texts = workload.queries(args.seed, web)
    recorded = time.perf_counter()
    record = await _record_pass(runner, workload, web, engine, texts)
    timed = time.perf_counter()
    phase, engine = await _timed_pass(
        runner, workload, web, record["engine"], texts, args.seconds, cal
    )
    await runner.close(engine)
    _log(
        f"[{workload.name}] wall: set-up {recorded - started:.1f} s,"
        f" record pass {timed - recorded:.1f} s, timed pass {time.perf_counter() - timed:.1f} s"
    )

    n = phase.completed
    pct = _tail_pct(n)
    sim = workload.transport == "sim"
    vresp = record["vresp"] if sim else phase.vresp
    vpct = _tail_pct(len(vresp))
    _log(
        f"[{workload.name}] set-up reps (calibrated s): "
        + ", ".join(f"{s:.3f}" for s in setups)
    )
    _log(
        f"[{workload.name}] timed pass: {n} queries, raw wall p50"
        f" {statistics.median(phase.raw_latencies) * 1e3:.3f} ms, calibration reading"
        f" median {statistics.median(cal.readings):.4f} ms"
        f" (min {min(cal.readings):.4f}, max {max(cal.readings):.4f}),"
        f" {len(phase.factors)} slices"
    )
    _log(
        f"[{workload.name}] calibrated latency percentiles (ms): "
        + ", ".join(
            f"p{p:g} {_percentile(phase.latencies, p) * 1e3:.3f}" for p in (10, 50, 75, 90, 95, 99)
        )
    )
    _log(
        f"[{workload.name}] query_tail_ms is p{pct:g} of {n} samples;"
        f" vresp_tail_s is p{vpct:g} of {len(vresp)} samples"
        + ("" if sim else " (loop clock: traffic crosses loopback TCP)")
    )
    _log(
        f"[{workload.name}] record pass: {workload.record_queries} queries, then"
        f" {workload.memory_queries} under tracemalloc retaining"
        f" {record['retained_kib']:.2f} KiB/query; gauges "
        + json.dumps(record["gauges"])
    )
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "query_p50_ms": _metric(statistics.median(phase.latencies) * 1e3, "ms"),
        "query_tail_ms": _metric(_percentile(phase.latencies, pct) * 1e3, "ms"),
        "queries_per_s": _metric(n / phase.busy_s, "1/s"),
        "vresp_p50_s": _metric(statistics.median(vresp), "s"),
        "vresp_tail_s": _metric(_percentile(vresp, vpct), "s"),
        "messages_per_query": _metric(record["messages"], "count"),
        "kib_per_query": _metric(record["kib"], "KiB"),
        "retained_kib_per_query": _metric(record["retained_kib"], "KiB"),
    }
    return metrics, warm + record["records"] + phase.records, web


async def _traced(workload: Workload, runner, args) -> tuple[dict, list, object]:
    cal = Calibrator()
    web, engine, warm, __ = await _set_up(runner, workload, args.seed, 1, cal)
    texts = workload.queries(args.seed, web)
    half = args.seconds / 2.0
    plain, engine = await _timed_pass(runner, workload, web, engine, texts, half, cal)
    await runner.close(engine)

    tracer = LayerTracer()
    tracer.install()
    try:
        engine = await runner.new_engine(web)
        warmup = workload.warmup(args.seed, web)
        warm += await runner.run_slice(engine, iter(warmup), None, len(warmup))
        tracer.reset()
        traced, engine = await _timed_pass(runner, workload, web, engine, texts, half, cal)
        peak_depth = max(s.peak_query_queue_depth for s in engine.servers.values())
        await runner.close(engine)
    finally:
        tracer.uninstall()

    n = traced.completed
    factor = statistics.median(traced.factors)
    self_s, self_by_name, calls = tracer.self_seconds()
    counts, totals = tracer.counts, traced.totals

    def per_query_ms(seconds: float) -> dict:
        return _metric(seconds * factor * 1e3 / n, "ms")

    def per_query(value: float, unit: str = "count") -> dict:
        return _metric(value / n, unit)

    def ratio(part: float, whole: float) -> dict:
        return _metric(part / whole if whole else 0.0, "ratio")

    def span_ms(*names: str) -> dict:
        return per_query_ms(sum(self_by_name[name] for name in names))

    query_ms = traced.busy_raw_s * factor * 1e3 / n
    plain_p50 = statistics.median(plain.latencies) * 1e3
    traced_p50 = statistics.median(traced.latencies) * 1e3
    metrics = {
        "disql.compile_ms": per_query_ms(self_s["disql"]),
        "html.parse_ms": per_query_ms(self_s["html"]),
        "html.parse_calls": per_query(calls["html.parse"]),
        "html.kib_parsed": per_query(counts["html.bytes"] / 1024.0, "KiB"),
        "model.build_ms": per_query_ms(self_s["model"]),
        "model.builds": per_query(totals["builds"]),
        "model.parse_hit_ratio": ratio(totals["parse_hits"], totals["builds"]),
        "model.parsed_docs": per_query(totals["parsed_docs"]),
        "plancache.lookup_ms": per_query_ms(self_s["plancache"]),
        "plancache.hit_ratio": ratio(
            totals["plan_hits"], totals["plan_hits"] + totals["plan_misses"]
        ),
        "relational.execute_ms": per_query_ms(self_s["relational"]),
        "relational.rows_out": per_query(counts["relational.rows"]),
        "relational.index_hit_ratio": ratio(
            totals["index_hits"], totals["index_hits"] + totals["index_builds"]
        ),
        "processing.self_ms": per_query_ms(self_s["processing"]),
        "processing.nodes": per_query(totals["nodes"]),
        "processing.forwards": per_query(totals["forwards"]),
        "resultmemo.lookup_ms": per_query_ms(self_s["resultmemo"]),
        "resultmemo.hit_ratio": ratio(
            totals["memo_hits"], totals["memo_hits"] + totals["memo_misses"]
        ),
        "resultmemo.bytes_est": per_query(totals["memo_bytes"], "bytes"),
        "logtable.admit_ms": per_query_ms(self_s["logtable"]),
        "logtable.drop_ratio": ratio(counts["logtable.dropped"], counts["logtable.observed"]),
        "logtable.entries": per_query(totals["log_entries"]),
        "cht.ingest_ms": span_ms("cht.add", "cht.mark_deleted"),
        "cht.check_ms": span_ms("cht.check"),
        "cht.entries": per_query(calls["cht.add"]),
        "server.handle_self_ms": per_query_ms(self_s["server"]),
        "scheduler.peak_depth": _metric(peak_depth, "count"),
        "net.send_ms": per_query_ms(self_s["net"]),
        "net.messages": per_query(totals["messages"]),
        "net.kib": per_query(totals["bytes"] / 1024.0, "KiB"),
        "net.retries": per_query(totals["retries"]),
        "wire.encode_ms": span_ms("wire.encode"),
        "wire.decode_ms": span_ms("wire.decode", "wire.decode_envelope"),
        "simclock.events": per_query(totals["events"]),
        "simclock.run_ms": per_query_ms(self_s["simclock"]),
        "trace.query_ms": _metric(query_ms, "ms"),
        "trace.overhead_ms": _metric(traced_p50 - plain_p50, "ms"),
    }
    _log(
        f"[{workload.name}] traced pass: {n} queries, {len(tracer.spans)}"
        f" spans; p50 untraced {plain_p50:.3f} ms, traced {traced_p50:.3f} ms"
    )
    accounted = sum(self_s.values()) * factor * 1e3 / n
    _log(
        f"[{workload.name}] self time per query: {query_ms:.3f} ms"
        f" ({accounted:.3f} ms inside spans)"
    )
    for layer in LAYERS:
        share = self_s[layer] * factor * 1e3 / n / query_ms
        _log(f"[{workload.name}]   {layer:<11} {share:6.1%}")
    spans_path = OUT_DIR / f"spans-{workload.name}-{args.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    _log(f"[{workload.name}] spans written to {spans_path.relative_to(ROOT)}")
    return metrics, warm + plain.records + traced.records, web


async def _run(workload: Workload, args) -> tuple[dict, list, object]:
    _log(
        f"[{workload.name}] seed={args.seed}: {workload.sizes}; closed loop,"
        f" {workload.in_flight} in flight, {workload.transport} transport"
    )
    runner_type = SocketRunner if workload.transport == "asyncio" else SimRunner
    runner = runner_type(workload, args.seed)
    try:
        if args.trace:
            return await _traced(workload, runner, args)
        return await _end_to_end(workload, runner, args)
    finally:
        await runner.close_all()


def _run_all(args) -> int:
    """Each workload in its own interpreter, one after the other."""
    status = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            check=False,
            capture_output=True,
            text=True,
        )
        lines = completed.stdout.strip().splitlines()
        for line in lines[:-1]:
            _log(line)
        _log(f"{name}: {lines[-1] if lines else completed.stderr.strip()}")
        status = status or completed.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        parser.error(f"repro must come from {ROOT / 'src'}, not {repro.__file__}")
    if args.workload == "all":
        return _run_all(args)

    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    metrics, records, web = asyncio.run(_run(workload, args))
    checked = time.perf_counter()
    failed = _check(records, web)
    attempted = len(records)
    _log(
        f"[{workload.name}] oracle check: {attempted - failed}/{attempted} queries match"
        f" (run {checked - started:.1f} s, check {time.perf_counter() - checked:.1f} s wall)"
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""cProfile harness for the engine's hot paths (EXP-P1 / EXP-P2 workloads).

Runs one of the perf-bench workloads under :mod:`cProfile` and prints the
top-N functions by cumulative time, so a perf regression can be localized
without wiring up an external profiler::

    PYTHONPATH=src python tools/profile_hotpath.py                  # all
    PYTHONPATH=src python tools/profile_hotpath.py --workload p1
    PYTHONPATH=src python tools/profile_hotpath.py --workload p2 --top 40
    PYTHONPATH=src python tools/profile_hotpath.py --workload p5
    PYTHONPATH=src python tools/profile_hotpath.py --workload p6 --json
    PYTHONPATH=src python tools/profile_hotpath.py --sort tottime
    PYTHONPATH=src python tools/profile_hotpath.py --out p2.pstats  # dump
    PYTHONPATH=src python tools/profile_hotpath.py --json > prof.json

The workloads are imported from the benches themselves, so the profile
always matches what ``BENCH_PERF.json`` measures (``p1``, ``p5`` and
``p6`` are the three shape groups of ``benchmarks/bench_relational.py``):

* ``p1`` — EXP-P1: every (node-query, node-database) pair of the group,
  evaluated with compiled plans and with the interpreter;
* ``p2`` — EXP-P2: the frontier-batching drill-down workload, one full
  engine run with the knob on and one with it off;
* ``p5`` — EXP-P5: the columnar shapes, one batch pass per
  (node-query, node-database) pair — the per-operator view, since each
  batch kernel (specialized equality, ``contains``, the generic per-row
  fallback) and the projector show up as distinct frames;
* ``p6`` — EXP-P6: the outer-level shapes (sitewide scan, generic
  conjunct, join-depth 2/3/4), one batch pass per pair, timed per
  pipeline level (``level-0`` … ``leaf``) through
  ``execute(..., level_times=...)`` so a join-order or probe regression
  is attributable to its level.

``--json`` emits the top-N table as machine-readable JSON (one object per
workload: function, ncalls, tottime, cumtime) for diffing profiles across
commits; the ``p6`` entry additionally carries ``level_times_s`` — per
shape, cumulative wall-clock per pipeline level.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

SORT_KEYS = ("cumulative", "tottime", "ncalls")


def _p1_pass() -> None:
    """One full EXP-P1 pass: compiled and interpreted evaluation."""
    from repro.relational.compile import compile_node_query
    from repro.relational.query import evaluate_node_query

    from bench_relational import group_shapes

    for shape in group_shapes("EXP-P1"):
        plan = compile_node_query(shape.query)
        for database in shape.databases:
            plan.execute(database)
            evaluate_node_query(shape.query, database)


def _p2_pass() -> None:
    """One full EXP-P2 cell: the drill-down query, knob on and off."""
    from bench_frontier import WORKLOADS, _run

    __, template, pages = WORKLOADS[1]
    _run(4, True, template, pages)
    _run(4, False, template, pages)


def _p5_pass() -> None:
    """One full EXP-P5 cell: every shape of the group, one batch pass each.

    Profiling this exposes the per-operator cost split: each specialized
    kernel, the generic per-row kernel and the batch projectors are
    separate functions in :mod:`repro.relational.columnar`.
    """
    from repro.relational.compile import compile_node_query

    from bench_relational import group_shapes

    for shape in group_shapes("EXP-P5", smoke=True):
        plan = compile_node_query(shape.query)
        for database in shape.databases:
            plan.execute(database, shape.site_documents)


def _p6_pass() -> dict:
    """One full EXP-P6 cell: every shape of the group, one batch pass
    each, timed per pipeline level.

    Returns ``{"level_times_s": {shape: {"level-0": s, …, "leaf": s}}}``
    (cumulative across that shape's databases), so the profile shows
    not only *which operator* is hot but *which plan level* it ran at.
    """
    from repro.relational.compile import compile_node_query

    from bench_relational import group_shapes

    level_times: dict[str, dict[str, float]] = {}
    for shape in group_shapes("EXP-P6", smoke=True):
        plan = compile_node_query(shape.query)
        times: dict[str, float] = {}
        for database in shape.databases:
            plan.execute(database, shape.site_documents, level_times=times)
        level_times[shape.name] = {key: round(value, 6) for key, value in times.items()}
    return {"level_times_s": level_times}


WORKLOAD_PASSES = {"p1": _p1_pass, "p2": _p2_pass, "p5": _p5_pass, "p6": _p6_pass}


def profile_workload(
    name: str, sort: str, top: int, out: str | None
) -> tuple[str, list[dict], dict | None]:
    """Profile one workload; returns (stats text, JSON rows, extras).

    ``extras`` is whatever the workload pass returned (``p6`` reports its
    per-level timing breakdown this way), or None.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    extras = WORKLOAD_PASSES[name]()
    profiler.disable()

    if out:
        profiler.dump_stats(out)

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(top)

    sort_index = {"cumulative": 3, "tottime": 2, "ncalls": 1}[sort]
    entries = sorted(
        (
            {
                "function": f"{filename}:{line}({func})",
                "ncalls": ncalls,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
            for (filename, line, func), (__, ncalls, tottime, cumtime, __c)
            in stats.stats.items()
        ),
        key=lambda row: (row["ncalls"], row["tottime"], row["cumtime"])[
            sort_index - 1
        ],
        reverse=True,
    )[:top]
    return buffer.getvalue(), entries, extras


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=(*WORKLOAD_PASSES, "all"), default="all",
        help="which perf workload to profile (default: all)",
    )
    parser.add_argument(
        "--top", type=int, default=25, help="functions to print (default 25)"
    )
    parser.add_argument(
        "--sort", choices=SORT_KEYS, default="cumulative",
        help="pstats sort key (default cumulative)",
    )
    parser.add_argument(
        "--out", default=None,
        help="also dump raw pstats data to this path (snakeviz-compatible)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the top-N table as JSON instead of pstats text",
    )
    args = parser.parse_args(argv)

    names = list(WORKLOAD_PASSES) if args.workload == "all" else [args.workload]
    as_json: dict[str, object] = {}
    for name in names:
        out = None
        if args.out:
            out = args.out if len(names) == 1 else f"{name}-{args.out}"
        text, entries, extras = profile_workload(name, args.sort, args.top, out)
        if args.json:
            as_json[name] = (
                entries if extras is None else {"functions": entries, **extras}
            )
        else:
            print(f"== {name.upper()} workload — top {args.top} by {args.sort} ==")
            print(text)
            if extras is not None:
                print("per-level wall-clock (cumulative, batch passes only):")
                for workload, levels in extras["level_times_s"].items():
                    split = "  ".join(
                        f"{level} {seconds * 1e3:.2f}ms"
                        for level, seconds in levels.items()
                    )
                    print(f"  {workload}: {split}")
                print()
        if out and not args.json:
            print(f"raw profile dumped to {out}")
    if args.json:
        print(json.dumps(as_json, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

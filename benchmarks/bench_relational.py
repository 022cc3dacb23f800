"""EXP-P1/P5/P6 — compiled node-query plans vs the interpreter.

WEBDIS evaluates the *same* node-query at every node a clone reaches
(paper §2.4, §4.4), so per-evaluation cost is the engine's inner loop.
This bench times that loop head-to-head, per node-query *shape*:

* **interpreter** — :func:`repro.relational.query.evaluate_node_query`,
  which re-walks the expression AST per candidate binding;
* **compiled** — :meth:`repro.relational.compile.CompiledPlan.execute`,
  the batch pipeline over column arrays and join-key hash indexes,
  compiled once per structure (timing measures execution only, as the
  plan cache amortizes compilation in production).

The shapes fall into three groups, each with its own gate:

* **EXP-P1** — the per-step node-queries of three DISQL queries
  (title-filter, relinfon-join, chained-steps) over every page of the
  EXP-S1 web at scale 4 (16 sites x 5 pages, seed 504);
* **EXP-P5** — link-heavy anchor scans, relinfon filters, a sitewide
  document scan (paper §7.1), a generic attr-vs-attr conjunct and a
  paper-sized small-page honesty workload;
* **EXP-P6** — the sitewide scan and generic conjunct again, plus a
  join-depth sweep (2-, 3- and 4-alias node-queries whose equality joins
  lower to hash-index probes).

``sitewide-scan`` and ``generic-conjunct`` are built and timed once and
count toward both the P5 and the P6 aggregate.  Three checks ride along:

1. row-for-row equality with the interpreter on every (node-query,
   node-database) pair of every shape;
2. a full :class:`WebDisEngine` run bit-identical (status, completion
   time, result rows in order) with ``compiled_plans`` on and off, for a
   title-filter query (EXP-P1/P5) and an anchor-join query (EXP-P6, so
   the probe path runs inside the engine);
3. a conservative speedup floor per group (``--check``; CI machines are
   noisy, the headline numbers in ``BENCH_PERF.json`` use more repeats).

``--smoke`` shrinks only the P5/P6 tables; P1 has one size.  Run directly
to (re)generate the three records in ``BENCH_PERF.json``::

    PYTHONPATH=src python benchmarks/bench_relational.py
    PYTHONPATH=src python benchmarks/bench_relational.py --smoke --check  # CI gate
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import EngineConfig, QueryStatus, WebDisEngine
from repro.disql import compile_disql
from repro.html.generator import PageSpec, render_page
from repro.model.database import build_documents_table, build_node_database
from repro.relational.compile import compile_node_query
from repro.relational.expr import And, Attr, Compare, Contains, Literal
from repro.relational.query import NodeQuery, TableDecl, evaluate_node_query
from repro.relational.table import Table
from repro.urlutils import parse_url
from repro.web import SyntheticWebConfig, build_synthetic_web
from repro.web.synthetic import synthetic_start_url

sys.path.insert(0, str(Path(__file__).parent))
from harness import format_table, merge_bench_record, ratio, report  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_PERF.json"


@dataclass(frozen=True)
class Shape:
    """One node-query and the node databases one timed pass runs it over."""

    name: str
    query: NodeQuery
    databases: tuple
    site_documents: Table | None = None


@dataclass(frozen=True)
class Group:
    """One experiment: its shapes, how to build them, engine check and gates.

    ``build(smoke)`` returns the shapes (a superset is fine: groups may
    share a builder, which then runs once).  ``check_shape`` names the
    shape the ``--check`` floor applies to (None: the group aggregate);
    ``full_target`` always applies to the aggregate of a full-size run.
    """

    experiment: str
    title: str
    shapes: tuple[str, ...]
    build: Callable[[bool], list[Shape]]
    engine_check: str
    check_floor: float
    full_target: float
    check_shape: str | None = None


#: EXP-P1's DISQL queries; each step's node-query is one shape.
P1_QUERIES = (
    (
        "title-filter",
        'select d.url from document d such that "{start}" (L|G)*3 d\n'
        'where d.title contains "topic"',
    ),
    (
        "relinfon-join",
        'select d.url, r.text\n'
        'from document d such that "{start}" (L|G)*2 d,\n'
        '     relinfon r such that r.delimiter = "b"\n'
        'where r.text contains "detail"',
    ),
    (
        "chained-steps",
        'select d.url, e.title\n'
        'from document d such that "{start}" G d\n'
        'where d.title contains "page"\n'
        '     document e such that d (L|G)*2 e\n'
        'where e.title contains "topic"',
    ),
)

#: The EXP-S1 web at scale 4: 16 sites x 5 pages.
P1_WEB = SyntheticWebConfig(
    sites=16, pages_per_site=5, local_out_degree=2, global_out_degree=2, seed=504
)

#: Engine bit-identity checks: (web, DISQL).  The anchor-join web is small,
#: but its query carries a real anchor join so the hash-probe path runs
#: inside the full engine.
ENGINE_CHECKS = {
    "title-filter": (P1_WEB, P1_QUERIES[0][1]),
    "anchor-join": (
        SyntheticWebConfig(
            sites=8, pages_per_site=4, local_out_degree=2, global_out_degree=2, seed=606
        ),
        'select d.url, a.href from document d such that "{start}" (L|G)*3 d,\n'
        "     anchor a such that a.base = d.url\n"
        "where a.href != a.base",
    ),
}


def _p1_shapes(smoke: bool) -> list[Shape]:
    """EXP-P1's per-step node-queries over every page; one size only."""
    web = build_synthetic_web(P1_WEB)
    start = synthetic_start_url(P1_WEB)
    databases = tuple(
        build_node_database(site.url_of(path), page.html)
        for site in map(web.site, web.site_names)
        for path, page in sorted(site.pages.items())
    )
    return [
        Shape(f"{name}/q{k + 1}", step.query, databases)
        for name, template in P1_QUERIES
        for k, step in enumerate(compile_disql(template.format(start=start)).steps)
    ]


def _hot_page(index: int, *, links: int, emphasized: int) -> str:
    """A link-heavy page: global/local/interior anchors and bold/italic
    relinfons in page order, sized far beyond the paper's examples."""
    hrefs = []
    for i in range(links):
        if i % 7 == 0:
            hrefs.append((f"interior note {i}", f"#section-{i}"))
        elif i % 3 == 0:
            hrefs.append((f"local topic link {i}", f"/page{(index + i) % 40}.html"))
        else:
            hrefs.append(
                (
                    f"{'topic' if i % 2 else 'archive'} item {i}",
                    f"http://hub{(index + i) % 9}.example/doc{i}.html",
                )
            )
    marks = [
        ("b" if i % 2 else "i", f"{'detail' if i % 3 else 'aside'} fragment {i}")
        for i in range(emphasized)
    ]
    return render_page(
        PageSpec(
            title=f"hub page {index} topic",
            paragraphs=[f"body text of hub page {index}"],
            links=hrefs,
            emphasized=marks,
            ruled=[f"CONVENER person-{index}"],
        )
    )


def _small_page(index: int) -> str:
    """A paper-sized page (a handful of links): the honesty workload."""
    return _hot_page(index, links=5, emphasized=3)


def _nq(select, tables, where, sitewide=()) -> NodeQuery:
    return NodeQuery(
        select=tuple(select),
        tables=tuple(tables),
        where=where,
        sitewide_aliases=tuple(sitewide),
    )


def _batch_shapes(smoke: bool) -> list[Shape]:
    """The EXP-P5/P6 shapes over synthetic hub pages."""
    pages = 4 if smoke else 12
    link_count = 150 if smoke else 400
    mark_count = 40 if smoke else 120
    site_pages = 60 if smoke else 200

    hot = tuple(
        build_node_database(
            parse_url(f"http://bench.example/hub{i}.html"),
            _hot_page(i, links=link_count, emphasized=mark_count),
        )
        for i in range(pages)
    )
    small = tuple(
        build_node_database(
            parse_url(f"http://bench.example/leaf{i}.html"), _small_page(i)
        )
        for i in range(pages)
    )
    site_documents = build_documents_table(
        [
            (
                parse_url(f"http://bench.example/site{i}.html"),
                _small_page(i) if i % 4 else _hot_page(i, links=30, emphasized=10),
            )
            for i in range(site_pages)
        ]
    )

    d, e = TableDecl("document", "d"), TableDecl("document", "e")
    a, a2 = TableDecl("anchor", "a"), TableDecl("anchor", "a2")
    r = TableDecl("relinfon", "r")
    global_topic = And(
        Compare("=", Attr("a", "ltype"), Literal("G")),
        Contains(Attr("a", "label"), Literal("topic")),
    )
    anchor_join = Compare("=", Attr("a", "base"), Attr("d", "url"))
    relinfon_join = Compare("=", Attr("r", "url"), Attr("a", "base"))
    ruled = Compare("=", Attr("r", "delimiter"), Literal("hr"))
    return [
        # Specialized equality and ``contains`` kernels over wide anchors.
        Shape("anchor-scan", _nq([Attr("a", "href"), Attr("a", "label")], [d, a],
                                 global_topic), hot),
        Shape(
            "relinfon-filter",
            _nq(
                [Attr("d", "url"), Attr("r", "text")],
                [d, r],
                And(
                    Compare("=", Attr("r", "delimiter"), Literal("b")),
                    Contains(Attr("r", "text"), Literal("detail")),
                ),
            ),
            hot,
        ),
        # The multi-document leaf over a whole site's DOCUMENT table.
        Shape(
            "sitewide-scan",
            _nq(
                [Attr("d", "url"), Attr("e", "title")],
                [d, e],
                Contains(Attr("e", "title"), Literal("topic")),
                sitewide=("e",),
            ),
            hot[: max(2, pages // 3)],
            site_documents,
        ),
        # Attr-vs-attr predicates the specializer leaves to the per-row kernel.
        Shape(
            "generic-conjunct",
            _nq(
                [Attr("a", "href")],
                [d, a],
                And(
                    Compare("!=", Attr("a", "ltype"), Literal("I")),
                    Compare("!=", Attr("a", "base"), Attr("a", "href")),
                ),
            ),
            hot,
        ),
        # Paper-sized tables where batching has little to amortize.
        Shape("small-pages", _nq([Attr("a", "href"), Attr("a", "label")], [d, a],
                                 global_topic), small),
        # One expansion level, probed through the anchor index on ``base``.
        Shape(
            "join-depth-2",
            _nq(
                [Attr("a", "href"), Attr("a", "label")],
                [d, a],
                And(anchor_join, Contains(Attr("a", "label"), Literal("topic"))),
            ),
            hot,
        ),
        # Two join-keyed expansions (anchors on ``base``, relinfons on
        # ``url``) with a level-local literal filter and a generic conjunct.
        Shape(
            "join-depth-3",
            _nq(
                [Attr("d", "url"), Attr("a", "href"), Attr("r", "text")],
                [d, a, r],
                And(
                    And(anchor_join, relinfon_join),
                    And(ruled, Compare("!=", Attr("a", "href"), Attr("a", "base"))),
                ),
            ),
            hot,
        ),
        # Three expansions sharing join variables: the second anchor alias
        # re-probes the same index.
        Shape(
            "join-depth-4",
            _nq(
                [Attr("a", "href"), Attr("a2", "href"), Attr("r", "text")],
                [d, a, r, a2],
                And(
                    And(anchor_join, relinfon_join),
                    And(
                        ruled,
                        And(
                            Compare("=", Attr("a2", "base"), Attr("a", "base")),
                            Compare("=", Attr("a2", "ltype"), Literal("G")),
                        ),
                    ),
                ),
            ),
            hot[: max(2, pages // 2)],
        ),
    ]


#: The gates were first set against the retired row-at-a-time compiled
#: executor and rescaled by the interpreter/row time ratio measured on the
#: same shapes when it was deleted, so none got easier: P5 1.3 x 2.47 = 3.3
#: (smoke) and 2.0 x 2.36 = 4.8 (full); P6 sitewide 1.5 x 2.31 = 3.5
#: (smoke) and aggregate 2.5 x 2.13 = 5.4 (full).  P1 was always measured
#: against the interpreter.  Every floor sits far below the measured
#: speedup: it catches "compilation stopped helping", not jitter.
GROUPS = (
    Group(
        "EXP-P1", "node-query hot path: compiled plans vs the interpreter",
        ("title-filter/q1", "relinfon-join/q1", "chained-steps/q1", "chained-steps/q2"),
        build=_p1_shapes, engine_check="title-filter", check_floor=1.2, full_target=2.0,
    ),
    Group(
        "EXP-P5", "columnar batch execution vs the interpreter",
        ("anchor-scan", "relinfon-filter", "sitewide-scan", "generic-conjunct",
         "small-pages"),
        build=_batch_shapes, engine_check="title-filter", check_floor=3.3, full_target=4.8,
    ),
    Group(
        "EXP-P6", "outer-level batch joins vs the interpreter",
        ("sitewide-scan", "generic-conjunct", "join-depth-2", "join-depth-3",
         "join-depth-4"),
        build=_batch_shapes, engine_check="anchor-join", check_floor=3.5, full_target=5.4,
        check_shape="sitewide-scan",
    ),
)
GROUPS_BY_ID = {group.experiment: group for group in GROUPS}


def build_shapes(
    groups: tuple[Group, ...] = GROUPS, *, smoke: bool = False
) -> dict[str, Shape]:
    """Every shape of ``groups``, by name, each built once."""
    shapes: dict[str, Shape] = {}
    for build in dict.fromkeys(group.build for group in groups):
        shapes.update((shape.name, shape) for shape in build(smoke))
    return shapes


def group_shapes(experiment: str, *, smoke: bool = False) -> list[Shape]:
    """The shapes of one group (``"EXP-P1"``, ``"EXP-P5"`` or ``"EXP-P6"``)."""
    group = GROUPS_BY_ID[experiment]
    shapes = build_shapes((group,), smoke=smoke)
    return [shapes[name] for name in group.shapes]


def _time_best(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time for one full pass (noise floor)."""
    best = float("inf")
    for __ in range(repeats):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


def check_rows_identical(shape: Shape) -> int:
    """Row-for-row equality of the compiled plan with the interpreter on
    every database of ``shape``; returns the number of pairs checked."""
    plan = compile_node_query(shape.query)
    for database in shape.databases:
        expected = evaluate_node_query(shape.query, database, shape.site_documents)
        actual = plan.execute(database, shape.site_documents)
        assert [(r.header, r.values) for r in actual] == [
            (r.header, r.values) for r in expected
        ], f"compiled rows diverge for {shape.name} at {database.url}"
    return len(shape.databases)


def check_engine_identical(name: str) -> int:
    """Full-engine bit-equality with ``compiled_plans`` on and off; returns
    the number of result rows."""
    web_config, template = ENGINE_CHECKS[name]
    disql = template.format(start=synthetic_start_url(web_config))
    runs = {}
    for compiled in (True, False):
        engine = WebDisEngine(
            build_synthetic_web(web_config),
            # Memo off: this gate isolates execution, not cross-query reuse
            # (that is EXP-P4 in bench_cross_query.py).
            config=EngineConfig(compiled_plans=compiled, cross_query_caching=False),
        )
        handle = engine.submit_disql(disql)
        done_at = engine.run()
        assert handle.status is QueryStatus.COMPLETE
        runs[compiled] = (
            handle.status,
            done_at,
            [(label, row.header, row.values) for label, row, __ in handle.results],
        )
    assert runs[True] == runs[False], f"{name}: engine results differ with compiled plans"
    assert runs[True][2], f"{name}: engine query returned no rows"
    return len(runs[True][2])


def time_shape(shape: Shape, repeats: int) -> dict:
    """Best-of-``repeats`` interpreter and compiled pass times for one shape."""
    plan = compile_node_query(shape.query)
    databases, site_documents = shape.databases, shape.site_documents
    interpreter_s = _time_best(
        lambda: [evaluate_node_query(shape.query, db, site_documents) for db in databases],
        repeats,
    )
    compiled_s = _time_best(
        lambda: [plan.execute(db, site_documents) for db in databases], repeats
    )
    return {
        "shape": shape.name,
        "levels": len(shape.query.tables),
        "databases": len(databases),
        "interpreter_s": round(interpreter_s, 6),
        "compiled_s": round(compiled_s, 6),
        "speedup": round(interpreter_s / compiled_s, 3),
        "rows_per_pass": sum(len(plan.execute(db, site_documents)) for db in databases),
    }


def measure(repeats: int = 7, *, smoke: bool = False) -> list[dict]:
    """One JSON-ready record per group, in :data:`GROUPS` order."""
    shapes = build_shapes(smoke=smoke)
    pairs = {name: check_rows_identical(shape) for name, shape in shapes.items()}
    engine_rows = {name: check_engine_identical(name) for name in ENGINE_CHECKS}
    timings = {name: time_shape(shape, repeats) for name, shape in shapes.items()}

    records = []
    for group in GROUPS:
        rows = [timings[name] for name in group.shapes]
        interpreter = sum(row["interpreter_s"] for row in rows)
        compiled = sum(row["compiled_s"] for row in rows)
        speedup = round(interpreter / compiled, 3)
        records.append(
            {
                "experiment": group.experiment,
                "title": group.title,
                "smoke": smoke,
                "repeats": repeats,
                "shapes": rows,
                "interpreter_total_s": round(interpreter, 6),
                "compiled_total_s": round(compiled, 6),
                "speedup": speedup,
                "gate": {
                    "on": group.check_shape or "aggregate",
                    "speedup": (
                        timings[group.check_shape]["speedup"]
                        if group.check_shape else speedup
                    ),
                    "check_floor": group.check_floor,
                    "full_target": group.full_target,
                },
                "rows_identical_pairs": sum(pairs[name] for name in group.shapes),
                "engine_check": group.engine_check,
                "engine_identical_rows": engine_rows[group.engine_check],
            }
        )
    return records


def _report(record: dict) -> str:
    rows = [
        (
            s["shape"],
            s["levels"],
            f"{s['interpreter_s'] * 1e3:.2f}",
            f"{s['compiled_s'] * 1e3:.2f}",
            f"{s['speedup']:.2f}x",
            s["rows_per_pass"],
        )
        for s in record["shapes"]
    ]
    rows.append(
        (
            "TOTAL",
            "",
            f"{record['interpreter_total_s'] * 1e3:.2f}",
            f"{record['compiled_total_s'] * 1e3:.2f}",
            ratio(record["interpreter_total_s"], record["compiled_total_s"]),
            sum(s["rows_per_pass"] for s in record["shapes"]),
        )
    )
    gate = record["gate"]
    body = format_table(
        ("shape", "levels", "interpreter (ms/pass)", "compiled (ms/pass)",
         "speedup", "rows"),
        rows,
    )
    body += (
        f"\n\nbest of {record['repeats']} passes per cell"
        f"{' (smoke sizing)' if record['smoke'] else ''}"
        f"\nchecked: {record['rows_identical_pairs']} (query, database) pairs"
        f" identical to the interpreter; {record['engine_check']} engine run"
        f" bit-identical ({record['engine_identical_rows']} result rows) with"
        " compiled_plans on and off"
        f"\ngate on {gate['on']}: {gate['speedup']}x (--check floor"
        f" {gate['check_floor']}x; full-size aggregate target {gate['full_target']}x)"
    )
    report(record["experiment"], record["title"], body)
    return body


def bench_relational(benchmark):
    records = measure()
    for record in records:
        _report(record)
        merge_bench_record(RESULT_PATH, record["experiment"], record)
        assert record["speedup"] >= record["gate"]["full_target"], (
            f"{record['experiment']} speedup {record['speedup']}x below"
            f" {record['gate']['full_target']}x target"
        )
    shape = group_shapes("EXP-P6", smoke=True)[3]
    plan = compile_node_query(shape.query)
    benchmark(lambda: [plan.execute(db) for db in shape.databases])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="CI gate: row and engine identity plus each group's speedup floor",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller P5/P6 tables and fewer repeats (CI sizing); skips the"
             " BENCH_PERF.json merge",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing passes per cell"
    )
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else (
        3 if args.smoke or args.check else 7
    )
    records = measure(repeats=repeats, smoke=args.smoke)
    for record in records:
        _report(record)

    if args.check:
        failed = False
        for record in records:
            gate = record["gate"]
            verdict = "OK" if gate["speedup"] >= gate["check_floor"] else "FAIL"
            failed |= verdict == "FAIL"
            print(
                f"{verdict}: {record['experiment']} {record['rows_identical_pairs']}"
                f" pairs interpreter-identical, engine bit-identical, {gate['on']}"
                f" {gate['speedup']}x (floor {gate['check_floor']}x)",
                file=sys.stderr if verdict == "FAIL" else sys.stdout,
            )
        return 1 if failed else 0

    if args.smoke:
        print("smoke run: " + ", ".join(
            f"{r['experiment']} {r['speedup']}x" for r in records
        ) + " (not merged)")
        return 0

    status = 0
    for record in records:
        merge_bench_record(RESULT_PATH, record["experiment"], record)
        target = record["gate"]["full_target"]
        print(f"merged {record['experiment']} into {RESULT_PATH} ({record['speedup']}x)")
        if record["speedup"] < target:
            print(
                f"WARNING: {record['experiment']} below its {target}x target",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())

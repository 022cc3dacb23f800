"""Batch execution (EXP-P5/P6): the pipeline, its rollback, memo bounds.

The batch pipeline is a *performance* lowering — it must be semantically
invisible, including the lazy error semantics that the batch kernels
reorder around.  The reference is the row-at-a-time pushdown interpreter
(:func:`~repro.relational.query.evaluate_node_query`), which is also what
a plan replays through when a batch raises.  Property families:

* **Plan-level equivalence** — compiled plans vs the interpreter over safe
  and *hostile* grammars (mixed-type literals, missing attributes) at
  every plan level: identical rows in identical order, or the same error
  class.  This is the direct check that the optimistic batch / rollback /
  interpreter-replay machinery reproduces short-circuit errors.
* **Forced rollback** — a batch that fails mid-run leaves no partial rows
  and surfaces the interpreter's exact exception.
* **Engine-level equivalence** — random generated webs run end to end
  with ``compiled_plans`` on vs off: identical statuses, per-tenant
  distinct rows and canonical log-table snapshots, crossed with the
  cross-query memo (whose entries must be layout-independent).
* **Bounded memo / constructor caches** — LRU eviction respects
  capacity, moves the ``memo_evictions`` / ``memo_bytes_est`` gauges,
  and never changes answers; the constructor's parsed-document cache
  reports through ``cache_info()`` and ``TrafficStats``.

Plus the DST wiring: the retired executor draw still consumes its random
number, so every existing seed generates the same case.
"""

from __future__ import annotations

from functools import reduce

from hypothesis import given, settings, strategies as st

from repro import EngineConfig, QueryStatus, WebDisEngine
from repro.core.resultmemo import ResultMemo
from repro.errors import EvaluationError
from repro.html.generator import PageSpec, render_page
from repro.model.database import (
    DatabaseConstructor,
    build_documents_table,
    build_node_database,
)
from repro.net.stats import TrafficStats
from repro.relational.compile import compile_node_query
from repro.relational.expr import And, Attr, Compare, Contains, Literal, Not, Or
from repro.relational.query import NodeQuery, TableDecl, evaluate_node_query
from repro.testing.generators import build_web, generate_case, query_texts
from repro.testing.runner import _engine_config
from repro.urlutils import parse_url
from repro.web.campus import CAMPUS_QUERY_DISQL, EXPECTED_CONVENER_ROWS

URL = parse_url("http://a.example/page.html")
SIBLING = parse_url("http://a.example/other.html")


def _page(title, links, emphasized):
    return render_page(
        PageSpec(
            title=title,
            paragraphs=["some text body"],
            links=links,
            emphasized=emphasized,
            ruled=["CONVENER someone"],
        )
    )


_HTML = _page(
    "alpha topic page",
    links=[
        ("one", "http://b.example/"),
        ("two", "/local.html"),
        ("three", "#frag"),
    ],
    emphasized=[("b", "bold detail"), ("i", "italic note")],
)

DATABASE = build_node_database(URL, _HTML)

SITE_DOCUMENTS = build_documents_table(
    [
        (URL, _page("alpha topic page", [("one", "/other.html")], [("b", "x")])),
        (SIBLING, _page("beta archive page", [("back", "/page.html")], [("i", "y")])),
    ]
)

_ATTRS = [
    Attr("d", "title"),
    Attr("d", "url"),
    Attr("a", "ltype"),
    Attr("a", "href"),
    Attr("a", "label"),
    Attr("r", "delimiter"),
    Attr("r", "text"),
]
_SAFE_LITERALS = [Literal(v) for v in ("G", "L", "b", "topic", "detail", "x")]
# Mixed-type literals and a bogus attribute: the batch kernels must fall
# back to the interpreter replay and surface the interpreter's own error
# class from the interpreter's own evaluation order.
_HOSTILE_LITERALS = _SAFE_LITERALS + [Literal(5), Literal("5")]
_BROKEN = Attr("d", "no_such_attribute")


def _comparisons(operands, attrs):
    ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
    compares = st.builds(
        Compare, ops, st.sampled_from(operands), st.sampled_from(operands)
    )
    contains = st.builds(
        Contains,
        st.sampled_from(attrs),
        st.sampled_from(
            [Literal("topic"), Literal("G"), Literal("b"), Literal("zzz")]
        ),
    )
    return st.one_of(compares, contains)


def _expr_strategy(operands, attrs):
    return st.recursive(
        _comparisons(operands, attrs),
        lambda children: st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Not, children),
        ),
        max_leaves=6,
    )


_safe_exprs = _expr_strategy(_ATTRS + _SAFE_LITERALS, _ATTRS)
_hostile_exprs = _expr_strategy(
    _ATTRS + _HOSTILE_LITERALS + [_BROKEN], _ATTRS + [_BROKEN]
)
_D_ATTRS = [attr for attr in _ATTRS if attr.alias == "d"]
_d_only_exprs = _expr_strategy(
    _D_ATTRS + _HOSTILE_LITERALS + [_BROKEN], _D_ATTRS + [_BROKEN]
)

_selects = st.lists(
    st.sampled_from(_ATTRS),
    min_size=1,
    max_size=3,
    unique_by=lambda a: (a.alias, a.name),
)


def _query(select, where, *, tables=("document", "anchor", "relinfon"), sitewide=()):
    aliases = {"document": "d", "anchor": "a", "relinfon": "r"}
    return NodeQuery(
        select=tuple(select),
        tables=tuple(TableDecl(name, aliases[name]) for name in tables),
        where=where,
        sitewide_aliases=tuple(sitewide),
    )


def _outcome(run):
    """Rows-in-order, or the error class: both paths must match exactly."""
    try:
        return [(row.header, row.values) for row in run()]
    except EvaluationError:
        return "evaluation-error"
    except KeyError:
        return "key-error"


def _interpreted(query, site_documents=None):
    return _outcome(lambda: evaluate_node_query(query, DATABASE, site_documents))


class TestPlanEquivalence:
    """execute() vs the row-at-a-time interpreter: same rows, same order,
    same errors."""

    @given(_selects, _hostile_exprs)
    @settings(max_examples=300, deadline=None)
    def test_columnar_matches_row_hostile(self, select, where):
        query = _query(select, where)
        plan = compile_node_query(query)
        assert _outcome(lambda: plan.execute(DATABASE)) == _interpreted(query)

    @given(_selects, _hostile_exprs)
    @settings(max_examples=150, deadline=None)
    def test_columnar_matches_row_sitewide(self, select, where):
        query = _query(select, where, sitewide=("d",))
        plan = compile_node_query(query)
        assert _outcome(
            lambda: plan.execute(DATABASE, SITE_DOCUMENTS)
        ) == _interpreted(query, SITE_DOCUMENTS)

    @given(_d_only_exprs)
    @settings(max_examples=150, deadline=None)
    def test_single_table_shapes(self, where):
        """One-alias plans exercise the leaf-only batch path directly."""
        query = _query(
            [Attr("d", "url"), Attr("d", "title")],
            where,
            tables=("document",),
        )
        plan = compile_node_query(query)
        assert _outcome(lambda: plan.execute(DATABASE)) == _interpreted(query)

    @given(_hostile_exprs)
    @settings(max_examples=100, deadline=None)
    def test_columnar_plan_is_reusable(self, where):
        """The lowered runner is shared across runs: no state leaks between
        runs and no divergence from the interpreter afterwards."""
        query = _query([Attr("a", "href")], where)
        plan = compile_node_query(query)
        first = _outcome(lambda: plan.execute(DATABASE))
        second = _outcome(lambda: plan.execute(DATABASE))
        assert first == second
        assert first == _interpreted(query)


class TestRollbackReplay:
    """A batch that raises mid-run is rolled back and replayed through the
    interpreter: no partial rows survive, and an error is the interpreter's
    own exception, message included."""

    @staticmethod
    def _fail_after_partial_output(plan):
        """Make the plan's batch runner emit its rows, then raise."""
        runner = plan._runner

        def failing(env, tables, table_objs, out, level_times=None):
            runner(env, tables, table_objs, out, level_times)
            out.extend(out)  # junk the rollback must discard
            raise RuntimeError("injected batch failure")

        plan._runner = failing

    def test_forced_rollback_leaves_no_partial_rows(self):
        query = _query(
            [Attr("d", "url"), Attr("a", "href")],
            Compare("=", Attr("a", "base"), Attr("d", "url")),
            tables=("document", "anchor"),
        )
        plan = compile_node_query(query)
        expected = evaluate_node_query(query, DATABASE)
        assert expected  # the batch really produced rows before failing
        self._fail_after_partial_output(plan)
        assert plan.execute(DATABASE) == expected

    def test_forced_rollback_raises_the_interpreters_exception(self):
        # Rows bind before the bad conjunct is reached: the interpreter
        # raises on the first anchor whose href differs from its base.
        query = _query(
            [Attr("a", "href")],
            Or(
                Compare("=", Attr("a", "href"), Attr("a", "base")),
                Compare("<", Attr("a", "label"), Literal(5)),
            ),
            tables=("document", "anchor"),
        )
        plan = compile_node_query(query)
        self._fail_after_partial_output(plan)
        try:
            evaluate_node_query(query, DATABASE)
        except EvaluationError as error:
            expected = (type(error), str(error))
        else:  # pragma: no cover - the query is built to raise
            raise AssertionError("the interpreter should raise here")
        try:
            plan.execute(DATABASE)
        except EvaluationError as error:
            assert (type(error), str(error)) == expected
        else:
            raise AssertionError("the replay must raise the interpreter's error")


# -- multi-level join plans (EXP-P6) -------------------------------------------

# Equality joins over shared variables at every plan level — the conjunct
# shapes the hash-probe expansion claims — mixed with conjuncts that are
# *not* provably total (ordered compares, contains, numeric-coercion
# literals, missing attributes at non-leaf levels), so every lowering
# decision (probe vs scan vs wholesale interpreter replay) gets exercised.
_BROKEN_A = Attr("a", "no_such_attribute")  # raises at a NON-leaf level
_JOIN_POOL = [
    Compare("=", Attr("a", "base"), Attr("d", "url")),
    Compare("=", Attr("d", "url"), Attr("a", "href")),
    Compare("=", Attr("r", "url"), Attr("d", "url")),
    Compare("=", Attr("r", "url"), Attr("a", "base")),
    # int = int cross-level join: probe values are numbers, the build
    # column is all ints — hash-safe, and must stay interpreter-identical.
    Compare("=", Attr("d", "length"), Attr("r", "length")),
    # Constant-equality probes, including a *numeric string* constant where
    # dict lookup would diverge from coerced `=` if probed carelessly.
    Compare("=", Attr("r", "delimiter"), Literal("b")),
    Compare("=", Attr("a", "ltype"), Literal("G")),
    Compare("=", Attr("r", "length"), Literal("5")),
    Compare("=", Literal(5), Attr("d", "length")),
    # Non-total conjuncts ahead of potential joins: ordered compare,
    # contains, and an error cell at the middle (non-leaf) level.
    Compare("<", Attr("d", "length"), Attr("r", "length")),
    Contains(Attr("d", "text"), Literal("topic")),
    Compare("=", _BROKEN_A, Attr("d", "url")),
    Compare("!=", Attr("a", "href"), Attr("a", "base")),
]

_join_wheres = st.lists(
    st.sampled_from(_JOIN_POOL), min_size=1, max_size=4
).map(lambda conjuncts: reduce(And, conjuncts))


class TestMultiLevelJoins:
    """3+ level plans with shared join variables: the outer-level hash
    probes and batch filters must match the row-at-a-time interpreter,
    errors included."""

    @given(_selects, _join_wheres)
    @settings(max_examples=200, deadline=None)
    def test_three_level_joins_match_row(self, select, where):
        query = _query(select, where)
        plan = compile_node_query(query)
        assert _outcome(lambda: plan.execute(DATABASE)) == _interpreted(query)

    @given(_selects, _join_wheres)
    @settings(max_examples=100, deadline=None)
    def test_three_level_joins_sitewide(self, select, where):
        """Sitewide document alias at level 0: multi-page outer batch."""
        query = _query(select, where, sitewide=("d",))
        plan = compile_node_query(query)
        assert _outcome(
            lambda: plan.execute(DATABASE, SITE_DOCUMENTS)
        ) == _interpreted(query, SITE_DOCUMENTS)

    @given(_join_wheres, _join_wheres)
    @settings(max_examples=100, deadline=None)
    def test_four_level_joins_match_row(self, left, right):
        """Four aliases (two anchor scans) — deeper than anything the DST
        generator emits, so the expansion chain is covered past depth 3."""
        query = NodeQuery(
            select=(Attr("d", "url"), Attr("a2", "href")),
            tables=(
                TableDecl("document", "d"),
                TableDecl("anchor", "a"),
                TableDecl("relinfon", "r"),
                TableDecl("anchor", "a2"),
            ),
            where=And(left, Compare("=", Attr("a2", "base"), Attr("a", "base"))),
        )
        plan = compile_node_query(query)
        assert _outcome(lambda: plan.execute(DATABASE)) == _interpreted(query)

    def test_join_probes_hit_the_cached_index(self):
        """The tentpole's point: an equality join is served by a cached
        per-column hash index, visible in the stats counters."""
        stats = TrafficStats()
        database = build_node_database(URL, _HTML, stats=stats)
        query = _query(
            [Attr("d", "url"), Attr("a", "href")],
            Compare("=", Attr("a", "base"), Attr("d", "url")),
            tables=("document", "anchor"),
        )
        plan = compile_node_query(query)
        rows = plan.execute(database)
        assert rows == evaluate_node_query(query, database)
        assert stats.index_builds >= 1
        plan.execute(database)
        assert stats.index_hits >= 1
        summary = stats.summary()
        assert summary["index_builds"] == stats.index_builds
        assert summary["index_hits"] == stats.index_hits


class TestColumnIndexSafety:
    """ColumnIndex.probe must refuse whenever dict equality is not provably
    the interpreter's coerced `=` — `5 = "5"` is TRUE in the interpreter."""

    def _index(self, values):
        from repro.relational.table import ColumnIndex

        return ColumnIndex(values)

    def test_buckets_preserve_insertion_order(self):
        index = self._index(["x", "y", "x", "x"])
        assert index.probe("x") == [0, 2, 3]
        assert index.probe("zzz") == ()

    def test_numeric_string_probe_refused_on_numeric_column(self):
        index = self._index([5, 7])
        assert index.probe("5") is None  # coerced `=` would match row 0
        assert index.probe(6) == ()

    def test_int_probe_refused_when_column_holds_numeric_strings(self):
        index = self._index(["5", "x"])
        assert index.probe(5) is None
        assert index.probe("x") == [1]

    def test_float_and_exotic_columns_always_refuse(self):
        assert self._index([1.0, 2.0]).probe(1) is None
        assert self._index([float("nan")]).probe(float("nan")) is None
        assert self._index([(1, 2)]).probe((1, 2)) is None

    def test_unhashable_column_refuses(self):
        assert self._index([["a"]]).probe("a") is None

    def test_table_index_invalidated_by_insert(self):
        from repro.model.relations import DOCUMENT_SCHEMA
        from repro.relational.table import Table

        stats = TrafficStats()
        table = Table(DOCUMENT_SCHEMA, stats=stats)
        table.insert(("u1", "t", "x", 1))
        first = table.index(0)
        assert table.index(0) is first  # cached
        assert stats.index_builds == 1
        assert stats.index_hits == 1
        table.insert(("u2", "t", "y", 2))
        rebuilt = table.index(0)
        assert rebuilt is not first
        assert rebuilt.probe("u2") == [1]
        assert stats.index_builds == 2


# -- engine level --------------------------------------------------------------


def _distinct_rows(handle):
    return frozenset(
        (label, row.header, row.values) for label, row, __ in handle.results
    )


def _semantic_state(engine, handles):
    return (
        [handle.status for handle in handles],
        [_distinct_rows(handle) for handle in handles],
        {
            site: server.log_table.canonical_snapshot()
            for site, server in sorted(engine.servers.items())
        },
    )


def _run_batch(web, texts, **config):
    engine = WebDisEngine(web, config=EngineConfig(**config))
    handles = [engine.submit_disql(text) for text in texts]
    engine.run()
    return engine, handles


class TestEngineEquivalence:
    """Whole-engine runs: compiled plans change cost, never answers."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated_webs(self, seed):
        spec = generate_case(seed)
        web = build_web(spec)
        texts = query_texts(spec)
        runs = {}
        for compiled in (True, False):
            engine, handles = _run_batch(web, texts, compiled_plans=compiled)
            runs[compiled] = _semantic_state(engine, handles)
        assert runs[True] == runs[False]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_equivalence_crossed_with_memo(self, seed):
        """Memo entries are layout-independent: a memo warmed by either
        path must leave answers identical to the other's."""
        spec = generate_case(seed)
        web = build_web(spec)
        # Duplicate the main query so the memo demonstrably engages.
        texts = query_texts(spec) + [query_texts(spec)[0]]
        runs = {}
        for compiled in (True, False):
            engine, handles = _run_batch(
                web, texts, compiled_plans=compiled, cross_query_caching=True
            )
            runs[compiled] = _semantic_state(engine, handles)
        assert runs[True] == runs[False]

    def test_campus_rows_identical(self, campus_web):
        states = {}
        for compiled in (True, False):
            engine, (handle,) = _run_batch(
                campus_web, [CAMPUS_QUERY_DISQL], compiled_plans=compiled
            )
            assert handle.status is QueryStatus.COMPLETE
            assert {r.values for r in handle.unique_rows("q2")} == set(
                EXPECTED_CONVENER_ROWS
            )
            states[compiled] = _semantic_state(engine, [handle])
        assert states[True] == states[False]


class TestMemoLayoutIndependence:
    def test_columnar_rows_round_trip_through_the_memo(self):
        """Rows computed by the batch path are plain ResultRow tuples: a
        memo entry written by one path serves the other unchanged."""
        query = _query(
            [Attr("d", "url"), Attr("a", "href")],
            Compare("=", Attr("a", "ltype"), Literal("G")),
            tables=("document", "anchor"),
        )
        plan = compile_node_query(query)
        columnar = tuple(plan.execute(DATABASE))
        row = tuple(evaluate_node_query(query, DATABASE))
        assert columnar == row
        memo = ResultMemo()
        memo.store_rows(URL, query, columnar)
        assert memo.rows_for(URL, query) == row


# -- bounded memo (S1) ---------------------------------------------------------


def _rows_of(query):
    return tuple(compile_node_query(query).execute(DATABASE))


class TestBoundedMemo:
    def _queries(self, count):
        return [
            _query(
                [Attr("d", "url")],
                Compare("=", Attr("d", "title"), Literal(f"t{i}")),
                tables=("document",),
            )
            for i in range(count)
        ]

    def test_capacity_is_respected_with_lru_order(self):
        stats = TrafficStats()
        memo = ResultMemo(stats, capacity=2)
        q0, q1, q2 = self._queries(3)
        memo.store_rows(URL, q0, _rows_of(q0))
        memo.store_rows(URL, q1, _rows_of(q1))
        # Touch q0 so q1 becomes the coldest entry...
        assert memo.rows_for(URL, q0) is not None
        memo.store_rows(URL, q2, _rows_of(q2))
        # ...and gets evicted; q0 and q2 survive.
        assert len(memo) == 2
        assert memo.evictions == 1
        assert stats.memo_evictions == 1
        assert memo.rows_for(URL, q1) is None
        assert memo.rows_for(URL, q0) == _rows_of(q0)
        assert memo.rows_for(URL, q2) == _rows_of(q2)

    def test_bytes_gauge_tracks_stores_evictions_and_clear(self):
        stats = TrafficStats()
        memo = ResultMemo(stats, capacity=2)
        queries = self._queries(4)
        for query in queries:
            memo.store_rows(URL, query, _rows_of(query))
        assert len(memo) == 2
        assert memo.evictions == 2
        assert memo.bytes_est > 0
        assert stats.memo_bytes_est == memo.bytes_est
        memo.clear()
        assert memo.bytes_est == 0
        assert stats.memo_bytes_est == 0
        assert len(memo) == 0

    def test_overwrite_does_not_leak_bytes(self):
        memo = ResultMemo(capacity=4)
        (query,) = self._queries(1)
        memo.store_rows(URL, query, _rows_of(query))
        size = memo.bytes_est
        memo.store_rows(URL, query, _rows_of(query))
        assert memo.bytes_est == size
        assert len(memo) == 1

    def test_capacity_must_be_positive(self):
        import pytest

        with pytest.raises(ValueError):
            ResultMemo(capacity=0)

    def test_unbounded_memo_never_evicts(self):
        memo = ResultMemo()
        for query in self._queries(8):
            memo.store_rows(URL, query, _rows_of(query))
        assert len(memo) == 8
        assert memo.evictions == 0

    def test_tiny_capacity_never_changes_answers(self, campus_web):
        baseline, cold_handles = _run_batch(
            campus_web, [CAMPUS_QUERY_DISQL] * 2, cross_query_caching=False
        )
        engine, bounded_handles = _run_batch(
            campus_web, [CAMPUS_QUERY_DISQL] * 2, memo_capacity=2
        )
        for bounded, cold in zip(bounded_handles, cold_handles):
            assert bounded.status is QueryStatus.COMPLETE
            assert _distinct_rows(bounded) == _distinct_rows(cold)
        # The tiny bound genuinely bit: entries were evicted somewhere.
        assert engine.stats.memo_evictions > 0


# -- constructor caches (S2) ---------------------------------------------------


class TestConstructorCaches:
    def test_cache_info_and_stats_counters(self):
        stats = TrafficStats()
        constructor = DatabaseConstructor(cache_size=1, stats=stats)
        constructor.construct(URL, _HTML)
        constructor.construct(URL, _HTML)  # LRU hit
        constructor.construct(SIBLING, _HTML)  # evicts URL
        constructor.construct(URL, _HTML)  # rebuild, but parse-cache hit
        info = constructor.cache_info()
        assert info["cache_size"] == 1
        assert info["cached_databases"] == 1
        assert info["parsed_documents"] == 2
        assert info["builds"] == 3
        assert info["cache_hits"] == 1
        assert info["parse_hits"] == 1
        assert stats.db_cache_hits == 1
        assert stats.db_cache_misses == 3
        assert stats.parse_cache_hits == 1

    def test_uncached_constructor_still_counts_misses(self):
        stats = TrafficStats()
        constructor = DatabaseConstructor(stats=stats)
        constructor.construct(URL, _HTML)
        constructor.construct(URL, _HTML)
        assert stats.db_cache_hits == 0
        assert stats.db_cache_misses == 2
        # The parse cache works even with the database cache off.
        assert stats.parse_cache_hits == 1

    def test_engine_surfaces_the_counters(self, campus_web):
        engine, (handle,) = _run_batch(
            campus_web, [CAMPUS_QUERY_DISQL], db_cache_size=16
        )
        assert handle.status is QueryStatus.COMPLETE
        summary = engine.stats.summary()
        assert "db_cache_misses" in summary
        assert engine.stats.db_cache_misses > 0


# -- DST wiring ----------------------------------------------------------------


class TestDstIntegration:
    def test_retired_executor_draw_keeps_seeds_stable(self):
        """The generator no longer draws an executor but still consumes
        that random number: the draws after it — cross-query caching and
        the join-depth axis — match the values pinned before retirement."""
        cases = [generate_case(seed) for seed in range(16)]
        assert all("executor" not in case["config"] for case in cases)
        assert [case["query"]["anchor"] for case in cases] == [
            True, False, False, True, False, True, False, False,
            False, True, True, True, False, False, False, True,
        ]
        assert [case["config"]["cross_query_caching"] for case in cases] == [
            True, True, False, False, True, True, True, False,
            True, True, True, True, True, False, True, True,
        ]

    def test_runner_threads_the_knob(self):
        spec = {"seed": 0, "config": {"compiled_plans": False}}
        assert _engine_config(spec, inject_bug=False).compiled_plans is False
        # Absent (older repro files) defaults to the engine default.
        assert _engine_config(
            {"seed": 0, "config": {}}, inject_bug=False
        ).compiled_plans is True
        # Repro files written before the executor knob was retired still
        # load: the stale key is ignored.
        stale = {"seed": 0, "config": {"executor": "row"}}
        assert _engine_config(stale, inject_bug=False) == _engine_config(
            {"seed": 0, "config": {}}, inject_bug=False
        )

"""Compiled node-query plans — plan once, execute many.

:func:`~repro.relational.query.evaluate_node_query` re-does the same work
on every call: it re-plans the pushdown filter placement, tree-walks the
``Expr`` AST per row, and binds each row into a fresh alias→attribute dict.
That is fine for a one-shot evaluation, but a WEBDIS server evaluates the
*same* node-query against hundreds of per-node databases as clones arrive
(paper §2.4, §4.4) — the query is fixed, only the data varies.

:func:`compile_node_query` lowers a :class:`NodeQuery` into a
:class:`CompiledPlan` ahead of time:

* pushdown placement (:func:`~repro.relational.query._plan_filters`) is
  resolved once at compile time;
* every WHERE conjunct becomes a Python closure over *positional row
  tuples* — column indices are resolved against the static virtual-relation
  schemas at compile time, so per-row evaluation is ``env[depth][col]``
  indexing instead of dict construction plus recursive AST dispatch;
* the nested loop itself is lowered to a pipeline of batch operators over
  the tables' column arrays and join-key hash indexes
  (:mod:`repro.relational.columnar`), whose per-binding fallbacks call the
  closures above.

The compiled plan is **semantically identical** to the interpreter — same
rows, same order, same lazily-raised errors (property-tested against
:func:`~repro.relational.query.evaluate_node_query`, which is also the
replay target when a batch raises).  Compilation is database-independent:
the virtual-relation schemas are static, so one plan serves every node
database.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ..errors import DisqlSemanticsError, EvaluationError, SchemaError
from ..model.relations import ANCHOR_SCHEMA, DOCUMENT_SCHEMA, RELINFON_SCHEMA
from .columnar import build_columnar_runner
from .expr import (
    _COMPARATORS,
    And,
    Attr,
    Compare,
    Contains,
    Expr,
    Literal,
    Not,
    Or,
    _coerce_pair,
)
from .query import NodeQuery, ResultRow, _plan_filters, evaluate_node_query
from .schema import Schema
from .table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..model.database import NodeDatabase

__all__ = ["CompiledPlan", "compile_node_query", "structural_key"]

_SCHEMAS = {
    "document": DOCUMENT_SCHEMA,
    "anchor": ANCHOR_SCHEMA,
    "relinfon": RELINFON_SCHEMA,
}

#: A compiled expression: evaluates against the positional environment
#: (``env[depth]`` is the row tuple currently bound at loop depth).
_Compiled = Callable[[list], object]


class CompiledPlan:
    """One node-query, lowered and ready to execute against any database.

    The plan carries the batch runner (:mod:`repro.relational.columnar`),
    lowered once at compile time, plus the source query the rollback
    replays through the interpreter.  Plans are pure functions of the query
    structure, so :class:`~repro.core.plancache.PlanCache` shares one plan
    between structurally equal node-queries.
    """

    __slots__ = ("query", "header", "cost_weight", "_scan_specs", "_runner")

    def __init__(
        self,
        query: NodeQuery,
        scan_specs: tuple[tuple[str, bool, Schema], ...],
        runner: Callable,
    ) -> None:
        self.query = query
        self.header = query.header
        #: Precomputed evaluation-cost weight (the simulator's CPU model).
        self.cost_weight = query.cost_weight()
        self._scan_specs = scan_specs
        self._runner = runner

    def execute(
        self,
        database: "NodeDatabase",
        site_documents: Table | None = None,
        level_times: "dict[str, float] | None" = None,
    ) -> list[ResultRow]:
        """Evaluate against one node's relations through the batch pipeline.

        Same contract — rows, order, lazily-raised errors — as
        :func:`~repro.relational.query.evaluate_node_query`.  Evaluation is
        pure, so the pipeline is optimistic: on *any* exception its partial
        rows are dropped and the interpreter replays the node-query, which
        either raises the error at exactly the binding and conjunct it
        reaches first or returns the correct rows (the batch may evaluate
        probe expressions the short-circuiting nested loop never reaches).
        ``level_times`` optionally accumulates per-pipeline-stage
        wall-clock for the profiling harness.
        """
        tables: list[Sequence[tuple[object, ...]]] = []
        table_objs: list[Table] = []
        for relation, sitewide, schema in self._scan_specs:
            if sitewide:
                if site_documents is None:
                    raise DisqlSemanticsError(
                        f"node-query {self.query.label} needs site-wide documents "
                        "but none were built"
                    )
                table = site_documents
            else:
                table = database.relation(relation)
            if table.schema.attributes != schema.attributes:
                raise SchemaError(
                    f"table for {relation!r} does not match the compiled schema "
                    f"{schema.attributes!r}"
                )
            tables.append(table.row_list())
            table_objs.append(table)
        results: list[ResultRow] = []
        try:
            self._runner([None] * len(tables), tables, table_objs, results, level_times)
        except Exception:
            return evaluate_node_query(self.query, database, site_documents)
        return results

    # The EXP-E1 layer tracer (perfbench/layers.py) wraps this name too.
    execute_columnar = execute


def structural_key(query: NodeQuery) -> str:
    """The qid-independent identity of a node-query's *structure*.

    Two node-queries with equal keys compute the same function of a node
    database — same select list, same table declarations, same predicate,
    same sitewide aliases — so compiled plans and memoized results are
    interchangeable between them even when they belong to different
    web-queries.  The ``label`` is deliberately excluded: it names the step
    for traces and result grouping but never affects evaluation.  Built
    from the dataclass reprs (complete by construction) rather than the
    prettified ``str(query)``, so no two distinct structures can collide
    on rendering.

    The key is memoized on the query object itself, so every probe of one
    query returns the same ``str`` (whose hash CPython caches).  It is not
    memoized by query *equality*: ``Literal(1) == Literal(True) ==
    Literal(1.0)``, so an equality-keyed cache would hand all three queries
    the first one's key, while their reprs differ.
    """
    key = query._structural_key
    if key is None:
        key = repr((query.select, query.tables, query.where, query.sitewide_aliases))
        object.__setattr__(query, "_structural_key", key)
    return key


def compile_node_query(query: NodeQuery) -> CompiledPlan:
    """Lower ``query`` into a :class:`CompiledPlan` (database-independent)."""
    alias_order = [decl.alias for decl in query.tables]
    positions = {alias: index for index, alias in enumerate(alias_order)}
    sitewide = set(query.sitewide_aliases)
    scan_specs = tuple(
        (
            decl.relation,
            decl.alias in sitewide,
            DOCUMENT_SCHEMA if decl.alias in sitewide else _SCHEMAS[decl.relation],
        )
        for decl in query.tables
    )
    schemas = [spec[2] for spec in scan_specs]
    filter_plan = tuple(tuple(level) for level in _plan_filters(query, alias_order))
    filters = tuple(
        tuple(_compile_expr(conjunct, positions, schemas) for conjunct in level)
        for level in filter_plan
    )
    runner = build_columnar_runner(
        query.select,
        filter_plan,
        filters,
        positions,
        schemas,
        query.header,
        compile_expr=lambda expr: _compile_expr(expr, positions, schemas),
    )
    return CompiledPlan(query, scan_specs, runner)


# -- expression lowering -------------------------------------------------------


def _compile_attr(
    attr: Attr, positions: dict[str, int], schemas: Sequence[Schema]
) -> _Compiled:
    depth = positions[attr.alias]
    schema = schemas[depth]
    if attr.name not in schema:
        # Mirror the interpreter's *lazy* failure exactly: predicate
        # evaluation raises EvaluationError, and only if actually reached.
        def missing_attr(env, _alias=attr.alias, _name=attr.name):
            raise EvaluationError(f"table {_alias!r} has no attribute {_name!r}")

        return missing_attr
    column = schema.position(attr.name)

    def fetch(env, _d=depth, _c=column):
        return env[_d][_c]

    return fetch


def _compile_expr(
    expr: Expr, positions: dict[str, int], schemas: Sequence[Schema]
) -> _Compiled:
    if isinstance(expr, Literal):
        value = expr.value

        def constant(env, _v=value):
            return _v

        return constant
    if isinstance(expr, Attr):
        return _compile_attr(expr, positions, schemas)
    if isinstance(expr, Compare):
        return _compile_compare(expr, positions, schemas)
    if isinstance(expr, Contains):
        return _compile_contains(expr, positions, schemas)
    if isinstance(expr, And):
        left = _compile_expr(expr.left, positions, schemas)
        right = _compile_expr(expr.right, positions, schemas)

        def conjunction(env, _l=left, _r=right):
            return bool(_l(env)) and bool(_r(env))

        return conjunction
    if isinstance(expr, Or):
        left = _compile_expr(expr.left, positions, schemas)
        right = _compile_expr(expr.right, positions, schemas)

        def disjunction(env, _l=left, _r=right):
            return bool(_l(env)) or bool(_r(env))

        return disjunction
    if isinstance(expr, Not):
        operand = _compile_expr(expr.operand, positions, schemas)

        def negation(env, _o=operand):
            return not _o(env)

        return negation
    raise EvaluationError(f"unknown expression node {expr!r}")


def _compile_compare(
    expr: Compare, positions: dict[str, int], schemas: Sequence[Schema]
) -> _Compiled:
    left = _compile_expr(expr.left, positions, schemas)
    right = _compile_expr(expr.right, positions, schemas)
    comparator = _COMPARATORS[expr.op]
    op = expr.op

    def compare(env, _l=left, _r=right, _op=op, _cmp=comparator):
        lv, rv = _coerce_pair(_op, _l(env), _r(env))
        try:
            return _cmp(lv, rv)
        except TypeError:
            raise EvaluationError(
                f"cannot compare {type(lv).__name__} {_op} {type(rv).__name__}"
            ) from None

    return compare


def _compile_contains(
    expr: Contains, positions: dict[str, int], schemas: Sequence[Schema]
) -> _Compiled:
    haystack = _compile_expr(expr.haystack, positions, schemas)
    needle = _compile_expr(expr.needle, positions, schemas)
    max_edits = expr.max_edits

    if max_edits:
        from .fuzzy import fuzzy_contains

        def fuzzy(env, _h=haystack, _n=needle, _k=max_edits):
            hv = _h(env)
            nv = _n(env)
            if not isinstance(hv, str) or not isinstance(nv, str):
                raise EvaluationError("contains requires string operands")
            return fuzzy_contains(hv, nv, _k)

        return fuzzy

    # Constant needle (the overwhelmingly common shape): lowercase it once.
    if isinstance(expr.needle, Literal) and isinstance(expr.needle.value, str):
        lowered = expr.needle.value.lower()

        def contains_const(env, _h=haystack, _n=lowered):
            hv = _h(env)
            if not isinstance(hv, str):
                raise EvaluationError("contains requires string operands")
            return _n in hv.lower()

        return contains_const

    def contains(env, _h=haystack, _n=needle):
        hv = _h(env)
        nv = _n(env)
        if not isinstance(hv, str) or not isinstance(nv, str):
            raise EvaluationError("contains requires string operands")
        return nv.lower() in hv.lower()

    return contains

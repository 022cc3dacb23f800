"""Per-process cache of compiled node-query plans.

A WEBDIS query-server evaluates the same node-query over and over as a
web-query's clones arrive (paper §2.4); the DXQ line of work makes compiled
per-site plans a first-class protocol object for exactly this reason.  The
:class:`PlanCache` keys plans by the node-query's **structural key**
(:func:`~repro.relational.compile.structural_key`) — qid-independent, so
overlapping queries from different tenants share one compilation the moment
their node-queries are structurally equal (EXP-P4 cross-query sharing).  A
plan is a pure function of the query structure, which is what makes the
qid-free key sound.  The key is the full structure, not a digest of it, so
two distinct structures can never share an entry; and since the key is
memoized on the query object, a probe hashes the same ``str`` object each
time, whose hash CPython caches.

Plans are **volatile process state**, exactly like the server's node-database
cache: a crash loses them (:meth:`~repro.core.server.QueryServer.crash`
calls :meth:`clear`), and the reborn process recompiles on first touch.
That is what makes the cache trivially coherent — a stale entry can never
be served across incarnations because nothing survives one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from ..relational.compile import CompiledPlan, compile_node_query, structural_key
from ..relational.query import NodeQuery
from .webquery import QueryId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.stats import TrafficStats

__all__ = ["PlanCache"]


class PlanCache:
    """Bounded LRU of :class:`CompiledPlan` objects, structurally keyed.

    A miss compiles and lowers the whole batch pipeline, so a clone's
    evaluation never pays lowering on the hot path.
    """

    __slots__ = ("max_size", "hits", "misses", "shared_hits", "_plans", "_stats")

    def __init__(self, max_size: int = 256, stats: "TrafficStats | None" = None) -> None:
        if max_size < 1:
            raise ValueError("plan cache needs room for at least one plan")
        self.max_size = max_size
        self.hits = 0
        self.misses = 0
        #: Hits where the plan was compiled on behalf of a *different*
        #: query — the cross-query sharing EXP-P4 measures.
        self.shared_hits = 0
        self._stats = stats
        #: structural key → (origin qid, plan).
        self._plans: OrderedDict[str, tuple[QueryId | None, CompiledPlan]] = OrderedDict()

    def plan_for(self, query: NodeQuery, origin: QueryId | None = None) -> CompiledPlan:
        """The compiled plan for ``query``, shared across structural equals.

        Compiles on first touch; later touches are O(1) lookups.  ``origin``
        is the web-query asking — only used to tell a same-query re-hit from
        genuine cross-query sharing in the counters.
        """
        key = structural_key(query)
        entry = self._plans.get(key)
        if entry is not None:
            self._plans.move_to_end(key)
            self.hits += 1
            stored_origin, plan = entry
            if origin is not None and stored_origin is not None and origin != stored_origin:
                self.shared_hits += 1
                if self._stats is not None:
                    self._stats.plans_shared += 1
            return plan
        self.misses += 1
        plan = compile_node_query(query)
        self._plans[key] = (origin, plan)
        if len(self._plans) > self.max_size:
            self._plans.popitem(last=False)
        return plan

    def clear(self) -> None:
        """Drop every plan (process crash / incarnation boundary)."""
        self._plans.clear()

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, query: NodeQuery) -> bool:
        return structural_key(query) in self._plans

"""The four EXP-E1 workloads: inputs generated from a seed.

Each workload builds its web and its query stream from ``--seed`` alone,
so the same seed gives the same inputs.  The engine receives only the
generated web and DISQL texts.  What each workload stresses, and why, is
recorded in ``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro import EngineConfig, NetworkConfig, WebBuilder
from repro.core.engine import DEFAULT_USER_SITE

__all__ = ["Workload", "WORKLOADS"]

#: Filler words per synthetic page: about 3.1 KiB of HTML per page.
_PADDING = 300

#: The CPU cost-model fields zeroed on the socket workload.  On the asyncio
#: transport ``LoopClock.schedule`` turns the modelled service time into
#: real ``call_later`` sleeps, so with the defaults the process idles more
#: than half of every query and the workload would time timers.
_ZERO_COST_MODEL = dict(node_service_time=0.0, parse_time_per_kb=0.0, eval_time_per_tuple=0.0)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``build_web(seed)`` returns the web; ``queries(seed, web)`` an endless
    iterator of DISQL texts; ``warmup(seed, web)`` the texts run during
    set-up.  ``rotation`` > 0 means a fresh engine is built (outside the
    timed slices) every ``rotation`` queries, which keeps every visited
    page cold in the per-server parse cache.
    """

    name: str
    transport: str
    in_flight: int
    build_web: Callable[[int], object]
    queries: Callable[[int, object], Iterator[str]]
    warmup: Callable[[int, object], list[str]]
    sizes: str
    config: EngineConfig = field(default_factory=EngineConfig)
    #: ``network(seed, web)`` gives the simulator's network model; None
    #: keeps the default.
    network: Callable[[int, object], NetworkConfig] | None = None
    rotation: int = 0
    #: Target length of one calibrated slice of the timed pass; a slice
    #: submits no new query once it is this old.  The default gives one
    #: query per slice.
    slice_seconds: float = 0.01
    #: Queries of the record pass that give the deterministic figures,
    #: then queries run under tracemalloc for ``retained_kib_per_query``.
    record_queries: int = 100
    memory_queries: int = 30


def _site(index: int) -> str:
    return f"site{index:03d}.example"


def _page_path(index: int) -> str:
    return "/" if index == 0 else f"/page{index}.html"


#: Link offsets of the regular webs: page p of site s links to page p+d
#: of its own site for each local step d of the site's pattern, and to
#: page p+3 of site s+1 and page p+11 of site s+7 (all modulo the web's
#: size).
_GLOBAL_STEPS = ((1, 3), (7, 11))
#: One local pattern: from a homepage ``L*4`` reaches 15 pages.
_UNIFORM = ((1, 5),)
#: Three local patterns, used by site index modulo 3: from a homepage
#: ``L*4`` reaches 9, 15 and 26 pages, so queries come in three sizes.  No
#: page is reached along two paths of different lengths, so no page is
#: processed twice within one drill.
_MIXED = ((1, 21), (1, 5), (1, 11, 16))
#: The same for ``(L|G)*2`` drills, which follow global links too: one,
#: two or three local links per page reach 13, 21 and 31 pages.
_MIXED_FANOUT = ((1,), (1, 5), (1, 5, 17))


def _regular(sites: int, pages: int, patterns=_UNIFORM) -> Callable[[int], object]:
    """A web whose link graph is fixed: site ``s`` uses local pattern
    ``patterns[s % len(patterns)]``.

    The sizes of the pages a query reaches therefore follow the sites the
    query starts from, not the seed.  The seed draws which titles carry
    the query keyword and which pages carry a bold detail, so row counts
    and bytes vary with it, and the order of the starts.
    """

    def build(seed: int):
        rng = random.Random(seed)
        builder = WebBuilder()
        for s in range(sites):
            site = builder.site(_site(s))
            steps = patterns[s % len(patterns)]
            for p in range(pages):
                title_tail = "topic digest" if rng.random() < 0.4 else "general notes"
                details = [("b", f"detail item {s}-{p}")] if rng.random() < 0.3 else []
                links = [(f"local {(p + d) % pages}", _page_path((p + d) % pages)) for d in steps]
                links += [
                    (f"global {(s + ds) % sites}", f"http://{_site((s + ds) % sites)}{_page_path((p + dp) % pages)}")
                    for ds, dp in _GLOBAL_STEPS
                ]
                site.page(
                    _page_path(p),
                    title=f"{_site(s)} page {p} {title_tail}",
                    paragraphs=[f"Page {p} hosted at {_site(s)}."],
                    emphasized=details,
                    links=links,
                    padding=_PADDING,
                )
        return builder.build()

    return build


def _home(site: str) -> str:
    return f"http://{site}/"


def _drill(starts: tuple[str, ...], pre: str, word: str = "topic") -> str:
    """A title-filter drill from every URL of ``starts`` along ``pre``."""
    source = " | ".join(f'"{url}"' for url in starts)
    return (
        f"select d.url from document d such that {source} {pre} d\n"
        f'where d.title contains "{word}"'
    )


# -- drill-cold ---------------------------------------------------------------

_COLD_SITES = 120


def _cold_order(seed: int) -> list[int]:
    """Every site once, in a seeded order in which each run of three
    consecutive starts covers the three local link patterns."""
    rng = random.Random(seed)
    groups = [list(range(k, _COLD_SITES, len(_MIXED))) for k in range(len(_MIXED))]
    for group in groups:
        rng.shuffle(group)
    return [site for triple in zip(*groups) for site in triple]


def _cold_queries(seed: int, web) -> Iterator[str]:
    for index in itertools.cycle(_cold_order(seed)):
        yield _drill((_home(_site(index)),), "L*4")


def _cold_warmup(seed: int, web) -> list[str]:
    return [_drill((_home(_site(_cold_order(seed)[0])),), "L*4")]


# -- zipf-hot -----------------------------------------------------------------

_HOT_SITES = 16


def _hot_pool(seed: int) -> list[str]:
    """16 structurally distinct drills in rank order: ``(L|G)*3`` and
    ``(L|G)*2`` from each of 8 seeded starts, alternating by rank so the
    zipf mix of the two depths is the same for every seed.  The deeper
    drill from a start subsumes the shallower one (A*m·B containment) at
    every node both reach."""
    starts = [_home(_site(s)) for s in random.Random(seed).sample(range(_HOT_SITES), 8)]
    deep = [_drill((url,), "(L|G)*3") for url in starts]
    shallow = [_drill((url,), "(L|G)*2") for url in starts[1:] + starts[:1]]
    return [text for pair in zip(deep, shallow) for text in pair]


#: Draws per pool member in one block of the zipf stream: ``round(20 /
#: rank)``, 67 draws per block.
_ZIPF_QUOTAS = tuple(round(20 / rank) for rank in range(1, 17))


def _hot_queries(seed: int, web) -> Iterator[str]:
    """The pool drawn with zipf weights 1/rank, as shuffled blocks that
    hold each member exactly its quota of times, so every block (and every
    seed) has the same mix."""
    pool = _hot_pool(seed)
    block = [text for text, quota in zip(pool, _ZIPF_QUOTAS) for __ in range(quota)]
    rng = random.Random(seed + 1)
    while True:
        rng.shuffle(block)
        yield from block


def _hot_warmup(seed: int, web) -> list[str]:
    return _hot_pool(seed)


def _seeded_latencies(seed: int, web) -> NetworkConfig:
    """Every directed pair of sites, the user-site included, gets the
    default base latency scaled by a seeded factor in [0.9, 1.1].

    On warm caches every node costs the same base service time, so
    without this the SimClock response times would read the same for
    every seed."""
    rng = random.Random(seed + 2)
    base = NetworkConfig().latency_base
    sites = [DEFAULT_USER_SITE, *web.site_names]
    return NetworkConfig(
        latency_overrides={
            (src, dst): base * rng.uniform(0.9, 1.1)
            for src in sites
            for dst in sites
            if src != dst
        }
    )


# -- join-heavy ---------------------------------------------------------------

_JOIN_SITES = 8
_JOIN_PAGES = 12
_JOIN_ANCHORS = 200
_JOIN_MARKS = 60
#: Offsets of a hub's local link targets: an ``L*1`` drill visits 5 hubs.
_JOIN_LOCAL_STEPS = (1, 2, 4, 7)
_LABEL_WORDS = 50
_MARK_WORDS = 20


def _hub(site: int) -> str:
    return f"hub{site:02d}.example"


def _hub_url(site: int, page: int) -> str:
    return f"http://{_hub(site)}{_hub_path(page)}"


def _hub_path(page: int) -> str:
    return "/" if page == 0 else f"/hub{page}.html"


def _join_web(seed: int):
    """8 sites × 12 hub pages with the same shape everywhere.

    Each page carries 200 anchors, 150 spread over four of its own site's
    hubs (offsets 1, 2, 4 and 7) and 50 over hubs elsewhere, labelled so
    that each of 50 label words appears exactly 4 times; and 60 bold
    rel-infons, each mark word of 20 exactly 3 times, each naming one
    label word.  The seed draws which anchor and which rel-infon carries
    which word, so a query's literals select a few rows per page.
    """
    rng = random.Random(seed)
    builder = WebBuilder()
    for site in range(_JOIN_SITES):
        sb = builder.site(_hub(site))
        for page in range(_JOIN_PAGES):
            labels = [f"k{word:02d}" for word in range(_LABEL_WORDS)] * (
                _JOIN_ANCHORS // _LABEL_WORDS
            )
            rng.shuffle(labels)
            links = []
            for index, label in enumerate(labels):
                if index % 4:
                    step = _JOIN_LOCAL_STEPS[index % len(_JOIN_LOCAL_STEPS)]
                    href = _hub_path((page + step) % _JOIN_PAGES)
                else:
                    other = (site + 1 + index % (_JOIN_SITES - 1)) % _JOIN_SITES
                    href = _hub_url(other, (page + index) % _JOIN_PAGES)
                links.append((label, href))
            marks = [f"m{word:02d}" for word in range(_MARK_WORDS)] * (_JOIN_MARKS // _MARK_WORDS)
            rng.shuffle(marks)
            sb.page(
                _hub_path(page),
                title=f"hub {site} page {page}",
                paragraphs=[f"Hub page {page} of site {site}."],
                links=links,
                emphasized=[
                    ("b", f"mark k{rng.randrange(_LABEL_WORDS):02d} {mark} of hub {site}-{page}")
                    for mark in marks
                ],
            )
    return builder.build()


def _join_text(start: str, label: str, mark: str) -> str:
    """Document × anchor × relinfon, joined on the equality keys
    ``a.base = d.url`` and ``r.url = a.base``, plus a cross-level
    ``contains`` between each global anchor's label and each rel-infon."""
    return (
        f'select d.url, a.href, r.text from document d such that'
        f' "{start}" L*1 d,\n'
        f"     anchor a such that a.base = d.url,\n"
        f"     relinfon r such that r.url = a.base\n"
        f'where a.ltype = "G" and a.label != "{label}"'
        f' and r.text contains "{mark}" and r.text contains a.label'
    )


def _sitewide_text(start: str, label: str) -> str:
    """Anchors of the visited hubs joined with the site's DOCUMENT table
    (the §7.1 multi-document extension) on the anchor target."""
    return (
        f'select d.url, a.href, e.title from document d such that'
        f' "{start}" L*1 d,\n'
        f"     anchor a such that a.base = d.url,\n"
        f"     document e such that sitewide\n"
        f'where a.label = "{label}" and e.url = a.href'
    )


def _join_queries(seed: int, web) -> Iterator[str]:
    """Three join queries to one sitewide query, each from a hub drawn per
    query.  Starts and literals come from a seeded permutation of every
    combination, so no node-query repeats within the first thousands of
    queries and memo rows miss."""
    rng = random.Random(seed)
    hubs = list(itertools.product(range(_JOIN_SITES), range(_JOIN_PAGES)))
    joins = list(itertools.product(hubs, range(_LABEL_WORDS), range(_MARK_WORDS)))
    rng.shuffle(joins)
    sitewides = list(itertools.product(hubs, range(_LABEL_WORDS)))
    rng.shuffle(sitewides)
    join_iter, sitewide_iter = itertools.cycle(joins), itertools.cycle(sitewides)
    for index in itertools.count():
        if index % 4 == 3:
            hub, label = next(sitewide_iter)
            yield _sitewide_text(_hub_url(*hub), f"k{label:02d}")
        else:
            hub, label, mark = next(join_iter)
            yield _join_text(_hub_url(*hub), f"k{label:02d}", f"m{mark:02d}")


def _join_warmup(seed: int, web) -> list[str]:
    # Per site, a zero-length drill from every hub parses its pages into the
    # per-server parse cache, and a sitewide query builds the site's
    # DOCUMENT table.  The literals match nothing, so no memo row a timed
    # query could reuse is seeded.
    return [
        text
        for site in range(_JOIN_SITES)
        for text in (
            _drill(tuple(_hub_url(site, page) for page in range(_JOIN_PAGES)), "N", "none"),
            _sitewide_text(_hub_url(site, 0), "none"),
        )
    ]


# -- socket-drill ---------------------------------------------------------------

_SOCKET_SITES = 16


def _socket_starts(seed: int) -> list[int]:
    starts = list(range(_SOCKET_SITES))
    random.Random(seed).shuffle(starts)
    return starts


def _socket_queries(seed: int, web) -> Iterator[str]:
    for start in itertools.cycle(_socket_starts(seed)):
        yield _drill((_home(_site(start)),), "(L|G)*2")


def _socket_warmup(seed: int, web) -> list[str]:
    return [_drill((_home(_site(start)),), "(L|G)*2") for start in _socket_starts(seed)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="drill-cold",
            transport="sim",
            in_flight=1,
            build_web=_regular(_COLD_SITES, 40, _MIXED),
            queries=_cold_queries,
            warmup=_cold_warmup,
            rotation=_COLD_SITES,
            record_queries=102,
            memory_queries=18,
            sizes="120 sites x 40 pages, ~3.1 KiB each; L*4 title drills from each homepage",
        ),
        Workload(
            name="zipf-hot",
            transport="sim",
            in_flight=2,
            build_web=_regular(_HOT_SITES, 30),
            queries=_hot_queries,
            warmup=_hot_warmup,
            network=_seeded_latencies,
            slice_seconds=0.05,
            record_queries=3 * sum(_ZIPF_QUOTAS),
            memory_queries=sum(_ZIPF_QUOTAS),
            sizes="16 sites x 30 pages; pool of 16 (L|G)*2/(L|G)*3 drills, zipf 1/rank",
        ),
        Workload(
            name="join-heavy",
            transport="sim",
            in_flight=1,
            build_web=_join_web,
            queries=_join_queries,
            warmup=_join_warmup,
            record_queries=60,
            memory_queries=40,
            sizes="8 sites x 12 hubs, 200 anchors + 60 bold rel-infons each; 3-way joins",
        ),
        Workload(
            name="socket-drill",
            transport="asyncio",
            in_flight=1,
            build_web=_regular(_SOCKET_SITES, 30, _MIXED_FANOUT),
            slice_seconds=0.05,
            queries=_socket_queries,
            warmup=_socket_warmup,
            config=EngineConfig(transport="asyncio", **_ZERO_COST_MODEL),
            sizes="16 sites x 30 pages over loopback TCP; (L|G)*2 drills from rotating starts",
        ),
    )
}

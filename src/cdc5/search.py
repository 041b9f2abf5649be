"""Search for a ≤5-element cycle double cover containing a prescribed even
subgraph of a cubic graph.

The search space is a pair (C1, C2): C1 runs over the even subgraphs
containing c0 (an affine subspace of the cycle space), C2 over the whole
cycle space with the empty set allowed.  A pair is accepted when
M = C1 ∩ C2 is a matching and G - M still has a nowhere-zero 4-flow; the
cover then follows in closed form from that flow on G - M (see cover.py).
Success is therefore always certified, and a None return means the whole
space was exhausted, a definitive negative.

The pairs are tried in a fixed order (see find_5cdc_containing), but
most of them are counted rather than listed.  Whether a pair is accepted
depends only on M, and for a fixed C1 the C2 sharing one overlap M form
a coset of 2^(dim - r) members, r being the rank of the cycle space
projected onto C1's edges.  The C2 of one C1 fall into buckets by the
size of M, and the buckets share one walk of the canonical order (see
_first_partner).  A failing bucket is counted from a list of C1's edge
subsets of its size, or, past the switch where those lists would outgrow
the projection, by the walk, so a C1 whose buckets all fail costs at most
one walk of the 2^dim order.  The walk reads the short end of the order,
every even subgraph up to some size, which the context grows one size at
a time from the host's circuits (below twice the girth an even subgraph
is a single circuit); the rest is listed in closed form once the short
end reaches twice the girth or growing it gets dear.

C1 is c0, then c0 joined with each nonempty even subgraph disjoint from
it, read off the same order, and the C2 walks nest inside this walk.
Those subgraphs are the ones projected to zero on c0's edges, 2^(dim - r)
with the empty one for r the rank at c0, so the C1 walk stops once c0's
own space is used up: a 2-factor (r = dim) is its only C1, and its C1
walk reads nothing of the order.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Any, Callable, Iterator, Optional, Sequence

from .certificates import Certificate, CertificateFrame, build_certificate
from .cover import extend_to_cdc
from .cyclespace import (
    DIM_GUARD,
    EvenLayers,
    canonical_masks,
    check_guard,
    enumerate_circuits,
    is_even_subgraph,
    reduced_echelon,
)
from .errors import (
    CapacityError,
    Graph6Error,
    InvariantViolationError,
    PreconditionError,
    UnsupportedFormatError,
)
from .flows import Planes, flow_planes
from .graphs import MultiGraph, mask_ids, parse_graph6, spanning_forest


@dataclass(frozen=True)
class SearchOptions:
    """Capacity guards.  dim_guard bounds the cycle-space dimension (an
    exhaustive search counts 2^dim C2 for each C1) and budget_ms the
    wall-clock time.  Hitting either guard raises CapacityError, which is
    never conflated with a negative."""

    dim_guard: int = DIM_GUARD
    budget_ms: Optional[int] = None


def _check_search_host(g: MultiGraph) -> None:
    if not g.is_cubic():
        raise PreconditionError("graph must be cubic")
    if not g.m:
        raise PreconditionError("graph has no edges, so no cover element can contain c0")
    if spanning_forest(g).bridges:
        raise PreconditionError("graph has a bridge, so it has no cycle double cover")


class SearchContext:
    """Search state of one host graph, shared by every search on it: the
    cycles, a basis of the cycle space as masks (the fundamental cycles of
    graphs.spanning_forest, so dim is their number), the short end of the
    canonical order of the even subgraphs (size, then ascending edge ids),
    a memo of the bit planes of the nowhere-zero 4-flow of G - M per
    deleted edge mask M (None when G - M has none), and the frame of the
    graph's certificates.  Holding the planes, not just the answer, lets a
    found pair's cover be built without deciding the flow again.

    The short end starts at the empty set and grows by one size whenever a
    walk of the order passes it, so its cost follows the searches made,
    not 2^dim.  Walks may nest, as a search's C2 walks nest in its C1 walk
    until that walk stops at c0's own space: each resumes after what it
    has yielded.  Below twice the girth every even subgraph is a circuit,
    so a size is the circuits of that length (cyclespace.EvenLayers).  The
    rest of the order is listed in closed form by cyclespace.canonical_masks
    once the next size reaches twice the girth, or once the circuit search
    for one size has visited more than 2^dim / 8 paths (a path of the
    search costs about eight times a member of that list)."""

    def __init__(self, g: MultiGraph):
        _check_search_host(g)
        self.g = g
        self.cycles = spanning_forest(g).cycles
        self._flows: dict[int, Optional[Planes]] = {}
        self._ends = [1 << u | 1 << v for u, v in g.edges]  # each edge's vertices, as a mask
        self._order: list[int] = [0]  # the short end, in canonical order
        self._layers: Optional[EvenLayers] = None  # built on the first growth

    @cached_property
    def frame(self) -> CertificateFrame:
        """The graph's CertificateFrame, which every certificate found in
        this context holds, made on first use; UnsupportedFormatError when
        graph6 cannot encode the graph."""
        return CertificateFrame(self.g)

    def canonical_order(self, check_time: Callable[[], None] = lambda: None) -> Iterator[int]:
        """Masks of every even subgraph in canonical order, empty set first,
        growing the cached short end as the iteration passes it.  check_time
        is called as the short end grows and may raise to stop; a stopped
        growth leaves the cache as it was."""
        walked = 0
        while walked < len(self._order) or self._grow(check_time):
            chunk = self._order[walked:]
            yield from chunk
            walked += len(chunk)

    def _grow(self, check_time: Callable[[], None]) -> bool:
        """Extend the short end by one size, or to the whole order; False
        when it is the whole order already."""
        total = 1 << len(self.cycles)
        if len(self._order) == total:
            return False
        if self._layers is None:
            self._layers = EvenLayers(self.g)
        layers = self._layers
        if layers.size + 1 >= 2 * layers.girth or layers.paths * 8 > total:
            self._order = canonical_masks(self.cycles)
        else:
            self._order.extend(layers.next_layer(check_time))
        return True

    def flow_minus(self, drop: int) -> Optional[Planes]:
        """The bit planes of a nowhere-zero 4-flow of G - drop (a mask), or
        None; decided once per drop."""
        if drop not in self._flows:
            self._flows[drop] = flow_planes(self.g, drop)
        return self._flows[drop]


class _Tally:
    """The (C1, C2) pairs counted so far, and the time guard."""

    def __init__(self, opts: SearchOptions, started_ns: int):
        self.tried = 0
        self.deadline = None if opts.budget_ms is None else started_ns + opts.budget_ms * 1_000_000

    def check_time(self) -> None:
        if self.deadline is not None and time.monotonic_ns() > self.deadline:
            raise CapacityError("time budget exhausted", candidates_tried=self.tried)


def _is_matching(ends: list[int], x: int) -> bool:
    """Whether no two edges of the mask x meet; ends[e] is edge e's vertex mask."""
    verts = 0
    while x:
        end = ends[(x & -x).bit_length() - 1]
        if verts & end:
            return False
        verts |= end
        x &= x - 1
    return True


def _overlaps(
    c1: int, rows: dict[int, int], ends: list[int], check_time: Callable[[], None]
) -> Iterator[tuple[int, list[int]]]:
    """For k = 0, 1, ... below the switch: the number of k-edge subsets M of
    c1 that are the overlap c1 ∩ C2 of some even subgraph C2, and those M
    that are matchings, in canonical order.  rows is the reduced echelon
    form of the cycle space projected onto c1, and M is an overlap exactly
    when it lies in that projection: when the syndromes of its edges sum
    to zero, a pivot edge's syndrome being the rest of its row and any
    other edge's the edge itself.  The k-subsets are the (k - 1)-subsets
    extended by a higher edge.  The switch is the first k at which the
    sizes listed would hold more than the 2^r members of the projection."""
    edges = [e for e in range(len(ends)) if c1 >> e & 1]
    pivots = sum(1 << p for p in rows)
    syndrome = [rows[e] & ~pivots if e in rows else 1 << e for e in edges]
    size = len(edges)
    work, projection = 0, 1 << len(rows)
    subsets = [(0, 0, 0)]  # (mask, syndrome sum, next edge index) of the k-subsets
    for k in range(size + 1):
        check_time()
        work += comb(size, k)
        if work > projection:
            return
        if k:
            shorter, subsets = subsets, []
            for mask, total, start in shorter:
                check_time()
                for i in range(start, size):
                    subsets.append((mask | 1 << edges[i], total ^ syndrome[i], i + 1))
        overlaps = [mask for mask, total, _ in subsets if not total]
        yield len(overlaps), [m for m in overlaps if _is_matching(ends, m)]


def _first_partner(ctx: SearchContext, c1: int, tally: _Tally) -> Optional[int]:
    """The first C2 accepted with c1, in the engine's order, with every pair
    passed over counted in tally; None after all 2^dim of them.

    Bucket k, the C2 with |c1 ∩ C2| = k, resumes the one walk of the order
    where bucket k - 1 left it.  The walk counts bucket k and every later
    one, recording where it first meets each of their matchings; bucket k
    decides the flows of its recorded matchings, then of new ones as it
    meets them, in the order an exhaustive walk would, up to the first
    flow.  Below the switch the walk stops once it has met each matching
    of _overlaps not known to fail, and a failing bucket counts count ×
    share members; past it, the walk reads the rest of the order."""
    rows = reduced_echelon(v & c1 for v in ctx.cycles)
    share = 1 << (len(ctx.cycles) - len(rows))
    size = c1.bit_count()
    met = [0] * (size + 1)  # the members of each bucket walked so far
    firsts: dict[int, tuple[int, int]] = {}  # M -> (place in its bucket, C2), in walk order
    ends, check_time = ctx._ends, tally.check_time
    listed = _overlaps(c1, rows, ends, check_time)
    walk = ctx.canonical_order(check_time)
    for k in range(size + 1):
        start = tally.tried
        for m, (place, c2) in firsts.items():
            if m.bit_count() == k and ctx.flow_minus(m) is not None:
                tally.tried = start + place
                return c2
        tally.tried = start + met[k]
        count, matchings = next(listed, (None, ()))  # None past the switch
        pending = {m for m in matchings if m not in firsts and ctx._flows.get(m, 0) is not None}
        for c2 in walk if count is None or pending else ():
            m = c1 & c2
            j = m.bit_count()
            if j < k:
                continue
            check_time()
            met[j] += 1
            if j == k:
                tally.tried += 1
            if 2 * j > size or m in firsts or not _is_matching(ends, m):
                continue
            firsts[m] = (met[j], c2)
            if j == k:
                if ctx.flow_minus(m) is not None:
                    return c2
                pending.discard(m)
                if count is not None and not pending:
                    break
        if pending:  # the walk ended before meeting them
            raise InvariantViolationError("an overlap of the cycle space was never met")
        tally.tried = start + (met[k] if count is None else count * share)
    return None


def _c1_order(ctx: SearchContext, c0: int, check_time: Callable[[], None]) -> Iterator[int]:
    """The even subgraphs containing c0 in canonical order: c0, then, once
    c0 has failed, c0 | d for each nonempty even d disjoint from c0 in the
    order of d, which is theirs since c0 is common to all of them.  The
    filter stops after the 2^(dim - r) - 1 such d, r being the rank of the
    projection onto c0, so a 2-factor (r = dim) reads nothing of the order."""
    yield c0
    left = (1 << (len(ctx.cycles) - len(reduced_echelon(v & c0 for v in ctx.cycles)))) - 1
    order = ctx.canonical_order(check_time)
    while left:
        d = next(order)
        if d and not d & c0:
            yield c0 | d
            left -= 1


def find_5cdc_containing(
    g: MultiGraph,
    c0: int,
    options: Optional[SearchOptions] = None,
    context: Optional[SearchContext] = None,
) -> Optional[Certificate]:
    """First witness pair in canonical order for c0, an edge mask of g,
    assembled and certified.

    C1 candidates are ordered by how much they add to c0, then by edge ids;
    C2 candidates by the size of their intersection with C1 (the empty set
    first, so graphs with a nowhere-zero 4-flow succeed immediately), then
    by position in the canonical even-subgraph list.  The order fixes which
    certificate is produced and its candidates_tried, never whether one
    exists.  Searches on the same graph share work through one context;
    without one, a fresh context is built for this call.  A graph that
    graph6 cannot encode raises UnsupportedFormatError before the search.
    """
    opts = options or SearchOptions()
    ctx = context or SearchContext(g)
    if ctx.g is not g:
        raise ValueError("search context belongs to a different graph")
    if not is_even_subgraph(g, c0):  # ValueError when c0 is no mask over g's edges
        raise PreconditionError("c0 is not an even subgraph")
    frame = ctx.frame  # UnsupportedFormatError before the search, not after it

    started_ns = time.monotonic_ns()
    check_guard(len(ctx.cycles), opts.dim_guard)
    tally = _Tally(opts, started_ns)
    for c1 in _c1_order(ctx, c0, tally.check_time):
        c2 = _first_partner(ctx, c1, tally)
        if c2 is None:
            continue
        overlap = c1 & c2
        cdc = extend_to_cdc([c1, c2], ctx.flow_minus(overlap))
        elapsed_ms = (time.monotonic_ns() - started_ns) // 1_000_000
        return build_certificate(frame, c0, c1, c2, overlap, cdc, tally.tried, elapsed_ms)
    return None


class Sweep:
    """A sweep of the conjecture over a catalog: find_5cdc_containing for
    every circuit of every graph in a list of graph6 lines.  Iterating runs
    it and yields, per graph, its report entry and the Certificate of each
    found circuit, keyed by file name; counts and aborted hold the totals
    so far.  A "none" would be a counterexample to the conjecture that every
    circuit of a bridgeless cubic graph lies in some 5-element cover;
    unless keep_going is set, it stops the sweep after its graph and the
    graphs left are reported skipped.  "inconclusive" records a guard hit,
    never a negative.

    The sweep runs min(workers, CPUs) processes: one maps in process, more
    make a pool once per sweep.  A graph's circuits are split into
    min(processes, circuits) contiguous ranges, and each range is searched
    in order with one search context, so its circuits share one flow memo.
    However they are split, the entries and the certificates are the same,
    up to elapsed_ms."""

    def __init__(
        self,
        lines: Sequence[str],
        options: Optional[SearchOptions] = None,
        workers: int = 1,
        keep_going: bool = False,
    ):
        if workers < 1:
            raise ValueError("a sweep needs at least one worker")
        self.lines = lines
        self.options = options or SearchOptions()
        self.processes = min(workers, os.cpu_count() or 1)
        self.keep_going = keep_going
        self.counts = {"found": 0, "none": 0, "inconclusive": 0}
        self.aborted = False

    def __iter__(self) -> Iterator[tuple[dict[str, Any], dict[str, Certificate]]]:
        import multiprocessing  # only a sweep of more than one process needs it
        pool = multiprocessing.Pool(self.processes) if self.processes > 1 else None
        mapper = map if pool is None else pool.imap
        try:
            for gi, line in enumerate(self.lines):
                yield self._graph(gi, line, mapper)
        finally:
            if pool is not None:
                pool.close()
                pool.join()

    def _graph(
        self, gi: int, line: str, mapper: Callable
    ) -> tuple[dict[str, Any], dict[str, Certificate]]:
        entry: dict[str, Any] = {"index": gi, "graph6": line}
        if self.aborted:
            entry["status"] = "skipped"
            return entry, {}
        try:
            g = parse_graph6(line)
        except (Graph6Error, UnsupportedFormatError) as exc:
            entry.update(status="error", reason=str(exc))
            return entry, {}
        if not g.is_cubic() or spanning_forest(g).bridges:
            reason = "graph has a bridge" if g.is_cubic() else "graph is not cubic"
            entry.update(status="rejected", reason=reason)
            return entry, {}
        try:
            circuits = enumerate_circuits(g, self.options.dim_guard)
        except CapacityError as exc:
            entry.update(status="inconclusive", reason=str(exc))
            self.counts["inconclusive"] += 1
            return entry, {}

        tasks = _split(g, circuits, self.options, self.processes)
        results = [result for part in mapper(_sweep_range, tasks) for result in part]
        rows, certificates = [], {}
        local = {"found": 0, "none": 0, "inconclusive": 0}
        for ci, (circuit, (outcome, cert, detail)) in enumerate(zip(circuits, results)):
            row = {"index": ci, "edges": list(mask_ids(circuit)), "outcome": outcome}
            if outcome == "found":
                name = f"cert_g{gi:03d}_c{ci:03d}.json"
                certificates[name] = cert
                row["certificate"] = name
            elif detail:
                row["detail"] = detail
            local[outcome] += 1
            rows.append(row)
        entry.update(status="ok", circuits=rows, counts=local)
        for key in self.counts:
            self.counts[key] += local[key]
        if local["none"] and not self.keep_going:
            self.aborted = True
        return entry, certificates


def _split(
    g: MultiGraph, circuits: list[int], options: SearchOptions, processes: int
) -> list[tuple[MultiGraph, list[int], SearchOptions]]:
    """Tasks for _sweep_range: the circuits in min(processes, len(circuits))
    contiguous ranges, in order, none empty, their sizes at most one apart."""
    parts = min(processes, len(circuits))
    cuts = [len(circuits) * i // parts for i in range(1, parts + 1)]
    return [(g, circuits[a:b], options) for a, b in zip([0] + cuts, cuts)]


def _sweep_range(
    task: tuple[MultiGraph, list[int], SearchOptions]
) -> list[tuple[str, Optional[Certificate], str]]:
    """(outcome, certificate, detail) for each circuit of one range,
    searched in order with one search context of its own, so no search
    state outlives the call."""
    g, circuits, options = task
    ctx = SearchContext(g)
    results: list[tuple[str, Optional[Certificate], str]] = []
    for circuit in circuits:
        try:
            cert = find_5cdc_containing(g, circuit, options, ctx)
        except CapacityError as exc:
            results.append(("inconclusive", None, str(exc)))
            continue
        if cert is None:
            results.append(("none", None, "search space exhausted"))
        else:
            results.append(("found", cert, ""))
    return results

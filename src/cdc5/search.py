"""Search for a ≤5-element cycle double cover containing a prescribed even
subgraph of a cubic graph.

The search space is a pair (C1, C2): C1 runs over the even subgraphs
containing c0 (an affine subspace of the cycle space), C2 over the whole
cycle space with the empty set allowed.  A pair is accepted when
M = C1 ∩ C2 is a matching and G - M still has a nowhere-zero 4-flow; the
cover then follows in closed form from that flow on G - M (see cover.py).
Success is therefore always certified, and a None return means the whole
space was exhausted, a definitive negative.

Everything that depends on the host graph alone (the cycle-space basis,
the even subgraphs in canonical order, and the flows of G - M decided so
far) lives in a SearchContext, built once per graph and passed to every
search on it.  Both candidate orders come in closed form from
cyclespace.canonical_masks, with no sort on edge ids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Optional, Sequence

from .certificates import Certificate, build_certificate
from .cover import extend_to_cdc
from .cyclespace import (
    canonical_masks,
    cycle_space_basis,
    enumerate_circuits,
    is_even_subgraph,
    solve_affine,
)
from .errors import CapacityError, PreconditionError
from .flows import Flow4, find_nz4flow
from .graphs import (
    EdgeSet,
    MultiGraph,
    bridges,
    delete_edges,
    is_matching,
    petersen_graph,
    write_graph6,
)


@dataclass(frozen=True)
class SearchOptions:
    """Capacity guards.  dim_guard bounds the cycle-space dimension (the
    candidate lists grow as 2^dim); max_candidates and budget_ms bound the
    number of (C1, C2) pairs examined and the wall-clock time.  Hitting any
    guard raises CapacityError, which is never conflated with a negative."""

    dim_guard: int = 16
    max_candidates: Optional[int] = None
    budget_ms: Optional[int] = None


def _check_search_host(g: MultiGraph) -> None:
    if not g.is_cubic():
        raise PreconditionError("graph must be cubic")
    if bridges(g):
        raise PreconditionError("graph has a bridge, so it has no cycle double cover")


class SearchContext:
    """Search state of one host graph, shared by every search on it: the
    cycle-space basis, the even subgraphs as bit masks in canonical order
    (size, then ascending edge ids; built in closed form by
    cyclespace.canonical_masks on first use), and a memo of the nowhere-zero
    4-flow of G - M per deleted edge set M (None when G - M has none).
    Holding the flow, not just the answer, lets a found pair's cover be
    built without deciding the flow again."""

    def __init__(self, g: MultiGraph):
        _check_search_host(g)
        self.g = g
        self.basis = cycle_space_basis(g)
        self._even: Optional[list[int]] = None
        self._flows: dict[int, Optional[Flow4]] = {}

    def even_masks(self, dim_guard: int) -> list[int]:
        """All 2^dim even subgraphs in canonical order, empty set first.
        The guard is checked on every call, built or cached."""
        self.basis.check_guard(dim_guard)
        if self._even is None:
            self._even = canonical_masks(0, [v.mask for v in self.basis.vectors])
        return self._even

    def c1_candidates(self, c0: EdgeSet) -> list[int]:
        """Masks of the even subgraphs containing c0, ordered by how many
        edges they add to c0, then by ascending edge ids.  Every candidate
        contains c0, so the edges it adds are its size less |c0|, and the
        canonical order of the coset is this order."""
        sol = solve_affine(self.basis, c0, EdgeSet.empty(self.g))
        if sol is None:
            raise PreconditionError("c0 is not in the cycle space")
        return canonical_masks(
            sol.particular_set().mask, [sol.combine(k).mask for k in sol.kernel]
        )

    def c2_candidates(self, c1: int, dim_guard: int) -> Iterator[int]:
        """Masks of all even subgraphs in the order they are tried with C1:
        by the size of their intersection with c1, canonical order within,
        sorted by one stable bucket pass (made at the call, so the guard is
        checked there)."""
        buckets: list[list[int]] = [[] for _ in range(c1.bit_count() + 1)]
        for c2 in self.even_masks(dim_guard):
            buckets[(c1 & c2).bit_count()].append(c2)
        return chain.from_iterable(buckets)

    def flow_minus(self, drop: EdgeSet) -> Optional[Flow4]:
        """A nowhere-zero 4-flow of G - drop, or None; decided once per drop."""
        if drop.host is not self.g:
            raise ValueError("edge set does not belong to the context's graph")
        if drop.mask not in self._flows:
            self._flows[drop.mask] = find_nz4flow(delete_edges(self.g, drop).graph)
        return self._flows[drop.mask]


def find_5cdc_containing(
    g: MultiGraph,
    c0: EdgeSet,
    options: Optional[SearchOptions] = None,
    context: Optional[SearchContext] = None,
) -> Optional[Certificate]:
    """First witness pair in canonical order, assembled and certified.

    C1 candidates are ordered by how much they add to c0, then by edge ids;
    C2 candidates by the size of their intersection with C1 (the empty set
    first, so graphs with a nowhere-zero 4-flow succeed immediately), then
    by position in the canonical even-subgraph list.  The order fixes which
    certificate is produced, never whether one exists.  Searches on the
    same graph share work through one context; without one, a fresh
    context is built for this call.
    """
    opts = options or SearchOptions()
    ctx = context or SearchContext(g)
    if ctx.g is not g:
        raise ValueError("search context belongs to a different graph")
    if c0.host is not g:
        raise ValueError("c0 does not belong to the given graph")
    if not is_even_subgraph(g, c0):
        raise PreconditionError("c0 is not an even subgraph")

    started = time.monotonic()
    deadline = None if opts.budget_ms is None else started + opts.budget_ms / 1000.0
    ctx.basis.check_guard(opts.dim_guard)

    tried = 0
    for c1 in ctx.c1_candidates(c0):
        for c2 in ctx.c2_candidates(c1, opts.dim_guard):
            tried += 1
            if opts.max_candidates is not None and tried > opts.max_candidates:
                raise CapacityError("candidate guard exhausted", candidates_tried=tried - 1)
            if deadline is not None and time.monotonic() > deadline:
                raise CapacityError("time budget exhausted", candidates_tried=tried - 1)
            overlap = EdgeSet(g, c1 & c2)
            if len(overlap) * 2 > g.n or not is_matching(g, overlap):
                continue
            flow = ctx.flow_minus(overlap)
            if flow is None:
                continue
            c1_set, c2_set = EdgeSet(g, c1), EdgeSet(g, c2)
            cdc = extend_to_cdc(g, [c for c in (c1_set, c2_set) if c], flow)
            elapsed_ms = int((time.monotonic() - started) * 1000)
            return build_certificate(
                g, c0, c1_set, c2_set, overlap, cdc.elements, tried, elapsed_ms
            )
    return None


def has_5cdc(
    g: MultiGraph,
    options: Optional[SearchOptions] = None,
    context: Optional[SearchContext] = None,
) -> Optional[Certificate]:
    """Unconstrained existence: search with an empty prescribed subgraph."""
    return find_5cdc_containing(g, EdgeSet.empty(g), options, context)


@dataclass(frozen=True)
class CircuitOutcome:
    circuit: EdgeSet
    outcome: str  # "found" | "none" | "inconclusive"
    certificate: Optional[Certificate]
    detail: str = ""


@dataclass(frozen=True)
class SweepReport:
    host: MultiGraph
    entries: tuple[CircuitOutcome, ...]

    @property
    def found(self) -> int:
        return sum(1 for e in self.entries if e.outcome == "found")

    @property
    def none(self) -> int:
        return sum(1 for e in self.entries if e.outcome == "none")

    @property
    def inconclusive(self) -> int:
        return sum(1 for e in self.entries if e.outcome == "inconclusive")


def circuit_sweep(
    g: MultiGraph,
    options: Optional[SearchOptions] = None,
    circuits: Optional[Sequence[EdgeSet]] = None,
) -> SweepReport:
    """Run the search for every circuit of g (or for the given ones), all
    sharing one search context.  A "none" entry would be a counterexample
    to the conjecture that every circuit of a bridgeless cubic graph lies
    in some 5-element cover; "inconclusive" records a per-circuit guard
    hit, never a negative."""
    opts = options or SearchOptions()
    ctx = SearchContext(g)
    if circuits is None:
        circuits = enumerate_circuits(g, opts.dim_guard)
    entries = []
    for circuit in circuits:
        try:
            cert = find_5cdc_containing(g, circuit, opts, ctx)
        except CapacityError as exc:
            entries.append(CircuitOutcome(circuit, "inconclusive", None, str(exc)))
            continue
        if cert is None:
            entries.append(
                CircuitOutcome(circuit, "none", None, "search space exhausted")
            )
        else:
            entries.append(CircuitOutcome(circuit, "found", cert))
    return SweepReport(g, tuple(entries))


@dataclass(frozen=True)
class ShortcutEntry:
    circuit: EdgeSet
    partner: Optional[EdgeSet]
    matching: Optional[EdgeSet]
    flowless_skips: tuple[tuple[EdgeSet, EdgeSet], ...]  # (partner, matching) pairs


@dataclass(frozen=True)
class ShortcutReport:
    entries: tuple[ShortcutEntry, ...]
    # Bridgeless-but-flowless pairs with a nonempty matching; empirically
    # this stays empty on the Petersen graph, and anything here is a finding
    # worth reporting, not an error.
    discrepancies: tuple[tuple[EdgeSet, EdgeSet, EdgeSet], ...]

    @property
    def complete(self) -> bool:
        return all(e.partner is not None for e in self.entries)


def petersen_shortcut_check(g: MultiGraph) -> ShortcutReport:
    """Test, on the Petersen graph, the shortcut that bridgelessness of
    G - M already implies the flow condition.

    For every circuit C, partner circuits C' are scanned in canonical order
    for M = C ∩ C' a matching with G - M bridgeless; each such pair is
    cross-validated by deciding the flow on G - M (the context's memo)
    instead of trusting the shortcut.  Pairs with M = ∅ always fail the flow check here (G itself
    has no nowhere-zero 4-flow) and are recorded as skips; a failing pair
    with M nonempty would be a genuine discrepancy.
    """
    if not g.is_simple() or write_graph6(g) != write_graph6(petersen_graph()):
        raise PreconditionError("graph is not the canonical Petersen graph")
    ctx = SearchContext(g)
    circuits = enumerate_circuits(g)
    entries = []
    discrepancies = []
    for c in circuits:
        partner = None
        matching = None
        skips = []
        for other in circuits:
            m_set = c & other
            if not is_matching(g, m_set):
                continue
            if bridges(delete_edges(g, m_set).graph):
                continue
            if ctx.flow_minus(m_set) is not None:
                partner, matching = other, m_set
                break
            skips.append((other, m_set))
            if m_set:
                discrepancies.append((c, other, m_set))
        entries.append(ShortcutEntry(c, partner, matching, tuple(skips)))
    return ShortcutReport(tuple(entries), tuple(discrepancies))

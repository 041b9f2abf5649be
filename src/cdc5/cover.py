"""Cycle double covers: verification, extension, and witness extraction.

A CDC is a multiset of nonempty even subgraphs covering every edge exactly
twice.  The constructions here revolve around one closed form: a
nowhere-zero 4-flow φ over the Klein group splits into two even subgraphs
S1 = {e : φ(e) & 1} and S2 = {e : φ(e) & 2}, and for any even subgraph c'
the family {c', c' ^ S1, c' ^ S2, c' ^ S1 ^ S2} covers every edge exactly
twice, because each edge lies in S1, S2 or both (Jaeger 1979).  Extending a
family C1..Ck whose pairwise overlaps form a matching M then reduces to
that closed form on G - M, with c' the symmetric difference of the Ci.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .cyclespace import is_even_subgraph, sym_diff
from .errors import ConditionError, FlowMissingError, InvariantViolationError, PreconditionError
from .flows import Flow4, cdc_to_flow, find_nz4flow
from .graphs import EdgeSet, MultiGraph, delete_edges, is_matching


@dataclass(frozen=True)
class Cdc:
    """An ordered family of nonempty even subgraphs over a common host.
    Construction functions only return instances that pass verify_cdc."""

    host: MultiGraph
    elements: tuple[EdgeSet, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i: int) -> EdgeSet:
        return self.elements[i]


@dataclass(frozen=True)
class CdcReport:
    """Outcome of verify_cdc; invalidity is data, not an exception."""

    valid: bool
    empty: tuple[int, ...]  # indices of empty elements
    non_even: tuple[int, ...]  # indices failing the even-subgraph check
    coverage: tuple[int, ...]  # per-edge cover counts
    coverage_errors: tuple[int, ...]  # edge ids covered != 2 times


CdcLike = Union[Cdc, Sequence[EdgeSet]]


def _element_seq(s: CdcLike) -> Sequence[EdgeSet]:
    return s.elements if isinstance(s, Cdc) else s


def verify_cdc(g: MultiGraph, s: CdcLike) -> CdcReport:
    """Check the double-cover property: every element a nonempty even
    subgraph, every edge covered exactly twice (repeats count)."""
    elements = _element_seq(s)
    counts = [0] * g.m
    empty = []
    non_even = []
    for i, el in enumerate(elements):
        if el.host is not g:
            raise ValueError("element does not belong to the given graph")
        if not el:
            empty.append(i)
        if not is_even_subgraph(g, el):
            non_even.append(i)
        for e in el:
            counts[e] += 1
    errors = tuple(e for e, c in enumerate(counts) if c != 2)
    valid = not empty and not non_even and not errors
    return CdcReport(valid, tuple(empty), tuple(non_even), tuple(counts), errors)


def contains_element_superset(s: CdcLike, c0: EdgeSet) -> Optional[int]:
    """Least index of an element with c0 as a subset, or None.  The empty
    c0 is contained in the first element (or nothing, if s is empty)."""
    for i, el in enumerate(_element_seq(s)):
        c0._check_host(el)
        if c0 <= el:
            return i
    return None


def four_cdc_containing(
    g: MultiGraph, c_prime: EdgeSet, flow: Optional[Flow4] = None
) -> Cdc:
    """Double cover of g by at most 4 even subgraphs, one equal to c_prime
    (which is dropped like any other empty member if it is empty).

    Requires a nowhere-zero 4-flow on g: the given one, or else the one
    find_nz4flow constructs.  With S1 and S2 the edges whose flow value has
    bit 1 and bit 2 set, the cover is c_prime, c_prime ^ S1, c_prime ^ S2
    and c_prime ^ S1 ^ S2, in that order, so the result is deterministic.
    """
    if c_prime.host is not g:
        raise ValueError("c_prime does not belong to the given graph")
    if g.loop_mask():
        raise PreconditionError("a loop lies in no even subgraph, so no double cover exists")
    if not is_even_subgraph(g, c_prime):
        raise PreconditionError("c_prime is not an even subgraph")
    if flow is None:
        flow = find_nz4flow(g)
        if flow is None:
            raise FlowMissingError("graph has no nowhere-zero 4-flow")
    elif flow.host is not g:
        raise ValueError("flow does not belong to the given graph")
    s1 = s2 = 0
    for e, value in enumerate(flow.values):
        if value & 1:
            s1 |= 1 << e
        if value & 2:
            s2 |= 1 << e
    base = c_prime.mask
    masks = (base, base ^ s1, base ^ s2, base ^ s1 ^ s2)
    cdc = Cdc(g, tuple(EdgeSet(g, mask) for mask in masks if mask))
    report = verify_cdc(g, cdc)
    if not report.valid:
        raise InvariantViolationError(f"constructed cover fails verification: {report}")
    return cdc


def _matching_conflicts(g: MultiGraph, s: EdgeSet) -> tuple[int, ...]:
    """Edges of s that are loops or share an endpoint with another edge of s."""
    bad = set()
    for e in s:
        if g.is_loop(e):
            bad.add(e)
    for v in range(g.n):
        here = [e for e in g.incident(v) if e in s and not g.is_loop(e)]
        if len(here) > 1:
            bad.update(here)
    return tuple(sorted(bad))


def extend_to_cdc(
    g: MultiGraph, covers: Sequence[EdgeSet], flow: Optional[Flow4] = None
) -> Cdc:
    """Extend even subgraphs C1..Ck to a double cover of at most k+3
    elements that keeps every Ci as an element.

    Three conditions are enforced, each reported by number on failure:
    1. no edge lies in more than two of the Ci;
    2. the edges lying in exactly two form a matching M;
    3. G - M has a nowhere-zero 4-flow.

    The overlap M is deleted, the symmetric difference of the Ci (exactly
    the once-covered edges) is completed to a ≤4-element cover of G - M,
    and that cover's symmetric-difference member is replaced by C1..Ck.
    A caller that already holds a nowhere-zero 4-flow of G - M (on a graph
    equal to delete_edges(g, M).graph) passes it as flow, and condition 3
    is then not decided again.
    """
    if not g.is_cubic():
        raise PreconditionError("host graph must be cubic")
    for i, c in enumerate(covers):
        if c.host is not g:
            raise ValueError(f"covers[{i}] does not belong to the given graph")
        if not is_even_subgraph(g, c):
            raise PreconditionError(f"covers[{i}] is not an even subgraph")

    counts = [0] * g.m
    for c in covers:
        for e in c:
            counts[e] += 1
    over = tuple(e for e, cnt in enumerate(counts) if cnt > 2)
    if over:
        raise ConditionError(1, "some edge lies in more than two covers", over)
    m_set = EdgeSet.of(g, (e for e, cnt in enumerate(counts) if cnt == 2))
    if not is_matching(g, m_set):
        raise ConditionError(
            2, "twice-covered edges do not form a matching", _matching_conflicts(g, m_set)
        )
    deletion = delete_edges(g, m_set)
    if flow is None:
        flow = find_nz4flow(deletion.graph)
        if flow is None:
            raise ConditionError(
                3, "graph minus the matching has no nowhere-zero 4-flow", m_set.ids()
            )
    elif flow.host != deletion.graph:
        raise ValueError("flow does not belong to the graph minus the matching")
    else:
        flow = Flow4(deletion.graph, flow.values)

    if covers:
        c_prime = deletion.to_new(sym_diff(covers))
    else:
        c_prime = EdgeSet.empty(deletion.graph)
    inner = four_cdc_containing(deletion.graph, c_prime, flow)
    lifted = [deletion.to_old(g, el) for el in inner]
    if c_prime:
        lifted.remove(deletion.to_old(g, c_prime))
    elements = tuple(lifted) + tuple(c for c in covers if c)
    cdc = Cdc(g, elements)
    report = verify_cdc(g, cdc)
    if not report.valid:
        raise InvariantViolationError(f"extended cover fails verification: {report}")
    return cdc


def extract_witness(
    g: MultiGraph, s: CdcLike, c0: EdgeSet
) -> tuple[EdgeSet, EdgeSet, EdgeSet]:
    """From a ≤5-element CDC with an element containing c0, recover the
    triple (M, C1, C2): C1 the containing element, C2 the first other
    element (empty if there is none), M their intersection.

    In a valid CDC of a cubic graph two elements always intersect in a
    matching (a second shared edge at a vertex would leave the third edge
    there uncoverable), and the remaining elements together with C1 ^ C2
    double-cover G - M, which therefore has a nowhere-zero 4-flow.  Both
    facts are re-checked, the second by building that flow from the residual
    cover with cdc_to_flow; a failure means the inputs were inconsistent in
    a way verify_cdc cannot see, or a genuine bug.
    """
    elements = tuple(_element_seq(s))
    if not g.is_cubic():
        raise PreconditionError("host graph must be cubic")
    if len(elements) > 5:
        raise PreconditionError(f"need at most 5 elements, got {len(elements)}")
    if not verify_cdc(g, elements).valid:
        raise PreconditionError("not a valid cycle double cover")
    idx = contains_element_superset(elements, c0)
    if idx is None:
        raise PreconditionError("no element contains the prescribed subgraph")
    c1 = elements[idx]
    rest = [el for i, el in enumerate(elements) if i != idx]
    c2 = rest[0] if rest else EdgeSet.empty(g)
    m_set = c1 & c2
    if not is_matching(g, m_set):
        raise InvariantViolationError("element intersection is not a matching")

    # Residual double cover of G - M certifies the flow condition.
    deletion = delete_edges(g, m_set)
    residual = [deletion.to_new(el) for el in rest[1:]]
    if c1 ^ c2:
        residual.append(deletion.to_new(c1 ^ c2))
    if len(residual) > 4:
        raise InvariantViolationError("residual cover has too many elements")
    try:
        cdc_to_flow(deletion.graph, residual)
    except PreconditionError as exc:
        raise InvariantViolationError(f"residual cover is not a double cover: {exc}") from exc
    return m_set, c1, c2

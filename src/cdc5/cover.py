"""Cycle double covers: the closed-form extension, the coverage tally and
the flow a cover replays, which the certificate check reads.

A CDC is a multiset of nonempty even subgraphs covering every edge exactly
twice.  The constructions here revolve around one closed form: a
nowhere-zero 4-flow φ over the Klein group splits into two even subgraphs
S1 = {e : φ(e) & 1} and S2 = {e : φ(e) & 2}, and for any even subgraph c'
the family {c', c' ^ S1, c' ^ S2, c' ^ S1 ^ S2} covers every edge exactly
twice, because each edge lies in S1, S2 or both (Jaeger 1979).  Extending a
family C1..Ck whose pairwise overlaps form a matching M then reduces to
that closed form on G - M, with c' the symmetric difference of the Ci.
The caller decides that flow and passes its planes, masks over the host's
own edge ids, so no flow is decided here and the cover is read off them
with plain XOR.  Evenness, the matching and the planes are checked with
one graphs.vertex_faults call per cover.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import ConditionError, PreconditionError
from .flows import Planes
from .graphs import EdgeSet, MultiGraph, vertex_faults


def coverage_masks(masks: Sequence[int]) -> tuple[int, int, int]:
    """The edges lying in exactly one, exactly two and more than two of the
    given masks, as three masks updated by AND and XOR per member."""
    once = twice = more = 0
    for x in masks:
        once, twice, more = (
            once ^ (x & ~(twice | more)), twice ^ ((once | twice) & x), more | (twice & x)
        )
    return once, twice, more


def _matching_conflicts(g: MultiGraph, s: EdgeSet) -> tuple[int, ...]:
    """Edges of s that are loops or share an endpoint with another edge of s."""
    bad = s.mask & g.loop_mask()
    for vm in g.vertex_masks:
        here = s.mask & vm & ~g.loop_mask()
        if here & here - 1:
            bad |= here
    return EdgeSet(g, bad).ids()


def extend_to_cdc(g: MultiGraph, covers: Sequence[EdgeSet], planes: Planes) -> tuple[EdgeSet, ...]:
    """Extend even subgraphs C1..Ck to a double cover of at most k+3
    elements that keeps every Ci as an element, returned as a tuple of
    its elements.

    Two conditions are enforced, each reported by number on failure:
    1. no edge lies in more than two of the Ci;
    2. the edges lying in exactly two form a matching M.
    planes are the bit planes (S1, S2) of a nowhere-zero 4-flow of G - M,
    which the caller has decided; planes that are not a flow of G - M
    raise ValueError.

    With c' the once-covered edges (the symmetric difference of the Ci),
    the cover is c' ^ S1, c' ^ S2, c' ^ S1 ^ S2 and C1..Ck: the module's
    closed-form cover of G - M, with its element c' replaced by the Ci.
    """
    if not g.is_cubic():
        raise PreconditionError("host graph must be cubic")
    masks = [c.mask for c in covers]
    once, twice, more = coverage_masks(masks)
    odd, shared, crowded = vertex_faults(g, masks + [twice, *planes])
    for i, c in enumerate(covers):
        if c.host is not g:
            raise ValueError(f"covers[{i}] does not belong to the given graph")
        if (odd | crowded) >> i & 1:
            raise PreconditionError(f"covers[{i}] is not an even subgraph")

    if more:
        raise ConditionError(1, "some edge lies in more than two covers", EdgeSet(g, more).ids())
    if shared >> len(covers) & 1:
        conflicts = _matching_conflicts(g, EdgeSet(g, twice))
        raise ConditionError(2, "twice-covered edges do not form a matching", conflicts)
    if planes[0] | planes[1] != (1 << g.m) - 1 & ~twice or odd >> len(covers) + 1:
        raise ValueError("planes are not a flow of the graph minus the matching")
    s1, s2 = planes
    lifted = (EdgeSet(g, x) for x in (once ^ s1, once ^ s2, once ^ s1 ^ s2) if x)
    return tuple(lifted) + tuple(c for c in covers if c)


def replayed_planes(
    g: MultiGraph, c1: EdgeSet, c2: EdgeSet, matching: EdgeSet, elements: Sequence[EdgeSet]
) -> Optional[Planes]:
    """The bit planes of the flow on G - M that a cover replays, by which it
    witnesses the flow condition itself when they are even (is_flow): the
    elements other than c1 and c2, with c1 ^ c2, must be at most four masks
    r0..r3 covering E - M exactly twice, and the flow giving r0..r3 the
    Klein values 0..3 and each edge the sum of its two masks' values has
    the planes r1 ^ r3 and r2 ^ r3.  Linear in the size of the cover; None
    means the cover witnesses no flow of G - M, and a certificate with such
    a cover is rejected (certificates._check)."""
    if c1 & c2 != matching:
        return None
    rest = [el.mask for el in elements]
    for c in (c1.mask, c2.mask):
        if c:
            if c not in rest:
                return None
            rest.remove(c)
    if c1 ^ c2:
        rest.append((c1 ^ c2).mask)
    once, twice, more = coverage_masks(rest)
    if len(rest) > 4 or once or more or twice != (1 << g.m) - 1 ^ matching.mask:
        return None
    _, r1, r2, r3 = rest + [0] * (4 - len(rest))
    return r1 ^ r3, r2 ^ r3

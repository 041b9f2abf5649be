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
with plain XOR.  Nothing is checked here either: the certificate check
(certificates.build_certificate) is the one gate on a cover.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .flows import Planes
from .graphs import MultiGraph


def coverage_masks(masks: Sequence[int]) -> tuple[int, int, int]:
    """The edges lying in exactly one, exactly two and more than two of the
    given masks, as three masks updated by AND and XOR per member."""
    once = twice = more = 0
    for x in masks:
        once, twice, more = (
            once ^ (x & ~(twice | more)), twice ^ ((once | twice) & x), more | (twice & x)
        )
    return once, twice, more


def extend_to_cdc(covers: Sequence[int], planes: Planes) -> tuple[int, ...]:
    """The closed-form double cover of at most k+3 elements that keeps even
    subgraphs C1..Ck (masks) as elements, given the bit planes (S1, S2) of
    a nowhere-zero 4-flow of G - M, M the edges lying in two of the Ci.

    With c' the once-covered edges (the symmetric difference of the Ci),
    the cover is c' ^ S1, c' ^ S2, c' ^ S1 ^ S2 and C1..Ck, empty members
    left out: the module's closed-form cover of G - M, with its element c'
    replaced by the Ci.  Nothing is checked here: the cover is what the
    formula gives whatever the input, and certificates.build_certificate
    and verify_certificate are the gate that refuses a host that is not
    cubic, an odd Ci, an edge in more than two, an overlap that is not a
    matching, and planes that are no flow of G - M.
    """
    once = coverage_masks(covers)[0]
    s1, s2 = planes
    return tuple(x for x in (once ^ s1, once ^ s2, once ^ s1 ^ s2, *covers) if x)


def replayed_planes(
    g: MultiGraph, c1: int, c2: int, matching: int, elements: Sequence[int]
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
    rest = list(elements)
    for c in (c1, c2):
        if c:
            if c not in rest:
                return None
            rest.remove(c)
    if c1 ^ c2:
        rest.append(c1 ^ c2)
    once, twice, more = coverage_masks(rest)
    if len(rest) > 4 or once or more or twice != (1 << g.m) - 1 ^ matching:
        return None
    _, r1, r2, r3 = rest + [0] * (4 - len(rest))
    return r1 ^ r3, r2 ^ r3

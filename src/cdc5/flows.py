"""Nowhere-zero 4-flows over the Klein four-group and proper 3-edge-colorings.

Flow values are 1, 2, 3 (the nonzero elements 01, 10, 11 of Z2 x Z2) and the
group operation is integer XOR, so conservation at a vertex means the XOR of
the incident values vanishes; edge direction is irrelevant and loops cancel
themselves.  A flow is kept as its two bit planes, the edge masks S1 (values
1 and 3) and S2 (values 2 and 3): it is conserved exactly when both planes
are even subgraphs, and nowhere zero when S1 | S2 is every edge.  For
3-regular graphs a nowhere-zero 4-flow is the same thing as a proper
3-edge-coloring, and the flows of G - drop, with every degree 2 or 3, are
found on the 3-regular graph that suppressing its degree-2 vertices leaves,
the one graph built.  The planes are masks over G's own edge ids.
"""

from __future__ import annotations

from typing import Optional

from .errors import InvariantViolationError, PreconditionError
from .graphs import MultiGraph, spanning_forest, vertex_faults

EdgeColoring3 = tuple[int, ...]  # edge id -> color in {0, 1, 2}
Planes = tuple[int, int]  # the bit planes (S1, S2) of a flow, as edge masks


def _dead_key(unc: int, b0: int, b1: int, b2: int) -> tuple[int, int, int, int]:
    """Memo key of a branch state: U and the blocked-edge masks inside U in
    ascending order, so that the six color permutations of a state share
    one key (three compare-and-swaps: cheaper than sorted)."""
    b0, b1, b2 = b0 & unc, b1 & unc, b2 & unc
    if b0 > b1:
        b0, b1 = b1, b0
    if b1 > b2:
        b1, b2 = b2, b1
    if b0 > b1:
        b0, b1 = b1, b0
    return unc, b0, b1, b2


def three_edge_color(g: MultiGraph) -> Optional[EdgeColoring3]:
    """First proper 3-edge-coloring in backtracking order, or None.

    Each component of g, in spanning_forest(g).components order, is
    colored in place on g's edge ids by a search of its own.  Color
    permutations map proper colorings to proper colorings, so the three
    edges at the first endpoint of the component's lowest edge are fixed
    to colors 0, 1, 2 in identifier order.  Each step then colors the
    uncolored edge with the fewest free colors, ties going to the lowest
    identifier, trying its free colors in ascending order.  The first
    coloring this depth-first search completes is kept, so the answer is
    deterministic; a dead end never backs up into a component already
    colored, so each gets the coloring a copy of it alone would get.  A
    loop makes a proper coloring impossible.  Parallel edges are fine.

    The state is four edge masks: U, the uncolored edges, and Bc, the
    edges sharing an endpoint with an edge of color c (c is free at e in U
    exactly when e is not in Bc).  Coloring e with c is U ^= 1 << e and
    Bc |= near[e], the incident edges of both endpoints, parallel edges
    included.  The step takes the lowest edge of tight = U & (B0&B1 |
    B0&B2 | B1&B2), whose edges have at most one free color (none means a
    dead end, one a forced move); else the lowest edge of U & (B0|B1|B2),
    with two; else the lowest edge of U.  Only these branch states, the
    states without a tight edge, go on the trail, as the edge, its colors
    not tried yet, its key and a snapshot of the masks; a dead end
    restores the last snapshot with a color left.  Forced moves push
    nothing, yet the moves and their order are the plain backtracker's,
    and a snapshot is what undoing the forced moves after it one by one
    would give back.  Each move writes its color into a list that no undo
    clears: an edge a snapshot uncolors is colored again before the search
    can complete.

    The search remembers the branch states it has proved dead, keyed by
    _dead_key: U, inside one component, and the sorted masks B0 & U,
    B1 & U, B2 & U.  The key is sound: the selection and every later step
    read the masks only inside U, so whether a completion exists depends
    on U and the masks restricted to it alone; and a color permutation
    permutes the three masks and keeps whether a completion exists.  Once
    every color of a branch has been tried its key joins the failed set,
    and a later branch state with the same key is a dead end at once.
    Only states without a completion are cut and the order is untouched,
    so the first coloring found is the one the search without the set
    would find.
    """
    if not g.is_cubic():
        v = next(v for v in range(g.n) if g.degree(v) != 3)
        raise PreconditionError(
            f"vertex {v} has degree {g.degree(v)}; 3-edge-coloring needs a 3-regular graph"
        )
    if g.loop_mask():
        return None
    vm = g.vertex_masks
    near = [vm[u] | vm[v] for u, v in g.edges]
    colors = [0] * g.m
    failed: set[tuple[int, int, int, int]] = set()
    for component in spanning_forest(g).components:
        unc = 0
        for v in component:
            unc |= vm[v]
        e0, e1, e2 = g.incident(g.edges[(unc & -unc).bit_length() - 1][0])
        colors[e1], colors[e2] = 1, 2
        unc ^= 1 << e0 | 1 << e1 | 1 << e2
        b0, b1, b2 = near[e0], near[e1], near[e2]
        # (edge, colors not tried yet, branch key, U, B0, B1, B2 before)
        trail: list[tuple[int, int, tuple[int, int, int, int], int, int, int, int]] = []
        while True:
            tight = unc & (b0 & b1 | (b0 | b1) & b2)
            if tight:  # a forced move, or a dead end if no color is free
                bit = tight & -tight
                e = bit.bit_length() - 1
                unc ^= bit
                if not b0 & bit:
                    b0 |= near[e]
                    colors[e] = 0
                    continue
                if not b1 & bit:
                    b1 |= near[e]
                    colors[e] = 1
                    continue
                if not b2 & bit:
                    b2 |= near[e]
                    colors[e] = 2
                    continue
                rest = 0
            elif not unc:
                break
            else:  # a branch state: two free colors, or three if nothing is blocked
                pick = unc & (b0 | b1 | b2) or unc
                bit = pick & -pick
                e = bit.bit_length() - 1
                rest = 6 if b0 & bit else 5 if b1 & bit else 3 if b2 & bit else 7
                key = _dead_key(unc, b0, b1, b2)
                if key in failed:
                    rest = 0
            # Back up to the last branch state with a color left to try.
            while not rest:
                if not trail:
                    return None
                e, rest, key, unc, b0, b1, b2 = trail.pop()
                if not rest:
                    failed.add(key)
            low = rest & -rest
            trail.append((e, rest ^ low, key, unc, b0, b1, b2))
            unc ^= 1 << e
            colors[e] = low >> 1
            if low == 1:
                b0 |= near[e]
            elif low == 2:
                b1 |= near[e]
            else:
                b2 |= near[e]
    return tuple(colors)


def _suppress(g: MultiGraph, drop: int) -> tuple[MultiGraph, list[int]]:
    """The 3-regular graph G - drop suppresses to, and the mask of the chain
    of G's edges that each of its edges stands for.

    Every degree of G - drop must be 2 or 3.  From each degree-3 vertex in
    ascending order, each kept edge at it not yet walked, in ascending
    order, starts a chain that runs on through degree-2 vertices to the
    next degree-3 vertex; the chain becomes one edge between the two (a
    loop when it returns to its start).  The edges on no chain form the
    components of G - drop without a degree-3 vertex, which are circuits.
    """
    kept = [vm & ~drop for vm in g.vertex_masks]
    loops = g.loop_mask() & ~drop
    degree = [vm.bit_count() + (vm & loops).bit_count() for vm in kept]
    for v, d in enumerate(degree):
        if d not in (2, 3):
            raise PreconditionError(
                f"vertex {v} has degree {d}; flow decision needs degrees 2 or 3"
            )
    branch = [v for v, d in enumerate(degree) if d == 3]
    new_id = {v: i for i, v in enumerate(branch)}
    walked = drop
    edges, chains = [], []
    for v in branch:
        for e in g.incident(v):
            if walked >> e & 1:
                continue
            chain = 1 << e
            cur = g.other_end(e, v)
            while degree[cur] == 2:
                bit = kept[cur] & ~chain
                chain |= bit
                cur = g.other_end(bit.bit_length() - 1, cur)
            walked |= chain
            edges.append((new_id[v], new_id[cur]))
            chains.append(chain)
    return MultiGraph(len(branch), edges), chains


def _planes(g: MultiGraph, drop: int, host: MultiGraph, chains: list[int]) -> Optional[Planes]:
    """flow_planes decided on host, a 3-regular graph whose edge e stands
    for the chain of g's edges chains[e].  A bridge rules a flow out.
    Otherwise host is 3-edge-colored in one call, and color c gives its
    edge's chain the value c + 1: color 0 puts the chain in S1, color 1 in
    S2 and color 2 in both.  The edges on no chain get the value 1, in
    S1.  The planes are checked with is_flow before they are returned."""
    colors = None if spanning_forest(host).bridges else three_edge_color(host)
    if colors is None:
        return None
    s1 = s2 = 0
    for chain, c in zip(chains, colors):
        if c != 1:
            s1 |= chain
        if c:
            s2 |= chain
    s1 |= (1 << g.m) - 1 & ~(drop | s1 | s2)
    if not is_flow(g, drop, s1, s2):
        raise InvariantViolationError("flow planes fail verification")
    return s1, s2


def flow_planes(g: MultiGraph, drop: int = 0) -> Optional[Planes]:
    """The bit planes (S1, S2) of the first nowhere-zero 4-flow of G - drop,
    as masks over g's edge ids, or None when it has none.  drop is a mask
    of g's edges; every degree of G - drop must be 2 or 3.  The flow is
    found on the graph G - drop suppresses to, in _suppress' edge order; a
    cubic g with drop empty is refuted on itself first, without a copy."""
    if not drop and g.is_cubic() and not has_nz4flow(g):
        return None
    return _planes(g, drop, *_suppress(g, drop))


def has_nz4flow(g: MultiGraph) -> bool:
    """Decide whether g (degrees 2 and 3) admits a nowhere-zero 4-flow.  A
    cubic g is its own suppressed graph but for the edge order, which the
    answer does not depend on, so it is decided on itself."""
    if g.is_cubic():
        return _planes(g, 0, g, [1 << e for e in range(g.m)]) is not None
    return flow_planes(g) is not None


def is_flow(g: MultiGraph, drop: int, s1: int, s2: int) -> bool:
    """Whether masks s1 and s2 are the bit planes of a nowhere-zero 4-flow
    of G - drop: together they hold exactly the edges outside drop, and
    each meets every vertex in an even number of edges, loops aside."""
    return s1 | s2 == (1 << g.m) - 1 & ~drop and not vertex_faults(g, [s1, s2])[0]

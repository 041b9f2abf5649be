"""Nowhere-zero 4-flows over the Klein four-group and proper 3-edge-colorings.

Flow values are 1, 2, 3 (the nonzero elements 01, 10, 11 of Z2 x Z2) and the
group operation is integer XOR, so conservation at a vertex means the XOR of
the incident values vanishes; edge direction is irrelevant and loops cancel
themselves.  For 3-regular graphs a nowhere-zero 4-flow is the same thing as
a proper 3-edge-coloring, and the general degree-{2,3} case reduces to that
by suppressing degree-2 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvariantViolationError, PreconditionError
from .graphs import MultiGraph, SuppressionMap, bridges, components, suppress_degree2

EdgeColoring3 = tuple[int, ...]  # edge id -> color in {0, 1, 2}


@dataclass(frozen=True)
class Flow4:
    """Klein-group edge values, indexed by edge id; 0 never appears in a
    valid nowhere-zero flow."""

    host: MultiGraph
    values: tuple[int, ...]


def _dead_key(unc: int, b0: int, b1: int, b2: int) -> tuple[int, int, int, int]:
    """Memo key of a branch state: U and the blocked-edge masks inside U,
    sorted so that the six color permutations of a state share one key."""
    return (unc, *sorted((b0 & unc, b1 & unc, b2 & unc)))


def three_edge_color(g: MultiGraph) -> Optional[EdgeColoring3]:
    """First proper 3-edge-coloring in backtracking order, or None.

    Color permutations map proper colorings to proper colorings, so the
    three edges at g.edges[0][0] are fixed to colors 0, 1, 2 in identifier
    order before the search.  Each step then branches on the uncolored edge
    with the fewest free colors, ties going to the lowest identifier, and
    tries its free colors in ascending order.  The first coloring this
    depth-first search completes is returned, so the answer is
    deterministic.  A loop makes a proper coloring impossible.  Parallel
    edges are fine.

    The state is four edge masks: U, the uncolored edges, and Bc, the
    edges sharing an endpoint with an edge of color c (c is free at e in U
    exactly when e is not in Bc).  Coloring e with c is U ^= 1 << e and
    Bc |= near[e], the incident edges of both endpoints, parallel edges
    included.  The step takes the lowest edge of tight = U & (B0&B1 |
    B0&B2 | B1&B2), whose edges have at most one free color (none means
    backtrack, one a forced move); else the lowest edge of U & (B0|B1|B2),
    with two; else the lowest edge of U.  A trail entry keeps the edge,
    its colors not tried yet and the masks from before it was colored;
    undoing restores them and sets the edge's bit in U again.

    The search remembers the branch states (no tight edge) it has proved
    dead, keyed by _dead_key: U and the sorted masks B0 & U, B1 & U,
    B2 & U.  The key is sound: the selection and every later step read the
    masks only inside U, so whether a completion exists depends on U and
    the masks restricted to it alone; and a color permutation permutes the
    three masks and keeps whether a completion exists.  Once every color of
    a branch has been undone its key joins the failed set, and a later
    branch node with the same key backtracks at once.  Only states without
    a completion are cut and the order is untouched, so the first coloring
    found is the one the search without the set would find.
    """
    for v in range(g.n):
        if g.degree(v) != 3:
            raise PreconditionError(
                f"vertex {v} has degree {g.degree(v)}; 3-edge-coloring needs a 3-regular graph"
            )
    if g.loop_mask():
        return None
    if not g.m:
        return ()
    vm = g.vertex_masks
    near = [vm[u] | vm[v] for u, v in g.edges]
    colors = [0] * g.m
    e0, e1, e2 = g.incident(g.edges[0][0])
    colors[e1], colors[e2] = 1, 2
    unc = (1 << g.m) - 1 ^ (1 << e0 | 1 << e1 | 1 << e2)
    b0, b1, b2 = near[e0], near[e1], near[e2]
    failed: set[tuple[int, int, int, int]] = set()
    # (edge, colors not tried yet, branch key or None, B0, B1, B2 before)
    trail: list[tuple[int, int, Optional[tuple[int, int, int, int]], int, int, int]] = []
    while unc:
        tight = unc & (b0 & b1 | (b0 | b1) & b2)
        key = None
        if tight:  # at most one free color
            bit = tight & -tight
            rest = 1 if not b0 & bit else 2 if not b1 & bit else 4 if not b2 & bit else 0
        else:  # two free colors, or three if nothing is blocked
            pick = unc & (b0 | b1 | b2) or unc
            bit = pick & -pick
            rest = 6 if b0 & bit else 5 if b1 & bit else 3 if b2 & bit else 7
            key = _dead_key(unc, b0, b1, b2)
            if key in failed:
                rest = 0  # a known dead end: backtrack at once
        if rest:
            e = bit.bit_length() - 1
        else:
            # Undo until an edge on the trail has a color left to try.
            while True:
                if not trail:
                    return None
                e, rest, key, b0, b1, b2 = trail.pop()
                bit = 1 << e
                unc |= bit
                if rest:
                    break
                if key is not None:
                    failed.add(key)
        low = rest & -rest
        trail.append((e, rest ^ low, key, b0, b1, b2))
        unc ^= bit
        colors[e] = low >> 1
        if low == 1:
            b0 |= near[e]
        elif low == 2:
            b1 |= near[e]
        else:
            b2 |= near[e]
    return tuple(colors)


def _component_subgraphs(g: MultiGraph):
    """Yield (subgraph, edge id map back to g) per connected component."""
    for comp in components(g):
        vmap = {v: i for i, v in enumerate(comp)}
        edge_ids = []
        edges = []
        for e, (u, v) in enumerate(g.edges):
            if u in vmap:
                edge_ids.append(e)
                edges.append((vmap[u], vmap[v]))
        yield MultiGraph(len(comp), edges), edge_ids


def _check_flow_host(g: MultiGraph) -> None:
    for v in range(g.n):
        if g.degree(v) not in (2, 3):
            raise PreconditionError(
                f"vertex {v} has degree {g.degree(v)}; flow decision needs degrees 2 or 3"
            )


def find_nz4flow(g: MultiGraph) -> Optional[Flow4]:
    """Construct a nowhere-zero 4-flow on g (degrees 2 and 3), or None.

    Chain: a bridge rules it out; components that are plain circuits always
    admit one; everything else is suppressed to a 3-regular graph, colored
    per component, and the colors are turned into Klein values and lifted
    along the suppression paths.
    """
    _check_flow_host(g)
    if bridges(g).mask:
        return None
    smap = suppress_degree2(g)
    suppressed = smap.suppressed_graph
    colors = [-1] * suppressed.m
    for sub, edge_ids in _component_subgraphs(suppressed):
        col = three_edge_color(sub)
        if col is None:
            return None
        for local, e in enumerate(edge_ids):
            colors[e] = col[local]
    return lift_flow(coloring_to_flow(suppressed, tuple(colors)), smap, g)


def has_nz4flow(g: MultiGraph) -> bool:
    """Decide whether g (degrees 2 and 3) admits a nowhere-zero 4-flow."""
    return find_nz4flow(g) is not None


def coloring_to_flow(g: MultiGraph, coloring: EdgeColoring3) -> Flow4:
    """Proper 3-edge-coloring to nowhere-zero 4-flow: colors 0, 1, 2 become
    the distinct Klein values 1, 2, 3, which XOR to zero at every vertex of
    a 3-regular graph."""
    if len(coloring) != g.m:
        raise PreconditionError("coloring length does not match the edge count")
    for v in range(g.n):
        seen = 0
        for e in g.incident(v):
            if g.is_loop(e):
                seen = 8  # a loop can never be properly colored
                break
            bit = 1 << coloring[e]
            if seen & bit:
                seen = 8
                break
            seen |= bit
        if seen == 8:
            raise PreconditionError(f"coloring is not proper at vertex {v}")
    return Flow4(g, tuple(c + 1 for c in coloring))


def lift_flow(flow: Flow4, smap: SuppressionMap, g: MultiGraph) -> Flow4:
    """Transport a flow on the suppressed graph back to the original: every
    edge of a suppression path inherits the suppressed edge's value, and
    circuit components get the constant value 1."""
    if flow.host is not smap.suppressed_graph:
        raise ValueError("flow does not live on the suppression's graph")
    values = [0] * g.m
    for e, path in enumerate(smap.path_of):
        for orig in path:
            values[orig] = flow.values[e]
    for circ in smap.circuit_components:
        for e in circ:
            values[e] = 1
    lifted = Flow4(g, tuple(values))
    if not verify_flow(g, lifted):
        raise InvariantViolationError("lifted flow fails verification")
    return lifted


def verify_flow(g: MultiGraph, flow: Flow4) -> bool:
    """Check value range and conservation (XOR of non-loop incident values
    vanishes at every vertex; a loop contributes its value twice, i.e. 0)."""
    if flow.host is not g:
        raise ValueError("flow does not belong to the given graph")
    if len(flow.values) != g.m:
        return False
    if any(val not in (1, 2, 3) for val in flow.values):
        return False
    for v in range(g.n):
        acc = 0
        for e in g.incident(v):
            if not g.is_loop(e):
                acc ^= flow.values[e]
        if acc:
            return False
    return True

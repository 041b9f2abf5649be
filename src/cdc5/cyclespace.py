"""GF(2) cycle-space algebra over edge-set bit masks.

The cycle space of a graph is spanned by the fundamental cycles of any
spanning forest; its elements are exactly the even subgraphs (every vertex
incident to 0 or 2 member edges on the subcubic hosts this package works
with).  Loops are excluded throughout: a loop is not part of any 2-regular
subgraph, so loop edges never appear in basis vectors, and no element of
the space holds one.  The basis used is graphs.spanning_forest(g).cycles,
one fundamental cycle per chord, so dim = m - #loops - n + #components.
Its users read only the span, through reduced_echelon, whose form is the
same for every basis of a space.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import CapacityError
from .graphs import MultiGraph, mask_ids, spanning_forest, vertex_faults

DIM_GUARD = 16  # the default bound on the cycle-space dimension, for every caller


def check_guard(dim: int, guard: int) -> None:
    """Raise CapacityError when the cycle-space dimension dim exceeds guard:
    listing the whole space costs 2^dim."""
    if dim > guard:
        raise CapacityError(f"cycle-space dimension {dim} exceeds enumeration guard {guard}")


def is_even_subgraph(g: MultiGraph, mask: int) -> bool:
    """True iff the edge mask has no loop and every vertex meets 0 or 2 of
    its edges; ValueError when it is not a mask over g's edges."""
    if mask < 0 or mask >> g.m:
        raise ValueError(f"mask {mask:#x} outside the graph's edge range (m={g.m})")
    odd, _, crowded = vertex_faults(g, [mask])
    return not odd | crowded


def reduced_echelon(vectors: Iterable[int]) -> dict[int, int]:
    """Reduced echelon form of the span of the given masks, with lowest-bit
    pivots, as {pivot bit: row}.  Each row's lowest bit is its pivot, and no
    other row holds that bit.  So a mask x lies in the span exactly when it
    equals the sum of the rows whose pivots it holds.  Zero, duplicate and
    dependent vectors add nothing; the input is not modified."""
    rows: dict[int, int] = {}
    for vec in vectors:
        for pivot, row in rows.items():
            if vec >> pivot & 1:
                vec ^= row
        if not vec:
            continue
        pivot = (vec & -vec).bit_length() - 1
        for other, row in rows.items():
            if row >> pivot & 1:
                rows[other] = row ^ vec
        rows[pivot] = vec
    return rows


def canonical_masks(vectors: Sequence[int]) -> list[int]:
    """Every mask of span(vectors), each once, in canonical order: by size,
    then by ascending edge-id tuple.

    No sort key on edge ids is needed.  The vectors are first brought to
    reduced echelon form with lowest-bit pivots (each row's lowest edge is
    its pivot, and no other row holds that edge).  Two members then differ
    first, counting edges upwards, at the pivot of their lowest-pivot
    differing row, and the member holding that edge comes first among sets
    of equal size.  So doubling the list from the highest pivot down,
    members with the row before members without, lists the span in edge-id
    order, and one stable sort by size finishes it.  Zero, duplicate and
    dependent vectors add nothing; the input is not modified.
    """
    rows = reduced_echelon(vectors)
    out = [0]
    for pivot in sorted(rows, reverse=True):
        row = rows[pivot]
        out = [x ^ row for x in out] + out
    out.sort(key=int.bit_count)
    return out


class EvenLayers:
    """The circuits of a graph one length at a time, shortest first, each
    length in canonical order (ascending edge-id tuple): the short end of
    the canonical order of its even subgraphs.

    Every even subgraph is an edge-disjoint union of circuits (Veblen),
    and each circuit has at least girth edges, so an even subgraph with
    fewer edges than twice the girth is a single circuit.  Below that
    size a layer is therefore every even subgraph of its size; the girth
    is the size of the first nonempty layer (m + 1 until one is found).
    A layer is found by a depth-first search from each circuit's lowest
    vertex, pruned by the distance back to it; parallel edges give
    2-circuits.  `paths` counts the paths the last search visited, the
    measure of what the next length will cost at least."""

    def __init__(self, g: MultiGraph):
        self.g = g
        self.size = 0  # the length of the last layer built
        self.girth = g.m + 1
        self.paths = 0
        self._adjacent = [[(e, g.other_end(e, v)) for e in g.incident(v)] for v in range(g.n)]
        self._distances = [self._distances_from(s) for s in range(g.n)]

    def next_layer(self, check_time: Callable[[], None] = lambda: None) -> list[int]:
        """Masks of the circuits with self.size + 1 edges, in canonical
        order.  A circuit is found from its lowest vertex s, through
        vertices above s only, leaving s by the lower of its two edges at
        s.  check_time is called as the layer is built and may raise to
        stop; a stopped layer leaves the state as it was."""
        size = self.size + 1
        adjacent = self._adjacent
        layer: list[int] = []
        paths = 0

        def extend(s, dist, first, v, depth, edges, verts):
            nonlocal paths
            paths += 1
            for e, w in adjacent[v]:
                if w == s:
                    if depth + 1 == size and e > first and not edges >> e & 1:
                        layer.append(edges | 1 << e)
                elif w > s and not verts >> w & 1 and depth + 1 + dist[w] <= size:
                    extend(s, dist, first, w, depth + 1, edges | 1 << e, verts | 1 << w)

        for s in range(self.g.n):
            check_time()
            dist = self._distances[s]
            for e, w in adjacent[s]:
                if w > s and 1 + dist[w] <= size:
                    extend(s, dist, e, w, 1, 1 << e, 1 << s | 1 << w)
        # Among sets of one size, the one holding the lowest edge where two
        # differ comes first: the larger of the masks written lowest bit first.
        digits = f"0{self.g.m}b"
        layer.sort(key=lambda x: format(x, digits)[::-1], reverse=True)
        if layer:
            self.girth = min(self.girth, size)
        self.size, self.paths = size, paths
        return layer

    def _distances_from(self, s: int) -> list[int]:
        """Breadth-first distances from s through vertices s and above; the
        others, and those out of reach, get a distance no circuit reaches."""
        far = self.g.m + 1
        dist = [far] * self.g.n
        dist[s] = 0
        queue = [s]
        for v in queue:
            for _, w in self._adjacent[v]:
                if w > s and dist[w] == far:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist


class Circuit(int):
    """A circuit's edge mask, as enumerate_circuits lists it; ids() gives
    its edge ids in ascending order."""

    __slots__ = ()

    def ids(self) -> tuple[int, ...]:
        return mask_ids(self)


def enumerate_circuits(g: MultiGraph, guard: int = DIM_GUARD) -> list[Circuit]:
    """The edge masks of all circuits of g, sorted by cardinality then
    ascending edge-id tuple; CapacityError when the cycle-space dimension
    exceeds guard.

    The even subgraphs are listed in that order, and one is kept when a
    walk along it closes a circuit through all its edges: the walk leaves
    its lowest edge's first endpoint, and at each vertex it reaches it
    takes the one other member edge there.  A vertex with more member
    edges (hosts of higher degree) stops it."""
    cycles = spanning_forest(g).cycles
    check_guard(len(cycles), guard)
    vm, ends = g.vertex_masks, g.edges
    out = []
    for mask in canonical_masks(cycles):
        if not mask:
            continue
        low = mask & -mask
        start, at = ends[low.bit_length() - 1]
        edge, steps = low, 1
        while at != start:
            edge = mask & vm[at] ^ edge  # the member edges at `at` but the one walked in
            if edge & (edge - 1):
                break
            u, v = ends[edge.bit_length() - 1]
            at = v if u == at else u
            steps += 1
        else:  # the walk met start only at its ends, so no other edge is there
            if steps == mask.bit_count():
                out.append(Circuit(mask))
    return out

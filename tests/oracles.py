"""Slow reference implementations used only by the tests.

Everything here recomputes results from first principles (explicit subset
enumeration, remove-an-edge reachability, exhaustive color assignment), so
agreement with the package is a meaningful check and not a tautology.  Most
of it is exponential in the edge count; callers keep the inputs small.  The
cover-to-flow translation (cdc_to_flow), the witness extraction from a
cover (extract_witness) and the value-by-value flow check (verify_flow) are
linear; the tests use them to read a cover back as a flow and as a
(M, C1, C2) triple, and to check the package's flow planes against flow
values on G - M built as a graph of its own (minus).  The per-mask vertex
loops (loop_is_even_subgraph, loop_is_matching, loop_is_flow) are the
references for graphs.vertex_faults, and the edge-by-edge cover check
(loop_verify_cdc) for the cover tally of the certificate check.
trail_three_edge_color is the 3-edge-colorer as it was when it pushed a
trail entry per colored edge; reference_three_edge_color is the one
before it, without a memo.  Both color a graph as one search; the engine
colors each component on its own, and component_subgraphs gives the
copies of the components whose colorings it must reproduce.  The exhaustive double-cover search
(brute_force_cdc), the Gray-code listing of the cycle space
(enumerate_even_subgraphs) and petersen_graph are used only by the tests
and scripts, so they live here, not in cdc5.  isaacs_dot builds snark
products, and two_factor_cover decides whether a 2-factor lies in a
5-cycle double cover by labelling the matching it leaves, with no code of
the cycle space, flow, cover or search layers.
"""

import random
from bisect import insort
from itertools import product
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from cdc5 import (
    CapacityError,
    InvariantViolationError,
    MultiGraph,
    PreconditionError,
    canonical_masks,
    is_even_subgraph,
    is_flow,
    spanning_forest,
)
from cdc5.cover import replayed_planes
from cdc5.cyclespace import check_guard
from cdc5.flows import _dead_key
from cdc5.graphs import mask_ids


def mask_of(ids: Iterable[int]) -> int:
    """The edge mask holding the given ids."""
    mask = 0
    for e in ids:
        mask |= 1 << e
    return mask


def edge_mask(g: MultiGraph, ids: Iterable[int]) -> int:
    """The mask of the given edge ids of g; ValueError for an id outside
    0..m-1."""
    ids = list(ids)
    for e in ids:
        if not 0 <= e < g.m:
            raise ValueError(f"edge id {e} out of range (m={g.m})")
    return mask_of(ids)


def even_subsets(g: MultiGraph) -> set[frozenset[int]]:
    """All edge subsets meeting every vertex an even number of times
    (loops count twice), by scanning all 2^m subsets."""
    out = set()
    for mask in range(1 << g.m):
        ids = [e for e in range(g.m) if mask >> e & 1]
        deg = [0] * g.n
        for e in ids:
            u, v = g.endpoints(e)
            deg[u] += 1
            deg[v] += 1
        if all(d % 2 == 0 for d in deg):
            out.add(frozenset(ids))
    return out


def enumerate_even_subgraphs(g: MultiGraph, guard: int = 24) -> Iterator[int]:
    """Yield all 2^dim cycle-space elements of g, as edge masks.

    Order is deterministic: Gray-code over the coefficients of the basis
    spanning_forest(g).cycles, so element k differs from element k-1 by the
    basis vector indexed by the lowest set bit of k.  The empty set comes
    first.
    """
    masks = spanning_forest(g).cycles
    check_guard(len(masks), guard)
    cur = 0
    yield 0
    for k in range(1, 1 << len(masks)):
        cur ^= masks[(k & -k).bit_length() - 1]
        yield cur


def circuit_subsets(g: MultiGraph) -> set[frozenset[int]]:
    """All connected 2-regular edge subsets, by scanning all 2^m subsets."""
    out = set()
    for mask in range(1 << g.m):
        ids = [e for e in range(g.m) if mask >> e & 1]
        if not ids:
            continue
        deg: dict[int, int] = {}
        adj: dict[int, list[int]] = {}
        for e in ids:
            u, v = g.endpoints(e)
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        if any(d != 2 for d in deg.values()):
            continue
        start = next(iter(adj))
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(adj):
            out.add(frozenset(ids))
    return out


def brute_bridges(g: MultiGraph) -> list[int]:
    """Edge ids whose removal increases the component count."""

    def component_count(skip: int) -> int:
        seen = [False] * g.n
        count = 0
        for root in range(g.n):
            if seen[root]:
                continue
            count += 1
            seen[root] = True
            stack = [root]
            while stack:
                v = stack.pop()
                for e in g.incident(v):
                    if e == skip:
                        continue
                    w = g.other_end(e, v)
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
        return count

    base = component_count(-1)
    return [
        e for e in range(g.m) if not g.loop_mask() >> e & 1 and component_count(e) > base
    ]


def edge_set_connected(g: MultiGraph, s: int) -> bool:
    """True iff the edges of mask s induce a connected subgraph (vacuously
    for ∅), by a breadth-first search from the lowest edge's first endpoint."""
    if not s:
        return True
    first = (s & -s).bit_length() - 1
    root = g.endpoints(first)[0]
    seen_edges = 0
    seen_vertices = {root}
    queue = [root]
    while queue:
        v = queue.pop()
        for e in g.incident(v):
            if not s >> e & 1:
                continue
            seen_edges |= 1 << e
            w = g.other_end(e, v)
            if w not in seen_vertices:
                seen_vertices.add(w)
                queue.append(w)
    return seen_edges == s


def is_circuit(g: MultiGraph, s: int) -> bool:
    """True iff mask s is a nonempty connected even subgraph."""
    return bool(s) and is_even_subgraph(g, s) and edge_set_connected(g, s)


def filtered_circuits(g: MultiGraph, guard: int = 24) -> list[int]:
    """The circuits of g in enumerate_circuits' order, by testing every
    member of the canonical order with is_circuit (a breadth-first search
    per member)."""
    cycles = spanning_forest(g).cycles
    check_guard(len(cycles), guard)
    masks = canonical_masks(cycles)
    return [s for s in masks if is_circuit(g, s)]


def minus(g: MultiGraph, drop: int) -> tuple[MultiGraph, tuple[int, ...]]:
    """G - drop (a mask) as a graph of its own, its edges renumbered densely
    in order, and the id in g of each of its edges."""
    kept = tuple(e for e in range(g.m) if not drop >> e & 1)
    return MultiGraph(g.n, [g.edges[e] for e in kept]), kept


def verify_flow(g: MultiGraph, values: Sequence[int]) -> bool:
    """Whether Klein-group edge values (indexed by edge id) form a
    nowhere-zero 4-flow: one value in 1, 2, 3 per edge, and the XOR of the
    values of the non-loop edges at every vertex vanishes (a loop adds its
    value twice, i.e. 0)."""
    if len(values) != g.m:
        return False
    if any(val not in (1, 2, 3) for val in values):
        return False
    for v in range(g.n):
        acc = 0
        for e in g.incident(v):
            if not g.loop_mask() >> e & 1:
                acc ^= values[e]
        if acc:
            return False
    return True


def loop_is_even_subgraph(g: MultiGraph, mask: int) -> bool:
    """No loop, and every vertex meets 0 or 2 edges of mask, vertex by
    vertex."""
    if mask & g.loop_mask():
        return False
    return all((mask & vm).bit_count() in (0, 2) for vm in g.vertex_masks)


def loop_is_matching(g: MultiGraph, mask: int) -> bool:
    """No loop, and every vertex meets at most one edge of mask."""
    if mask & g.loop_mask():
        return False
    return all((mask & vm).bit_count() <= 1 for vm in g.vertex_masks)


def loop_is_flow(g: MultiGraph, drop: int, s1: int, s2: int) -> bool:
    """s1 | s2 is every edge outside drop, and both meet every vertex in an
    even number of edges, loops aside."""
    if s1 | s2 != (1 << g.m) - 1 & ~drop:
        return False
    s1 &= ~g.loop_mask()
    s2 &= ~g.loop_mask()
    return not any((s1 & vm).bit_count() & 1 or (s2 & vm).bit_count() & 1 for vm in g.vertex_masks)


def replays_as_flow(
    g: MultiGraph, c1: int, c2: int, matching: int, elements: Sequence[int]
) -> bool:
    """Whether a cover (edge masks) is its own witness for the flow
    condition on G - M, as the certificate check decides it: the planes
    replayed_planes reads off it are a flow of G - M."""
    planes = replayed_planes(g, c1, c2, matching, elements)
    return planes is not None and is_flow(g, matching, *planes)


class CoverReport(NamedTuple):
    """What loop_verify_cdc finds in a cover."""

    valid: bool
    empty: tuple[int, ...]  # indices of empty elements
    non_even: tuple[int, ...]  # indices of elements that are no even subgraph
    coverage: tuple[int, ...]  # per-edge cover counts
    coverage_errors: tuple[int, ...]  # edge ids covered other than twice


def loop_verify_cdc(g: MultiGraph, elements: Sequence[int]) -> CoverReport:
    """Check the double-cover property of edge masks edge by edge and vertex
    by vertex: every element a nonempty even subgraph, every edge covered
    exactly twice (repeats count).  The reference for the bit-parallel
    tally of the certificate check."""
    if any(el < 0 or el >> g.m for el in elements):
        raise ValueError("element names an edge the graph lacks")
    counts = [0] * g.m
    for el in elements:
        for e in range(g.m):
            counts[e] += el >> e & 1
    empty = tuple(i for i, el in enumerate(elements) if not el)
    non_even = tuple(i for i, el in enumerate(elements) if not loop_is_even_subgraph(g, el))
    errors = tuple(e for e, c in enumerate(counts) if c != 2)
    valid = not empty and not non_even and not errors
    return CoverReport(valid, empty, non_even, tuple(counts), errors)


def plane_values(g: MultiGraph, planes: tuple[int, int]) -> tuple[int, ...]:
    """The Klein value of each edge of g under bit planes (S1, S2)."""
    s1, s2 = planes
    return tuple((s1 >> e & 1) | (s2 >> e & 1) << 1 for e in range(g.m))


def cdc_to_flow(g: MultiGraph, elements: Sequence[int]) -> tuple[int, ...]:
    """Turn a CDC with at most 4 elements (edge masks) into the values of a
    nowhere-zero 4-flow.

    The elements are padded to four with empty sets and assigned the Klein
    values 0, 1, 2, 3 in order; each edge lies in exactly two elements and
    takes the XOR of their values, which is nonzero because the values are
    distinct.
    """
    if len(elements) > 4:
        raise PreconditionError(f"need at most 4 elements, got {len(elements)}")
    counts = loop_verify_cdc(g, elements).coverage
    bad = [e for e, c in enumerate(counts) if c != 2]
    if bad:
        raise PreconditionError(f"not a double cover: edges {bad} have wrong coverage")
    values = [0] * g.m
    for value, s in enumerate(elements):
        for e in range(g.m):
            values[e] ^= value * (s >> e & 1)
    if not verify_flow(g, values):
        raise InvariantViolationError("flow derived from a CDC fails verification")
    return tuple(values)


def extract_witness(g: MultiGraph, elements: Sequence[int], c0: int) -> tuple[int, int, int]:
    """From a ≤5-element CDC with an element containing c0, all edge masks,
    recover the triple (M, C1, C2): C1 the containing element, C2 the first
    other element (empty if there is none), M their intersection.

    In a valid CDC of a cubic graph two elements always intersect in a
    matching (a second shared edge at a vertex would leave the third edge
    there uncoverable), and the remaining elements together with C1 ^ C2
    double-cover G - M, which therefore has a nowhere-zero 4-flow.  Both
    facts are re-checked, the second with replays_as_flow; a failure means
    the inputs were inconsistent in a way loop_verify_cdc cannot see, or a
    genuine bug.
    """
    elements = tuple(elements)
    if not g.is_cubic():
        raise PreconditionError("host graph must be cubic")
    if len(elements) > 5:
        raise PreconditionError(f"need at most 5 elements, got {len(elements)}")
    if not loop_verify_cdc(g, elements).valid:
        raise PreconditionError("not a valid cycle double cover")
    idx = next((i for i, el in enumerate(elements) if c0 & ~el == 0), None)
    if idx is None:
        raise PreconditionError("no element contains the prescribed subgraph")
    c1 = elements[idx]
    rest = [el for i, el in enumerate(elements) if i != idx]
    c2 = rest[0] if rest else 0
    m_set = c1 & c2
    if not loop_is_matching(g, m_set):
        raise InvariantViolationError("element intersection is not a matching")

    if not replays_as_flow(g, c1, c2, m_set, elements):
        raise InvariantViolationError("residual cover is not a double cover of G - M")
    return m_set, c1, c2


def brute_force_cdc(
    g: MultiGraph, c0: int, max_elements: int = 5, guard: int = 7
) -> Optional[tuple[int, ...]]:
    """Exhaustively search for a CDC of at most max_elements nonempty even
    subgraphs, at least one containing c0; its elements as edge masks, or
    None.

    Candidates are all nonempty even subgraphs ordered by (size, edge ids);
    covers are multisets explored as nondecreasing index tuples in
    lexicographic order, so the first hit is the lexicographically least
    success.  Pruned by per-edge coverage bounds only, so the outcome is an
    independent ground truth for the constructive search.  Exponential in
    the cycle-space dimension, which guard bounds.
    """
    dim = len(spanning_forest(g).cycles)
    if dim > guard:
        raise CapacityError(f"cycle-space dimension {dim} exceeds guard {guard}")
    masks = sorted(
        (s for s in enumerate_even_subgraphs(g, guard) if s),
        key=lambda s: (s.bit_count(), mask_ids(s)),
    )
    full = (1 << g.m) - 1

    # Highest candidate index covering each edge: once the search position
    # passes it, a still-deficient edge can never be completed.
    last_cover = [-1] * g.m
    for i, mask in enumerate(masks):
        m = mask
        while m:
            low = m & -m
            m ^= low
            last_cover[low.bit_length() - 1] = i
    last_superset = -1
    for i, mask in enumerate(masks):
        if mask & c0 == c0:
            last_superset = i

    chosen: list[int] = []

    def deficient_limit(once: int, none: int) -> int:
        """Max index still usable, or -1 when some edge is already dead."""
        limit = len(masks) - 1
        need = once | none
        while need:
            low = need & -need
            need ^= low
            limit = min(limit, last_cover[low.bit_length() - 1])
            if limit < 0:
                return -1
        return limit

    def search(start: int, once: int, twice: int, have_superset: bool) -> bool:
        # once/twice: masks of edges covered exactly one/two times so far.
        if twice == full and have_superset:
            return True
        slots = max_elements - len(chosen)
        if slots == 0:
            return False
        none_mask = full & ~(once | twice)
        if none_mask and slots < 2:
            return False
        limit = deficient_limit(once, none_mask)
        if limit < start:
            return False
        if not have_superset and last_superset < start:
            return False
        for j in range(start, limit + 1):
            mask = masks[j]
            if mask & twice:
                continue
            if not have_superset and slots == 1 and mask & c0 != c0:
                continue
            new_twice = twice | (once & mask)
            new_once = (once | mask) & ~new_twice
            chosen.append(j)
            if search(
                j, new_once, new_twice, have_superset or mask & c0 == c0
            ):
                return True
            chosen.pop()
        return False

    trivially_contained = c0 == 0
    if full == 0 and trivially_contained:
        return ()
    if search(0, 0, 0, trivially_contained):
        return tuple(masks[j] for j in chosen)
    return None


def two_factor_cover(g: MultiGraph, factor: int) -> bool:
    """Whether the 2-factor `factor` of a simple cubic graph g lies in a
    cycle double cover of at most five elements, decided by labelling edges
    and sharing no code with the engine; ValueError when factor is not a
    2-factor of a cubic g.

    An element containing a 2-factor F is F itself, so the other elements,
    at most four, cover each edge of F once and each edge of the perfect
    matching E - F twice.  Label each matching edge with the 2-subset of
    {1..4} of the elements that hold it, and each edge of F with the one
    element that holds it.  Every element is even exactly when, along each
    cycle v_0 ... v_{k-1} of F, with x_i the label of v_i v_{i+1}, the
    labels {x_{i-1}, x_i} at v_i are the pair of v_i's matching edge.  The
    search walks the cycles of F one after another.  It picks x_{-1} at the
    start of each cycle, a pair for each matching edge where the walk first
    meets it, and checks that pair where the walk meets the edge's other
    end.  The four labels are interchangeable, so a label not used before
    is always the least unused one (order of first use).
    """
    cycle_nbrs: list[list[int]] = [[] for _ in range(g.n)]
    matched: list[list[int]] = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        if factor >> e & 1:
            cycle_nbrs[u].append(v)
            cycle_nbrs[v].append(u)
        else:
            matched[u].append(e)
            matched[v].append(e)
    if any(len(cycle_nbrs[v]) != 2 or len(matched[v]) != 1 for v in range(g.n)):
        raise ValueError("not a 2-factor of a cubic graph")
    matching_edge = [es[0] for es in matched]
    partner = [sum(g.edges[e]) - v for v, e in enumerate(matching_edge)]
    cycles = []
    seen: set[int] = set()
    for start in range(g.n):
        prev, v, cycle = -1, start, []
        while v not in seen:
            seen.add(v)
            cycle.append(v)
            a, b = cycle_nbrs[v]
            prev, v = v, (b if a == prev else a)
        if cycle:
            cycles.append(cycle)

    def cost(order: list[int]) -> tuple[int, int]:
        """The most matching edges met once at any point of order, then 3 to
        their number summed over order: the work the search below takes, as
        it branches where it meets a matching edge first and prunes where it
        meets its other end."""
        met: set[int] = set()
        most = total = opened = 0
        for v in order:
            met.add(v)
            opened += -1 if partner[v] in met else 1
            most, total = max(most, opened), total + 3**opened
        return most, total

    # Any walk order is exact; taking next the cycle and the turn of it that
    # keep the fewest matching edges open only makes it fast.
    walk: list[int] = []  # the vertices of F, cycle after cycle
    starts: set[int] = set()  # the positions in walk where a cycle starts
    while cycles:
        turns = [
            (c[r:] + c[:r], cycle) for cycle in cycles for c in (cycle, cycle[::-1])
            for r in range(len(c))
        ]
        turn, cycle = min(turns, key=lambda pick: cost(walk + pick[0]))
        starts.add(len(walk))
        walk += turn
        cycles.remove(cycle)
    ends = {i - 1 for i in starts if i} | {len(walk) - 1}
    pair: dict[int, tuple[int, int]] = {}  # matching edge -> its two labels

    def labels(used: int) -> range:
        """The labels a choice may take when labels 1..used are in use."""
        return range(1, min(used + 1, 4) + 1)

    def enter(i: int, y: int, start: int, used: int) -> bool:
        """Extend the labelling at walk[i], entered by an edge labelled y."""
        e = matching_edge[walk[i]]
        if e in pair:
            a, b = pair[e]
            return y in (a, b) and leave(i, b if a == y else a, start, used)
        for z in labels(used):
            if z != y:
                pair[e] = (y, z)
                if leave(i, z, start, max(used, z)):
                    return True
                del pair[e]
        return False

    def leave(i: int, x: int, start: int, used: int) -> bool:
        """Go on from walk[i], left by an edge labelled x."""
        if i in ends and x != start:
            return False
        i += 1
        if i == len(walk):
            return True
        if i in starts:
            return any(enter(i, s, s, max(used, s)) for s in labels(used))
        return enter(i, x, start, used)

    return not walk or enter(0, 1, 1, 1)


def isaacs_dot(g: MultiGraph, h: MultiGraph) -> MultiGraph:
    """The Isaacs dot product g . h of two simple cubic graphs.  Let xy be
    g's first edge, ab h's first edge, and cd h's first edge that has no end
    in a, b or their neighbours.  Delete x and y from g, and the edges ab
    and cd from h.  Then join x's other two neighbours, in the order of
    their edges' ids, to a and to b, and y's to c and to d.  The vertices of
    g other than x and y keep their order and come first, then h's.  The
    edges are g's that miss x and y, then h's other than ab and cd, each in
    their order, and then the four joins.  The product of two snarks is a
    snark."""
    x, y = g.edges[0]
    a, b = h.edges[0]
    near = {a, b} | {w for u, v in h.edges if {u, v} & {a, b} for w in (u, v)}
    cd = next(e for e, (u, v) in enumerate(h.edges) if not {u, v} & near)
    c, d = h.edges[cd]
    keep = [v for v in range(g.n) if v not in (x, y)]
    new = {v: i for i, v in enumerate(keep)}
    shift = len(keep)
    edges = [(new[u], new[v]) for u, v in g.edges if not {u, v} & {x, y}]
    edges += [(u + shift, v + shift) for e, (u, v) in enumerate(h.edges) if e not in (0, cd)]
    joins = [new[u if v == z else v] for z in (x, y) for u, v in g.edges[1:] if z in (u, v)]
    edges += [(w, end + shift) for w, end in zip(joins, (a, b, c, d))]
    return MultiGraph(shift + h.n, edges)


def graph6_edges(line: str) -> list[tuple[int, int]]:
    """Edges of a short-form graph6 line, found by testing the payload bit
    of every vertex pair in column-major upper-triangle order."""
    n = ord(line[0]) - 63
    bits = "".join(format(ord(ch) - 63, "06b") for ch in line[1:])
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return [pair for pair, bit in zip(pairs, bits) if bit == "1"]


def graph6_line(n: int, pairs: set[tuple[int, int]]) -> str:
    """The short-form graph6 line of the pairs (u, v), u < v, on n
    vertices: one bit per vertex pair in column-major upper-triangle order,
    padded with zeros to whole six-bit characters."""
    bits = "".join("1" if (u, v) in pairs else "0" for v in range(1, n) for u in range(v))
    bits += "0" * (-len(bits) % 6)
    return chr(63 + n) + "".join(chr(63 + int(bits[i:i + 6], 2)) for i in range(0, len(bits), 6))


def three_colorable(g: MultiGraph) -> bool:
    """Whether a proper 3-edge-coloring exists, by trying all 3^m
    assignments.  The host must be loop-free (a loop meets its vertex
    twice, which the per-vertex distinctness test below cannot see)."""
    assert not g.loop_mask(), "oracle does not support loops"
    incident = [g.incident(v) for v in range(g.n)]
    for colors in product((0, 1, 2), repeat=g.m):
        if all(len({colors[e] for e in inc}) == len(inc) for inc in incident):
            return True
    return False


_POPCOUNT3 = (0, 1, 1, 2, 1, 2, 2, 3)  # free colors in a 3-bit mask


def reference_three_edge_color(g: MultiGraph) -> Optional[tuple[int, ...]]:
    """The 3-edge-colorer as it was before it remembered failed states,
    kept verbatim: the same fixed first vertex, branching order and color
    order, with no memo.  The engine must return the same first coloring."""
    for v in range(g.n):
        if g.degree(v) != 3:
            raise PreconditionError(
                f"vertex {v} has degree {g.degree(v)}; 3-edge-coloring needs a 3-regular graph"
            )
    if g.loop_mask():
        return None
    m = g.m
    if m == 0:
        return ()
    endpoints = g.edges
    colors = [-1] * m
    used = [0] * g.n
    for c, e in enumerate(g.incident(endpoints[0][0])):
        u, v = endpoints[e]
        colors[e] = c
        used[u] |= 1 << c
        used[v] |= 1 << c
    uncolored = [e for e in range(m) if colors[e] < 0]  # ascending ids
    trail: list[tuple[int, int]] = []  # (edge, free colors not tried yet)
    while uncolored:
        best, best_free, fewest = -1, 0, 4
        for e in uncolored:
            u, v = endpoints[e]
            free = ~(used[u] | used[v]) & 7
            count = _POPCOUNT3[free]
            if count < fewest:
                best, best_free, fewest = e, free, count
                if count < 2:
                    break
        if fewest:
            e, rest = best, best_free
            uncolored.remove(e)
        else:
            # Undo until an edge on the trail has a color left to try.
            while True:
                if not trail:
                    return None
                e, rest = trail.pop()
                u, v = endpoints[e]
                bit = 1 << colors[e]
                used[u] ^= bit
                used[v] ^= bit
                colors[e] = -1
                if rest:
                    break
                insort(uncolored, e)
        low = rest & -rest
        trail.append((e, rest ^ low))
        u, v = endpoints[e]
        colors[e] = low.bit_length() - 1
        used[u] |= low
        used[v] |= low
    return tuple(colors)


def trail_three_edge_color(g: MultiGraph) -> Optional[tuple[int, ...]]:
    """The 3-edge-colorer as it was when every colored edge, forced or
    not, took a trail entry, kept verbatim below this paragraph.  The
    engine must return the same first coloring.

    First proper 3-edge-coloring in backtracking order, or None.

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


def component_subgraphs(g: MultiGraph) -> list[tuple[MultiGraph, list[int]]]:
    """Each component of g as a graph of its own, with the ids in g of its
    edges: its vertices numbered in the order spanning_forest(g) reached
    them, its edges kept in g's order.  Colored alone, a copy must get the
    coloring three_edge_color(g) gives its component."""
    parts = []
    for component in spanning_forest(g).components:
        new_id = {v: i for i, v in enumerate(component)}
        ids = [e for e, (u, _) in enumerate(g.edges) if u in new_id]
        edges = [(new_id[u], new_id[v]) for u, v in map(g.endpoints, ids)]
        parts.append((MultiGraph(len(component), edges), ids))
    return parts


def subdivide(g: MultiGraph, e: int, times: int = 1) -> MultiGraph:
    """Replace edge e by a path through `times` fresh vertices.  Edge ids
    are renumbered (the replaced edge's slot disappears)."""
    u, v = g.endpoints(e)
    edges = [pair for i, pair in enumerate(g.edges) if i != e]
    prev = u
    for k in range(times):
        w = g.n + k
        edges.append((prev, w))
        prev = w
    edges.append((prev, v))
    return MultiGraph(g.n + times, edges)


def complete_graph(n: int) -> MultiGraph:
    return MultiGraph(n, [(u, v) for v in range(n) for u in range(v)])


def petersen_graph() -> MultiGraph:
    """The Petersen graph in its canonical labeling: outer cycle 0..4
    (i ~ i+1 mod 5), spokes i ~ i+5, inner edges 5+i ~ 5+((i+2) mod 5)."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return MultiGraph(10, edges)


def prism_graph() -> MultiGraph:
    """Two triangles 0-1-2 and 3-4-5 joined by a perfect matching."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    return MultiGraph(6, edges)


def theta_multigraph() -> MultiGraph:
    """Two vertices joined by three parallel edges (cubic, non-simple)."""
    return MultiGraph(2, [(0, 1), (0, 1), (0, 1)])


def bridged_cubic_graph() -> MultiGraph:
    """A connected simple cubic graph on 10 vertices with exactly one
    bridge: two copies of K4 minus an edge, each with its degree-2 pair
    tied to an extra vertex, and the extra vertices joined."""

    def half(base: int) -> list[tuple[int, int]]:
        a, b, c, d, e = range(base, base + 5)
        return [(a, c), (a, d), (b, c), (b, d), (c, d), (a, e), (b, e)]

    return MultiGraph(10, half(0) + half(5) + [(4, 9)])


def bridged_cubic_multigraph() -> MultiGraph:
    """Smallest loop-free cubic graph with a bridge: two doubled-edge
    triangles joined in the middle."""
    edges = [(0, 1), (0, 1), (0, 2), (1, 2), (3, 4), (3, 4), (3, 5), (4, 5), (2, 5)]
    return MultiGraph(6, edges)



def flower_snark(k: int) -> MultiGraph:
    """The flower snark J_k on 4k vertices: claws a_i-(b_i, c_i, d_i),
    the b_i on a k-cycle, and the c_i and d_i on one 2k-cycle
    c_0..c_{k-1} d_0..d_{k-1}.  Odd k gives a snark."""

    def v(i: int, j: int) -> int:  # j = 0, 1, 2, 3 for a, b, c, d
        return 4 * (i % k) + j

    edges = []
    for i in range(k):
        edges += [(v(i, 0), v(i, 1)), (v(i, 0), v(i, 2)), (v(i, 0), v(i, 3))]
        edges.append((v(i, 1), v(i + 1, 1)))
        last = i == k - 1
        edges.append((v(i, 2), v(0, 3) if last else v(i + 1, 2)))
        edges.append((v(i, 3), v(0, 2) if last else v(i + 1, 3)))
    return MultiGraph(4 * k, edges)


def shuffled(g: MultiGraph, seed: int) -> MultiGraph:
    """g with its vertices relabelled by a seeded permutation and its edges
    renumbered in sorted endpoint order, as a graph6 reader would give it."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return MultiGraph(g.n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))


def breadth_first(g: MultiGraph, root: int, seed: int) -> MultiGraph:
    """g relabelled in breadth-first order from root, the neighbours of
    each vertex visited in a seeded random order, with its edges renumbered
    in sorted endpoint order: the labellings the decide-flowers benchmark
    hands the colorer."""
    rng = random.Random(seed)
    order, seen = [root], {root}
    for v in order:
        nbrs = [g.other_end(e, v) for e in g.incident(v)]
        rng.shuffle(nbrs)
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                order.append(w)
    perm = [0] * g.n
    for new, old in enumerate(order):
        perm[old] = new
    return MultiGraph(g.n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))


def random_cubic_multigraph(n: int, seed: int) -> MultiGraph:
    """A loopless bridgeless cubic multigraph on n vertices (n even) with at
    least one pair of parallel edges: the first random pairing of the 3n
    half-edges, drawn from the seed, that has these properties."""
    rng = random.Random(seed)
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        edges = sorted(tuple(sorted(ends[i : i + 2])) for i in range(0, 3 * n, 2))
        if any(u == v for u, v in edges) or len(set(edges)) == len(edges):
            continue
        g = MultiGraph(n, edges)
        if not brute_bridges(g):
            return g

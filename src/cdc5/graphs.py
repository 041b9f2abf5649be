"""Multigraph core: dense edge identifiers, bit-mask edge sets, graph6 I/O,
and the one spanning forest that gives the bridges, the connected
components and the fundamental cycles of a graph.

Vertices are 0..n-1.  Edges carry dense identifiers 0..m-1 in construction
order and are unordered pairs; loops and parallel edges are allowed
everywhere except graph6 output.  An edge set is an integer bit mask over
edge identifiers, at the public entry points as inside the engine, so the
GF(2) algebra is plain integer XOR.  Edge ids are never renumbered: a
subgraph such as G - M is a mask over G's own edges.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import Graph6Error, UnsupportedFormatError


class MultiGraph:
    """Immutable multigraph over vertices 0..n-1 with a dense edge list."""

    __slots__ = (
        "n", "vertex_masks", "_edges", "_incident", "_degrees", "_loop_mask", "_cubic", "_tally",
        "_forest",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        edge_list = tuple([(int(u), int(v)) for u, v in edges])
        incident = [[] for _ in range(n)]
        vertex_masks = [0] * n
        loop_mask = 0
        for e, (u, v) in enumerate(edge_list):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e} endpoint out of range: ({u}, {v})")
            bit = 1 << e
            incident[u].append(e)
            vertex_masks[u] |= bit
            if v == u:
                loop_mask |= bit
            else:
                incident[v].append(e)
                vertex_masks[v] |= bit
        # A loop is listed once at its vertex and counts twice.
        degrees = [
            len(inc) + (vm & loop_mask).bit_count() for inc, vm in zip(incident, vertex_masks)
        ]
        self.n = n
        self._edges = edge_list
        self._incident = tuple(tuple(x) for x in incident)
        self._degrees = tuple(degrees)
        self.vertex_masks = tuple(vertex_masks)  # the edges at each vertex, as masks
        self._loop_mask = loop_mask
        self._cubic = degrees.count(3) == n
        self._tally = None  # vertex_faults' tables
        self._forest = None  # spanning_forest's record

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def endpoints(self, e: int) -> tuple[int, int]:
        return self._edges[e]

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge identifiers at v; a loop appears once (but counts 2 toward degree)."""
        return self._incident[v]

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def loop_mask(self) -> int:
        return self._loop_mask

    def other_end(self, e: int, v: int) -> int:
        u, w = self._edges[e]
        return w if u == v else u

    def is_cubic(self) -> bool:
        return self._cubic

    def is_simple(self) -> bool:
        if self._loop_mask:
            return False
        seen = set()
        for u, v in self._edges:
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return False
            seen.add(key)
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiGraph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m})"


def mask_ids(mask: int) -> tuple[int, ...]:
    """The edge ids of a mask, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def vertex_faults(g: MultiGraph, masks: Sequence[int]) -> tuple[int, int, int]:
    """Bit i of odd, shared and crowded is set when masks[i], an edge mask of
    g, meets some vertex in an odd number of edges, in two or more, in more
    than two.  A loop counts four: it is in no even subgraph or matching,
    and it leaves the parity alone, as a nowhere-zero flow's planes ask.
    A mask's counts at all vertices, vertex v's in the w bits at w * v, are
    summed from g's tables, built on first use, that map each subset of six
    edge ids to its counts: a lookup per six edges, not a vertex loop."""
    if g._tally is None:
        w = max(2, (2 * max(g._degrees, default=0) + 1).bit_length())  # 2^w > a count + 1
        ends = [4 << w * u if u == v else 1 << w * u | 1 << w * v for u, v in g._edges]
        tables = []
        for shift in range(0, len(ends), 6):  # 64 entries: cheap to build, and few lookups
            table = [0]
            for end in ends[shift:shift + 6]:
                table += [t + end for t in table]
            tables.append((shift, table + [0] * (64 - len(table))))
        low = sum(1 << w * v for v in range(g.n))  # bit 0 of every field
        g._tally = tables, low, low * ((1 << w) - 2), low * ((1 << w) - 4)
    tables, low, two_up, four_up = g._tally
    odd = shared = crowded = 0
    for i, x in enumerate(masks):
        counts = 0
        for shift, table in tables:
            counts += table[x >> shift & 63]
        if counts & low:
            odd |= 1 << i
        if counts & two_up:
            shared |= 1 << i
        if counts + low & four_up:
            crowded |= 1 << i
    return odd, shared, crowded


# ---------------------------------------------------------------------------
# graph6 (short form, n <= 62)
#
# A line is the byte 63 + n and then the payload.  Pair (u, v), u < v, is
# bit i = v(v-1)/2 + u, in payload byte i // 6 under weight 32 >> i % 6,
# and each payload byte is 63 plus its six bits.  The bits past the last
# pair, the low bits of the last byte, are 0.

GRAPH6_HEADER = ">>graph6<<"
_G6_SET_BITS = tuple(tuple(j for j in range(6) if x & 32 >> j) for x in range(64))


def parse_graph6(text: str) -> MultiGraph:
    """Parse one graph6 line, laid out as the comment above says, into a
    MultiGraph.

    Edge identifiers follow the order of the bits: (0,1), (0,2), (1,2),
    (0,3), ...  Only the short form is accepted (n <= 62); malformed input
    raises Graph6Error with the byte offset of the problem.
    """
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII byte in graph6 text", offset=exc.start) from None
    if not data:
        raise Graph6Error("empty graph6 string", offset=0)
    head = data[0]
    if head == 126:
        raise UnsupportedFormatError("long-form graph6 (n > 62) is not supported")
    if not 63 <= head <= 125:
        raise Graph6Error(f"header byte {head} outside graph6 range", offset=0)
    n = head - 63
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - 1 != need:
        raise Graph6Error(
            f"expected {need} payload bytes for n={n}, got {len(data) - 1}",
            offset=min(len(data), need + 1),
        )
    edges = []
    v = 1
    first = 0  # column v's pairs are bits first .. first + v - 1
    for k in range(need):
        bits = data[k + 1] - 63
        if not 0 <= bits < 64:
            raise Graph6Error(f"payload byte {data[k + 1]} outside graph6 range", offset=k + 1)
        for j in _G6_SET_BITS[bits]:
            i = 6 * k + j
            while i >= first + v:
                first += v
                v += 1
            edges.append((i - first, v))
    pad = 6 * need - nbits
    if data[-1] - 63 & (1 << pad) - 1:
        raise Graph6Error("nonzero padding bits", offset=len(data) - 1)
    return MultiGraph(n, edges)


def write_graph6(g: MultiGraph) -> str:
    """Encode a simple graph with n <= 62 as a graph6 line, laid out as the
    comment above says.

    parse_graph6(write_graph6(g)) recovers g up to edge-id order, and
    write_graph6(parse_graph6(s)) == s byte for byte.
    """
    if g.n > 62:
        raise UnsupportedFormatError(f"graph6 short form needs n <= 62, got {g.n}")
    if not g.is_simple():
        raise UnsupportedFormatError("graph6 cannot represent loops or parallel edges")
    groups = [0] * ((g.n * (g.n - 1) // 2 + 5) // 6)
    for u, v in g.edges:
        if u > v:
            u, v = v, u
        i = v * (v - 1) // 2 + u
        groups[i // 6] |= 32 >> i % 6
    return bytes([x + 63 for x in [g.n, *groups]]).decode("ascii")


# ---------------------------------------------------------------------------
# structural operations


class Forest(NamedTuple):
    """What one breadth-first spanning forest of a graph shows."""

    bridges: int  # the bridge mask
    components: tuple[tuple[int, ...], ...]  # each root's vertices, in the order reached
    cycles: tuple[int, ...]  # the fundamental cycle of each chord, in ascending chord order


def spanning_forest(g: MultiGraph) -> Forest:
    """The breadth-first spanning forest of g, walked once per graph and
    kept on g.  Roots are taken in ascending order, so each is the least
    vertex of its component.  path[v] is the mask of the tree path from v
    to its root; a chord e with ends u, w closes the fundamental cycle
    path[u] ^ path[w] | 1 << e, and a tree edge is a bridge exactly when
    no such cycle covers it.  A loop is neither a tree edge nor a chord,
    and a parallel copy of a tree edge is a chord whose cycle is the two."""
    if g._forest is None:
        g._forest = _walk_forest(g)
    return g._forest


def _walk_forest(g: MultiGraph) -> Forest:
    edges, incident = g._edges, g._incident
    path = [-1] * g.n  # -1: not reached yet
    tree = 0
    components = []
    for root in range(g.n):
        if path[root] >= 0:
            continue
        path[root] = 0
        queue = [root]
        for v in queue:
            for e in incident[v]:
                u, x = edges[e]
                if x == v:
                    x = u
                if path[x] < 0:
                    path[x] = path[v] | 1 << e
                    tree |= 1 << e
                    queue.append(x)
        components.append(tuple(queue))
    cycles = []
    covered = 0
    for e, (u, w) in enumerate(edges):
        if u != w and not tree >> e & 1:
            cycle = path[u] ^ path[w] | 1 << e
            cycles.append(cycle)
            covered |= cycle
    return Forest(tree & ~covered, tuple(components), tuple(cycles))

"""Input generation for the benchmark: flower snarks, the snark corpus,
seeded vertex relabellings and a graph6 encoder of the benchmark's own.

Nothing here imports cdc5, so the inputs a seed produces do not change when
the program under test changes.  Graphs are plain (n, edge list) pairs.
"""

from __future__ import annotations

import random

# The four snarks of the repository's corpus file (tests/data/snarks.g6),
# copied so that the benchmark's inputs stay fixed if the fixture changes,
# with their circuit counts: Petersen, the two Blanusa snarks and a
# 20-vertex snark.  2881 circuits in all.
CORPUS = (
    ("petersen", "IheA@GUAo", 57),
    ("blanusa-1", "QGeA@GUAp??@_@O?A???Q?@W?Ao", 688),
    ("blanusa-2", "QHeA@GEAo_?@_@O??C??Q?@W?Ao", 692),
    ("snark-20", "S?AAHCPBK?G@G@C?`?K?@O?C_?G_?GOOC", 1444),
)


def flower_snark(k: int) -> tuple[int, list[tuple[int, int]]]:
    """Isaacs' flower snark J_k (k >= 3): k claws a_i-{b_i, c_i, d_i}, the
    b_i joined in a k-cycle and the c_i, d_i in one 2k-cycle
    c_0..c_{k-1} d_0..d_{k-1}.  Vertex a_i is 4i, b_i 4i+1, c_i 4i+2,
    d_i 4i+3.  Not 3-edge-colourable exactly when k is odd."""
    if k < 3:
        raise ValueError(f"flower snark needs k >= 3, got {k}")
    a, b, c, d = (lambda i, o=o: 4 * (i % k) + o for o in range(4))
    edges = []
    for i in range(k):
        edges += [(a(i), b(i)), (a(i), c(i)), (a(i), d(i)), (b(i), b(i + 1))]
    for i in range(k - 1):
        edges += [(c(i), c(i + 1)), (d(i), d(i + 1))]
    edges += [(c(k - 1), d(0)), (d(k - 1), c(0))]
    return 4 * k, edges


def graph6_edge_order(edges) -> list[tuple[int, int]]:
    """Edges as (u, v) with u < v, in the column-major upper-triangle order
    of graph6, which is the edge numbering cdc5 gives a parsed graph."""
    return sorted(((min(e), max(e)) for e in edges), key=lambda e: (e[1], e[0]))


def encode_graph6(n: int, edges) -> str:
    """graph6 line of a simple graph with n <= 62."""
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 short form needs n <= 62, got {n}")
    present = {(min(e), max(e)) for e in edges}
    bits = [(u, v) in present for v in range(1, n) for u in range(v)]
    bits += [False] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        chunk = 0
        for bit in bits[i:i + 6]:
            chunk = chunk << 1 | bit
        out.append(chr(63 + chunk))
    return "".join(out)


def decode_graph6(line: str) -> tuple[int, list[tuple[int, int]]]:
    """Inverse of encode_graph6 (short form only), edges in graph6 order."""
    n = ord(line[0]) - 63
    stream = []
    for ch in line[1:]:
        val = ord(ch) - 63
        stream += [val >> s & 1 for s in range(5, -1, -1)]
    edges = []
    pos = 0
    for v in range(1, n):
        for u in range(v):
            if stream[pos]:
                edges.append((u, v))
            pos += 1
    return n, edges


def scrambled(n: int, rng: random.Random) -> list[int]:
    """Uniformly random relabelling: old vertex -> new vertex."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def breadth_first(n: int, edges, rng: random.Random, root: int | None = None) -> list[int]:
    """Relabelling in breadth-first order from `root` (random if None),
    neighbours visited in random order.  Adjacent vertices get nearby
    labels, so the graph6 edge order stays local (the graph is assumed
    connected)."""
    adj = _adjacency(n, edges)
    order = [rng.randrange(n) if root is None else root]
    seen = set(order)
    for v in order:
        nbrs = adj[v][:]
        rng.shuffle(nbrs)
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                order.append(w)
    perm = [0] * n
    for new, old in enumerate(order):
        perm[old] = new
    return perm


def relabel(edges, perm) -> list[tuple[int, int]]:
    return [(perm[u], perm[v]) for u, v in edges]


def random_circuit(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    """A uniformly random circuit of a connected cubic graph, as its edges.

    A random subset of the fundamental cycles of a spanning tree sums to a
    uniformly random even subgraph; in a cubic graph every nonempty even
    subgraph is 2-regular, so the draw is repeated until it is connected.
    Over half of J7's even subgraphs are circuits."""
    adj = _adjacency(n, edges)
    parent = {0: None}
    queue = [0]
    for v in queue:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    index = {(min(e), max(e)): i for i, e in enumerate(edges)}

    def to_root(v: int) -> int:
        mask = 0
        while parent[v] is not None:
            mask ^= 1 << index[min(v, parent[v]), max(v, parent[v])]
            v = parent[v]
        return mask

    tree = {(min(v, p), max(v, p)) for v, p in parent.items() if p is not None}
    fundamental = [
        1 << i ^ to_root(u) ^ to_root(v)
        for i, (u, v) in enumerate(edges)
        if (min(u, v), max(u, v)) not in tree
    ]
    while True:
        mask = 0
        for cycle in fundamental:
            if rng.random() < 0.5:
                mask ^= cycle
        chosen = [e for i, e in enumerate(edges) if mask >> i & 1]
        if chosen and _is_connected_subgraph(chosen):
            return chosen


def _is_connected_subgraph(edges) -> bool:
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = edges[0][0]
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def _adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _connected_without(n: int, edges, skip: int) -> bool:
    adj = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        if e != skip:
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def girth(n: int, edges) -> int:
    """Length of a shortest cycle (simple graphs), by BFS from every vertex."""
    adj = _adjacency(n, edges)
    best = n + 1
    for root in range(n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        for v in queue:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif w != parent[v]:
                    best = min(best, dist[v] + dist[w] + 1)
    return best


def structure_problems(name: str, n: int, edges, min_girth: int) -> list[str]:
    """Problems that stop a generated graph from being simple, cubic,
    connected and bridgeless with girth >= min_girth; a run with any of
    them reports itself incorrect."""
    problems = []
    if len({(min(e), max(e)) for e in edges}) != len(edges) or any(u == v for u, v in edges):
        problems.append(f"{name} is not simple")
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    if any(d != 3 for d in degrees):
        problems.append(f"{name} is not cubic")
    if not _connected_without(n, edges, -1):
        problems.append(f"{name} is not connected")
    elif any(not _connected_without(n, edges, e) for e in range(len(edges))):
        problems.append(f"{name} has a bridge")
    if girth(n, edges) < min_girth:
        problems.append(f"{name} has girth below {min_girth}")
    return problems

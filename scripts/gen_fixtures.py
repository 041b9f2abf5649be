#!/usr/bin/env python3
"""Regenerate the frozen graph fixtures under tests/data/.

Development-time only; the test suite consumes the committed output.  The
small-graph catalog is derived from first principles: every bridgeless
cubic graph decomposes into a 2-factor plus a perfect matching, so taking
one canonical 2-factor per cycle-type partition and all perfect matchings
of its complement, then deduplicating up to isomorphism, is exhaustive.
The expected class counts are asserted so a generation bug cannot silently
change the catalog.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import networkx as nx

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from cdc5 import MultiGraph, three_edge_color, write_graph6  # noqa: E402
from tests.oracles import petersen_graph  # noqa: E402

DATA = ROOT / "tests" / "data"

EXPECTED_COUNTS = {4: 1, 6: 2, 8: 5, 10: 18}


def partitions(n: int, smallest: int = 3):
    """Partitions of n into parts >= smallest, nondecreasing."""
    if n == 0:
        yield ()
        return
    for first in range(smallest, n + 1):
        if n - first not in (1, 2) or n == first:
            for rest in partitions(n - first, first):
                yield (first,) + rest


def canonical_two_factor(partition: tuple[int, ...]) -> list[tuple[int, int]]:
    edges = []
    offset = 0
    for part in partition:
        cyc = list(range(offset, offset + part))
        edges.extend((cyc[i], cyc[(i + 1) % part]) for i in range(part))
        offset += part
    return edges


def perfect_matchings(n: int, allowed: set[frozenset[int]]):
    """All perfect matchings of the graph on 0..n-1 with the allowed edges."""

    def go(remaining: list[int], acc: list[tuple[int, int]]):
        if not remaining:
            yield list(acc)
            return
        u = remaining[0]
        for v in remaining[1:]:
            if frozenset((u, v)) in allowed:
                acc.append((u, v))
                rest = [w for w in remaining if w not in (u, v)]
                yield from go(rest, acc)
                acc.pop()

    yield from go(list(range(n)), [])


def bridgeless_cubic_catalog(n: int) -> list[nx.Graph]:
    classes: list[nx.Graph] = []
    for partition in partitions(n):
        factor = canonical_two_factor(partition)
        taken = {frozenset(e) for e in factor}
        allowed = {
            frozenset((u, v))
            for u, v in itertools.combinations(range(n), 2)
            if frozenset((u, v)) not in taken
        }
        for matching in perfect_matchings(n, allowed):
            g = nx.Graph()
            g.add_nodes_from(range(n))
            g.add_edges_from(factor)
            g.add_edges_from(matching)
            if g.number_of_edges() != 3 * n // 2:
                continue
            if not nx.is_connected(g) or nx.has_bridges(g):
                continue
            if any(nx.is_isomorphic(g, old) for old in classes):
                continue
            classes.append(g)
    return classes


def to_graph6(g: nx.Graph) -> str:
    return write_graph6(MultiGraph(g.number_of_nodes(), sorted(tuple(sorted(e)) for e in g.edges())))


def girth(g: nx.Graph) -> int:
    best = None
    for source in g.nodes:
        dist = {source: 0}
        parent = {source: None}
        queue = [source]
        while queue:
            u = queue.pop(0)
            for v in g.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cycle = dist[u] + dist[v] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best or 0


def is_snark(g: nx.Graph) -> bool:
    mg = MultiGraph(g.number_of_nodes(), sorted(tuple(sorted(e)) for e in g.edges()))
    return (
        nx.is_connected(g)
        and not nx.has_bridges(g)
        and all(d == 3 for _, d in g.degree())
        and girth(g) >= 5
        and three_edge_color(mg) is None
    )


def petersen_nx() -> nx.Graph:
    pg = petersen_graph()
    g = nx.Graph()
    g.add_nodes_from(range(pg.n))
    g.add_edges_from(pg.edges)
    return g


def dot_products() -> list[nx.Graph]:
    """All snarks of order 18 obtainable by joining two Petersen copies:
    remove two independent edges from one copy and an adjacent vertex pair
    from the other, then reconnect the loose ends in every possible way."""
    p = petersen_nx()
    edges = [tuple(sorted(e)) for e in p.edges()]
    classes: list[nx.Graph] = []
    for e1, e2 in itertools.permutations(edges, 2):
        if set(e1) & set(e2):
            continue
        a1, b1 = e1
        a2, b2 = e2
        for x, y in edges:
            x_nbrs = [w for w in p.neighbors(x) if w != y]
            y_nbrs = [w for w in p.neighbors(y) if w != x]
            for x1, x2 in (x_nbrs, x_nbrs[::-1]):
                for y1, y2 in (y_nbrs, y_nbrs[::-1]):
                    g = nx.Graph()
                    g.add_edges_from((("g", u), ("g", v)) for u, v in edges)
                    g.remove_edge(("g", a1), ("g", b1))
                    g.remove_edge(("g", a2), ("g", b2))
                    h_keep = [e for e in edges if x not in e and y not in e]
                    g.add_edges_from((("h", u), ("h", v)) for u, v in h_keep)
                    g.add_edges_from(
                        [
                            (("g", a1), ("h", x1)),
                            (("g", b1), ("h", x2)),
                            (("g", a2), ("h", y1)),
                            (("g", b2), ("h", y2)),
                        ]
                    )
                    relabel = {node: i for i, node in enumerate(sorted(g.nodes))}
                    g = nx.relabel_nodes(g, relabel)
                    if g.number_of_nodes() != 18 or not is_snark(g):
                        continue
                    if any(nx.is_isomorphic(g, old) for old in classes):
                        continue
                    classes.append(g)
    return classes


def flower_j5() -> nx.Graph:
    """Order-20 flower snark: five stars t_i-(u_i, v_i, w_i), the u's in a
    5-cycle, the v's and w's in one 10-cycle."""
    k = 5
    t = lambda i: i
    u = lambda i: k + i
    v = lambda i: 2 * k + i
    w = lambda i: 3 * k + i
    g = nx.Graph()
    for i in range(k):
        g.add_edges_from([(t(i), u(i)), (t(i), v(i)), (t(i), w(i))])
        g.add_edge(u(i), u((i + 1) % k))
    for i in range(k - 1):
        g.add_edge(v(i), v(i + 1))
        g.add_edge(w(i), w(i + 1))
    g.add_edge(v(k - 1), w(0))
    g.add_edge(w(k - 1), v(0))
    return g


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)

    catalog_lines = []
    for n in (4, 6, 8, 10):
        classes = bridgeless_cubic_catalog(n)
        assert len(classes) == EXPECTED_COUNTS[n], (n, len(classes))
        if n == 10:
            assert any(nx.is_isomorphic(g, petersen_nx()) for g in classes)
        catalog_lines.extend(sorted(to_graph6(g) for g in classes))
    path = DATA / "cubic_bridgeless_connected_n4_10.g6"
    path.write_text("".join(line + "\n" for line in catalog_lines), encoding="ascii")
    print(f"wrote {path} ({len(catalog_lines)} graphs)")

    petersen_line = write_graph6(petersen_graph())
    (DATA / "petersen.g6").write_text(petersen_line + "\n", encoding="ascii")
    print(f"wrote {DATA / 'petersen.g6'}")

    blanusa = dot_products()
    assert len(blanusa) == 2, len(blanusa)
    j5 = flower_j5()
    assert j5.number_of_nodes() == 20 and is_snark(j5)
    snark_lines = [petersen_line]
    snark_lines.extend(sorted(to_graph6(g) for g in blanusa))
    snark_lines.append(to_graph6(j5))
    (DATA / "snarks.g6").write_text(
        "".join(line + "\n" for line in snark_lines), encoding="ascii"
    )
    print(f"wrote {DATA / 'snarks.g6'} ({len(snark_lines)} snarks)")


if __name__ == "__main__":
    main()

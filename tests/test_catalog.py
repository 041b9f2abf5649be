"""Sanity checks for the bundled graph6 fixture files.

The catalog is the ground set for the exhaustive comparisons in the
acceptance suite, so its advertised properties (completeness up to
isomorphism, cubicity, bridgelessness) are verified here rather than
trusted.
"""

import collections
import pathlib

import networkx
import pytest

from cdc5 import (
    MultiGraph,
    enumerate_circuits,
    parse_graph6,
    spanning_forest,
    three_edge_color,
    write_graph6,
)

from .oracles import petersen_graph


def as_networkx(g: MultiGraph) -> networkx.Graph:
    h = networkx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


class TestCatalog:
    def test_size_and_distribution(self, catalog):
        assert len(catalog) == 26
        by_order = collections.Counter(g.n for g in catalog)
        assert by_order == {4: 1, 6: 2, 8: 5, 10: 18}

    def test_sorted_by_order(self, catalog):
        orders = [g.n for g in catalog]
        assert orders == sorted(orders)

    def test_members_are_connected_bridgeless_cubic(self, catalog):
        for g in catalog:
            assert g.is_cubic()
            assert g.is_simple()
            assert spanning_forest(g).bridges == 0

    def test_lines_round_trip(self, catalog_lines, catalog):
        for line, g in zip(catalog_lines, catalog):
            assert write_graph6(g) == line

    def test_pairwise_non_isomorphic(self, catalog):
        graphs = [as_networkx(g) for g in catalog]
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                if catalog[i].n != catalog[j].n:
                    continue
                assert not networkx.is_isomorphic(graphs[i], graphs[j])

    def test_petersen_is_the_unique_snark_member(self, catalog):
        petersen = as_networkx(petersen_graph())
        hits = [
            g
            for g in catalog
            if g.n == 10 and networkx.is_isomorphic(as_networkx(g), petersen)
        ]
        assert len(hits) == 1
        assert three_edge_color(hits[0]) is None


class TestSnarks:
    def test_four_members(self, snarks):
        assert len(snarks) == 4
        assert [g.n for g in snarks] == [10, 18, 18, 20]

    def test_first_member_is_the_bundled_petersen(self, snark_lines, data_dir):
        frozen = pathlib.Path(data_dir, "petersen.g6").read_text(encoding="ascii").strip()
        assert snark_lines[0] == frozen
        assert parse_graph6(frozen).n == 10

    def test_members_are_bridgeless_cubic(self, snarks):
        for g in snarks:
            assert g.is_cubic()
            assert g.is_simple()
            assert spanning_forest(g).bridges == 0

    @pytest.mark.parametrize("index", range(4))
    def test_members_are_uncolorable(self, snarks, index):
        assert three_edge_color(snarks[index]) is None

    def test_girth_at_least_five(self, snarks):
        for g in snarks:
            shortest = min(c.bit_count() for c in enumerate_circuits(g, guard=11))
            assert shortest >= 5

    def test_blanusa_pair_is_non_isomorphic(self, snarks):
        first, second = snarks[1], snarks[2]
        assert not networkx.is_isomorphic(as_networkx(first), as_networkx(second))

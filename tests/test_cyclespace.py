import random

import pytest

from cdc5 import (
    CapacityError,
    MultiGraph,
    SearchOptions,
    canonical_masks,
    enumerate_circuits,
    is_even_subgraph,
    parse_graph6,
    spanning_forest,
)
from cdc5.graphs import mask_ids, vertex_faults

from . import test_graphs
from .test_graphs import flood_fill_components
from .oracles import (
    bridged_cubic_multigraph,
    circuit_subsets,
    complete_graph,
    edge_mask,
    edge_set_connected,
    enumerate_even_subgraphs,
    even_subsets,
    filtered_circuits,
    flower_snark,
    is_circuit,
    petersen_graph,
    prism_graph,
    random_cubic_multigraph,
    theta_multigraph,
)

# Loops, parallel edges, isolated vertices and up to four components.
RANDOM_MULTIGRAPHS = test_graphs.TestKernelsOnRandomMultigraphs.GRAPHS

SMALL_HOSTS = [
    complete_graph(4),
    prism_graph(),
    theta_multigraph(),
    bridged_cubic_multigraph(),
    MultiGraph(3, [(0, 1), (1, 2), (0, 2)]),
    MultiGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    MultiGraph(4, [(0, 1), (1, 2), (2, 3)]),
    MultiGraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)]),
]


class TestBasis:
    """The cycle-space basis: spanning_forest(g).cycles, one fundamental
    cycle per chord."""

    @pytest.mark.parametrize("g", SMALL_HOSTS, ids=lambda g: f"n{g.n}m{g.m}")
    def test_dimension_formula(self, g):
        forest = spanning_forest(g)
        assert len(forest.cycles) == g.m - g.n + len(flood_fill_components(g))

    def test_dimension_on_catalog(self, catalog):
        for g in catalog:
            assert len(spanning_forest(g).cycles) == g.m - g.n + 1

    def test_dimension_counts_loops_out(self, catalog, snarks):
        # The number of fundamental cycles, which cdc5 stats reports.
        hosts = list(catalog) + list(snarks) + SMALL_HOSTS + RANDOM_MULTIGRAPHS
        hosts += [random_cubic_multigraph(n, seed) for n in (4, 8, 12) for seed in range(5)]
        hosts += [
            MultiGraph(2, [(0, 1), (1, 1), (0, 1)]),
            MultiGraph(1, [(0, 0), (0, 0)]),
            MultiGraph(4, [(0, 0), (0, 1), (0, 1), (1, 1), (2, 3), (3, 3), (2, 3), (2, 3)]),
            MultiGraph(5, [(0, 1), (1, 2), (0, 2)]),
            MultiGraph(0, []),
        ]
        for g in hosts:
            count = g.m - g.loop_mask().bit_count() - g.n + len(flood_fill_components(g))
            assert len(spanning_forest(g).cycles) == count

    def test_vectors_are_even_and_contain_their_chord(self):
        # Each vector holds its own chord, an edge no other vector holds:
        # those edges alone show the vectors independent.
        for g in [petersen_graph()] + RANDOM_MULTIGRAPHS:
            forest = spanning_forest(g)
            odd, _, crowded = vertex_faults(g, forest.cycles)
            assert not odd | crowded
            for i, mask in enumerate(forest.cycles):
                others = 0
                for other in forest.cycles[:i] + forest.cycles[i + 1 :]:
                    others |= other
                assert mask & ~others

    def test_loops_are_not_part_of_the_space(self):
        # Even subgraphs exclude loops by convention, so a loop is neither
        # a tree edge nor a chord.
        g = MultiGraph(2, [(0, 1), (1, 1), (0, 1)])
        assert spanning_forest(g).cycles == (0b101,)


class TestEvenSubgraphs:
    @pytest.mark.parametrize("g", SMALL_HOSTS, ids=lambda g: f"n{g.n}m{g.m}")
    def test_enumeration_matches_parity_oracle(self, g):
        got = {frozenset(mask_ids(s)) for s in enumerate_even_subgraphs(g)}
        assert got == even_subsets(g)

    def test_enumeration_on_a_loop_host_skips_loop_subsets(self):
        # A loop adds two to its vertex degree, so the parity oracle admits
        # arbitrary loop subsets; the package convention excludes loops
        # from even subgraphs, leaving exactly the loop-free parity sets.
        for g in [MultiGraph(2, [(0, 1), (1, 1), (0, 1), (0, 0)])] + RANDOM_MULTIGRAPHS:
            if g.m > 12:
                continue
            loops = set(mask_ids(g.loop_mask()))
            got = {frozenset(mask_ids(s)) for s in enumerate_even_subgraphs(g)}
            assert got == {s for s in even_subsets(g) if not s & loops}

    def test_enumeration_matches_parity_oracle_small_catalog(self, catalog):
        for g in catalog:
            if g.m > 12:
                continue
            got = {frozenset(mask_ids(s)) for s in enumerate_even_subgraphs(g)}
            assert got == even_subsets(g)

    def test_count_and_distinctness(self, petersen):
        sets = list(enumerate_even_subgraphs(petersen))
        assert len(sets) == 64
        assert len(set(sets)) == 64
        assert sets[0] == 0
        assert all(is_even_subgraph(petersen, s) for s in sets)

    def test_gray_order_changes_one_basis_vector_per_step(self, petersen):
        masks = spanning_forest(petersen).cycles
        sets = list(enumerate_even_subgraphs(petersen))
        for k in range(1, len(sets)):
            assert sets[k] ^ sets[k - 1] in masks

    def test_guard(self, petersen):
        with pytest.raises(CapacityError):
            list(enumerate_even_subgraphs(petersen, guard=5))
        assert len(list(enumerate_even_subgraphs(petersen, guard=6))) == 64

    def test_k4_inventory(self):
        g = complete_graph(4)
        sets = {frozenset(mask_ids(s)) for s in enumerate_even_subgraphs(g)}
        triangles = {
            frozenset({0, 1, 2}),  # 0-1-2
            frozenset({0, 3, 4}),  # 0-1-3
            frozenset({1, 3, 5}),  # 0-2-3
            frozenset({2, 4, 5}),  # 1-2-3
        }
        quads = {
            frozenset({0, 2, 3, 5}),
            frozenset({1, 2, 3, 4}),
            frozenset({0, 1, 4, 5}),
        }
        assert sets == {frozenset()} | triangles | quads


class TestPredicates:
    def test_even_subgraph_examples(self):
        g = complete_graph(4)
        assert is_even_subgraph(g, 0)
        assert is_even_subgraph(g, edge_mask(g, [0, 1, 2]))
        assert not is_even_subgraph(g, edge_mask(g, [0]))

    def test_loops_are_not_even(self):
        g = MultiGraph(1, [(0, 0)])
        assert not is_even_subgraph(g, edge_mask(g, [0]))

    def test_connectivity(self):
        g = MultiGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert edge_set_connected(g, edge_mask(g, [0, 1, 2]))
        assert not edge_set_connected(g, edge_mask(g, [0, 1, 2, 3, 4, 5]))
        assert edge_set_connected(g, 0)

    def test_is_circuit(self):
        g = MultiGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert is_circuit(g, edge_mask(g, [0, 1, 2]))
        assert not is_circuit(g, edge_mask(g, [0, 1, 2, 3, 4, 5]))
        assert not is_circuit(g, 0)

    def test_parallel_pair_is_a_circuit(self):
        g = theta_multigraph()
        assert is_circuit(g, edge_mask(g, [0, 1]))
        assert not is_circuit(g, edge_mask(g, [0]))


class TestEnumerateCircuits:
    def test_k4(self):
        g = complete_graph(4)
        circuits = enumerate_circuits(g)
        assert len(circuits) == 7
        assert [c.bit_count() for c in circuits] == [3, 3, 3, 3, 4, 4, 4]

    def test_petersen_census(self, petersen):
        circuits = enumerate_circuits(petersen)
        assert len(circuits) == 57
        by_len: dict[int, int] = {}
        for c in circuits:
            by_len[c.bit_count()] = by_len.get(c.bit_count(), 0) + 1
        assert by_len == {5: 12, 6: 10, 8: 15, 9: 20}

    @pytest.mark.parametrize(
        "g", [complete_graph(4), prism_graph(), theta_multigraph(), petersen_graph()],
        ids=lambda g: f"n{g.n}m{g.m}",
    )
    def test_matches_subset_oracle(self, g):
        got = {frozenset(mask_ids(c)) for c in enumerate_circuits(g)}
        assert got == circuit_subsets(g)

    def test_k5_keeps_only_circuits(self):
        # K5 has vertices of degree 4, so its cycle space also holds
        # connected sets that are not circuits: two triangles sharing one
        # vertex, or all of K5.
        g = complete_graph(5)
        circuits = enumerate_circuits(g)
        assert len(circuits) == 37
        assert {frozenset(mask_ids(c)) for c in circuits} == circuit_subsets(g)
        assert circuits == sorted(circuits, key=lambda c: (c.bit_count(), mask_ids(c)))

    def test_sorted_by_size_then_ids(self, petersen):
        circuits = enumerate_circuits(petersen)
        assert circuits == sorted(circuits, key=lambda c: (c.bit_count(), mask_ids(c)))

    def test_guard(self, petersen):
        with pytest.raises(CapacityError):
            enumerate_circuits(petersen, guard=5)

    def test_default_guard_is_the_searchs(self):
        # J8 has cycle-space dimension 17, one past the default guard that
        # the search and the CLI stop at too.
        assert SearchOptions().dim_guard == 16
        with pytest.raises(CapacityError, match="dimension 17"):
            enumerate_circuits(flower_snark(8))

    def test_walk_matches_the_filter_on_catalog_and_corpus(self, catalog, snarks):
        for g in catalog + snarks:
            assert enumerate_circuits(g) == filtered_circuits(g)

    def test_walk_matches_the_filter_on_hosts_of_higher_degree(self):
        # A vertex with four member edges must stop the walk, or it wanders.
        assert len(enumerate_circuits(complete_graph(5))) == 37
        hosts = [complete_graph(5), complete_graph(6)]
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(5, 10)
            pairs = [(u, v) for v in range(n) for u in range(v)]
            hosts.append(MultiGraph(n, rng.sample(pairs, rng.randrange(n, min(len(pairs), n + 8)))))
        for g in hosts:
            assert enumerate_circuits(g) == filtered_circuits(g)

    def test_walk_matches_the_filter_on_multigraphs(self):
        # Parallel edges give 2-circuits, whose walk closes after one step.
        two_circuits = 0
        for n in range(4, 15, 2):
            for seed in range(10):
                g = random_cubic_multigraph(n, seed)
                circuits = enumerate_circuits(g)
                assert circuits == filtered_circuits(g)
                two_circuits += sum(c.bit_count() == 2 for c in circuits)
        assert two_circuits >= 60

    def test_walk_matches_the_filter_on_small_hosts(self):
        for g in SMALL_HOSTS:
            assert enumerate_circuits(g) == filtered_circuits(g)


def brute_span(vectors):
    span = {0}
    for vec in vectors:
        span |= {x ^ vec for x in span}
    return span


def id_order(mask):
    return (mask.bit_count(), tuple(e for e in range(mask.bit_length()) if mask >> e & 1))


class TestCanonicalMasks:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_sorted_brute_force_coset(self, seed):
        rng = random.Random(seed)
        m = 60 if seed % 4 == 0 else rng.randint(1, 60)
        independent = [rng.getrandbits(m) for _ in range(rng.randint(1, 9))]
        vectors = list(independent)
        vectors += [0] * rng.randint(1, 2)
        vectors += rng.sample(independent, min(2, len(independent)))
        for _ in range(rng.randint(1, 3)):
            combo = 0
            for vec in rng.sample(independent, rng.randint(1, len(independent))):
                combo ^= vec
            vectors.append(combo)
        rng.shuffle(vectors)
        given = list(vectors)
        got = canonical_masks(vectors)
        assert vectors == given
        assert got == sorted(brute_span(vectors), key=id_order)

    def test_no_vectors_gives_zero(self):
        assert canonical_masks([]) == [0]
        assert canonical_masks([0, 0]) == [0]

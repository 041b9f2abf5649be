import random
from itertools import combinations, permutations

import pytest

from cdc5 import (
    InvariantViolationError,
    MultiGraph,
    PreconditionError,
    flow_planes,
    has_nz4flow,
    is_flow,
    spanning_forest,
    three_edge_color,
)
from cdc5 import flows
from cdc5.cyclespace import EvenLayers
from cdc5.flows import _dead_key, _suppress

from .oracles import (
    breadth_first,
    bridged_cubic_graph,
    bridged_cubic_multigraph,
    cdc_to_flow,
    complete_graph,
    component_subgraphs,
    flower_snark,
    loop_is_matching,
    mask_of,
    minus,
    petersen_graph,
    plane_values,
    prism_graph,
    random_cubic_multigraph,
    reference_three_edge_color,
    shuffled,
    subdivide,
    theta_multigraph,
    three_colorable,
    trail_three_edge_color,
    verify_flow,
)

COLORING_HOSTS = [
    complete_graph(4),
    prism_graph(),
    theta_multigraph(),
    bridged_cubic_multigraph(),
    MultiGraph(4, [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)]),
]


def assert_proper(g, coloring):
    assert len(coloring) == g.m
    assert set(coloring) <= {0, 1, 2}
    for v in range(g.n):
        inc = g.incident(v)
        assert len({coloring[e] for e in inc}) == len(inc)


class TestThreeEdgeColor:
    @pytest.mark.parametrize("g", COLORING_HOSTS, ids=lambda g: f"n{g.n}m{g.m}")
    def test_agrees_with_exhaustive_oracle(self, g):
        got = three_edge_color(g)
        assert (got is not None) == three_colorable(g)
        if got is not None:
            assert_proper(g, got)

    def test_k4_is_colorable(self):
        assert_proper(complete_graph(4), three_edge_color(complete_graph(4)))

    def test_parallel_triple_uses_all_colors(self):
        coloring = three_edge_color(theta_multigraph())
        assert sorted(coloring) == [0, 1, 2]

    def test_petersen_is_not_colorable(self, petersen):
        assert three_edge_color(petersen) is None

    def test_catalog_is_class_one_except_petersen(self, catalog, petersen):
        # Of the 26 bridgeless cubic graphs up to n=10, only the Petersen
        # graph lacks a proper 3-edge-coloring.
        uncolorable = [g for g in catalog if three_edge_color(g) is None]
        assert len(uncolorable) == 1
        assert uncolorable[0].n == 10

    def test_loop_host_returns_none(self):
        g = MultiGraph(2, [(0, 1), (0, 0), (1, 1)])
        assert three_edge_color(g) is None

    def test_non_cubic_rejected(self):
        with pytest.raises(PreconditionError):
            three_edge_color(MultiGraph(2, [(0, 1)]))

    @pytest.mark.parametrize(
        "g, message",
        [
            (MultiGraph(2, [(0, 1)]), "vertex 0 has degree 1"),
            (complete_graph(5), "vertex 0 has degree 4"),
            (subdivide(complete_graph(4), 0), "vertex 4 has degree 2"),
            (MultiGraph(3, [(0, 1), (0, 1), (0, 1), (1, 2)]), "vertex 1 has degree 4"),
        ],
    )
    def test_non_cubic_message_names_the_first_vertex(self, g, message):
        with pytest.raises(PreconditionError) as info:
            three_edge_color(g)
        assert str(info.value) == message + "; 3-edge-coloring needs a 3-regular graph"

    def test_same_color_forced_on_adjacent_edges_backtracks(self):
        # After the first two branches, edges 9 = (4, 5) and 11 = (5, 7)
        # both have color 1 as their only free color, and later the
        # parallel edges 7 and 8 both have color 0 only.  Coloring one
        # makes the other a dead end, and the search backs up to a
        # coloring on another branch.
        g = MultiGraph(8, [
            (0, 1), (0, 3), (0, 7), (1, 2), (1, 4), (2, 5),
            (2, 6), (3, 6), (3, 6), (4, 5), (4, 7), (5, 7),
        ])
        coloring = three_edge_color(g)
        assert coloring == reference_three_edge_color(g) == trail_three_edge_color(g)
        assert_proper(g, coloring)

    def test_deterministic_first_coloring(self):
        g = complete_graph(4)
        assert three_edge_color(g) == three_edge_color(g)
        # Edge 0 gets the first color and its disjoint partner repeats it.
        coloring = three_edge_color(g)
        assert coloring[0] == 0


class TestColoringOrder:
    @pytest.mark.parametrize("k", range(3, 16))
    @pytest.mark.parametrize("seed", [None, 1, 2], ids=["own", "shuffle1", "shuffle2"])
    def test_flower_snarks_decided_by_parity(self, k, seed):
        # Isaacs' J_k is 3-edge-colorable exactly for even k.  J15 (n=60)
        # is the largest flower snark graph6 can hold; the colorer's
        # failed-state memo is what keeps the odd ones cheap to refute.
        g = flower_snark(k) if seed is None else shuffled(flower_snark(k), seed)
        assert has_nz4flow(g) == (k % 2 == 0)

    def test_first_vertex_is_fixed_to_colors_in_id_order(self, catalog):
        hosts = list(catalog) + COLORING_HOSTS
        for k in (4, 6, 8, 10, 12):
            hosts += [flower_snark(k), shuffled(flower_snark(k), k)]
        colored = 0
        for g in hosts:
            coloring = three_edge_color(g)
            if coloring is None:
                continue
            assert_proper(g, coloring)
            assert three_edge_color(g) == coloring
            at_first = g.incident(g.edges[0][0])
            assert [coloring[e] for e in at_first] == [0, 1, 2]
            colored += 1
        # Petersen and the bridged multigraph are the only uncolorable hosts.
        assert colored == len(hosts) - 2


class TestFailedStateMemo:
    """The colorer prunes states it has proved dead, keyed up to a color
    permutation; its first coloring must stay the one the plain
    backtracker finds."""

    def test_dead_key_is_a_state_up_to_color_permutation(self):
        rng = random.Random(10)
        for _ in range(500):
            m = rng.randint(1, 90)
            unc, *masks = (rng.getrandbits(m) for _ in range(4))
            key = _dead_key(unc, *masks)
            assert {_dead_key(unc, *p) for p in permutations(masks)} == {key}
            outside = [b ^ rng.getrandbits(m) & ~unc for b in masks]
            assert _dead_key(unc, *outside) == key
            other = unc ^ 1 << rng.randrange(m)
            assert _dead_key(other, *masks) != key
            if unc:
                inside = [masks[0] ^ unc & -unc, *masks[1:]]
                differs = sorted(b & unc for b in inside) != sorted(b & unc for b in masks)
                assert (_dead_key(unc, *inside) != key) == differs

    def test_same_first_coloring_as_reference(self, catalog, snarks):
        hosts = list(catalog) + list(snarks) + COLORING_HOSTS
        for k in range(3, 14):
            hosts += [flower_snark(k)] + [shuffled(flower_snark(k), s) for s in (1, 2, 3)]
        for k in (5, 7, 9):
            # Breadth-first from a claw centre, an outer-cycle vertex and
            # each inner-cycle class, as the decide-flowers benchmark does.
            hosts += [breadth_first(flower_snark(k), 4 * i + c, i) for c in range(4) for i in (0, 1)]
        for n in range(4, 15, 2):
            hosts += [random_cubic_multigraph(n, seed) for seed in range(10)]
        hosts.append(MultiGraph(4, [(0, 1), (0, 2), (0, 3), (1, 1), (2, 3), (2, 3)]))
        answers = [three_edge_color(g) for g in hosts]
        assert answers == [reference_three_edge_color(g) for g in hosts]
        assert answers[-1] is None
        assert any(a is None for a in answers[:-1]) and any(answers)

    def test_same_first_coloring_on_search_hosts(self, snarks):
        # The hosts a search hands the colorer: the suppressed, bridgeless
        # G - M for the 1- and 2-edge matchings M inside every sixth
        # circuit of length at most 9, each colored whole.
        hosts = {}
        for g in [snarks[0], snarks[1], snarks[2], flower_snark(5), shuffled(flower_snark(7), 1)]:
            layers, circuits = EvenLayers(g), []
            while layers.size < 9:
                circuits += layers.next_layer()
            for c in circuits[::6]:
                for k in (1, 2):
                    for pair in combinations([e for e in range(g.m) if c >> e & 1], k):
                        drop = sum(1 << e for e in pair)
                        if not loop_is_matching(g, drop):
                            continue
                        h, _ = _suppress(g, drop)
                        if not spanning_forest(h).bridges:
                            hosts.setdefault(h.edges, h)
        assert len(hosts) > 500
        assert [three_edge_color(h) for h in hosts.values()] == [
            reference_three_edge_color(h) for h in hosts.values()
        ]


    @pytest.mark.parametrize("k", [13, 14, 15])
    def test_same_first_coloring_as_trail_colorer(self, k):
        # The memo-less reference is too slow on these; the colorer that
        # pushed a trail entry per colored edge is not.
        hosts = [shuffled(flower_snark(k), s) for s in range(6)]
        hosts += [breadth_first(flower_snark(k), c, k) for c in range(4)]
        assert [three_edge_color(g) for g in hosts] == [trail_three_edge_color(g) for g in hosts]


class TestHasNz4Flow:
    def test_k4_true_petersen_false(self, petersen):
        assert has_nz4flow(complete_graph(4))
        assert not has_nz4flow(petersen)

    def test_bridged_hosts_false(self):
        assert not has_nz4flow(bridged_cubic_graph())
        assert not has_nz4flow(bridged_cubic_multigraph())

    def test_catalog(self, catalog):
        flowless = [g for g in catalog if not has_nz4flow(g)]
        assert len(flowless) == 1

    def test_snarks_false(self, snarks):
        assert all(not has_nz4flow(g) for g in snarks)

    def test_plain_circuit_true(self):
        g = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert has_nz4flow(g)

    def test_disjoint_components_must_all_pass(self, petersen):
        k4 = complete_graph(4)
        both = MultiGraph(
            14,
            list(k4.edges) + [(u + 4, v + 4) for u, v in petersen.edges],
        )
        assert not has_nz4flow(both)
        two_k4 = MultiGraph(8, list(k4.edges) + [(u + 4, v + 4) for u, v in k4.edges])
        assert has_nz4flow(two_k4)

    def test_subdivision_invariance_examples(self, petersen):
        assert has_nz4flow(subdivide(complete_graph(4), 3, times=2))
        assert not has_nz4flow(subdivide(petersen, 7, times=1))
        assert not has_nz4flow(subdivide(bridged_cubic_graph(), 14, times=3))

    def test_degree_outside_2_3_rejected(self):
        with pytest.raises(PreconditionError):
            has_nz4flow(complete_graph(5))
        with pytest.raises(PreconditionError):
            has_nz4flow(MultiGraph(2, [(0, 1)]))


def disjoint_union(*graphs) -> MultiGraph:
    base, edges = 0, []
    for g in graphs:
        edges += [(u + base, v + base) for u, v in g.edges]
        base += g.n
    return MultiGraph(base, edges)


def cubic_hosts(catalog, snarks) -> list[MultiGraph]:
    """Cubic graphs of every kind has_nz4flow decides on themselves."""
    hosts = list(catalog) + list(snarks)
    for k in range(3, 14):
        g = flower_snark(k)
        hosts += [g] + [shuffled(g, seed) for seed in (1, 2)]
        hosts += [breadth_first(g, c, k) for c in range(4)]
    hosts += [random_cubic_multigraph(n, seed) for n in (2, 4, 8, 12, 16) for seed in range(4)]
    k4, petersen = complete_graph(4), petersen_graph()
    hosts += [
        disjoint_union(k4, k4),
        disjoint_union(k4, petersen),
        disjoint_union(theta_multigraph(), prism_graph(), flower_snark(4)),
        disjoint_union(flower_snark(5), k4),
        bridged_cubic_graph(),
        bridged_cubic_multigraph(),
        disjoint_union(k4, bridged_cubic_graph()),
        MultiGraph(2, [(0, 0), (0, 1), (1, 1)]),
        MultiGraph(4, [(0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 3)]),
        disjoint_union(MultiGraph(2, [(0, 0), (0, 1), (1, 1)]), k4),
        MultiGraph(0, []),
    ]
    return hosts


class TestCubicDecision:
    """has_nz4flow decides a cubic graph on the graph itself, with the
    same answer as flow_planes on its suppressed copy."""

    def test_agrees_with_flow_planes_without_suppressing(self, catalog, snarks, monkeypatch):
        def refuse(g, drop):
            raise AssertionError("a cubic graph was suppressed")

        hosts = cubic_hosts(catalog, snarks)
        assert all(g.is_cubic() for g in hosts)
        expected = [flow_planes(g) is not None for g in hosts]
        assert True in expected and False in expected
        monkeypatch.setattr(flows, "_suppress", refuse)
        assert [has_nz4flow(g) for g in hosts] == expected
        with pytest.raises(AssertionError):
            has_nz4flow(subdivide(complete_graph(4), 0))

    @pytest.mark.parametrize(
        "g",
        [
            bridged_cubic_graph(),
            bridged_cubic_multigraph(),
            disjoint_union(complete_graph(4), bridged_cubic_graph()),
            subdivide(bridged_cubic_graph(), 14, times=3),
        ],
        ids=["bridged", "bridged-multigraph", "k4-and-bridged", "subdivided-bridged"],
    )
    def test_a_bridge_is_refuted_without_coloring(self, g, monkeypatch):
        def refuse(h):
            raise AssertionError("a bridged graph was colored")

        monkeypatch.setattr(flows, "three_edge_color", refuse)
        assert has_nz4flow(g) is False
        assert flow_planes(g) is None

    def test_flowless_cubic_graph_is_refuted_without_a_copy(self, snarks, monkeypatch):
        def refuse(g, drop):
            raise AssertionError("a flowless cubic graph was suppressed")

        petersen = petersen_graph()
        monkeypatch.setattr(flows, "_suppress", refuse)
        for g in [petersen, *snarks, flower_snark(7), disjoint_union(complete_graph(4), petersen)]:
            assert flow_planes(g, 0) is None
        with pytest.raises(AssertionError):
            flow_planes(complete_graph(4), 0)
        with pytest.raises(AssertionError):
            flow_planes(petersen, 1)

    def test_planes_are_still_checked(self, monkeypatch):
        monkeypatch.setattr(flows, "is_flow", lambda g, drop, s1, s2: False)
        with pytest.raises(InvariantViolationError):
            has_nz4flow(complete_graph(4))
        with pytest.raises(InvariantViolationError):
            has_nz4flow(subdivide(complete_graph(4), 0))


class TestComponentsColoredInPlace:
    """three_edge_color colors each component of a graph in place on the
    graph's own edge ids, as a copy of the component alone is colored, and
    a flow decision builds no graph but the suppressed host."""

    @staticmethod
    def unions() -> list[MultiGraph]:
        k4, prism, petersen = complete_graph(4), prism_graph(), petersen_graph()
        j3, j4, j5, j6, j7 = (shuffled(flower_snark(k), k) for k in range(3, 8))
        unions = [
            disjoint_union(k4, prism),
            disjoint_union(prism, j4, k4, j6),
            disjoint_union(k4, petersen),
            disjoint_union(j6, j5, prism),
            disjoint_union(j3, j4, j5, j6, j7),
            disjoint_union(petersen, j7),
        ]
        # Relabelled, the components' edge ids interleave.
        return unions + [shuffled(g, seed) for seed, g in enumerate(unions)]

    def test_each_component_gets_the_coloring_of_its_copy(self):
        answers = []
        for g in self.unions():
            coloring = three_edge_color(g)
            parts = [(three_edge_color(sub), ids) for sub, ids in component_subgraphs(g)]
            assert len(parts) > 1
            answers.append(coloring is not None)
            if any(part is None for part, _ in parts):
                assert coloring is None
                continue
            assert_proper(g, coloring)
            for part, ids in parts:
                assert tuple(coloring[e] for e in ids) == part
        assert True in answers and False in answers

    def test_decision_is_the_and_over_the_components(self):
        for g in self.unions():
            parts = [sub for sub, _ in component_subgraphs(g)]
            assert has_nz4flow(g) == all(has_nz4flow(sub) for sub in parts)
            assert (flow_planes(g) is not None) == has_nz4flow(g)

    def test_flow_planes_builds_only_the_suppressed_host(self, monkeypatch):
        # Two copies of K4 - e, their degree-2 vertices joined by the
        # matching M = {10, 11}; G - M suppresses to two theta graphs.
        half = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
        g = MultiGraph(8, half + [(u + 4, v + 4) for u, v in half] + [(2, 6), (3, 7)])
        drop = 1 << 10 | 1 << 11
        host, chains = _suppress(g, drop)
        values = [0] * g.m
        for sub, ids in component_subgraphs(host):
            for e, c in zip(ids, three_edge_color(sub)):
                for x in range(g.m):
                    if chains[e] >> x & 1:
                        values[x] = c + 1
        built = []
        build = MultiGraph.__init__
        monkeypatch.setattr(
            MultiGraph, "__init__", lambda self, n, edges: built.append(n) or build(self, n, edges)
        )
        planes = flow_planes(g, drop)
        assert built == [host.n] == [4]
        assert plane_values(g, planes) == tuple(values)


class TestFindNz4Flow:
    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(4),
            prism_graph(),
            theta_multigraph(),
            subdivide(complete_graph(4), 0, times=2),
            MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)]),
        ],
        ids=lambda g: f"n{g.n}m{g.m}",
    )
    def test_constructs_verified_flow(self, g):
        planes = flow_planes(g)
        assert planes is not None
        assert is_flow(g, 0, *planes)
        assert verify_flow(g, plane_values(g, planes))

    def test_flow_respects_suppression_paths(self):
        # Every edge of the subdivided K4 lies on a chain, and each chain
        # is constant in both planes.
        g = subdivide(complete_graph(4), 0, times=2)
        s1, s2 = flow_planes(g)
        _, chains = _suppress(g, 0)
        assert sum(chain.bit_count() for chain in chains) == g.m
        for chain in chains:
            assert s1 & chain in (0, chain) and s2 & chain in (0, chain)

    def test_none_when_missing(self, petersen):
        assert flow_planes(petersen) is None
        assert flow_planes(bridged_cubic_graph()) is None

    def test_agrees_with_decision(self, catalog):
        for g in catalog:
            assert (flow_planes(g) is not None) == (reference_three_edge_color(g) is not None)


class TestColoringToFlow:
    """Color c of a suppressed edge gives its chain the Klein value c + 1."""

    def test_colors_map_to_klein_values(self):
        g = complete_graph(4)
        coloring = three_edge_color(g)
        assert plane_values(g, flow_planes(g)) == tuple(c + 1 for c in coloring)

    def test_theta_uses_all_nonzero_values(self):
        g = theta_multigraph()
        assert sorted(plane_values(g, flow_planes(g))) == [1, 2, 3]

    def test_improper_coloring_rejected(self):
        # Every edge colored 0: S1 is every edge, odd at every vertex.
        g = complete_graph(4)
        assert not is_flow(g, 0, (1 << g.m) - 1, 0)


class TestLiftFlow:
    def test_circuit_component_gets_constant_one(self):
        g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert flow_planes(g) == (15, 0)
        # K4 less a perfect matching is a 4-cycle, which lies in S1.
        k4 = complete_graph(4)
        assert flow_planes(k4, 1 << 0 | 1 << 5) == (0b011110, 0)

    def test_wrong_host_rejected(self):
        # The prism's planes name edges K4 does not have.
        assert not is_flow(complete_graph(4), 0, *flow_planes(prism_graph()))


class TestVerifyFlow:
    def test_accepts_constructed_flow(self):
        g = complete_graph(4)
        assert is_flow(g, 0, *flow_planes(g))

    def test_single_edited_edge_breaks_two_vertices(self):
        g = complete_graph(4)
        s1, s2 = flow_planes(g)
        assert not is_flow(g, 0, s1 ^ 1, s2)
        assert not is_flow(g, 0, s1, s2 ^ 1)

    def test_zero_value_rejected(self):
        g = theta_multigraph()
        assert not is_flow(g, 0, 0b110, 0)

    def test_length_mismatch_rejected(self):
        g = complete_graph(4)
        s1, s2 = flow_planes(g)
        assert not is_flow(g, 0, s1 | 1 << g.m, s2)
        assert not is_flow(g, 0, *flow_planes(theta_multigraph()))

    def test_loop_contributes_nothing(self):
        g = MultiGraph(2, [(0, 1), (0, 1), (1, 1)])
        assert is_flow(g, 0, 0b100, 0b111)
        assert is_flow(g, 0b011, 0b100, 0)

    def test_wrong_host_rejected(self):
        # A flow of G - M is no flow of G, nor of G - M' for another M'.
        g = complete_graph(4)
        planes = flow_planes(g, 1 << 0 | 1 << 5)
        assert is_flow(g, 1 << 0 | 1 << 5, *planes)
        assert not is_flow(g, 0, *planes)
        assert not is_flow(g, 1 << 1 | 1 << 4, *planes)


class TestFlowPlanes:
    """flow_planes(g, drop) reads the flow of G - drop as two masks over
    g's own edge ids."""

    def test_drop_leaving_a_degree_one_vertex_rejected(self):
        g = complete_graph(4)
        with pytest.raises(PreconditionError):
            flow_planes(g, 1 << 0 | 1 << 1)  # vertex 0 keeps one edge

    def test_drop_leaving_a_bridge_gives_none(self):
        # The prism less two of its three rungs (edges 6, 7, 8) keeps the
        # third as a bridge; no other matching leaves one.
        g = prism_graph()
        bridged = [
            drop
            for drop in range(1 << g.m)
            if loop_is_matching(g, drop) and spanning_forest(minus(g, drop)[0]).bridges
        ]
        assert bridged == [1 << 6 | 1 << 7, 1 << 6 | 1 << 8, 1 << 7 | 1 << 8]
        for drop in range(1 << g.m):
            if loop_is_matching(g, drop) and drop.bit_count() <= 2:
                assert (flow_planes(g, drop) is None) == (drop in bridged)

    def test_is_flow_agrees_with_verify_flow(self, catalog):
        # On G - M for every matching M of at most two edges of every
        # catalog graph, read as values on G - M built as a graph of its
        # own: the planes found, which must also be the planes found on
        # that graph, and every change of one edge's value, including a
        # value put on an edge of M.
        flows = corrupted = 0
        for g in catalog:
            singles = [1 << e for e in range(g.m)]
            for drop in [0] + singles + [a | b for a, b in combinations(singles, 2)]:
                if not loop_is_matching(g, drop):
                    continue
                h, kept = minus(g, drop)

                def reference(s1, s2):
                    values = plane_values(g, (s1, s2))
                    return not (s1 | s2) & drop and verify_flow(h, [values[e] for e in kept])

                planes = flow_planes(g, drop)
                if planes is None:
                    assert flow_planes(h) is None
                    continue
                assert planes == tuple(
                    sum(1 << kept[e] for e in range(h.m) if plane >> e & 1)
                    for plane in flow_planes(h)
                )
                assert is_flow(g, drop, *planes) and reference(*planes)
                flows += 1
                for e in range(g.m):
                    for f1, f2 in ((1, 0), (0, 1), (1, 1)):
                        s1, s2 = planes[0] ^ f1 << e, planes[1] ^ f2 << e
                        assert is_flow(g, drop, s1, s2) == reference(s1, s2)
                        corrupted += 1
        assert flows > 1000 and corrupted > 50000


class TestCdcToFlow:
    def test_k4_hamiltonian_cdc(self):
        g = complete_graph(4)
        h1, h2, h3 = mask_of([0, 2, 3, 5]), mask_of([1, 2, 3, 4]), mask_of([0, 1, 4, 5])
        flow = cdc_to_flow(g, [h1, h2, h3])
        assert verify_flow(g, flow)

    def test_doubled_circuit(self):
        g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        c = (1 << g.m) - 1
        flow = cdc_to_flow(g, [c, c])
        assert flow == (1, 1, 1, 1)

    def test_too_many_elements_rejected(self):
        g = complete_graph(4)
        with pytest.raises(PreconditionError):
            cdc_to_flow(g, [0] * 5)

    def test_wrong_coverage_names_edges(self):
        g = complete_graph(4)
        h1 = mask_of([0, 2, 3, 5])
        with pytest.raises(PreconditionError) as exc:
            cdc_to_flow(g, [h1, h1])
        assert "[1, 4]" in str(exc.value)

import random

import pytest

from cdc5 import (
    Graph6Error,
    MultiGraph,
    PreconditionError,
    UnsupportedFormatError,
    flow_planes,
    is_even_subgraph,
    is_flow,
    parse_graph6,
    write_graph6,
)
from cdc5 import graphs
from cdc5.flows import _suppress
from cdc5.graphs import mask_ids, spanning_forest, vertex_faults

from .oracles import (
    bridged_cubic_graph,
    bridged_cubic_multigraph,
    brute_bridges,
    complete_graph,
    edge_mask,
    graph6_edges,
    graph6_line,
    loop_is_even_subgraph,
    loop_is_flow,
    loop_is_matching,
    petersen_graph,
    prism_graph,
    random_cubic_multigraph,
    subdivide,
    theta_multigraph,
)


class TestMultiGraph:
    def test_basic_accessors(self):
        g = MultiGraph(3, [(0, 1), (1, 2), (2, 2)])
        assert g.n == 3 and g.m == 3
        assert g.edges == ((0, 1), (1, 2), (2, 2))
        assert g.endpoints(1) == (1, 2)
        assert g.other_end(0, 1) == 0
        assert g.incident(2) == (1, 2)

    def test_loop_counts_twice_toward_degree(self):
        g = MultiGraph(2, [(0, 1), (1, 1)])
        assert g.degree(0) == 1
        assert g.degree(1) == 3
        assert g.loop_mask() == 0b10

    def test_parallel_edges_have_distinct_ids(self):
        g = theta_multigraph()
        assert g.m == 3
        assert g.is_cubic()
        assert not g.is_simple()
        assert g.incident(0) == (0, 1, 2)

    def test_endpoint_range_checked(self):
        with pytest.raises(ValueError):
            MultiGraph(2, [(0, 2)])
        with pytest.raises(ValueError):
            MultiGraph(-1, [])

    def test_equality_is_exact_edge_list(self):
        a = MultiGraph(3, [(0, 1), (1, 2)])
        b = MultiGraph(3, [(0, 1), (1, 2)])
        c = MultiGraph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_is_cubic_and_simple(self):
        assert complete_graph(4).is_cubic()
        assert complete_graph(4).is_simple()
        assert not complete_graph(5).is_cubic()
        assert not MultiGraph(2, [(0, 1), (0, 1)]).is_simple()
        assert not MultiGraph(1, [(0, 0)]).is_simple()


def test_mask_ids_lists_the_set_bits():
    assert mask_ids(0) == ()
    assert mask_ids(0b100101) == (0, 2, 5)
    assert mask_ids(1 << 90 | 1 << 61) == (61, 90)


class TestIsMatching:
    """A mask is a matching when vertex_faults sets no shared bit for it."""

    def test_disjoint_pair_is_matching(self):
        g = complete_graph(4)
        # ids: (0,1)=0 (0,2)=1 (1,2)=2 (0,3)=3 (1,3)=4 (2,3)=5
        assert not vertex_faults(g, [edge_mask(g, [0, 5])])[1]

    def test_shared_endpoint_is_not(self):
        g = complete_graph(4)
        assert vertex_faults(g, [edge_mask(g, [0, 2])])[1]

    def test_empty_is_vacuously_matching(self):
        assert not vertex_faults(complete_graph(4), [0])[1]

    def test_loops_never_match(self):
        g = MultiGraph(2, [(0, 1), (1, 1)])
        assert vertex_faults(g, [edge_mask(g, [1])])[1]


def random_pairing(degrees: list[int], seed: int) -> MultiGraph:
    """A random multigraph with the given degrees, loops and parallel edges
    allowed: a random pairing of the half-edges."""
    rng = random.Random(seed)
    ends = [v for v, d in enumerate(degrees) for _ in range(d)]
    rng.shuffle(ends)
    return MultiGraph(len(degrees), [(ends[i], ends[i + 1]) for i in range(0, len(ends), 2)])


def sample_masks(g: MultiGraph, rng: random.Random) -> list[int]:
    """Masks of every kind the checks meet: random sets, even subgraphs,
    even subgraphs with one edge toggled, matchings and near-matchings,
    and the empty and full sets."""
    vectors = spanning_forest(g).cycles
    out = [0, (1 << g.m) - 1]
    for _ in range(12):
        out.append(rng.getrandbits(g.m) if g.m else 0)
        even = 0
        for v in vectors:
            if rng.random() < 0.5:
                even ^= v
        out.append(even)
        if g.m:
            out.append(even ^ 1 << rng.randrange(g.m))
        used, matching = 0, 0
        for e in rng.sample(range(g.m), g.m):
            ends = g.vertex_masks[g.endpoints(e)[0]] | g.vertex_masks[g.endpoints(e)[1]]
            if not used & 1 << e and rng.random() < 0.7:
                matching |= 1 << e
                used |= ends
        out.append(matching)
        if g.m:
            out.append(matching | 1 << rng.randrange(g.m))
    return out


def vertex_fault_hosts() -> list[MultiGraph]:
    """Hosts for the vertex_faults cross-checks: small simple graphs, cubic
    multigraphs with parallel edges, and random multigraphs with loops and
    vertices of degree 4."""
    hosts = [complete_graph(4), complete_graph(5), prism_graph(), petersen_graph(),
             theta_multigraph(), bridged_cubic_multigraph(), subdivide(complete_graph(4), 2),
             MultiGraph(3, []), MultiGraph(0, []),
             MultiGraph(3, [(0, 0), (0, 0), (1, 2), (1, 2), (1, 1), (2, 2)]),
             MultiGraph(2, [(0, 0), (0, 0), (0, 1), (0, 1), (1, 1)])]
    hosts += [random_cubic_multigraph(n, seed) for n in (4, 8, 12) for seed in range(3)]
    hosts += [random_pairing([4, 3, 3, 4, 2, 4, 3, 3, 4, 2], seed) for seed in range(6)]
    return hosts


class TestVertexFaults:
    """vertex_faults against the per-mask vertex loops in tests/oracles."""

    def check_host(self, g, seed):
        rng = random.Random(seed)
        masks = sample_masks(g, rng)
        seen = set()
        odd, shared, crowded = vertex_faults(g, masks)
        for i, x in enumerate(masks):
            even, matching = loop_is_even_subgraph(g, x), loop_is_matching(g, x)
            assert (not (odd | crowded) >> i & 1) == even
            assert (not shared >> i & 1) == matching
            assert is_even_subgraph(g, x) == even
            counts = [(x & ~g.loop_mask() & vm).bit_count() for vm in g.vertex_masks]
            if not x & g.loop_mask():
                assert bool(odd >> i & 1) == any(c & 1 for c in counts)
                assert bool(shared >> i & 1) == any(c >= 2 for c in counts)
                assert bool(crowded >> i & 1) == any(c > 2 for c in counts)
            seen.add((even, matching))
        # One lane's verdict does not depend on the others in the call.
        for i, x in enumerate(masks):
            alone = vertex_faults(g, [x])
            assert alone == tuple(f >> i & 1 for f in (odd, shared, crowded))
        # Flow planes: is_flow against its loop, on planes whose union is
        # right and whose parity is random or, from flow_planes, even.
        full = (1 << g.m) - 1
        for x in masks:
            drop = x & rng.getrandbits(g.m) if g.m else 0
            s1 = rng.getrandbits(g.m) & full & ~drop if g.m else 0
            s2 = full & ~drop & ~s1 | (s1 & rng.getrandbits(g.m) if g.m else 0)
            for planes in ((s1, s2), (s1 | s2, 0), (s1, s2 | 1 << g.m)):
                want = loop_is_flow(g, drop, *planes)
                assert is_flow(g, drop, *planes) == want
                seen.add(("flow", want))
        return seen

    def test_catalog(self, catalog):
        seen = set()
        for i, g in enumerate(catalog):
            seen |= self.check_host(g, i)
            planes = flow_planes(g)
            if planes is not None:
                assert is_flow(g, 0, *planes) and loop_is_flow(g, 0, *planes)
        assert {(True, True), (True, False), (False, True), (False, False)} <= seen

    @pytest.mark.parametrize("index", range(len(vertex_fault_hosts())))
    def test_multigraphs_with_loops_and_degree_four(self, index):
        g = vertex_fault_hosts()[index]
        seen = self.check_host(g, 100 + index)
        if g.m:
            assert (False, False) in seen

    def test_loop_counts_four(self):
        # A loop is in no even subgraph or matching, and leaves parity alone.
        g = MultiGraph(3, [(0, 0), (0, 1), (1, 2), (1, 2), (1, 2), (2, 2)])
        masks = [0b1, 0b10, 0b11, 0b11100, 0b100000, 0b100011]
        assert vertex_faults(g, masks) == (0b101110, 0b111101, 0b111101)
        assert is_flow(g, 0, 0b100001, 0b011110) == loop_is_flow(g, 0, 0b100001, 0b011110)


def random_pair_sets(rng: random.Random, count: int):
    """count random vertex-pair sets (u < v) on n = 0..62 vertices, each
    pair kept with probability 1/2 to 1/32, so sparser graphs come too."""
    for _ in range(count):
        n = rng.randint(0, 62)
        keep = 0.5 ** rng.randint(1, 5)
        yield n, {(u, v) for v in range(1, n) for u in range(v) if rng.random() < keep}


class TestGraph6:
    def test_k4_parses_from_c_tilde(self):
        g = parse_graph6("C~")
        assert g.n == 4 and g.m == 6
        assert g.is_cubic() and g.is_simple()
        assert g.edges == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.m == 0

    def test_header_prefix_accepted(self):
        assert parse_graph6(">>graph6<<C~") == parse_graph6("C~")

    def test_write_k4(self):
        assert write_graph6(complete_graph(4)) == "C~"

    def test_write_single_vertex(self):
        assert write_graph6(MultiGraph(1, [])) == "@"

    def test_roundtrip_catalog(self, catalog_lines):
        for line in catalog_lines:
            assert write_graph6(parse_graph6(line)) == line

    def test_roundtrip_is_edge_order_insensitive(self):
        g = petersen_graph()
        line = write_graph6(g)
        h = parse_graph6(line)
        assert write_graph6(h) == line
        assert sorted(tuple(sorted(p)) for p in h.edges) == sorted(
            tuple(sorted(p)) for p in g.edges
        )

    def test_edges_match_the_per_pair_reading(self):
        for n, pairs in random_pair_sets(random.Random(6), 3000):
            line = graph6_line(n, pairs)
            g = parse_graph6(line)
            assert g.n == n
            assert list(g.edges) == graph6_edges(line)

    def test_write_matches_the_per_pair_encoding(self):
        rng = random.Random(7)
        for n, pairs in random_pair_sets(rng, 3000):
            edges = [p if rng.random() < 0.5 else p[::-1] for p in sorted(pairs)]
            rng.shuffle(edges)
            assert write_graph6(MultiGraph(n, edges)) == graph6_line(n, pairs)

    def test_empty_input_rejected(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("")
        assert exc.value.offset == 0

    def test_long_form_rejected(self):
        with pytest.raises(UnsupportedFormatError):
            parse_graph6("~??~?????")

    def test_bad_header_byte(self):
        for line in ("!", "\x7f"):
            with pytest.raises(Graph6Error, match="header byte .* outside graph6 range") as exc:
                parse_graph6(line)
            assert exc.value.offset == 0

    def test_truncated_payload(self):
        for line, offset in (("C", 1), ("C~~", 2)):
            with pytest.raises(Graph6Error, match="expected 1 payload bytes") as exc:
                parse_graph6(line)
            assert exc.value.offset == offset

    def test_payload_byte_out_of_range(self):
        for line in ("C!", "C\x7f"):
            with pytest.raises(Graph6Error, match="payload byte .* outside graph6 range") as exc:
                parse_graph6(line)
            assert exc.value.offset == 1

    def test_nonzero_padding_rejected(self):
        # n=3 uses 3 bits plus 3 padding bits; 'F' = 63 + 0b000111.
        with pytest.raises(Graph6Error, match="nonzero padding bits") as exc:
            parse_graph6("BF")
        assert exc.value.offset == 1

    def test_non_ascii_rejected(self):
        with pytest.raises(Graph6Error, match="non-ASCII") as exc:
            parse_graph6("Bé")
        assert exc.value.offset == 1

    def test_multigraph_not_writable(self):
        with pytest.raises(UnsupportedFormatError):
            write_graph6(theta_multigraph())
        with pytest.raises(UnsupportedFormatError):
            write_graph6(MultiGraph(1, [(0, 0)]))

    def test_large_graph_not_writable(self):
        with pytest.raises(UnsupportedFormatError):
            write_graph6(MultiGraph(63, []))


class TestBridges:
    def test_k4_has_none(self):
        assert spanning_forest(complete_graph(4)).bridges == 0

    def test_two_triangles_joined_by_one_edge(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        g = MultiGraph(6, edges)
        assert mask_ids(spanning_forest(g).bridges) == (6,)

    def test_circuit_has_none(self):
        g = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert spanning_forest(g).bridges == 0

    def test_parallel_pair_is_no_bridge(self):
        g = MultiGraph(2, [(0, 1), (0, 1)])
        assert spanning_forest(g).bridges == 0

    def test_loop_is_no_bridge(self):
        g = MultiGraph(2, [(0, 1), (1, 1), (0, 0)])
        assert mask_ids(spanning_forest(g).bridges) == (0,)

    def test_tree_is_all_bridges(self):
        g = MultiGraph(4, [(0, 1), (1, 2), (1, 3)])
        assert mask_ids(spanning_forest(g).bridges) == (0, 1, 2)

    @pytest.mark.parametrize(
        "builder",
        [
            bridged_cubic_graph,
            bridged_cubic_multigraph,
            prism_graph,
            theta_multigraph,
            petersen_graph,
            lambda: MultiGraph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6), (6, 6)]),
        ],
    )
    def test_agrees_with_removal_oracle(self, builder):
        g = builder()
        assert sorted(mask_ids(spanning_forest(g).bridges)) == brute_bridges(g)

    def test_agrees_with_removal_oracle_on_catalog(self, catalog):
        for g in catalog:
            assert spanning_forest(g).bridges == 0
            assert brute_bridges(g) == []

    def test_subdivision_turns_no_edge_into_bridge(self):
        g = subdivide(complete_graph(4), 2, times=2)
        assert sorted(mask_ids(spanning_forest(g).bridges)) == brute_bridges(g) == []


def components(g: MultiGraph) -> list[list[int]]:
    """The spanning forest's components as sorted vertex lists."""
    return [sorted(comp) for comp in spanning_forest(g).components]


class TestComponents:
    def test_connected_graph(self):
        assert components(complete_graph(4)) == [[0, 1, 2, 3]]

    def test_two_triangles(self):
        g = MultiGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert components(g) == [[0, 1, 2], [3, 4, 5]]

    def test_isolated_vertices(self):
        assert components(MultiGraph(3, [])) == [[0], [1], [2]]

    def test_empty_graph(self):
        assert components(MultiGraph(0, [])) == []


def random_multigraph(seed: int) -> MultiGraph:
    """A seeded random multigraph on 0-30 vertices: its vertices are split
    into one to four blocks with edges only inside a block, so it has
    several components and isolated vertices, and some edges are loops or
    parallel copies.  Every fifth one is a union of random cubic pairings."""
    rng = random.Random(seed)
    n = rng.randrange(31)
    if seed % 5 == 0 and n:
        base, edges = 0, []
        for _ in range(rng.randrange(1, 4)):
            part = random_pairing([3] * 2 * rng.randrange(1, 5), rng.randrange(10**6))
            edges += [(u + base, v + base) for u, v in part.edges]
            base += part.n
        return MultiGraph(base, edges)
    labels = list(range(n))
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randrange(4)))) if n > 1 else []
    blocks = [labels[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    edges = []
    for _ in range(rng.randrange(2 * n + 1)):
        block = rng.choice(blocks)
        kind = rng.random()
        if kind < 0.1 and edges:
            edges.append(rng.choice(edges))  # a parallel copy
        elif kind < 0.2:
            v = rng.choice(block)
            edges.append((v, v))
        else:
            edges.append((rng.choice(block), rng.choice(block)))
    return MultiGraph(n, edges)


def flood_fill_components(g: MultiGraph) -> list[list[int]]:
    """Components by a plain flood fill over neighbour sets."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    out, seen = [], set()
    for root in range(g.n):
        if root in seen:
            continue
        comp, todo = {root}, [root]
        while todo:
            for w in nbrs[todo.pop()] - comp:
                comp.add(w)
                todo.append(w)
        seen |= comp
        out.append(sorted(comp))
    return out


class TestKernelsOnRandomMultigraphs:
    """bridges, the forest's components and the MultiGraph tables against
    per-edge references on about 300 seeded random multigraphs."""

    GRAPHS = [random_multigraph(seed) for seed in range(300)]

    def test_the_graphs_have_every_feature(self):
        assert {g.n for g in self.GRAPHS} >= {0, 1, 30}
        assert sum(bool(g.loop_mask()) for g in self.GRAPHS) > 100
        assert sum(not g.is_simple() and not g.loop_mask() for g in self.GRAPHS) > 5
        assert sum(len(components(g)) > 2 for g in self.GRAPHS) > 100
        assert sum(any(g.degree(v) == 0 for v in range(g.n)) for g in self.GRAPHS) > 100
        assert sum(g.is_cubic() and g.n > 0 for g in self.GRAPHS) > 30
        assert sum(bool(brute_bridges(g)) for g in self.GRAPHS) > 100

    def test_bridges_agree_with_removal_oracle(self):
        for g in self.GRAPHS:
            assert list(mask_ids(spanning_forest(g).bridges)) == brute_bridges(g)

    def test_components_agree_with_flood_fill(self):
        for g in self.GRAPHS:
            assert components(g) == flood_fill_components(g)

    def test_tables_agree_with_per_edge_reference(self):
        for g in self.GRAPHS:
            degrees = [sum((u == v) + (w == v) for u, w in g.edges) for v in range(g.n)]
            incident = [tuple(e for e, ends in enumerate(g.edges) if v in ends) for v in range(g.n)]
            assert [g.degree(v) for v in range(g.n)] == degrees
            assert [g.incident(v) for v in range(g.n)] == incident
            assert list(g.vertex_masks) == [sum(1 << e for e in inc) for inc in incident]
            assert g.loop_mask() == sum(1 << e for e, (u, v) in enumerate(g.edges) if u == v)
            assert g.is_cubic() == all(d == 3 for d in degrees)

    def test_forest_is_walked_once_and_bridges_stay_fresh(self, monkeypatch):
        # New copies, so that no test before this one has walked them.  The
        # one walk per copy serves the cycles, the bridges and the
        # components.
        walked = []
        walk = graphs._walk_forest
        monkeypatch.setattr(graphs, "_walk_forest", lambda g: walked.append(g) or walk(g))
        copies = [MultiGraph(g.n, g.edges) for g in self.GRAPHS]
        for g in copies:
            forest = spanning_forest(g)
            assert walked[-1] is g
            assert list(mask_ids(forest.bridges)) == brute_bridges(g)
            assert spanning_forest(g) is forest
            assert components(g) == flood_fill_components(g)
        assert len(walked) == len(copies)
        assert all(a is b for a, b in zip(walked, copies))

    def test_equal_graphs_keep_separate_forests(self, monkeypatch):
        walked = []
        walk = graphs._walk_forest
        monkeypatch.setattr(graphs, "_walk_forest", lambda g: walked.append(g) or walk(g))
        g = bridged_cubic_graph()
        h = MultiGraph(g.n, g.edges)
        assert g == h and g is not h
        assert spanning_forest(g) is not spanning_forest(h)
        assert spanning_forest(g).bridges == spanning_forest(h).bridges != 0
        assert len(walked) == 2 and walked[0] is g and walked[1] is h


class TestSuppression:
    """flows._suppress: the 3-regular graph G - drop suppresses to, and the
    chain of G's edges behind each of its edges."""

    def test_three_paths_between_two_vertices(self):
        # 0 and 1 joined by three length-2 paths through 2, 3, 4.
        g = MultiGraph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
        h, chains = _suppress(g, 0)
        assert h.n == 2
        assert h.edges == ((0, 1), (0, 1), (0, 1))
        assert chains == [0b11, 0b1100, 0b110000]

    def test_subdivided_k4_suppresses_back(self):
        g = subdivide(complete_graph(4), 0, times=1)
        h, chains = _suppress(g, 0)
        assert h.n == 4 and h.m == 6
        assert h.is_cubic()
        assert sum(chain.bit_count() for chain in chains) == g.m
        assert sorted(chain.bit_count() for chain in chains) == [1, 1, 1, 1, 1, 2]

    def test_lone_circuit_becomes_component(self):
        # A circuit has no degree-3 vertex, so none of its edges is on a
        # chain; nor is any edge of K4 less a perfect matching.
        g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        h, chains = _suppress(g, 0)
        assert h.n == 0 and chains == []
        h, chains = _suppress(complete_graph(4), 1 << 0 | 1 << 5)
        assert h.n == 0 and chains == []

    def test_cubic_graph_keeps_every_edge_as_singleton_path(self):
        g = petersen_graph()
        h, chains = _suppress(g, 0)
        assert h.n == g.n and h.m == g.m
        assert all(chain.bit_count() == 1 for chain in chains)
        ids = [chain.bit_length() - 1 for chain in chains]
        assert sorted(ids) == list(range(15))
        for e, orig in enumerate(ids):
            assert sorted(h.endpoints(e)) == sorted(g.endpoints(orig))

    def test_bridged_dumbbell_suppresses_to_loops(self):
        # Two triangles joined by a bridge: each triangle's far side walks
        # back to its degree-3 corner, so suppression produces loops.
        g = MultiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        h, chains = _suppress(g, 0)
        assert h.edges == ((0, 0), (0, 1), (1, 1))
        assert chains == [0b111, 1 << 6, 0b111000]

    def test_wrong_degrees_rejected(self):
        with pytest.raises(PreconditionError):
            _suppress(MultiGraph(2, [(0, 1)]), 0)
        with pytest.raises(PreconditionError):
            _suppress(complete_graph(4), 1 << 0 | 1 << 1)


class TestPetersenFixture:
    def test_shape(self):
        g = petersen_graph()
        assert g.n == 10 and g.m == 15
        assert g.is_cubic() and g.is_simple()

    def test_matches_frozen_file(self, data_dir):
        from .conftest import read_graph6_lines

        (line,) = read_graph6_lines("petersen.g6")
        assert write_graph6(petersen_graph()) == line

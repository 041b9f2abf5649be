import random

import pytest

from cdc5 import (
    InvariantViolationError,
    MultiGraph,
    PreconditionError,
    flow_planes,
    verify_certificate,
)
from cdc5.certificates import (
    PATH_M_EMPTY,
    Certificate,
    CertificateFrame,
    _check,
    build_certificate,
)
from cdc5.cover import coverage_masks, extend_to_cdc

from .oracles import (
    bridged_cubic_graph,
    cdc_to_flow,
    complete_graph,
    edge_mask,
    enumerate_even_subgraphs,
    extract_witness,
    loop_is_matching,
    loop_verify_cdc,
    mask_of,
    minus,
    petersen_graph,
    prism_graph,
    random_cubic_multigraph,
    replays_as_flow,
    theta_multigraph,
)

K4 = complete_graph(4)
# K4 edge ids: (0,1)=0 (0,2)=1 (1,2)=2 (0,3)=3 (1,3)=4 (2,3)=5
# Edge sets are masks here, as the cover and the check core take them.
HAMILTONIANS = [
    mask_of([0, 2, 3, 5]),  # 0-1-2-3-0
    mask_of([1, 2, 3, 4]),  # 0-2-1-3-0
    mask_of([0, 1, 4, 5]),  # 0-1-3-2-0
]


def full_set(g):
    return (1 << g.m) - 1


def core_problems(g, elements, c0=0):
    """The problems the certificate check core finds with a cover, c0 (empty
    unless given) and empty c1, c2 and matching, claiming all twos."""
    stats = {"candidates_tried": 1, "elapsed_ms": 0}
    return _check(g, c0, 0, 0, 0, elements, (2,) * g.m, PATH_M_EMPTY, stats)


def gate_fields(covers, planes):
    """The edge masks an answer built from covers and planes would carry:
    the first two covers stand as c1 and c2 (empty when absent), c1 also
    as c0, their overlap as the matching, and the closed form's cover."""
    c1, c2 = (list(covers) + [0, 0])[:2]
    return c1, c1, c2, c1 & c2, extend_to_cdc(covers, planes)


def gate_problems(g, covers, planes):
    """The problems build_certificate, the gate on a found cover, raises
    with the gate_fields of covers and planes."""
    with pytest.raises(InvariantViolationError) as exc:
        build_certificate(CertificateFrame(g), *gate_fields(covers, planes), 1, 0)
    head, _, problems = str(exc.value).partition(": ")
    assert head == "constructed certificate fails verification"
    return problems.split("; ")


def uncovered(edges, times):
    """The gate's problems for edges covered `times` times."""
    return [f"edge {e} is covered {times} times, expected 2" for e in edges]


def cover_problems(g, elements):
    """The problems core_problems finds with the cover itself: its empty and
    uneven elements, its edges covered other than twice and the tally."""
    prefixes = ("cdc[", "edge ", "coverage ")
    return [p for p in core_problems(g, elements) if p.startswith(prefixes)]


def loop_cover_problems(g, elements):
    """cover_problems as the edge-by-edge reference loop_verify_cdc
    predicts them."""
    report = loop_verify_cdc(g, elements)
    errors = report.coverage_errors
    problems = [f"cdc[{i}] is empty" for i in report.empty]
    problems += [f"cdc[{i}] is not an even subgraph" for i in report.non_even]
    problems += [f"edge {e} is covered {report.coverage[e]} times, expected 2" for e in errors]
    if errors:
        tally = f"coverage field does not match the recomputed tally at edges {list(errors)}"
        problems.append(tally)
    return problems


class TestVerifyCdc:
    """The cover checks of the certificate check core."""

    def test_k4_hamiltonians_are_a_3cdc(self):
        assert cover_problems(K4, HAMILTONIANS) == []
        assert loop_verify_cdc(K4, HAMILTONIANS).coverage == (2,) * 6

    def test_removing_an_element_reports_its_four_edges(self):
        assert cover_problems(K4, HAMILTONIANS[:2]) == [
            "edge 0 is covered 1 times, expected 2",
            "edge 1 is covered 1 times, expected 2",
            "edge 4 is covered 1 times, expected 2",
            "edge 5 is covered 1 times, expected 2",
            "coverage field does not match the recomputed tally at edges [0, 1, 4, 5]",
        ]
        assert loop_verify_cdc(K4, HAMILTONIANS[:2]).coverage == (1, 1, 2, 2, 1, 1)

    def test_doubled_circuit_is_a_2cdc(self):
        g = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        c = full_set(g)
        assert cover_problems(g, [c, c]) == []

    def test_empty_elements_flagged(self):
        g = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert cover_problems(g, [full_set(g), 0, full_set(g)]) == [
            "cdc[1] is empty"
        ]

    def test_non_even_elements_flagged(self):
        problems = cover_problems(K4, [mask_of([0]), full_set(K4)])
        assert "cdc[0] is not an even subgraph" in problems

    def test_wrong_host_rejected(self):
        # A mask of the prism names edges 6..8, which K4 lacks.
        with pytest.raises(ValueError):
            build_certificate(CertificateFrame(K4), 0, 0, 0, 0, [full_set(prism_graph())], 1, 0)
        with pytest.raises(ValueError):
            loop_verify_cdc(K4, [full_set(prism_graph())])

    def test_accepts_cdc_instances(self):
        # A cover is a sequence of elements, such as the tuple extend_to_cdc returns.
        cdc = extend_to_cdc([HAMILTONIANS[0]], flow_planes(K4))
        assert type(cdc) is tuple and cover_problems(K4, cdc) == []


def reference_replays_as_flow(g, c1, c2, matching, elements):
    """The flow witness as cdc_to_flow decides it on G - M built as a graph
    of its own."""
    if c1 & c2 != matching:
        return False
    rest = list(elements)
    for c in (c1, c2):
        if c:
            if c not in rest:
                return False
            rest.remove(c)
    if c1 ^ c2:
        rest.append(c1 ^ c2)
    if any(el & matching for el in rest):
        return False
    h, kept = minus(g, matching)
    renumbered = [mask_of(i for i, e in enumerate(kept) if el >> e & 1) for el in rest]
    try:
        cdc_to_flow(h, renumbered)
    except (PreconditionError, InvariantViolationError):
        return False
    return True


def random_covers(g, rng, count):
    """Valid covers from extend_to_cdc on pairs of even subgraphs, each
    also with one element swapped, dropped or doubled, random families of
    even and odd edge sets, and double covers by odd sets: (c1, c2,
    elements) triples."""
    evens = list(enumerate_even_subgraphs(g))
    out = []
    while len(out) < count:
        c1, c2 = rng.choice(evens), rng.choice(evens)
        twice = c1 & c2
        planes = flow_planes(g, twice) if loop_is_matching(g, twice) else None
        if planes is not None:
            cover = list(extend_to_cdc([c for c in (c1, c2) if c], planes))
        else:
            cover = [rng.choice(evens) for _ in range(rng.randrange(6))]
        out.append((c1, c2, cover))
        if cover:
            i = rng.randrange(len(cover))
            swapped = cover[:i] + [rng.choice(evens)] + cover[i + 1:]
            dropped, doubled = cover[:i] + cover[i + 1:], cover + [cover[i]]
            out += [(c1, c2, swapped), (c1, c2, dropped), (c1, c2, doubled)]
        odd = rng.getrandbits(g.m)
        out.append((c1, c2, [c1, c2, odd][: rng.randrange(4)]))
        # A double cover by odd sets: each edge lies in odd or its
        # complement, and in the full set.
        full = full_set(g)
        out.append((0, 0, [odd, full ^ odd, full]))
    return out


class TestBitParallelCounts:
    GRAPHS = [K4, petersen_graph(), prism_graph(), theta_multigraph(), random_cubic_multigraph(8, 3)]

    def test_coverage_masks(self):
        once, twice, more = coverage_masks([0b0111, 0b0110, 0b1100, 0b0100])
        assert (once, twice, more) == (0b1001, 0b0010, 0b0100)

    @pytest.mark.parametrize("g", GRAPHS)
    def test_verify_cdc_matches_the_edge_loop(self, g):
        # The check core's bit-parallel cover tally against the edge loop.
        rng = random.Random(g.m)
        kinds = ("is empty", "is not an even subgraph", "times, expected 2")
        seen = set()
        for c1, c2, cover in random_covers(g, rng, 150):
            want = loop_cover_problems(g, cover)
            assert cover_problems(g, cover) == want
            seen.update(kind for kind in kinds for p in want if kind in p)
        assert seen == set(kinds)

    @pytest.mark.parametrize("g", GRAPHS)
    def test_replays_as_flow_matches_cdc_to_flow(self, g):
        rng = random.Random(g.n)
        seen = set()
        for c1, c2, cover in random_covers(g, rng, 150):
            m_set = c1 & c2 if rng.random() < 0.9 else 0
            want = reference_replays_as_flow(g, c1, c2, m_set, cover)
            assert replays_as_flow(g, c1, c2, m_set, cover) == want
            seen.add(want)
        assert seen == {True, False}


UNCONTAINED = "no cover element contains c0"


class TestContainsElementSuperset:
    """Whether a cover element contains c0, as the check core asks it, and
    the first such element, which extract_witness takes as C1."""

    def test_empty_subgraph_hits_first_element(self):
        assert UNCONTAINED not in core_problems(K4, HAMILTONIANS)
        assert extract_witness(K4, HAMILTONIANS, 0)[1] == HAMILTONIANS[0]
        assert UNCONTAINED in core_problems(K4, [])

    def test_element_equal_to_query(self):
        assert UNCONTAINED not in core_problems(K4, HAMILTONIANS, HAMILTONIANS[2])
        assert extract_witness(K4, HAMILTONIANS, HAMILTONIANS[2])[1] == HAMILTONIANS[2]

    def test_least_index_wins(self):
        shared = mask_of([2, 3])  # lies in the first two Hamiltonians
        assert extract_witness(K4, HAMILTONIANS, shared)[1] == HAMILTONIANS[0]

    def test_none_when_uncontained(self):
        triangle = mask_of([0, 1, 2])
        assert UNCONTAINED in core_problems(K4, HAMILTONIANS, triangle)


class TestFourCdcContaining:
    """extend_to_cdc with one even subgraph c': the closed-form cover of at
    most four elements with c' among them."""

    def test_k4_triangle(self):
        triangle = mask_of([0, 1, 2])
        cdc = extend_to_cdc([triangle], flow_planes(K4))
        assert len(cdc) <= 4
        assert loop_verify_cdc(K4, cdc).valid
        assert triangle in cdc

    def test_k4_empty_prescription(self):
        cdc = extend_to_cdc([0], flow_planes(K4))
        assert len(cdc) <= 3
        assert loop_verify_cdc(K4, cdc).valid

    def test_every_k4_even_subgraph_works(self):
        planes = flow_planes(K4)
        for c in enumerate_even_subgraphs(K4):
            cdc = extend_to_cdc([c], planes)
            assert loop_verify_cdc(K4, cdc).valid
            if c:
                assert c in cdc

    def test_deterministic(self):
        triangle = mask_of([0, 1, 2])
        a = extend_to_cdc([triangle], flow_planes(K4))
        b = extend_to_cdc([triangle], flow_planes(K4))
        assert a == b

    # With one even subgraph nothing is covered twice, so the cover needs
    # a flow of the whole graph, which these hosts lack.
    def test_petersen_has_no_such_cover(self, petersen):
        assert flow_planes(petersen, 0) is None

    def test_bridged_host_has_no_such_cover(self):
        assert flow_planes(bridged_cubic_graph(), 0) is None

    def test_loop_host_rejected(self):
        # On a cubic host a loop's vertex meets one other edge, a bridge,
        # so no flow exists.
        assert flow_planes(MultiGraph(2, [(0, 1), (0, 0), (1, 1)]), 0) is None

    def test_odd_prescription_rejected(self):
        # The closed form reads a cover off an odd c' too; the gate refuses
        # it and the elements it made uneven.
        problems = gate_problems(K4, [mask_of([0])], flow_planes(K4))
        assert problems[:2] == ["c0 is not an even subgraph", "c1 is not an even subgraph"]
        assert "cdc[0] is not an even subgraph" in problems

    def test_cover_is_the_closed_form_of_the_flow(self):
        # c' ^ S1, c' ^ S2, c' ^ S1 ^ S2 and c', with S1, S2 the bit planes.
        triangle = mask_of([0, 1, 2])
        planes = flow_planes(K4)
        s1, s2 = planes
        expected = [triangle ^ s1, triangle ^ s2, triangle ^ s1 ^ s2, triangle]
        assert list(extend_to_cdc([triangle], planes)) == [x for x in expected if x]

    def test_flow_of_another_graph_rejected(self):
        # K4's planes name 6 of the prism's 9 edges, so the cover misses
        # the other three.
        g = prism_graph()
        problems = gate_problems(g, [0], flow_planes(K4))
        assert uncovered([6, 7, 8], 0) == [p for p in problems if p.startswith("edge ")]

    def test_flow_of_a_larger_graph_rejected(self):
        # The prism's planes name edges 6..8, which K4 lacks: the gate
        # refuses the cover before checking it.
        cdc = extend_to_cdc([0], flow_planes(prism_graph()))
        assert any(x >> K4.m for x in cdc)
        with pytest.raises(ValueError):
            build_certificate(CertificateFrame(K4), 0, 0, 0, 0, cdc, 1, 0)


class TestExtendToCdc:
    def test_single_triangle_on_k4(self):
        triangle = mask_of([0, 1, 2])
        cdc = extend_to_cdc([triangle], flow_planes(K4))
        assert len(cdc) <= 4
        assert loop_verify_cdc(K4, cdc).valid
        assert triangle in cdc

    def test_no_covers_degenerates_to_plain_cdc(self):
        cdc = extend_to_cdc([], flow_planes(K4))
        assert len(cdc) <= 3
        assert loop_verify_cdc(K4, cdc).valid

    def test_two_covers_with_matching_overlap(self):
        t1 = mask_of([0, 1, 2])  # triangle 0-1-2
        t2 = mask_of([2, 4, 5])  # triangle 1-2-3, shares edge 2
        cdc = extend_to_cdc([t1, t2], flow_planes(K4, t1 & t2))
        assert len(cdc) <= 5
        assert loop_verify_cdc(K4, cdc).valid
        elements = list(cdc)
        assert t1 in elements and t2 in elements

    def test_given_flow_replaces_the_decision(self, monkeypatch):
        # extend_to_cdc decides no flow: it reads the cover off the planes
        # given, even with the 3-edge-colourer made to raise.
        t1 = mask_of([0, 1, 2])
        t2 = mask_of([2, 4, 5])
        planes, whole = flow_planes(K4, t1 & t2), flow_planes(K4)

        def refuse(g):
            raise AssertionError("extend_to_cdc decided a flow")

        monkeypatch.setattr("cdc5.flows.three_edge_color", refuse)
        assert loop_verify_cdc(K4, extend_to_cdc([t1, t2], planes)).valid
        # The pair overlaps in edge 2, so a flow of K4 itself is no flow of
        # K4 minus the matching: its planes cover edge 2 twice more.
        assert gate_problems(K4, [t1, t2], whole) == uncovered([2], 4) + [
            "coverage field does not match the recomputed tally at edges [2]"
        ]

    def test_planes_that_are_no_flow_rejected(self):
        # Every planes bit flipped in turn, on edges of G - M and of M.
        t1 = mask_of([0, 1, 2])
        t2 = mask_of([2, 4, 5])
        # A flipped bit makes the two elements holding that plane uneven.
        s1, s2 = flow_planes(K4, t1 & t2)
        for e in range(K4.m):
            for planes in ((s1 ^ 1 << e, s2), (s1, s2 ^ 1 << e)):
                uneven = [p for p in gate_problems(K4, [t1, t2], planes) if p.startswith("cdc[")]
                assert len(uneven) == 2
                assert all(p.endswith("is not an even subgraph") for p in uneven)
        # Value 1 on every edge, once accepted for its edge list, is no flow:
        # its planes give the full edge set twice, odd at every vertex.
        assert gate_problems(K4, [], ((1 << K4.m) - 1, 0)) == [
            "cdc[0] is not an even subgraph", "cdc[1] is not an even subgraph"
        ]

    def test_empty_covers_are_left_out(self):
        # The search hands over C2 = ∅ as a cover; it adds no element.
        triangle = mask_of([0, 1, 2])
        cdc = extend_to_cdc([triangle, 0], flow_planes(K4))
        assert cdc == extend_to_cdc([triangle], flow_planes(K4))
        assert 0 not in cdc

    def test_prism_pair(self):
        g = prism_graph()
        t1 = mask_of([0, 1, 2])
        t2 = mask_of([3, 4, 5])
        cdc = extend_to_cdc([t1, t2], flow_planes(g))
        assert loop_verify_cdc(g, cdc).valid
        assert len(cdc) <= 5

    def test_condition1_overfull_edge(self):
        # Condition 1: no edge lies in more than two covers.
        t = mask_of([0, 1, 2])
        problems = gate_problems(K4, [t, t, t], flow_planes(K4))
        assert uncovered([0, 1, 2], 5) == [p for p in problems if p.startswith("edge ")]
        assert "cover has 6 elements, more than 5" in problems

    def test_condition2_adjacent_overlap(self):
        # Condition 2: the twice-covered edges form a matching.
        quad = mask_of([0, 2, 3, 5])  # 0-1-2-3-0
        tri = mask_of([0, 1, 2])  # shares edges 0 and 2, meeting at vertex 1
        problems = gate_problems(K4, [quad, tri], flow_planes(K4))
        assert problems[0] == "matching edges share an endpoint"
        assert uncovered([0, 2], 4) == [p for p in problems if p.startswith("edge ")]

    def test_condition3_flowless_remainder(self, petersen):
        # The pair passes conditions 1 and 2, but the Petersen graph minus
        # their empty overlap has no flow, so no planes complete the cover:
        # with none the five spokes stay uncovered and the pentagons are
        # covered four times.
        outer = mask_of(range(5))
        inner = mask_of(range(10, 15))
        assert flow_planes(petersen, outer & inner) is None
        problems = gate_problems(petersen, [outer, inner], (0, 0))
        assert [p for p in problems if p.startswith("edge ")] == (
            uncovered(range(5), 4) + uncovered(range(5, 10), 0) + uncovered(range(10, 15), 4)
        )
        assert "matching edges share an endpoint" not in problems

    def test_non_cubic_rejected(self):
        g = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert gate_problems(g, [full_set(g)], (0, 0))[0] == "graph is not cubic"

    def test_odd_cover_rejected(self):
        # An odd C2 beside an even C1: the gate names C2 alone.
        tri = mask_of([0, 1, 2])
        odd = mask_of([5])
        problems = gate_problems(K4, [tri, odd], flow_planes(K4))
        assert "c2 is not an even subgraph" in problems
        assert not any(p.startswith(("c0 ", "c1 ")) for p in problems)

    def test_three_disjoint_covers(self):
        # Three pairwise disjoint even subgraphs on the prism: the two
        # triangles plus nothing else disjoint remains; use triangles and
        # the square 0-1-4-3-0 which overlaps each triangle in one edge.
        g = prism_graph()
        t1 = mask_of([0, 1, 2])
        t2 = mask_of([3, 4, 5])
        square = mask_of([0, 6, 3, 7])
        twice = coverage_masks([t1, t2, square])[1]
        cdc = extend_to_cdc([t1, t2, square], flow_planes(g, twice))
        assert loop_verify_cdc(g, cdc).valid
        assert len(cdc) <= 6
        for c in (t1, t2, square):
            assert c in cdc


def refused_inputs():
    """Inputs of the closed form that the gate refuses, one per kind."""
    t1, t2 = mask_of([0, 1, 2]), mask_of([2, 4, 5])
    quad = mask_of([0, 2, 3, 5])
    g = petersen_graph()
    cycle = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    return {
        "not cubic": (cycle, [full_set(cycle)], (0, 0)),
        "odd cover": (K4, [t1, mask_of([5])], flow_planes(K4)),
        "overfull edge": (K4, [t1, t1, t1], flow_planes(K4)),
        "overlap no matching": (K4, [quad, t1], flow_planes(K4)),
        "planes no flow": (K4, [t1, t2], flow_planes(K4)),
        "flowless remainder": (g, [mask_of(range(5)), mask_of(range(10, 15))], (0, 0)),
    }


@pytest.mark.parametrize("kind", list(refused_inputs()))
def test_verification_refuses_what_the_build_refuses(kind):
    # The gate is build_certificate on the search's edge masks and
    # verify_certificate on a document: both run the check core, so the
    # document of a refused answer gets the same problems.
    g, covers, planes = refused_inputs()[kind]
    c0, c1, c2, matching, cdc = gate_fields(covers, planes)
    cert = Certificate(CertificateFrame(g), c0, c1, c2, matching, tuple(cdc), 1, 0)
    assert verify_certificate(cert.to_doc()) == gate_problems(g, covers, planes)


class TestExtractWitness:
    def test_k4_hamiltonian_cdc(self):
        m_set, c1, c2 = extract_witness(K4, HAMILTONIANS, mask_of([0]))
        assert c1 == HAMILTONIANS[0]
        assert c2 == HAMILTONIANS[1]
        assert m_set == mask_of([2, 3])
        assert loop_is_matching(K4, m_set)

    def test_two_element_cdc_of_cubic_multigraph(self):
        g = theta_multigraph()
        a, b, c = mask_of([0, 1]), mask_of([0, 2]), mask_of([1, 2])
        m_set, c1, c2 = extract_witness(g, [a, b, c], a)
        assert c1 == a and c2 == b
        assert m_set == mask_of([0])

    def test_c2_empty_when_single_element(self):
        g = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        # Not cubic, so the host precondition must fire.
        with pytest.raises(PreconditionError):
            extract_witness(g, [full_set(g), full_set(g)], full_set(g))

    def test_roundtrip_from_search(self, petersen):
        # The extracted pair need not equal the certificate's (C2 is taken
        # in element order), but it must be a witness in its own right.
        from cdc5 import find_5cdc_containing

        pentagon = edge_mask(petersen, range(5))
        cert = find_5cdc_containing(petersen, pentagon)
        elements = list(cert.cdc)
        m_set, c1, c2 = extract_witness(petersen, elements, pentagon)
        assert pentagon & ~c1 == 0
        assert m_set == c1 & c2
        assert loop_is_matching(petersen, m_set)
        assert flow_planes(petersen, m_set) is not None
        assert c1 in elements and c2 in elements

    def test_too_many_elements_rejected(self):
        sixfold = [full_set(K4)] * 6
        with pytest.raises(PreconditionError):
            extract_witness(K4, sixfold, 0)

    def test_invalid_cover_rejected(self):
        with pytest.raises(PreconditionError):
            extract_witness(K4, HAMILTONIANS[:2], 0)

    def test_uncontained_prescription_rejected(self):
        triangle = mask_of([0, 1, 2])
        with pytest.raises(PreconditionError):
            extract_witness(K4, HAMILTONIANS, triangle)

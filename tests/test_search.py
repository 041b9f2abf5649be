import json
import random

import pytest

from cdc5 import (
    CapacityError,
    EdgeSet,
    MultiGraph,
    PreconditionError,
    SearchContext,
    SearchOptions,
    circuit_sweep,
    cycle_space_basis,
    delete_edges,
    enumerate_circuits,
    enumerate_even_subgraphs,
    find_5cdc_containing,
    has_5cdc,
    has_nz4flow,
    is_circuit,
    is_matching,
    petersen_graph,
    petersen_shortcut_check,
    solve_affine,
    verify_certificate,
)

from .oracles import (
    bridged_cubic_graph,
    complete_graph,
    flower_snark,
    prism_graph,
    shuffled,
)


def normalized(cert):
    doc = cert.to_doc()
    doc["stats"].pop("elapsed_ms")
    return json.dumps(doc)


class TestFindOnK4:
    def test_triangle_takes_the_first_candidate(self):
        g = complete_graph(4)
        triangle = EdgeSet.of(g, [0, 1, 2])
        cert = find_5cdc_containing(g, triangle)
        assert cert is not None
        assert cert.candidates_tried == 1
        assert cert.path == "m-empty"
        assert cert.c2 == () and cert.matching == ()
        assert cert.c0 == (0, 1, 2)
        assert tuple(cert.c0) in cert.cdc
        assert len(cert.cdc) <= 4
        assert verify_certificate(cert.to_doc()) == []

    def test_empty_prescription(self):
        g = complete_graph(4)
        cert = find_5cdc_containing(g, EdgeSet.empty(g))
        assert cert is not None
        assert cert.c0 == ()
        assert cert.path == "m-empty"

    def test_has_5cdc_wrapper(self):
        cert = has_5cdc(complete_graph(4))
        assert cert is not None and cert.c0 == ()


class TestFindOnPetersen:
    def test_outer_pentagon(self, petersen):
        pentagon = EdgeSet.of(petersen, range(5))
        cert = find_5cdc_containing(petersen, pentagon)
        assert cert is not None
        assert cert.path == "theorem2"
        assert cert.matching != ()
        assert len(cert.cdc) <= 5
        assert set(cert.c0) <= set(cert.c1)
        assert verify_certificate(cert.to_doc()) == []

    def test_c1_is_the_pentagon_itself(self, petersen):
        # C1 candidates are ordered by how little they add to c0, so the
        # successful C1 for a pentagon is the pentagon.
        pentagon = EdgeSet.of(petersen, range(5))
        cert = find_5cdc_containing(petersen, pentagon)
        assert cert.c1 == pentagon.ids()

    def test_matching_condition_holds(self, petersen):
        pentagon = EdgeSet.of(petersen, range(5))
        cert = find_5cdc_containing(petersen, pentagon)
        c1 = EdgeSet.of(petersen, cert.c1)
        c2 = EdgeSet.of(petersen, cert.c2)
        m_set = EdgeSet.of(petersen, cert.matching)
        assert c1 & c2 == m_set
        assert is_matching(petersen, m_set)
        assert has_nz4flow(delete_edges(petersen, m_set).graph)

    def test_deterministic_across_runs(self, petersen):
        pentagon = EdgeSet.of(petersen, range(5))
        a = find_5cdc_containing(petersen, pentagon)
        b = find_5cdc_containing(petersen, pentagon)
        assert normalized(a) == normalized(b)

    def test_shared_cache_does_not_change_the_answer(self, petersen):
        pentagon = EdgeSet.of(petersen, range(5))
        a = find_5cdc_containing(petersen, pentagon)
        b = find_5cdc_containing(petersen, pentagon, context=SearchContext(petersen))
        assert normalized(a) == normalized(b)


class TestFindPreconditions:
    def test_bridged_host_rejected(self):
        g = bridged_cubic_graph()
        with pytest.raises(PreconditionError):
            find_5cdc_containing(g, EdgeSet.empty(g))

    def test_non_cubic_host_rejected(self):
        g = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        with pytest.raises(PreconditionError):
            find_5cdc_containing(g, EdgeSet.empty(g))

    def test_odd_prescription_rejected(self):
        g = complete_graph(4)
        with pytest.raises(PreconditionError):
            find_5cdc_containing(g, EdgeSet.of(g, [0]))

    def test_wrong_host_prescription_rejected(self, petersen):
        with pytest.raises(ValueError):
            find_5cdc_containing(petersen, EdgeSet.empty(complete_graph(4)))

    def test_wrong_cache_rejected(self, petersen):
        with pytest.raises(ValueError):
            find_5cdc_containing(
                petersen, EdgeSet.empty(petersen), context=SearchContext(complete_graph(4))
            )


class TestGuards:
    def test_dimension_guard(self, petersen):
        with pytest.raises(CapacityError):
            find_5cdc_containing(
                petersen, EdgeSet.empty(petersen), SearchOptions(dim_guard=5)
            )

    def test_candidate_guard(self, petersen):
        # The pentagon search succeeds on its third (C1, C2) pair, so a
        # budget of two must be reported as exhausted, never as a negative.
        pentagon = EdgeSet.of(petersen, range(5))
        assert find_5cdc_containing(petersen, pentagon).candidates_tried == 3
        with pytest.raises(CapacityError) as exc:
            find_5cdc_containing(petersen, pentagon, SearchOptions(max_candidates=2))
        assert exc.value.candidates_tried == 2

    def test_candidate_guard_above_need_is_silent(self, petersen):
        pentagon = EdgeSet.of(petersen, range(5))
        baseline = find_5cdc_containing(petersen, pentagon)
        roomy = find_5cdc_containing(
            petersen, pentagon, SearchOptions(max_candidates=baseline.candidates_tried)
        )
        assert normalized(roomy) == normalized(baseline)

    def test_context_checks_the_guard_on_every_call(self, petersen):
        # Petersen has dimension 6: a list built under a roomy guard must
        # not be handed out under a tighter one.
        ctx = SearchContext(petersen)
        assert len(ctx.even_masks(16)) == 64
        assert len(list(ctx.c2_candidates(0, 16))) == 64
        with pytest.raises(CapacityError):
            ctx.even_masks(4)
        with pytest.raises(CapacityError):
            ctx.c2_candidates(0, 4)
        with pytest.raises(CapacityError):
            SearchContext(petersen).even_masks(4)
        assert len(ctx.even_masks(6)) == 64


class TestCircuitSweep:
    def test_k4_all_seven(self):
        g = complete_graph(4)
        report = circuit_sweep(g)
        assert len(report.entries) == 7
        assert report.found == 7
        assert report.none == 0 and report.inconclusive == 0
        assert [e.circuit for e in report.entries] == enumerate_circuits(g)
        for entry in report.entries:
            assert entry.certificate is not None
            assert tuple(entry.circuit.ids()) == entry.certificate.c0

    def test_prism(self):
        report = circuit_sweep(prism_graph())
        assert report.none == 0 and report.inconclusive == 0
        assert report.found == len(report.entries)

    def test_petersen_all_57(self, petersen):
        report = circuit_sweep(petersen)
        assert len(report.entries) == 57
        assert report.found == 57

    def test_guard_hits_are_inconclusive_not_negative(self, petersen):
        report = circuit_sweep(petersen, SearchOptions(max_candidates=1))
        assert report.none == 0
        assert report.found + report.inconclusive == len(report.entries)
        assert report.inconclusive > 0
        for entry in report.entries:
            if entry.outcome == "inconclusive":
                assert entry.certificate is None
                assert entry.detail


class TestPetersenShortcut:
    def test_complete_with_no_discrepancies(self, petersen):
        report = petersen_shortcut_check(petersen)
        assert len(report.entries) == 57
        assert report.complete
        assert report.discrepancies == ()
        for entry in report.entries:
            assert entry.matching is not None
            assert is_matching(petersen, entry.matching)
            assert entry.circuit & entry.partner == entry.matching

    def test_skips_record_empty_matchings_only(self, petersen):
        report = petersen_shortcut_check(petersen)
        for entry in report.entries:
            for _, m_set in entry.flowless_skips:
                assert not m_set

    def test_other_graphs_rejected(self):
        with pytest.raises(PreconditionError):
            petersen_shortcut_check(complete_graph(4))

    def test_relabeled_petersen_rejected(self, petersen):
        # Swapping vertices 0 and 5 is not an automorphism, so the result
        # is isomorphic but a different labeled graph.
        swap = {0: 5, 5: 0}
        relabeled = MultiGraph(
            10, [(swap.get(u, u), swap.get(v, v)) for u, v in petersen.edges]
        )
        with pytest.raises(PreconditionError):
            petersen_shortcut_check(relabeled)


def reference_canonical(g):
    """The canonical even-subgraph list as a plain sort on edge-id tuples."""
    basis = cycle_space_basis(g)
    return sorted(enumerate_even_subgraphs(basis), key=lambda s: (len(s), s.ids()))


def reference_c1_list(g, c0):
    """C1 candidates sorted by (edges added to c0, edge-id tuple)."""
    sol = solve_affine(cycle_space_basis(g), c0, EdgeSet.empty(g))
    return sorted(
        (sol.solution(k) for k in range(1 << sol.dimension)),
        key=lambda s: (len(s - c0), s.ids()),
    )


def reference_c2_order(c1, canonical):
    """C2 candidates sorted by (intersection with c1, canonical position)."""
    order = sorted(range(len(canonical)), key=lambda i: (len(c1 & canonical[i]), i))
    return [canonical[i] for i in order]


class TestCandidateOrder:
    """SearchContext builds its orders in closed form; they must equal the
    tuple-key sorts they replace, which fix every certificate produced."""

    def assert_same_orders(self, g, prescriptions=None):
        ctx = SearchContext(g)
        canonical = reference_canonical(g)
        assert ctx.even_masks(16) == [s.mask for s in canonical]
        if prescriptions is None:
            prescriptions = [EdgeSet.empty(g)] + enumerate_circuits(g)
        for c0 in prescriptions:
            c1_list = reference_c1_list(g, c0)
            assert ctx.c1_candidates(c0) == [s.mask for s in c1_list]
            c2_order = reference_c2_order(c1_list[0], canonical)
            assert list(ctx.c2_candidates(c1_list[0].mask, 16)) == [s.mask for s in c2_order]

    def test_catalog(self, catalog):
        for g in catalog:
            self.assert_same_orders(g)

    def test_petersen_and_blanusa_snarks(self, snarks):
        # snarks.g6 holds Petersen, then the two Blanusa snarks.
        for g in snarks[:3]:
            self.assert_same_orders(g)

    def test_flower_snark_j5(self):
        self.assert_same_orders(flower_snark(5))

    def test_shuffled_flower_snark_j7(self):
        # Dimension 15, the size of the orders a find on J7 builds.  The
        # whole even-subgraph order is checked; C1 and C2 orders only for
        # the empty prescription and a few sampled circuits, to stay fast.
        g = shuffled(flower_snark(7), 7)
        rng = random.Random(7)
        circuits = [s for s in rng.sample(reference_canonical(g), 300) if is_circuit(g, s)]
        assert len(circuits) >= 3
        self.assert_same_orders(g, [EdgeSet.empty(g)] + circuits[:3])

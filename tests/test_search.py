import dataclasses
import itertools
import json
import os
import random
import types

import pytest

import cdc5.flows
import cdc5.search
from cdc5 import (
    CapacityError,
    MultiGraph,
    PreconditionError,
    SearchContext,
    SearchOptions,
    Sweep,
    UnsupportedFormatError,
    canonical_masks,
    enumerate_circuits,
    find_5cdc_containing,
    flow_planes,
    is_even_subgraph,
    spanning_forest,
    verify_certificate,
    write_graph6,
)

from cdc5.certificates import build_certificate
from cdc5.cover import extend_to_cdc
from cdc5.cyclespace import EvenLayers, reduced_echelon
from cdc5.graphs import mask_ids
from cdc5.search import _c1_order, _overlaps, _split, _sweep_range

from .conftest import sweep_graph
from .oracles import (
    bridged_cubic_graph,
    complete_graph,
    edge_mask,
    enumerate_even_subgraphs,
    flower_snark,
    is_circuit,
    loop_is_matching,
    petersen_graph,
    prism_graph,
    random_cubic_multigraph,
    shuffled,
    theta_multigraph,
)
from .test_snark_products import product, two_factors


def normalized(cert):
    doc = cert.to_doc()
    doc["stats"].pop("elapsed_ms")
    return json.dumps(doc)


class TestFindOnK4:
    def test_triangle_takes_the_first_candidate(self):
        g = complete_graph(4)
        triangle = edge_mask(g, [0, 1, 2])
        cert = find_5cdc_containing(g, triangle)
        assert cert is not None
        assert cert.candidates_tried == 1
        assert cert.path == "m-empty"
        assert cert.c2 == 0 and cert.matching == 0
        assert cert.c0 == 0b111
        assert cert.c0 in cert.cdc
        assert len(cert.cdc) <= 4
        assert verify_certificate(cert.to_doc()) == []

    def test_empty_prescription(self):
        g = complete_graph(4)
        cert = find_5cdc_containing(g, 0)
        assert cert is not None
        assert cert.c0 == 0
        assert cert.path == "m-empty"


class TestFindOnPetersen:
    def test_outer_pentagon(self, petersen):
        pentagon = edge_mask(petersen, range(5))
        cert = find_5cdc_containing(petersen, pentagon)
        assert cert is not None
        assert cert.path == "theorem2"
        assert cert.matching != 0
        assert len(cert.cdc) <= 5
        assert cert.c0 & ~cert.c1 == 0
        assert verify_certificate(cert.to_doc()) == []

    def test_c1_is_the_pentagon_itself(self, petersen):
        # C1 candidates are ordered by how little they add to c0, so the
        # successful C1 for a pentagon is the pentagon.
        pentagon = edge_mask(petersen, range(5))
        cert = find_5cdc_containing(petersen, pentagon)
        assert cert.c1 == pentagon

    def test_matching_condition_holds(self, petersen):
        pentagon = edge_mask(petersen, range(5))
        cert = find_5cdc_containing(petersen, pentagon)
        assert cert.c1 & cert.c2 == cert.matching
        assert loop_is_matching(petersen, cert.matching)
        assert flow_planes(petersen, cert.matching) is not None

    def test_deterministic_across_runs(self, petersen):
        pentagon = edge_mask(petersen, range(5))
        a = find_5cdc_containing(petersen, pentagon)
        b = find_5cdc_containing(petersen, pentagon)
        assert normalized(a) == normalized(b)

    def test_shared_cache_does_not_change_the_answer(self, petersen):
        pentagon = edge_mask(petersen, range(5))
        a = find_5cdc_containing(petersen, pentagon)
        b = find_5cdc_containing(petersen, pentagon, context=SearchContext(petersen))
        assert normalized(a) == normalized(b)


class TestFindPreconditions:
    def test_bridged_host_rejected(self):
        g = bridged_cubic_graph()
        with pytest.raises(PreconditionError):
            find_5cdc_containing(g, 0)

    def test_non_cubic_host_rejected(self):
        g = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        with pytest.raises(PreconditionError):
            find_5cdc_containing(g, 0)

    def test_edgeless_host_rejected(self):
        # The graph with no vertices is cubic, but no cover element of it
        # can contain c0, so it is refused before the search.
        g = MultiGraph(0, [])
        with pytest.raises(PreconditionError):
            find_5cdc_containing(g, 0)
        with pytest.raises(PreconditionError):
            SearchContext(g)

    def test_odd_prescription_rejected(self, petersen):
        g = complete_graph(4)
        with pytest.raises(PreconditionError):
            find_5cdc_containing(g, edge_mask(g, [0]))
        path = edge_mask(petersen, [0, 1, 2])  # 0-1-2-3 on the outer 5-cycle
        with pytest.raises(PreconditionError):
            find_5cdc_containing(petersen, path)

    @pytest.mark.parametrize("g", [petersen_graph(), flower_snark(5)], ids=["petersen", "j5"])
    def test_mask_outside_the_edge_range_rejected(self, g):
        # A mask names no host, so the range of g's edge ids is all there
        # is to check; a mask past it is refused, not searched.
        for mask in (-1, 1 << g.m):
            with pytest.raises(ValueError):
                is_even_subgraph(g, mask)
        with pytest.raises(ValueError):
            find_5cdc_containing(g, 1 << g.m)

    @pytest.mark.parametrize("g", [theta_multigraph(), random_cubic_multigraph(12, 5)])
    def test_multigraph_rejected_before_the_search(self, g, monkeypatch):
        # A certificate names its graph in graph6, which has no parallel
        # edges; the search must refuse before it runs, not after.
        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr("cdc5.search._first_partner", no_search)
        with pytest.raises(UnsupportedFormatError):
            find_5cdc_containing(g, 0)
        with pytest.raises(UnsupportedFormatError):
            find_5cdc_containing(g, 0, context=SearchContext(g))

    def test_wrong_cache_rejected(self, petersen):
        with pytest.raises(ValueError):
            find_5cdc_containing(petersen, 0, context=SearchContext(complete_graph(4)))


class TestGuards:
    def test_dimension_guard(self, petersen):
        with pytest.raises(CapacityError):
            find_5cdc_containing(petersen, 0, SearchOptions(dim_guard=5))

    def test_context_checks_the_guard_on_every_call(self, petersen):
        # Petersen has dimension 6: a context used under a roomy guard must
        # not let a search through under a tighter one.
        ctx = SearchContext(petersen)
        empty = 0
        roomy = find_5cdc_containing(petersen, empty, SearchOptions(dim_guard=16), ctx)
        want = reference_search(petersen, empty, SearchContext(petersen))
        assert normalized(roomy) == normalized(want)
        with pytest.raises(CapacityError):
            find_5cdc_containing(petersen, empty, SearchOptions(dim_guard=4), ctx)
        with pytest.raises(CapacityError):
            find_5cdc_containing(
                petersen, empty, SearchOptions(dim_guard=4), SearchContext(petersen)
            )
        exact = find_5cdc_containing(petersen, empty, SearchOptions(dim_guard=6), ctx)
        assert normalized(exact) == normalized(want)

    def test_time_budget_stops_a_search_counted_in_closed_form(self, monkeypatch):
        # On J7 the empty prescription fails with C1 = ∅ after one flow
        # decision, its 2^15 C2 counted at once; the budget must still stop
        # the search in the C1 that follow.  The search's clock moves
        # 0.1 ms per read, so the 1 ms budget runs out after ten reads
        # whatever the speed of the machine.
        reads = itertools.count()
        clock = types.SimpleNamespace(monotonic_ns=lambda: next(reads) * 100_000)
        monkeypatch.setattr(cdc5.search, "time", clock)
        j7, j6 = flower_snark(7), flower_snark(6)
        ctx = SearchContext(j7)
        with pytest.raises(CapacityError) as exc:
            find_5cdc_containing(j7, 0, SearchOptions(budget_ms=1), ctx)
        assert 0 in ctx._flows and ctx._flows[0] is None
        # The stop reports the pairs counted, the 2^15 of C1 = ∅ among them.
        assert exc.value.candidates_tried == 1 << 15
        control = find_5cdc_containing(j6, 0, SearchOptions(budget_ms=1))
        assert control is not None and control.path == "m-empty"


class TestCircuitSweep:
    def test_k4_all_seven(self):
        g, entry, certificates = sweep_graph(complete_graph(4))
        rows, counts = entry["circuits"], entry["counts"]
        assert len(rows) == 7
        assert counts["found"] == 7
        assert counts["none"] == 0 and counts["inconclusive"] == 0
        assert [row["edges"] for row in rows] == [list(mask_ids(c)) for c in enumerate_circuits(g)]
        for row in rows:
            assert row["certificate"] in certificates
            assert row["edges"] == certificates[row["certificate"]]["c0"]

    def test_prism(self):
        _, entry, _ = sweep_graph(prism_graph())
        counts = entry["counts"]
        assert counts["none"] == 0 and counts["inconclusive"] == 0
        assert counts["found"] == len(entry["circuits"])

    def test_petersen_all_57(self, petersen):
        _, entry, _ = sweep_graph(petersen)
        assert len(entry["circuits"]) == 57
        assert entry["counts"]["found"] == 57

    def test_guard_hits_are_inconclusive_not_negative(self, petersen, monkeypatch):
        # The search's clock moves 0.1 ms per read, as in
        # test_time_budget_stops_a_search_counted_in_closed_form, so the
        # 2 ms budget stops each search that reads it more than twenty
        # times, whatever the speed of the machine.
        reads = itertools.count()
        clock = types.SimpleNamespace(monotonic_ns=lambda: next(reads) * 100_000)
        monkeypatch.setattr(cdc5.search, "time", clock)
        _, entry, certificates = sweep_graph(petersen, SearchOptions(budget_ms=2))
        counts = entry["counts"]
        assert counts["none"] == 0
        assert counts["found"] + counts["inconclusive"] == len(entry["circuits"])
        assert counts["inconclusive"] > 0
        for row in entry["circuits"]:
            if row["outcome"] == "inconclusive":
                assert "certificate" not in row
                assert row["detail"]
        assert len(certificates) == counts["found"]


class TestSweepSplit:
    """A graph's circuits go to min(processes, circuits) contiguous ranges,
    each searched with one search context."""

    def test_ranges_are_contiguous_balanced_and_never_empty(self):
        g = complete_graph(4)
        circuits = enumerate_circuits(g)
        for workers in (1, 2, 3, 7, 8):
            parts = [task[1] for task in _split(g, circuits, SearchOptions(), workers)]
            assert len(parts) == min(workers, len(circuits))
            assert [c for part in parts for c in part] == circuits
            sizes = [len(part) for part in parts]
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert _split(g, [], SearchOptions(), 4) == []

    def test_ranges_decide_at_most_their_number_times_the_serial_flows(
        self, petersen, monkeypatch
    ):
        # A search decides the same flows whatever its context holds, so a
        # range decides a subset of the serial sweep's flows, each once:
        # r ranges decide at most r times as many.  The ranges run in
        # process, as the serial sweep runs its single range.
        original = cdc5.flows.three_edge_color
        calls = []

        def counting(g):
            calls.append(None)
            return original(g)

        monkeypatch.setattr(cdc5.flows, "three_edge_color", counting)
        for g in (complete_graph(4), prism_graph(), petersen):
            circuits = enumerate_circuits(g)
            work, outcomes = {}, {}
            for workers in (1, 2, 8):
                calls.clear()
                tasks = _split(g, circuits, SearchOptions(), workers)
                results = [result for part in map(_sweep_range, tasks) for result in part]
                work[workers] = (len(tasks), len(calls))
                outcomes[workers] = [
                    (outcome, cert and normalized(cert), d) for outcome, cert, d in results
                ]
            serial = work[1][1]
            assert serial > 0
            for ranges, colourings in work.values():
                assert colourings <= ranges * serial
            assert outcomes[2] == outcomes[1] and outcomes[8] == outcomes[1]


    def test_pool_has_at_most_one_process_per_cpu(
        self, petersen, monkeypatch, in_process_pool
    ):
        # A million workers on three CPUs make a pool of three processes,
        # and Petersen's 57 circuits go to three ranges, one per process;
        # two workers on one CPU make no pool.
        def run(workers):
            [(entry, certificates)] = Sweep([write_graph6(petersen)], workers=workers)
            return entry, {name: normalized(cert) for name, cert in certificates.items()}

        serial = run(1)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert run(10**6) == serial
        assert in_process_pool.sizes == [3] and in_process_pool.ranges == [3]
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert run(2) == serial
        assert in_process_pool.sizes == [3] and in_process_pool.ranges == [3]
        assert len(serial[1]) == 57


def reference_canonical(g):
    """The canonical even-subgraph list as a plain sort on edge-id tuples."""
    return sorted(enumerate_even_subgraphs(g), key=lambda s: (s.bit_count(), mask_ids(s)))


def reference_c1_list(g, c0, space=None):
    """C1 candidates, the even subgraphs containing c0 filtered out of the
    whole space (every even subgraph of g, in any order), sorted by (edges
    added to c0, edge-id tuple)."""
    space = space or enumerate_even_subgraphs(g)
    contain = (s for s in space if c0 & ~s == 0)
    return sorted(contain, key=lambda s: ((s & ~c0).bit_count(), mask_ids(s)))


def reference_c2_order(c1, canonical):
    """C2 candidates sorted by (intersection with c1, canonical position),
    the latter kept by the stable sort."""
    return sorted(canonical, key=lambda s: (c1 & s).bit_count())


def reference_search(g, c0, context, canonical=None):
    """The exhaustive search: every (C1, C2) pair in the pinned order, each
    one counted and tested, flows decided through `context` as pairs are met.
    Its certificate is built the way the engine builds one."""
    canonical = canonical or reference_canonical(g)
    tried = 0
    for c1 in reference_c1_list(g, c0, canonical):
        for c2 in reference_c2_order(c1, canonical):
            tried += 1
            overlap = c1 & c2
            if overlap.bit_count() * 2 > g.n or not loop_is_matching(g, overlap):
                continue
            planes = context.flow_minus(overlap)
            if planes is None:
                continue
            cdc = extend_to_cdc([c1, c2], planes)
            return build_certificate(context.frame, c0, c1, c2, overlap, cdc, tried, 0)
    return None


def search_differences(g, prescriptions, canonical=None):
    """Run the engine and the reference search on every prescription, each
    side with one context for the whole graph.  Return the prescriptions
    where the C1 orders, the certificates (c1, c2, candidates_tried and
    every other byte except elapsed_ms) or the sets of flows decided
    differ, and the engine's certificates.  The C1 order is compared in
    full although the engine walks past c0 only when c0 fails; it is
    walked on a context of its own, so the searches find the engine's
    context as the searches before them left it."""
    canonical = canonical or reference_canonical(g)
    engine, reference, orders = SearchContext(g), SearchContext(g), SearchContext(g)
    differences, certificates = [], []
    for c0 in prescriptions:
        got = find_5cdc_containing(g, c0, context=engine)
        certificates.append(got)
        want = reference_search(g, c0, reference, canonical)
        c1_order = list(_c1_order(orders, c0, lambda: None))
        same = c1_order == reference_c1_list(g, c0, canonical)
        same = same and (got is None) == (want is None)
        if same and got is not None:
            same = normalized(got) == normalized(want)
        # Both sides memoize exactly the overlaps whose flow they decided.
        if not same or engine._flows.keys() != reference._flows.keys():
            differences.append(mask_ids(c0))
    return differences, certificates


class TestCandidateOrder:
    """The engine counts skipped buckets in closed form and walks only the
    short end of the order; it must give what the exhaustive reference
    search gives, and decide the same flows."""

    def test_catalog(self, catalog):
        # Every even c0, the empty one included: the catalog holds "none"
        # answers and a pair whose C1 is not c0.
        outcomes = set()
        for g in catalog:
            prescriptions = list(enumerate_even_subgraphs(g))
            differences, certificates = search_differences(g, prescriptions)
            assert differences == []
            outcomes.update(
                "none" if cert is None else "c0" if cert.c1 == cert.c0 else "other"
                for cert in certificates
            )
        assert outcomes == {"none", "c0", "other"}

    def test_petersen_and_blanusa_snarks(self, snarks):
        # snarks.g6 holds Petersen, then the two Blanusa snarks.  Every even
        # c0, so the C1 order is compared for every rank of c0's projection.
        for g in snarks[:3]:
            canonical = reference_canonical(g)
            assert search_differences(g, canonical, canonical)[0] == []

    def test_flower_snark_j5(self):
        g = flower_snark(5)
        canonical = reference_canonical(g)
        evens = random.Random(5).sample(canonical, 8)
        prescriptions = [0] + enumerate_circuits(g) + evens
        assert search_differences(g, prescriptions, canonical)[0] == []

    def test_shuffled_flower_snark_j7(self):
        # Dimension 15, the size of a find on J7.  The empty prescription
        # fails with C1 = ∅ and goes on through the whole order of C1.
        g = shuffled(flower_snark(7), 7)
        canonical = reference_canonical(g)
        rng = random.Random(7)
        circuits = [s for s in rng.sample(canonical, 300) if is_circuit(g, s)]
        assert len(circuits) >= 3
        prescriptions = [0] + circuits[:3] + rng.sample(canonical, 3)
        assert search_differences(g, prescriptions, canonical)[0] == []

    def test_two_factor_c1_order_reads_nothing_of_the_order(self, snarks):
        # A 2-factor's projection has rank dim, so no nonempty even subgraph
        # misses it: the C1 order is c0 alone and grows no order.
        g = product(snarks, 0, 0)
        for c0 in two_factors(g):
            ctx = SearchContext(g)
            assert list(_c1_order(ctx, c0, lambda: None)) == [c0]
            assert ctx._order == [0]


def mixed_basis(cycles):
    """Another basis of the same space: the vectors reversed, each XORed
    with the one before it, an invertible GF(2) transform."""
    masks = cycles[::-1]
    return tuple(x ^ before for x, before in zip(masks, (0,) + masks[:-1]))


class TestBasisIndependence:
    """Every user of the cycle-space basis reads only its span, through the
    reduced echelon form, so any basis of the space gives the same
    certificates, flows decided, canonical order and C1 orders."""

    def assert_basis_independent(self, g, prescriptions):
        plain, mixed = SearchContext(g), SearchContext(g)
        mixed.cycles = mixed_basis(plain.cycles)
        assert mixed.cycles != plain.cycles
        assert reduced_echelon(mixed.cycles) == reduced_echelon(plain.cycles)
        for c0 in prescriptions:
            texts = []
            for ctx in (plain, mixed):
                cert = find_5cdc_containing(g, c0, context=ctx)
                texts.append(dataclasses.replace(cert, elapsed_ms=0).render())
            assert texts[0] == texts[1]
        assert mixed._flows == plain._flows
        assert list(mixed.canonical_order()) == list(plain.canonical_order())
        # Walked last, so the searches above grew both orders lazily.
        for c0 in prescriptions:
            c1_orders = [list(_c1_order(ctx, c0, lambda: None)) for ctx in (plain, mixed)]
            assert c1_orders[0] == c1_orders[1]

    def test_petersen_every_circuit(self, snarks):
        self.assert_basis_independent(snarks[0], enumerate_circuits(snarks[0]))

    @pytest.mark.parametrize("index", [1, 2], ids=["blanusa-1", "blanusa-2"])
    def test_blanusa_snarks(self, snarks, index):
        g = snarks[index]
        self.assert_basis_independent(g, random.Random(index).sample(enumerate_circuits(g), 20))

    def test_shuffled_flower_snark_j7(self):
        g = shuffled(flower_snark(7), 7)
        self.assert_basis_independent(g, random.Random(7).sample(enumerate_circuits(g), 2))


class TestOverlapBuckets:
    """The bucket of C2 with |C1 ∩ C2| = k holds (overlaps of size k) times
    2^(dim - r) members; the counts and the matchings among the overlaps
    must equal those of a scan of the whole cycle space."""

    def assert_buckets(self, g, c1s):
        cycles = spanning_forest(g).cycles
        whole = canonical_masks(cycles)
        for c1 in c1s:
            rows = reduced_echelon(v & c1 for v in cycles)
            share = 1 << (len(cycles) - len(rows))
            got = list(_overlaps(g, c1, rows, lambda: None))
            sizes = [0] * (c1.bit_count() + 1)
            overlaps = [set() for _ in sizes]
            for x in whole:
                sizes[(x & c1).bit_count()] += 1
                overlaps[(x & c1).bit_count()].add(x & c1)
            assert [count * share for count, _ in got] == sizes
            for k, (_, matchings) in enumerate(got):
                want = sorted((m for m in overlaps[k] if loop_is_matching(g, m)), key=mask_ids)
                assert matchings == want

    def test_catalog(self, catalog):
        # Every even subgraph as C1, so projections of every rank occur,
        # down to those with fewer members than syndromes.
        for g in catalog:
            self.assert_buckets(g, canonical_masks(spanning_forest(g).cycles))

    def test_corpus_and_j5(self, snarks):
        for g in snarks[:3] + [flower_snark(5)]:
            circuits = enumerate_circuits(g)
            self.assert_buckets(g, circuits[:: max(1, len(circuits) // 60)])

    def test_product_two_factors_past_the_switch(self, snarks):
        # A 2-factor of P·P is spanning, so |c1| = 18 and r = dim = 10:
        # sizes 0 to 3 hold 988 subsets, size 4 would pass the 1024
        # members of the projection, so sizes 4 to 18 are read from it.
        g = product(snarks, 0, 0)
        cycles = spanning_forest(g).cycles
        factors = list(two_factors(g))
        ranks = {(c1.bit_count(), len(reduced_echelon(v & c1 for v in cycles))) for c1 in factors}
        assert ranks == {(18, 10)}
        self.assert_buckets(g, factors)

    def test_each_size_is_listed_under_check_time(self, petersen):
        cycles = spanning_forest(petersen).cycles
        c1 = enumerate_circuits(petersen)[-1]
        rows = reduced_echelon(v & c1 for v in cycles)
        armed = []

        def check_time():
            if armed:
                raise CapacityError("time budget exhausted")

        levels = _overlaps(petersen, c1, rows, check_time)
        assert next(levels) == (1, [0])
        armed.append(True)
        with pytest.raises(CapacityError):
            next(levels)


class TestShortEnd:
    """The short end of the canonical order, the circuits of each length,
    against the circuit list and a filter of the whole order; and the
    context's walk of the order, which grows its short end as it goes and
    lists the rest in closed form at twice the girth or once growing gets
    dear."""

    def assert_short_end(self, g):
        # At every width a layer is the circuits of that length; below
        # twice the girth these are all the even subgraphs of that size.
        whole = canonical_masks(spanning_forest(g).cycles)
        circuits = {}
        for c in enumerate_circuits(g):
            circuits.setdefault(c.bit_count(), []).append(c)
        girth = min(circuits, default=g.m + 1)
        layers = EvenLayers(g)
        for width in range(1, g.m + 1):
            layer = layers.next_layer()
            assert layers.size == width
            assert layer == circuits.get(width, [])
            if width < 2 * girth:
                assert layer == [x for x in whole if x.bit_count() == width]
        assert layers.girth == girth
        if g.is_cubic():
            assert list(SearchContext(g).canonical_order()) == whole

    def test_catalog(self, catalog):
        for g in catalog:
            self.assert_short_end(g)

    def test_corpus(self, snarks):
        for g in snarks:
            self.assert_short_end(g)

    def test_flower_snark_j5(self):
        self.assert_short_end(flower_snark(5))

    def test_multigraph_with_parallel_edges(self):
        g = random_cubic_multigraph(12, 5)
        assert not g.is_simple()
        self.assert_short_end(g)
        assert min(c.bit_count() for c in enumerate_circuits(g)) == 2  # the girth

    def test_k33(self):
        self.assert_short_end(MultiGraph(6, [(u, v) for u in range(3) for v in range(3, 6)]))

    def test_k5_of_degree_four(self):
        self.assert_short_end(complete_graph(5))

    def test_walk_grows_the_short_end_only_as_far_as_it_goes(self):
        # A walk of the first 50 of J7's 2^15 even subgraphs builds the
        # short end to size 9 (58 members) only.  A full walk lists the
        # rest in closed form.
        g = flower_snark(7)
        whole = canonical_masks(spanning_forest(g).cycles)
        ctx = SearchContext(g)
        first = list(itertools.islice(ctx.canonical_order(), 50))
        assert first == whole[:50]
        assert len(ctx._order) == 58
        assert list(ctx.canonical_order()) == whole
        assert ctx._layers.size < g.m

    def test_walk_lists_the_rest_in_closed_form_at_twice_the_girth(self):
        # J7 has girth 6, so its even subgraphs of size 11 or less are
        # circuits and the first that is not has 12 edges.  A walk one
        # member past size 11 lists the whole order without a layer 12.
        g = flower_snark(7)
        whole = canonical_masks(spanning_forest(g).cycles)
        short = sum(x.bit_count() <= 11 for x in whole)
        ctx = SearchContext(g)
        assert list(itertools.islice(ctx.canonical_order(), short + 1)) == whole[: short + 1]
        assert ctx._layers.size == 11
        assert len(ctx._order) == 2**15
        assert ctx._layers.girth == 6

    @pytest.mark.parametrize("g", [flower_snark(5), petersen_graph()], ids=["j5", "petersen"])
    def test_a_nested_walk_does_not_cut_the_outer_one(self, g):
        # The search walks C2 inside its walk of C1.  A walk nested in
        # another grows the short end under it, and the outer walk must
        # still go on from where it stopped.
        whole = canonical_masks(spanning_forest(g).cycles)
        ctx = SearchContext(g)
        outer = []
        for x in ctx.canonical_order():
            if not outer:
                assert list(itertools.islice(ctx.canonical_order(), 200)) == whole[:200]
            outer.append(x)
        assert outer == whole

    def test_stopped_growth_leaves_the_cache_whole(self, petersen):
        calls = []

        def stop_on_the_fortieth_call():
            calls.append(None)
            if len(calls) == 40:
                raise CapacityError("time budget exhausted")

        layers = EvenLayers(petersen)
        with pytest.raises(CapacityError):
            for _ in range(petersen.m):
                layers.next_layer(stop_on_the_fortieth_call)
        stopped_at = layers.size
        rest = [layers.next_layer() for _ in range(stopped_at, petersen.m)]
        fresh = EvenLayers(petersen)
        want = [fresh.next_layer() for _ in range(petersen.m)]
        assert rest == want[stopped_at:]

import pytest

from cdc5 import CapacityError, EdgeSet, MultiGraph, spanning_forest

from .oracles import (
    bridged_cubic_graph,
    brute_force_cdc,
    complete_graph,
    enumerate_even_subgraphs,
    loop_verify_cdc,
    prism_graph,
    theta_multigraph,
)


def reference_first_cdc(g, c0, max_elements):
    """Unpruned reference: scan nondecreasing candidate-index tuples in
    lexicographic prefix order and return the first valid cover."""
    ordered = sorted(
        (s for s in enumerate_even_subgraphs(g) if s),
        key=lambda s: (len(s), s.ids()),
    )
    candidates = [s.mask for s in ordered]

    def walk(prefix, start):
        if prefix:
            report = loop_verify_cdc(g, prefix)
            if report.valid and any(c0.mask & ~el == 0 for el in prefix):
                return list(prefix)
        if len(prefix) == max_elements:
            return None
        for j in range(start, len(candidates)):
            got = walk(prefix + [candidates[j]], j)
            if got is not None:
                return got
        return None

    if g.m == 0 and c0.mask == 0:
        return []
    return walk([], 0)


@pytest.mark.parametrize(
    "g",
    [complete_graph(4), theta_multigraph(), MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])],
    ids=lambda g: f"n{g.n}m{g.m}",
)
def test_matches_unpruned_reference_without_prescription(g):
    c0 = EdgeSet.empty(g)
    got = brute_force_cdc(g, c0)
    want = reference_first_cdc(g, c0, 5)
    assert got is not None and want is not None
    assert list(got) == want


def test_matches_unpruned_reference_with_prescription():
    g = complete_graph(4)
    for c0 in enumerate_even_subgraphs(g):
        got = brute_force_cdc(g, c0)
        want = reference_first_cdc(g, c0, 5)
        assert got is not None and want is not None
        assert list(got) == want


def test_element_budget_respected():
    g = complete_graph(4)
    got = brute_force_cdc(g, EdgeSet.empty(g), max_elements=3)
    assert got is not None and len(got) <= 3
    assert loop_verify_cdc(g, got).valid


def test_prescription_must_lie_inside_one_element():
    g = prism_graph()
    triangle = EdgeSet.of(g, [0, 1, 2])
    got = brute_force_cdc(g, triangle)
    assert got is not None
    assert any(triangle.mask & ~el == 0 for el in got)
    assert loop_verify_cdc(g, got).valid


def test_petersen_has_no_4cdc(petersen):
    assert brute_force_cdc(petersen, EdgeSet.empty(petersen), max_elements=4) is None


def test_petersen_pentagon_found_in_5(petersen):
    pentagon = EdgeSet.of(petersen, range(5))
    got = brute_force_cdc(petersen, pentagon)
    assert got is not None
    assert len(got) <= 5
    assert loop_verify_cdc(petersen, got).valid
    assert any(pentagon.mask & ~el == 0 for el in got)


def test_bridged_graph_has_no_cdc_at_all():
    g = bridged_cubic_graph()
    assert brute_force_cdc(g, EdgeSet.empty(g)) is None


def test_prescription_with_bridge_is_hopeless():
    g = bridged_cubic_graph()
    c0 = EdgeSet.of(g, [14])
    assert brute_force_cdc(g, c0) is None


def test_edgeless_graph_trivial_cases():
    g = MultiGraph(3, [])
    assert brute_force_cdc(g, EdgeSet.empty(g)) == ()


def test_dimension_guard(snarks):
    big = snarks[1]
    with pytest.raises(CapacityError):
        brute_force_cdc(big, EdgeSet.empty(big))
    assert len(spanning_forest(big).cycles) > 7


def test_wrong_host_rejected(petersen):
    with pytest.raises(ValueError):
        brute_force_cdc(petersen, EdgeSet.empty(complete_graph(4)))

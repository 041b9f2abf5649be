import pytest

from cdc5 import CapacityError, MultiGraph, spanning_forest
from cdc5.graphs import mask_ids

from .oracles import (
    bridged_cubic_graph,
    brute_force_cdc,
    complete_graph,
    edge_mask,
    enumerate_even_subgraphs,
    loop_verify_cdc,
    prism_graph,
    theta_multigraph,
)


def reference_first_cdc(g, c0, max_elements):
    """Unpruned reference: scan nondecreasing candidate-index tuples in
    lexicographic prefix order and return the first valid cover."""
    candidates = sorted(
        (s for s in enumerate_even_subgraphs(g) if s),
        key=lambda s: (s.bit_count(), mask_ids(s)),
    )

    def walk(prefix, start):
        if prefix:
            report = loop_verify_cdc(g, prefix)
            if report.valid and any(c0 & ~el == 0 for el in prefix):
                return list(prefix)
        if len(prefix) == max_elements:
            return None
        for j in range(start, len(candidates)):
            got = walk(prefix + [candidates[j]], j)
            if got is not None:
                return got
        return None

    if g.m == 0 and c0 == 0:
        return []
    return walk([], 0)


@pytest.mark.parametrize(
    "g",
    [complete_graph(4), theta_multigraph(), MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])],
    ids=lambda g: f"n{g.n}m{g.m}",
)
def test_matches_unpruned_reference_without_prescription(g):
    c0 = 0
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
    got = brute_force_cdc(g, 0, max_elements=3)
    assert got is not None and len(got) <= 3
    assert loop_verify_cdc(g, got).valid


def test_prescription_must_lie_inside_one_element():
    g = prism_graph()
    triangle = edge_mask(g, [0, 1, 2])
    got = brute_force_cdc(g, triangle)
    assert got is not None
    assert any(triangle & ~el == 0 for el in got)
    assert loop_verify_cdc(g, got).valid


def test_petersen_has_no_4cdc(petersen):
    assert brute_force_cdc(petersen, 0, max_elements=4) is None


def test_petersen_pentagon_found_in_5(petersen):
    pentagon = edge_mask(petersen, range(5))
    got = brute_force_cdc(petersen, pentagon)
    assert got is not None
    assert len(got) <= 5
    assert loop_verify_cdc(petersen, got).valid
    assert any(pentagon & ~el == 0 for el in got)


def test_bridged_graph_has_no_cdc_at_all():
    g = bridged_cubic_graph()
    assert brute_force_cdc(g, 0) is None


def test_prescription_with_bridge_is_hopeless():
    g = bridged_cubic_graph()
    c0 = edge_mask(g, [14])
    assert brute_force_cdc(g, c0) is None


def test_edgeless_graph_trivial_cases():
    g = MultiGraph(3, [])
    assert brute_force_cdc(g, 0) == ()


def test_dimension_guard(snarks):
    big = snarks[1]
    with pytest.raises(CapacityError):
        brute_force_cdc(big, 0)
    assert len(spanning_forest(big).cycles) > 7

"""The "none" answers on Isaacs products of snarks, checked by an independent
oracle.  For a 2-factor F of a cubic graph, a 5-cycle double cover with F
inside one element exists exactly when the perfect matching E - F can be
labelled as oracles.two_factor_cover says, so that oracle decides every
2-factor without the cycle space, the flows, the cover or the search."""

import json

import pytest

from cdc5 import (
    SearchContext,
    find_5cdc_containing,
    has_nz4flow,
    parse_graph6,
    spanning_forest,
    verify_certificate,
    write_graph6,
)
from cdc5.cli import main
from cdc5.graphs import mask_ids

from .oracles import (
    brute_bridges,
    brute_force_cdc,
    isaacs_dot,
    petersen_graph,
    reference_three_edge_color,
    two_factor_cover,
)


def product(snarks, left, right):
    """isaacs_dot of two corpus snarks, read back from its graph6 line so
    that its edge ids are the ones the CLI reads."""
    return parse_graph6(write_graph6(isaacs_dot(snarks[left], snarks[right])))


def two_factors(g):
    """The complements of g's perfect matchings, each matching grown at the
    lowest vertex it does not cover yet, generated in that order."""

    def grow(covered, matching):
        if covered == (1 << g.n) - 1:
            yield ((1 << g.m) - 1) & ~matching
            return
        v = (~covered & (covered + 1)).bit_length() - 1
        for e, (a, b) in enumerate(g.edges):
            if v in (a, b) and not covered >> a & 1 and not covered >> b & 1:
                yield from grow(covered | 1 << a | 1 << b, matching | 1 << e)

    return grow(0, 0)


def test_oracle_agrees_with_the_exhaustive_search(catalog):
    # Petersen's six 2-factors, each two pentagons, are the "none" answers.
    graphs = [g for g in catalog if g.n <= 8] + [petersen_graph()]
    answers = []
    for g in graphs:
        for factor in two_factors(g):
            answers.append(two_factor_cover(g, factor))
            assert answers[-1] == (brute_force_cdc(g, factor) is not None)
    assert (len(answers), answers.count(False)) == (51, 6)


# snarks.g6 holds Petersen (P), then the Blanusa snarks (B1 and B2 at
# indices 1 and 2).
@pytest.mark.parametrize(
    "left, right, dim, factors, nones",
    [(0, 0, 10, 20, 4), (0, 1, 14, 57, 8), (0, 2, 14, 59, 4)],
    ids=["P.P", "P.B1", "P.B2"],
)
def test_every_two_factor_agrees_with_the_labelling_oracle(snarks, left, right, dim, factors, nones):
    g = product(snarks, left, right)
    assert g.is_cubic() and len(spanning_forest(g).cycles) == dim
    assert not spanning_forest(g).bridges and not brute_bridges(g)
    assert not has_nz4flow(g) and reference_three_edge_color(g) is None
    factors_of_g = list(two_factors(g))
    answers = []
    for factor in factors_of_g:
        # A fresh context, so its memo holds the flows this search decided:
        # the overlaps c0 - F over the 2-factors F, every one for a "none".
        ctx = SearchContext(g)
        cert = find_5cdc_containing(g, factor, context=ctx)
        assert (cert is not None) == two_factor_cover(g, factor), list(mask_ids(factor))
        candidates = {factor & ~other for other in factors_of_g}
        if cert is not None:
            assert verify_certificate(cert.to_doc()) == []
            assert ctx._flows.keys() <= candidates
        else:
            assert ctx._flows.keys() == candidates
        answers.append(cert is not None)
    assert (len(answers), answers.count(False)) == (factors, nones)


def test_cli_answers_none_on_a_two_factor(snarks, tmp_path, capsys):
    g = product(snarks, 0, 0)
    factor = next(f for f in two_factors(g) if not two_factor_cover(g, f))
    path = tmp_path / "pp.g6"
    path.write_text(write_graph6(g) + "\n", encoding="ascii")
    ids = ",".join(map(str, mask_ids(factor)))
    argv = ["find", "--graph", str(path), "--edge-ids", "--circuit", ids, "--format", "json"]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().out)["outcome"] == "none"
    assert not (tmp_path / "certificate.json").exists()

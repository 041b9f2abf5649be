#!/usr/bin/env python3
"""Check the engine's answers on 2-factors of snark products against the
labelling oracle.

A 2-factor F of a cubic graph lies in a cycle double cover of at most
five elements exactly when tests/oracles.two_factor_cover can label the
perfect matching F leaves, and that oracle shares no code with the
engine.  This script decides every 2-factor of six Isaacs products of
the snarks in tests/data/snarks.g6 both ways: P·P, P·B1, P·B2, P·S20,
B1·B1 and B1·B2, where P is Petersen, B1 and B2 the Blanuša snarks and
S20 the flower snark J5 on 20 vertices (tests/test_snark_products.py
builds the products and lists the 2-factors).  It also decides the first
50 2-factors of P·(B1·B1), a product of dimension 22, in the order
two_factors generates them.  The engine runs with dim_guard=18, or 22
for P·(B1·B1), and one search context per graph, and every certificate
it finds is verified.  The script prints, per product, its dimension,
its 2-factors and how many of them are "none", and the engine's and the
oracle's time.  It exits with status 1 when the two disagree on any
2-factor or a certificate fails.

Run it from the root of a source checkout:

    python3 scripts/check_products.py
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from cdc5 import (  # noqa: E402
    SearchContext,
    SearchOptions,
    find_5cdc_containing,
    parse_graph6,
    spanning_forest,
    verify_certificate,
    write_graph6,
)
from tests.oracles import isaacs_dot, two_factor_cover  # noqa: E402
from tests.test_snark_products import product, two_factors  # noqa: E402

# (left, right, name): the Isaacs products of snarks.g6 entries to check
PRODUCTS = [
    (0, 0, "P·P"),
    (0, 1, "P·B1"),
    (0, 2, "P·B2"),
    (0, 3, "P·S20"),
    (1, 1, "B1·B1"),
    (1, 2, "B1·B2"),
]
LARGE_FACTORS = 50  # the 2-factors of P·(B1·B1) taken, first in order


def check(g, factors, dim_guard):
    """(2-factors, "none" answers, engine seconds, oracle seconds, problems)
    for the engine and the oracle on each of factors."""
    ctx = SearchContext(g)
    options = SearchOptions(dim_guard=dim_guard)
    count = nones = 0
    engine = oracle = 0.0
    problems = []
    for factor in factors:
        started = time.monotonic()
        cert = find_5cdc_containing(g, factor, options, ctx)
        checked = time.monotonic()
        covered = two_factor_cover(g, factor)
        oracle += time.monotonic() - checked
        engine += checked - started
        count += 1
        nones += cert is None
        if (cert is not None) != covered:
            problems.append(f"2-factor {count - 1}: engine {cert is not None}, oracle {covered}")
        elif cert is not None and verify_certificate(cert.to_doc()):
            problems.append(f"2-factor {count - 1}: the certificate fails")
    return count, nones, engine, oracle, problems


def main() -> int:
    started = time.monotonic()
    lines = (ROOT / "tests" / "data" / "snarks.g6").read_text(encoding="ascii").split()
    snarks = [parse_graph6(line) for line in lines]
    runs = [(name, product(snarks, left, right), None, 18) for left, right, name in PRODUCTS]
    large = parse_graph6(write_graph6(isaacs_dot(snarks[0], isaacs_dot(snarks[1], snarks[1]))))
    runs.append(("P·(B1·B1)", large, LARGE_FACTORS, 22))
    differences = []
    high = 0
    for name, g, limit, dim_guard in runs:
        dim = len(spanning_forest(g).cycles)
        factors = itertools.islice(two_factors(g), limit)
        count, nones, engine, oracle, problems = check(g, factors, dim_guard)
        high += nones if dim >= 11 else 0
        taken = f"first {count}" if limit else f"{count}"
        print(
            f"{name}: dim {dim}, 2-factors {taken}, none {nones}, "
            f"engine {engine:.1f} s, oracle {oracle:.1f} s"
        )
        differences += [f"{name} {problem}" for problem in problems]
    print(f"none at dim >= 11: {high}")
    print(f"differences: {len(differences)}, time: {time.monotonic() - started:.1f} s")
    for line in differences:
        print(f"  differs: {line}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check the search engine against the exhaustive reference search.

The engine counts the C2 buckets it skips in closed form and walks only
the short end of the canonical order.  The reference search in
tests/test_search.py lists and tests every (C1, C2) pair in the pinned
order.  This script runs both on every circuit of tests/data/snarks.g6
and, on each of 16 seeded relabellings of the flower snark J7
(tests/oracles.py), on one circuit and on the empty prescription.  J7
is a snark, so the empty prescription fails with C1 = ∅ and its search
walks the C1 order past c0.  It also runs both on every 2-factor of the
Isaacs products P·P, P·B1 and P·B2 of the first three corpus snarks
(tests/test_snark_products.py): 136 searches, 16 of them "none", whose
c1 is spanning with |c1| > r, so the engine reads the overlaps of the
larger sizes from its list of the projection and counts the failing
buckets there.  The script compares the C1 order, c1, c2,
candidates_tried, the certificate bytes with elapsed_ms removed, and the
set of flows each side decided.  It prints the counts and the run time,
and exits with status 1 when any search differs.

Run it from the root of a source checkout:

    python3 scripts/check_search_order.py
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from cdc5 import enumerate_circuits, parse_graph6  # noqa: E402
from tests.oracles import flower_snark, is_circuit, shuffled  # noqa: E402
from tests.test_search import reference_canonical, search_differences  # noqa: E402
from tests.test_snark_products import product, two_factors  # noqa: E402

J7_RELABELLINGS = 16
# (left, right, name): the Isaacs products of snarks.g6 entries to check
PRODUCTS = [(0, 0, "P·P"), (0, 1, "P·B1"), (0, 2, "P·B2")]


def main() -> int:
    started = time.monotonic()
    checked = 0
    differences = []
    lines = (ROOT / "tests" / "data" / "snarks.g6").read_text(encoding="ascii").split()
    snarks = [parse_graph6(line) for line in lines]
    for index, g in enumerate(snarks):
        circuits = enumerate_circuits(g)
        found, _ = search_differences(g, circuits)
        checked += len(circuits)
        differences += [f"snarks.g6 graph {index}, circuit {ids}" for ids in found]
    corpus = checked
    for seed in range(J7_RELABELLINGS):
        g = shuffled(flower_snark(7), seed)
        canonical = reference_canonical(g)
        rng = random.Random(seed)
        circuit = rng.choice(canonical)
        while not is_circuit(g, circuit):
            circuit = rng.choice(canonical)
        found, _ = search_differences(g, [circuit, 0], canonical)
        checked += 1
        differences += [f"J7 relabelling {seed}, prescription {ids}" for ids in found]
    factors = nones = 0
    for left, right, name in PRODUCTS:
        g = product(snarks, left, right)
        prescriptions = list(two_factors(g))
        found, certificates = search_differences(g, prescriptions)
        factors += len(prescriptions)
        nones += certificates.count(None)
        differences += [f"{name} 2-factor {ids}" for ids in found]
    elapsed = time.monotonic() - started
    j7 = checked - corpus
    print(f"corpus circuits: {corpus}, J7 circuits: {j7}, J7 empty prescriptions: {j7}")
    print(f"product 2-factors: {factors}, of them none: {nones}")
    print(f"differences: {len(differences)}, time: {elapsed:.1f} s")
    for line in differences:
        print(f"  differs: {line}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end acceptance gate.

Each criterion prints exactly one summary line of the form

    ACCEPTANCE <name>: PASS <detail>

so that a plain ``pytest -s tests/test_acceptance.py`` run doubles as the
release checklist.  The criteria compare the engine against independent
brute-force oracles, run the bundled snark corpus through the command
line with 8 workers, exercise the always-on invariants on every
certificate the other criteria produced, and verify that repeat runs are
deterministic up to timing fields.
"""

import json
import os
import random
import time

import pytest

from cdc5 import (
    MultiGraph,
    find_5cdc_containing,
    flow_planes,
    has_nz4flow,
    verify_certificate,
)
from cdc5.cli import main
from cdc5.cover import extend_to_cdc
from cdc5.graphs import mask_ids

from .conftest import DATA_DIR, read_graph6_lines, sweep_graph
from .oracles import (
    brute_force_cdc,
    cdc_to_flow,
    circuit_subsets,
    enumerate_even_subgraphs,
    extract_witness,
    loop_is_matching,
    loop_verify_cdc,
    mask_of,
    petersen_graph,
    plane_values,
    subdivide,
    verify_flow,
)

SNARKS_FILE = os.path.join(DATA_DIR, "snarks.g6")


def _report(name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {verdict} ({detail})")
    assert ok, f"{name}: {detail}"


def _normalized_cert(doc: dict) -> str:
    trimmed = json.loads(json.dumps(doc))
    trimmed["stats"].pop("elapsed_ms", None)
    return json.dumps(trimmed, sort_keys=True)


# ---------------------------------------------------------------------------
# Shared workloads.  Each heavy computation runs once per session and the
# criteria read from the cached result.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def petersen_sweep():
    """The Petersen graph as the sweep read it, its report entry and its
    certificates, and the time the sweep took."""
    started = time.monotonic()
    g, entry, certificates = sweep_graph(petersen_graph())
    elapsed = time.monotonic() - started
    return g, (entry, certificates), elapsed


@pytest.fixture(scope="session")
def catalog_equivalence(catalog):
    """find_5cdc_containing versus the brute-force oracle on every even
    subgraph of every catalog member."""
    disagreements = []
    certificates = []
    pairs = 0
    started = time.monotonic()
    for gi, g in enumerate(catalog):
        for c0 in enumerate_even_subgraphs(g, guard=16):
            pairs += 1
            cert = find_5cdc_containing(g, c0)
            reference = brute_force_cdc(g, c0)
            if (cert is None) != (reference is None):
                disagreements.append((gi, mask_ids(c0)))
            if cert is not None:
                certificates.append(cert)
    elapsed = time.monotonic() - started
    return pairs, disagreements, certificates, elapsed


@pytest.fixture(scope="session")
def snark_sweep_cli(tmp_path_factory):
    """Two full command-line sweeps of the snark corpus, 8 workers each."""
    runs = []
    for tag in ("first", "second"):
        out = str(tmp_path_factory.mktemp(f"snarks_{tag}"))
        started = time.monotonic()
        code = main(
            ["sweep", "--graph", SNARKS_FILE, "--out", out, "--workers", "8"]
        )
        elapsed = time.monotonic() - started
        runs.append((code, out, elapsed))
    return runs


# ---------------------------------------------------------------------------
# Criterion 1: every circuit of the Petersen graph is found and certified.
# ---------------------------------------------------------------------------


def test_criterion_1_petersen_census(petersen_sweep):
    g, (entry, certificates), elapsed = petersen_sweep
    rows = entry["circuits"]

    swept = {frozenset(row["edges"]) for row in rows}
    independent = set(circuit_subsets(g))
    problems = []
    if swept != independent:
        problems.append("circuit census mismatch")
    if len(rows) != 57:
        problems.append(f"expected 57 circuits, saw {len(rows)}")
    found = entry["counts"]["found"]
    if found != 57:
        problems.append(f"only {found} of 57 searches succeeded")
    bad_certs = 0
    for row in rows:
        if "certificate" not in row or verify_certificate(certificates[row["certificate"]]):
            bad_certs += 1
    if bad_certs:
        problems.append(f"{bad_certs} certificates failed independent verification")
    if elapsed >= 60:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _report(
        "criterion-1",
        not problems,
        problems[0] if problems else f"57/57 circuits certified in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: decision agreement with brute force on the full catalog.
# ---------------------------------------------------------------------------


def test_criterion_2_catalog_equivalence(catalog_equivalence):
    pairs, disagreements, certificates, elapsed = catalog_equivalence
    problems = []
    if disagreements:
        problems.append(f"{len(disagreements)} disagreements, first {disagreements[0]}")
    if pairs < 26:
        problems.append(f"only {pairs} (graph, subgraph) pairs exercised")
    if elapsed >= 600:
        problems.append(f"took {elapsed:.1f}s, budget 600s")
    _report(
        "criterion-2",
        not problems,
        problems[0]
        if problems
        else f"{pairs} pairs, {len(certificates)} certified, 0 disagreements, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 3: flow decisions match 4-cover brute force, constructions check.
# ---------------------------------------------------------------------------


def test_criterion_3_flow_equivalence(catalog):
    problems = []
    flows_checked = 0
    started = time.monotonic()
    for gi, g in enumerate(catalog):
        reference = brute_force_cdc(g, 0, max_elements=4)
        decided = has_nz4flow(g)
        if decided != (reference is not None):
            problems.append(f"graph {gi}: decision {decided} vs brute {reference}")
            continue
        constructed = flow_planes(g)
        if (constructed is None) != (not decided):
            problems.append(f"graph {gi}: construction disagrees with decision")
            continue
        if constructed is not None:
            if not verify_flow(g, plane_values(g, constructed)):
                problems.append(f"graph {gi}: constructed flow fails verification")
            flows_checked += 1
        if reference is not None:
            lifted = cdc_to_flow(g, list(reference))
            if not verify_flow(g, lifted):
                problems.append(f"graph {gi}: 4-cover flow fails verification")
            flows_checked += 1
    elapsed = time.monotonic() - started
    if elapsed >= 300:
        problems.append(f"took {elapsed:.1f}s, budget 300s")
    _report(
        "criterion-3",
        not problems,
        problems[0]
        if problems
        else f"26 graphs agreed, {flows_checked} flows verified, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: the snark corpus sweeps clean through the command line.
# ---------------------------------------------------------------------------


def test_criterion_4_snark_sweep(snark_sweep_cli):
    code, out, elapsed = snark_sweep_cli[0]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    else:
        with open(os.path.join(out, "report.json"), "r", encoding="utf-8") as handle:
            report = json.load(handle)
        counts = report["counts"]
        if counts["none"] != 0:
            problems.append(f"{counts['none']} definitive negatives")
        if counts["inconclusive"] != 0:
            problems.append(f"{counts['inconclusive']} inconclusive searches")
        if counts["found"] != 2881:
            problems.append(f"found {counts['found']} certificates, expected 2881")
    if elapsed >= 900:
        problems.append(f"took {elapsed:.1f}s, budget 900s")
    _report(
        "criterion-4",
        not problems,
        problems[0] if problems else f"2881/2881 circuits certified in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 5: always-on invariants.
# ---------------------------------------------------------------------------


def _witness_roundtrip_ok(doc: dict) -> bool:
    g = MultiGraph(doc["n"], [tuple(e) for e in doc["edges"]])
    elements = [mask_of(ids) for ids in doc["cdc"]]
    c0 = mask_of(doc["c0"])
    m, c1, c2 = extract_witness(g, elements, c0)
    if c0 & ~c1:
        return False
    if m != c1 & c2 or not loop_is_matching(g, m):
        return False
    return flow_planes(g, m) is not None


def test_criterion_5_property_suites(
    catalog, petersen_sweep, catalog_equivalence, snark_sweep_cli
):
    problems = []

    # Constructed covers must satisfy the double-cover verifier.
    covers_checked = 0
    for g in catalog:
        # One even subgraph covers no edge twice: the cover needs a flow of g.
        planes = flow_planes(g)
        if planes is None:
            continue
        for c_prime in enumerate_even_subgraphs(g, guard=16):
            if c_prime.bit_count() % 2:
                continue
            extended = extend_to_cdc([c_prime] if c_prime else [], planes)
            if not loop_verify_cdc(g, extended).valid:
                problems.append(f"extend_to_cdc broke on {g!r}")
                break
            covers_checked += 1
        if problems:
            break

    # Constructed flows must satisfy the flow verifier.
    flows_checked = 0
    if not problems:
        for g in catalog:
            planes = flow_planes(g)
            if planes is not None:
                if not verify_flow(g, plane_values(g, planes)):
                    problems.append(f"flow_planes broke on {g!r}")
                    break
                flows_checked += 1

    # Flow existence is invariant under edge subdivision.
    trials = 0
    if not problems:
        rng = random.Random(20260815)
        hosts = list(catalog) + [petersen_graph()]
        while trials < 500 and not problems:
            base = hosts[rng.randrange(len(hosts))]
            expected = has_nz4flow(base)
            g = base
            for _ in range(rng.randrange(1, 4)):
                g = subdivide(g, rng.randrange(g.m), times=rng.randrange(1, 3))
            if has_nz4flow(g) != expected:
                problems.append(f"subdivision changed the flow answer on {base!r}")
            trials += 1

    # Every certificate produced by the other criteria must round-trip
    # through witness extraction.
    roundtrips = 0
    if not problems:
        docs = []
        _, (_, sweep_certificates), _ = petersen_sweep
        docs.extend(sweep_certificates.values())
        docs.extend(cert.to_doc() for cert in catalog_equivalence[2])
        _, out, _ = snark_sweep_cli[0]
        for name in sorted(os.listdir(out)):
            if name.startswith("cert_"):
                with open(os.path.join(out, name), "r", encoding="utf-8") as handle:
                    docs.append(json.load(handle))
        for doc in docs:
            if not _witness_roundtrip_ok(doc):
                problems.append(f"witness round-trip failed for {doc['graph6']}")
                break
            roundtrips += 1

    _report(
        "criterion-5",
        not problems,
        problems[0]
        if problems
        else (
            f"{covers_checked} covers, {flows_checked} flows, "
            f"{trials} subdivision trials, {roundtrips} witness round-trips"
        ),
    )


# ---------------------------------------------------------------------------
# Criterion 6: repeat runs are deterministic up to timing fields.
# ---------------------------------------------------------------------------


def test_criterion_6_determinism(petersen_sweep, snark_sweep_cli):
    problems = []

    g, (_, first_certificates), _ = petersen_sweep
    _, _, second_certificates = sweep_graph(petersen_graph())
    first_docs = [_normalized_cert(doc) for doc in first_certificates.values()]
    second_docs = [_normalized_cert(doc) for doc in second_certificates.values()]
    if first_docs != second_docs:
        problems.append("repeat Petersen sweeps differ")

    (_, first_out, _), (_, second_out, _) = snark_sweep_cli
    first_names = sorted(os.listdir(first_out))
    second_names = sorted(os.listdir(second_out))
    if first_names != second_names:
        problems.append("snark sweep runs wrote different file sets")
    else:
        for name in first_names:
            with open(os.path.join(first_out, name), "r", encoding="utf-8") as handle:
                left = json.load(handle)
            with open(os.path.join(second_out, name), "r", encoding="utf-8") as handle:
                right = json.load(handle)
            if name == "report.json":
                left.pop("total_ms")
                right.pop("total_ms")
            else:
                left = _normalized_cert(left)
                right = _normalized_cert(right)
            if left != right:
                problems.append(f"{name} differs between runs")
                break

    _report(
        "criterion-6",
        not problems,
        problems[0] if problems else "repeat runs byte-identical outside timing fields",
    )

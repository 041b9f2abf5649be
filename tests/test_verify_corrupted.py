"""verify_certificate's problem lists on corrupted certificates, pinned.

tests/data/corrupted_problems.json holds a few certificates and, for each
corruption that corruptions() makes of them, the problems the verifier
reported when every mask of a certificate was checked by a vertex loop of
its own.  The check core now reads the counts of all of a certificate's
masks in one vertex_faults call, and must report the same problems, word
for word and in the same order.  After a deliberate change of wording,
rewrite the file from the verifier on the path with

    PYTHONPATH=src python -m tests.test_verify_corrupted
"""

import copy
import json
import os

from cdc5 import enumerate_circuits, find_5cdc_containing, parse_graph6, verify_certificate

DATA = os.path.join(os.path.dirname(__file__), "data", "corrupted_problems.json")


WITNESSLESS = "the cover witnesses no nowhere-zero 4-flow of the graph minus the matching"


def witnessless_prism() -> dict:
    """A valid 5-element cover of the prism, in graph6 E{Sw's own edge
    order, with c1 = c0 a triangle, c2 and the matching empty.  Then
    c1 ^ c2 is c1 again, so the replay has five masks where a flow gives
    at most four: the cover witnesses no flow, and the certificate is
    rejected although the prism has one."""
    g = parse_graph6("E{Sw")
    return {
        "graph6": "E{Sw", "n": 6, "m": 9, "edges": [list(e) for e in g.edges],
        "c0": [0, 1, 2], "c1": [0, 1, 2], "c2": [], "matching": [],
        "cdc": [[0, 1, 2], [5, 7, 8], [0, 3, 4, 5], [2, 4, 6, 8], [1, 3, 6, 7]],
        "coverage": [2] * 9, "path": "m-empty",
        "stats": {"candidates_tried": 1, "elapsed_ms": 0},
    }


def base_certificates() -> dict[str, dict]:
    """Certificate documents to corrupt, timed at 0 ms: the theorem-2 path
    on Petersen and on the first Blanusa snark, the m-empty path on K4,
    a document over K5 that no search would write, and the witnessless
    prism cover."""
    with open(os.path.join(os.path.dirname(__file__), "data", "snarks.g6")) as handle:
        petersen, blanusa = [parse_graph6(line) for line in handle.read().split()[:2]]
    k4 = parse_graph6("C~")
    out = {}
    for name, g in (("petersen", petersen), ("blanusa", blanusa), ("k4", k4)):
        circuit = enumerate_circuits(g)[len(g.edges) % 7]
        out[name] = find_5cdc_containing(g, circuit).to_doc()
        out[name]["stats"]["elapsed_ms"] = 0
    # K5 is 4-regular, so its every edge meets four edges at each end: a
    # document over it, with the whole edge set for c0, c1 and both
    # elements, fails as even subgraph by more than two edges, not parity.
    k5 = parse_graph6("D~{")
    every = list(range(k5.m))
    out["k5"] = {
        "graph6": "D~{", "n": 5, "m": k5.m, "edges": [list(e) for e in k5.edges],
        "c0": every, "c1": every, "c2": [], "matching": [], "cdc": [every, every],
        "coverage": [2] * k5.m, "path": "m-empty",
        "stats": {"candidates_tried": 1, "elapsed_ms": 0},
    }
    out["prism"] = witnessless_prism()
    return out


def corruptions(doc: dict) -> list[tuple[str, dict]]:
    """(label, corrupted copy) pairs of a certificate document: each edge
    bit flipped in each id field and each cover element, each element
    replaced by its symmetric difference with the next one, the first two
    elements swapped, and the coverage tally wrong at each edge or short."""
    out = []

    def corrupt(label, change):
        copied = copy.deepcopy(doc)
        change(copied)
        out.append((label, copied))

    def flip(ids, e):
        ids[:] = sorted(set(ids) ^ {e})

    for e in range(doc["m"]):
        for name in ("c0", "c1", "c2", "matching"):
            corrupt(f"{name} ^ {e}", lambda d, name=name: flip(d[name], e))
        for i in range(len(doc["cdc"])):
            corrupt(f"cdc[{i}] ^ {e}", lambda d, i=i: flip(d["cdc"][i], e))
        corrupt(f"coverage[{e}] = {1 + 2 * (e % 2)}", lambda d: d["coverage"].__setitem__(e, 1 + 2 * (e % 2)))
    cdc = doc["cdc"]
    for i in range(len(cdc)):
        other = sorted(set(cdc[i]) ^ set(cdc[(i + 1) % len(cdc)]))
        corrupt(f"cdc[{i}] replaced", lambda d, i=i, other=other: d["cdc"].__setitem__(i, other))
    corrupt("cdc[0] and cdc[1] swapped", lambda d: d["cdc"].insert(0, d["cdc"].pop(1)))
    corrupt("coverage short", lambda d: d["coverage"].pop())
    return out


def recorded_problems(bases: dict[str, dict]) -> dict[str, dict[str, list[str]]]:
    return {
        name: {label: verify_certificate(bad) for label, bad in corruptions(doc)}
        for name, doc in bases.items()
    }


def test_problem_lists_are_unchanged():
    with open(DATA, encoding="utf-8") as handle:
        recorded = json.load(handle)
    bases = base_certificates()
    assert {name: entry["certificate"] for name, entry in recorded.items()} == bases
    problems = recorded_problems(bases)
    assert sum(map(len, problems.values())) >= 200
    for name, entry in recorded.items():
        assert problems[name] == entry["problems"], name
    assert all(verify_certificate(bases[name]) == [] for name in ("petersen", "blanusa", "k4"))
    assert verify_certificate(bases["prism"]) == [WITNESSLESS]
    # Every kind of problem the check core reports on a cover shows up.
    seen = " ".join(p for lists in problems.values() for ps in lists.values() for p in ps)
    for phrase in ("not an even subgraph", "share an endpoint", "covered 3 times",
                   "no nowhere-zero 4-flow", "coverage field", "not an element"):
        assert phrase in seen


if __name__ == "__main__":
    bases = base_certificates()
    problems = recorded_problems(bases)
    with open(DATA, "w", encoding="utf-8") as handle:
        json.dump({name: {"certificate": bases[name], "problems": problems[name]} for name in bases},
                  handle, indent=1)
        handle.write("\n")

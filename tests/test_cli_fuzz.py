"""A seeded fuzz run of the command line, in process.

About 300 calls of cli.main over find, stats, sweep and verify, on random
graph6 bytes, random cubic graphs with circuits, unions of two circuits
and random vertex walks as prescriptions, tiny budgets, budgets past the
float range and guards, JSON past the loader's limits and mutated certificates.  Every exit code must
be an answer (0 or 1), a usage error (2) or a guard hit (3); 4, an
internal fault, is never right for any input.  Sweeps run with one
worker, so no process pool is started.
"""

import json
import multiprocessing
import random

from cdc5 import MultiGraph, enumerate_circuits, write_graph6
from cdc5.cli import main
from cdc5.graphs import mask_ids

from .oracles import complete_graph, petersen_graph, prism_graph

SEED = 20261019
ROUNDS = 30  # each round makes about ten calls


def random_cubic_graph(rng, n):
    """A simple cubic graph on n vertices (n even, n >= 4) from a random
    pairing of the half-edges, drawn again until it has no loop or
    parallel edge; bridges and several components are allowed."""
    while True:
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        pairs = {tuple(sorted(ends[i:i + 2])) for i in range(0, len(ends), 2)}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            return sorted(pairs)


def random_graph6(rng):
    """A line of random graph6 digits, with a random header and length,
    sometimes with a stray byte outside the format."""
    n = rng.randrange(0, 20)
    need = (n * (n - 1) // 2 + 5) // 6 + rng.choice([0, 0, 0, -1, 1])
    body = bytes(rng.randrange(63, 127) for _ in range(max(need, 0)))
    line = bytes([n + 63]) + body
    if rng.random() < 0.2:
        i = rng.randrange(len(line))
        line = line[:i] + bytes([rng.randrange(256)]) + line[i + 1:]
    return line


def random_walk(rng, n, pairs):
    """A comma-separated vertex walk along the graph's edges, closed or not,
    simple or not."""
    adjacent = {v: [] for v in range(n)}
    for u, v in pairs:
        adjacent[u].append(v)
        adjacent[v].append(u)
    walk = [rng.randrange(n)]
    for _ in range(rng.randrange(1, n + 2)):
        walk.append(rng.choice(adjacent[walk[-1]]))
    return ",".join(map(str, walk[:-1] if rng.random() < 0.5 else walk))


def prescriptions(rng, g, pairs):
    """--circuit arguments for find: none, a circuit, the union of two
    circuits (even or not) and a vertex walk."""
    circuits = enumerate_circuits(g)
    one, two = rng.choice(circuits), rng.choice(circuits)
    union = mask_ids(one | two)
    return [
        [],
        ["--edge-ids", "--circuit", ",".join(map(str, mask_ids(one)))],
        ["--edge-ids", "--circuit", ",".join(map(str, union))],
        ["--circuit", random_walk(rng, g.n, pairs)],
    ]


def mutated(rng, doc, m):
    """A certificate document with one field replaced: an out-of-range or
    negative id, a bool, a value of the wrong type, or a field dropped."""
    doc = json.loads(json.dumps(doc))
    key = rng.choice(sorted(doc))
    kind = rng.randrange(6)
    if kind == 0 and key in ("c0", "c1", "c2", "matching", "coverage"):
        doc[key] = doc[key] + [rng.choice([m, m + 1, -1, 10**30])]
    elif kind == 1 and doc["cdc"]:
        doc["cdc"][rng.randrange(len(doc["cdc"]))].append(rng.choice([m, -1, True]))
    elif kind == 2:
        doc[key] = rng.choice([True, False, None, 1.5, "x", [], {}, [[]], -(10**40)])
    elif kind == 3:
        doc["n"] = rng.choice([True, False])
    elif kind == 4:
        del doc[key]
    else:
        doc["stats"] = rng.choice([{}, {"candidates_tried": "1"}, [], None])
    return doc


def test_no_input_gives_an_internal_fault(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    rng = random.Random(SEED)
    graph, doc_file, out = tmp_path / "g.g6", tmp_path / "doc.json", str(tmp_path / "out")
    seen = {}

    def run(*argv):
        code = main([str(a) for a in argv])
        capsys.readouterr()
        seen.setdefault(argv[0], set()).add(code)
        assert code in (0, 1, 2, 3), (argv, code)
        return code

    docs = []
    for graph_ in (complete_graph(4), prism_graph(), petersen_graph()):
        graph.write_text(write_graph6(graph_) + "\n", encoding="ascii")
        assert run("find", "--graph", graph, "--out", out) in (0, 1)
        docs.append(json.loads((tmp_path / "out" / "certificate.json").read_text()))
    for text in ("[" * 200_000 + "]" * 200_000, '{"n": ' + "9" * 5000 + "}"):
        doc_file.write_text(text, encoding="utf-8")
        run("verify", doc_file)

    for _ in range(ROUNDS):
        graph.write_bytes(random_graph6(rng) + b"\n")
        for command in ("find", "stats"):
            run(command, "--graph", graph, "--dim-guard", rng.randrange(1, 17))
        run("sweep", "--graph", graph, "--out", out, "--workers", 1)

        n = rng.randrange(4, 20, 2)
        pairs = random_cubic_graph(rng, n)
        g = MultiGraph(n, pairs)
        graph.write_text(write_graph6(g) + "\n", encoding="ascii")
        guard = ["--dim-guard", rng.randrange(3, 17)]
        # A tiny budget stops a search; one past the float range never does.
        budget = rng.choice([[], ["--budget-ms", rng.randrange(1, 20)], ["--budget-ms", 10**400]])
        for prescription in prescriptions(rng, g, pairs):
            run("find", "--graph", graph, "--out", out, *prescription, *guard, *budget)
        run("stats", "--graph", graph, *guard)
        if n <= 10:
            run("sweep", "--graph", graph, "--out", out, "--workers", 1, *guard, *budget)

        base = rng.choice(docs)
        for _ in range(2):
            doc_file.write_text(json.dumps(mutated(rng, base, base["m"])), encoding="utf-8")
            run("verify", doc_file)

    assert set(seen) == {"find", "stats", "sweep", "verify"}
    assert set().union(*seen.values()) == {0, 1, 2, 3}

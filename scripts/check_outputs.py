#!/usr/bin/env python3
"""Check the files the sweeps of the corpus and of the catalog write.

Runs `cdc5 sweep --workers 1` over tests/data/snarks.g6 into a temporary
directory, in process. Every file it writes (each certificate and
report.json) must equal json.dumps(json.loads(text), indent=2) + "\\n" byte
for byte, and verify_certificate must accept every certificate without
running the 3-edge-colourer, the search's exponential flow decider: the
calls of cdc5.flows.three_edge_color are counted while it verifies (not
while the sweeps search) and must be 0. It then
runs the same sweep with `--workers 2`, which must write the same files,
each equal to the serial one byte for byte once the values of elapsed_ms
and total_ms are removed. It does the same for the catalog
tests/data/cubic_bridgeless_connected_n4_10.g6, whose certificates mostly
have an empty c2 and an empty matching, and for the corpus again under
`--dim-guard 10 --keep-going`, where the 20-vertex snark (cycle-space
dimension 11) is reported inconclusive and the sweep exits with status 3.
Last, it pins the output bytes of each serial sweep by two SHA-256
digests recorded in DIGESTS: one over its certificate files, in name
order (each file's name, a newline, then its text with the elapsed_ms
values removed), and one over its report.json without its "input" and
"total_ms" fields (the path as given and the run time), which pins every
outcome and detail. It also runs `cdc5 stats --format json` over the
corpus and over the catalog, in process: stdout must equal
json.dumps(json.loads(stdout), indent=2) + "\n" byte for byte, and a
digest in DIGESTS pins it without its "input" field. It prints the counts,
the flow decisions made while verifying, whether the digests match and the
run time, and exits with status 1 on any mismatch, flow decision or digest
that differs. A change that alters the outputs on purpose records the new
digest, which the failing run prints.

Run it from the root of a source checkout:

    python3 scripts/check_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import cdc5.flows  # noqa: E402
from cdc5 import verify_certificate  # noqa: E402
from cdc5.cli import main as cdc5_main  # noqa: E402

CORPUS = str(ROOT / "tests" / "data" / "snarks.g6")
# Connected bridgeless cubic graphs up to 10 vertices: most of their
# certificates have an empty c2 and an empty matching.
CATALOG = str(ROOT / "tests" / "data" / "cubic_bridgeless_connected_n4_10.g6")
TIMING = re.compile(r'("(?:elapsed_ms|total_ms)": )\d+')
# Per sweep: the graph file, further `cdc5 sweep` arguments and the exit
# status the sweep must return.
SWEEPS = {
    "corpus": (CORPUS, [], 0),
    "catalog": (CATALOG, [], 0),
    "guarded corpus": (CORPUS, ["--dim-guard", "10", "--keep-going"], 3),
}
# Per stats run: the graph file; `cdc5 stats --format json` must exit 0.
STATS = {"corpus stats": CORPUS, "catalog stats": CATALOG}
DIGESTS = {
    "corpus": "2639df6b7e804e5f05949a07162e5c27a8f17ec1a62e94d04af392b5dbbc222b",
    "corpus report": "060cf4a3e6350f31f5ab7ea771e47cfcd965ac32fbf2c936bd79a3b0ce9aff25",
    "catalog": "bdc91879f8a3300c05e3644a7d728c398489e1914e13bf0bd2bdc3b60ca92782",
    "catalog report": "78e03d80b2db37afd89a4a022f7a56ab8d1b7991c6fe4b078fbf47bc52243876",
    "guarded corpus": "cecc05840ceba74aba6bf7ab46203fac258752255e97bd4ba7cf6376a8ebadb3",
    "guarded corpus report": "c1c759fb7d0870c07d0dc15bf28a3ff77b49a56128e062c6b49348636a93df90",
    "corpus stats": "74f46813b769eda37ea9020365a390a3073146907984dd2555f7c7fb36f10e68",
    "catalog stats": "3534e1feff813598d5d158328fe3a06eb010f024d0ae82ce63ac8fbec5945350",
}


def sweep(graph: str, out: str, workers: int, args: list[str]) -> int:
    argv = ["sweep", "--graph", graph, "--out", out, "--workers", str(workers), *args]
    with contextlib.redirect_stdout(io.StringIO()):
        return cdc5_main(argv)


def untimed(path: Path) -> str:
    return TIMING.sub(r"\1", path.read_text(encoding="utf-8"))


def pinned_report(path: Path) -> str:
    """The text of report.json without the fields that name the input path
    as given and the run time."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["input"], doc["total_ms"]
    return json.dumps(doc, indent=2)


def stats(graph: str) -> tuple[list[str], str]:
    """Run `cdc5 stats --format json` over graph: (problems, the digest of
    its stdout without the "input" field)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cdc5_main(["stats", "--graph", graph, "--format", "json"])
    text = out.getvalue()
    doc = json.loads(text)
    problems = [] if code == 0 else [f"stats exited with status {code}, not 0"]
    if text != json.dumps(doc, indent=2) + "\n":
        problems.append("stdout: not the json.dumps(..., indent=2) text")
    del doc["input"]
    return problems, hashlib.sha256(json.dumps(doc, indent=2).encode("utf-8")).hexdigest()


def verify(doc: dict) -> tuple[list[str], int]:
    """verify_certificate's problems with doc, and how many times it ran
    the 3-edge-colourer."""
    calls = 0
    colour = cdc5.flows.three_edge_color

    def counted(g):
        nonlocal calls
        calls += 1
        return colour(g)

    cdc5.flows.three_edge_color = counted
    try:
        return verify_certificate(doc), calls
    finally:
        cdc5.flows.three_edge_color = colour


def check(graph: str, args: list[str], status: int) -> tuple[int, int, int, list[str], str, str]:
    """Sweep graph with one worker and with two, and check what they write:
    (files, certificates, flow decisions while verifying, problems, the
    digests of the serial sweep's certificates and of its report)."""
    problems = []
    decisions = 0
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out, tempfile.TemporaryDirectory() as parallel:
        code = sweep(graph, out, 1, args)
        if code != status:
            problems.append(f"sweep exited with status {code}, not {status}")
        paths = sorted(Path(out).iterdir())
        certificates = 0
        for path in paths:
            text = path.read_text(encoding="utf-8")
            doc = json.loads(text)
            if text != json.dumps(doc, indent=2) + "\n":
                problems.append(f"{path.name}: not the json.dumps(..., indent=2) text")
            if path.name.startswith("cert_"):
                certificates += 1
                digest.update(f"{path.name}\n{untimed(path)}".encode("utf-8"))
                found, calls = verify(doc)
                problems += [f"{path.name}: {p}" for p in found]
                decisions += calls
        report = hashlib.sha256(pinned_report(Path(out) / "report.json").encode("utf-8"))
        code = sweep(graph, parallel, 2, args)
        if code != status:
            problems.append(f"sweep --workers 2 exited with status {code}, not {status}")
        if sorted(p.name for p in Path(parallel).iterdir()) != [p.name for p in paths]:
            problems.append("sweep --workers 2 wrote other files than --workers 1")
        else:
            problems += [
                f"{path.name}: --workers 2 differs from --workers 1"
                for path in paths
                if untimed(path) != untimed(Path(parallel) / path.name)
            ]
    return len(paths), certificates, decisions, problems, digest.hexdigest(), report.hexdigest()


def main() -> int:
    started = time.monotonic()
    problems: list[str] = []
    decisions = 0
    digests = {}
    empty = []
    for name, (graph, args, status) in SWEEPS.items():
        files, certificates, calls, found, digest, report = check(graph, args, status)
        print(f"{name} files: {files}, certificates: {certificates}")
        problems += [f"{name}: {line}" for line in found]
        decisions += calls
        digests.update({name: digest, f"{name} report": report})
        if not certificates:
            empty.append(name)
    for name, graph in STATS.items():
        found, digests[name] = stats(graph)
        problems += [f"{name}: {line}" for line in found]
    differ = [f"{name} ({digests[name]})" for name in DIGESTS if digests[name] != DIGESTS[name]]
    elapsed = time.monotonic() - started
    print(f"flow decisions while verifying: {decisions}")
    print("digests: " + ("differ for " + ", ".join(differ) if differ else "match"))
    print(f"problems: {len(problems)}, time: {elapsed:.1f} s")
    for line in problems:
        print(f"  {line}")
    return 1 if problems or decisions or differ or empty else 0


if __name__ == "__main__":
    sys.exit(main())

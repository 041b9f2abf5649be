"""Self-contained JSON records of successful searches.

A certificate carries the graph (both as graph6 and as an explicit edge
list, so a third party need not reimplement edge numbering), the prescribed
subgraph c0, the witness pair (c1, c2) with their matching intersection,
the final cover, a per-edge coverage tally, which construction path fired,
and search statistics.  One check core re-derives everything and trusts
no stored claim it can recompute: verify_certificate runs it on the graph
and edge masks a document names, build_certificate on those the search
holds.  The cover is the only witness of the flow condition on G - M: its
elements must replay a nowhere-zero 4-flow of G - M (cover.replayed_planes),
and a cover that replays none is rejected, since no flow is decided here.
So checking a certificate takes linear time whatever graph it names, and
one vertex_faults call checks all of its masks.  A Certificate is the
frame of its graph, which holds the graph, the fields that depend on it
alone and the text of each edge id, and the search's edge masks; they
become id lists only when it is rendered or made a document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Sequence

from .cover import coverage_masks, replayed_planes
from .errors import Graph6Error, InvariantViolationError, UnsupportedFormatError
from .graphs import MultiGraph, mask_ids, parse_graph6, vertex_faults, write_graph6

PATH_THEOREM = "theorem2"
PATH_M_EMPTY = "m-empty"


_FIELD = "\n  "  # the line break and indent of a top-level field in json.dumps(..., indent=2)


def _list(parts: list[str], newline: str) -> str:
    """The text json.dumps(..., indent=2) writes at newline for a list whose
    members it writes as parts, at newline + "  "."""
    if not parts:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(parts) + newline + "]"


class CertificateFrame:
    """Graph g, which build_certificate reads from here, and the text that
    the certificates of g share: the JSON of graph6, n, m, edges and the
    coverage every certificate claims, all twos, and of each edge id,
    rendered once, so a sweep renders a graph's constant fields and ids
    once, not per circuit.  Raises UnsupportedFormatError when graph6
    cannot encode g."""

    def __init__(self, g: MultiGraph):
        self.g = g
        self.graph6 = write_graph6(g)
        self.coverage = (2,) * g.m
        head = {"graph6": self.graph6, "n": g.n, "m": g.m, "edges": g.edges}
        self._head = json.dumps(head, indent=2)[:-2] + ',\n  "c0": '  # without its closing "\n}"
        self._coverage = _list(["2"] * g.m, _FIELD)
        self._ids = [str(e) for e in range(g.m)]


@dataclass(frozen=True)
class Certificate:
    """A found cover in the frame of its graph, its fields edge masks as the
    search holds them (cdc the cover's elements); the path is read off the
    matching, and ids are listed only by to_doc and render."""

    frame: CertificateFrame
    c0: int
    c1: int
    c2: int
    matching: int
    cdc: tuple[int, ...]
    candidates_tried: int
    elapsed_ms: int

    @property
    def path(self) -> str:
        return PATH_THEOREM if self.matching else PATH_M_EMPTY

    def to_doc(self) -> dict[str, Any]:
        """Plain-data document; key order is part of the format."""
        g = self.frame.g
        return {
            "graph6": self.frame.graph6,
            "n": g.n,
            "m": g.m,
            "edges": [list(pair) for pair in g.edges],
            "c0": list(mask_ids(self.c0)),
            "c1": list(mask_ids(self.c1)),
            "c2": list(mask_ids(self.c2)),
            "matching": list(mask_ids(self.matching)),
            "cdc": [list(mask_ids(x)) for x in self.cdc],
            "coverage": list(self.frame.coverage),
            "path": self.path,
            "stats": {"candidates_tried": self.candidates_tried, "elapsed_ms": self.elapsed_ms},
        }

    def render(self) -> str:
        """json.dumps(self.to_doc(), indent=2) + "\n", byte for byte, from
        the frame's text and each mask's ids."""
        frame, text = self.frame, self.frame._ids

        def ids(mask: int, newline: str = _FIELD) -> str:
            return _list([text[e] for e in mask_ids(mask)], newline)

        cdc = _list([ids(x, _FIELD + "  ") for x in self.cdc], _FIELD)
        return "".join((
            frame._head, ids(self.c0),
            ',\n  "c1": ', ids(self.c1),
            ',\n  "c2": ', ids(self.c2),
            ',\n  "matching": ', ids(self.matching),
            ',\n  "cdc": ', cdc,
            ',\n  "coverage": ', frame._coverage,
            ',\n  "path": "', self.path,
            '",\n  "stats": {\n    "candidates_tried": ', str(self.candidates_tried),
            ',\n    "elapsed_ms": ', str(self.elapsed_ms),
            "\n  }\n}\n",
        ))


def build_certificate(
    frame: CertificateFrame,
    c0: int,
    c1: int,
    c2: int,
    matching: int,
    elements: Sequence[int],
    candidates_tried: int,
    elapsed_ms: int,
) -> Certificate:
    """Assemble a certificate over the frame's graph after running the full
    check on it and the edge masks given, claiming every edge covered
    twice; a failed check here means the search produced inconsistent
    data, and a mask with a bit at or above frame.g.m raises ValueError."""
    g = frame.g
    if any(x >> g.m for x in (c0, c1, c2, matching, *elements)):  # a negative mask too
        raise ValueError(f"edge mask outside the graph's edge range (m={g.m})")
    cert = Certificate(frame, c0, c1, c2, matching, tuple(elements), candidates_tried, elapsed_ms)
    stats = {"candidates_tried": candidates_tried, "elapsed_ms": elapsed_ms}
    problems = _check(g, c0, c1, c2, matching, elements, frame.coverage, cert.path, stats)
    if problems:
        raise InvariantViolationError(
            "constructed certificate fails verification: " + "; ".join(problems)
        )
    return cert


def _is_id_array(value: Any) -> bool:
    return isinstance(value, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    )


def _structural_problems(doc: Any) -> list[str]:
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    for key, kind in (
        ("graph6", str),
        ("n", int),
        ("m", int),
        ("edges", list),
        ("c0", list),
        ("c1", list),
        ("c2", list),
        ("matching", list),
        ("cdc", list),
        ("coverage", list),
        ("path", str),
        ("stats", dict),
    ):
        if key not in doc:
            problems.append(f"missing field '{key}'")
        elif not isinstance(doc[key], kind) or isinstance(doc[key], bool):
            problems.append(f"field '{key}' has the wrong type")
    if problems:
        return problems
    for key in ("c0", "c1", "c2", "matching", "coverage"):
        if not _is_id_array(doc[key]):
            problems.append(f"field '{key}' must be an array of integers")
    if not all(
        isinstance(pair, list) and len(pair) == 2 and _is_id_array(pair)
        for pair in doc["edges"]
    ):
        problems.append("field 'edges' must be an array of endpoint pairs")
    if not all(_is_id_array(el) for el in doc["cdc"]):
        problems.append("field 'cdc' must be an array of edge-id arrays")
    stats = doc["stats"]
    for key in ("candidates_tried", "elapsed_ms"):
        if not isinstance(stats.get(key), int) or isinstance(stats.get(key), bool):
            problems.append(f"stats field '{key}' must be an integer")
    return problems


def _ordered_ids(name: str, ids: list[int], m: int, problems: list[str]) -> bool:
    ok = True
    for x in ids:
        if not 0 <= x < m:
            problems.append(f"{name} contains out-of-range edge id {x}")
            ok = False
    if ids != sorted(set(ids)):
        problems.append(f"{name} must list edge ids strictly increasing")
        ok = False
    return ok


def verify_certificate(doc: dict[str, Any]) -> list[str]:
    """Re-verify a certificate document from scratch.  Returns a list of
    problems; empty means the certificate is sound.  The document is parsed
    here, the rest is the check core build_certificate runs too."""
    problems = _structural_problems(doc)
    if problems:
        return problems

    try:
        parsed = parse_graph6(doc["graph6"])
    except (Graph6Error, UnsupportedFormatError) as exc:
        return [f"graph6 field does not parse: {exc}"]
    if parsed.n != doc["n"]:
        problems.append(f"n is {doc['n']} but the graph has {parsed.n} vertices")
    if parsed.m != len(doc["edges"]):
        problems.append(f"graph6 has {parsed.m} edges but {len(doc['edges'])} are listed")
    if len(doc["edges"]) != doc["m"]:
        problems.append(f"m is {doc['m']} but {len(doc['edges'])} edges are listed")
    if problems:
        return problems

    # The edges field fixes the edge numbering all id arrays refer to; the
    # graph6 field must describe the same labeled graph, but its own edge
    # order is irrelevant.
    try:
        g = MultiGraph(doc["n"], [(pair[0], pair[1]) for pair in doc["edges"]])
    except ValueError as exc:
        return [f"edges field is not a valid edge list: {exc}"]
    def normalize(pairs):
        return sorted(tuple(sorted(p)) for p in pairs)

    if normalize(g.edges) != normalize(parsed.edges):
        return ["edges field does not describe the graph6 graph"]

    names = ("c0", "c1", "c2", "matching")
    ok = True
    for name in names:
        ok &= _ordered_ids(name, doc[name], g.m, problems)
    for i, el in enumerate(doc["cdc"]):
        ok &= _ordered_ids(f"cdc[{i}]", el, g.m, problems)
    if not ok:
        return problems
    # The ids are checked distinct, so their bits sum to the mask.
    c0, c1, c2, matching = (sum(1 << e for e in doc[name]) for name in names)
    elements = [sum(1 << e for e in el) for el in doc["cdc"]]
    return _check(g, c0, c1, c2, matching, elements, doc["coverage"], doc["path"], doc["stats"])


def _check(
    g: MultiGraph, c0: int, c1: int, c2: int, matching: int,
    elements: Sequence[int], coverage: Sequence[int], path: str, stats: dict[str, int],
) -> list[str]:
    """The check core: every problem of a certificate over g whose fields
    are given as edge masks, in time linear in its size."""
    problems = []
    if not g.is_cubic():
        problems.append("graph is not cubic")
    masks = [c0, c1, c2, matching, *elements]
    # Replayed planes hold E - M by their shape, so is_flow asks only their parity.
    planes = replayed_planes(g, c1, c2, matching, elements)
    odd, shared, crowded = vertex_faults(g, masks + list(planes or ()))
    for i, name in enumerate(("c0", "c1", "c2")):
        if (odd | crowded) >> i & 1:
            problems.append(f"{name} is not an even subgraph")
    if c0 & ~c1:
        problems.append("c0 is not a subset of c1")
    if (c1 & c2) != matching:
        problems.append("matching is not the intersection of c1 and c2")
    if shared >> 3 & 1:
        problems.append("matching edges share an endpoint")

    if len(elements) > 5:
        problems.append(f"cover has {len(elements)} elements, more than 5")
    uneven = (odd | crowded) >> 4
    for i, x in enumerate(elements):
        if not x:
            problems.append(f"cdc[{i}] is empty")
    for i in range(len(elements)):
        if uneven >> i & 1:
            problems.append(f"cdc[{i}] is not an even subgraph")
    # The tally is counted edge by edge only for a failed cover.
    tally = (2,) * g.m
    if coverage_masks(elements)[1] != (1 << g.m) - 1:
        tally = tuple(sum(x >> e & 1 for x in elements) for e in range(g.m))
        problems += [
            f"edge {e} is covered {k} times, expected 2" for e, k in enumerate(tally) if k != 2
        ]
    if tuple(coverage) != tally:
        wrong = [e for e in range(min(len(coverage), g.m)) if coverage[e] != tally[e]]
        detail = f" at edges {wrong}" if wrong else ""
        problems.append("coverage field does not match the recomputed tally" + detail)
    if c1 and c1 not in elements:
        problems.append("c1 is not an element of the cover")
    if c2 and c2 not in elements:
        problems.append("c2 is not an element of the cover")
    if not any(c0 & ~x == 0 for x in elements):
        problems.append("no cover element contains c0")

    if path not in (PATH_THEOREM, PATH_M_EMPTY):
        problems.append(f"unknown path '{path}'")
    elif (path == PATH_M_EMPTY) != (not matching):
        problems.append("path field is inconsistent with the matching")

    # No problem so far means a cubic graph, a matching and a valid cover,
    # whose planes are sums of even elements: their parity test cannot
    # fail then, and is kept as a second check.
    if not problems and (planes is None or odd >> len(masks)):
        problems.append(
            "the cover witnesses no nowhere-zero 4-flow of the graph minus the matching"
        )

    if stats["candidates_tried"] < 1:
        problems.append("candidates_tried must be at least 1")
    if stats["elapsed_ms"] < 0:
        problems.append("elapsed_ms must be nonnegative")
    return problems

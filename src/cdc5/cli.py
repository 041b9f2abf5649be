"""Command-line front end: certificate verification, single searches,
batch conjecture sweeps over graph6 catalogs, and catalog statistics.

Exit codes are a stable contract: 0 success, 1 definitive negative (or a
sweep counterexample), 2 usage or input error, 3 inconclusive (a capacity
guard stopped the search before an answer was reached), 4 internal fault
(an engine bug such as an InvariantViolationError, never an answer).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from typing import Any, Optional

from .certificates import verify_certificate
from .cyclespace import enumerate_circuits, is_even_subgraph
from .errors import CapacityError, Graph6Error, PreconditionError, UnsupportedFormatError
from .flows import has_nz4flow
from .graphs import GRAPH6_HEADER, MultiGraph, mask_ids, parse_graph6, spanning_forest
from .search import SearchOptions, Sweep, find_5cdc_containing

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_FAULT = 4


class _Fail(Exception):
    """Abort the current command with an exit code and a message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="cdc5",
        description="Search and verify 5-element cycle double covers of cubic "
        "graphs containing a prescribed circuit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="re-verify a certificate file")
    p_verify.add_argument("certificate", help="certificate JSON file")
    p_verify.set_defaults(run=cmd_verify)
    p_find = sub.add_parser("find", help="search one graph for one prescribed subgraph")
    p_find.set_defaults(run=cmd_find)
    p_sweep = sub.add_parser("sweep", help="run every circuit of every graph in a file")
    p_sweep.set_defaults(run=cmd_sweep)
    p_stats = sub.add_parser("stats", help="summarize the graphs in a file")
    p_stats.set_defaults(run=cmd_stats)
    for p in (p_find, p_sweep, p_stats):  # shared flags keep their places in --help
        p.add_argument("--graph", required=True, help="graph6 file, one graph per line")
    p_find.add_argument("--index", type=int, default=0, help="graph line index (default 0)")
    p_find.add_argument(
        "--circuit",
        help="prescribed circuit as a closed vertex sequence 'v0,v1,...'; "
        "omitted means no prescription",
    )
    p_find.add_argument(
        "--edge-ids",
        action="store_true",
        help="interpret --circuit as comma-separated edge identifiers (any even subgraph)",
    )
    for p in (p_find, p_sweep):
        p.add_argument("--out", default=".", help="output directory (default .)")
    for p in (p_find, p_sweep, p_stats):
        p.add_argument("--dim-guard", type=_positive_int, default=SearchOptions.dim_guard)
    for p in (p_find, p_sweep):
        p.add_argument("--budget-ms", type=_positive_int, default=SearchOptions.budget_ms)
    p_sweep.add_argument(
        "--workers",
        type=_positive_int,
        default=os.cpu_count() or 1,
        help="worker processes (default: the core count)",
    )
    p_sweep.add_argument(
        "--keep-going",
        action="store_true",
        help="do not stop at the first graph with a definitive negative",
    )
    for p in (p_find, p_sweep, p_stats):
        p.add_argument("--format", choices=("json", "table"), default="table")
    return parser


def _graph_lines(path: str) -> list[str]:
    """Graph lines of a graph6 file; comments start '>' but a '>>graph6<<'
    header glued to the first graph is data, not a comment."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            raw = handle.read()
    except OSError as exc:
        raise _Fail(EXIT_USAGE, f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _Fail(EXIT_USAGE, f"{path} is not an ASCII graph6 file: {exc}") from exc
    lines = []
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(">") and not line.startswith(GRAPH6_HEADER):
            continue
        lines.append(line)
    return lines


def _parse_vertex_circuit(g: MultiGraph, spec: str) -> int:
    try:
        verts = [int(part) for part in spec.split(",")]
    except ValueError as exc:
        raise _Fail(EXIT_USAGE, f"bad circuit spec '{spec}': {exc}") from exc
    if len(verts) < 3:
        raise _Fail(EXIT_USAGE, "a vertex circuit needs at least 3 vertices")
    if len(set(verts)) != len(verts):
        raise _Fail(EXIT_USAGE, "circuit vertices must be distinct")
    for v in verts:
        if not 0 <= v < g.n:
            raise _Fail(EXIT_USAGE, f"vertex {v} out of range (graph has {g.n} vertices)")
    mask = 0
    for u, v in zip(verts, verts[1:] + verts[:1]):
        here = [e for e in g.incident(u) if g.other_end(e, u) == v]
        if not here:
            raise _Fail(EXIT_USAGE, f"no edge between {u} and {v}")
        mask |= 1 << here[0]
    return mask


def _parse_edge_ids(g: MultiGraph, spec: str) -> int:
    try:
        ids = [int(part) for part in spec.split(",")] if spec else []
    except ValueError as exc:
        raise _Fail(EXIT_USAGE, f"bad edge-id spec '{spec}': {exc}") from exc
    for e in ids:
        if not 0 <= e < g.m:
            raise _Fail(EXIT_USAGE, f"edge id {e} out of range (graph has {g.m} edges)")
    if len(set(ids)) != len(ids):
        raise _Fail(EXIT_USAGE, "edge ids must be distinct")
    mask = sum(1 << e for e in ids)
    if not is_even_subgraph(g, mask):
        raise _Fail(EXIT_USAGE, "edge ids do not form an even subgraph")
    return mask


def _load_graph(path: str, index: int) -> MultiGraph:
    lines = _graph_lines(path)
    if not 0 <= index < len(lines):
        raise _Fail(
            EXIT_USAGE, f"graph index {index} out of range ({len(lines)} graphs in {path})"
        )
    try:
        return parse_graph6(lines[index])
    except (Graph6Error, UnsupportedFormatError) as exc:
        raise _Fail(EXIT_USAGE, f"{path}:{index}: {exc}") from exc


def _make_out(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _Fail(EXIT_USAGE, f"cannot use {path} as the output directory: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "wb") as handle:
            handle.write(text.encode("utf-8"))
    except OSError as exc:
        raise _Fail(EXIT_USAGE, f"cannot write {path}: {exc}") from exc


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise _Fail(EXIT_USAGE, f"cannot read {args.certificate}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _Fail(EXIT_USAGE, f"{args.certificate} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, or an integer or a nesting past json's limits
        raise _Fail(EXIT_USAGE, f"{args.certificate} is not valid JSON: {exc}") from exc
    problems = verify_certificate(doc)
    if problems:
        print(f"certificate {args.certificate} is INVALID:")
        for problem in problems:
            print(f"  - {problem}")
        return EXIT_NEGATIVE
    print(
        f"certificate OK: graph {doc['graph6']} (n={doc['n']}, m={doc['m']}), "
        f"{len(doc['cdc'])} elements, path {doc['path']}"
    )
    return EXIT_OK


def _no_cover(args: argparse.Namespace, outcome: str, reason: str, **fields: Any) -> None:
    """Print a find that ends without a cover: one JSON object in json
    format, else the line "<outcome>: <reason>"."""
    if args.format == "json":
        print(json.dumps({"outcome": outcome, "reason": reason, **fields}))
    else:
        print(f"{outcome}: {reason}")


def cmd_find(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.index)
    if not g.is_cubic():
        raise _Fail(EXIT_USAGE, "graph is not cubic")
    if args.circuit is None:
        c0 = 0
    elif args.edge_ids:
        c0 = _parse_edge_ids(g, args.circuit)
    else:
        c0 = _parse_vertex_circuit(g, args.circuit)
    if spanning_forest(g).bridges:
        _no_cover(args, "none", "the graph has a bridge, so it has no cycle double cover")
        return EXIT_NEGATIVE

    near = args.out  # refuse before the search an --out that cannot be made
    while near and not os.path.lexists(near):
        near = os.path.dirname(near)
    if not args.out or not os.path.isdir(near or "."):
        raise _Fail(EXIT_USAGE, f"cannot use {args.out} as the output directory: not a directory")
    options = SearchOptions(dim_guard=args.dim_guard, budget_ms=args.budget_ms)
    try:
        cert = find_5cdc_containing(g, c0, options)
    except CapacityError as exc:
        _no_cover(args, "inconclusive", str(exc), candidates_tried=exc.candidates_tried)
        return EXIT_INCONCLUSIVE
    except PreconditionError as exc:
        raise _Fail(EXIT_USAGE, str(exc)) from exc
    if cert is None:
        _no_cover(args, "none", "the search space was exhausted without a cover")
        return EXIT_NEGATIVE

    _make_out(args.out)
    path = os.path.join(args.out, "certificate.json")
    _write(path, cert.render())
    if args.format == "json":
        print(
            json.dumps(
                {
                    "outcome": "found",
                    "certificate": path,
                    "elements": len(cert.cdc),
                    "matching": list(mask_ids(cert.matching)),
                    "path": cert.path,
                    "candidates_tried": cert.candidates_tried,
                    "elapsed_ms": cert.elapsed_ms,
                }
            )
        )
    else:
        print(
            f"found: {len(cert.cdc)}-element cover, matching {list(mask_ids(cert.matching))}, "
            f"{cert.candidates_tried} candidates, certificate {path}"
        )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.monotonic()
    lines = _graph_lines(args.graph)
    _make_out(args.out)
    options = SearchOptions(dim_guard=args.dim_guard, budget_ms=args.budget_ms)
    run = Sweep(lines, options, args.workers, args.keep_going)
    graph_reports: list[dict[str, Any]] = []
    for entry, certificates in run:
        for name, cert in certificates.items():
            _write(os.path.join(args.out, name), cert.render())
        graph_reports.append(entry)
    counts = run.counts

    report = {
        "command": "sweep",
        "input": args.graph,
        "options": dataclasses.asdict(options),
        "graphs": graph_reports,
        "counts": counts,
        "aborted": run.aborted,
        "total_ms": int((time.monotonic() - started) * 1000),
    }
    text = json.dumps(report, indent=2) + "\n"
    _write(os.path.join(args.out, "report.json"), text)

    if args.format == "json":
        sys.stdout.write(text)
    else:
        for entry in graph_reports:
            if entry["status"] == "ok":
                c = entry["counts"]
                print(
                    f"graph {entry['index']} ({entry['graph6']}): "
                    f"{c['found']} found, {c['none']} none, "
                    f"{c['inconclusive']} inconclusive"
                )
                for row in entry["circuits"]:
                    if row["outcome"] == "none":
                        print(
                            f"  COUNTEREXAMPLE: circuit {row['edges']} has no "
                            f"5-element cover containing it"
                        )
            elif entry["status"] == "skipped":
                print(f"graph {entry['index']}: skipped (earlier counterexample)")
            else:
                print(
                    f"graph {entry['index']}: {entry['status']} "
                    f"({entry.get('reason', '')})"
                )
        print(
            f"total: {counts['found']} found, {counts['none']} none, "
            f"{counts['inconclusive']} inconclusive"
        )

    if counts["none"]:
        return EXIT_NEGATIVE
    if any(entry["status"] in ("error", "rejected") for entry in graph_reports):
        return EXIT_USAGE
    if counts["inconclusive"]:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    lines = _graph_lines(args.graph)
    rows = []
    had_error = False
    for gi, line in enumerate(lines):
        row: dict[str, Any] = {"index": gi, "graph6": line}
        try:
            g = parse_graph6(line)
        except (Graph6Error, UnsupportedFormatError) as exc:
            row.update(error=str(exc))
            rows.append(row)
            had_error = True
            continue
        dim = len(spanning_forest(g).cycles)
        row.update(
            n=g.n,
            m=g.m,
            simple=g.is_simple(),
            cubic=g.is_cubic(),
            bridges=spanning_forest(g).bridges.bit_count(),
            cyclespace_dim=dim,
            even_subgraphs=1 << dim,
        )
        try:
            row["circuits"] = len(enumerate_circuits(g, args.dim_guard))
        except CapacityError:
            row["circuits"] = None
        try:
            row["nz4flow"] = has_nz4flow(g)
        except PreconditionError:  # a degree other than 2 or 3
            row["nz4flow"] = None
        rows.append(row)

    if args.format == "json":
        print(json.dumps({"command": "stats", "input": args.graph, "graphs": rows}, indent=2))
    else:
        for row in rows:
            if "error" in row:
                print(f"graph {row['index']}: unreadable ({row['error']})")
                continue
            circ = "n/a" if row["circuits"] is None else row["circuits"]
            flow = "n/a" if row["nz4flow"] is None else ("yes" if row["nz4flow"] else "no")
            print(
                f"graph {row['index']} ({row['graph6']}): n={row['n']} m={row['m']} "
                f"cubic={'yes' if row['cubic'] else 'no'} bridges={row['bridges']} "
                f"dim={row['cyclespace_dim']} circuits={circ} nz4flow={flow}"
            )
    return EXIT_USAGE if had_error else EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.run(args)
    except _Fail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:
        print(f"error: internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check the 3-edge-colorer and the cubic flow decision against references.

Runs `cdc5 sweep --workers 1` over tests/data/snarks.g6 and over the
catalog tests/data/cubic_bridgeless_connected_n4_10.g6, in process, with
flows.three_edge_color wrapped so that every host the sweeps hand it is
recorded.  To those it adds the flower snarks J3-J15 in their own
labelling, in three seeded shuffles and breadth-first from each of the
four vertex classes (tests/oracles.py).  Every host is colored by the
engine and by trail_three_edge_color, the colorer as it was when each
colored edge took a trail entry, and the two answers must be equal.  Every
host is also decided by has_nz4flow, which takes a cubic graph as it is,
and by flow_planes, which suppresses it first, and the two must agree.
Last, flow_planes(h, 0), which refutes a flowless cubic host on the host
itself, must give the planes, None included, that the suppressed walk
flows._planes(h, 0, *flows._suppress(h, 0)) gives.  It prints the counts
and the run time, and exits with status 1 when any answer differs.

Run it from the root of a source checkout:

    python3 scripts/check_colourer.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import cdc5.flows  # noqa: E402
from cdc5.cli import main as cdc5_main  # noqa: E402
from tests.oracles import (  # noqa: E402
    breadth_first,
    flower_snark,
    shuffled,
    trail_three_edge_color,
)

SWEPT = ("snarks.g6", "cubic_bridgeless_connected_n4_10.g6")


def swept_hosts() -> dict:
    """The distinct hosts that serial sweeps of the SWEPT files color."""
    original = cdc5.flows.three_edge_color
    hosts = {}

    def recording(g):
        hosts.setdefault((g.n, g.edges), g)
        return original(g)

    cdc5.flows.three_edge_color = recording
    try:
        for name in SWEPT:
            with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
                graph = str(ROOT / "tests" / "data" / name)
                code = cdc5_main(["sweep", "--graph", graph, "--out", out, "--workers", "1"])
            if code != 0:
                raise SystemExit(f"sweep of {name} exited with status {code}")
    finally:
        cdc5.flows.three_edge_color = original
    return {f"swept host {i} (n={g.n})": g for i, g in enumerate(hosts.values())}


def flower_hosts() -> dict:
    hosts = {}
    for k in range(3, 16):
        g = flower_snark(k)
        hosts[f"J{k}"] = g
        for seed in (1, 2, 3):
            hosts[f"J{k} shuffle {seed}"] = shuffled(g, seed)
        for c in range(4):
            hosts[f"J{k} breadth-first from {c}"] = breadth_first(g, c, k)
    return hosts


def main() -> int:
    started = time.monotonic()
    swept = swept_hosts()
    hosts = {**swept, **flower_hosts()}
    differences = [
        name
        for name, g in hosts.items()
        if cdc5.flows.three_edge_color(g) != trail_three_edge_color(g)
    ]
    disagreements = [
        name
        for name, g in hosts.items()
        if cdc5.flows.has_nz4flow(g) != (cdc5.flows.flow_planes(g) is not None)
    ]
    other_planes = [
        name
        for name, g in hosts.items()
        if cdc5.flows.flow_planes(g, 0) != cdc5.flows._planes(g, 0, *cdc5.flows._suppress(g, 0))
    ]
    elapsed = time.monotonic() - started
    print(f"hosts: {len(hosts)}, differences: {len(differences)}")
    print(f"decisions: {len(hosts)}, differences: {len(disagreements)}")
    print(f"planes: {len(hosts)}, differences: {len(other_planes)}")
    print(f"from the sweeps: {len(swept)}, time: {elapsed:.1f} s")
    for name in differences:
        print(f"  differs: {name}")
    for name in disagreements:
        print(f"  decided differently: {name}")
    for name in other_planes:
        print(f"  other planes: {name}")
    return 1 if differences or disagreements or other_planes else 0


if __name__ == "__main__":
    sys.exit(main())

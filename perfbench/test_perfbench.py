"""Smoke tests of the benchmark: the quick mode's output shape, the input
generators, the speed probe's bookkeeping, and the refusal to run without
the program.  Speed is not checked."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import speed  # noqa: E402
from cdc5 import enumerate_circuits, has_nz4flow, parse_graph6  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_mode_output_shape(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--quick"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "find-j7", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "attempted" not in proc.stdout


@pytest.mark.parametrize("k", [5, 6, 7, 8, 9, 10])
def test_flower_snark_structure_and_flow(k):
    n, edges = inputs.flower_snark(k)
    assert (n, len(edges)) == (4 * k, 6 * k)
    assert inputs.structure_problems(f"J{k}", n, edges, 5) == []
    assert inputs.girth(n, edges) == (5 if k == 5 else 6)
    assert has_nz4flow(parse_graph6(inputs.encode_graph6(n, edges))) == (k % 2 == 0)


def test_graph6_round_trip_and_relabelling():
    rng = random.Random(0)
    n, edges = inputs.flower_snark(7)
    for perm in (inputs.scrambled(n, rng), inputs.breadth_first(n, edges, rng)):
        assert sorted(perm) == list(range(n))
        moved = inputs.relabel(edges, perm)
        line = inputs.encode_graph6(n, moved)
        assert inputs.decode_graph6(line) == (n, inputs.graph6_edge_order(moved))
    for _name, line, _circuits in inputs.CORPUS:
        assert inputs.encode_graph6(*inputs.decode_graph6(line)) == line


def test_random_circuit_draws_circuits():
    rng = random.Random(0)
    n, edges = inputs.flower_snark(5)
    order = inputs.graph6_edge_order(edges)
    ids = {e: i for i, e in enumerate(order)}
    circuits = {c.ids() for c in enumerate_circuits(parse_graph6(inputs.encode_graph6(n, edges)))}
    drawn = {
        tuple(sorted(ids[min(e), max(e)] for e in inputs.random_circuit(n, edges, rng)))
        for _ in range(200)
    }
    assert drawn <= circuits
    assert len(drawn) > 150  # of 1444, so not stuck on a few


def test_speed_probe_samples_every_routine_and_leaves_out_its_own_time():
    probe = speed.Probe()
    with probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        elapsed = time.perf_counter() - start
    assert all(len(s) >= 2 for s in probe.samples)
    assert sum(len(s) for s in probe.samples) >= 2 * len(speed.REF_S) + 3
    assert 0 < probe.spent < elapsed / 2
    assert probe.scaled(elapsed) == pytest.approx((elapsed - probe.spent) / probe.factor())

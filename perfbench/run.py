#!/usr/bin/env python3
"""The cdc5 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout; cdc5 is imported from ./src and
driven in-process through cdc5.cli.main, the function behind the `cdc5`
command.  The workloads and metrics are described in perfbench/README.md.

With --trace 0 the commands run untraced for about S seconds, timed at a
reference speed of the machine (see speed.py), and the end-to-end metrics
are reported.  With --trace 1 a fixed slice of the workload runs once
untraced and twice traced, and the per-layer metrics of the second traced
run are reported; the count metrics of the two traced runs must agree.  --quick shrinks the inputs (Petersen, J5, one J9) and
runs a single pass, for a smoke test.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A run whose program cannot be imported
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

TRACE_REQUESTS = 10
# find-j7 asks for FIND_SPECS (labelling, circuit) pairs of J7, drawn from
# FIND_POOL_SEED for every --seed, which only orders the requests.  One
# find takes 0.25-1.3 s depending on both labelling and circuit
# (coefficient of variation 0.5), so the median over some 50 inputs drawn
# per seed moved by 0.19 (IQR/median of bootstrapped samples), which is
# what made seeded pools too noisy to bound.  A run makes one pass per
# FIND_PASS_SECONDS of --seconds (three at --seconds 25; a pass took 5-8 s
# on the seed's code) and times each pair by its fastest pass, as
# decide-flowers does.
FIND_POOL_SEED = "find-j7/pool"
FIND_SPECS = 16
FIND_PASS_SECONDS = 8.0
# setup_s is the median of SETUP_REPEATS set-ups made in a row before the
# requests.  A set-up takes 0.1-0.5 s and sees few speed samples, so one
# scaled set-up can be off by a fifth; the fastest of nine was, and the
# median was not.
SETUP_REPEATS = 9
# decide-flowers makes a fixed number of passes over DECIDE_FILES graph6
# files, one per DECIDE_PASS_SECONDS of --seconds (the length of a pass on
# the seed's code), and times each file by its fastest pass; the number of
# samples per file does not depend on the program's speed.  A shared
# machine's speed swings by +-15 % from one second to the next: over six
# runs a minute apart, 20 J9 decisions (50 ms each) summed over their
# fastest of ten passes moved 6.5 %, and over their first pass 32 %.
# Each file holds:
# - J9 (uncolourable, dim 19) four times, relabelled breadth-first from a
#   root of each vertex class of the generator (claw centre, outer cycle,
#   the two inner-cycle classes).  The root's class sets most of the
#   decision's cost (0.030-0.044 s), so one J9 per class keeps files alike;
# - two J5 in scrambled labellings, so that every file has a badly
#   ordered labelling at a cost small enough to average (a scrambled J9
#   takes 0.5-7 s);
# - one colourable control, J8, J10 or J12 in turn, relabelled
#   breadth-first.
DECIDE_FILES = 24
DECIDE_FILE = ((9, "bfs-0"), (9, "bfs-1"), (9, "bfs-2"), (9, "bfs-3"), (5, "scrambled"), (5, "scrambled"))
DECIDE_CONTROLS = (8, 10, 12)
# stats enumerates circuits up to this cycle-space dimension; every graph
# above has a larger one, so the run times the flow decision alone.
DECIDE_DIM_GUARD = 10
DECIDE_PASS_SECONDS = 6.0


class BenchError(Exception):
    """The benchmark cannot run here (e.g. no program to import)."""


def import_cdc5():
    """(Re)import cdc5 from ./src, discarding any loaded copy."""
    src = ROOT / "src"
    if not (src / "cdc5" / "cli.py").is_file():
        raise BenchError(f"no cdc5 sources under {src}")
    for name in [m for m in sys.modules if m == "cdc5" or m.startswith("cdc5.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    cli = importlib.import_module("cdc5.cli")
    if Path(cli.__file__).resolve().parent != (src / "cdc5").resolve():
        raise BenchError(f"cdc5 was imported from {cli.__file__}, not from {src}")
    return cli


@dataclass
class Outcome:
    """One request: its latency, all command time it took, and the checks."""

    latency_s: float
    busy_s: float
    attempted: int
    failed: int
    found: int = 0
    candidates: int = 0
    verify_s: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def answers(self) -> int:
        return self.attempted - self.failed


class Workload:
    """Inputs from the seed, the request that exercises the program, and
    the checks on its outputs."""

    name = ""

    def __init__(self, cli, seed: int, quick: bool, work: Path):
        self.cli = cli
        self.cdc5 = sys.modules["cdc5"]
        self.work = work
        self.tracer = None
        # Set once the workload is set up, on untraced runs: commands are
        # then timed at the probe's reference speed.
        self.probe = None
        self.raw_s = 0.0
        self.problems: list[str] = []
        self.rng = random.Random(f"{self.name}/{seed}")
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)

    def command(self, argv: list[str]) -> tuple[int, str, float]:
        """Run one cdc5 command in-process: exit code, stdout, seconds
        (scaled to the reference speed if there is a probe)."""
        # The CLI keeps a per-process graph and flow memo for sweep
        # workers; clearing it makes each command behave like a fresh
        # `cdc5` process, and keeps traced counts repeatable.
        getattr(self.cli, "_WORKER_GRAPHS", {}).clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                self.probe or contextlib.nullcontext():
            if self.tracer is not None:
                self.tracer.active = True
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            finally:
                elapsed = time.perf_counter() - start
                if self.tracer is not None:
                    self.tracer.active = False
        if self.probe is not None:
            self.raw_s += elapsed
            elapsed = self.probe.scaled(elapsed)
        return code, out.getvalue(), elapsed

    def write_graph(self, path: Path, lines: list[str]) -> str:
        path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
        return str(path)

    def check_flower(self, k: int) -> None:
        """Structure of J_k, and the program's flow decision on it in the
        generator's numbering: a nowhere-zero 4-flow exists iff k is even."""
        n, edges = inputs.flower_snark(k)
        self.problems += inputs.structure_problems(f"J{k}", n, edges, 5 if k >= 5 else 3)
        g = self.cdc5.parse_graph6(inputs.encode_graph6(n, edges))
        if self.cdc5.has_nz4flow(g) != (k % 2 == 0):
            self.problems.append(f"has_nz4flow(J{k}) disagrees with the parity of {k}")

    def trace_specs(self) -> list:
        """The fixed slice of requests a traced run makes."""
        return self.specs[:TRACE_REQUESTS]

    def passes(self, seconds: float) -> int | None:
        """Passes over the specs per run, or None to run for `seconds`."""
        return None

    def request(self, spec) -> Outcome:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.problems += self.request(self.warm_up_spec).problems


class SweepCorpus(Workload):
    """`cdc5 sweep --workers 1` over the snark corpus in one graph6 file.

    The corpus keeps its own labelling whatever the seed: relabelling it
    moved the time of a sweep by up to 20 %, and a run holds only one
    sweep; every seed gives the same input.  Every certificate the sweep
    writes is verified, outside the timed command."""

    name = "sweep-corpus"

    def __init__(self, cli, seed, quick, work):
        super().__init__(cli, seed, quick, work)
        corpus = inputs.CORPUS[:1] if quick else inputs.CORPUS
        for name, g6, _ in corpus:
            n, edges = inputs.decode_graph6(g6)
            self.problems += inputs.structure_problems(name, n, edges, 5)
        self.warm_up_spec = self._file("warm-up", inputs.CORPUS[:1])
        self.specs = [self._file("corpus", corpus)]
        # Petersen and the Blanusa pair: 1437 circuits, a third of the time.
        self.traced = [self._file("traced", corpus[:3])]
        self.out = work / "out"

    def _file(self, name: str, graphs) -> tuple:
        path = self.write_graph(self.work / f"{name}.g6", [g6 for _, g6, _ in graphs])
        return path, [(name, circuits) for name, _, circuits in graphs]

    def trace_specs(self):
        return self.traced

    def request(self, spec) -> Outcome:
        path, graphs = spec
        circuits = sum(count for _, count in graphs)
        shutil.rmtree(self.out, ignore_errors=True)
        code, _, elapsed = self.command(
            ["sweep", "--graph", path, "--out", str(self.out), "--workers", "1"]
        )
        result = Outcome(elapsed, elapsed, attempted=circuits, failed=circuits)
        try:
            report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
            rows = [row for entry in report["graphs"] for row in entry["circuits"]]
            per_graph = [entry["counts"]["found"] for entry in report["graphs"]]
            docs = [
                json.loads((self.out / row["certificate"]).read_text(encoding="utf-8"))
                for row in rows
                if row["outcome"] == "found"
            ]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.problems.append(f"{path}: unreadable sweep output: {exc!r}")
            return result
        expected = {"found": circuits, "none": 0, "inconclusive": 0}
        if code != 0 or report["counts"] != expected or per_graph != [c for _, c in graphs]:
            result.problems.append(
                f"{path}: exit {code}, counts {report['counts']} {per_graph}, expected {expected}"
            )
            return result
        bad = {i for i, (row, doc) in enumerate(zip(rows, docs)) if doc["c0"] != row["edges"]}
        bad.update(i for i, doc in enumerate(docs) if self.cdc5.verify_certificate(doc))
        if bad:
            result.problems.append(f"{path}: {len(bad)} certificates rejected")
        result.failed = len(bad)
        result.found = len(docs) - len(bad)
        result.candidates = sum(doc["stats"]["candidates_tried"] for doc in docs)
        return result


class FindJ7(Workload):
    """Closed loop, one client: `cdc5 find --edge-ids` for a circuit of J7
    in a breadth-first relabelling, then `cdc5 verify` on its certificate.

    Breadth-first labels keep the colouring of J7 itself near 10 ms; under
    scrambled labels it takes 0.02-0.6 s, which swamped the search time.
    decide-flowers keeps scrambled labellings in every file."""

    name = "find-j7"

    def __init__(self, cli, seed, quick, work):
        super().__init__(cli, seed, quick, work)
        k = 5 if quick else 7
        self.check_flower(k)
        n, edges = inputs.flower_snark(k)
        pool = random.Random(FIND_POOL_SEED)
        self.specs = []
        for i in range(2 if quick else FIND_SPECS + 1):
            moved = inputs.relabel(edges, inputs.breadth_first(n, edges, pool))
            order = inputs.graph6_edge_order(moved)
            new_id = {e: j for j, e in enumerate(order)}
            ids = sorted(new_id[min(e), max(e)] for e in inputs.random_circuit(n, moved, pool))
            path = self.write_graph(work / f"r{i}.g6", [inputs.encode_graph6(n, moved)])
            self.specs.append((path, ids))
            if i == 0:
                g = self.cdc5.parse_graph6(inputs.encode_graph6(n, moved))
                if list(g.edges) != order:
                    self.problems.append("cdc5 numbers graph6 edges differently from the format")
        self.warm_up_spec = self.specs.pop(0)
        self.out = work / "out"

    def passes(self, seconds):
        return max(1, round(seconds / FIND_PASS_SECONDS))

    def request(self, spec) -> Outcome:
        path, ids = spec
        shutil.rmtree(self.out, ignore_errors=True)
        spec_text = ",".join(map(str, ids))
        code, stdout, t_find = self.command(
            ["find", "--graph", path, "--circuit", spec_text, "--edge-ids",
             "--out", str(self.out), "--format", "json"]
        )
        cert = self.out / "certificate.json"
        code_v, _, t_verify = self.command(["verify", str(cert)])
        result = Outcome(t_find, t_find + t_verify, attempted=1, failed=1, verify_s=t_verify)
        try:
            answer = json.loads(stdout)["outcome"]
            doc = json.loads(cert.read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.problems.append(f"{path}: unreadable find output: {exc!r}")
            return result
        if code != 0 or answer != "found" or code_v != 0 or doc["c0"] != ids:
            result.problems.append(
                f"{path} circuit {spec_text}: find exit {code} ({answer}), verify exit {code_v}"
            )
            return result
        result.failed = 0
        result.found = 1
        result.candidates = doc["stats"]["candidates_tried"]
        return result


class DecideFlowers(Workload):
    """`cdc5 stats` over one graph6 file of relabelled flower snarks per
    request; the answer checked is the 4-flow decision."""

    name = "decide-flowers"

    def __init__(self, cli, seed, quick, work):
        super().__init__(cli, seed, quick, work)
        if quick:
            plans = [((9, "bfs-0"),)]
        else:
            plans = [
                DECIDE_FILE + ((DECIDE_CONTROLS[r % len(DECIDE_CONTROLS)], "bfs"),)
                for r in range(DECIDE_FILES)
            ]
        for k in sorted({k for plan in plans for k, _ in plan}):
            self.check_flower(k)
        self.warm_up_spec = self._file("warm-up", ((9, "bfs-0"),))
        self.specs = [self._file(f"file{r}", plan) for r, plan in enumerate(plans)]

    def passes(self, seconds):
        return max(1, round(seconds / DECIDE_PASS_SECONDS))

    def _file(self, name: str, plan) -> tuple:
        """One graph6 file; plan lists (k, relabelling) per graph, where
        "bfs-c" roots the breadth-first order at a vertex 4i + c."""
        lines = []
        for k, how in plan:
            n, edges = inputs.flower_snark(k)
            if how == "scrambled":
                perm = inputs.scrambled(n, self.rng)
            else:
                root = None if how == "bfs" else 4 * self.rng.randrange(k) + int(how[-1])
                perm = inputs.breadth_first(n, edges, self.rng, root)
            lines.append(inputs.encode_graph6(n, inputs.relabel(edges, perm)))
        return self.write_graph(self.work / f"{name}.g6", lines), [k for k, _ in plan], lines

    def request(self, spec) -> Outcome:
        path, ks, lines = spec
        code, stdout, elapsed = self.command(
            ["stats", "--graph", path, "--dim-guard", str(DECIDE_DIM_GUARD), "--format", "json"]
        )
        result = Outcome(elapsed, elapsed, attempted=len(ks), failed=len(ks))
        try:
            rows = json.loads(stdout)["graphs"]
        except (ValueError, KeyError, TypeError) as exc:
            result.problems.append(f"{path}: unreadable stats output: {exc!r}")
            return result
        if code != 0 or len(rows) != len(ks):
            result.problems.append(f"{path}: stats exit {code} with {len(rows)} rows")
            return result
        result.failed = 0
        for row, k, line in zip(rows, ks, lines):
            expected = {
                "graph6": line, "n": 4 * k, "cubic": True, "bridges": 0,
                "cyclespace_dim": 2 * k + 1, "circuits": None, "nz4flow": k % 2 == 0,
            }
            wrong = {key for key, value in expected.items() if row.get(key) != value}
            if wrong:
                result.failed += 1
                result.problems.append(f"{path}: J{k} row {row['index']} wrong in {sorted(wrong)}")
        return result


WORKLOADS = {w.name: w for w in (SweepCorpus, FindJ7, DecideFlowers)}


def set_up(cls, seed: int, quick: bool, work: Path, probe=None):
    """Import, input generation, self-checks and one warm-up request:
    the workload and the seconds they took, scaled by the probe if given;
    the workload then times its commands with the probe."""
    gc.collect()
    with probe or contextlib.nullcontext():
        start = time.perf_counter()
        workload = cls(import_cdc5(), seed, quick, work)
        workload.warm_up()
        seconds = time.perf_counter() - start
    if probe is not None:
        seconds = probe.scaled(seconds)
        workload.probe = probe
    return workload, seconds


def cdc5_modules() -> dict:
    return {m: sys.modules[m] for m in list(sys.modules) if m == "cdc5" or m.startswith("cdc5.")}


def set_up_again(workload: Workload, seed: int, quick: bool, work: Path) -> float:
    """Time one more set-up in `work` and discard it; the measured
    workload keeps the copy of cdc5 it was built with."""
    loaded = cdc5_modules()
    try:
        again, seconds = set_up(type(workload), seed, quick, work, workload.probe)
        workload.problems += again.problems
    finally:
        for m in cdc5_modules():
            del sys.modules[m]
        sys.modules.update(loaded)
        shutil.rmtree(work, ignore_errors=True)
    return seconds


def measure(workload: Workload, seconds: float, quick: bool) -> tuple:
    """Time requests.

    A workload with a number of passes makes that many passes over its
    specs, each in an order drawn from the seed, and is timed by the
    fastest execution of each spec.  Any other cycles through its specs
    until the next request would end after `seconds` of requests if it
    took as long as the last, making at least one, and every request is
    timed.  Returns every execution (for the checks) and the timed ones."""
    passes = 1 if quick else workload.passes(seconds)
    count = len(workload.specs)
    if passes:
        order = [i for _ in range(passes) for i in workload.rng.sample(range(count), count)]
    else:
        order = itertools.cycle(range(count))
    outcomes = []
    indices = []
    spent = 0.0
    for i in order:
        began = time.perf_counter()
        outcomes.append(workload.request(workload.specs[i]))
        indices.append(i)
        gc.collect()
        last = time.perf_counter() - began
        spent += last
        if not passes and (quick or spent + last > seconds):
            break
    if not passes:
        return outcomes, outcomes
    fastest = [
        min((o for o, j in zip(outcomes, indices) if j == i), key=lambda o: o.busy_s)
        for i in range(count)
    ]
    return outcomes, fastest


def run_slice(workload: Workload, specs: list) -> list[Outcome]:
    outcomes = []
    for i, spec in enumerate(specs):
        if workload.tracer is not None:
            workload.tracer.request = i
        outcomes.append(workload.request(spec))
        gc.collect()
    return outcomes


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(timed: list[Outcome], setup_times: list[float]) -> tuple[dict, dict]:
    latencies = [o.latency_s for o in timed]
    busy = sum(o.busy_s for o in timed)
    metrics = {
        "answers_per_s": (sum(o.answers for o in timed) / busy, "1/s"),
        "request_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    found_tail = tail(latencies)
    details = {
        "requests": len(timed),
        "busy_s": busy,
        "request_tail": None if found_tail is None else {
            "percentile": found_tail[0], "ms": found_tail[1] * 1000.0, "samples": len(latencies)
        },
        "setup_times_s": setup_times,
        "peak_rss_mb": peak_rss_mb(),
    }
    verify = [o.verify_s for o in timed if o.verify_s]
    if verify:
        details["verify_p50_ms"] = statistics.median(verify) * 1000.0
    return metrics, details


def count_metrics(summary: dict, outcomes: list[Outcome]) -> dict:
    calls = summary["calls"]
    by_caller = summary["by_caller"]
    found = sum(o.found for o in outcomes)
    candidates = sum(o.candidates for o in outcomes)
    covers = calls["cover.four_cdc_containing"]
    misses = summary["child_calls"]["search.FlowCache.minus"]["flows.has_nz4flow"]
    counts = {
        "search.find_5cdc_containing.calls": calls["search.find_5cdc_containing"],
        "search.candidates_tried": candidates,
        "search.found_per_candidate": found / candidates if candidates else 0.0,
        "graphs.is_matching.calls": calls["graphs.is_matching"],
        "cover.solve_affine_per_cover": (
            by_caller["cyclespace.solve_affine", "cover"] / covers if covers else 0.0
        ),
        "flows.three_edge_color.calls": calls["flows.three_edge_color"],
        "flows.decisions_per_found": calls["flows.has_nz4flow"] / found if found else 0.0,
        "search.flow_memo.hits": calls["search.FlowCache.minus"] - misses,
        "search.flow_memo.misses": misses,
        "cyclespace.solve_affine.calls": calls["cyclespace.solve_affine"],
        "certificates.verify_certificate.calls": calls["certificates.verify_certificate"],
        "graphs.parse_graph6.calls": calls["graphs.parse_graph6"],
        "graphs.bridges.calls": calls["graphs.bridges"],
        "graphs.delete_edges.calls": calls["graphs.delete_edges"],
    }
    for caller in ("search", "cover", "certificates", "cli"):
        counts[f"flows.has_nz4flow.from_{caller}"] = by_caller["flows.has_nz4flow", caller]
    return counts


SELF_TIMES = (
    "search.find_5cdc_containing", "cover.extend_to_cdc", "cover.four_cdc_containing",
    "flows.three_edge_color", "flows.has_nz4flow", "cyclespace.cycle_space_basis",
    "cyclespace.enumerate_circuits", "cyclespace.enumerate_even_subgraphs",
    "cyclespace.solve_affine", "certificates.build_certificate",
    "certificates.verify_certificate", "graphs.parse_graph6", "graphs.bridges",
)


def per_layer(workload: Workload, spans_path: Path) -> tuple[dict, dict, list[Outcome]]:
    specs = workload.trace_specs()
    plain = run_slice(workload, specs)
    tracer = tracing.Tracer()
    tracer.install()
    workload.tracer = tracer
    runs = []
    try:
        for _ in range(2):
            tracer.reset()
            outcomes = run_slice(workload, specs)
            runs.append((outcomes, tracer.summary()))
    finally:
        tracer.uninstall()
        workload.tracer = None
    tracer.write(str(spans_path))

    first, second = (count_metrics(s, o) for o, s in runs)
    outcomes, summary = runs[1]
    if first != second or runs[0][1]["by_caller"] != summary["by_caller"]:
        diff = sorted(k for k in first if first[k] != second.get(k))
        workload.problems.append(f"count metrics differ between two traced runs: {diff}")
    traced_busy = sum(o.busy_s for o in outcomes)
    plain_busy = sum(o.busy_s for o in plain)
    selfs = summary["self_s"]
    units = {k: "ratio" if "_per_" in k else "count" for k in second}
    metrics = {k: (v, units[k]) for k, v in second.items()}
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
    metrics["cli.self_s"] = (sum(v for k, v in selfs.items() if k.startswith("cli.")), "s")
    metrics["trace.overhead_share"] = (traced_busy / plain_busy - 1.0, "ratio")
    # The share of traced command time that the named layers' self times
    # cover; the rest is spent in unnamed functions such as
    # graphs.suppress_degree2 or cover.verify_cdc (see details["self_s"]).
    named = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    metrics["trace.accounted_share"] = (named / traced_busy, "ratio")
    metrics["process.peak_rss_mb"] = (peak_rss_mb(), "MB")
    details = {
        "requests": len(specs),
        "untraced_busy_s": plain_busy,
        "traced_busy_s": traced_busy,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "self_s": dict(sorted(selfs.items(), key=lambda kv: -kv[1])),
        "calls": dict(sorted(summary["calls"].items())),
    }
    return metrics, details, plain + [o for run in runs for o in run[0]]


def revision() -> str:
    """Commit of the checkout, if it is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    results = OUT_DIR / "results"
    work = OUT_DIR / "work" / f"{tag}-{os.getpid()}"
    again = OUT_DIR / "work" / f"{tag}-{os.getpid()}-again"
    try:
        probe = None if args.trace else speed.Probe()
        workload, first_setup = set_up(WORKLOADS[args.workload], args.seed, args.quick, work, probe)
        if args.trace:
            results.mkdir(parents=True, exist_ok=True)
            metrics, details, outcomes = per_layer(workload, results / f"spans-{tag}.jsonl.gz")
        else:
            setups = [first_setup] + [
                set_up_again(workload, args.seed, args.quick, again)
                for _ in range(0 if args.quick else SETUP_REPEATS - 1)
            ]
            outcomes, timed = measure(workload, args.seconds, args.quick)
            metrics, details = end_to_end(timed, setups)
            details["command_s"] = {
                "wall": workload.raw_s, "at_reference_speed": sum(o.busy_s for o in outcomes)
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(again, ignore_errors=True)

    problems = workload.problems + [p for o in outcomes for p in o.problems]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        quick=args.quick, failed_share=failed / attempted, problems=problems[:20],
        machine={"nproc": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform()},
        revision=revision(),
    )
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6f} {unit}")
    print(f"{'failed_share':45s} {failed / attempted:14.6f} ratio ({failed}/{attempted})")
    for problem in problems[:20]:
        print(f"PROBLEM: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # no result line: report the traceback and fail
        traceback.print_exc()
        sys.exit(1)

import argparse
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys

import pytest

import cdc5.certificates
import cdc5.cli
import cdc5.flows
import cdc5.graphs
import cdc5.search
from cdc5 import (
    InvariantViolationError,
    MultiGraph,
    enumerate_circuits,
    parse_graph6,
    spanning_forest,
    verify_certificate,
    write_graph6,
)
from cdc5.cli import main

from .oracles import (
    bridged_cubic_graph,
    complete_graph,
    flower_snark,
    petersen_graph,
    prism_graph,
    subdivide,
)
from .test_verify_corrupted import WITNESSLESS, witnessless_prism

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
SUBCOMMANDS = ("verify", "find", "sweep", "stats")


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.g6"
    path.write_text(write_graph6(complete_graph(4)) + "\n", encoding="ascii")
    return str(path)


@pytest.fixture()
def petersen_file(tmp_path):
    path = tmp_path / "petersen.g6"
    path.write_text(write_graph6(petersen_graph()) + "\n", encoding="ascii")
    return str(path)


@pytest.fixture()
def small_batch_file(tmp_path):
    path = tmp_path / "batch.g6"
    lines = [write_graph6(complete_graph(4)), write_graph6(prism_graph())]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return str(path)


@pytest.fixture()
def edgeless_file(tmp_path):
    """The graph6 line '?', the graph with no vertices: cubic, but with no
    edge for a cover element to hold."""
    path = tmp_path / "edgeless.g6"
    path.write_text("?\n", encoding="ascii")
    return str(path)


@pytest.fixture()
def undecodable_file(tmp_path):
    """A file that is neither ASCII nor UTF-8 text."""
    path = tmp_path / "binary.g6"
    path.write_bytes(b"C~\xff\n")
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestFind:
    def test_k4_triangle_writes_certificate(self, k4_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["find", "--graph", k4_file, "--circuit", "0,1,2", "--out", out])
        assert code == 0
        assert capsys.readouterr().out.startswith("found:")
        doc = read_json(os.path.join(out, "certificate.json"))
        assert verify_certificate(doc) == []
        assert doc["c0"] == [0, 1, 2]

    def test_json_format(self, k4_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(
            ["find", "--graph", k4_file, "--circuit", "0,1,2", "--out", out,
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "found"
        assert payload["path"] == "m-empty"

    def test_edge_ids_prescription(self, petersen_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(
            ["find", "--graph", petersen_file, "--circuit", "0,1,2,3,4",
             "--edge-ids", "--out", out]
        )
        assert code == 0
        doc = read_json(os.path.join(out, "certificate.json"))
        assert doc["c0"] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_printed_matching_is_the_certificates(self, petersen_file, tmp_path, capsys, fmt):
        # The outer pentagon takes the theorem2 path, so its matching is
        # nonempty; what find prints must agree with the file it writes.
        out = str(tmp_path / "out")
        code = main(
            ["find", "--graph", petersen_file, "--circuit", "0,1,2,3,4",
             "--edge-ids", "--out", out, "--format", fmt]
        )
        assert code == 0
        printed = capsys.readouterr().out
        doc = read_json(os.path.join(out, "certificate.json"))
        assert doc["path"] == "theorem2" and doc["matching"]
        if fmt == "json":
            payload = json.loads(printed)
            assert payload["path"] == doc["path"]
            assert payload["matching"] == doc["matching"]
            assert payload["elements"] == len(doc["cdc"])
            assert payload["candidates_tried"] == doc["stats"]["candidates_tried"]
        else:
            assert f"matching {doc['matching']}," in printed

    def test_no_prescription(self, k4_file, tmp_path):
        assert main(["find", "--graph", k4_file, "--out", str(tmp_path / "o")]) == 0

    def test_vertex_circuit_translation(self, petersen_file, tmp_path, capsys):
        # The outer pentagon by vertices; the parsed graph6 relabels edges,
        # so go through the CLI's own translation.
        out = str(tmp_path / "out")
        code = main(
            ["find", "--graph", petersen_file, "--circuit", "0,1,2,3,4", "--out", out]
        )
        assert code == 0
        doc = read_json(os.path.join(out, "certificate.json"))
        covered = {v for e in doc["c0"] for v in doc["edges"][e]}
        assert covered == {0, 1, 2, 3, 4}

    def test_bridged_graph_is_a_definitive_negative(self, tmp_path, capsys):
        path = tmp_path / "bridged.g6"
        path.write_text(write_graph6(bridged_cubic_graph()) + "\n", encoding="ascii")
        code = main(["find", "--graph", str(path)])
        assert code == 1
        assert capsys.readouterr().out.startswith("none:")

    def test_bridged_graph_in_json_format(self, tmp_path, capsys):
        path = tmp_path / "bridged.g6"
        path.write_text(write_graph6(bridged_cubic_graph()) + "\n", encoding="ascii")
        assert main(["find", "--graph", str(path), "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "outcome": "none",
            "reason": "the graph has a bridge, so it has no cycle double cover",
        }

    def test_exhausted_search_in_json_format(self, k4_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cdc5.cli, "find_5cdc_containing", lambda *args: None)
        args = ["find", "--graph", k4_file, "--out", str(tmp_path / "o"), "--format", "json"]
        assert main(args) == 1
        assert json.loads(capsys.readouterr().out) == {
            "outcome": "none",
            "reason": "the search space was exhausted without a cover",
        }

    def test_non_cubic_graph_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cycle.g6"
        from cdc5 import MultiGraph

        path.write_text(
            write_graph6(MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) + "\n",
            encoding="ascii",
        )
        assert main(["find", "--graph", str(path)]) == 2

    def test_edgeless_graph_is_usage_error(self, edgeless_file, tmp_path, capsys):
        assert main(["find", "--graph", edgeless_file, "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: graph has no edges, so no cover element can contain c0\n"

    def test_one_certificate_frame_per_find(self, petersen_file, tmp_path, monkeypatch):
        frames = []
        init = cdc5.certificates.CertificateFrame.__init__

        def counting(frame, *args):
            frames.append(args)
            init(frame, *args)

        monkeypatch.setattr(cdc5.certificates.CertificateFrame, "__init__", counting)
        out = str(tmp_path / "out")
        args = ["find", "--graph", petersen_file, "--circuit", "0,1,2,3,4", "--out", out]
        assert main(args) == 0
        assert len(frames) == 1
        with open(os.path.join(out, "certificate.json"), "r", encoding="utf-8") as handle:
            text = handle.read()
        assert verify_certificate(json.loads(text)) == []
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_budget_past_the_float_range_never_runs_out(self, petersen_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        budget = str(10**400)
        assert main(["find", "--graph", petersen_file, "--out", out, "--budget-ms", budget]) == 0
        assert capsys.readouterr().out.startswith("found:")
        assert verify_certificate(read_json(os.path.join(out, "certificate.json"))) == []

    def test_dim_guard_is_inconclusive(self, petersen_file, capsys):
        code = main(["find", "--graph", petersen_file, "--dim-guard", "5"])
        assert code == 3
        assert capsys.readouterr().out.startswith("inconclusive:")

    def test_dim_guard_in_json_format(self, petersen_file, capsys):
        assert main(["find", "--graph", petersen_file, "--dim-guard", "5", "--format", "json"]) == 3
        assert json.loads(capsys.readouterr().out) == {
            "outcome": "inconclusive",
            "reason": "cycle-space dimension 6 exceeds enumeration guard 5",
            "candidates_tried": 0,
        }

    def test_engine_fault_is_not_a_negative(self, k4_file, monkeypatch, capsys):
        # An engine bug must not leave with 1, the "no cover" code.
        def broken(*args, **kwargs):
            raise InvariantViolationError("an overlap of the cycle space was never met")

        monkeypatch.setattr(cdc5.cli, "find_5cdc_containing", broken)
        assert main(["find", "--graph", k4_file, "--circuit", "0,1,2"]) == 4
        err = capsys.readouterr().err
        assert err == (
            "error: internal fault: InvariantViolationError: "
            "an overlap of the cycle space was never met\n"
        )

    def test_missing_file(self, tmp_path):
        assert main(["find", "--graph", str(tmp_path / "absent.g6")]) == 2

    def test_bad_index(self, k4_file):
        assert main(["find", "--graph", k4_file, "--index", "5"]) == 2

    def test_open_vertex_walks_rejected(self, k4_file, petersen_file):
        assert main(["find", "--graph", k4_file, "--circuit", "0,1"]) == 2
        assert main(["find", "--graph", k4_file, "--circuit", "0,1,9"]) == 2
        assert main(["find", "--graph", k4_file, "--circuit", "0,1,x"]) == 2
        assert main(["find", "--graph", k4_file, "--circuit", "0,1,2,0"]) == 2
        assert main(["find", "--graph", petersen_file, "--circuit", "0,1,3"]) == 2

    def test_odd_edge_set_rejected(self, k4_file):
        assert main(["find", "--graph", k4_file, "--circuit", "0", "--edge-ids"]) == 2

    def test_repeated_edge_ids_rejected(self, petersen_file, tmp_path, capsys):
        # As a vertex circuit may not repeat a vertex, an edge-id list may
        # not repeat an edge: 0,...,4,0 is no other name for {0, ..., 4}.
        out = tmp_path / "out"
        code = main(
            ["find", "--graph", petersen_file, "--circuit", "0,1,2,3,4,0",
             "--edge-ids", "--out", str(out)]
        )
        assert code == 2
        assert "distinct" in capsys.readouterr().err
        assert not (out / "certificate.json").exists()

    def test_undecodable_file_is_usage_error(self, undecodable_file, capsys):
        assert main(["find", "--graph", undecodable_file]) == 2
        assert "not an ASCII graph6 file" in capsys.readouterr().err

    def test_out_naming_a_file_is_usage_error(self, k4_file, tmp_path, monkeypatch, capsys):
        # The output directory is checked before the search starts.
        def no_search(*args):
            pytest.fail("the search ran before --out was checked")

        monkeypatch.setattr(cdc5.cli, "find_5cdc_containing", no_search)
        taken = tmp_path / "taken"
        taken.write_text("", encoding="ascii")
        code = main(["find", "--graph", k4_file, "--circuit", "0,1,2", "--out", str(taken)])
        assert code == 2
        assert "output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["taken/x", "taken/x/y", ""])
    def test_out_below_a_file_is_refused_before_the_search(
        self, k4_file, tmp_path, monkeypatch, capsys, out
    ):
        # An --out below a plain file, or an empty one, can never be made,
        # so it is refused before the search, not after it, and nothing is
        # created.
        def no_search(*args):
            raise RuntimeError("the search ran before --out was checked")

        monkeypatch.setattr(cdc5.cli, "find_5cdc_containing", no_search)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("", encoding="ascii")
        before = sorted(tmp_path.rglob("*"))
        assert main(["find", "--graph", k4_file, "--circuit", "0,1,2", "--out", out]) == 2
        assert "output directory" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "extra, code",
        [(["--edge-ids", "--circuit", "1,3,4,5,6,7,9,10,13,14"], 1), (["--dim-guard", "1"], 3)],
        ids=["none", "inconclusive"],
    )
    def test_answer_without_certificate_makes_no_out(self, petersen_file, tmp_path, extra, code):
        # A 2-factor of Petersen has no cover; dimension 6 passes guard 1.
        out = tmp_path / "out"
        assert main(["find", "--graph", petersen_file, "--out", str(out), *extra]) == code
        assert not out.exists()


class TestVerify:
    def test_roundtrip(self, k4_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["find", "--graph", k4_file, "--circuit", "0,1,2", "--out", out])
        capsys.readouterr()
        cert = os.path.join(out, "certificate.json")
        assert main(["verify", cert]) == 0
        assert capsys.readouterr().out.startswith("certificate OK")

    def test_tampered_coverage_names_edge(self, k4_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["find", "--graph", k4_file, "--circuit", "0,1,2", "--out", out])
        capsys.readouterr()
        cert = os.path.join(out, "certificate.json")
        doc = read_json(cert)
        doc["coverage"][2] = 3
        with open(cert, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        assert main(["verify", cert]) == 1
        text = capsys.readouterr().out
        assert "INVALID" in text
        assert "edges [2]" in text

    def test_witnessless_cover_is_invalid(self, tmp_path, capsys):
        # A valid cover of the prism that replays no flow of it.
        cert = tmp_path / "prism.json"
        cert.write_text(json.dumps(witnessless_prism()), encoding="utf-8")
        assert main(["verify", str(cert)]) == 1
        assert capsys.readouterr().out == (
            f"certificate {cert} is INVALID:\n  - {WITNESSLESS}\n"
        )

    def test_missing_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json")]) == 2

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["verify", str(path)]) == 2

    def test_undecodable_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"graph6": "\xff"}')
        assert main(["verify", str(path)]) == 2
        assert "not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["[" * 200_000 + "]" * 200_000, '{"n": ' + "9" * 5000 + "}"],
        ids=["deep-array", "long-integer"],
    )
    def test_json_past_the_loader_limits_is_usage_error(self, tmp_path, capsys, text):
        # json.load raises RecursionError and ValueError on these, not
        # JSONDecodeError; either way there is no document to check.
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestStats:
    def test_table_lists_every_graph(self, small_batch_file, capsys):
        assert main(["stats", "--graph", small_batch_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert "n=4" in lines[0] and "n=6" in lines[1]

    def test_json_fields(self, petersen_file, capsys):
        assert main(["stats", "--graph", petersen_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (row,) = payload["graphs"]
        assert row["n"] == 10 and row["m"] == 15
        assert row["cubic"] and row["simple"]
        assert row["bridges"] == 0
        assert row["cyclespace_dim"] == 6
        assert row["even_subgraphs"] == 64
        assert row["circuits"] == 57
        assert row["nz4flow"] is False

    @pytest.mark.parametrize(
        "g",
        [
            MultiGraph(8, [(u + b, v + b) for b in (0, 4) for v in range(4) for u in range(v)]),
            MultiGraph(4, [(0, 1), (0, 1), (1, 1), (0, 2), (2, 3), (2, 3), (3, 3)]),
        ],
        ids=["two-k4", "loop-host"],
    )
    def test_dimension_is_the_basis_dimension(self, g, tmp_path, monkeypatch, capsys):
        # stats counts the dimension in closed form; graph6 holds no loops,
        # so the loop host is handed over in place of the parsed line.
        path = tmp_path / "host.g6"
        path.write_text("C~\n", encoding="ascii")
        monkeypatch.setattr(cdc5.cli, "parse_graph6", lambda line: g)
        assert main(["stats", "--graph", str(path), "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["graphs"]
        dim = len(spanning_forest(g).cycles)
        assert row["cyclespace_dim"] == dim and row["even_subgraphs"] == 1 << dim
        assert row["circuits"] == len(enumerate_circuits(g))

    def test_guarded_census_reports_not_available(self, petersen_file, capsys):
        assert main(
            ["stats", "--graph", petersen_file, "--dim-guard", "5", "--format", "json"]
        ) == 0
        (row,) = json.loads(capsys.readouterr().out)["graphs"]
        assert row["circuits"] is None

    def test_rows_outside_the_flow_domain(self, tmp_path, capsys):
        # The engine's own errors give the nulls: K5 (degree 4) and the
        # claw K1,3 (degree 1) have no flow answer, and a K4 with one edge
        # subdivided (degrees 2 and 3) has one.
        claw = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])
        graphs = [complete_graph(5), subdivide(complete_graph(4), 0), claw]
        path = tmp_path / "mixed.g6"
        path.write_text("".join(write_graph6(g) + "\n" for g in graphs), encoding="ascii")
        assert main(["stats", "--graph", str(path), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["graphs"]
        assert [(row["circuits"], row["nz4flow"]) for row in rows] == [
            (37, None),
            (7, True),
            (0, None),
        ]
        assert main(["stats", "--graph", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("circuits=")[1] for line in lines] == [
            "37 nz4flow=n/a",
            "7 nz4flow=yes",
            "0 nz4flow=n/a",
        ]

    def test_unreadable_line_flags_the_run(self, tmp_path, capsys):
        path = tmp_path / "mixed.g6"
        path.write_text("C~\n!!bad!!\n", encoding="ascii")
        assert main(["stats", "--graph", str(path)]) == 2
        text = capsys.readouterr().out
        assert "unreadable" in text

    def test_undecodable_file_is_usage_error(self, undecodable_file, capsys):
        assert main(["stats", "--graph", undecodable_file]) == 2
        assert "not an ASCII graph6 file" in capsys.readouterr().err

    def test_edgeless_graph(self, edgeless_file, capsys):
        assert main(["stats", "--graph", edgeless_file]) == 0
        assert capsys.readouterr().out == (
            "graph 0 (?): n=0 m=0 cubic=yes bridges=0 dim=0 circuits=0 nz4flow=yes\n"
        )

    @pytest.mark.parametrize("connected", [True, False], ids=["j9", "k4-and-petersen"])
    def test_a_row_walks_one_forest(self, connected, tmp_path, monkeypatch, capsys):
        # One breadth-first forest per row serves the bridges, the dimension
        # and the flow decision, and no row copies its components.
        if connected:
            g = flower_snark(9)
        else:
            petersen = [(u + 4, v + 4) for u, v in petersen_graph().edges]
            g = MultiGraph(14, list(complete_graph(4).edges) + petersen)
        line = write_graph6(g)
        path = tmp_path / "host.g6"
        path.write_text(line + "\n", encoding="ascii")
        walked = []
        walk = cdc5.graphs._walk_forest
        monkeypatch.setattr(cdc5.graphs, "_walk_forest", lambda h: walked.append(h) or walk(h))

        def refuse(*args):
            raise AssertionError("a graph's components were copied")

        monkeypatch.setattr(cdc5.flows, "MultiGraph", refuse)
        assert main(["stats", "--graph", str(path), "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["graphs"]
        assert walked == [parse_graph6(line)]
        assert row["bridges"] == 0 and row["nz4flow"] is False
        assert row["cyclespace_dim"] == len(spanning_forest(g).cycles) == (19 if connected else 9)

    def test_comment_lines_skipped(self, tmp_path, capsys):
        path = tmp_path / "commented.g6"
        path.write_text(">comment line\n>>graph6<<C~\n", encoding="ascii")
        assert main(["stats", "--graph", str(path)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1


class TestSweep:
    def test_small_batch(self, small_batch_file, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = main(
            ["sweep", "--graph", small_batch_file, "--out", out, "--workers", "1"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "total:" in text
        report = read_json(os.path.join(out, "report.json"))
        assert report["command"] == "sweep"
        assert report["counts"]["none"] == 0
        assert report["counts"]["inconclusive"] == 0
        assert not report["aborted"]
        k4_entry, prism_entry = report["graphs"]
        assert k4_entry["counts"]["found"] == 7
        assert prism_entry["status"] == "ok"
        for entry in report["graphs"]:
            for row in entry["circuits"]:
                name = row["certificate"]
                doc = read_json(os.path.join(out, name))
                assert verify_certificate(doc) == []
                assert doc["c0"] == row["edges"]

    def test_certificate_files_are_named_by_graph_and_circuit(
        self, k4_file, tmp_path
    ):
        out = str(tmp_path / "sweep")
        main(["sweep", "--graph", k4_file, "--out", out, "--workers", "1"])
        names = sorted(f for f in os.listdir(out) if f.startswith("cert_"))
        assert names == [f"cert_g000_c{ci:03d}.json" for ci in range(7)]

    def test_rejected_graphs_flag_the_run(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text(
            write_graph6(bridged_cubic_graph()) + "\n" + write_graph6(complete_graph(4)) + "\n",
            encoding="ascii",
        )
        out = str(tmp_path / "sweep")
        code = main(["sweep", "--graph", str(path), "--out", out, "--workers", "1"])
        assert code == 2
        report = read_json(os.path.join(out, "report.json"))
        assert report["graphs"][0]["status"] == "rejected"
        assert "bridge" in report["graphs"][0]["reason"]
        assert report["graphs"][1]["status"] == "ok"

    def test_edgeless_graph_has_no_circuits(self, edgeless_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["sweep", "--graph", edgeless_file, "--out", out, "--workers", "1"]) == 0
        assert capsys.readouterr().out == (
            "graph 0 (?): 0 found, 0 none, 0 inconclusive\n"
            "total: 0 found, 0 none, 0 inconclusive\n"
        )
        assert read_json(os.path.join(out, "report.json"))["graphs"][0]["circuits"] == []

    def test_unreadable_line_reported(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("C~\nnot graph6 at all\n", encoding="ascii")
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--graph", str(path), "--out", out, "--workers", "1"]) == 2
        report = read_json(os.path.join(out, "report.json"))
        assert report["graphs"][1]["status"] == "error"

    def test_guard_hits_exit_inconclusive(self, petersen_file, tmp_path):
        out = str(tmp_path / "sweep")
        code = main(
            ["sweep", "--graph", petersen_file, "--out", out, "--workers", "1",
             "--dim-guard", "5"]
        )
        assert code == 3
        report = read_json(os.path.join(out, "report.json"))
        assert report["graphs"][0]["status"] == "inconclusive"

    def test_budget_past_the_float_range_never_runs_out(self, petersen_file, tmp_path):
        out = str(tmp_path / "sweep")
        code = main(
            ["sweep", "--graph", petersen_file, "--out", out, "--workers", "1",
             "--budget-ms", str(10**400)]
        )
        assert code == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["options"]["budget_ms"] == 10**400
        assert report["graphs"][0]["counts"] == {"found": 57, "none": 0, "inconclusive": 0}

    def test_files_and_stdout_are_json_dumps_text(self, petersen_file, tmp_path, capsys):
        # Every indented JSON output must be json.dumps(..., indent=2) to
        # the byte: all 57 certificates, the report and the JSON stdout.
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--graph", petersen_file, "--out", str(out), "--workers", "1",
             "--format", "json"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed == json.dumps(json.loads(printed), indent=2) + "\n"
        names = sorted(os.listdir(out))
        assert len(names) == 58 and "report.json" in names
        for name in names:
            text = (out / name).read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert main(["stats", "--graph", petersen_file, "--format", "json"]) == 0
        printed = capsys.readouterr().out
        assert printed == json.dumps(json.loads(printed), indent=2) + "\n"

    def test_parallel_matches_serial(self, small_batch_file, tmp_path):
        # 8 workers exceed K4's 7 circuits: K4 gets 7 ranges of one circuit.
        serial = str(tmp_path / "serial")
        assert main(
            ["sweep", "--graph", small_batch_file, "--out", serial, "--workers", "1"]
        ) == 0
        serial_report = read_json(os.path.join(serial, "report.json"))
        serial_report.pop("total_ms")
        serial_certs = sorted(f for f in os.listdir(serial) if f.startswith("cert_"))
        for workers in ("2", "4", "8"):
            parallel = str(tmp_path / f"parallel{workers}")
            assert main(
                ["sweep", "--graph", small_batch_file, "--out", parallel, "--workers", workers]
            ) == 0
            parallel_report = read_json(os.path.join(parallel, "report.json"))
            parallel_report.pop("total_ms")
            assert serial_report == parallel_report
            parallel_certs = sorted(f for f in os.listdir(parallel) if f.startswith("cert_"))
            assert serial_certs == parallel_certs
            for name in serial_certs:
                left = read_json(os.path.join(serial, name))
                right = read_json(os.path.join(parallel, name))
                left["stats"].pop("elapsed_ms")
                right["stats"].pop("elapsed_ms")
                assert left == right

    def test_repeat_sweeps_do_equal_flow_work(self, petersen_file, tmp_path, monkeypatch):
        # No search state may outlive a command: a second in-process sweep
        # must decide every flow the first one decided.
        import cdc5.flows

        original = cdc5.flows.three_edge_color
        calls = []

        def counting(g):
            calls.append(g.n)
            return original(g)

        monkeypatch.setattr(cdc5.flows, "three_edge_color", counting)
        work = []
        for run in ("first", "second"):
            calls.clear()
            out = str(tmp_path / run)
            assert main(["sweep", "--graph", petersen_file, "--out", out, "--workers", "1"]) == 0
            work.append(len(calls))
        assert work[0] > 0 and work[0] == work[1]

    def test_workers_default_to_the_core_count_whatever_the_environment(
        self, k4_file, tmp_path, monkeypatch, in_process_pool, capsys
    ):
        # Only --workers sets the process count: a CDC5_WORKERS variable in
        # the environment neither sets nor breaks it.
        monkeypatch.setenv("CDC5_WORKERS", "abc")
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--graph", k4_file, "--out", out]) == 0
        capsys.readouterr()
        cpus = os.cpu_count() or 1
        assert in_process_pool.sizes == ([cpus] if cpus > 1 else [])
        assert cdc5.cli._build_parser().parse_args(["sweep", "--graph", k4_file]).workers == cpus

    def test_undecodable_file_is_usage_error(self, undecodable_file, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--graph", undecodable_file, "--out", out, "--workers", "1"]) == 2
        assert "not an ASCII graph6 file" in capsys.readouterr().err

    def test_out_naming_a_file_is_usage_error(self, k4_file, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="ascii")
        assert main(["sweep", "--graph", k4_file, "--out", str(taken), "--workers", "1"]) == 2
        assert "output directory" in capsys.readouterr().err

    def test_only_the_command_line_renders(self, petersen_file, tmp_path, monkeypatch, capsys):
        # A sweep hands back certificates, and cdc5 sweep renders each one
        # once, as it writes the file.
        renders = []
        render = cdc5.certificates.Certificate.render

        def counting(cert):
            renders.append(cert)
            return render(cert)

        monkeypatch.setattr(cdc5.certificates.Certificate, "render", counting)
        [(entry, certificates)] = cdc5.search.Sweep([write_graph6(petersen_graph())])
        assert len(certificates) == entry["counts"]["found"] == 57
        assert renders == []
        out = tmp_path / "out"
        assert main(["sweep", "--graph", petersen_file, "--out", str(out), "--workers", "1"]) == 0
        capsys.readouterr()
        assert len(renders) == 57
        assert len(list(out.glob("cert_*.json"))) == 57

    def test_counterexample_exits_1_and_stops_unless_keep_going(
        self, small_batch_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cdc5.search, "find_5cdc_containing", lambda *args: None)
        out = str(tmp_path / "stopped")
        assert main(["sweep", "--graph", small_batch_file, "--out", out, "--workers", "1"]) == 1
        assert "COUNTEREXAMPLE" in capsys.readouterr().out
        report = read_json(os.path.join(out, "report.json"))
        assert report["aborted"]
        assert report["counts"] == {"found": 0, "none": 7, "inconclusive": 0}
        assert [entry["status"] for entry in report["graphs"]] == ["ok", "skipped"]
        out = str(tmp_path / "kept")
        assert main(
            ["sweep", "--graph", small_batch_file, "--out", out, "--workers", "1",
             "--keep-going"]
        ) == 1
        capsys.readouterr()
        report = read_json(os.path.join(out, "report.json"))
        assert not report["aborted"]
        assert [entry["status"] for entry in report["graphs"]] == ["ok", "ok"]

    def test_json_format_prints_report(self, k4_file, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        assert main(
            ["sweep", "--graph", k4_file, "--out", out, "--workers", "1",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["found"] == 7


class TestArgumentHandling:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["find", "sweep", "stats"])
    def test_guard_defaults_are_the_searchs(self, command):
        args = cdc5.cli._build_parser().parse_args([command, "--graph", "g.g6"])
        defaults = cdc5.search.SearchOptions()
        assert args.dim_guard == defaults.dim_guard
        assert getattr(args, "budget_ms", None) == defaults.budget_ms
        # Each subcommand's whole flag table, in the order --help lists it:
        # option strings, dest, default, required, choices and type.
        [subparsers] = [
            action for action in cdc5.cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        table = [
            (action.option_strings, action.dest, action.default, action.required,
             action.choices, getattr(action.type, "__name__", None))
            for action in subparsers.choices[command]._actions
        ]
        positive = "_positive_int"
        flags = {
            "help": (["-h", "--help"], "help", argparse.SUPPRESS, False, None, None),
            "graph": (["--graph"], "graph", None, True, None, None),
            "index": (["--index"], "index", 0, False, None, "int"),
            "circuit": (["--circuit"], "circuit", None, False, None, None),
            "edge-ids": (["--edge-ids"], "edge_ids", False, False, None, None),
            "out": (["--out"], "out", ".", False, None, None),
            "dim-guard": (["--dim-guard"], "dim_guard", 16, False, None, positive),
            "budget-ms": (["--budget-ms"], "budget_ms", None, False, None, positive),
            "workers": (["--workers"], "workers", os.cpu_count() or 1, False, None, positive),
            "keep-going": (["--keep-going"], "keep_going", False, False, None, None),
            "format": (["--format"], "format", "table", False, ("json", "table"), None),
        }
        names = {
            "find": "help graph index circuit edge-ids out dim-guard budget-ms format",
            "sweep": "help graph out dim-guard budget-ms workers keep-going format",
            "stats": "help graph dim-guard format",
        }
        assert table == [flags[name] for name in names[command].split()]

    def test_nonpositive_workers_rejected(self, k4_file, capsys):
        assert main(["sweep", "--graph", k4_file, "--workers", "0"]) == 2
        capsys.readouterr()

    def test_commands_in_one_process_answer_as_fresh_processes(
        self, k4_file, tmp_path, monkeypatch, capsys
    ):
        # main builds its parser once per process; a usage error must leave
        # nothing behind for the commands after it.
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        out = str(tmp_path / "out")
        commands = [
            ["find", "--graph", k4_file, "--circuit", "0,1,2", "--dim-guard", "0"],
            ["find", "--graph", k4_file, "--circuit", "0,1,2", "--out", out],
            ["verify", os.path.join(out, "certificate.json")],
            ["find", "--help"],
        ]
        in_process = []
        for argv in commands:
            code = main(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert [code for code, _, _ in in_process] == [2, 0, 0, 0]
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "cdc5", *argv],
                capture_output=True, text=True, env=checkout_env(),
            )
            for argv in commands
        ]
        assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]


def checkout_env():
    """A copy of os.environ whose PYTHONPATH starts with this checkout's src."""
    env = os.environ.copy()
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        SRC_DIR + os.pathsep + inherited if inherited else SRC_DIR
    )
    return env


def declared_console_script(name):
    """The entry point declared for `name` under [project.scripts]."""
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    return importlib.metadata.EntryPoint(
        name=name, value=scripts[name], group="console_scripts"
    )


def write_console_script(entry, directory):
    """Write the wrapper an installer generates for a console_scripts entry."""
    path = os.path.join(directory, entry.name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {entry.module} import {entry.attr}\n"
            f"sys.exit({entry.attr}())\n"
        )
    os.chmod(path, 0o755)
    return path


def assert_help_lists_subcommands(script):
    proc = subprocess.run(
        [script, "--help"], capture_output=True, text=True, env=checkout_env()
    )
    assert proc.returncode == 0, proc.stderr
    for name in SUBCOMMANDS:
        assert name in proc.stdout, proc.stderr


class TestSubprocessEntryPoints:
    def test_module_invocation_end_to_end(self, petersen_file, tmp_path):
        out = str(tmp_path / "out")
        find = subprocess.run(
            [sys.executable, "-m", "cdc5", "find", "--graph", petersen_file,
             "--circuit", "0,1,2,3,4", "--out", out],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert find.returncode == 0, find.stderr
        verify = subprocess.run(
            [sys.executable, "-m", "cdc5", "verify",
             os.path.join(out, "certificate.json")],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert verify.returncode == 0, verify.stderr
        assert verify.stdout.startswith("certificate OK")

    def test_console_script_help(self, tmp_path):
        entry = declared_console_script("cdc5")
        assert_help_lists_subcommands(write_console_script(entry, str(tmp_path)))
        try:
            installed = importlib.metadata.distribution("cdc5")
        except importlib.metadata.PackageNotFoundError:
            return
        scripts = [
            ep.value for ep in installed.entry_points
            if ep.group == "console_scripts" and ep.name == "cdc5"
        ]
        assert scripts == [entry.value]
        on_path = shutil.which("cdc5")
        assert on_path is not None, "cdc5 is installed but not on PATH"
        assert_help_lists_subcommands(on_path)

import copy
import json

import pytest

from cdc5 import (
    Certificate,
    EdgeSet,
    InvariantViolationError,
    build_certificate,
    circuit_sweep,
    find_5cdc_containing,
    petersen_graph,
    verify_certificate,
    write_graph6,
)

from .oracles import complete_graph, flower_snark


@pytest.fixture(scope="module")
def petersen_cert():
    g = petersen_graph()
    return find_5cdc_containing(g, EdgeSet.of(g, range(5)))


@pytest.fixture(scope="module")
def k4_cert():
    g = complete_graph(4)
    return find_5cdc_containing(g, EdgeSet.of(g, [0, 1, 2]))


@pytest.fixture()
def doc(petersen_cert):
    return copy.deepcopy(petersen_cert.to_doc())


class TestDocumentShape:
    def test_key_order_is_pinned(self, petersen_cert):
        doc = petersen_cert.to_doc()
        assert list(doc) == [
            "graph6",
            "n",
            "m",
            "edges",
            "c0",
            "c1",
            "c2",
            "matching",
            "cdc",
            "coverage",
            "path",
            "stats",
        ]
        assert list(doc["stats"]) == ["candidates_tried", "elapsed_ms"]

    def test_json_roundtrip(self, petersen_cert):
        doc = json.loads(petersen_cert.to_json())
        assert Certificate.from_doc(doc) == petersen_cert
        assert verify_certificate(doc) == []

    def test_paths(self, petersen_cert, k4_cert):
        assert petersen_cert.path == "theorem2"
        assert petersen_cert.matching != ()
        assert k4_cert.path == "m-empty"
        assert k4_cert.matching == ()
        assert k4_cert.c2 == ()

    def test_host_graph_parses(self, petersen_cert):
        g = petersen_cert.host_graph()
        assert g.n == 10 and g.m == 15

    def test_from_doc_rejects_malformed(self, doc):
        del doc["coverage"]
        with pytest.raises(ValueError):
            Certificate.from_doc(doc)


class TestBuildGate:
    def test_inconsistent_matching_rejected(self, petersen_cert):
        g = petersen_graph()
        c0 = EdgeSet.of(g, petersen_cert.c0)
        c1 = EdgeSet.of(g, petersen_cert.c1)
        c2 = EdgeSet.of(g, petersen_cert.c2)
        elements = tuple(EdgeSet.of(g, ids) for ids in petersen_cert.cdc)
        with pytest.raises(InvariantViolationError):
            build_certificate(g, c0, c1, c2, EdgeSet.empty(g), elements, 1, 0)


class TestVerifyCertificate:
    def test_accepts_search_output(self, doc):
        assert verify_certificate(doc) == []

    def test_non_object_rejected(self):
        assert verify_certificate(42) != []
        assert verify_certificate({"graph6": "C~"}) != []

    def test_missing_field(self, doc):
        del doc["matching"]
        assert any("matching" in p for p in verify_certificate(doc))

    def test_bool_is_not_an_id(self, doc):
        doc["c0"] = [True] + doc["c0"][1:]
        assert verify_certificate(doc) != []

    def test_bad_graph6(self, doc):
        doc["graph6"] = "this is not graph6"
        assert verify_certificate(doc) != []

    def test_wrong_graph6_graph(self, doc):
        doc["graph6"] = write_graph6(complete_graph(4))
        problems = verify_certificate(doc)
        assert problems != []

    def test_edges_not_matching_graph6(self, doc):
        doc["edges"][0] = [0, 2]
        doc["edges"][1] = [0, 1]
        problems = verify_certificate(doc)
        assert any("edges" in p for p in problems)

    def test_edge_endpoint_out_of_range(self, doc):
        doc["edges"][0] = [0, 99]
        assert verify_certificate(doc) != []

    def test_non_cubic_host_rejected(self):
        # A hand-built doc over a 4-cycle: structurally fine, wrong degree.
        from cdc5 import MultiGraph

        cycle = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        doc = {
            "graph6": write_graph6(cycle),
            "n": 4,
            "m": 4,
            "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
            "c0": [],
            "c1": [0, 1, 2, 3],
            "c2": [],
            "matching": [],
            "cdc": [[0, 1, 2, 3], [0, 1, 2, 3]],
            "coverage": [2, 2, 2, 2],
            "path": "m-empty",
            "stats": {"candidates_tried": 1, "elapsed_ms": 0},
        }
        problems = verify_certificate(doc)
        assert any("cubic" in p for p in problems)

    def test_c0_not_inside_c1(self, doc):
        outside = next(e for e in range(15) if e not in doc["c1"])
        doc["c0"] = sorted(set(doc["c0"]) | {outside})
        assert any("c0" in p for p in verify_certificate(doc))

    def test_unsorted_ids_rejected(self, doc):
        doc["c1"] = list(reversed(doc["c1"]))
        assert verify_certificate(doc) != []

    def test_duplicate_ids_rejected(self, doc):
        doc["c1"] = [doc["c1"][0]] + doc["c1"]
        assert verify_certificate(doc) != []

    def test_matching_must_equal_intersection(self, doc):
        doc["matching"] = []
        assert any("matching" in p for p in verify_certificate(doc))

    def test_too_many_elements(self, doc):
        doc["cdc"] = doc["cdc"] + [doc["cdc"][0]]
        assert verify_certificate(doc) != []

    def test_coverage_edit_names_the_edge(self, doc):
        doc["coverage"][3] = 3
        problems = verify_certificate(doc)
        assert any("3" in p and "coverage" in p for p in problems)

    def test_cdc_element_edit_detected(self, doc):
        element = list(doc["cdc"][0])
        doc["cdc"][0] = element[1:]
        assert verify_certificate(doc) != []

    def test_c1_must_be_an_element(self, doc):
        # Swap c1 for the disjoint union of the outer pentagon and the
        # inner pentagram: even, contains c0, but not one of the elements.
        # The matching and path fields are updated so that only the element
        # check can complain.
        fake = sorted(set(doc["c0"]) | {10, 11, 12, 13, 14})
        assert fake not in doc["cdc"]
        doc["c1"] = fake
        doc["matching"] = sorted(set(fake) & set(doc["c2"]))
        doc["path"] = "theorem2" if doc["matching"] else "m-empty"
        problems = verify_certificate(doc)
        assert any("c1" in p and "element" in p for p in problems)

    def test_path_token_checked(self, doc):
        doc["path"] = "shortcut"
        assert any("path" in p for p in verify_certificate(doc))

    def test_path_consistency_checked(self, doc):
        assert doc["matching"] != []
        doc["path"] = "m-empty"
        assert any("path" in p for p in verify_certificate(doc))

    def test_stats_bounds(self, doc):
        doc["stats"]["candidates_tried"] = 0
        assert verify_certificate(doc) != []

    def test_negative_elapsed_rejected(self, doc):
        doc["stats"]["elapsed_ms"] = -5
        assert verify_certificate(doc) != []

    def test_flow_condition_is_rechecked(self, doc):
        # Drop c2 and the matching: every set-level field stays mutually
        # consistent, but the Petersen graph minus the now-empty matching
        # has no nowhere-zero 4-flow, so only the flow recheck can object.
        doc["c2"] = []
        doc["matching"] = []
        doc["path"] = "m-empty"
        problems = verify_certificate(doc)
        assert any("4-flow" in p for p in problems)


class TestFlowWitness:
    """A search's cover is its own witness for the flow condition on G - M,
    so verification never needs the exponential flow decider for it;
    test_flow_condition_is_rechecked covers the fallback."""

    @pytest.fixture()
    def no_decider(self, monkeypatch):
        def refuse(g):
            raise AssertionError("verify_certificate decided a flow")

        monkeypatch.setattr("cdc5.certificates.has_nz4flow", refuse)

    def test_petersen_sweep(self, no_decider):
        report = circuit_sweep(petersen_graph())
        assert report.found == 57
        for entry in report.entries:
            assert verify_certificate(entry.certificate.to_doc()) == []

    def test_flower_snark_j5(self, no_decider):
        g = flower_snark(5)
        inner = EdgeSet.of(g, [e for e, (u, v) in enumerate(g.edges) if u % 4 == v % 4 == 1])
        cert = find_5cdc_containing(g, inner)
        assert cert.path == "theorem2"
        assert verify_certificate(cert.to_doc()) == []

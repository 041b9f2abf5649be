import copy
import json
import re
import sys
from collections import Counter

import pytest

import cdc5.certificates
import cdc5.cover
import cdc5.graphs
import cdc5.search
from cdc5 import (
    InvariantViolationError,
    SearchContext,
    SearchOptions,
    Sweep,
    UnsupportedFormatError,
    enumerate_circuits,
    find_5cdc_containing,
    parse_graph6,
    verify_certificate,
    write_graph6,
)
from cdc5.certificates import CertificateFrame, build_certificate
from cdc5.cover import extend_to_cdc
from cdc5.graphs import mask_ids

from .conftest import sweep_graph
from .test_verify_corrupted import DATA as CORRUPTED
from .test_verify_corrupted import (
    WITNESSLESS,
    base_certificates,
    recorded_problems,
    witnessless_prism,
)
from .oracles import (
    complete_graph,
    edge_mask,
    flower_snark,
    loop_verify_cdc,
    petersen_graph,
    prism_graph,
    random_cubic_multigraph,
)


@pytest.fixture(scope="module")
def petersen_cert():
    g = petersen_graph()
    return find_5cdc_containing(g, edge_mask(g, range(5)))


@pytest.fixture(scope="module")
def k4_cert():
    g = complete_graph(4)
    return find_5cdc_containing(g, edge_mask(g, [0, 1, 2]))


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
        doc = json.loads(petersen_cert.render())
        assert doc == petersen_cert.to_doc()
        assert verify_certificate(doc) == []

    def test_paths(self, petersen_cert, k4_cert):
        assert petersen_cert.path == "theorem2"
        assert petersen_cert.matching != 0
        assert k4_cert.path == "m-empty"
        assert k4_cert.matching == 0
        assert k4_cert.c2 == 0

    def test_host_graph_parses(self, petersen_cert):
        doc = petersen_cert.to_doc()
        g = parse_graph6(doc["graph6"])
        assert (g.n, g.m) == (doc["n"], doc["m"]) == (10, 15)


class TestBuildGate:
    def test_inconsistent_matching_rejected(self, petersen_cert):
        g = petersen_graph()
        cert = petersen_cert
        with pytest.raises(InvariantViolationError):
            build_certificate(CertificateFrame(g), cert.c0, cert.c1, cert.c2, 0, cert.cdc, 1, 0)


def replace_one_element(g, cdc):
    """The cover (edge masks) with its first element swapped for an even
    subgraph that is not in it."""
    other = next(c for c in enumerate_circuits(g) if c not in cdc)
    return (other,) + cdc[1:]


def flip_bit_plane(planes, e):
    """The planes with edge e toggled in S1."""
    s1, s2 = planes
    return s1 ^ 1 << e, s2


class TestSearchGate:
    """The certificate check is the one gate on a found cover: a corrupted
    cover must stop the search, and the same corruption must fail
    verify_certificate on a document."""

    PENTAGON = range(5)

    def corrupt_search(self, monkeypatch, corrupt):
        g = petersen_graph()
        original = cdc5.search.extend_to_cdc

        def corrupted(covers, planes):
            return corrupt(g, covers, planes, original)

        monkeypatch.setattr(cdc5.search, "extend_to_cdc", corrupted)
        with pytest.raises(InvariantViolationError):
            find_5cdc_containing(g, edge_mask(g, self.PENTAGON))

    def test_replaced_element_stops_the_search(self, monkeypatch):
        def corrupt(host, covers, planes, original):
            return replace_one_element(host, original(covers, planes))

        self.corrupt_search(monkeypatch, corrupt)

    @pytest.mark.parametrize("edge", range(14))
    def test_flipped_bit_plane_stops_the_search(self, monkeypatch, edge):
        # The Petersen pentagon's pair overlaps in one edge, so G - M has
        # 14 edges; flip S1 at each of them.
        def corrupt(host, covers, planes, original):
            kept = [e for e in range(host.m) if (planes[0] | planes[1]) >> e & 1]
            assert len(kept) == 14
            return original(covers, flip_bit_plane(planes, kept[edge]))

        self.corrupt_search(monkeypatch, corrupt)

    def corrupted_doc(self, petersen_cert, cdc):
        doc = copy.deepcopy(petersen_cert.to_doc())
        doc["cdc"] = [list(mask_ids(x)) for x in cdc]
        # A consistent stored tally, so only the cover itself can fail.
        doc["coverage"] = list(loop_verify_cdc(petersen_graph(), cdc).coverage)
        return doc

    def witness(self, petersen_cert):
        g = petersen_graph()
        covers = [petersen_cert.c1, petersen_cert.c2]
        return g, covers, cdc5.search.SearchContext(g).flow_minus(covers[0] & covers[1])

    def test_replaced_element_fails_verification(self, petersen_cert):
        g, covers, planes = self.witness(petersen_cert)
        cdc = replace_one_element(g, extend_to_cdc(covers, planes))
        assert verify_certificate(self.corrupted_doc(petersen_cert, cdc)) != []

    def test_flipped_bit_plane_fails_verification(self, petersen_cert):
        g, covers, planes = self.witness(petersen_cert)
        for e in range(g.m):
            if (planes[0] | planes[1]) >> e & 1:
                cdc = extend_to_cdc(covers, flip_bit_plane(planes, e))
                assert verify_certificate(self.corrupted_doc(petersen_cert, cdc)) != []

    def test_intact_cover_passes(self, petersen_cert):
        g, covers, planes = self.witness(petersen_cert)
        doc = self.corrupted_doc(petersen_cert, extend_to_cdc(covers, planes))
        assert doc == petersen_cert.to_doc()
        assert verify_certificate(doc) == []

    def test_cover_is_checked_once_per_answer(self, monkeypatch):
        calls = []
        original = cdc5.certificates.coverage_masks

        def counting(masks):
            calls.append(None)
            return original(masks)

        monkeypatch.setattr(cdc5.certificates, "coverage_masks", counting)
        assert sweep_graph(petersen_graph())[1]["counts"]["found"] == 57
        assert len(calls) == 57

    @pytest.mark.parametrize(
        "g", [petersen_graph(), complete_graph(4), prism_graph()], ids=["petersen", "k4", "prism"]
    )
    def test_found_path_checks_the_answer_once(self, monkeypatch, g):
        # vertex_faults is counted wherever a cdc5 module calls it; of the
        # calls a search makes, one only may hold the answer's c1 and c2,
        # the check core's.  A cover assembly that checked its covers too
        # would make two.  K4 and the prism are coloured, so their answers
        # take the m-empty path with an empty c2.
        calls = []
        original = cdc5.graphs.vertex_faults
        for name, module in list(sys.modules.items()):
            if name.startswith("cdc5.") and getattr(module, "vertex_faults", None) is original:
                def counting(host, masks, caller=name):
                    calls.append((caller, list(masks)))
                    return original(host, masks)

                monkeypatch.setattr(module, "vertex_faults", counting)
        ctx = SearchContext(g)
        for c0 in enumerate_circuits(g):
            calls.clear()
            cert = find_5cdc_containing(g, c0, context=ctx)
            on_answer = [
                caller for caller, masks in calls if cert.c1 in masks and cert.c2 in masks
            ]
            assert on_answer == ["cdc5.certificates"]


@pytest.mark.parametrize(
    "g", [petersen_graph(), complete_graph(4), prism_graph()], ids=["petersen", "k4", "prism"]
)
def test_found_path_and_verification_build_no_edge_set(g):
    # Edge sets are plain masks at the entry points as in the engine: cdc5
    # has no edge-set type, and a search handed a circuit as an int
    # certifies it with a document the check accepts.
    assert not hasattr(cdc5.graphs, "EdgeSet")
    ctx = None  # the first search builds its own context
    for c0 in enumerate_circuits(g):
        cert = find_5cdc_containing(g, int(c0), context=ctx)
        assert cert.c0 == c0 and verify_certificate(cert.to_doc()) == []
        ctx = ctx or SearchContext(g)


def test_found_path_lists_no_ids(monkeypatch):
    # A certificate holds the search's masks, and ids are listed only when
    # it is rendered or made a document: the searches themselves convert
    # no mask to ids, wherever a cdc5 module would call mask_ids.
    g = petersen_graph()
    circuits = enumerate_circuits(g)
    calls = []
    original = cdc5.graphs.mask_ids

    def counting(mask):
        calls.append(mask)
        return original(mask)

    for name, module in list(sys.modules.items()):
        if name.startswith("cdc5.") and getattr(module, "mask_ids", None) is original:
            monkeypatch.setattr(module, "mask_ids", counting)
    ctx = SearchContext(g)
    certs = [find_5cdc_containing(g, c0, context=ctx) for c0 in circuits]
    assert len(certs) == 57
    assert calls == []
    for cert in certs:
        assert cert.render() == json.dumps(cert.to_doc(), indent=2) + "\n"


def untimed(text):
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)


class TestCertificateFrame:
    """A certificate's text is the frame of its graph with its own fields
    put in, and equals json.dumps(cert.to_doc(), indent=2) + "\n" byte for
    byte."""

    def test_certificate_text(self, petersen_cert, k4_cert):
        for cert in (petersen_cert, k4_cert):
            assert cert.render() == json.dumps(cert.to_doc(), indent=2) + "\n"

    def test_every_catalog_certificate(self, catalog):
        paths = Counter()
        for g in catalog:
            ctx = SearchContext(g)
            for circuit in enumerate_circuits(g):
                cert = find_5cdc_containing(g, circuit, context=ctx)
                text = json.dumps(cert.to_doc(), indent=2) + "\n"
                assert cert.render() == text
                paths[cert.path, cert.c2 == 0, cert.matching == 0] += 1
        assert paths == {("m-empty", True, True): 983, ("theorem2", False, False): 57}

    def test_two_digit_ids_of_j15(self):
        # J15 has 90 edges, so most ids take two digits; a search past the
        # default guard certifies a circuit of it in milliseconds.
        g = flower_snark(15)
        ctx = SearchContext(g)
        circuit = ctx.cycles[0]
        cert = find_5cdc_containing(g, circuit, SearchOptions(dim_guard=31), ctx)
        assert g.m == 90 and max(mask_ids(cert.cdc[-1])) >= 10
        text = json.dumps(cert.to_doc(), indent=2) + "\n"
        assert cert.render() == text
        assert verify_certificate(json.loads(text)) == []

    def test_multigraph_is_refused_before_the_search(self):
        # graph6 cannot name a multigraph, so its context has no frame, and
        # a search on it stops before deciding any flow.
        g = random_cubic_multigraph(8, 0)
        ctx = SearchContext(g)
        for _ in range(2):
            with pytest.raises(UnsupportedFormatError):
                find_5cdc_containing(g, 0, context=ctx)
        assert ctx._flows == {}

    def test_serial_and_parallel_sweeps_render_the_same_text(self, catalog_lines):
        # A parallel sweep's certificates come back through the pool as
        # objects; rendered, they are the serial sweep's text.
        serial = [certs for _, certs in Sweep(catalog_lines)]
        parallel = [certs for _, certs in Sweep(catalog_lines, workers=2)]
        assert [list(certs) for certs in serial] == [list(certs) for certs in parallel]
        for certs, other in zip(serial, parallel):
            for name, cert in certs.items():
                text = cert.render()
                assert text == json.dumps(cert.to_doc(), indent=2) + "\n"
                assert untimed(text) == untimed(other[name].render())


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

    def test_bool_is_not_a_count(self):
        # graph6 "@" has one vertex and no edges, so true and false would
        # pass the count checks as its n and m.
        doc = {
            "graph6": "@", "n": True, "m": False, "edges": [], "c0": [], "c1": [], "c2": [],
            "matching": [], "cdc": [], "coverage": [], "path": "m-empty",
            "stats": {"candidates_tried": 1, "elapsed_ms": 0},
        }
        assert verify_certificate(doc) == [
            "field 'n' has the wrong type", "field 'm' has the wrong type"
        ]
        doc.update(n=1, m=0)  # past the structure, the check core rejects it
        assert verify_certificate(doc) == ["graph is not cubic", "no cover element contains c0"]

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
        # consistent, but the cover no longer replays a flow of the Petersen
        # graph minus the now-empty matching (it has none), so only the
        # witness rule can object.
        doc["c2"] = []
        doc["matching"] = []
        doc["path"] = "m-empty"
        problems = verify_certificate(doc)
        assert any("4-flow" in p for p in problems)


class TestFlowWitness:
    """The cover is the only witness of the flow condition on G - M, so
    verification decides no flow: with the 3-edge-colourer made to raise,
    every engine certificate still verifies and every pinned corrupted
    document gets its pinned problems."""

    @pytest.fixture()
    def no_decider(self, monkeypatch):
        def refuse(g):
            raise AssertionError("verify_certificate decided a flow")

        return lambda: monkeypatch.setattr("cdc5.flows.three_edge_color", refuse)

    def test_petersen_sweep(self, no_decider):
        _, entry, certificates = sweep_graph(petersen_graph())
        assert entry["counts"]["found"] == 57
        assert len(certificates) == 57
        no_decider()
        for doc in certificates.values():
            assert verify_certificate(doc) == []

    def test_flower_snark_j5(self, no_decider):
        g = flower_snark(5)
        inner = edge_mask(g, [e for e, (u, v) in enumerate(g.edges) if u % 4 == v % 4 == 1])
        cert = find_5cdc_containing(g, inner)
        assert cert.path == "theorem2"
        no_decider()
        assert verify_certificate(cert.to_doc()) == []

    def test_pinned_corrupted_documents(self, no_decider):
        with open(CORRUPTED, encoding="utf-8") as handle:
            recorded = json.load(handle)
        bases = base_certificates()
        no_decider()
        assert recorded_problems(bases) == {
            name: entry["problems"] for name, entry in recorded.items()
        }
        assert verify_certificate(witnessless_prism()) == [WITNESSLESS]

    def test_no_flow_decider_is_imported(self):
        assert not hasattr(cdc5.certificates, "flow_planes")
        assert not hasattr(cdc5.cover, "flow_planes")

import multiprocessing
import os
import types

import pytest

from cdc5 import Sweep, parse_graph6, write_graph6

from .oracles import petersen_graph

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def read_graph6_lines(name: str) -> list[str]:
    with open(os.path.join(DATA_DIR, name), "r", encoding="ascii") as handle:
        return [line.strip() for line in handle if line.strip()]


def sweep_graph(g, options=None):
    """A sweep of g alone: the graph read back from its graph6 line, whose
    edge ids the report uses, the report entry and the documents of the
    certificates the sweep hands back."""
    line = write_graph6(g)
    [(entry, certificates)] = Sweep([line], options)
    docs = {name: cert.to_doc() for name, cert in certificates.items()}
    return parse_graph6(line), entry, docs


@pytest.fixture(scope="session")
def data_dir() -> str:
    return DATA_DIR


@pytest.fixture(scope="session")
def catalog_lines() -> list[str]:
    return read_graph6_lines("cubic_bridgeless_connected_n4_10.g6")


@pytest.fixture(scope="session")
def catalog(catalog_lines):
    return [parse_graph6(line) for line in catalog_lines]


@pytest.fixture(scope="session")
def snark_lines() -> list[str]:
    return read_graph6_lines("snarks.g6")


@pytest.fixture(scope="session")
def snarks(snark_lines):
    return [parse_graph6(line) for line in snark_lines]


@pytest.fixture()
def petersen():
    return petersen_graph()


@pytest.fixture()
def in_process_pool(monkeypatch):
    """multiprocessing.Pool replaced by a stand-in that maps in process and
    starts no process; the record returned lists the size of each pool
    made and the number of tasks each imap is given."""
    made = types.SimpleNamespace(sizes=[], ranges=[])

    class InProcessPool:
        def __init__(self, processes):
            made.sizes.append(processes)

        @staticmethod
        def imap(function, tasks):
            made.ranges.append(len(tasks))
            return map(function, tasks)

        def close(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    return made

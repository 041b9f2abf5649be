"""The scripts under scripts/ import what they use from cdc5 and from the
test modules, so a name removed from either breaks them.  Each is imported
here by path, which runs its imports but not its main.  The output check
(byte digests of the sweeps' files), the search-order check (the engine
against the exhaustive reference search) and the colorer check run
whole, in process, and must exit 0.  The product check (the engine
against the labelling oracle on snark products) takes over a minute, so
it is imported only."""

import importlib.util
import json
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def import_script(name):
    """The module scripts/<name>.py, imported by path; the entries it puts
    on sys.path are taken off again."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize(
    "name", ["check_outputs", "check_search_order", "check_colourer", "check_products"]
)
def test_check_script_imports(name):
    assert callable(import_script(name).main)


@pytest.mark.parametrize("name", ["check_outputs", "check_search_order", "check_colourer"])
def test_check_script_passes(name, capsys):
    code = import_script(name).main()
    assert code == 0, capsys.readouterr().out


def test_pinned_report_drops_the_input_and_the_run_time(tmp_path):
    # The report digest must not depend on the path the graph file was
    # named by nor on the run time; every other field stays.
    report = {"command": "sweep", "input": "/any/path.g6", "graphs": [], "total_ms": 7}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    pinned = import_script("check_outputs").pinned_report(path)
    assert json.loads(pinned) == {"command": "sweep", "graphs": []}


def test_gen_fixtures_imports():
    pytest.importorskip("networkx")
    assert callable(import_script("gen_fixtures").main)

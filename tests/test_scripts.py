"""The scripts under scripts/ import what they use from cdc5 and from the
test modules, so a name removed from either breaks them.  Each is imported
here by path, which runs its imports but not its main."""

import importlib.util
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


@pytest.mark.parametrize("name", ["check_outputs", "check_search_order", "check_colourer"])
def test_check_script_imports(name):
    assert callable(import_script(name).main)


def test_gen_fixtures_imports():
    pytest.importorskip("networkx")
    assert callable(import_script("gen_fixtures").main)

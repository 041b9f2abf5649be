import ast
import pathlib
import subprocess
import sys

import cdc5

SRC = pathlib.Path(cdc5.__file__).parent

# The engine's public names: the search, the sweep, the certificate and its
# check, the cover and flow layers they are built on, and the errors.
PUBLIC_API = [
    "CapacityError",
    "Certificate",
    "Graph6Error",
    "InvariantViolationError",
    "MultiGraph",
    "PreconditionError",
    "SearchContext",
    "SearchOptions",
    "Sweep",
    "UnsupportedFormatError",
    "canonical_masks",
    "enumerate_circuits",
    "find_5cdc_containing",
    "flow_planes",
    "has_nz4flow",
    "is_even_subgraph",
    "is_flow",
    "parse_graph6",
    "spanning_forest",
    "three_edge_color",
    "verify_certificate",
    "write_graph6",
]


def test_every_export_resolves_once():
    assert len(cdc5.__all__) == len(set(cdc5.__all__))
    for name in cdc5.__all__:
        assert getattr(cdc5, name, None) is not None, name


def test_public_api_is_pinned():
    assert cdc5.__all__ == PUBLIC_API


def test_import_loads_no_oracle():
    # A fresh interpreter, so no test module has imported anything yet.
    # Only a sweep of more than one process needs multiprocessing, so the
    # CLI does not load it on import either.
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cdc5.cli; print(*sorted(sys.modules))"],
        cwd=SRC.parent, check=True, capture_output=True, text=True,
    ).stdout
    modules = out.split()
    assert "cdc5.search" in modules and "cdc5.oracle" not in modules
    assert "multiprocessing" not in modules
    assert not (SRC / "oracle.py").exists()


def test_engine_modules_import_only_the_standard_library():
    # pyproject.toml declares no dependencies, though the tests install
    # some (networkx); the tests themselves are no module of the library.
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path, name)


# The names through which a module reads or writes the process environment.
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def test_no_engine_module_reads_the_environment():
    # Every setting comes from a flag or a parameter, so none hides in the
    # environment of the process that runs the engine.
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not ENVIRONMENT.intersection(names), path


def unused_imports(tree: ast.Module) -> list[str]:
    """The names a module's imports bind that it never reads.  Naming one
    in __all__ counts as a use, as the package's __init__ imports names to
    export them."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(bound - used)


def test_no_engine_module_imports_a_name_it_never_uses():
    for path in sorted(SRC.glob("*.py")):
        assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == [], path


def unreferenced_private_names(trees: list[ast.Module]) -> list[str]:
    """The private names (one leading underscore) that the modules define
    at module level, as functions, classes or constants, and that no
    module reads, by name or as an attribute."""
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - used)


def test_no_engine_module_defines_a_private_name_it_never_uses():
    # A helper left behind when its callers are folded away fails here.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_names(trees) == []


def test_unreferenced_private_names_are_found():
    modules = [
        ast.parse(
            "_LIMIT = 3\n"
            "_table: dict = {}\n"
            "def _helper(): return _LIMIT\n"
            "def _orphan(): pass\n"
            "class _Gone: pass\n"
            "__all__ = []\n"
        ),
        ast.parse("from . import a\nprint(a._helper())\n"),
    ]
    assert unreferenced_private_names(modules) == ["_Gone", "_orphan", "_table"]


def test_unused_imports_are_found():
    module = ast.parse(
        "from json.encoder import encode_basestring_ascii\n"
        "import os.path, sys as system\n"
        "from .graphs import MultiGraph, parse_graph6\n"
        "__all__ = ['parse_graph6']\n"
        "print(os.sep)\n"
    )
    assert unused_imports(module) == ["MultiGraph", "encode_basestring_ascii", "system"]

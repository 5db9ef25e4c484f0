"""Tooling: every name a package module imports is used in that module, and
every top-level definition of the package is named somewhere."""

import ast
from collections import Counter
from pathlib import Path

import ldlab

ROOT = Path(__file__).resolve().parent.parent

# benchmarks/tracer.py counts and times the calls made through these names by
# rebinding them on the importing module, so they stay imported there
TRACER_REBINDS = {("bounds", "quad"), ("bounds", "transition_density"),
                  ("scenarios", "exact_filter_finite"), ("scenarios", "forgetting_bound")}


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    package = Path(ldlab.__file__).parent
    unused = {(path.stem, name) for path in package.glob("*.py")
              if path.name != "__init__.py" for name in _unused_imports(path)}
    assert unused - TRACER_REBINDS == set()


def _names(tree):
    """Every name a tree mentions: identifiers, attributes, imports and strings.

    A string counts because benchmarks/tracer.py names the attributes it wraps
    by string.
    """
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.append(node.value)
    return names


def test_every_definition_is_named_outside_itself():
    # a top-level function or class of the package that nothing in the
    # package, the tests or the benchmark names is dead code
    package = Path(ldlab.__file__).parent
    folders = (package, ROOT / "tests", ROOT / "benchmarks")
    trees = {path: ast.parse(path.read_text())
             for folder in folders for path in folder.glob("*.py")}
    counts = Counter(name for tree in trees.values() for name in _names(tree))
    dead = []
    for path in sorted(package.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if counts[node.name] == _names(node).count(node.name):
                    dead.append((path.stem, node.name))
    assert dead == []


def _file_io(tree):
    """The ``json`` and ``os`` imports and the ``open`` calls of a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names} & {"json", "os"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in ("json", "os"):
            found.add(node.module.split(".")[0])
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "open"):
            found.add("open")
    return found


def test_only_scenarios_and_cli_touch_files():
    # scenarios writes every artifact through write_rows and write_json, and
    # cli reads the config file; every other module is numerics only
    package = Path(ldlab.__file__).parent
    found = {(path.stem, what) for path in package.glob("*.py")
          if path.stem not in ("scenarios", "cli") for what in _file_io(ast.parse(path.read_text()))}
    assert found == set()
    assert _file_io(ast.parse((package / "scenarios.py").read_text())) == {"json", "os", "open"}

"""Tooling: every name a package module imports is used in that module."""

import ast
from pathlib import Path

import ldlab

# benchmarks/tracer.py counts and times the calls made through these names by
# rebinding them on the importing module, so they stay imported there
TRACER_REBINDS = {("bounds", "quad"), ("bounds", "transition_density"),
                  ("scenarios", "forgetting_bound")}


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

"""Tooling: every name a package module imports is used in that module, and
every top-level definition of the package is named somewhere."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import ldlab
from ldlab import bounds, doeblin

ROOT = Path(__file__).resolve().parent.parent

# benchmarks/tracer.py counts and times the calls made through these names by
# rebinding them on the importing module, so they stay imported there;
# bounds.quad is doeblin's wrapper, which imports scipy.integrate at its first call
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


# The scipy subpackages that scipy.integrate pulls in; no run calls any of them
_HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy.fft",
          "scipy.spatial")
# the directory holding the ldlab imported here, absolute, so that a child
# started in a tmp dir imports this same code
_LDLAB_ROOT = str(Path(ldlab.__file__).resolve().parent.parent)


def _fresh_python(code, cwd):
    """Run ``code`` in a new interpreter in ``cwd`` and return what it prints as JSON."""
    rest = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_LDLAB_ROOT + (os.pathsep + rest if rest else ""))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       cwd=cwd, env=env)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def test_a_run_imports_no_scipy_subpackage_it_does_not_call(tmp_path):
    # every CLI call and benchmark worker starts a new interpreter, so each one
    # pays for what importing ldlab loads
    loaded = _fresh_python(f"""
import json, sys
import ldlab
from ldlab import cli
from ldlab.scenarios import monte_carlo_expectation, preset_dict, scenario_from_dict
assert cli.main(["experiment", "--preset", "finite-oracle", "--out", "exp"]) == 0
config = scenario_from_dict(dict(preset_dict("rw-gauss"), horizon=5))
assert config.bound is not None
assert not monte_carlo_expectation(config, 2)["failures"]
print(json.dumps([m for m in {_HEAVY!r} if m in sys.modules]))
""", tmp_path)
    assert loaded == []


def test_the_quadrature_check_imports_scipy_integrate_at_its_first_call(tmp_path):
    assert bounds.quad is doeblin.quad
    before, after, passed = _fresh_python("""
import json, sys
from ldlab.doeblin import verify_ld_property
from ldlab.scenarios import preset_config
before = "scipy.integrate" in sys.modules
report = verify_ld_property(preset_config("rw-gauss").model, 1.0, y=0.0, yp=0.8, budget=5)
print(json.dumps([before, "scipy.integrate" in sys.modules, report["passed"]]))
""", tmp_path)
    assert (before, after, passed) == (False, True, True)

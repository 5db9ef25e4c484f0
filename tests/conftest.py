"""Shared fixtures for the tier-1 tests."""

import importlib.util
import os

import pytest

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")


def _load_benchmark_module(name):
    """Import ``benchmarks/<name>.py`` by path; the directory is not a package."""
    spec = importlib.util.spec_from_file_location(f"ldlab_bench_{name}",
                                                  os.path.join(BENCHMARKS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def references():
    """The benchmark's closed-form Kalman, phi and psi references, loaded by path."""
    return _load_benchmark_module("references")


@pytest.fixture(scope="session")
def tracer_module():
    """The benchmark's layer tracer, loaded by path."""
    return _load_benchmark_module("tracer")

"""Shared fixtures for the tier-1 tests."""

import importlib.util
import os

import pytest

REFERENCES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks", "references.py")


@pytest.fixture(scope="session")
def references():
    """The benchmark's closed-form Kalman, phi and psi references, loaded by path."""
    spec = importlib.util.spec_from_file_location("ldlab_bench_references", REFERENCES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

"""Self-tests of the benchmark: references, workloads and the output contract.

Run with ``python3 -m pytest benchmarks``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import references as ref
import run
from ldlab import bounds, filtering, models, scenarios
from ldlab.dists import NormalPrior, prior_from_spec
from ldlab.filtering import ReprConfig
from ldlab.modelspec import model_from_spec
from tracer import Tracer, install_ldlab
from workloads import WORKLOADS, Call

HERE = os.path.dirname(os.path.abspath(__file__))


def _preset_model(name):
    raw = scenarios.PRESETS[name]
    return raw, model_from_spec(raw["model"])


@pytest.mark.parametrize("name,seed", [("rw-gauss", 101), ("ar-unstable", 201)])
def test_kalman_reference_matches_grid_pair_at_1024_nodes(name, seed):
    raw, model = _preset_model(name)
    p1, p2 = prior_from_spec(raw["prior1"]), prior_from_spec(raw["prior2"])
    ys = models.simulate_trajectory(model, p1, raw["horizon"], seed).observations
    res = filtering.run_grid_pair(model, p1, p2, ys, ReprConfig(nodes=1024))
    a, _, q, r = ref.gaussian_params(raw["model"])
    exact = ref.kalman_log_tv(a, q, r, p1.mean, p2.mean, p1.std, raw["horizon"])
    assert np.max(np.abs(res.log_tv - exact)) <= 2e-4


@pytest.mark.parametrize("mean,y0,y1,delta", [
    (0.0, 0.2, -0.4, 1.0),
    (-5.0, -4.1, -5.3, 2.146),   # rw-gauss near prior, eta = 0.1
    (-5.0, -4.1, -5.3, 0.5),
])
def test_closed_form_phi_matches_monte_carlo(mean, y0, y1, delta):
    _, model = _preset_model("rw-gauss")
    prior = NormalPrior(mean, 1.0)
    mc = bounds.two_step_prior_mass(model, prior, y0, y1, delta, method="mc",
                                    budget=200_000, seed=3)
    exact = math.exp(ref.log_phi(1.0, 0.0, 1.0, 1.0, mean, 1.0, y0, y1, delta))
    assert abs(mc.value - exact) <= 4.0 * mc.stderr


def test_closed_form_phi_handles_affine_drift():
    raw, model = _preset_model("ar-unstable")
    prior = NormalPrior(-5.0, 1.0)
    q = bounds.two_step_prior_mass(model, prior, -4.8, -5.5, 1.5, method="quad")
    a, c0, qv, r = ref.gaussian_params(raw["model"])
    assert ref.log_phi(a, c0, qv, r, -5.0, 1.0, -4.8, -5.5, 1.5) == pytest.approx(
        q.log_value, abs=1e-6)


@pytest.mark.parametrize("delta", [0.3, 2.146, 4.0])
def test_closed_form_psi_matches_quadrature(delta):
    _, model = _preset_model("rw-gauss")
    assert ref.log_psi(1.0, delta) == pytest.approx(
        math.log(bounds.set_likelihood_mass(model, 0.0, 1.7, delta)), abs=1e-12)


def test_log_interval_mass_keeps_precision_in_the_far_tail():
    # Phi(-30) - Phi(-31), both ~1e-197, must not cancel
    expected = math.log(math.erfc(30 / math.sqrt(2)) / 2 - math.erfc(31 / math.sqrt(2)) / 2)
    assert ref._log_interval_mass(-31.0, -30.0) == pytest.approx(expected, rel=1e-12)
    assert ref._log_interval_mass(30.0, 31.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_short_pass_of_each_workload_has_no_failures(name, tmp_path):
    work = WORKLOADS[name](7, str(tmp_path))
    calls = work.calls(0)
    outputs = []
    for call in calls:
        out, ok = call.run()
        assert ok, call.label
        outputs.append(out)
    checks = work.check(calls, outputs)
    assert checks.verdicts() == []
    assert checks.failed == 0 and checks.attempted >= 1
    assert checks.errors


def test_exact_counts_repeat_between_traced_runs(tmp_path):
    counts = []
    for attempt in range(2):
        work = WORKLOADS["finite-oracle"](7, str(tmp_path / str(attempt)))
        tracer = Tracer()
        install_ldlab(tracer)
        try:
            for call in work.calls(0):
                call.run()
        finally:
            tracer.uninstall()
        counts.append((dict(tracer.calls), dict(tracer.counts)))
    assert counts[0] == counts[1]
    calls, _ = counts[0]
    assert calls["scenarios.run"] == 2
    assert calls["bounds.finite"] == 2 * 39  # per-prefix assembly, n = 2..40


def test_tracer_uninstall_restores_the_package():
    before = (scenarios.run_scenario, bounds.quad, filtering.grid_kernel)
    tracer = Tracer()
    install_ldlab(tracer)
    assert scenarios.run_scenario is not before[0]
    tracer.uninstall()
    assert (scenarios.run_scenario, bounds.quad, filtering.grid_kernel) == before


def test_tail_percentile_keeps_ten_samples_beyond():
    p50, tail, pct = run._percentiles(list(range(100)))
    assert p50 == 49.5 and tail == 89 and pct == 90.0
    p50, tail, pct = run._percentiles(list(range(15)))
    assert tail == p50 and pct == 50.0


def test_latency_is_the_mean_of_the_20_fastest_calls_of_each_kind():
    calls = [Call("a", None, 10, "a"), Call("b", None, 30, "b")] * 30
    latencies = [t for i in range(30) for t in (0.1 + (i >= 20), 0.3 + (i >= 20))]
    best_ms, steps_per_s, by_kind = run._best_metrics(calls, latencies)
    assert by_kind == {"a": 100.0, "b": 300.0}
    assert best_ms == pytest.approx(200.0) and steps_per_s == pytest.approx(100.0)
    _, _, by_kind = run._best_metrics(calls[:10], [0.1, 0.3, 0.2, 0.5] * 2 + [0.3, 0.7])
    assert by_kind == {"a": 180.0, "b": 460.0}  # fewer than 20 calls: all of them


def test_command_prints_the_result_as_its_last_line():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "finite-oracle",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_command_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "filter-pair", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""

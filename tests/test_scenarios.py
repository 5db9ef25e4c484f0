"""Scenario configs, experiment runner, reports, Monte Carlo aggregation."""

import json
import os

import numpy as np
import pytest

from ldlab.dists import NormalPrior
from ldlab.errors import ConfigError
from ldlab.filtering import ReprConfig, exact_filter_finite, run_grid_pair, tv_half_l1
from ldlab.models import gaussian_finite_model, simulate_finite, simulate_trajectory
from ldlab.modelspec import model_from_spec
from ldlab import scenarios
from ldlab.scenarios import (
    PRESETS,
    compare_particle_grid,
    config_hash,
    monte_carlo_expectation,
    preset_config,
    repr_config,
    run_grid_pair_unpaired,
    run_scenario,
    scenario_from_dict,
)

SMALL_SCENARIO = {
    "name": "unit-small",
    "model": {
        "kind": "linear_gaussian",
        "f": {"type": "identity"},
        "h": {"type": "identity"},
        "state_noise": {"kind": "iid", "density": {"family": "gaussian", "sigma": 1.0}},
        "obs_noise": {"family": "gaussian", "sigma": 1.0},
    },
    "prior1": {"family": "normal", "mean": -3.0, "std": 1.0},
    "prior2": {"family": "normal", "mean": 3.0, "std": 1.0},
    "horizon": 12,
    "seeds": [7, 8, 9],
    "repr": {"kind": "grid", "nodes": 128, "paired": True},
    "bound": {"alpha": 0.5, "eta": 0.1, "d_mode": "recorded"},
}


def test_scenario_from_dict_collects_every_error():
    with pytest.raises(ConfigError) as err:
        scenario_from_dict({
            "name": "broken",
            "horizon": -3,
            "seeds": [1, 1],
        })
    msg = str(err.value)
    assert "exactly one of 'model' or 'finite'" in msg
    assert "'prior1' is required" in msg
    assert "'prior2' is required" in msg
    assert "'horizon' must be a positive integer" in msg
    assert "duplicates" in msg


def test_equal_priors_need_explicit_opt_in():
    d = json.loads(json.dumps(SMALL_SCENARIO))
    d["prior2"] = dict(d["prior1"])
    with pytest.raises(ConfigError, match="allow_equal_priors"):
        scenario_from_dict(d)
    d["allow_equal_priors"] = True
    cfg = scenario_from_dict(d)
    assert cfg.allow_equal_priors


def test_config_hash_is_order_insensitive():
    a = {"x": 1, "y": [1, 2], "z": {"p": 0.5}}
    b = {"z": {"p": 0.5}, "y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "x": 2})


def test_repr_config_rejects_unknown_fields():
    assert repr_config({"kind": "grid", "nodes": 64}).nodes == 64
    with pytest.raises(ConfigError, match="ndoes"):
        repr_config({"kind": "grid", "ndoes": 64})


def test_presets_all_validate():
    assert set(PRESETS) == {"rw-gauss", "ar-unstable", "dep-noise", "misspec",
                            "finite-oracle"}
    for name in PRESETS:
        cfg = preset_config(name)
        assert cfg.name == name
        assert len(cfg.seeds) == 20
    assert preset_config("finite-oracle").is_finite
    assert not preset_config("rw-gauss").is_finite
    with pytest.raises(ConfigError):
        preset_config("nope")


def test_run_scenario_produces_full_report():
    cfg = scenario_from_dict(json.loads(json.dumps(SMALL_SCENARIO)))
    rep = run_scenario(cfg, seed=7)
    assert rep.failure is None
    assert rep.tv.n.shape == (13,)
    assert rep.tv.tv[0] > 0.9  # priors six sigma apart
    assert np.all(np.diff(rep.tv.log_tv) < 0)  # strict forgetting on this model
    assert rep.fit is not None and rep.fit.slope < -0.5
    assert rep.bound is not None
    assert rep.bound["final"]["parameters"]["d_mode"] == "recorded"
    assert rep.tv.meta["scenario"] == "unit-small"
    assert rep.tv.meta["seed"] == 7
    assert rep.config_hash == config_hash(cfg.raw)
    assert rep.seed == 7


def test_run_scenario_writes_stable_files(tmp_path):
    cfg = scenario_from_dict(json.loads(json.dumps(SMALL_SCENARIO)))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, seed=8, out_dir=d1)
    run_scenario(cfg, seed=8, out_dir=d2)
    for rel in ("tv.csv", "plotdata/tv.dat", "plotdata/log_tv.dat",
                "plotdata/bound_log.dat"):
        b1 = (d1 / rel).read_bytes()
        b2 = (d2 / rel).read_bytes()
        assert b1 == b2, f"{rel} differs between identical runs"
    report = json.loads((d1 / "report.json").read_text())
    assert report["seed"] == 8
    assert report["fit"]["slope"] < 0
    assert report["tv_summary"]["n_max"] == 12


def test_run_scenario_records_failures_instead_of_raising():
    cfg = scenario_from_dict({
        "name": "degenerate",
        "model": {
            "kind": "linear_gaussian",
            "f": {"type": "identity"},
            "h": {"type": "identity"},
            "state_noise": {"kind": "iid",
                            "density": {"family": "gaussian", "sigma": 0.01}},
            "obs_noise": {"family": "gaussian", "sigma": 0.01},
        },
        "prior1": {"family": "normal", "mean": -5.0, "std": 0.1},
        "prior2": {"family": "normal", "mean": 5.0, "std": 0.1},
        "horizon": 10,
        "seeds": [1],
        "repr": {"kind": "grid", "nodes": 64, "paired": True},
    })
    rep = run_scenario(cfg, seed=1)
    assert rep.failure is not None
    assert rep.failure["error"]
    assert rep.failure["message"]
    # the tv series keeps its full length, padded with NaN
    assert rep.tv.tv.shape == (11,)
    assert np.isnan(rep.tv.tv).all()
    assert rep.fit is None


@pytest.mark.parametrize("paired", [True, False], ids=["paired", "unpaired"])
def test_run_scenario_keeps_the_steps_before_a_failure(monkeypatch, paired):
    real_simulate = scenarios._simulate

    def poisoned(*args):
        traj, ys = real_simulate(*args)
        ys = ys.copy()
        ys[-1] = np.inf  # zero likelihood on every node: the last step collapses
        return traj, ys

    monkeypatch.setattr(scenarios, "_simulate", poisoned)
    raw = dict(SMALL_SCENARIO, bound=None, repr={"kind": "grid", "nodes": 128, "paired": paired})
    rep = run_scenario(raw, seed=7)
    assert rep.failure["step"] == 12
    cfg = scenario_from_dict(raw)
    model = model_from_spec(cfg.model)
    p1, p2 = NormalPrior(-3.0, 1.0), NormalPrior(3.0, 1.0)
    _, ys = real_simulate(cfg, model, None, None, 7)
    rc = repr_config(cfg.repr)
    if paired:
        short = run_grid_pair(model, p1, p2, ys[:-1], rc)
        tv, log_tv = short.tv, short.log_tv
    else:
        tv, log_tv, _ = run_grid_pair_unpaired(model, p1, p2, ys[:-1], rc)
    assert np.array_equal(rep.tv.tv[:12], tv)
    assert np.array_equal(rep.tv.log_tv[:12], log_tv)
    assert np.isnan(rep.tv.tv[12]) and np.isnan(rep.tv.log_tv[12])


def test_finite_scenario_runs_exactly():
    cfg = preset_config("finite-oracle")
    rep = run_scenario(cfg, seed=501)
    assert rep.failure is None
    assert rep.tv.n.shape == (41,)
    assert rep.fit is not None
    assert rep.fit.slope < -0.05
    assert rep.bound is not None


def test_unpaired_route_confirms_paired_route():
    model = model_from_spec(SMALL_SCENARIO["model"])
    p1 = NormalPrior(-2.0, 1.0)
    p2 = NormalPrior(2.0, 1.0)
    traj = simulate_trajectory(model, p1, n=15, seed=4)
    rc = ReprConfig(kind="grid", nodes=512, paired=True)
    paired = run_grid_pair(model, p1, p2, traj.observations, rc)
    tvs, log_tvs, info = run_grid_pair_unpaired(model, p1, p2, traj.observations, rc)
    mask = paired.tv > 1e-10  # above the direct route's collision floor
    rel = np.abs(paired.tv[mask] - tvs[mask]) / paired.tv[mask]
    assert rel.max() < 1e-9
    assert "final_window" in info


def test_identical_transition_rows_forget_in_one_step():
    # rank-one transition matrix: the predictive is prior-independent, so
    # the two filters coincide from step 1 on, exactly in floats
    fm = gaussian_finite_model(
        Q=np.array([[0.5, 0.5], [0.5, 0.5]]),
        means=np.array([-1.0, 1.0]),
        stds=np.array([1.0, 1.0]))
    _, ys = simulate_finite(fm, np.array([0.5, 0.5]), n=10, seed=9)
    f1, _ = exact_filter_finite(fm, np.array([0.9, 0.1]), ys)
    f2, _ = exact_filter_finite(fm, np.array([0.1, 0.9]), ys)
    assert tv_half_l1(f1[0], f2[0]) > 0.3
    for k in range(1, 11):
        assert tv_half_l1(f1[k], f2[k]) == 0.0


def test_particle_route_tracks_grid_route():
    model = model_from_spec(SMALL_SCENARIO["model"])
    cfg = ReprConfig(kind="particles", particles=30_000)
    traj = simulate_trajectory(model, NormalPrior(0.0, 1.0), n=25, seed=3)
    tvs = compare_particle_grid(model, NormalPrior(0.0, 1.0),
                                traj.observations, cfg, seed=3)
    assert len(tvs) == 26
    assert max(tvs) < 0.06


def test_monte_carlo_mean_is_exact_average(tmp_path):
    cfg = scenario_from_dict(json.loads(json.dumps(SMALL_SCENARIO)))
    out = tmp_path / "mc"
    res = monte_carlo_expectation(cfg, replicates=3, out_dir=out,
                                  thresholds={"M1": 2.0, "M2": 0.0, "M3": 2.0,
                                              "delta": 0.01})
    per_run = np.stack([r.tv.tv for r in res["reports"]], axis=0)
    assert np.max(np.abs(res["mean_tv"] - per_run.mean(axis=0))) <= 1e-12
    assert res["seeds"] == [7, 8, 9]
    assert len(res["slopes"]) == 3
    ex = res["exceedance"]
    assert ex is not None
    for key in ("r1", "r2", "r3", "r4"):
        assert ex[key] is not None and 0.0 <= ex[key] <= 1.0
    assert ex["r0_nu"] is None  # no M0 threshold supplied
    assert (out / "mc_tv.csv").exists()
    assert (out / "report.json").exists()
    assert (out / "plotdata" / "mean_tv.dat").exists()
    payload = json.loads((out / "report.json").read_text())
    assert len(payload["per_replicate"]) == 3


def test_monte_carlo_extends_seed_list_uniquely():
    d = json.loads(json.dumps(SMALL_SCENARIO))
    d["seeds"] = [7]
    cfg = scenario_from_dict(d)
    res = monte_carlo_expectation(cfg, replicates=4)
    assert res["seeds"] == [7, 8, 9, 10]
    with pytest.raises(ConfigError):
        monte_carlo_expectation(cfg, replicates=1)


def test_eta_sweep_scenario_reports_best():
    d = json.loads(json.dumps(SMALL_SCENARIO))
    d["bound"] = {"alpha": 0.5, "eta": "sweep", "etas": [0.1, 0.3],
                  "d_mode": "recorded"}
    cfg = scenario_from_dict(d)
    rep = run_scenario(cfg, seed=7)
    assert rep.bound is not None
    sweep = rep.bound.get("sweep")
    assert sweep is not None
    assert sweep["etas"] == [0.1, 0.3]
    best_total = rep.bound["final"]["log_total"]
    assert best_total == min(r["log_total"] for r in sweep["results"])

"""Scenario configs, experiment runner, reports, Monte Carlo aggregation."""

import json
import math
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ldlab.dists import NormalPrior
from ldlab.errors import ConfigError, DegenerateInitError, FilterCollapseError, LabError
from ldlab.filtering import (
    ReprConfig,
    exact_filter_finite,
    run_finite_pair,
    run_grid_pair,
    tv_half_l1,
)
from ldlab.models import gaussian_finite_model, simulate_finite, simulate_trajectory
from ldlab.modelspec import model_from_spec
from ldlab import bounds, scenarios
from ldlab.scenarios import (
    PRESETS,
    compare_particle_grid,
    config_hash,
    monte_carlo_expectation,
    preset_config,
    preset_dict,
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
    "repr": {"nodes": 128},
    "bound": {"alpha": 0.5, "eta": 0.1},
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
    # a bool is not an integer and a string is not a bool: each of these used
    # to crash the read, run one step or opt in
    for seeds in (5, [True, 2]):
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(dict(SMALL_SCENARIO, seeds=seeds, horizon=True,
                                    allow_equal_priors="no"))
        msg = str(err.value)
        assert "'seeds' must be a non-empty list of integers" in msg
        assert "'horizon' must be a positive integer" in msg
        assert "'allow_equal_priors' must be true or false, got 'no'" in msg
    # a finite model is filtered exactly, so a grid, a truth or an eta list
    # would be ignored: each is an error; thresholds feed mc's exceedances
    finite = json.loads(json.dumps(PRESETS["finite-oracle"]))
    finite["bound"]["thresholds"] = {"M1": 2.0}
    scenario_from_dict(finite)
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(dict(finite, horizon=-3, repr={"nodes": 64},
                                truth=PRESETS["misspec"]["truth"],
                                bound=dict(finite["bound"], etas=[0.1])))
    msg = str(err.value)
    assert "a finite model takes no ['repr', 'truth', 'bound.etas']" in msg
    assert "'horizon' must be a positive integer" in msg
    # a finite bound cannot sweep eta, and no bound runs on a single step;
    # both are reported with the other problems, for either model kind
    finite = json.loads(json.dumps(PRESETS["finite-oracle"]))
    finite.update(horizon=1, seeds=[1, 1], bound={"alpha": 0.3, "eta": "sweep"})
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(finite)
    msg = str(err.value)
    assert "bound.eta 'sweep' needs a continuous model" in msg
    assert "a bound needs 'horizon' >= 2" in msg
    assert "duplicates" in msg
    # a finite set table is config too: an empty bin, a state outside the model,
    # a repeated state (counted twice in |C|) and a fractional or bool state
    # (0.7 and 1.9 were once truncated to {0, 1}) are reported with the rest
    for table, problem in (([[], [0, 1]], "bin 0 has an empty state subset"),
                           ([[0, 1], [0, 2]], "bin 1 references states outside the model"),
                           ([[0, 0, 1], [0, 1]], "bin 0 lists a state more than once"),
                           ([[0.7, 1.9], [0, 1]],
                            "bin 0 lists a state that is not an integer: 0.7"),
                           ([[0, 1], [False, 1]],
                            "bin 1 lists a state that is not an integer: False")):
        bad = json.loads(json.dumps(PRESETS["finite-oracle"]))
        bad["finite"]["set_table"] = table
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(dict(bad, horizon=-3))
        msg = str(err.value)
        assert f"'finite': {problem}" in msg
        assert "'horizon' must be a positive integer" in msg
    with pytest.raises(ConfigError, match="a bound needs 'horizon' >= 2"):
        scenario_from_dict(dict(SMALL_SCENARIO, horizon=1))
    # priors are built when the config is read, not first inside run_scenario
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(dict(SMALL_SCENARIO, horizon=-3, prior2={"family": "cauchy"},
                                prior1={"family": "normal", "mean": 0.0}))
    msg = str(err.value)
    assert "'prior2': unknown prior family: 'cauchy'" in msg
    assert "'prior1' has a missing or malformed field: KeyError('std')" in msg
    assert "'horizon' must be a positive integer" in msg
    finite.update(prior1={"family": "normal", "mean": 0.0, "std": 1.0})
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(finite)
    msg = str(err.value)
    assert "'prior1': finite scenarios need finite priors" in msg
    assert "bound.eta 'sweep' needs a continuous model" in msg
    # the representation, the model and the truth are built when the config
    # is read too, and a grid needs four nodes for its TV rule
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(dict(SMALL_SCENARIO, repr={"nodez": 64, "nodes": 3},
                                model=dict(SMALL_SCENARIO["model"], f={"type": "bogus"})))
    msg = str(err.value)
    assert "'repr': unknown repr fields: ['nodez']" in msg
    assert "repr nodes must be an integer >= 4, got 3" in msg
    assert "'model': unknown map type: 'bogus'" in msg
    misspec = json.loads(json.dumps(PRESETS["misspec"]))
    misspec["truth"]["f"] = {"type": "bogus"}
    with pytest.raises(ConfigError, match="'truth': unknown map type: 'bogus'"):
        scenario_from_dict(misspec)
    # the top level and the bound block are checked field by field too: an
    # unknown field is an error, not a setting that is silently ignored
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(dict(SMALL_SCENARIO, horizn=5, horizon=-3,
                                bound={"alhpa": 0.3, "alpha": "0.5", "eta": True,
                                       "etas": [0.1, 2.0]}))
    msg = str(err.value)
    assert "unknown fields: ['horizn']" in msg
    assert "'horizon' must be a positive integer" in msg
    assert "unknown bound fields: ['alhpa']" in msg
    assert "bound.alpha must be a number in (0, 1), got '0.5'" in msg
    assert "bound.eta must be a number in (0, 1) or 'sweep', got True" in msg
    assert "bound.etas must be a non-empty list of numbers in (0, 1), got [0.1, 2.0]" in msg
    for bound in ({"eta": "sweep", "etas": []}, {"eta": "sweep", "etas": 0.1}):
        with pytest.raises(ConfigError, match="bound.etas must be a non-empty list"):
            scenario_from_dict(dict(SMALL_SCENARIO, bound=bound))
    # an eta list without a sweep would be ignored: a fixed eta (given or the
    # default) runs alone
    for bound in ({"eta": 0.1, "etas": [0.3]}, {"etas": [0.3]}):
        with pytest.raises(ConfigError, match="bound.etas is read only with bound.eta 'sweep'"):
            scenario_from_dict(dict(SMALL_SCENARIO, bound=bound))
    with pytest.raises(ConfigError, match="'bound' must be an object"):
        scenario_from_dict(dict(SMALL_SCENARIO, bound=[1]))
    # the bound needs the observation map's inverse, so only an invertible one
    # is accepted, reported with the other problems
    sine_h = dict(SMALL_SCENARIO["model"], kind="nonlinear",
                  h={"type": "sine_perturbed_affine", "c1": 2.0, "amp": 0.5})
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(dict(SMALL_SCENARIO, model=sine_h, horizon=-3, bound={}))
    msg = str(err.value)
    assert ("'model': the observation map must be invertible: 'identity' or 'affine'"
            in msg)
    assert "'horizon' must be a positive integer" in msg


def test_each_integrability_diagnostic_is_reported_under_its_premise():
    # the recorded-noise distance bounds the preimage distance only on data from
    # the filter model, the misspec distance only on data from a truth block
    for name, kept, dropped in (("rw-gauss", "stability_diag_mean", "misspec_diag_mean"),
                                ("misspec", "misspec_diag_mean", "stability_diag_mean")):
        cfg = scenario_from_dict(dict(preset_dict(name), horizon=5))
        rep = run_scenario(cfg)
        assert np.isfinite(rep.diagnostics[kept]), name
        assert dropped not in rep.diagnostics, name


def test_distance_mode_follows_the_truth_block():
    # with or without a truth block every bound takes the exact preimage
    # distance of the data: a distance mode is an unknown bound field, and no
    # run reports one
    for name in ("rw-gauss", "misspec"):
        raw = dict(preset_dict(name), horizon=5, seeds=[401])
        rep = run_scenario(scenario_from_dict(raw))
        assert "d_mode" not in rep.diagnostics and "d_mode" not in rep.bound
        assert "d_mode" not in rep.bound["final"]["parameters"]
        for mode in ("exact", "recorded", "misspec"):
            with pytest.raises(ConfigError, match=r"unknown bound fields: \['d_mode'\]"):
                scenario_from_dict(dict(raw, bound=dict(raw["bound"], d_mode=mode)))


def test_truth_keeps_its_own_lipschitz_constant():
    # the filter model's identity drift has constant 1; the truth's
    # sine-perturbed drift keeps its own (2), which the misspec distance uses
    misspec = preset_dict("misspec")
    cfg = scenario_from_dict(misspec)
    assert cfg.model.f_lip == 1.0
    assert cfg.truth.model.f_lip == 2.0


# values that stand in turn for every field of every preset
FUZZ_VALUES = (None, [], {}, 5, -1, 0.5, "x", True, [1], {"a": 1})


def _key_paths(node, prefix=()):
    """The path of every key of every object nested in ``node``, depth first."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))


def _at(d, path):
    for key in path:
        d = d[key]
    return d


def _outcome(d):
    """How a config ends: rejected on reading, or run to completion or a LabError."""
    try:
        cfg = scenario_from_dict(d)
    except ConfigError:
        return "config error"
    try:
        run_scenario(cfg)
    except LabError:
        return "lab error"
    return "ran"


def test_malformed_configs_fail_as_config_or_lab_errors():
    # a config that is not an object, or whose truth or finite block is not
    # one, used to escape as a bare AttributeError or TypeError
    with pytest.raises(ConfigError, match="it must be an object, got \\[1\\]"):
        scenario_from_dict([1])
    for name, key, value in (("misspec", "truth", 5), ("finite-oracle", "finite", [1]),
                             ("finite-oracle", "finite", {"Q": 5})):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            scenario_from_dict(dict(preset_dict(name), **{key: value}))
    # every field of every preset, replaced in turn by each value, at horizon 5
    outcomes, crashes = {}, []
    for name in PRESETS:
        base = dict(preset_dict(name), horizon=5)
        for path in _key_paths(base):
            for value in FUZZ_VALUES:
                d = json.loads(json.dumps(base))
                _at(d, path[:-1])[path[-1]] = value
                try:
                    outcome = _outcome(d)
                except Exception as exc:  # anything else is a crash
                    crashes.append((name, path, value, repr(exc)))
                else:
                    outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert crashes == []
    assert sum(outcomes.values()) == 1510
    assert outcomes["config error"] > 1000 and outcomes["ran"] > 100


def test_unknown_nested_fields_are_config_errors():
    # a misspelt field of any object of a config is an error, not a setting
    # silently ignored; so are the retired preimage constants b0 and b
    checked = 0
    for name in PRESETS:
        for path in _key_paths(PRESETS[name]):
            d = preset_dict(name)
            if isinstance(_at(d, path), dict):
                _at(d, path)["bogus"] = 1
                with pytest.raises(ConfigError, match=r"unknown [a-z_ ]*fields: \['bogus'\]"):
                    scenario_from_dict(d)
                checked += 1
    assert checked == 46
    d = preset_dict("rw-gauss")
    d["model"].update(b0=0.0, b=1.0)
    d["prior1"]["stdd"] = 1.0
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(d)
    msg = str(err.value)
    assert "'model': unknown model fields: ['b', 'b0']" in msg
    assert "'prior1': unknown normal prior fields: ['stdd']" in msg
    # mc reads bound.thresholds: unknown keys and non-numbers are rejected too
    for thresholds in (5, {"M9": 1.0}, {"M1": "x"}):
        with pytest.raises(ConfigError, match="bound.thresholds must map some of"):
            scenario_from_dict(dict(SMALL_SCENARIO, bound={"thresholds": thresholds}))


def test_equal_priors_need_explicit_opt_in():
    d = json.loads(json.dumps(SMALL_SCENARIO))
    d["prior2"] = dict(d["prior1"])
    with pytest.raises(ConfigError, match="allow_equal_priors"):
        scenario_from_dict(d)
    # only the JSON true opts in: a string such as "no" is rejected, not truthy
    d["allow_equal_priors"] = "no"
    with pytest.raises(ConfigError, match="'allow_equal_priors' must be true or false"):
        scenario_from_dict(d)
    d["allow_equal_priors"] = True
    cfg = scenario_from_dict(d)
    assert cfg.nu1 == cfg.nu2 == NormalPrior(-3.0, 1.0)


def test_config_hash_is_order_insensitive():
    a = {"x": 1, "y": [1, 2], "z": {"p": 0.5}}
    b = {"z": {"p": 0.5}, "y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "x": 2})


def test_repr_config_rejects_unknown_fields():
    assert repr_config({"nodes": 64}) == ReprConfig(nodes=64)
    assert repr_config({}) == ReprConfig()
    with pytest.raises(ConfigError, match="ndoes"):
        repr_config({"ndoes": 64})


def test_retired_repr_fields_are_rejected_together():
    # the window coverage, resampling and smoothing settings are module
    # constants now, and a continuous run always takes the paired grid runner
    retired = {"coverage_k": 8.0, "min_halfwidth": 1e-3, "ess_fraction": 0.5,
               "smooth_cells": 2.5, "smooth_halfwidth": 6, "paired": True,
               "kind": "grid", "particles": 2000}
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(dict(SMALL_SCENARIO, repr={"nodes": 64, **retired}))
    assert str(err.value).count("unknown repr fields") == 1
    assert f"unknown repr fields: {sorted(retired)}" in str(err.value)
    assert sorted(ReprConfig.__dataclass_fields__) == ["nodes", "particles"]


def test_repr_config_checks_the_particle_count():
    # no config runs a particle filter: a particle count in 'repr', valid or
    # not, is an unknown field, reported with every other problem
    for count in (2000, 1, 1.5, True, 0, -2, "100"):
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(dict(SMALL_SCENARIO, horizon=-3,
                                    repr={"nodes": 64, "particles": count}))
        msg = str(err.value)
        assert "'repr': unknown repr fields: ['particles']" in msg
        assert "'horizon' must be a positive integer" in msg
    with pytest.raises(ConfigError) as err:
        repr_config({"nodes": 2.0, "particles": 0})
    assert "unknown repr fields: ['particles']" in str(err.value)
    assert "repr nodes must be an integer >= 4, got 2.0" in str(err.value)


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


# prior and first likelihood do not overlap on either grid: the pair fails at
# initialization
DEGENERATE_SCENARIO = {
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
    "repr": {"nodes": 64},
}


def test_run_scenario_records_failures_instead_of_raising():
    # with eta "sweep" a failed run chooses no eta, so the envelope
    # diagnostics are skipped rather than evaluated at float("sweep")
    for bound in (None, {"eta": "sweep"}):
        cfg = scenario_from_dict(dict(DEGENERATE_SCENARIO, bound=bound))
        rep = run_scenario(cfg, seed=1)
        assert rep.failure is not None
        assert rep.failure["error"]
        assert rep.failure["message"]
        assert rep.bound is None
        assert "stability_diag_mean" not in rep.diagnostics
        # the tv series keeps its full length, padded with NaN
        assert rep.tv.tv.shape == (11,)
        assert np.isnan(rep.tv.tv).all()
        assert rep.fit is None


def _finite_h2_failure(**overrides):
    """finite-oracle with one state per bin and a small eta: on most streams
    an outside-set emission ratio exceeds eta, so the bound does not apply."""
    d = preset_dict("finite-oracle")
    d["finite"]["set_table"] = [[0], [1]]
    d["bound"]["eta"] = 0.05
    return scenario_from_dict({**d, **overrides})


def test_a_bound_failure_is_recorded_and_the_series_stays(tmp_path):
    cfg = _finite_h2_failure()
    rep = run_scenario(cfg, out_dir=tmp_path)
    assert rep.failure == {"error": "H2FailureError", "step": None,
                           "message": "eta 0.05 is below the achieved outside-set ratio 0.966651"}
    assert rep.bound is None and rep.tv.bound_log is None
    assert (tmp_path / "tv.csv").read_text().splitlines()[0] == "n,tv,log_tv"
    assert json.loads((tmp_path / "report.json").read_text())["failure"] == rep.failure
    # the series, its fit and its diagnostics are the bound-free run's
    free = run_scenario(replace(cfg, bound=None))
    np.testing.assert_array_equal(rep.tv.log_tv, free.tv.log_tv)
    assert np.isfinite(rep.tv.log_tv).all()
    assert rep.fit == free.fit and rep.fit is not None
    assert rep.diagnostics == free.diagnostics


def test_monte_carlo_lists_a_replicate_whose_bound_fails():
    # over 5 steps, seed 501's outside-set ratio (0.90) exceeds eta = 0.8;
    # seeds 502 and 504's (0.70, 0.69) do not
    cfg = _finite_h2_failure(horizon=5, seeds=[501, 502, 504], bound={"alpha": 0.3, "eta": 0.8})
    res = monte_carlo_expectation(cfg, replicates=3)
    assert [(f["seed"], f["error"], f["step"]) for f in res["failures"]] == [
        (501, "H2FailureError", None)]
    # seed 501's series is whole, so E[TV] and the slopes still take it
    tvs = [r.tv.tv for r in res["reports"]]
    np.testing.assert_allclose(res["mean_tv"], np.mean(tvs, axis=0), rtol=0, atol=1e-15)
    assert res["slopes"] == [r.fit.slope for r in res["reports"]]


def test_monte_carlo_returns_when_every_filter_fails(monkeypatch, tmp_path):
    real_simulate = scenarios._simulate

    def poisoned(*args):
        traj, states, ys = real_simulate(*args)
        ys = ys.copy()
        ys[-1] = np.inf  # zero likelihood on every node: the last step collapses
        return traj, states, ys

    monkeypatch.setattr(scenarios, "_simulate", poisoned)
    cfg = scenario_from_dict(dict(SMALL_SCENARIO, bound=None))
    res = monte_carlo_expectation(cfg, replicates=2, out_dir=tmp_path)
    assert [f["step"] for f in res["failures"]] == [12, 12]
    assert np.isnan(res["mean_tv"]).all() and np.isnan(res["stderr_tv"]).all()
    assert res["slopes"] == []
    assert len(json.loads((tmp_path / "report.json").read_text())["failures"]) == 2


def test_unpaired_route_rejects_a_degenerate_start():
    # the same init check as the paired route and filter_init
    cfg = scenario_from_dict(DEGENERATE_SCENARIO)
    traj = simulate_trajectory(cfg.model, cfg.nu1, n=3, seed=1)
    for run in (run_grid_pair, run_grid_pair_unpaired):
        with pytest.raises(DegenerateInitError):
            run(cfg.model, cfg.nu1, cfg.nu2, traj.observations, cfg.repr)


def test_run_scenario_keeps_the_steps_before_a_failure(monkeypatch):
    real_simulate = scenarios._simulate

    def poisoned(*args):
        traj, states, ys = real_simulate(*args)
        ys = ys.copy()
        ys[-1] = np.inf  # zero likelihood on every node: the last step collapses
        return traj, states, ys

    monkeypatch.setattr(scenarios, "_simulate", poisoned)
    cfg = scenario_from_dict(dict(SMALL_SCENARIO, bound=None))
    rep = run_scenario(cfg, seed=7)
    assert rep.failure["step"] == 12
    _, _, ys = real_simulate(cfg, 7)
    short = run_grid_pair(cfg.model, cfg.nu1, cfg.nu2, ys[:-1], cfg.repr)
    assert np.array_equal(rep.tv.tv[:12], short.tv)
    assert np.array_equal(rep.tv.log_tv[:12], short.log_tv)
    assert np.isnan(rep.tv.tv[12]) and np.isnan(rep.tv.log_tv[12])


def test_unpaired_route_keeps_the_prefix_it_computed():
    model = model_from_spec(SMALL_SCENARIO["model"])
    p1, p2 = NormalPrior(-3.0, 1.0), NormalPrior(3.0, 1.0)
    ys = simulate_trajectory(model, p1, n=12, seed=7).observations.copy()
    ys[-1] = np.inf  # zero likelihood on every node: the last step collapses
    rc = ReprConfig(nodes=128)
    with pytest.raises(FilterCollapseError) as err:
        run_grid_pair_unpaired(model, p1, p2, ys, rc)
    assert err.value.step == 12
    tv, log_tv, _ = run_grid_pair_unpaired(model, p1, p2, ys[:-1], rc)
    assert np.array_equal(err.value.tv_prefix[0], tv)
    assert np.array_equal(err.value.tv_prefix[1], log_tv)


def test_a_read_config_is_never_rebuilt(monkeypatch):
    # reading a config builds its model, truth, priors, grid, bound and LD sets once;
    # runs and mc replicates share them and build none of their own
    configs = [preset_config(name) for name in ("misspec", "finite-oracle")]
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("model_from_spec", "prior_from_spec", "gaussian_finite_model",
                 "finite_ld_construct", "repr_config", "bound_config"):
        monkeypatch.setattr(scenarios, name, counted(name, getattr(scenarios, name)))
    for cfg in configs:
        run_scenario(cfg, seed=cfg.seeds[0])
        monte_carlo_expectation(cfg, replicates=2)
    assert calls == []
    # the counters see the builds that reading a config makes
    for name in ("misspec", "finite-oracle"):
        preset_config(name)
    assert sorted(set(calls)) == ["bound_config", "finite_ld_construct",
                                  "gaussian_finite_model", "model_from_spec",
                                  "prior_from_spec", "repr_config"]


def test_finite_scenario_runs_exactly():
    cfg = preset_config("finite-oracle")
    rep = run_scenario(cfg, seed=501)
    assert rep.failure is None
    assert rep.tv.n.shape == (41,)
    assert rep.fit is not None
    assert rep.fit.slope < -0.05
    assert rep.bound is not None


def _finite_oracle_stream(cfg, seed):
    _, _, ys = scenarios._simulate(cfg, seed)
    return cfg.fmodel, cfg.ld, (cfg.nu1, cfg.nu2), ys


def test_finite_bound_log_is_the_per_prefix_bound():
    cfg = preset_config("finite-oracle")
    for seed in (501, 502):
        rep = run_scenario(cfg, seed=seed)
        fmodel, ld, (nu1, nu2), ys = _finite_oracle_stream(cfg, seed)
        assert np.all(np.isnan(rep.tv.bound_log[:2]))
        for k in range(2, len(ys)):
            bd = bounds.forgetting_bound_finite(fmodel, ld, nu1, nu2, ys[: k + 1],
                                                alpha=0.3, eta=0.5)
            assert rep.tv.bound_log[k] == bd.log_total, (seed, k)
        assert rep.bound["final"] == bd.to_json_dict()


def test_finite_run_assembles_one_bound(monkeypatch):
    calls = []
    real_bound = scenarios.forgetting_bound_finite

    def counted(*args, **kwargs):
        calls.append(len(args[4]))
        return real_bound(*args, **kwargs)

    monkeypatch.setattr(scenarios, "forgetting_bound_finite", counted)
    run_scenario(preset_config("finite-oracle"), seed=501)
    assert calls == [41]  # the full stream once; every prefix comes from it


def test_unpaired_route_confirms_paired_route():
    model = model_from_spec(SMALL_SCENARIO["model"])
    p1 = NormalPrior(-2.0, 1.0)
    p2 = NormalPrior(2.0, 1.0)
    traj = simulate_trajectory(model, p1, n=15, seed=4)
    rc = ReprConfig(nodes=512)
    paired = run_grid_pair(model, p1, p2, traj.observations, rc)
    tvs, log_tvs, info = run_grid_pair_unpaired(model, p1, p2, traj.observations, rc)
    mask = paired.tv > 1e-10  # above the direct route's collision floor
    rel = np.abs(paired.tv[mask] - tvs[mask]) / paired.tv[mask]
    assert rel.max() < 1e-9
    assert "final_window" in info


def _exact_log_tv(fmodel, nu1, nu2, ys):
    """log TV of the two filters at every step, in rational arithmetic on the
    float Q, emission rows and priors."""
    Q = [[Fraction(q) for q in row] for row in fmodel.Q.tolist()]
    ws = [[Fraction(p) for p in nu] for nu in (nu1, nu2)]
    out = []
    for k, y in enumerate(ys):
        g = [Fraction(v) for v in fmodel.emission_vector(y).tolist()]
        if k:
            ws = [[sum(wi * row[j] for wi, row in zip(w, Q)) for j in range(fmodel.m)]
                  for w in ws]
        ws = [[wj * gj for wj, gj in zip(w, g)] for w in ws]
        (a, b), (sa, sb) = ws, map(sum, ws)
        tv = sum(abs(x * sb - y * sa) for x, y in zip(a, b)) / (2 * sa * sb)
        # float(tv) rounds once; logs of its huge numerator and denominator would not
        out.append(math.log(float(tv)) if tv else -math.inf)
    return np.array(out)


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
    # the paired route reads a rank-one Q's image of D, a rounding residue of
    # sum(D), as a difference of 0, not as a TV e^-40 smaller at each step
    rows = [0.3, 0.3, 0.4]
    nu1, nu2 = np.array([0.8, 0.1, 0.1]), np.array([0.1, 0.1, 0.8])
    cases = [(fm, np.array([0.9, 0.1]), np.array([0.1, 0.9]))]
    cases.append((gaussian_finite_model(Q=np.array([rows] * 3), means=np.array([-1.0, 0.0, 1.0]),
                                        stds=np.ones(3)), nu1, nu2))
    for fmodel, p1, p2 in cases:
        _, ys = simulate_finite(fmodel, np.full(fmodel.m, 1.0 / fmodel.m), n=10, seed=9)
        res = run_finite_pair(fmodel, p1, p2, ys)
        assert res.tv[0] > 0.3
        assert np.all(res.log_tv[1:] == -np.inf) and np.all(res.tv[1:] == 0.0)
    # a 1e-6 perturbation contracts D about 1e-6 a step, a cancellation the
    # update resolves: its log TV follows the exact rational one
    fmodel = gaussian_finite_model(
        Q=np.array([[0.3 + 1e-6, 0.3 - 1e-6, 0.4], rows, rows]),
        means=np.array([-1.0, 0.0, 1.0]), stds=np.ones(3))
    _, ys = simulate_finite(fmodel, np.full(3, 1.0 / 3.0), n=10, seed=9)
    res = run_finite_pair(fmodel, nu1, nu2, ys)
    exact = _exact_log_tv(fmodel, nu1, nu2, ys)
    assert exact[-1] < -100.0
    assert np.max(np.abs(res.log_tv - exact)) <= 1e-9


@pytest.mark.parametrize("seed", [501, 502, 503])
def test_finite_log_tv_is_exact_at_every_step(seed):
    # the paired route against rational arithmetic on the same float inputs,
    # 200 steps deep: on seed 501 two normalized recursions cancel to a TV of
    # 0 from step 79, where the exact log TV is -44.8
    cfg = scenario_from_dict(dict(preset_dict("finite-oracle"), horizon=200, bound=None))
    rep = run_scenario(cfg, seed=seed)
    _, _, ys = scenarios._simulate(cfg, seed)
    exact = _exact_log_tv(cfg.fmodel, cfg.nu1, cfg.nu2, ys)
    assert exact[-1] < -80.0
    assert np.max(np.abs(rep.tv.log_tv - exact)) <= 1e-12


def test_unpaired_recursions_confirm_the_finite_paired_route():
    cfg = preset_config("finite-oracle")
    worst = 0.0
    for seed in cfg.seeds:
        rep = run_scenario(replace(cfg, bound=None), seed=seed)
        _, _, ys = scenarios._simulate(cfg, seed)
        f1, _ = exact_filter_finite(cfg.fmodel, cfg.nu1, ys)
        f2, _ = exact_filter_finite(cfg.fmodel, cfg.nu2, ys)
        tvs = np.array([tv_half_l1(a, b) for a, b in zip(f1, f2)])
        mask = tvs > 1e-6  # far above the recursions' cancellation floor
        assert mask[:10].all()
        worst = max(worst, float(np.max(np.abs(rep.tv.tv[mask] - tvs[mask]) / tvs[mask])))
    assert worst < 1e-9


def test_a_finite_filter_failure_is_recorded():
    # emission stds of 0.01 around -1 and 1: the stream starts in prior1's
    # state 0, and prior2's state 1 has no emission mass there in float64
    d = preset_dict("finite-oracle")
    d["finite"]["stds"] = [0.01, 0.01]
    d.pop("bound")
    cfg = scenario_from_dict(dict(d, prior1={"family": "finite", "probs": [1.0, 0.0]},
                                  prior2={"family": "finite", "probs": [0.0, 1.0]},
                                  seeds=[501, 502, 503]))
    rep = run_scenario(cfg)
    assert rep.failure == {"error": "DegenerateInitError", "step": None,
                           "message": "prior carries no mass under the first emission"}
    assert np.isnan(rep.tv.tv).all() and rep.fit is None
    res = monte_carlo_expectation(cfg, replicates=3)
    assert [(f["seed"], f["error"]) for f in res["failures"]] == [
        (seed, "DegenerateInitError") for seed in (501, 502, 503)]
    assert np.isnan(res["mean_tv"]).all() and res["slopes"] == []


def test_particle_route_tracks_grid_route():
    model = model_from_spec(SMALL_SCENARIO["model"])
    cfg = ReprConfig(particles=30_000)
    traj = simulate_trajectory(model, NormalPrior(0.0, 1.0), n=25, seed=3)
    tvs = compare_particle_grid(model, NormalPrior(0.0, 1.0),
                                traj.observations, cfg, seed=3)
    assert len(tvs) == 26
    assert max(tvs) < 0.06


def test_monte_carlo_mean_is_exact_average(tmp_path):
    # the API reads the exceedance thresholds from the config, as `ldlab mc` does
    d = json.loads(json.dumps(SMALL_SCENARIO))
    thresholds = {"M1": 2.0, "M2": 0.0, "M3": 2.0, "delta": 0.01}
    d["bound"]["thresholds"] = thresholds
    cfg = scenario_from_dict(d)
    out = tmp_path / "mc"
    res = monte_carlo_expectation(cfg, replicates=3, out_dir=out)
    per_run = np.stack([r.tv.tv for r in res["reports"]], axis=0)
    assert np.max(np.abs(res["mean_tv"] - per_run.mean(axis=0))) <= 1e-12
    assert res["seeds"] == [7, 8, 9]
    assert len(res["slopes"]) == 3
    ex = res["exceedance"]
    assert ex is not None and ex["thresholds"] == thresholds
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


def test_eta_sweep_scenario_reports_best(monkeypatch):
    d = json.loads(json.dumps(SMALL_SCENARIO))
    d["bound"] = {"alpha": 0.5, "eta": "sweep", "etas": [0.1, 0.3]}
    cfg = scenario_from_dict(d)
    calls = []
    real_bound = bounds.forgetting_bound

    def counted(*args, **kwargs):
        calls.append(args[5])
        return real_bound(*args, **kwargs)

    monkeypatch.setattr(bounds, "forgetting_bound", counted)
    rep = run_scenario(cfg, seed=7)
    # one full bound per sweep point; the best one's prefixes reuse it
    assert calls == [0.1, 0.3]
    assert rep.bound is not None
    sweep = rep.bound.get("sweep")
    assert sweep is not None
    assert sweep["etas"] == [0.1, 0.3]
    best_total = rep.bound["final"]["log_total"]
    assert best_total == min(r["log_total"] for r in sweep["results"])

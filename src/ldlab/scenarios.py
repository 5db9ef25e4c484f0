"""Declarative experiment scenarios: simulate, filter pairs, TV series, bounds.

A scenario is a plain dict (JSON-compatible). Reports embed the full config
plus a sha256 hash of its canonical serialization, and all CSV output is
formatted with %.17g so reruns with the same config are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._version import __version__
# forgetting_bound is not called here; it stays importable from this module,
# where benchmarks/tracer.py wraps it
from .bounds import bound_series, eta_sweep, forgetting_bound, forgetting_bound_finite  # noqa: F401
from .doeblin import (
    delta_for_eta,
    finite_ld_construct,
    misspec_diag_series,
    stability_diag_series,
)
from .dists import prior_from_spec
from .errors import ConfigError, LabError
from .filtering import (
    FilterState,
    ReprConfig,
    TvSeries,
    decay_rate,
    exact_filter_finite,
    filter_init,
    filter_step,
    grid_adapt,
    run_grid_pair,
    trap_weights,
    tv_distance,
    tv_half_l1,
    _prior_log_on_grid,
    _smooth_taps,
)
from .models import (
    gaussian_finite_model,
    make_misspecified_truth,
    simulate_finite,
    simulate_misspecified,
    simulate_trajectory,
)
from .modelspec import model_from_spec


# ---------------------------------------------------------------------------
# scenario configuration


@dataclass
class ScenarioConfig:
    name: str
    model: Optional[dict]
    finite: Optional[dict]
    truth: Optional[dict]
    prior1: dict
    prior2: dict
    horizon: int
    seeds: list
    repr: dict
    bound: Optional[dict]
    allow_equal_priors: bool = False
    raw: dict = field(default_factory=dict)

    @property
    def is_finite(self):
        return self.finite is not None


def scenario_from_dict(d):
    """Validate a scenario dict field by field; report every problem at once."""
    errors = []
    name = d.get("name", "custom")
    model = d.get("model")
    finite = d.get("finite")
    if (model is None) == (finite is None):
        errors.append("exactly one of 'model' or 'finite' is required")
    truth = d.get("truth")
    if truth is not None:
        for key in ("f_gap", "h_gap"):
            if key not in truth:
                errors.append(f"truth spec needs '{key}' (sup-norm gap to the filter model)")
    prior1 = d.get("prior1")
    prior2 = d.get("prior2")
    if prior1 is None:
        errors.append("'prior1' is required")
    if prior2 is None:
        errors.append("'prior2' is required")
    horizon = d.get("horizon", 100)
    if not isinstance(horizon, int) or horizon < 1:
        errors.append("'horizon' must be a positive integer")
    seeds = d.get("seeds", [0])
    if not seeds or not all(isinstance(s, int) for s in seeds):
        errors.append("'seeds' must be a non-empty list of integers")
    elif len(set(seeds)) != len(seeds):
        errors.append("'seeds' contains duplicates")
    allow_equal = bool(d.get("allow_equal_priors", False))
    if prior1 is not None and prior2 is not None and prior1 == prior2 and not allow_equal:
        errors.append("identical priors need allow_equal_priors: true")
    repr_cfg = d.get("repr", {})
    bound = d.get("bound")
    if bound is not None:
        alpha = bound.get("alpha", 0.5)
        if not (0.0 < alpha < 1.0):
            errors.append("bound.alpha must lie in (0, 1)")
        eta = bound.get("eta", 0.1)
        if eta != "sweep" and not (isinstance(eta, (int, float)) and 0.0 < eta < 1.0):
            errors.append("bound.eta must lie in (0, 1) or be 'sweep'")
    if errors:
        raise ConfigError("invalid scenario config: " + "; ".join(errors))
    return ScenarioConfig(
        name=name, model=model, finite=finite, truth=truth,
        prior1=prior1, prior2=prior2, horizon=int(horizon), seeds=list(seeds),
        repr=repr_cfg, bound=bound, allow_equal_priors=allow_equal, raw=dict(d),
    )


def config_hash(raw):
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def repr_config(d):
    base = ReprConfig()
    allowed = {f for f in base.__dataclass_fields__}
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown repr fields: {sorted(unknown)}")
    return ReprConfig(**{**{f: getattr(base, f) for f in allowed}, **d})


# ---------------------------------------------------------------------------
# built-in presets


def _gauss_rw_model(f_spec):
    return {
        "kind": "linear_gaussian" if f_spec["type"] in ("identity", "affine") else "nonlinear",
        "f": f_spec,
        "h": {"type": "identity"},
        "state_noise": {"kind": "iid", "density": {"family": "gaussian", "sigma": 1.0}},
        "obs_noise": {"family": "gaussian", "sigma": 1.0},
    }


PRESETS = {
    "rw-gauss": {
        "name": "rw-gauss",
        "model": _gauss_rw_model({"type": "identity"}),
        "prior1": {"family": "normal", "mean": -5.0, "std": 1.0},
        "prior2": {"family": "normal", "mean": 5.0, "std": 1.0},
        "horizon": 100,
        "seeds": list(range(101, 121)),
        "repr": {"kind": "grid", "nodes": 512, "paired": True},
        "bound": {"alpha": 0.5, "eta": 0.1, "d_mode": "recorded"},
    },
    "ar-unstable": {
        "name": "ar-unstable",
        "model": _gauss_rw_model({"type": "affine", "c0": 0.0, "c1": 1.05}),
        "prior1": {"family": "normal", "mean": -5.0, "std": 1.0},
        "prior2": {"family": "normal", "mean": 5.0, "std": 1.0},
        "horizon": 100,
        "seeds": list(range(201, 221)),
        "repr": {"kind": "grid", "nodes": 512, "paired": True},
        "bound": {"alpha": 0.5, "eta": 0.1, "d_mode": "recorded"},
    },
    "dep-noise": {
        "name": "dep-noise",
        "model": {
            "kind": "dependent_noise",
            "f": {"type": "identity"},
            "h": {"type": "identity"},
            "state_noise": {"kind": "scaled_t", "df": 4.0, "s0": 1.0, "s1": 0.3},
            "obs_noise": {"family": "gaussian", "sigma": 1.0},
        },
        "prior1": {"family": "normal", "mean": -5.0, "std": 1.0},
        "prior2": {"family": "normal", "mean": 5.0, "std": 1.0},
        "horizon": 80,
        "seeds": list(range(301, 321)),
        "repr": {"kind": "grid", "nodes": 512, "paired": True},
        "bound": {"alpha": 0.5, "eta": 0.1, "d_mode": "recorded"},
    },
    "misspec": {
        "name": "misspec",
        "model": _gauss_rw_model({"type": "identity"}),
        "truth": {
            "f": {"type": "sine_perturbed_affine", "c0": 0.0, "c1": 1.0, "amp": 1.0, "freq": 1.0},
            "h": {"type": "identity"},
            "f_gap": 1.0,
            "h_gap": 0.0,
        },
        "prior1": {"family": "normal", "mean": -5.0, "std": 1.0},
        "prior2": {"family": "normal", "mean": 5.0, "std": 1.0},
        "horizon": 100,
        "seeds": list(range(401, 421)),
        "repr": {"kind": "grid", "nodes": 512, "paired": True},
        "bound": {"alpha": 0.5, "eta": 0.1, "d_mode": "misspec"},
    },
    "finite-oracle": {
        "name": "finite-oracle",
        "finite": {
            "Q": [[0.85, 0.15], [0.15, 0.85]],
            "means": [-1.0, 1.0],
            "stds": [2.5, 2.5],
            "set_table": [[0, 1], [0, 1]],
            "bin_threshold": 0.0,
        },
        "prior1": {"family": "finite", "probs": [0.9, 0.1]},
        "prior2": {"family": "finite", "probs": [0.1, 0.9]},
        "horizon": 40,
        "seeds": list(range(501, 521)),
        "repr": {"kind": "finite"},
        "bound": {"alpha": 0.3, "eta": 0.5},
    },
}


def preset_config(name):
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return scenario_from_dict(json.loads(json.dumps(PRESETS[name])))


# ---------------------------------------------------------------------------
# model assembly from config


def build_model(config):
    return model_from_spec(config.model)


def build_truth(config, model):
    if config.truth is None:
        return None
    t = config.truth
    true_spec = dict(config.model)
    true_spec["kind"] = "nonlinear"
    true_spec["f"] = t.get("f", config.model.get("f"))
    true_spec["h"] = t.get("h", config.model.get("h"))
    if "state_noise" in t:
        true_spec["state_noise"] = t["state_noise"]
    if "obs_noise" in t:
        true_spec["obs_noise"] = t["obs_noise"]
    true_model = model_from_spec(true_spec)
    return make_misspecified_truth(model, true_model, float(t["f_gap"]), float(t["h_gap"]))


def build_finite(config):
    f = config.finite
    Q = np.asarray(f["Q"], dtype=float)
    fmodel = gaussian_finite_model(Q, f["means"], f["stds"])
    thr = float(f.get("bin_threshold", 0.0))
    obs_to_bin = _threshold_binner(thr, len(f["set_table"]))
    ld = finite_ld_construct(fmodel, f["set_table"], obs_to_bin=obs_to_bin)
    return fmodel, ld


def _threshold_binner(thr, n_bins):
    if n_bins != 2:
        raise ConfigError("threshold binning supports exactly 2 bins")

    def obs_to_bin(y):
        return 0 if y <= thr else 1

    return obs_to_bin


def _finite_prior(spec, m):
    if spec.get("family") != "finite":
        raise ConfigError("finite scenarios need finite priors: {family: finite, probs: [...]}")
    p = np.asarray(spec["probs"], dtype=float)
    if p.shape != (m,) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
        raise ConfigError("finite prior must be a length-m probability vector")
    return p


# ---------------------------------------------------------------------------
# filter-pair runners


def run_grid_pair_unpaired(model, prior1, prior2, ys, cfg):
    """Two independent grid recursions on a shared moving window.

    Direct route used to cross-check the paired difference propagation; its
    TV values bottom out at the float64 collision floor, so it is only
    meaningful over short horizons or large separations.
    """
    from .filtering import (
        _normalize_grid,
        _predictive_window,
        grid_kernel,
        grid_moments,
        noise_tail_radius,
    )
    from .models import loglik as _loglik

    ys = np.asarray(ys, dtype=float)
    k = cfg.coverage_k
    lo1, hi1 = prior1.window(k)
    lo2, hi2 = prior2.window(k)
    nodes = np.linspace(min(lo1, lo2), max(hi1, hi2), cfg.nodes)
    r_noise = noise_tail_radius(model.state_noise)

    def init_on(prior):
        log_w = _prior_log_on_grid(prior, nodes) + _loglik(model, nodes, ys[0])
        return FilterState(kind="grid", step=0, nodes=nodes,
                           log_weights=_normalize_grid(log_w, trap_weights(nodes), 0))

    s1, s2 = init_on(prior1), init_on(prior2)
    tvs = np.empty(len(ys))
    tvs[0] = tv_distance(s1, s2)
    try:
        for step in range(1, len(ys)):
            # shared target window covering both predictives, then one shared
            # rectangular kernel from the current window into it
            tgt_lo, tgt_hi = _predictive_window(model, [grid_moments(s1), grid_moments(s2)],
                                                k, r_noise, cfg.min_halfwidth)
            tgt = np.linspace(tgt_lo, tgt_hi, cfg.nodes)
            kern = grid_kernel(model, nodes, tgt)
            tau = trap_weights(nodes)
            tau_t = trap_weights(tgt)
            glog = _loglik(model, tgt, ys[step])

            def advance(state):
                w = np.exp(state.log_weights - state.log_weights.max())
                pred = kern @ (tau * w)
                with np.errstate(divide="ignore"):
                    log_w = np.log(pred) + glog
                return FilterState(kind="grid", step=step, nodes=tgt,
                                   log_weights=_normalize_grid(log_w, tau_t, step))

            s1, s2 = advance(s1), advance(s2)
            nodes = tgt
            tvs[step] = tv_distance(s1, s2)
    except LabError as exc:
        with np.errstate(divide="ignore"):
            exc.tv_prefix = (tvs[:step], np.log(tvs[:step]))
        raise
    with np.errstate(divide="ignore"):
        log_tvs = np.log(tvs)
    return tvs, log_tvs, {"final_window": [float(nodes[0]), float(nodes[-1])]}


def run_particle_pair(model, prior1, prior2, ys, cfg, seed, shared_streams):
    """Two bootstrap particle filters; equal priors with shared streams match exactly."""
    ys = np.asarray(ys, dtype=float)
    stream2 = 301 if shared_streams else 302
    rng1 = np.random.default_rng([int(seed), 301])
    rng2 = np.random.default_rng([int(seed), stream2])
    s1 = filter_init(model, prior1, ys[0], cfg, rng1)
    s2 = filter_init(model, prior2, ys[0], cfg, rng2)
    tvs = np.empty(len(ys))
    ess_min = math.inf
    tvs[0] = _particle_pair_tv(s1, s2, cfg)
    for step in range(1, len(ys)):
        s1 = filter_step(model, s1, ys[step], cfg=cfg, rng=rng1)
        s2 = filter_step(model, s2, ys[step], cfg=cfg, rng=rng2)
        ess_min = min(ess_min, s1.ess, s2.ess)
        tvs[step] = _particle_pair_tv(s1, s2, cfg)
    with np.errstate(divide="ignore"):
        log_tvs = np.log(tvs)
    return tvs, log_tvs, {"ess_min": ess_min}


def _particle_pair_tv(s1, s2, cfg):
    if np.array_equal(s1.positions, s2.positions) and np.array_equal(s1.log_weights, s2.log_weights):
        return 0.0
    lo = float(min(s1.positions.min(), s2.positions.min()))
    hi = float(max(s1.positions.max(), s2.positions.max()))
    pad = max(1e-6, 1e-3 * (hi - lo))
    nodes = np.linspace(lo - pad, hi + pad, cfg.nodes)
    d1 = _deposit_smooth(s1, nodes, cfg)
    d2 = _deposit_smooth(s2, nodes, cfg)
    tau = trap_weights(nodes)
    return 0.5 * float(np.sum(np.abs(d1 - d2) * tau))


def _deposit_smooth(state, nodes, cfg):
    from scipy.special import logsumexp

    n = len(nodes)
    dx = nodes[1] - nodes[0]
    w = np.exp(state.log_weights - logsumexp(state.log_weights))
    pos = np.clip((state.positions - nodes[0]) / dx, 0.0, n - 1.0)
    i0 = np.floor(pos).astype(int)
    frac = pos - i0
    i1 = np.minimum(i0 + 1, n - 1)
    mass = np.bincount(i0, weights=w * (1.0 - frac), minlength=n)
    mass += np.bincount(i1, weights=w * frac, minlength=n)
    mass = np.convolve(mass, _smooth_taps(cfg.smooth_halfwidth, cfg.smooth_cells), mode="same")
    tau = trap_weights(nodes)
    dens = mass / tau
    return dens / (dens * tau).sum()


def compare_particle_grid(model, prior, ys, cfg, seed):
    """Per-step TV between a particle filter and a grid filter, same prior."""
    ys = np.asarray(ys, dtype=float)
    grid_cfg = ReprConfig(kind="grid", nodes=cfg.nodes, coverage_k=cfg.coverage_k,
                          smooth_cells=cfg.smooth_cells, smooth_halfwidth=cfg.smooth_halfwidth)
    rng = np.random.default_rng([int(seed), 777])
    grid = filter_init(model, prior, ys[0], grid_cfg)
    part = filter_init(model, prior, ys[0], cfg, rng)
    tvs = np.empty(len(ys))
    tvs[0] = tv_distance(part, grid, cfg.smooth_cells, cfg.smooth_halfwidth)
    for step in range(1, len(ys)):
        grid = grid_adapt(filter_step(model, grid, ys[step]))
        part = filter_step(model, part, ys[step], cfg=cfg, rng=rng)
        tvs[step] = tv_distance(part, grid, cfg.smooth_cells, cfg.smooth_halfwidth)
    return tvs


# ---------------------------------------------------------------------------
# run reports


@dataclass
class RunReport:
    tv: TvSeries
    fit: Optional[object]
    bound: Optional[dict]
    diagnostics: dict
    config: dict
    config_hash: str
    seed: int
    version: str = __version__
    failure: Optional[dict] = None

    def to_json_dict(self):
        fit = None
        if self.fit is not None:
            fit = {"slope": self.fit.slope, "intercept": self.fit.intercept,
                   "r_squared": self.fit.r_squared, "n_points": self.fit.n_points,
                   "n_clipped": self.fit.n_clipped}
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "version": self.version,
            "fit": fit,
            "bound": self.bound,
            "diagnostics": self.diagnostics,
            "failure": self.failure,
            "tv_summary": {
                "n_max": int(self.tv.n[-1]),
                "tv_first": float(self.tv.tv[0]),
                "tv_last": float(self.tv.tv[-1]),
                "log_tv_last": float(self.tv.log_tv[-1]),
            },
        }


def _simulate(config, model, truth, fmodel, seed):
    """Returns (traj_or_None, observations); traj is None for finite models."""
    if config.is_finite:
        nu_truth = _finite_prior(config.prior1, fmodel.m)
        _, ys = simulate_finite(fmodel, nu_truth, config.horizon, seed)
        return None, ys
    init = prior_from_spec(config.prior1)
    if truth is not None:
        traj = simulate_misspecified(truth, init, config.horizon, seed)
    else:
        traj = simulate_trajectory(model, init, config.horizon, seed)
    return traj, traj.observations


def run_scenario(config, seed=None, out_dir=None):
    """Simulate one observation stream, run the filter pair, fit the decay.

    The truth's initial state is drawn from prior1, so the first filter is
    well-initialized and the second carries the full prior mismatch.
    """
    if isinstance(config, dict):
        config = scenario_from_dict(config)
    seed = config.seeds[0] if seed is None else int(seed)
    h = config_hash(config.raw)
    cfg = repr_config(config.repr)
    diagnostics = {}
    failure = None

    if config.is_finite:
        fmodel, ld = build_finite(config)
        model = truth = None
        traj, ys = _simulate(config, None, None, fmodel, seed)
        nu1 = _finite_prior(config.prior1, fmodel.m)
        nu2 = _finite_prior(config.prior2, fmodel.m)
        filt1, _ = exact_filter_finite(fmodel, nu1, ys)
        filt2, _ = exact_filter_finite(fmodel, nu2, ys)
        tvs = np.array([tv_half_l1(filt1[k], filt2[k]) for k in range(len(ys))])
        with np.errstate(divide="ignore"):
            log_tvs = np.log(tvs)
    else:
        model = build_model(config)
        truth = build_truth(config, model)
        fmodel = ld = None
        traj, ys = _simulate(config, model, truth, None, seed)
        prior1 = prior_from_spec(config.prior1)
        prior2 = prior_from_spec(config.prior2)
        try:
            if cfg.kind == "grid" and cfg.paired:
                res = run_grid_pair(model, prior1, prior2, ys, cfg)
                tvs, log_tvs = res.tv, res.log_tv
                diagnostics.update(res.diagnostics)
            elif cfg.kind == "grid":
                tvs, log_tvs, diag = run_grid_pair_unpaired(model, prior1, prior2, ys, cfg)
                diagnostics.update(diag)
            elif cfg.kind == "particles":
                shared = config.prior1 == config.prior2
                tvs, log_tvs, diag = run_particle_pair(model, prior1, prior2,
                                                       ys, cfg, seed, shared)
                diagnostics.update(diag)
            else:
                raise ConfigError(f"unknown representation kind {cfg.kind!r}")
        except LabError as exc:
            failure = {"error": type(exc).__name__, "message": str(exc),
                       "step": getattr(exc, "step", None)}
            # steps the runner completed keep their values; the rest are NaN
            tvs = np.full(len(ys), np.nan)
            log_tvs = np.full(len(ys), np.nan)
            if exc.tv_prefix is not None:
                done = len(exc.tv_prefix[0])
                tvs[:done], log_tvs[:done] = exc.tv_prefix

    ns = np.arange(len(ys))
    bound_log = None
    bound_info = None
    if config.bound is not None and failure is None:
        bound_log, bound_info = _evaluate_bound(config, model, truth, fmodel, ld,
                                                traj, ys, ns)
        if bound_info is not None:
            diagnostics["h2_delta"] = bound_info.get("delta")
            diagnostics["d_mode"] = bound_info.get("d_mode")

    if model is not None and config.bound is not None and traj is not None:
        eta = config.bound.get("eta", 0.1)
        if eta == "sweep" and bound_info is not None:
            eta = bound_info["eta"]
        delta = delta_for_eta(model, float(eta))
        diagnostics["stability_diag_mean"] = float(np.mean(stability_diag_series(model, traj, delta)))
        if truth is not None:
            diagnostics["misspec_diag_mean"] = float(
                np.mean(misspec_diag_series(model, truth, traj, delta)))

    meta = {
        "scenario": config.name,
        "seed": seed,
        "config_hash": h,
        "version": __version__,
        "tv_convention": "half L1 distance of densities (sup over sets)",
        "repr": cfg.spec(),
    }
    series = TvSeries(n=ns, tv=tvs, log_tv=log_tvs, bound_log=bound_log, meta=meta)

    fit = None
    if failure is None:
        n_max = int(ns[-1])
        try:
            fit = decay_rate(series, fit_lo=n_max / 5.0, fit_hi=n_max)
        except LabError as exc:
            diagnostics["fit_skipped"] = str(exc)

    report = RunReport(tv=series, fit=fit, bound=bound_info, diagnostics=diagnostics,
                       config=config.raw, config_hash=h, seed=seed, failure=failure)
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def _evaluate_bound(config, model, truth, fmodel, ld, traj, ys, ns):
    bc = config.bound
    alpha = float(bc.get("alpha", 0.5))
    eta = bc.get("eta", 0.1)
    bound_log = np.full(len(ns), np.nan)
    if config.is_finite:
        nu1 = _finite_prior(config.prior1, fmodel.m)
        nu2 = _finite_prior(config.prior2, fmodel.m)
        eta_val = float(eta) if eta != "sweep" else 0.5
        last = None
        for k in range(2, len(ys)):
            bd = forgetting_bound_finite(fmodel, ld, nu1, nu2, ys[: k + 1], alpha, eta_val)
            bound_log[k] = bd.log_total
            last = bd
        info = {"eta": eta_val, "alpha": alpha, "delta": None, "d_mode": "finite-exact",
                "final": last.to_json_dict() if last else None}
        return bound_log, info
    prior1 = prior_from_spec(config.prior1)
    prior2 = prior_from_spec(config.prior2)
    d_mode = bc.get("d_mode", "recorded")
    kwargs = dict(d_mode=d_mode, traj=traj, truth=truth)
    sweep_info = None
    if eta == "sweep":
        sweep = eta_sweep(model, prior1, prior2, ys, alpha, etas=bc.get("etas"),
                          **kwargs)
        eta_val = float(sweep["best"].parameters["eta"])
        sweep_info = {
            "etas": [float(e) for e in sweep["etas"]],
            "results": [{"eta": b.parameters["eta"], "log_total": b.log_total,
                         "headline": b.headline} for b in sweep["results"]],
        }
    else:
        eta_val = float(eta)
    series = bound_series(model, prior1, prior2, ys, alpha, eta_val, **kwargs)
    bound_log[series["n"]] = series["log_total"]
    full = series["full"]
    info = {"eta": eta_val, "alpha": alpha, "delta": full.parameters["delta"],
            "d_mode": full.parameters["d_mode"], "final": full.to_json_dict(),
            "sweep": sweep_info}
    return bound_log, info


# ---------------------------------------------------------------------------
# output writers


def write_plotdata(dir_path, name, x, y):
    os.makedirs(dir_path, exist_ok=True)
    path = os.path.join(dir_path, name)
    with open(path, "w") as fh:
        for xi, yi in zip(x, y):
            fh.write(f"{xi:.17g} {yi:.17g}\n")
    return path


def write_report(report, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    report.tv.to_csv(os.path.join(out_dir, "tv.csv"))
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    plot_dir = os.path.join(out_dir, "plotdata")
    write_plotdata(plot_dir, "tv.dat", report.tv.n, report.tv.tv)
    write_plotdata(plot_dir, "log_tv.dat", report.tv.n, report.tv.log_tv)
    if report.tv.bound_log is not None:
        write_plotdata(plot_dir, "bound_log.dat", report.tv.n, report.tv.bound_log)
    return out_dir


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


# ---------------------------------------------------------------------------
# Monte Carlo expectation curves


def monte_carlo_expectation(config, replicates, thresholds=None, out_dir=None):
    """Mean and standard error of the TV curve over independent seeds.

    Also reports empirical exceedance frequencies for the bound-ingredient
    tail events at the supplied thresholds (keys M1, M2, M3, delta, and
    optionally M0), computed at the full horizon from each replicate's bound
    breakdown when a bound config is present.
    """
    if isinstance(config, dict):
        config = scenario_from_dict(config)
    if replicates < 2:
        raise ConfigError("need at least 2 replicates")
    seeds = list(config.seeds)
    if len(seeds) < replicates:
        seeds = seeds + [max(seeds) + 1 + i for i in range(replicates - len(seeds))]
    seeds = seeds[:replicates]
    if len(set(seeds)) != len(seeds):
        raise ConfigError("replicate seeds must be unique")

    # replicates run in parallel; the reduction below walks them in seed
    # order, so the assembled report is deterministic either way
    workers = min(len(seeds), max(1, os.cpu_count() or 1), 8)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(lambda s: run_scenario(config, seed=s), seeds))
    else:
        reports = [run_scenario(config, seed=s) for s in seeds]
    failures = [{"seed": s, **r.failure}
                for s, r in zip(seeds, reports) if r.failure is not None]
    ok = [r for r in reports if r.failure is None]
    if not ok:
        raise ConfigError("every replicate failed; see individual failures")
    tv_mat = np.stack([r.tv.tv for r in ok], axis=0)
    mean_tv = tv_mat.mean(axis=0)
    stderr = tv_mat.std(axis=0, ddof=1) / math.sqrt(len(ok)) if len(ok) > 1 else np.zeros_like(mean_tv)
    ns = ok[0].tv.n

    exceedance = None
    if config.bound is not None and thresholds:
        exceedance = _exceedance_frequencies(ok, thresholds)

    slopes = [r.fit.slope for r in ok if r.fit is not None]
    result = {
        "n": ns,
        "mean_tv": mean_tv,
        "stderr_tv": stderr,
        "replicates": replicates,
        "seeds": seeds,
        "failures": failures,
        "exceedance": exceedance,
        "slopes": slopes,
        "config_hash": ok[0].config_hash,
        "reports": reports,
    }
    if out_dir is not None:
        _write_mc(result, config, out_dir)
    return result


def _exceedance_frequencies(reports, thresholds):
    events = {key: [] for key in ("r1", "r2", "r3", "r4", "r0_nu", "r0_nu_prime")}
    for rep in reports:
        if rep.bound is None or rep.bound.get("final") is None:
            continue
        comp = rep.bound["final"]["components"]
        n = rep.bound["final"]["parameters"]["n"]
        log_lambda = rep.bound["final"]["log_lambda"]
        if "M1" in thresholds:
            events["r1"].append(comp["sum_log_eps_minus"] <= -thresholds["M1"] * n)
        if "M2" in thresholds:
            events["r2"].append(comp["sum_log_upsilon"] >= thresholds["M2"] * n)
        if "M3" in thresholds:
            events["r3"].append(comp["sum_log_psi"] <= -thresholds["M3"] * n)
        if "delta" in thresholds:
            events["r4"].append(log_lambda >= -thresholds["delta"] * n)
        if "M0" in thresholds:
            events["r0_nu"].append(comp["log_phi_nu"] <= -thresholds["M0"] * n)
            events["r0_nu_prime"].append(comp["log_phi_nu_prime"] <= -thresholds["M0"] * n)
    freqs = {k: (float(np.mean(v)) if v else None) for k, v in events.items()}
    freqs["thresholds"] = dict(thresholds)
    return freqs


def _write_mc(result, config, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    lines = ["n,mean_tv,stderr_tv"]
    for i in range(len(result["n"])):
        lines.append(f"{int(result['n'][i])},{result['mean_tv'][i]:.17g},{result['stderr_tv'][i]:.17g}")
    with open(os.path.join(out_dir, "mc_tv.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    payload = {k: v for k, v in result.items() if k != "reports"}
    payload["per_replicate"] = [r.to_json_dict() for r in result["reports"]]
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    write_plotdata(os.path.join(out_dir, "plotdata"), "mean_tv.dat",
                   result["n"], result["mean_tv"])

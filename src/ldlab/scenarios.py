"""Declarative experiment scenarios: simulate, filter pairs, TV series, bounds.

A scenario is a plain dict (JSON-compatible). Reports embed the full config
plus a sha256 hash of its canonical serialization. Every file a run writes
goes through ``write_rows`` (numbers as %.17g) or ``write_json``, so reruns
with the same config are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from ._version import __version__
# forgetting_bound is not called here; it stays importable from this module,
# where benchmarks/tracer.py wraps it
from .bounds import (  # noqa: F401
    bound_series,
    forgetting_bound,
    forgetting_bound_finite,
    prefix_series,
)
from .doeblin import (
    delta_for_eta,
    finite_ld_construct,
    misspec_diag_series,
    stability_diag_series,
)
from .dists import prior_from_spec
from .errors import (
    ConfigError,
    ConstructionError,
    LabError,
    ModelValidationError,
    check_fields,
)
# exact_filter_finite is not called here; it stays importable from this
# module, where benchmarks/tracer.py wraps it
from .filtering import (  # noqa: F401
    ReprConfig,
    decay_rate,
    exact_filter_finite,
    filter_init,
    filter_step,
    grid_filters,
    run_finite_pair,
    run_grid_pair,
    tv_distance,
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

_FIELDS = {"name", "model", "finite", "truth", "prior1", "prior2", "horizon", "seeds",
           "repr", "bound", "allow_equal_priors"}
_BOUND_FIELDS = {"alpha", "eta", "etas", "thresholds"}
_TRUTH_FIELDS = {"f", "h", "state_noise", "obs_noise", "f_gap", "h_gap"}
_FINITE_FIELDS = {"Q", "means", "stds", "set_table", "bin_threshold"}
_THRESHOLDS = {"M0", "M1", "M2", "M3", "delta"}
# the eta grid of a sweep that names no 'etas': 13 log-spaced points over [1e-4, 0.5]
_SWEEP_ETAS = tuple(np.exp(np.linspace(math.log(1e-4), math.log(0.5), 13)).tolist())


@dataclass(frozen=True)
class BoundConfig:
    """A checked ``bound`` block with every default applied.

    ``eta`` is a number in (0, 1) or "sweep" over ``etas``; ``thresholds`` are
    the tail-event levels ``mc`` counts.
    """

    alpha: float
    eta: object
    etas: tuple
    thresholds: dict


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked scenario and the parts of it a run uses, each built once.

    ``prior1`` and ``prior2`` stay specs; ``nu1`` and ``nu2`` are the built
    priors (probability vectors for a finite model). A continuous scenario
    carries its ``model``, ``truth`` (or None) and grid ``repr``; a finite one
    its ``fmodel`` and LD sets ``ld``. Reports echo ``raw`` and hash it.
    """

    name: str
    prior1: dict
    prior2: dict
    nu1: object
    nu2: object
    horizon: int
    seeds: list
    bound: Optional[BoundConfig]
    raw: dict
    model: object = None
    truth: object = None
    repr: Optional[ReprConfig] = None
    fmodel: object = None
    ld: object = None

    @property
    def is_finite(self):
        return self.fmodel is not None


def scenario_from_dict(d):
    """Check a scenario dict field by field and build its parts; report every problem at once."""
    if not isinstance(d, dict):
        raise ConfigError(f"invalid scenario config: it must be an object, got {d!r}")
    errors = []
    unknown = set(d) - _FIELDS
    if unknown:
        errors.append(f"unknown fields: {sorted(unknown)}")
    model_spec = d.get("model")
    finite = d.get("finite")
    if (model_spec is None) == (finite is None):
        errors.append("exactly one of 'model' or 'finite' is required")
    truth_spec = d.get("truth")
    truth_ok = truth_spec is not None and _collect(errors, "truth", check_fields, truth_spec,
                                                   _TRUTH_FIELDS, "truth") is not None
    if truth_ok:
        for key in ("f_gap", "h_gap"):
            if key not in truth_spec:
                truth_ok = False
                errors.append(f"truth spec needs '{key}' (sup-norm gap to the filter model)")
    horizon = d.get("horizon", 100)
    bound = d.get("bound")
    if not _integer(horizon) or horizon < 1:
        errors.append("'horizon' must be a positive integer")
    elif bound is not None and horizon < 2:
        errors.append("a bound needs 'horizon' >= 2 (two steps)")
    seeds = d.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(map(_integer, seeds)):
        errors.append("'seeds' must be a non-empty list of integers")
    elif len(set(seeds)) != len(seeds):
        errors.append("'seeds' contains duplicates")
    allow_equal = d.get("allow_equal_priors", False)
    if not isinstance(allow_equal, bool):
        errors.append(f"'allow_equal_priors' must be true or false, got {allow_equal!r}")
    prior1, prior2 = d.get("prior1"), d.get("prior2")
    if prior1 is not None and prior1 == prior2 and allow_equal is not True:
        errors.append("identical priors need allow_equal_priors: true")
    if bound is not None:
        bound = bound_config(bound, finite is not None, errors)
    parts, build_prior = {}, None
    if finite is None and model_spec is not None:
        build_prior = prior_from_spec
        parts["repr"] = _collect(errors, "repr", repr_config, d.get("repr", {}))
        model = parts["model"] = _collect(errors, "model", model_from_spec, model_spec)
        if model is not None and truth_ok:
            parts["truth"] = _collect(errors, "truth", _build_truth, model, model_spec,
                                      truth_spec)
    elif finite is not None and model_spec is None:
        parts.update(_collect(errors, "finite", _build_finite, finite) or {})
        if parts:  # a finite prior's length is the built model's state count
            build_prior = partial(_finite_prior, m=parts["fmodel"].m)
        # a finite model is filtered exactly on the stream it simulates: it has no
        # grid, truth or eta list
        unused = [key for key in ("repr", "truth") if key in d]
        if isinstance(d.get("bound"), dict) and "etas" in d["bound"]:
            unused.append("bound.etas")
        if unused:
            errors.append(f"a finite model takes no {unused}")
    nus = {}
    for key, prior in (("prior1", prior1), ("prior2", prior2)):
        if prior is None:
            errors.append(f"'{key}' is required")
        elif build_prior is not None:
            nus[key] = _collect(errors, key, build_prior, prior)
    if errors:
        raise ConfigError("invalid scenario config: " + "; ".join(errors))
    return ScenarioConfig(name=d.get("name", "custom"), prior1=prior1, prior2=prior2,
                          nu1=nus["prior1"], nu2=nus["prior2"], horizon=horizon,
                          seeds=list(seeds), bound=bound, raw=dict(d), **parts)


def _integer(x):
    """Whether ``x`` is an integer; a bool is not one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _number(x):
    """Whether ``x`` is a real number; a bool is not one."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _unit_number(x):
    """Whether ``x`` is a real number in (0, 1)."""
    return _number(x) and 0.0 < x < 1.0


def bound_config(bound, finite, errors):
    """The checked ``bound`` block, or None with its problems appended to ``errors``.

    Every default of a bound is applied here, once.
    """
    if not isinstance(bound, dict):
        errors.append("'bound' must be an object")
        return None
    problems = []
    unknown = set(bound) - _BOUND_FIELDS
    if unknown:
        problems.append(f"unknown bound fields: {sorted(unknown)}")
    alpha = bound.get("alpha", 0.5)
    if not _unit_number(alpha):
        problems.append(f"bound.alpha must be a number in (0, 1), got {alpha!r}")
    eta = bound.get("eta", 0.1)
    if eta == "sweep":
        if finite:
            problems.append("bound.eta 'sweep' needs a continuous model; "
                            "a finite bound takes one eta in (0, 1)")
    elif not _unit_number(eta):
        problems.append(f"bound.eta must be a number in (0, 1) or 'sweep', got {eta!r}")
    etas = bound.get("etas")
    if etas is not None and not (isinstance(etas, list) and etas and all(map(_unit_number, etas))):
        problems.append(f"bound.etas must be a non-empty list of numbers in (0, 1), got {etas!r}")
    elif etas is not None and eta != "sweep" and not finite:  # a finite model's is unused
        problems.append("bound.etas is read only with bound.eta 'sweep'")
    th = bound.get("thresholds", {})
    if not (isinstance(th, dict) and set(th) <= _THRESHOLDS and all(map(_number, th.values()))):
        problems.append(f"bound.thresholds must map some of {sorted(_THRESHOLDS)} to numbers, "
                        f"got {th!r}")
    errors += problems
    if problems:
        return None
    return BoundConfig(alpha=float(alpha), eta=eta if eta == "sweep" else float(eta),
                       etas=_SWEEP_ETAS if etas is None else tuple(map(float, etas)),
                       thresholds=dict(th))


def _collect(errors, key, build, *args):
    """``build(*args)``, or None with the reason it failed appended to ``errors``."""
    try:
        return build(*args)
    except (ConfigError, ConstructionError, ModelValidationError) as exc:
        errors.append(f"'{key}': {exc}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        errors.append(f"'{key}' has a missing or malformed field: {exc!r}")
    return None


def config_hash(raw):
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def repr_config(d):
    """The grid of a continuous run; ``nodes`` is its one setting."""
    problems = []
    unknown = set(d) - {"nodes"}
    if unknown:
        problems.append(f"unknown repr fields: {sorted(unknown)}")
    # the grid TV rule fits a cubic through four nodes
    nodes = d.get("nodes", ReprConfig.nodes)
    if not _integer(nodes) or nodes < 4:
        problems.append(f"repr nodes must be an integer >= 4, got {nodes!r}")
    if problems:
        raise ConfigError("; ".join(problems))
    return ReprConfig(nodes=nodes)


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
        "repr": {"nodes": 256},
        "bound": {"alpha": 0.5, "eta": 0.1},
    },
    "ar-unstable": {
        "name": "ar-unstable",
        "model": _gauss_rw_model({"type": "affine", "c0": 0.0, "c1": 1.05}),
        "prior1": {"family": "normal", "mean": -5.0, "std": 1.0},
        "prior2": {"family": "normal", "mean": 5.0, "std": 1.0},
        "horizon": 100,
        "seeds": list(range(201, 221)),
        "repr": {"nodes": 256},
        "bound": {"alpha": 0.5, "eta": 0.1},
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
        "repr": {"nodes": 256},
        "bound": {"alpha": 0.5, "eta": 0.1},
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
        "repr": {"nodes": 256},
        "bound": {"alpha": 0.5, "eta": 0.1},
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
        "bound": {"alpha": 0.3, "eta": 0.5},
    },
}


def preset_dict(name):
    """A fresh copy of the named preset's config dict."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return json.loads(json.dumps(PRESETS[name]))


def preset_config(name):
    return scenario_from_dict(preset_dict(name))


# ---------------------------------------------------------------------------
# model assembly from config


def build_model(config):
    return config.model


def build_finite(config):
    return config.fmodel, config.ld


def _build_truth(model, model_spec, t):
    """The data-generating model: the filter model's spec with the truth block's overrides."""
    true_spec = dict(model_spec, kind="nonlinear", f=t.get("f", model_spec.get("f")),
                     h=t.get("h", model_spec.get("h")))
    true_spec.update({key: t[key] for key in ("state_noise", "obs_noise") if key in t})
    true_model = model_from_spec(true_spec)
    return make_misspecified_truth(model, true_model, float(t["f_gap"]), float(t["h_gap"]))


def _build_finite(f):
    check_fields(f, _FINITE_FIELDS, "finite")
    fmodel = gaussian_finite_model(np.asarray(f["Q"], dtype=float), f["means"], f["stds"])
    obs_to_bin = _threshold_binner(float(f.get("bin_threshold", 0.0)), len(f["set_table"]))
    return {"fmodel": fmodel, "ld": finite_ld_construct(fmodel, f["set_table"], obs_to_bin)}


def _threshold_binner(thr, n_bins):
    if n_bins != 2:
        raise ConfigError("threshold binning supports exactly 2 bins")

    def obs_to_bin(y):
        return 0 if y <= thr else 1

    return obs_to_bin


def _finite_prior(spec, m):
    if not isinstance(spec, dict) or spec.get("family") != "finite":
        raise ConfigError("finite scenarios need finite priors: {family: finite, probs: [...]}")
    p = np.asarray(check_fields(spec, {"family", "probs"}, "finite prior")["probs"], dtype=float)
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
    tvs = []
    try:
        for s1, s2 in grid_filters(model, [prior1, prior2], ys, cfg):
            tvs.append(tv_distance(s1, s2))
    except LabError as exc:
        with np.errstate(divide="ignore"):
            exc.tv_prefix = (np.array(tvs), np.log(tvs))
        raise
    tvs = np.array(tvs)
    with np.errstate(divide="ignore"):
        log_tvs = np.log(tvs)
    return tvs, log_tvs, {"final_window": [float(s1.nodes[0]), float(s1.nodes[-1])]}


def compare_particle_grid(model, prior, ys, cfg, seed):
    """Per-step TV between a particle filter and a grid filter, same prior."""
    ys = np.asarray(ys, dtype=float)
    rng = np.random.default_rng([int(seed), 777])
    part = filter_init(model, prior, ys[0], cfg, rng)
    tvs = np.empty(len(ys))
    for step, (grid,) in enumerate(grid_filters(model, [prior], ys, cfg)):
        if step:
            part = filter_step(model, part, ys[step], cfg=cfg, rng=rng)
        tvs[step] = tv_distance(part, grid)
    return tvs


# ---------------------------------------------------------------------------
# run reports


@dataclass
class TvSeries:
    """Per-step TV values with exact log values and optional bound column."""

    n: np.ndarray
    tv: np.ndarray
    log_tv: np.ndarray
    bound_log: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def to_csv(self, path):
        """Write the series at ``path`` and its ``meta`` beside it as ``<stem>.meta.json``."""
        columns = {"n": self.n, "tv": self.tv, "log_tv": self.log_tv}
        if self.bound_log is not None:
            columns["bound_log"] = self.bound_log
        write_rows(path, zip(*columns.values()), header=list(columns))
        write_json(os.path.splitext(path)[0] + ".meta.json", self.meta)


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
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "version": self.version,
            "fit": None if self.fit is None else asdict(self.fit),
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


def _simulate(config, seed):
    """Returns (traj_or_None, states, observations); traj is None for finite models."""
    if config.is_finite:
        states, ys = simulate_finite(config.fmodel, config.nu1, config.horizon, seed)
        return None, states, ys
    if config.truth is not None:
        traj = simulate_misspecified(config.truth, config.nu1, config.horizon, seed)
    else:
        traj = simulate_trajectory(config.model, config.nu1, config.horizon, seed)
    return traj, traj.states, traj.observations


def run_scenario(config, seed=None, out_dir=None):
    """Simulate one observation stream, run the filter pair, fit the decay.

    The truth's initial state is drawn from prior1, so the first filter is
    well-initialized and the second carries the full prior mismatch. A filter
    or bound ``LabError`` is recorded in ``failure``, not raised; a failed
    bound leaves the series, its fit and the diagnostics whole.
    """
    seed = config.seeds[0] if seed is None else int(seed)
    h = config_hash(config.raw)
    model, truth = config.model, config.truth
    diagnostics = {}
    failure = None

    traj, _, ys = _simulate(config, seed)
    try:
        if config.is_finite:
            res = run_finite_pair(config.fmodel, config.nu1, config.nu2, ys)
        else:
            res = run_grid_pair(model, config.nu1, config.nu2, ys, config.repr)
        tvs, log_tvs = res.tv, res.log_tv
        diagnostics.update(res.diagnostics)
    except LabError as exc:
        failure = _failure_record(exc, getattr(exc, "step", None))
        # steps the runner completed keep their values; the rest are NaN
        tvs = np.full(len(ys), np.nan)
        log_tvs = np.full(len(ys), np.nan)
        if exc.tv_prefix is not None:
            done = len(exc.tv_prefix[0])
            tvs[:done], log_tvs[:done] = exc.tv_prefix

    ns = np.arange(len(ys))
    complete = failure is None  # the TV series has every step
    bound_log = bound_info = None
    if config.bound is not None and complete:
        try:
            bound_log, bound_info, _ = _evaluate_bound(config, ys)
        except LabError as exc:
            failure = _failure_record(exc)
        else:
            diagnostics["h2_delta"] = bound_info["delta"]

    delta = None
    if not config.is_finite and config.bound is not None:
        if bound_info is not None:
            delta = bound_info["delta"]
        elif config.bound.eta != "sweep":  # a failed run with eta "sweep" chose no eta
            delta = delta_for_eta(model, config.bound.eta)
    if delta is not None:
        # each diagnostic only under its premise: the recorded-noise form bounds the
        # preimage distance on data from the filter model, the misspec form on a truth's
        if truth is None:
            diagnostics["stability_diag_mean"] = float(
                np.mean(stability_diag_series(model, traj, delta)))
        else:
            diagnostics["misspec_diag_mean"] = float(
                np.mean(misspec_diag_series(model, truth, traj, delta)))

    meta = {
        "scenario": config.name,
        "seed": seed,
        "config_hash": h,
        "version": __version__,
        "tv_convention": "half L1 distance of densities (sup over sets)",
    }
    if config.repr is not None:
        meta["repr"] = {"nodes": config.repr.nodes}
    series = TvSeries(n=ns, tv=tvs, log_tv=log_tvs, bound_log=bound_log, meta=meta)

    fit = None
    if complete:
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


def _failure_record(exc, step=None):
    """A run's record of the ``LabError`` that stopped it; ``step`` is the
    filter step, None for a bound failure."""
    return {"error": type(exc).__name__, "message": str(exc), "step": step}


def _evaluate_bound(config, ys):
    """The bound of one stream: its prefix series, its report entry, its breakdown.

    One full-horizon breakdown per eta (the configured one, or each of a
    sweep's); every prefix bound is taken from the best by ``prefix_series``.
    """
    bc = config.bound
    if config.is_finite:
        series = prefix_series(forgetting_bound_finite(config.fmodel, config.ld, config.nu1,
                                                       config.nu2, ys, bc.alpha, bc.eta))
    else:
        series = bound_series(config.model, config.nu1, config.nu2, ys, bc.alpha,
                              bc.etas if bc.eta == "sweep" else [bc.eta])
    bound_log = np.full(len(ys), np.nan)
    bound_log[series["n"]] = series["log_total"]
    full = series["full"]
    info = {"eta": float(full.parameters["eta"]), "alpha": bc.alpha,
            "delta": full.parameters["delta"], "final": full.to_json_dict()}
    if not config.is_finite:  # a finite bound takes one eta and never sweeps
        info["sweep"] = None if bc.eta != "sweep" else {
            "etas": [b.parameters["eta"] for b in series["results"]],
            "results": [{"eta": b.parameters["eta"], "log_total": b.log_total,
                         "headline": b.headline} for b in series["results"]],
        }
    return bound_log, info, full


# ---------------------------------------------------------------------------
# output writers: every file ldlab writes goes through write_rows or write_json


def write_rows(path, rows, header=None, sep=","):
    """One line per row, each cell as %.17g and None as an empty cell, under ``header``."""
    lines = [] if header is None else [sep.join(header)]
    lines += [sep.join("" if v is None else format(v, ".17g") for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def write_json(path, payload):
    """``payload`` as indented JSON with sorted keys; numpy values become plain ones."""
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def _write_text(path, text):
    """``text`` at ``path``, its directory made first."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def write_plotdata(dir_path, name, x, y):
    write_rows(os.path.join(dir_path, name), zip(x, y), sep=" ")


def write_bound_csv(breakdown, path):
    """Per-step CSV: i, log_eps_minus, log_psi, log_upsilon, log_rho.

    Pair-indexed columns are defined from i = 1 (the pair (y_{i-1}, y_i));
    row 0 carries only the likelihood supremum.
    """
    ps = breakdown.per_step
    rows = [(0, None, None, ps["log_upsilon"][0], None)]
    rows += [(i, ps["log_eps_minus"][i - 1], ps["log_psi"][i - 1], ps["log_upsilon"][i],
              ps["log_rho"][i - 1]) for i in range(1, breakdown.parameters["n"] + 1)]
    write_rows(path, rows, header=["i", "log_eps_minus", "log_psi", "log_upsilon", "log_rho"])


def write_report(report, out_dir):
    report.tv.to_csv(os.path.join(out_dir, "tv.csv"))
    write_json(os.path.join(out_dir, "report.json"), report.to_json_dict())
    plot_dir = os.path.join(out_dir, "plotdata")
    write_plotdata(plot_dir, "tv.dat", report.tv.n, report.tv.tv)
    write_plotdata(plot_dir, "log_tv.dat", report.tv.n, report.tv.log_tv)
    if report.tv.bound_log is not None:
        write_plotdata(plot_dir, "bound_log.dat", report.tv.n, report.tv.bound_log)
    return out_dir


def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):  # a numpy scalar's tolist is a plain one
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


# ---------------------------------------------------------------------------
# Monte Carlo expectation curves


def monte_carlo_expectation(config, replicates, out_dir=None):
    """Mean and standard error of the TV curve over independent seeds.

    Also reports empirical exceedance frequencies for the bound-ingredient
    tail events at the config's ``bound.thresholds`` (keys M1, M2, M3, delta,
    and optionally M0), computed at the full horizon from each replicate's
    bound breakdown. A failed replicate is listed under ``failures``; the TV
    mean and the slopes take every whole series (NaN and empty when none is).
    """
    if replicates < 2:
        raise ConfigError("need at least 2 replicates")
    seeds = list(config.seeds)
    if len(seeds) < replicates:
        seeds = seeds + [max(seeds) + 1 + i for i in range(replicates - len(seeds))]
    seeds = seeds[:replicates]

    # replicates run one after another: a thread pool was no faster (8-replicate
    # rw-gauss mc, medians of 3 alternating runs on 2 vCPUs: 529 ms pooled, 524 serial)
    reports = [run_scenario(config, seed=s) for s in seeds]
    failures = [{"seed": s, **r.failure}
                for s, r in zip(seeds, reports) if r.failure is not None]
    # a failed filter leaves NaN at the steps it did not reach; a failed bound
    # leaves the series whole, so it still counts toward E[TV]
    whole = np.array([r.tv.tv for r in reports if not np.isnan(r.tv.tv).any()])
    ns, k = reports[0].tv.n, len(whole)
    mean_tv = whole.mean(axis=0) if k else np.full(len(ns), np.nan)
    stderr = whole.std(axis=0, ddof=1) / math.sqrt(k) if k > 1 else mean_tv * 0.0

    thresholds = config.bound.thresholds if config.bound is not None else None
    exceedance = _exceedance_frequencies(reports, thresholds) if thresholds else None

    slopes = [r.fit.slope for r in reports if r.fit is not None]
    result = {
        "n": ns,
        "mean_tv": mean_tv,
        "stderr_tv": stderr,
        "replicates": replicates,
        "seeds": seeds,
        "failures": failures,
        "exceedance": exceedance,
        "slopes": slopes,
        "config_hash": reports[0].config_hash,
        "reports": reports,
    }
    if out_dir is not None:
        _write_mc(result, config, out_dir)
    return result


def _exceedance_frequencies(reports, thresholds):
    events = {key: [] for key in ("r1", "r2", "r3", "r4", "r0_nu", "r0_nu_prime")}
    for rep in (r for r in reports if r.bound is not None):
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
    write_rows(os.path.join(out_dir, "mc_tv.csv"),
               zip(result["n"], result["mean_tv"], result["stderr_tv"]),
               header=["n", "mean_tv", "stderr_tv"])
    payload = {k: v for k, v in result.items() if k != "reports"}
    payload["per_replicate"] = [r.to_json_dict() for r in result["reports"]]
    write_json(os.path.join(out_dir, "report.json"), payload)
    write_plotdata(os.path.join(out_dir, "plotdata"), "mean_tv.dat",
                   result["n"], result["mean_tv"])

"""Command-line experiment harness.

Subcommands:
  simulate    draw one trajectory, write sim.csv
  filter      run the filter pair only, write tv.csv / report.json / plotdata/
  bound       evaluate the assembled bound on one stream, write bound.csv
  experiment  full scenario: filter pair + per-prefix bound + decay fit
  mc          Monte Carlo mean TV curve over replicate seeds

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from ._version import __version__
from .errors import ConfigError, LabError
from .scenarios import (
    _evaluate_bound,
    _failure_record,
    _simulate,
    config_hash,
    monte_carlo_expectation,
    preset_dict,
    run_scenario,
    scenario_from_dict,
    write_bound_csv,
    write_json,
    write_rows,
)


def _parse_eta(text):
    if text == "sweep":
        return "sweep"
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"--eta must be a float or 'sweep', got {text!r}")


def _load_scenario(args):
    """The scenario of ``--preset`` or ``--config``, read once, with any
    ``--eta``/``--alpha`` applied to its bound before the read; a numeric
    ``--eta`` drops the bound's ``etas`` with its eta choice."""
    if getattr(args, "preset", None) and getattr(args, "config", None):
        raise ConfigError("pass either --preset or --config, not both")
    if getattr(args, "preset", None):
        raw = preset_dict(args.preset)
    elif getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
    else:
        raise ConfigError("one of --preset or --config is required")

    overrides = {}
    if getattr(args, "eta", None) is not None:
        overrides["eta"] = _parse_eta(args.eta)
    if getattr(args, "alpha", None) is not None:
        overrides["alpha"] = float(args.alpha)
    if overrides and isinstance(raw, dict):
        bound = {} if raw.get("bound") is None else raw["bound"]
        if isinstance(bound, dict):  # anything else is left for the read to report
            bound = {**bound, **overrides}
            if overrides.get("eta") not in (None, "sweep"):  # a numeric --eta replaces the choice
                bound.pop("etas", None)
            raw = dict(raw, bound=bound)
    return scenario_from_dict(raw)


def _seed_for(args, config):
    return int(args.seed) if args.seed is not None else config.seeds[0]


def _out_dir(args, config, suffix):
    if args.out:
        return args.out
    return os.path.join("runs", f"{config.name}-{suffix}")


def cmd_simulate(args):
    config = _load_scenario(args)
    seed = _seed_for(args, config)
    out = _out_dir(args, config, f"sim-seed{seed}")
    _, states, ys = _simulate(config, seed)
    # finite states are integers, which %.17g writes as integers
    write_rows(os.path.join(out, "sim.csv"), zip(range(len(ys)), states, ys),
               header=["n", "state", "obs"])
    write_json(os.path.join(out, "report.json"), {
        "config": config.raw, "config_hash": config_hash(config.raw),
        "seed": seed, "version": __version__, "n": config.horizon,
    })
    print(f"wrote {out}/sim.csv ({config.horizon + 1} rows)")
    return 0


def _run_and_report(args, config, out):
    seed = _seed_for(args, config)
    report = run_scenario(config, seed=seed, out_dir=out)
    if report.failure is not None:
        print(f"run failed: {json.dumps(report.failure, sort_keys=True)}", file=sys.stderr)
        print(f"partial report in {out}")
        return 3
    line = f"wrote {out}/tv.csv  tv[0]={report.tv.tv[0]:.3g} tv[-1]={report.tv.tv[-1]:.3g}"
    if report.fit is not None:
        line += f"  slope={report.fit.slope:.4f} R2={report.fit.r_squared:.3f}"
    print(line)
    if report.bound is not None:
        print(f"bound headline={report.bound['final']['headline']:.6g} "
              f"(eta={report.bound['eta']:.4g}, alpha={report.bound['alpha']})")
    return 0


def cmd_filter(args):
    config = _load_scenario(args)
    # a filter-only run: the checked config without its bound, not rebuilt
    raw = {key: value for key, value in config.raw.items() if key != "bound"}
    config = replace(config, bound=None, raw=raw)
    seed = _seed_for(args, config)
    return _run_and_report(args, config, _out_dir(args, config, f"filter-seed{seed}"))


def cmd_experiment(args):
    config = _load_scenario(args)
    seed = _seed_for(args, config)
    return _run_and_report(args, config, _out_dir(args, config, f"seed{seed}"))


def cmd_bound(args):
    config = _load_scenario(args)
    if config.bound is None:
        raise ConfigError("bound evaluation needs a bound config (or --eta/--alpha)")
    seed = _seed_for(args, config)
    out = _out_dir(args, config, f"bound-seed{seed}")
    _, _, ys = _simulate(config, seed)
    report = {"config": config.raw, "config_hash": config_hash(config.raw),
              "seed": seed, "version": __version__}
    try:
        _, info, bd = _evaluate_bound(config, ys)
    except LabError as exc:
        failure = _failure_record(exc)
        write_json(os.path.join(out, "report.json"),
                   {**report, "bound": None, "eta_sweep": None, "failure": failure})
        print(f"bound failed: {json.dumps(failure, sort_keys=True)}", file=sys.stderr)
        print(f"partial report in {out}")
        return 3
    sweep = info.get("sweep")
    if sweep is not None:
        sweep = {"etas": sweep["etas"], "log_totals": [r["log_total"] for r in sweep["results"]]}
    write_bound_csv(bd, os.path.join(out, "bound.csv"))
    write_json(os.path.join(out, "report.json"), {**report, "bound": info["final"],
                                                  "eta_sweep": sweep})
    print(f"wrote {out}/bound.csv  headline={bd.headline:.6g} "
          f"log_total={bd.log_total:.4f} (eta={bd.parameters['eta']:.4g})")
    return 0


def cmd_mc(args):
    config = _load_scenario(args)
    replicates = int(args.replicates)
    out = _out_dir(args, config, f"mc{replicates}")
    result = monte_carlo_expectation(config, replicates, out_dir=out)
    n_fail = len(result["failures"])
    print(f"wrote {out}/mc_tv.csv  replicates={replicates} failed={n_fail} "
          f"mean_tv[-1]={result['mean_tv'][-1]:.3g}")
    if result["slopes"]:
        slopes = np.asarray(result["slopes"])
        print(f"slopes: mean={slopes.mean():.4f} min={slopes.min():.4f} max={slopes.max():.4f}")
    if result["exceedance"] is not None:
        print("exceedance: " + json.dumps(
            {k: v for k, v in result["exceedance"].items() if k != "thresholds"}))
    return 3 if n_fail == replicates else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ldlab",
        description="Filter-forgetting experiments: paired filters, TV decay, "
                    "observation-driven bounds.",
    )
    parser.add_argument("--version", action="version", version=f"ldlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bound_flags=True):
        p.add_argument("--config", help="path to a scenario JSON file")
        p.add_argument("--preset", help="built-in scenario name")
        p.add_argument("--seed", type=int, help="override the scenario's first seed")
        p.add_argument("--out", help="output directory")
        if bound_flags:
            p.add_argument("--eta", help="tail-ratio level in (0,1), or 'sweep'")
            p.add_argument("--alpha", type=float, help="activation fraction in (0,1)")

    p_sim = sub.add_parser("simulate", help="draw one trajectory")
    common(p_sim, bound_flags=False)
    p_sim.set_defaults(func=cmd_simulate)

    p_fil = sub.add_parser("filter", help="run the filter pair, no bound")
    common(p_fil, bound_flags=False)
    p_fil.set_defaults(func=cmd_filter)

    p_bnd = sub.add_parser("bound", help="evaluate the assembled bound")
    common(p_bnd)
    p_bnd.set_defaults(func=cmd_bound)

    p_exp = sub.add_parser("experiment", help="full scenario run")
    common(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_mc = sub.add_parser("mc", help="Monte Carlo mean TV curve")
    common(p_mc)
    p_mc.add_argument("--replicates", type=int, required=True)
    p_mc.set_defaults(func=cmd_mc)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads and the checks on their outputs.

Each workload turns (seed, pass index) into a list of top-level calls (one
pass) through ldlab's public entry points, every pass on fresh streams, and
checks the outputs against the closed-form and exhaustive references. Calls
go through module attributes (``scenarios.run_scenario``,
``filtering.exact_filter_finite``) at call time so that the tracer's wrappers
see them.
"""

from __future__ import annotations

import copy
import filecmp
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import references as ref
from ldlab import bounds, filtering, models, scenarios
from ldlab.dists import prior_from_spec

# Worst error each check accepts (None: recorded, not checked).
#   log_tv: paired log TV against Kalman; 2.5x the 4.0e-4 measured at the
#     presets' 512 nodes.
#   mass_log: log psi, and log phi of the prior the data were drawn from,
#     against their closed forms; quad's requested relative tolerance, 1e-8.
#   mass_abs: |phi - exact| for both priors and |psi - exact|; quad's requested
#     absolute tolerance, epsabs = 1e-8.
#   far_phi_log: log phi of the other prior. Its mass, near e^-15 to e^-50,
#     is below epsabs, so quad meets its tolerance with log errors from 1e-4
#     to 0.15 that jump from stream to stream: recorded as a finding.
#   oracle: forward recursion against exhaustive path sums (criterion 05).
TOLERANCE = {"log_tv": 1e-3, "mass_log": 1e-8, "mass_abs": 1e-8, "far_phi_log": None,
             "oracle": 1e-10}
# ref_err_max is the worst of these errors, floored at the finest agreement
# a later change is asked to keep (log phi to a relative 1e-8), so that
# rounding noise below it cannot move the metric.
GATED = ("log_tv", "mass_log", "oracle")
ERROR_FLOOR = 1e-8


@dataclass
class Call:
    """One top-level call: ``run()`` returns (output, ok).

    ``kind`` names the calls that do the same work on different inputs; the
    fast-phase latency is taken per kind.
    """

    label: str
    run: Callable
    steps: int
    kind: str


@dataclass
class Checks:
    """Worst error per reference, plus failed determinism reruns."""

    errors: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def error(self, kind, value):
        value = float(value) if np.isfinite(value) else math.inf
        self.errors[kind] = max(self.errors.get(kind, 0.0), value)

    def rerun(self, what, identical):
        self.attempted += 1
        if not identical:
            self.failed += 1
            self.problems.append(f"rerun of {what} is not byte-identical")

    def verdicts(self):
        bad = [f"{kind} error {value:.3g} above tolerance {TOLERANCE[kind]:.3g}"
               for kind, value in self.errors.items()
               if TOLERANCE[kind] is not None and not value <= TOLERANCE[kind]]
        return self.problems + bad

    def ref_err_max(self):
        return max([ERROR_FLOOR] + [self.errors.get(kind, 0.0) for kind in GATED])


def _seeds(seed, salt, pass_index, k=1):
    """k distinct stream seeds for one input kind of one pass."""
    rng = np.random.default_rng([int(seed), salt, pass_index])
    return [int(s) + 1 for s in rng.choice(10**6, size=k, replace=False)]


def _preset(name, bound=True):
    raw = copy.deepcopy(scenarios.PRESETS[name])
    if not bound:
        raw.pop("bound")
    return raw


def _same_file(a, b):
    return os.path.isfile(a) and os.path.isfile(b) and filecmp.cmp(a, b, shallow=False)


def _kalman_reference(raw):
    a, _, q, r = ref.gaussian_params(raw["model"])
    p1, p2 = raw["prior1"], raw["prior2"]
    return ref.kalman_log_tv(a, q, r, p1["mean"], p2["mean"], p1["std"], raw["horizon"])


def _log_tv_error(log_tv, reference):
    return float(np.max(np.abs(np.asarray(log_tv) - reference)))


def _mass_errors(checks, raw, y0, y1, delta, log_phi1, log_phi2, log_psi):
    """Record phi errors for both priors and psi errors against closed forms."""
    a, c0, q, r = ref.gaussian_params(raw["model"])
    for log_phi, prior, kind in ((log_phi1, raw["prior1"], "mass_log"),
                                 (log_phi2, raw["prior2"], "far_phi_log")):
        exact = ref.log_phi(a, c0, q, r, prior["mean"], prior["std"], y0, y1, delta)
        checks.error(kind, abs(log_phi - exact))
        checks.error("mass_abs", abs(math.exp(log_phi) - math.exp(exact)))
    exact = ref.log_psi(r, delta)
    log_psi = np.asarray(log_psi, dtype=float)
    checks.error("mass_log", np.max(np.abs(log_psi - exact)))
    checks.error("mass_abs", np.max(np.abs(np.exp(log_psi) - math.exp(exact))))


class FilterPair:
    """The ``ldlab filter`` path: run_scenario without its bound block.

    A pass is one filter run per preset, so dep-noise is a quarter of the
    calls and the tail percentile falls among its calls.
    """

    name = "filter-pair"
    presets = ("rw-gauss", "ar-unstable", "misspec", "dep-noise")

    def __init__(self, seed, out_root):
        self.seed = seed
        self.out_root = out_root
        self.raw = {p: _preset(p, bound=False) for p in self.presets}
        self.configs = {p: scenarios.scenario_from_dict(self.raw[p]) for p in self.presets}
        self.facts = {"threads": 0, "nodes": {p: self.raw[p]["repr"]["nodes"]
                                              for p in self.presets}}

    def calls(self, pass_index):
        return [self._call(p, _seeds(self.seed, i, pass_index)[0])
                for i, p in enumerate(self.presets)]

    def _call(self, preset, seed):
        config = self.configs[preset]

        def run():
            report = scenarios.run_scenario(config, seed=seed)
            return report, report.failure is None

        return Call(f"{preset}/{seed}", run, config.horizon + 1, preset)

    def check(self, calls, outputs):
        checks = Checks()
        rerun_done = set()
        for call, report in zip(calls, outputs):
            preset, seed = call.label.split("/")
            raw = self.raw[preset]
            if raw["model"]["kind"] == "linear_gaussian":
                checks.error("log_tv", _log_tv_error(report.tv.log_tv, _kalman_reference(raw)))
            if preset not in rerun_done:
                rerun_done.add(preset)
                first = os.path.join(self.out_root, "check", preset, "first")
                again = os.path.join(self.out_root, "check", preset, "again")
                os.makedirs(first, exist_ok=True)
                report.tv.to_csv(os.path.join(first, "tv.csv"))
                rep = scenarios.run_scenario(self.configs[preset], seed=int(seed), out_dir=again)
                checks.rerun(call.label, rep.failure is None and _same_file(
                    os.path.join(first, "tv.csv"), os.path.join(again, "tv.csv")))
        return checks


class ExperimentMC:
    """The ``ldlab mc`` path: monte_carlo_expectation on rw-gauss with its bound.

    A pass is one mc call over fresh replicate seeds, written to its own
    directory.
    """

    name = "experiment-mc"
    preset = "rw-gauss"
    # Eight replicates, about 2.2 s per call: four rounds of the pool on two
    # CPUs. The documented `ldlab mc --replicates 20` would leave about five
    # calls in a 30-second run, too few for a steady median.
    replicates = 8

    def __init__(self, seed, out_root):
        self.seed = seed
        self.out_root = out_root
        self.raw = _preset(self.preset)
        config = scenarios.scenario_from_dict(self.raw)
        self.model = scenarios.build_model(config)
        self.prior1 = prior_from_spec(config.prior1)
        self.facts = {"threads": min(self.replicates, os.cpu_count() or 1, 8),
                      "replicates": self.replicates}

    def calls(self, pass_index):
        return [self._call(pass_index, os.path.join(self.out_root, f"mc{pass_index}"))]

    def _call(self, pass_index, out_dir):
        config = scenarios.scenario_from_dict(
            dict(self.raw, seeds=_seeds(self.seed, 20, pass_index, self.replicates)))

        def run():
            result = scenarios.monte_carlo_expectation(config, self.replicates, out_dir=out_dir)
            return result, not result["failures"]

        return Call(f"mc{pass_index}", run, (config.horizon + 1) * self.replicates, "mc")

    def check(self, calls, outputs):
        checks = Checks()
        raw = self.raw
        kalman = _kalman_reference(raw)
        for result in outputs:
            for seed, rep in zip(result["seeds"], result["reports"]):
                checks.error("log_tv", _log_tv_error(rep.tv.log_tv, kalman))
                ys = models.simulate_trajectory(self.model, self.prior1, raw["horizon"],
                                                seed).observations
                final = rep.bound["final"]
                comp = final["components"]
                # the report keeps only the sum of log psi over steps 2..n
                mean_log_psi = comp["sum_log_psi"] / (final["parameters"]["n"] - 1)
                _mass_errors(checks, raw, ys[0], ys[1], rep.bound["delta"],
                             comp["log_phi_nu"], comp["log_phi_nu_prime"], [mean_log_psi])
        again = os.path.join(self.out_root, "check", "mc0")
        _, ok = self._call(0, again).run()
        checks.rerun("mc0", ok and _same_file(os.path.join(self.out_root, "mc0", "mc_tv.csv"),
                                              os.path.join(again, "mc_tv.csv")))
        return checks


class FiniteOracle:
    """The finite-oracle experiment plus the exhaustive finite-chain oracles.

    A pass is two streams; each call writes its run's outputs and then runs
    the oracles on the prefixes of its stream.
    """

    name = "finite-oracle"
    preset = "finite-oracle"
    streams = 2
    oracle_steps = 10  # longest prefix enumerated: 2^11 paths per prior

    def __init__(self, seed, out_root):
        self.seed = seed
        self.out_root = out_root
        self.config = scenarios.scenario_from_dict(_preset(self.preset))
        self.fmodel, self.ld = scenarios.build_finite(self.config)
        self.nu1 = np.asarray(self.config.prior1["probs"], dtype=float)
        self.nu2 = np.asarray(self.config.prior2["probs"], dtype=float)
        self.facts = {"threads": 0, "oracle_steps": self.oracle_steps}

    def calls(self, pass_index):
        return [self._call(s, os.path.join(self.out_root, f"finite{s}"))
                for s in _seeds(self.seed, 30, pass_index, self.streams)]

    def _call(self, seed, out_dir):
        config = self.config

        def run():
            report = scenarios.run_scenario(config, seed=seed, out_dir=out_dir)
            _, ys = models.simulate_finite(self.fmodel, self.nu1, config.horizon, seed)
            err, holds = self._oracles(ys)
            return (report, err), report.failure is None and holds

        return Call(f"finite/{seed}", run, config.horizon + 1, "finite")

    def _oracles(self, ys):
        """Worst recursion-vs-enumeration gap, and whether both inequalities hold."""
        worst = 0.0
        for n in range(2, self.oracle_steps + 1):
            finals = []
            for nu in (self.nu1, self.nu2):
                rec, log_z = filtering.exact_filter_finite(self.fmodel, nu, ys[: n + 1])
                exh, log_z_exh = filtering.exhaustive_filter_finite(self.fmodel, nu, ys[: n + 1])
                worst = max(worst, float(np.max(np.abs(rec[-1] - exh))), abs(log_z - log_z_exh))
                finals.append((rec[-1], exh))
            tv_rec = filtering.tv_half_l1(finals[0][0], finals[1][0])
            tv_exh = filtering.tv_half_l1(finals[0][1], finals[1][1])
            worst = max(worst, abs(tv_rec - tv_exh))
        prefix = ys[: self.oracle_steps + 1]
        holds = bounds.numerator_gap(self.fmodel, self.nu1, self.nu2, prefix, self.ld).holds
        for nu in (self.nu1, self.nu2):
            holds = holds and bounds.denominator_gap(self.fmodel, nu, prefix, self.ld).holds
        return worst, holds

    def check(self, calls, outputs):
        checks = Checks()
        for _, err in outputs:
            checks.error("oracle", err)
        seed = int(calls[0].label.split("/")[1])
        again = os.path.join(self.out_root, "check", "finite")
        _, ok = self._call(seed, again).run()
        checks.rerun(calls[0].label, ok and _same_file(
            os.path.join(self.out_root, f"finite{seed}", "tv.csv"),
            os.path.join(again, "tv.csv")))
        return checks


WORKLOADS = {w.name: w for w in (FilterPair, ExperimentMC, FiniteOracle)}

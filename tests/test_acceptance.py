"""Release gate: every acceptance criterion in one file.

Each check prints a single PASS/FAIL line with its measured numbers, so a log
scan (or a bare ``python3 tests/test_acceptance.py``) shows the whole gate at
a glance. Checks enforce the stated numeric tolerance and, where one is
given, the runtime budget.
"""

import math
import tempfile
import time
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np

from ldlab.bounds import (
    admissible_eta_finite,
    denominator_gap,
    forgetting_bound_finite,
    max_product_with_quota,
    max_product_with_quota_bruteforce,
    numerator_gap,
)
from ldlab.dists import prior_from_spec
from ldlab.doeblin import (
    delta_for_eta,
    finite_ld_construct,
    verify_ld_property,
)
from ldlab.errors import ConstructionError
from ldlab.filtering import (
    ReprConfig,
    exact_filter_finite,
    exhaustive_filter_finite,
    tv_half_l1,
)
from ldlab.models import finite_model_make, simulate_trajectory
from ldlab.scenarios import (
    PRESETS,
    build_model,
    compare_particle_grid,
    preset_config,
    run_scenario,
)


def _report(num, label, ok, detail):
    return _gate(f"criterion {num:02d}", label, ok, detail)


def _gate(tag, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{tag}] {status} {label} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# shared random finite fixtures


def _random_fixture(rng, n_lo, n_hi):
    """One random finite chain with everything the bound machinery needs.

    All transition entries are strictly positive so envelope construction
    never degenerates, emissions are a positive table over a small integer
    observation alphabet (one bin per symbol), and every bin's state subset
    includes the emission argmax so an admissible tail ratio below one
    exists.
    """
    m = int(rng.integers(2, 5))
    n_bins = int(rng.integers(2, 4))
    Q = rng.uniform(0.05, 1.0, size=(m, m))
    Q /= Q.sum(axis=1, keepdims=True)
    W = rng.uniform(0.05, 1.0, size=(m, n_bins))
    pdfs = [(lambda row: (lambda y: float(row[int(y)])))(W[s]) for s in range(m)]
    fmodel = finite_model_make(Q, pdfs)
    table = []
    for b in range(n_bins):
        size = int(rng.integers(1, m + 1))
        top = int(np.argmax(W[:, b]))
        others = [s for s in range(m) if s != top]
        rng.shuffle(others)
        table.append(sorted([top] + others[: size - 1]))
    ld = finite_ld_construct(fmodel, table, obs_to_bin=lambda y: int(round(float(y))))
    n = int(rng.integers(n_lo, n_hi + 1))
    ys = rng.integers(0, n_bins, size=n + 1).astype(float)
    nu = rng.dirichlet(np.ones(m))
    nup = rng.dirichlet(np.ones(m))
    return fmodel, ld, ys, nu, nup


@lru_cache(maxsize=None)
def _fixture_set(seed, n_hi, count=200):
    rng = np.random.default_rng(seed)
    return tuple(_random_fixture(rng, 2, n_hi) for _ in range(count))


def _ring_fixture(rng, n_lo, n_hi):
    """One ring chain with structural zeros in Q, local sets and a local path.

    Q(x, x') > 0 only at ring distance <= 1, so with m >= 4 no power-one
    Doeblin minorisation holds and forgetting can come only from the local
    sets. Emissions peak on the diagonal (symbol b is most likely from state
    b), every bin's set is the singleton {b}, and the observed bins move at
    most one step around the ring, so every observed set pair has a positive
    block.
    """
    m = int(rng.integers(4, 7))
    Q = np.zeros((m, m))
    for s in range(m):
        for step in (-1, 0, 1):
            Q[s, (s + step) % m] = rng.uniform(0.05, 1.0)
    Q /= Q.sum(axis=1, keepdims=True)
    W = rng.uniform(0.01, 0.1, size=(m, m))
    W[np.diag_indices(m)] = rng.uniform(0.5, 1.0, size=m)
    pdfs = [(lambda row: (lambda y: float(row[int(y)])))(W[s]) for s in range(m)]
    fmodel = finite_model_make(Q, pdfs)
    ld = finite_ld_construct(fmodel, [[b] for b in range(m)],
                             obs_to_bin=lambda y: int(round(float(y))))
    n = int(rng.integers(n_lo, n_hi + 1))
    walk = int(rng.integers(m)) + np.cumsum(np.r_[0, rng.integers(-1, 2, size=n)])
    ys = (walk % m).astype(float)
    nu = rng.dirichlet(np.ones(m))
    nup = rng.dirichlet(np.ones(m))
    return fmodel, ld, ys, nu, nup


def _headline_and_tv(fmodel, ld, ys, nu, nup, eta):
    """The finite bound's headline and the exact final-filter TV it bounds."""
    bb = forgetting_bound_finite(fmodel, ld, nu, nup, ys, alpha=0.5, eta=eta)
    f1, _ = exact_filter_finite(fmodel, nu, ys)
    f2, _ = exact_filter_finite(fmodel, nup, ys)
    return bb.headline, tv_half_l1(f1[-1], f2[-1])


def _bound_checks(eta_of):
    """The bound against the exact gap on 200 fixtures x 20 prior pairs.

    ``eta_of`` maps a fixture's admissible eta to the eta used. Returns the
    violations, the checks, the headlines below 1 and the smallest margin.
    """
    prior_rng = np.random.default_rng(777)
    violations = checks = below_one = 0
    worst_margin = math.inf
    for fmodel, ld, ys, _, _ in _fixture_set(20240817, 6):
        eta = eta_of(admissible_eta_finite(fmodel, ld, ys))
        for _ in range(20):
            nu = prior_rng.dirichlet(np.ones(fmodel.m))
            nup = prior_rng.dirichlet(np.ones(fmodel.m))
            headline, tv = _headline_and_tv(fmodel, ld, ys, nu, nup, eta)
            checks += 1
            below_one += headline < 1.0
            worst_margin = min(worst_margin, headline - tv)
            if tv > headline + 1e-12:
                violations += 1
    return violations, checks, below_one, worst_margin


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_quota_product_matches_bruteforce():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        log_rho = np.log(rng.uniform(0.02, 1.0, size=n))
        for alpha in (0.3, 0.5, 0.8):
            fast = max_product_with_quota(log_rho, alpha)
            slow = max_product_with_quota_bruteforce(log_rho, alpha)
            worst = max(worst, abs(fast - slow))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 5.0
    assert _report(1, "quota-constrained log product equals brute force", ok,
                   f"worst gap {worst:.2e}, {dt:.1f}s")


def test_criterion_02_numerator_inequality_on_random_fixtures():
    t0 = time.perf_counter()
    fixtures = _fixture_set(20240817, 6)
    bad = 0
    for fmodel, ld, ys, nu, nup in fixtures:
        if not numerator_gap(fmodel, nu, nup, ys, ld).holds:
            bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 60.0
    assert _report(2, "coupled-chain numerator inequality on 200 fixtures", ok,
                   f"{bad} violations, {dt:.1f}s")


def test_criterion_03_denominator_inequality_on_random_fixtures():
    t0 = time.perf_counter()
    # same generator, second batch widens the horizon to 8
    fixtures = _fixture_set(20240817, 6) + _fixture_set(20240818, 8)
    bad = 0
    for fmodel, ld, ys, nu, _ in fixtures:
        if not denominator_gap(fmodel, nu, ys, ld).holds:
            bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 60.0
    assert _report(3, "evidence lower bound on 400 fixtures", ok,
                   f"{bad} violations, {dt:.1f}s")


def test_criterion_04_assembled_bound_dominates_exact_filter_gap():
    t0 = time.perf_counter()
    violations, checks, _, worst_margin = _bound_checks(lambda required: 0.5 * (1.0 + required))
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 120.0
    assert _report(4, "exact filter gap below assembled bound", ok,
                   f"{violations} violations in {checks} checks, "
                   f"min margin {worst_margin:.3f}, {dt:.1f}s")


def test_criterion_05_recursion_matches_exhaustive_paths():
    # m <= 4 and n <= 8 keep every fixture below the 2^20 path cap
    fixtures = _fixture_set(20240817, 6) + _fixture_set(20240818, 8)
    worst = 0.0
    for fmodel, _, ys, nu, _ in fixtures:
        rec, log_z_rec = exact_filter_finite(fmodel, nu, ys)
        exh, log_z_exh = exhaustive_filter_finite(fmodel, nu, ys)
        worst = max(worst, float(np.max(np.abs(rec[-1] - exh))),
                    abs(log_z_rec - log_z_exh))
    ok = worst <= 1e-10
    assert _report(5, "forward recursion equals exhaustive path sum", ok,
                   f"worst gap {worst:.2e} on {len(fixtures)} fixtures")


def test_criterion_06_forgetting_on_random_walk_preset():
    cfg = preset_config("rw-gauss")
    t0 = time.perf_counter()
    slopes, r2s = [], []
    for seed in cfg.seeds:
        rep = run_scenario(cfg, seed=seed)
        slopes.append(rep.fit.slope)
        r2s.append(rep.fit.r_squared)
    dt = time.perf_counter() - t0
    ok = all(s <= -0.05 for s in slopes) and float(np.median(r2s)) >= 0.8 and dt < 60.0
    assert _report(6, "rw-gauss log TV decays for all 20 seeds", ok,
                   f"max slope {max(slopes):.3f}, median r2 {np.median(r2s):.3f}, {dt:.1f}s")


def test_criterion_07_forgetting_survives_model_mismatch():
    cfg = preset_config("misspec")
    t0 = time.perf_counter()
    slopes = [run_scenario(cfg, seed=seed).fit.slope for seed in cfg.seeds]
    dt = time.perf_counter() - t0
    negative = sum(1 for s in slopes if s < 0.0)
    ok = negative >= 19 and dt < 60.0
    assert _report(7, "misspec slopes negative for at least 19 of 20 seeds", ok,
                   f"{negative}/20 negative, max slope {max(slopes):.3f}, {dt:.1f}s")


def test_criterion_08_particle_and_grid_posteriors_agree():
    cfg = preset_config("rw-gauss")
    model = build_model(cfg)
    prior = prior_from_spec(cfg.prior1)
    pcfg = ReprConfig(particles=100_000)
    t0 = time.perf_counter()
    worst = 0.0
    for seed in (1, 2, 3, 4, 5):
        traj = simulate_trajectory(model, prior, n=50, seed=seed)
        tvs = compare_particle_grid(model, prior, traj.observations, pcfg, seed=seed)
        worst = max(worst, float(np.max(tvs)))
    dt = time.perf_counter() - t0
    ok = worst <= 0.05
    assert _report(8, "particle projection within 0.05 TV of grid posterior", ok,
                   f"worst tv {worst:.4f} over 5 seeds, {dt:.1f}s")


def test_criterion_09_kernel_sandwich_verified_by_quadrature():
    model = build_model(preset_config("rw-gauss"))
    delta = delta_for_eta(model, 0.1)
    res = verify_ld_property(model, delta, y=0.3, yp=-0.5, budget=1000, seed=11,
                             quad_tol=1e-8)
    ok = res["passed"] and res["pairs_checked"] == 1000
    assert _report(9, "sandwich holds on 1000 sampled point/interval pairs", ok,
                   f"worst lower margin {res['worst_lower_margin']:.2e}, "
                   f"worst upper margin {res['worst_upper_margin']:.2e}")


def test_criterion_10_preset_reruns_are_byte_identical():
    t0 = time.perf_counter()
    stale = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(PRESETS):
            cfg = preset_config(name)
            a = Path(tmp) / name / "a"
            b = Path(tmp) / name / "b"
            run_scenario(cfg, seed=cfg.seeds[0], out_dir=a)
            run_scenario(cfg, seed=cfg.seeds[0], out_dir=b)
            if (a / "tv.csv").read_bytes() != (b / "tv.csv").read_bytes():
                stale.append(name)
    dt = time.perf_counter() - t0
    ok = not stale
    assert _report(10, "tv.csv byte-identical on rerun for every preset", ok,
                   f"presets {sorted(PRESETS)}, mismatches {stale or 'none'}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# gates beyond the ten criteria


def test_finite_bound_at_the_eta_floor():
    # criterion 04's fixtures and prior draws, at the smallest admissible eta,
    # where the bound is tightest and some headlines fall below 1
    t0 = time.perf_counter()
    violations, checks, below_one, worst_margin = _bound_checks(lambda required: required + 1e-9)
    dt = time.perf_counter() - t0
    ok = violations == 0 and below_one > 0 and dt < 120.0
    assert _gate("eta floor", "exact filter gap below the bound at eta_req + 1e-9", ok,
                 f"{violations} violations in {checks} checks, {below_one} headlines below 1, "
                 f"min margin {worst_margin:.3f}, {dt:.1f}s")


def test_non_ergodic_ring_chains():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240819)
    fixtures = [_ring_fixture(rng, 2, 6) for _ in range(200)]
    with_zeros = sum(bool(np.any(f.Q == 0.0)) for f, *_ in fixtures)
    num_bad = den_bad = bound_bad = checks = zero_blocks = 0
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fmodel, ld, ys, nu, nup in fixtures:
            num_bad += not numerator_gap(fmodel, nu, nup, ys, ld).holds
            den_bad += not denominator_gap(fmodel, nu, ys, ld).holds
            required = admissible_eta_finite(fmodel, ld, ys)
            for eta in (required + 1e-9, 0.5 * (1.0 + required)):
                headline, tv = _headline_and_tv(fmodel, ld, ys, nu, nup, eta)
                checks += 1
                bound_bad += tv > headline + 1e-12
            f1, log_z = exact_filter_finite(fmodel, nu, ys)
            exh, log_z_exh = exhaustive_filter_finite(fmodel, nu, ys)
            worst = max(worst, float(np.max(np.abs(f1[-1] - exh))), abs(log_z - log_z_exh))
            # a jump of two bins meets a zero block of Q
            jump = np.array([ys[0], ys[0], (ys[0] + 2) % fmodel.m])
            for check in (lambda: forgetting_bound_finite(fmodel, ld, nu, nup, jump, 0.5, 0.5),
                          lambda: numerator_gap(fmodel, nu, nup, jump, ld),
                          lambda: denominator_gap(fmodel, nu, jump, ld)):
                try:
                    check()
                except ConstructionError:
                    zero_blocks += 1
    dt = time.perf_counter() - t0
    ok = (num_bad == den_bad == bound_bad == 0 and worst <= 1e-10
          and with_zeros == len(fixtures) and zero_blocks == 3 * len(fixtures) and dt < 60.0)
    assert _gate("ring chains", "inequalities, bound and recursion on non-ergodic chains", ok,
                 f"{with_zeros} of {len(fixtures)} fixtures with zeros in Q, "
                 f"{num_bad}/{den_bad} numerator/denominator violations, "
                 f"{bound_bad} bound violations in {checks} checks, recursion gap {worst:.2e}, "
                 f"{zero_blocks} zero blocks raised, {dt:.1f}s")


if __name__ == "__main__":
    import sys

    checks = [fn for name, fn in sorted(globals().items())
              if name.startswith("test_criterion_")]
    failed = 0
    for fn in checks:
        try:
            fn()
        except AssertionError:
            failed += 1
    overall = "PASS" if failed == 0 else "FAIL"
    print(f"OVERALL {overall} ({len(checks) - failed}/{len(checks)} criteria)")
    sys.exit(0 if failed == 0 else 1)

"""The benchmark's layer tracer still finds every package attribute it wraps."""

from ldlab import bounds, filtering, models, scenarios

MODULES = (bounds, filtering, models, scenarios)


def test_tracer_installs_and_restores_every_wrapped_attribute(tracer_module):
    before = [dict(vars(m)) for m in MODULES]
    tracer = tracer_module.Tracer()
    # a name the tracer wraps but the package lost raises AttributeError here
    tracer_module.install_ldlab(tracer)
    try:
        wrapped = list(tracer._installed)
        assert wrapped
        for module, attr, original in wrapped:
            assert getattr(module, attr) is not original
    finally:
        tracer.uninstall()
    for module, attr, original in wrapped:
        assert getattr(module, attr) is original
    after = [dict(vars(m)) for m in MODULES]
    for b, a in zip(before, after):
        assert a.keys() == b.keys()
        assert all(a[k] is b[k] for k in b)


def _short(name, **bound):
    d = scenarios.preset_dict(name)
    d["horizon"] = 10
    d["bound"].update(bound)
    return scenarios.scenario_from_dict(d)


def test_every_timed_layer_is_entered(tracer_module, tmp_path):
    # short runs of each route the benchmark times; a layer whose function the
    # package stopped calling through the wrapped name would read 0 calls
    runs = {
        "fixed": lambda out: scenarios.run_scenario(_short("rw-gauss"), out_dir=out),
        "sweep": lambda out: scenarios.run_scenario(
            _short("rw-gauss", eta="sweep", etas=[0.1, 0.3]), out_dir=out),
        "misspec": lambda out: scenarios.run_scenario(_short("misspec"), out_dir=out),
        "finite": lambda out: scenarios.run_scenario(_short("finite-oracle"), out_dir=out),
        "mc": lambda out: scenarios.monte_carlo_expectation(_short("rw-gauss"), 2, out_dir=out),
    }
    tracer = tracer_module.Tracer()
    tracer_module.install_ldlab(tracer)
    calls = {}
    try:
        for name, run in runs.items():
            tracer.reset()
            run(tmp_path / name)
            calls[name] = tracer.calls.copy()
    finally:
        tracer.uninstall()
    entered = set().union(*calls.values())
    # the exhaustive oracles, and the finite recursion that a finite run's
    # paired route replaced, are entered by the benchmark's direct calls only
    oracles = {"filtering.oracle", "filtering.exact", "bounds.gap"}
    assert set(tracer_module.TIMED_LAYERS) - oracles - entered == set()
    # a sweep assembles one bound per eta through bound_series
    assert calls["sweep"]["bounds.series"] == 1
    assert calls["sweep"]["bounds.fb"] == 2
    assert calls["fixed"]["bounds.series"] == 1
    assert calls["fixed"]["bounds.fb"] == 1
    # a run reports the one integrability diagnostic its data's premise allows
    assert calls["misspec"]["doeblin.diag"] == calls["fixed"]["doeblin.diag"] == 1

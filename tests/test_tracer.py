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

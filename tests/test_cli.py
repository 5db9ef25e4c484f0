"""Command-line interface: subcommands, exit codes, output files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ldlab
from ldlab.scenarios import preset_dict

SMALL = {
    "name": "cli-small",
    "model": {
        "kind": "linear_gaussian",
        "f": {"type": "identity"},
        "h": {"type": "identity"},
        "state_noise": {"kind": "iid", "density": {"family": "gaussian", "sigma": 1.0}},
        "obs_noise": {"family": "gaussian", "sigma": 1.0},
    },
    "prior1": {"family": "normal", "mean": -3.0, "std": 1.0},
    "prior2": {"family": "normal", "mean": 3.0, "std": 1.0},
    "horizon": 10,
    "seeds": [5, 6],
    "repr": {"nodes": 128},
    "bound": {"alpha": 0.5, "eta": 0.1},
}


# The child runs in ``cwd`` (a tmp dir), where a relative PYTHONPATH such as
# ``src`` no longer resolves. Put the directory holding the ldlab imported
# here first, so the child runs this same code with no install needed.
_LDLAB_ROOT = str(Path(ldlab.__file__).resolve().parent.parent)


def _run(*args, cwd):
    rest = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=_LDLAB_ROOT + (os.pathsep + rest if rest else ""))
    return subprocess.run([sys.executable, "-m", "ldlab.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture()
def config_file(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(SMALL))
    return p


def test_simulate_writes_csv(tmp_path, config_file):
    out = tmp_path / "sim"
    r = _run("simulate", "--config", str(config_file), "--out", str(out),
             cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    rows = (out / "sim.csv").read_text().splitlines()
    assert rows[0] == "n,state,obs"
    assert len(rows) == 1 + 11


def test_experiment_full_run(tmp_path, config_file):
    out = tmp_path / "exp"
    r = _run("experiment", "--config", str(config_file), "--out", str(out),
             cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (out / "tv.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 5
    assert report["fit"]["slope"] < 0
    assert report["bound"]["final"]["headline"] <= 1.0


def test_filter_subcommand_skips_bound(tmp_path, config_file):
    out = tmp_path / "flt"
    r = _run("filter", "--config", str(config_file), "--out", str(out),
             cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["bound"] is None
    assert (out / "tv.csv").exists()


def test_a_command_reads_its_scenario_once(tmp_path, monkeypatch, capsys):
    # misspec builds two models, the filter's and the truth's; --eta, --alpha
    # and filter's dropped bound apply to that one read, not to a second one
    from ldlab import cli, scenarios

    builds = []
    real = scenarios.model_from_spec
    monkeypatch.setattr(scenarios, "model_from_spec",
                        lambda spec: builds.append(spec) or real(spec))
    for args in (["filter"], ["experiment", "--eta", "0.2"], ["bound", "--alpha", "0.3"]):
        builds.clear()
        out = tmp_path / args[0]
        assert cli.main([*args, "--preset", "misspec", "--out", str(out)]) == 0
        assert len(builds) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["config_hash"] == scenarios.config_hash(report["config"])
    bound = json.loads((tmp_path / "experiment" / "report.json").read_text())["config"]["bound"]
    assert bound == {"alpha": 0.5, "eta": 0.2}
    assert "bound" not in json.loads((tmp_path / "filter" / "report.json").read_text())["config"]
    # a config that is not an object, or a bad --eta, is still a config error
    p = tmp_path / "list.json"
    p.write_text("[1]")
    assert cli.main(["experiment", "--config", str(p), "--eta", "0.2"]) == 2
    assert cli.main(["experiment", "--preset", "misspec", "--eta", "2"]) == 2
    assert "bound.eta must be a number in (0, 1)" in capsys.readouterr().err


def test_bound_subcommand_and_eta_override(tmp_path, config_file):
    out = tmp_path / "bnd"
    r = _run("bound", "--config", str(config_file), "--eta", "0.3",
             "--out", str(out), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "headline=" in r.stdout
    report = json.loads((out / "report.json").read_text())
    assert report["bound"]["parameters"]["eta"] == 0.3
    lines = (out / "bound.csv").read_text().splitlines()
    assert lines[0].startswith("i,")


def test_bound_subcommand_sweeps_the_configured_etas(tmp_path):
    cfg = dict(SMALL, bound={"alpha": 0.5, "eta": "sweep", "etas": [0.1, 0.3]})
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "bnd"
    r = _run("bound", "--config", str(p), "--out", str(out), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["eta_sweep"]["etas"] == [0.1, 0.3]
    assert len(report["eta_sweep"]["log_totals"]) == 2
    assert report["bound"]["log_total"] == min(report["eta_sweep"]["log_totals"])


def test_numeric_eta_flag_replaces_the_configured_sweep(tmp_path):
    cfg = dict(SMALL, bound={"alpha": 0.5, "eta": "sweep", "etas": [0.1, 0.3]})
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "bnd"
    r = _run("bound", "--config", str(p), "--out", str(out), "--eta", "0.2", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["bound"] == {"alpha": 0.5, "eta": 0.2}
    assert report["eta_sweep"] is None
    assert report["bound"]["parameters"]["eta"] == 0.2


def test_finite_bound_rejects_an_eta_sweep(tmp_path):
    r = _run("bound", "--preset", "finite-oracle", "--eta", "sweep",
             "--out", str(tmp_path / "fo"), cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "bound.eta 'sweep' needs a continuous model" in r.stderr
    assert not (tmp_path / "fo").exists()


def test_preset_and_config_are_exclusive(tmp_path, config_file):
    r = _run("experiment", "--config", str(config_file), "--preset", "rw-gauss",
             cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    r = _run("experiment", cwd=tmp_path)
    assert r.returncode == 2, r.stderr


def test_unknown_preset_is_config_error(tmp_path):
    r = _run("experiment", "--preset", "not-a-preset", cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "unknown preset" in r.stderr


def test_invalid_config_reports_every_problem(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"name": "bad", "horizon": -1, "seeds": [1, 1]}))
    r = _run("experiment", "--config", str(p), cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "prior1" in r.stderr and "horizon" in r.stderr
    # no config runs a particle filter: a particle count is an unknown field
    p.write_text(json.dumps(dict(SMALL, repr={"nodes": 128, "particles": 0})))
    r = _run("filter", "--config", str(p), cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "unknown repr fields: ['particles']" in r.stderr
    # a malformed bound is a config error too, found before any filtering; every
    # bound takes the exact preimage distance, so a distance mode is an unknown field
    p.write_text(json.dumps(dict(SMALL, bound={"alpha": "0.5", "d_mode": "misspec"})))
    r = _run("experiment", "--config", str(p), cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "bound.alpha must be a number in (0, 1), got '0.5'" in r.stderr
    assert "unknown bound fields: ['d_mode']" in r.stderr
    assert "Traceback" not in r.stderr
    # so are a finite set table's problems, and an eta list next to a fixed eta
    for table in ([[], [0, 1]], [[0, 0, 1], [0, 1]]):
        finite = json.loads(json.dumps(ldlab.PRESETS["finite-oracle"]))
        finite["finite"]["set_table"] = table
        p.write_text(json.dumps(finite))
        r = _run("experiment", "--config", str(p), cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "config error" in r.stderr and "'finite': bin 0" in r.stderr
    p.write_text(json.dumps(dict(SMALL, bound={"eta": 0.1, "etas": [0.3]})))
    r = _run("experiment", "--config", str(p), cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "bound.etas is read only with bound.eta 'sweep'" in r.stderr
    # a bare seed, not a list of them, is a config error too
    p.write_text(json.dumps(dict(SMALL, seeds=5)))
    r = _run("experiment", "--config", str(p), cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "'seeds' must be a non-empty list of integers" in r.stderr
    assert "Traceback" not in r.stderr


def test_failed_run_exits_three_with_partial_report(tmp_path):
    bad = dict(SMALL)
    bad["name"] = "cli-degenerate"
    bad["model"] = dict(SMALL["model"])
    bad["model"]["state_noise"] = {"kind": "iid",
                                   "density": {"family": "gaussian", "sigma": 0.01}}
    bad["model"]["obs_noise"] = {"family": "gaussian", "sigma": 0.01}
    bad["prior1"] = {"family": "normal", "mean": -5.0, "std": 0.1}
    bad["prior2"] = {"family": "normal", "mean": 5.0, "std": 0.1}
    p = tmp_path / "degen.json"
    p.write_text(json.dumps(bad))
    for name, eta in (("degen", []), ("degen-sweep", ["--eta", "sweep"])):
        out = tmp_path / name
        r = _run("experiment", "--config", str(p), "--out", str(out), *eta, cwd=tmp_path)
        assert r.returncode == 3
        report = json.loads((out / "report.json").read_text())
        assert report["failure"] is not None


def test_a_bound_failure_exits_three_with_its_record(tmp_path):
    # finite-oracle with one state per bin: eta 0.05 is below the stream's
    # outside-set emission ratio, so the bound does not apply
    config = preset_dict("finite-oracle")
    config["finite"]["set_table"] = [[0], [1]]
    config["bound"]["eta"] = 0.05
    p = tmp_path / "h2.json"
    p.write_text(json.dumps(config))
    out = tmp_path / "h2"
    r = _run("experiment", "--config", str(p), "--out", str(out), cwd=tmp_path)
    assert r.returncode == 3
    report = json.loads((out / "report.json").read_text())
    assert report["failure"]["error"] == "H2FailureError"
    assert report["failure"]["step"] is None
    assert report["bound"] is None and report["fit"] is not None
    assert json.dumps(report["failure"], sort_keys=True) in r.stderr
    assert (out / "tv.csv").read_text().splitlines()[0] == "n,tv,log_tv"


def test_mc_exits_three_when_every_bound_fails(tmp_path):
    config = preset_dict("finite-oracle")
    config["finite"]["set_table"] = [[0], [1]]
    config["bound"]["eta"] = 0.05
    p = tmp_path / "h2.json"
    p.write_text(json.dumps(config))
    out = tmp_path / "mc"
    r = _run("mc", "--config", str(p), "--replicates", "3", "--out", str(out), cwd=tmp_path)
    assert r.returncode == 3, r.stderr
    payload = json.loads((out / "report.json").read_text())
    assert [f["error"] for f in payload["failures"]] == ["H2FailureError"] * 3
    assert all(f["step"] is None for f in payload["failures"])
    # every series is whole, so the mean is finite
    rows = (out / "mc_tv.csv").read_text().splitlines()
    assert len(rows) == 1 + config["horizon"] + 1
    assert not any("nan" in row for row in rows)


def test_mc_subcommand(tmp_path, config_file):
    out = tmp_path / "mc"
    r = _run("mc", "--config", str(config_file), "--replicates", "2",
             "--out", str(out), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    rows = (out / "mc_tv.csv").read_text().splitlines()
    assert rows[0] == "n,mean_tv,stderr_tv"
    assert len(rows) == 1 + 11
    payload = json.loads((out / "report.json").read_text())
    assert payload["replicates"] == 2
    assert len(payload["per_replicate"]) == 2


def test_seed_override_changes_output(tmp_path, config_file):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    r1 = _run("experiment", "--config", str(config_file), "--out", str(out1),
              cwd=tmp_path)
    r2 = _run("experiment", "--config", str(config_file), "--seed", "99",
              "--out", str(out2), cwd=tmp_path)
    assert r1.returncode == 0 and r2.returncode == 0
    # a linear-Gaussian pair's TV does not depend on the data, so compare the
    # filter's final posterior, which does
    a, b = (json.loads((out / "report.json").read_text()) for out in (out1, out2))
    assert not np.allclose(a["diagnostics"]["final_posterior_mean_std"],
                           b["diagnostics"]["final_posterior_mean_std"])
    assert b["seed"] == 99


def test_version_flag(tmp_path):
    r = _run("--version", cwd=tmp_path)
    assert r.returncode == 0
    assert r.stdout.strip()

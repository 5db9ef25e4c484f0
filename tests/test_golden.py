"""Every preset's first-seed ``tv.csv``, pinned by its sha256, the
finite-oracle preset's ``report.json``, which carries its exact bound, and
every file each CLI subcommand writes on finite-oracle and rw-gauss.

A preset's outputs may change only on purpose: a change that moves one of
these digests updates it here and says why in CHANGES.md.
"""

import hashlib

import pytest

from ldlab import cli
from ldlab.scenarios import PRESETS, preset_config, run_scenario

TV_CSV_SHA256 = {
    "ar-unstable": "1942efeb5d8114451a9d7b89dfa8bc234dbec5c6e3e11000176a0c6d1c4aa7a0",
    "dep-noise": "c39e001147fa1cc81a24cf7c2041da626d7c7bac705f5c70f9e17865fc82fbeb",
    "finite-oracle": "cc31b8e3073dc8d831f17217836880f8abd83f32cb349e287190bb4ea3a0aa95",
    "misspec": "e193a5fdce83867e29b2673eaba28d179bbda9d6caa65948f51d310b232ee01d",
    "rw-gauss": "b6fa235721be361c92d9ed14c8ce7aa280613fc3cdbbb01509385c19f027e04b",
}

REPORT_JSON_SHA256 = {
    "finite-oracle": "d3d61e2029bf6c74309bec0c2106c5946ceeb80e8b138af5b7b1ade81ca3c78d",
}


def test_every_preset_is_pinned():
    assert sorted(TV_CSV_SHA256) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(TV_CSV_SHA256))
def test_first_seed_tv_csv_matches_its_digest(name, tmp_path):
    run_scenario(preset_config(name), out_dir=tmp_path)
    digest = hashlib.sha256((tmp_path / "tv.csv").read_bytes()).hexdigest()
    assert digest == TV_CSV_SHA256[name]


@pytest.mark.parametrize("name", sorted(REPORT_JSON_SHA256))
def test_first_seed_report_json_matches_its_digest(name, tmp_path):
    run_scenario(preset_config(name), out_dir=tmp_path)
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == REPORT_JSON_SHA256[name]


# Every file each CLI run writes, pinned by one sha256 over the sorted relative
# paths and bytes: sim.csv, tv.csv, tv.meta.json, bound.csv, mc_tv.csv, every
# report.json and plotdata/*.dat.
CLI_RUNS = {
    "simulate": ("simulate",),
    "filter": ("filter",),
    "bound": ("bound",),
    "experiment": ("experiment",),
    "mc": ("mc", "--replicates", "3"),
    "bound-sweep": ("bound", "--eta", "sweep"),
}

ARTIFACTS_SHA256 = {
    ("finite-oracle", "simulate"): "d96fb0c2438dbdc904d88eed76036868157179a10ea7be167920172326ad5b58",
    ("finite-oracle", "filter"): "41524d083140b489476c527207cd32d3b25a099786cb7fd00d5e95badbc44d1c",
    ("finite-oracle", "bound"): "c1f79fa133bd8ba95fb47fcc3a1086781d3ed9a55bfa3da4161e3bae46978002",
    ("finite-oracle", "experiment"): "668f805b0b4d7ff6128197331f6a32a14cd91da02817c38d5520483f172504a1",
    ("finite-oracle", "mc"): "a1311e083449257cedf3adaf2788d1cb318ac763d92fb07fdec8b07121b4be05",
    ("rw-gauss", "simulate"): "e9622146b5a25f88583086df4f2a5f7efd85736a465dd8625d6e194c27e8a7f6",
    ("rw-gauss", "filter"): "a578f0004f41594da854c775bb2118d2f26865c38475e1e374779de6345f3dac",
    ("rw-gauss", "bound"): "18374725726dd3b1289255a83abba9f7be3aa5f6f47114aba3d1dd7fa323e38b",
    ("rw-gauss", "experiment"): "5381d19890bd76d58ee867baafa9ddc5e880f88346601afbaf7b0bd9fc5f72fb",
    ("rw-gauss", "mc"): "8c0ca05621f35222a45544a9b998cb6aa590ae47559f3b9ef183bb192d86d8db",
    ("rw-gauss", "bound-sweep"): "21588227e16b416a5edb300c21d3620dbe80fbc08a2d3909ffde39b36c7c91ec",
}


def _tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("preset, run", sorted(ARTIFACTS_SHA256))
def test_every_artifact_of_a_cli_run_matches_its_digest(preset, run, tmp_path, capsys):
    command, *flags = CLI_RUNS[run]
    assert cli.main([command, "--preset", preset, "--out", str(tmp_path), *flags]) == 0
    assert _tree_digest(tmp_path) == ARTIFACTS_SHA256[preset, run]

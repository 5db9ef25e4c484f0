"""Every preset's first-seed ``tv.csv``, pinned by its sha256, and the
finite-oracle preset's ``report.json``, which carries its exact bound.

A preset's TV series may change only on purpose: a change that moves one of
these digests updates it here and says why in CHANGES.md.
"""

import hashlib

import pytest

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

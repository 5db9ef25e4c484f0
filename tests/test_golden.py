"""Every preset's first-seed ``tv.csv``, pinned by its sha256, and the
finite-oracle preset's ``report.json``, which carries its exact bound.

A preset's TV series may change only on purpose: a change that moves one of
these digests updates it here and says why in CHANGES.md.
"""

import hashlib

import pytest

from ldlab.scenarios import PRESETS, preset_config, run_scenario

TV_CSV_SHA256 = {
    "ar-unstable": "2ca4a73fabd83db5a18acc51c9005eda71adf65c69d6eaa11a2d104952a56cfe",
    "dep-noise": "036bb0bbc1215492a22b6368d2963dedea1c76e2bc93a52d38b2fe83b1361062",
    "finite-oracle": "cc31b8e3073dc8d831f17217836880f8abd83f32cb349e287190bb4ea3a0aa95",
    "misspec": "426f38fac8ef5b491abda5eb67d3050b0016c44499b0dbed8fadce606a7fff58",
    "rw-gauss": "d92bc20684d821c2548ea4e97916168419db58c04e9b8a9fda1fd74f6dc9108a",
}

REPORT_JSON_SHA256 = {
    "finite-oracle": "6bdba787e4d876227373410580d6f9db27552c5b92ec574bdc7214a466ea99c9",
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

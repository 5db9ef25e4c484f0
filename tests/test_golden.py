"""Every preset's first-seed ``tv.csv``, pinned by its sha256, and the
finite-oracle preset's ``report.json``, which carries its exact bound.

A preset's TV series may change only on purpose: a change that moves one of
these digests updates it here and says why in CHANGES.md.
"""

import hashlib

import pytest

from ldlab.scenarios import PRESETS, preset_config, run_scenario

TV_CSV_SHA256 = {
    "ar-unstable": "42f91909062c4f0b428d857f518a545b72a39fa0906876815d9e8a73cbfc86eb",
    "dep-noise": "d4d6b02bde7cf5b324c81a37f9508e428d4ae419941f31fac9b012374717cbd6",
    "finite-oracle": "cc31b8e3073dc8d831f17217836880f8abd83f32cb349e287190bb4ea3a0aa95",
    "misspec": "426f38fac8ef5b491abda5eb67d3050b0016c44499b0dbed8fadce606a7fff58",
    "rw-gauss": "ef08425110b14a2f6a3631ba1d15494f0b06cfdcc6b44be9164122fce7e455ce",
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

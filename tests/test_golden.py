"""Byte snapshots of the catalog reports and of generated reflection groups.

tests/golden/<name>.json holds render_json(analyze(name)) for every catalog
entry, and tests/golden/generated/<name>.json the report of each group in
generated_groups.GENERATED.  A change that alters report bytes on purpose
must regenerate them."""

from pathlib import Path

import pytest

from generated_groups import GENERATED
from invlat.catalog import catalog_names
from invlat import report
from invlat.report import analyze, render_json

GOLDEN = Path(__file__).parent / "golden"


def test_every_catalog_entry_has_a_snapshot():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(catalog_names())


@pytest.mark.parametrize("name", catalog_names())
def test_report_bytes_match_snapshot(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert render_json(analyze(name)) == expected


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_report_bytes_match_snapshot(name):
    obj, order = GENERATED[name]
    expected = (GOLDEN / "generated" / f"{name}.json").read_text(encoding="utf-8")
    report = analyze(obj)
    assert report["group"]["order"] == order
    assert render_json(report) == expected


@pytest.mark.parametrize("first,second", [
    ("example-non-generic", "example-non-ci"),
    ("example-non-ci", "example-non-generic"),
])
def test_quaternion_presets_keep_their_bytes_when_analyzed_again(first, second):
    # both presets read one Q8 profile per process, which no report may change
    report._q8_analysis.cache_clear()
    for name in (first, second, "Q8", first, second, "Q8"):
        expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        assert render_json(analyze(name)) == expected

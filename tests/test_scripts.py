"""The scripts under scripts/ run to completion and print something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from invlat.catalog import catalog_names
from invlat.report import analyze

from oracles import render_json_by_dumps

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["run_catalog.py"],
        ["reflection_survey.py"],
        ["quaternion_dichotomy.py", "--denominator-bound", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv):
    result = run_script(argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_dichotomy_sweep_matches_snapshot():
    # bound 3 reaches 24 directions off the axes; bound 2 only the six axes
    result = run_script(["quaternion_dichotomy.py", "--denominator-bound", "3"])
    assert result.returncode == 0, result.stderr
    snapshot = ROOT / "tests" / "golden" / "quaternion_dichotomy_b3.txt"
    assert result.stdout == snapshot.read_text()


def test_catalog_json_is_the_dumps_text_of_every_report():
    reports = {name: analyze(name) for name in catalog_names()}
    result = run_script(["run_catalog.py", "--json"])
    assert result.returncode == 0, result.stderr
    assert result.stdout == render_json_by_dumps(reports) + "\n"


def run_script(argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )

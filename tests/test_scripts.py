"""The scripts under scripts/ run to completion and print something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()

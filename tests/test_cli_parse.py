"""The two parsers of the verb table.

`cli._parse_plain` reads a plain command line; argparse, built from the same
table by `cli.build_parser`, reads every other one.  tests/golden/cli_help
holds each `-h` page at COLUMNS=80 as the hand-written argparse tree printed
it, and the table-built parser must print the same bytes.  The benchmark's
command lines must never build argparse, and a fresh `invlat analyze` on one
must not import it.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from invlat import cli
from invlat.catalog import catalog_names
from invlat.cli import main

from generated_groups import GENERATED

HELP = Path(__file__).parent / "golden" / "cli_help"
SRC = str(Path(__file__).resolve().parents[1] / "src")
LADDER = ("WeylB3", "G3-1-2", "G4-1-2", "G6-1-2", "G3-1-3")


@pytest.mark.parametrize("verb", ["invlat", *cli.VERBS])
def test_help_pages_match_the_goldens(monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["-h"] if verb == "invlat" else [verb, "-h"]
    with redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert out.getvalue() == (HELP / f"{verb}.txt").read_text(encoding="utf-8")


def _benchmark_lines(tmp_path):
    """The command lines of the catalog and reflection-ladder workloads, with
    the exit code each should give."""
    lines = [(["analyze", name, "--json"], 0) for name in catalog_names()]
    malformed = {
        "reducible": ([[["1", "0"], ["0", "-1"]]], [], 2),
        "unipotent": ([[["1", "1"], ["0", "1"]]], ["--cap", "50"], 3),
    }
    for stem, (generators, extra, code) in malformed.items():
        path = tmp_path / f"malformed-{stem}.json"
        path.write_text(json.dumps(
            {"conductor": 1, "dimension": 2, "generators": generators}), encoding="utf-8")
        lines.append((["analyze", str(path), "--json", *extra], code))
    for name in LADDER:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(GENERATED[name][0]), encoding="utf-8")
        lines.append((["analyze", str(path), "--json"], 0))
    return lines


def test_benchmark_lines_never_build_argparse(monkeypatch, tmp_path):
    def no_parser():
        raise AssertionError("argparse built")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    for argv, expected in _benchmark_lines(tmp_path):
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code == expected, argv
        assert (out.getvalue() != "") == (expected == 0), argv


@pytest.mark.parametrize("argv", [
    ["analyze", "C5-zeta5"],
    ["analyze", "Q8", "--cap", "100000", "--json"],
    ["catalog"],
    ["catalog", "--json"],
    ["construct", "S3-standard", "--c", "z3", "--recipe", "ds", "--json", "--cap", "5"],
    ["construct", "G4", "--recipe", "saturate"],
    ["decompose", "WeylB2", "--json"],
    ["analyze", ""],
    ["construct", "x", "--recipe", "O", "--c", ""],
])
def test_plain_lines_give_argparse_namespace(argv):
    plain = cli._parse_plain(argv)
    assert plain is not None
    assert vars(plain) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    [],
    ["analyse", "Q8"],
    ["analyze"],
    ["analyze", "--json", "Q8"],
    ["analyze", "-Q8"],
    ["analyze", "Q8", "extra"],
    ["analyze", "Q8", "--js"],
    ["analyze", "Q8", "--json", "--json"],
    ["analyze", "Q8", "--cap=5"],
    ["analyze", "Q8", "--cap"],
    ["analyze", "Q8", "--cap", "-5"],
    ["analyze", "Q8", "--cap", "0"],
    ["analyze", "Q8", "--cap", "100001"],
    ["analyze", "Q8", "--cap", "five"],
    ["analyze", "Q8", "--", "--json"],
    ["analyze", "Q8", "-h"],
    ["catalog", "Q8"],
    ["construct", "G4"],
    ["construct", "G4", "--recipe", "Zm"],
    ["construct", "G4", "--recipe", "ds", "--c", "-z3"],
    ["decompose", "WeylB2", "--recipe", "Zn"],
    ["analyze", "S3-standard", "--seed", "1"],
])
def test_other_lines_are_left_to_argparse(argv):
    assert cli._parse_plain(argv) is None


def test_a_bad_cap_gets_argparse_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "Q8", "--cap", "0"])
    assert exc.value.code == 2
    assert "argument --cap: must be at least 1, got 0" in capsys.readouterr().err


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["invlat", "catalog", "--json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)[0]["name"] == catalog_names()[0]


def _fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.stderr == ""
    return result.stdout.splitlines()[-1]


LOADED = "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))"


def test_a_plain_analyze_imports_no_argparse():
    last = _fresh(
        "import sys\nimport invlat.cli\n"
        "code = invlat.cli.main(['analyze', 'C5-zeta5', '--json'])\n"
        f"assert code == 0\n{LOADED}\n"
    )
    assert last == "[]"


def test_help_imports_argparse():
    last = _fresh(
        "import contextlib, io, sys\nimport invlat.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        invlat.cli.main(['analyze', 'C5-zeta5', '-h'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0\n"
        f"{LOADED}\n"
    )
    assert "'argparse'" in last

import argparse
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from invlat import cli, cyclotomic, groups, reflections, report, schur
from invlat.catalog import catalog_names, get_entry
from invlat.cyclotomic import CycNum, parse_scalar
from invlat.cli import main
from invlat.forge import ImaginaryQuadraticOrder, split_as_order_module
from invlat.groups import group_from_json
from invlat.lattices import invariance_check, lattice_from_generators
from invlat.errors import InvalidInputError, NotDiscreteError
from invlat.report import analyze, render_json

from generated_groups import GENERATED
from oracles import lattice_from_json, order_saturate, render_json_by_dumps, sparse

GOLDEN = Path(__file__).parent / "golden"
# integral doubling scalars whose order Z[c] is euclidean
EUCLIDEAN_SCALARS = ["z4", "z3", "1+z4", "z8+z8^3", "3+z3", "-z3", "z3^2", "z7+z7^2+z7^4"]

TOP_KEYS = {
    "schema", "input", "group", "profile", "verdict",
    "lattices", "split", "reflection", "quaternion", "structure",
}


@pytest.fixture(scope="module")
def reports():
    return {name: analyze(name) for name in catalog_names()}


def test_schema_shape(reports):
    for name, rep in reports.items():
        assert set(rep) == TOP_KEYS
        assert rep["schema"] == "torus-report/1"
        assert rep["input"]["name"] == name


def test_decision_table(reports):
    expected = {
        "S3-standard": ("c-i", True, True),
        "S4-standard": ("c-i", True, True),
        "WeylA2": ("c-i", True, True),
        "WeylB2": ("c-i", True, True),
        "G4": ("c-i", False, True),
        "Q8": ("c-ii", False, True),
        "C3-zeta3": ("c-i", False, True),
        "C4-zeta4": ("c-i", False, True),
        "C5-zeta5": ("none", False, False),
    }
    for name, (clause, rank_n, rank_2n) in expected.items():
        verdict = reports[name]["verdict"]
        assert verdict["clause"] == clause, name
        assert verdict["exists_rank_n"] == rank_n, name
        assert verdict["exists_rank_2n"] == rank_2n, name


def test_recipes_follow_clause(reports):
    assert [e["recipe"] for e in reports["S3-standard"]["lattices"]] == ["Zn", "ds"]
    assert [e["recipe"] for e in reports["G4"]["lattices"]] == ["O", "saturate"]
    assert [e["recipe"] for e in reports["Q8"]["lattices"]] == ["ds"]
    assert reports["C5-zeta5"]["lattices"] == []
    for rep in reports.values():
        for entry in rep["lattices"]:
            assert entry["invariant"] is True


def test_generators_decide_invariance_like_all_elements(reports):
    # a generating set maps L into L exactly when the whole group does; the
    # rank-one span of a basis vector gives cases where both answers are False
    verdicts = set()
    for name, rep in reports.items():
        entry = get_entry(name)
        if entry.kind != "group":
            continue
        group = entry.group()
        for item in rep["lattices"]:
            lattice = lattice_from_json(item["lattice"])
            line = lattice_from_generators(lattice.vectors()[:1], dim=lattice.dim)
            for lat in (lattice, line):
                verdict = invariance_check(lat, group.sparse_generators)
                assert verdict == invariance_check(lat, sparse(group.elements)), name
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_ds_preset_is_checked_once(monkeypatch):
    calls = []

    def counting(lattice, matrices):
        calls.append(lattice.rank)
        return invariance_check(lattice, matrices)

    monkeypatch.setattr(report, "invariance_check", counting)
    analyze("Q8")
    assert calls == [4]
    monkeypatch.setattr(report, "invariance_check", lambda lattice, matrices: False)
    with pytest.raises(InvalidInputError, match="preset doubling lattice is not invariant"):
        analyze("Q8")
    # Q8 has no invariant rank-n lattice, so the preset base Z^2 is not
    # invariant, and the check cannot move from the doubled lattice to it
    entry = get_entry("Q8")
    base = lattice_from_generators(
        [tuple(CycNum.rational(x) for x in row) for row in entry.ds_base]
    )
    assert not invariance_check(base, entry.group().sparse_generators)


def test_orbit_lattices_take_invariance_from_their_construction(monkeypatch):
    # the Zn and O lattices are closed under the generators as they are
    # built, and Zn + c*Zn is invariant by linearity; only Q8's preset
    # doubled lattice, over a base that is not invariant, is checked
    calls = []

    def counting(lattice, matrices):
        calls.append(lattice.rank)
        return invariance_check(lattice, matrices)

    monkeypatch.setattr(report, "invariance_check", counting)
    for name, checks in (("S3-standard", []), ("G4", []), ("Q8", [4])):
        calls.clear()
        rep = analyze(name)
        assert calls == checks, name
        group = get_entry(name).group()
        for entry in rep["lattices"]:
            lattice = lattice_from_json(entry["lattice"])
            assert entry["invariant"] is invariance_check(lattice, sparse(group.elements))


def test_structure_tags(reports):
    assert reports["G4"]["structure"]["tags"] == ["nonrationalT", "main2", "geom"]
    assert reports["Q8"]["structure"]["tags"] == ["ratL"]
    assert reports["S3-standard"]["structure"]["tags"] == ["geom"]
    assert reports["example-non-generic"]["structure"]["tags"] == ["deform", "ratL"]
    assert reports["C5-zeta5"]["structure"]["tags"] == []


def test_abelian_conclusions(reports):
    assert reports["S3-standard"]["structure"]["abelian"] is True
    assert reports["G4"]["structure"]["abelian"] is True
    assert reports["Q8"]["structure"]["abelian"] is True
    assert reports["C5-zeta5"]["structure"]["abelian"] is None
    assert reports["example-non-generic"]["structure"]["abelian"] is False
    assert reports["example-non-ci"]["structure"]["abelian"] is True


def test_quaternion_section(reports):
    generic = reports["example-non-generic"]["quaternion"]
    assert generic["endomorphisms"]["rank"] == 4
    assert generic["endomorphisms"]["structure_tag"] == "order-in-definite-quaternion"
    ci = reports["example-non-ci"]["quaternion"]
    assert ci["endomorphisms"]["rank"] == 8
    assert ci["endomorphisms"]["center_discriminant"] == -4
    for rep_name in ["example-non-generic", "example-non-ci"]:
        sub = reports[rep_name]["quaternion"]["subfield"]
        assert sub["t"] == "-1"


def test_reflection_sections(reports):
    s3_geo = reports["S3-standard"]["reflection"]
    assert s3_geo["tags"] == ["geom-i", "geom-ii"]
    assert s3_geo["weyl_like"] is True
    g4_geo = reports["G4"]["reflection"]
    assert g4_geo["tags"] == ["geom-i", "geom-ii", "geom-iii"]
    assert g4_geo["cm"]["value"] == "1 - z3"
    assert reports["Q8"]["reflection"] is None
    assert reports["C5-zeta5"]["reflection"] is None


def test_split_sections(reports):
    q8_split = reports["Q8"]["split"]
    assert q8_split["module_rank"] == 2
    assert q8_split["order"]["discriminant"] == -4
    assert len(q8_split["factors"]) == 2
    assert q8_split["factor_isogenies"][0]["scalar"] is not None
    g4_split = reports["G4"]["split"]
    assert g4_split["order"]["discriminant"] == -3


def _golden_reports():
    """name -> report of every catalog entry and generated group, from the
    goldens, which test_golden pins to `analyze`."""
    paths = sorted(GOLDEN.glob("*.json")) + sorted((GOLDEN / "generated").glob("*.json"))
    return {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in paths}


@pytest.fixture(scope="module")
def ds_bases():
    """name -> (group, base) for every report with a ds lattice: the base is
    its Zn lattice, or the catalog's preset base."""
    out = {}
    for name, rep in _golden_reports().items():
        recipes = {item["recipe"]: item for item in rep["lattices"]}
        if "ds" not in recipes:
            continue
        if name in GENERATED:
            group = group_from_json(GENERATED[name][0])
        else:
            entry = get_entry(name)
            group = entry.group()
        if "Zn" in recipes:
            base = lattice_from_json(recipes["Zn"]["lattice"])
        else:
            base = lattice_from_generators(
                [tuple(CycNum.rational(x) for x in row) for row in entry.ds_base]
            )
        out[name] = (group, base)
    return out


@pytest.mark.parametrize("c", EUCLIDEAN_SCALARS)
def test_ds_split_is_the_euclidean_split(ds_bases, c):
    assert sorted(ds_bases) == [
        "Q8", "S3-standard", "S4-standard", "WeylA2", "WeylB2", "WeylB3",
    ]
    for name, (group, base) in ds_bases.items():
        doubled, _, split = report._doubled(base, parse_scalar(c))
        assert split.basis == base.vectors(), name
        assert split == split_as_order_module(doubled, split.order), name


@pytest.mark.parametrize("c, disc", [("2*z4", -16), ("1+2*z4", -16), ("2*z3", -12)])
def test_a_non_euclidean_scalar_order_splits_on_the_base_basis(c, disc):
    entry = get_entry("S3-standard")
    rep = report.GroupAnalysis(
        entry.group(), entry=entry, doubling_scalar=parse_scalar(c)
    ).report()
    base = lattice_from_json(rep["lattices"][0]["lattice"])
    split = rep["split"]
    assert split["order"]["discriminant"] == disc
    assert split["order"]["euclidean"] is False
    assert split["basis"] == [[str(x) for x in v] for v in base.vectors()]
    assert rep["structure"]["abelian"] is True


def test_only_a_scalar_outside_its_ring_splits_by_euclidean_reduction(monkeypatch):
    calls = []
    real = report.split_as_order_module

    def counting(lattice, order):
        calls.append(order.discriminant)
        return real(lattice, order)

    monkeypatch.setattr(report, "split_as_order_module", counting)
    entry = get_entry("S3-standard")
    group = entry.group()

    def split_of(c):
        analysis = report.GroupAnalysis(group, entry=entry, doubling_scalar=parse_scalar(c))
        return analysis.report()["split"]

    assert split_of("z4")["order"]["discriminant"] == -4
    assert calls == []
    assert split_of("1/2+1/2*z4")["order"]["discriminant"] == -4
    assert calls == [-4]
    assert split_of("1/2*z4") is None  # Z + Z*i/2 is an ideal of Z[2i]
    assert split_of("z5") is None  # Z + Z*z5 has multiplier ring Z
    assert calls == [-4]


def test_the_orbit_lattice_is_its_own_saturation():
    seen = []
    for name, rep in _golden_reports().items():
        recipes = {item["recipe"]: item for item in rep["lattices"]}
        if "O" not in recipes:
            continue
        orbit = lattice_from_json(recipes["O"]["lattice"])
        order = ImaginaryQuadraticOrder.from_discriminant(
            recipes["O"]["order"]["discriminant"]
        )
        assert order_saturate(orbit, order) == orbit, name
        assert recipes["saturate"] == dict(
            recipes["O"], recipe="saturate", index_over_input=1
        ), name
        seen.append(name)
    assert seen == ["C3-zeta3", "C4-zeta4", "G4", "G3-1-2", "G3-1-3", "G4-1-2", "G6-1-2"]


def test_render_is_deterministic():
    a = render_json(analyze("G4"))
    b = render_json(analyze("G4"))
    assert a == b
    parsed = json.loads(a)
    assert parsed["schema"] == "torus-report/1"


# report-like text: quotes, backslashes, control and non-ASCII characters
report_text = st.text(
    alphabet=st.characters() | st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028é√z'),
    max_size=12,
)
report_ints = st.integers(min_value=-(2**80), max_value=2**80) | st.sampled_from(
    [2**64, 2**64 + 1, -(2**64), 0, -1]
)
report_values = st.recursive(
    st.none() | st.booleans() | report_ints | report_text,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(report_text, max_size=5)
    | st.lists(report_ints, max_size=5)
    | st.dictionaries(report_text, inner, max_size=5),
    max_leaves=30,
)


@given(report_values)
@settings(max_examples=400, deadline=None)
def test_render_writes_the_bytes_of_json_dumps(value):
    assert render_json(value) == render_json_by_dumps(value)


def test_render_writes_any_depth():
    value = "leaf"
    for depth in range(150):
        value = {"k": value, "n": [depth, -depth]} if depth % 2 else [value, [], {}, True, None]
    assert render_json(value) == render_json_by_dumps(value)


@pytest.mark.parametrize("value", [1.5, [0.0], {"x": {"y": float("nan")}}, {1: "a"}, {"a": {2}}])
def test_render_rejects_a_value_outside_the_report_types(value):
    with pytest.raises(TypeError):
        render_json(value)


def test_analyze_inline_group_dict():
    rep = analyze({
        "dimension": 2,
        "conductor": 1,
        "generators": [[-1, 1, 0, 1], [1, 0, 1, -1]],
    })
    assert rep["verdict"]["clause"] == "c-i"
    assert rep["input"]["name"] is None


# command-line entry point


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "field, value",
    [
        ("dimension", groups.MAX_DIMENSION + 1),
        ("conductor", cyclotomic.MAX_CONDUCTOR + 1),
        ("generators", [[[1]]] * (groups.MAX_GENERATORS + 1)),
    ],
)
def test_cli_rejects_an_input_over_a_limit_with_exit_2(tmp_path, capsys, field, value):
    obj = {"dimension": 1, "conductor": 1, "generators": [[[1]]]}
    obj[field] = value
    path = tmp_path / "group.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 2
    assert "limit" in err
    assert out == ""


@pytest.mark.parametrize(
    "field, value",
    [
        ("dimension", float("inf")),
        ("conductor", float("-inf")),
        ("generators", [[{"conductor": 3, "coeffs": [[1, 1], [float("inf"), 1]]}]]),
    ],
)
def test_cli_rejects_an_infinite_number_with_exit_2(tmp_path, capsys, field, value):
    # json reads Infinity, and int() of it raises OverflowError
    obj = {"dimension": 1, "conductor": 3, "generators": [[[1]]]}
    obj[field] = value
    path = tmp_path / "group.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 2
    assert "encoding" in err
    assert out == ""


def test_cli_reports_a_failed_library_check_as_exit_4(capsys, monkeypatch):
    # a root functional matrix whose zero pattern is not symmetric breaks
    # the isogeny graph's check that the edges join non-orthogonal roots
    one, nil = CycNum.rational(1), CycNum.rational(0)
    monkeypatch.setattr(
        reflections, "root_functional_matrix", lambda refs: ((one, one), (nil, one))
    )
    code, out, err = run_cli(capsys, "analyze", "S3-standard")
    assert code == 4
    assert out == ""
    assert "asymmetric zero pattern" in err


def test_cli_reports_a_failed_character_field_check_as_exit_4(capsys, monkeypatch):
    # the character field of C5 is Q(z5), of degree 4; a degree misread as 2
    # makes the generator z5 look quadratic, and (z5 - conj z5)^2, which the
    # discriminant is read off, is not a negative rational
    monkeypatch.setattr(schur, "_field_degree", lambda values: 2)
    code, out, err = run_cli(capsys, "analyze", "C5-zeta5")
    assert code == 4
    assert out == ""
    assert "not a negative rational" in err


def test_cli_analyze_human(capsys):
    code, out, err = run_cli(capsys, "analyze", "S3-standard")
    assert code == 0
    assert "verdict" in out
    assert "c-i" in out
    assert err == ""


def test_cli_analyze_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Q8", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"]["clause"] == "c-ii"


def test_cli_analyze_group_file(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({
        "dimension": 1,
        "conductor": 4,
        "generators": [[{"conductor": 4, "coeffs": [["0", "1"], ["1", "1"]]}]],
    }))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert json.loads(out)["verdict"]["clause"] == "c-i"


def test_cli_catalog(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    for name in catalog_names():
        assert name in out


def test_cli_construct(capsys):
    code, out, _ = run_cli(capsys, "construct", "S3-standard", "--recipe", "Zn")
    assert code == 0
    assert "rank" in out
    code, out, _ = run_cli(
        capsys, "construct", "G4", "--recipe", "O", "--json"
    )
    assert code == 0
    assert json.loads(out)["recipe"] == "O"


def test_cli_construct_custom_scalar(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "S3-standard", "--recipe", "ds", "--c", "z3", "--json"
    )
    assert code == 0
    entry = json.loads(out)
    assert entry["scalar"] == "z3"
    assert entry["rank"] == 4


# the order Z[m*zN] has m^2 times the discriminant of Z[zN], here for
# m = 10000019 and m = 1000000016000000063 = 1000000007 * 1000000009; its
# square class has only primes of N, so finding it takes a few divisions
@pytest.mark.parametrize("scalar", ["10000019*z4", "1000000016000000063*z3"])
def test_cli_construct_with_a_large_scalar_exits_in_bounded_time(capsys, scalar):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "construct", "S3-standard", "--recipe", "ds", "--c", scalar, "--json"
    )
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert elapsed < 2, elapsed
    entry = json.loads(out)
    assert (entry["scalar"], entry["rank"], entry["invariant"]) == (scalar, 4, True)
    if scalar == "10000019*z4":
        golden = GOLDEN / "construct" / "S3-standard-ds-10000019z4.json"
        assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    # Q8's ds lattice is the preset one, built with z4
    ["Q8", "--recipe", "ds", "--c", "z3"],
    # the O lattice takes no doubling scalar
    ["C3-zeta3", "--recipe", "O", "--c", "5"],
    ["S3-standard", "--recipe", "Zn", "--c", "z3"],
])
def test_cli_construct_rejects_an_unused_scalar(capsys, argv):
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == 2
    assert out == ""
    assert "--c" in err


def test_cli_decompose(capsys):
    code, out, _ = run_cli(capsys, "decompose", "WeylB2")
    assert code == 0
    assert "line 0" in out
    assert "line 1" in out


def test_cli_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", "nosuch-entry")
    assert code == 2
    assert "unknown catalog name" in err

    path = tmp_path / "reducible.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "conductor": 1,
        "generators": [[["1", "0"], ["0", "-1"]]],
    }))
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "reducible" in err

    code, _, err = run_cli(capsys, "construct", "C5-zeta5", "--recipe", "Zn")
    assert code == 2

    code, _, err = run_cli(capsys, "decompose", "Q8")
    assert code == 2

    code, _, err = run_cli(capsys, "decompose", "G4", "--cap", "3")
    assert code == 3
    assert "cap of 3" in err


def test_cap_leaves_a_quaternion_torus_alone(capsys):
    # the input names no group; Q8, the reference, is closed under the default
    code, out, err = run_cli(capsys, "analyze", "example-non-ci", "--json", "--cap", "1")
    assert (code, err) == (0, "")
    golden = Path(__file__).parent / "golden" / "example-non-ci.json"
    assert out == golden.read_text(encoding="utf-8") + "\n"


def test_a_group_no_n_reflections_generate_has_no_reflection_section():
    # G(4,2,2): order 16 with 6 reflections, and no 2 of them generate it
    doc = {
        "dimension": 2,
        "conductor": 4,
        "generators": [
            [["0", "1"], ["1", "0"]],
            [["0", "-z4"], ["z4", "0"]],
            [["-1", "0"], ["0", "1"]],
        ],
    }
    rep = analyze(doc)
    assert (rep["group"]["order"], rep["group"]["reflections"]) == (16, 6)
    assert rep["verdict"]["clause"] == "c-i"
    assert rep["reflection"] is None
    assert "geom" not in rep["structure"]["tags"]


def test_a_lattice_fault_in_the_reflection_stage_is_not_hidden(capsys, monkeypatch):
    def not_discrete(dec):
        raise NotDiscreteError("injected lattice fault")

    monkeypatch.setattr(reflections, "isogeny_graph", not_discrete)
    code, out, err = run_cli(capsys, "analyze", "WeylB2")
    assert code == 2
    assert out == ""
    assert "injected lattice fault" in err


def test_construct_reads_no_geometry(capsys, monkeypatch):
    def no_geometry(*args, **kwargs):
        raise AssertionError("the geometry stage ran")

    monkeypatch.setattr(report, "geom_report", no_geometry)
    code, out, err = run_cli(capsys, "construct", "S4-standard", "--recipe", "Zn", "--json")
    golden = json.loads((GOLDEN / "S4-standard.json").read_text(encoding="utf-8"))
    (zn,) = [entry for entry in golden["lattices"] if entry["recipe"] == "Zn"]
    assert (code, err) == (0, "")
    assert out == render_json(zn) + "\n"


def test_the_split_runs_at_most_once_and_only_for_a_zn_or_o_lattice(monkeypatch):
    calls = []
    real = schur.schur_index

    def counting(group, *args, **kwargs):
        calls.append(group.order)
        return real(group, *args, **kwargs)

    monkeypatch.setattr(schur, "schur_index", counting)
    monkeypatch.setattr(report, "schur_index", counting)
    ladder = ["WeylB3", "G3-1-2", "G4-1-2", "G6-1-2", "G3-1-3"]
    ran = set()
    for name in [*catalog_names(), *ladder]:
        calls.clear()
        rep = analyze(GENERATED[name][0] if name in GENERATED else name)
        assert len(calls) <= 1, name
        if calls:
            ran.add(name)
        recipes = {e["recipe"] for e in rep["lattices"]}
        assert bool(calls) == bool(recipes & {"Zn", "O"}), name
    assert ran == {
        "S3-standard", "S4-standard", "WeylA2", "WeylB2", "WeylB3",
        "G4", "C3-zeta3", "C4-zeta4", "G3-1-2", "G4-1-2", "G6-1-2", "G3-1-3",
    }
    # an index theory leaves open runs the split in the profile, and the
    # Zn recipe reads that split's witness
    monkeypatch.setattr(schur, "_settled_index", lambda *args: None)
    calls.clear()
    rep = analyze("S3-standard")
    assert calls == [6]
    assert render_json(rep) == (GOLDEN / "S3-standard.json").read_text(encoding="utf-8")


def test_cli_rejects_a_singular_generator_with_exit_2(capsys, tmp_path):
    # {id, P} is closed under products, so only the rank check stops it
    path = tmp_path / "idempotent.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "conductor": 1,
        "generators": [[["1", "0"], ["0", "0"]]],
    }))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "generator is singular" in err
    assert out == ""


def test_cli_rejects_a_group_beyond_the_conductor_bound(capsys, tmp_path):
    path = tmp_path / "big-conductor.json"
    path.write_text(json.dumps({
        "dimension": 1,
        "conductor": 4000,
        "generators": [[["z4000"]]],
    }))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "conductor 4000" in err
    assert out == ""


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe\x00binary", "cannot read group file"),
        (b"[" * 200_000 + b"]" * 200_000, "cannot read group file"),
        (b'{"dimension": ' + b"1" * 5000 + b"}", "cannot read group file"),
        (b'{"dimension": 2, "conductor": 1, "generators": [[[1, 0], 5]]}', "row"),
        (b'{"dimension": 1, "conductor": 1, "generators": [[["1e10000000"]]]}',
         "bad scalar syntax"),
    ],
    ids=["binary", "nested", "long-integer", "row-not-a-list", "exponent-entry"],
)
def test_cli_rejects_a_malformed_group_file_with_exit_2(tmp_path, capsys, content, message):
    path = tmp_path / "group.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert message in err
    assert out == ""


def test_readme_names_exactly_the_cli_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Command line"):readme.index("## Library layout")]
    verbs = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    defined = {
        flag
        for verb in verbs.values()
        for action in verb._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    for flag in defined:
        assert re.search(re.escape(flag) + r"(?![\w-])", section), flag
    assert set(re.findall(r"--[a-z][\w-]*", section)) <= defined


@pytest.mark.parametrize("command", ["analyze", "decompose"])
def test_cli_has_no_cycle_bound_option(capsys, monkeypatch, command):
    # the scan length is fixed by the dimension; argparse rejects the flag
    def no_analysis(*args, **kwargs):
        raise AssertionError("analysis started")

    monkeypatch.setattr(report, "character_profile", no_analysis)
    with pytest.raises(SystemExit) as exc:
        main([command, "WeylB2", "--cycle-bound", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--cycle-bound" in err


def test_cli_cap_propagates(capsys):
    code, _, err = run_cli(capsys, "analyze", "S4-standard", "--cap", "10")
    assert code == 3
    assert err != ""


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["analyze", "S3-standard"],
    ["construct", "S3-standard", "--recipe", "Zn"],
    ["decompose", "WeylB2"],
])
def test_cli_rejects_a_cap_below_1_with_exit_2(capsys, argv, cap):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cap", cap])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "--cap" in captured.err and f"at least 1, got {cap}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("cap", ["100001", str(10**12)])
@pytest.mark.parametrize("argv", [
    ["analyze", "S3-standard"],
    ["construct", "S3-standard", "--recipe", "Zn"],
    ["decompose", "WeylB2"],
])
def test_cli_rejects_a_cap_above_max_cap_with_exit_2(capsys, argv, cap):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cap", cap])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "--cap" in captured.err and f"at most 100000, got {cap}" in captured.err
    assert captured.out == ""


def test_cli_accepts_a_cap_of_max_cap(capsys):
    assert groups.MAX_CAP == 100_000
    code, out, _ = run_cli(capsys, "analyze", "S3-standard", "--cap", str(groups.MAX_CAP))
    assert code == 0 and out


def test_cli_ends_quietly_with_exit_1_on_a_closed_stdout():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        result = subprocess.run(
            [sys.executable, "-m", "invlat.cli", "analyze", "S4-standard", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == ""  # no BrokenPipeError traceback


def test_cli_output_to_a_string_buffer_is_unchanged(capsys):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["analyze", "S4-standard", "--json"])
    assert code == 0
    assert out.getvalue() == render_json(analyze("S4-standard")) + "\n"


def test_repeated_main_calls_match_fresh_processes(capsys):
    # the parser is built once per process; no argparse state may carry from
    # one call of main to the next
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    calls = [
        ("analyze", "S3-standard", "--json"),
        ("analyze", "S3-standard"),
        ("analyze", "S3-standard", "--cap", "0"),
        ("construct", "G4", "--recipe", "saturate"),
    ]
    codes = []
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "invlat.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
        codes.append(code)
    assert codes == [0, 0, 2, 0]
    assert cli.build_parser() is cli.build_parser()

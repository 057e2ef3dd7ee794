"""`invlat analyze FILE --json --cap 64` on random group JSON documents.

The documents have dimension 1-3 and at most 3 generators.  Their entries are
ints, 'p/q' and 'zN^k' strings and {"conductor", "coeffs"} dicts, with junk
values and missing keys mixed in.  Monomial generators (a permutation times a
diagonal of roots of unity) make finite groups, so the analysis itself runs
as well as the input checks and the closure cap.

A second fuzz draws the arguments instead: the four verbs on catalog
entries, with integers and junk text for `--cap`, and recipes and scalars for
`--recipe` and `--c`.  Some lines put options before the target or after
`--`, repeat a flag, abbreviate one (`--js`, `--ca 5`) or join it to its
value (`--cap=5`), and many values start with a dash (`--cap -5`,
`--c -z3`).  An argument argparse rejects ends in SystemExit(2), which counts
as exit code 2.  `--seed`, which the module search no longer takes, is such
an argument on every verb.  The same lines check that the plain-line parser
either declines a line or gives argparse's namespace for it.

A last test takes one dense generator at dimension 24 and at
`MAX_DIMENSION` under `--cap 1`: its rank check must be quick, so it exits 3
at the cap, or 2 with one row repeated, within seconds.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from invlat import cli
from invlat.catalog import catalog_names
from invlat.cli import main
from invlat.groups import MAX_DIMENSION

CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 12]

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True),
    st.text(max_size=6),
    st.just([]),
    st.just({}),
    st.integers(min_value=10**20, max_value=10**40),
    st.sampled_from(["1/0", {"conductor": 3, "coeffs": [[1, 0]]}]),
)

roots = st.builds(
    lambda sign, n, k: f"{sign}z{n}^{k}",
    st.sampled_from(["", "-"]),
    st.sampled_from(CONDUCTORS),
    st.integers(0, 12),
)

scalars = st.one_of(
    st.integers(-2, 2),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.integers(1, 4)),
    roots,
    st.builds(
        lambda n, coeffs: {"conductor": n, "coeffs": coeffs},
        st.sampled_from(CONDUCTORS),
        st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 3)), max_size=5),
    ),
)


def mostly(good, bad):
    """good nine times in ten, bad otherwise."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)


@st.composite
def matrices(draw, n, entries):
    kind = draw(mostly(st.sampled_from(["dense", "monomial", "flat"]), st.just("ragged")))
    if kind == "monomial":
        perm = draw(st.permutations(range(n)))
        diagonal = [draw(st.one_of(roots, st.sampled_from([1, -1]))) for _ in range(n)]
        return [[diagonal[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if kind == "flat":
        return [x for row in rows for x in row]
    if kind == "ragged":
        rows[draw(st.integers(0, n - 1))].append(draw(entries))
    return rows


@st.composite
def group_documents(draw):
    n = draw(st.integers(1, 3))
    entries = draw(mostly(st.just(scalars), st.just(mostly(scalars, junk))))
    doc = {
        "dimension": draw(mostly(st.just(n), junk)),
        "conductor": draw(mostly(st.sampled_from([120, 24, 12, 4, 1]), junk)),
        "generators": [
            draw(matrices(n, entries))
            for _ in range(draw(mostly(st.integers(1, 3), st.just(0))))
        ],
    }
    missing = draw(mostly(st.none(), st.sampled_from(sorted(doc))))
    doc.pop(missing, None)
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "group.json"


@given(group_documents())
@settings(max_examples=150, deadline=timedelta(seconds=10))
def test_analyze_exits_0_2_or_3_on_any_group_document(doc_path, doc):
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(["analyze", str(doc_path), "--json", "--cap", "64"])
    assert code in (0, 2, 3), (doc, err.getvalue())


numbers = st.one_of(
    st.integers(-3, 40),
    st.integers(-10**6, 10**6),
    st.integers(min_value=10**20, max_value=10**40),
)
int_args = st.one_of(numbers.map(str), mostly(st.text(max_size=4), st.just("")))


rarely = st.integers(0, 3).map(lambda k: k == 0)  # True one time in four

ABBREVIATIONS = {"--json": "--js", "--cap": "--ca", "--recipe": "--rec"}


@st.composite
def command_lines(draw):
    verb = draw(st.sampled_from(["analyze", "decompose", "construct", "catalog"]))
    options = {} if verb == "catalog" else {"--cap": int_args}
    if verb == "construct":
        options["--recipe"] = mostly(st.sampled_from(["Zn", "ds", "O", "saturate"]),
                                     st.text(max_size=4))
        options["--c"] = mostly(st.one_of(scalars.map(str), roots), st.text(max_size=6))
    words = [[flag, draw(values)] for flag, values in options.items() if draw(st.booleans())]
    if draw(st.booleans()):
        words.append(["--json"])
    if words and draw(rarely):
        words.append(list(draw(st.sampled_from(words))))  # a repeated flag
    for word in words:
        if not draw(rarely):
            continue
        if draw(st.booleans()):
            word[0] = ABBREVIATIONS.get(word[0], word[0])
        elif len(word) == 2:
            word[:] = [f"{word[0]}={word[1]}"]
    argv = [verb] + [w for word in draw(st.permutations(words)) for w in word]
    if verb != "catalog" or draw(rarely):
        target = [draw(st.sampled_from(catalog_names()))]
        if draw(rarely):
            target.insert(0, "--")
        # the target goes first, or after some of the options
        at = draw(st.integers(1, len(argv))) if draw(rarely) else 1
        argv[at:at] = target
    return argv


@given(command_lines())
@settings(max_examples=150, deadline=timedelta(seconds=10))
def test_commands_exit_0_2_or_3_on_any_arguments(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected an argument
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


@given(command_lines())
@settings(max_examples=400)
def test_plain_parse_matches_argparse(argv):
    plain = cli._parse_plain(argv)
    if plain is None:
        return
    with redirect_stderr(io.StringIO()) as err:
        try:
            expected = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse rejects the plain line {argv}: {err.getvalue()}")
    assert vars(plain) == vars(expected), argv


@pytest.mark.parametrize("argv", [
    ["analyze", "S3-standard", "--seed", "1"],
    ["construct", "S3-standard", "--recipe", "Zn", "--seed", "1"],
    ["decompose", "WeylB2", "--seed", "1"],
], ids=["analyze", "construct", "decompose"])
def test_seed_is_an_unrecognized_argument(argv):
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in err.getvalue()
    assert "Traceback" not in err.getvalue() and out.getvalue() == ""


@pytest.mark.parametrize("conductor", [1, 4, 12])
@pytest.mark.parametrize("n", [24, MAX_DIMENSION])
def test_dense_generator_at_the_dimension_limit_exits_within_seconds(doc_path, n, conductor):
    rng = random.Random(100 * n + conductor)

    def entry():
        k = rng.randint(-3, 3)
        if conductor > 1 and rng.random() < 0.5:
            return f"{'-' if k < 0 else ''}z{conductor}^{rng.randrange(conductor)}"
        return k

    dense = [[entry() for _ in range(n)] for _ in range(n)]
    repeated = dense[:-1] + [dense[0]]
    for gen, expected, message in ((dense, 3, "exceeded the cap"),
                                   (repeated, 2, "generator is singular")):
        doc = {"dimension": n, "conductor": conductor, "generators": [gen]}
        doc_path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(["analyze", str(doc_path), "--cap", "1"])
        assert time.perf_counter() - start < 5
        assert code == expected and message in err.getvalue(), err.getvalue()

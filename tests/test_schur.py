import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from invlat import linalg, schur
from invlat.catalog import catalog_names, get_entry
from invlat.cyclotomic import MAX_CONDUCTOR, CycNum, zeta
from invlat.cli import main
from invlat.errors import InternalConsistencyError, InvalidInputError
from invlat.groups import class_character, close_group, group_from_json
from invlat.linalg import rank
from invlat.report import GroupAnalysis, analyze
from invlat.schur import (
    _expansion_conductor,
    _field_degree,
    _orbit_span,
    _settled_index,
    bilinear_type,
    character_profile,
    classify_character_field,
    frobenius_schur_indicator,
    gcd_kernel_shortcut,
    lattice_existence_verdict,
    schur_index,
)


from generated_groups import F21, GENERATED, SAME_GROUP_TWO_WAYS, SD16, coxeter_i2, dihedral
from oracles import (
    averaged_bilinear_form,
    euler_phi,
    field_degree_by_products,
    field_discriminant_by_minpoly,
    five_starts,
    gcd_kernel_pairwise,
    gcd_kernel_singles,
    indicator_by_squares,
    mat_mul,
    orbit_span_all_elements,
    schur_index_by_descent,
)


def test_field_classification(s3, g4, q8, c5):
    f3 = classify_character_field(s3)
    assert (f3.kind, f3.degree) == ("rational", 1)
    f4 = classify_character_field(g4)
    assert (f4.kind, f4.degree, f4.discriminant) == ("imaginary-quadratic", 2, -3)
    fq = classify_character_field(q8)
    assert (fq.kind, fq.degree, fq.real_valued) == ("rational", 1, True)
    f5 = classify_character_field(c5)
    assert (f5.kind, f5.degree) == ("other", 4)


def test_field_classification_c4():
    group = get_entry("C4-zeta4").group()
    field = classify_character_field(group)
    assert (field.kind, field.discriminant) == ("imaginary-quadratic", -4)


def test_frobenius_schur_values(s3, s4, b2, g4, q8, c5):
    assert frobenius_schur_indicator(s3) == 1
    assert frobenius_schur_indicator(s4) == 1
    assert frobenius_schur_indicator(b2) == 1
    assert frobenius_schur_indicator(g4) == 0
    assert frobenius_schur_indicator(q8) == -1
    assert frobenius_schur_indicator(c5) == 0


def test_indicator_matches_squares_oracle(oracle_groups, family_oracle_groups):
    for name, group in oracle_groups + family_oracle_groups:
        assert indicator_by_squares(group) == frobenius_schur_indicator(group), name


def test_indicator_makes_no_dense_products(oracle_groups, monkeypatch):
    monkeypatch.setattr(
        linalg, "matmul", lambda a, b: pytest.fail("dense matrix product")
    )
    values = {frobenius_schur_indicator(group) for _, group in oracle_groups}
    assert values == {1, -1, 0}


def test_bilinear_certificates(s3, s4, b2, q8, g4):
    # the indicator decides the type; the averaged form certifies it
    weyl_b3 = group_from_json(GENERATED["WeylB3"][0])
    cases = [
        (s3, "orthogonal"), (b2, "orthogonal"), (s4, "orthogonal"),
        (weyl_b3, "orthogonal"), (q8, "symplectic"), (g4, "complex"),
    ]
    for group, kind in cases:
        assert bilinear_type(group).kind == kind
        n = group.dimension
        sym = averaged_bilinear_form(group, skew=False)
        skew = averaged_bilinear_form(group, skew=True)
        assert (sym is not None) == (kind == "orthogonal")
        assert (skew is not None) == (kind == "symplectic")
        for form, negate in [(sym, False), (skew, True)]:
            if form is None:
                continue
            transposed = tuple(tuple(form[j][i] for j in range(n)) for i in range(n))
            expected = tuple(tuple(-x for x in row) for row in form) if negate else form
            assert transposed == expected
            assert not linalg.det([list(r) for r in form]).is_zero()
            # invariance: g^T S g = S for every element
            for g in group.elements:
                gt = tuple(tuple(g[j][i] for j in range(n)) for i in range(n))
                assert mat_mul(gt, mat_mul(form, g)) == form


# Groups whose orbit span from some start is larger than a simple module, so
# the split has work to do; each has Schur index 1.
SPLIT_GROUPS = {
    "SD16": SD16, "F21": F21, "G(3,3,2)": dihedral(3), "G(6,6,2)": dihedral(6),
    **{f"{pair}-{k}": obj for pair, writings in SAME_GROUP_TWO_WAYS.items()
       for k, obj in enumerate(writings)},
}


def test_schur_index_from_five_starts(s3, q8, g4):
    # a different start is a different search path to the same index
    cases = [(s3, 1), (q8, 2), (g4, 1)]
    cases += [(group_from_json(obj), 1) for obj in SPLIT_GROUPS.values()]
    for group, expected in cases:
        d = classify_character_field(group).degree
        for start in five_starts(group.dimension):
            witness = schur_index(group, d, start=start)
            assert witness.index == expected
            if expected == 1:
                # the witness basis has full complex span
                assert rank([list(v) for v in witness.basis]) == group.dimension
                assert witness.module_dimension == d * group.dimension


def test_split_runs_only_where_the_orbit_span_is_too_large(monkeypatch):
    # from e1 every SPLIT_GROUPS entry but the second writings spans more
    # than a simple module, and each split lands on one
    splits = []
    real = schur._split
    monkeypatch.setattr(schur, "_split", lambda *a: splits.append(a) or real(*a))
    for name, obj in SPLIT_GROUPS.items():
        splits.clear()
        group = group_from_json(obj)
        assert schur_index(group, classify_character_field(group).degree).index == 1
        assert bool(splits) == (not name.endswith("-1")), name


@pytest.mark.parametrize("obj", [F21, dihedral(11)], ids=["F21", "G(11,11,2)"])
def test_each_split_round_spins_once(obj, monkeypatch):
    # `_split` reads the spin that closed the span it splits, so from e1
    # each round spins one vector: the start, then each vector a split gives
    spins, found = [], []
    real_spin, real_split = schur._spin, schur._split
    monkeypatch.setattr(schur, "_spin", lambda *a: spins.append(a[1]) or real_spin(*a))
    monkeypatch.setattr(schur, "_split", lambda *a: found.append(real_split(*a)) or found[-1])
    group = group_from_json(obj)
    assert schur_index(group, classify_character_field(group).degree).index == 1
    rounds = 1 + sum(vec is not None for vec in found)
    assert rounds > 1 and len(spins) == rounds
    assert spins[0][0] == 1 and not any(spins[0][1:])
    assert spins[1:] == [vec for vec in found if vec is not None]


def test_split_index_matches_the_seeded_descent(oracle_groups, family_oracle_groups):
    # the retired random descent, kept as an oracle, gives the split's witness
    # on every oracle group, and an index never below the split's elsewhere:
    # both are upper bounds, and the descent can miss a simple submodule
    for name, group in oracle_groups:
        d = classify_character_field(group).degree
        assert schur_index(group, d) == schur_index_by_descent(group, d), name
    missed = set()
    for name, group in family_oracle_groups:
        d = classify_character_field(group).degree
        split, descent = schur_index(group, d).index, schur_index_by_descent(group, d).index
        assert split == 1 <= descent, name
        if descent > 1:
            missed.add(name)
    assert missed == {
        "G(7,7,2)", "G(9,9,2)", "G(11,11,2)", "F21", "Q8xC3-0", "extraspecial-plus-0",
    }


def test_gcd_certificates(s3, s4, q8):
    cert = gcd_kernel_shortcut(s3)
    assert cert is not None
    labels = dict(cert)
    assert labels.pop("ambient") == 2
    assert 1 in labels.values()

    assert gcd_kernel_shortcut(s4) is not None
    # a symplectic index-2 group admits no such certificate
    assert gcd_kernel_shortcut(q8) is None


def test_gcd_shortcut_matches_pairwise_oracle(oracle_groups):
    # pairs g - h, g + h have the kernels of the single element g^-1 h, so
    # scanning them never changes the certificate
    small = [(name, group) for name, group in oracle_groups if group.order <= 32]
    assert len(small) == 12
    for name, group in small:
        assert gcd_kernel_shortcut(group) == gcd_kernel_pairwise(group), name


def test_gcd_shortcut_matches_kernel_basis_oracle(oracle_groups, family_oracle_groups):
    # each kernel dimension is an eigenvalue multiplicity read off the
    # character, not the length of a kernel basis
    uncertified = set()
    for name, group in oracle_groups + family_oracle_groups:
        cert = gcd_kernel_shortcut(group)
        assert cert == gcd_kernel_singles(group), name
        if cert is None:
            uncertified.add(name)
    assert uncertified == {
        "Q8", "Extraspecial2-1-4-minus", "Q8xC3-0", "Q8xC3-1",
        "extraspecial-plus-0", "extraspecial-plus-1",
    }


def test_field_degree_matches_product_span_oracle_on_class_values(oracle_groups):
    for name, group in oracle_groups:
        values = class_character(group)
        assert _field_degree(values) == field_degree_by_products(values), name


def _fixed_field_values(seed):
    """(values, phi(n) / |H|): seeded values of Q(z_n) for a squarefree n up
    to MAX_CONDUCTOR, namely small multiples of the sums of z_n^(a h) over h
    in a proper subgroup H of the units mod n, of index 8 or less where 20
    random tries reach one.  For squarefree n the conjugates of z_n are a
    normal basis, so the sum with a = 1, which is among the values,
    generates the field fixed by H."""
    rng = random.Random(9700 + seed)
    n = 4
    while any(n % (p * p) == 0 for p in range(2, 32)):
        n = rng.randint(2, MAX_CONDUCTOR)
    units = [a for a in range(1, n + 1) if gcd(a, n) == 1]
    subgroup = {1}
    for _ in range(20):
        if len(units) <= 8 * len(subgroup):
            break
        h, power = rng.choice(units), 1
        cycle = {1}
        while (power := power * h % n) != 1:
            cycle.add(power)
        larger = {x * y % n for x in subgroup for y in cycle}
        if len(larger) < len(units):
            subgroup = larger
    values = [CycNum.rational(1)]
    for a in [1] + rng.sample(units, min(2, len(units))):
        dense = [0] * n
        for h in subgroup:
            dense[a * h % n] += 1
        values.append(rng.choice((1, -2, Fraction(1, 3))) * CycNum(n, dense))
    return values, len(units) // len(subgroup)


@pytest.mark.parametrize("seed", range(12))
def test_field_degree_matches_product_span_oracle_on_seeded_values(seed):
    values, index = _fixed_field_values(seed)
    assert _field_degree(values) == field_degree_by_products(values) == index


def test_field_degree_of_the_real_subfield_at_the_largest_conductor():
    value = zeta(MAX_CONDUCTOR) + zeta(MAX_CONDUCTOR, -1)
    assert _field_degree([value]) == euler_phi(MAX_CONDUCTOR) // 2
    assert field_degree_by_products([value]) == euler_phi(MAX_CONDUCTOR) // 2


def test_character_field_is_classified_once_per_analysis(monkeypatch):
    calls = []
    real = schur._field_degree

    def counting(values):
        calls.append(values)
        return real(values)

    monkeypatch.setattr(schur, "_field_degree", counting)
    for target in ["G4", "WeylB2", GENERATED["G3-1-2"][0]]:
        calls.clear()
        analyze(target)
        assert len(calls) == 1, target


def test_settled_descent_matches_full_descent(oracle_groups):
    # where theory fixes the index the profile runs no descent and the
    # witness descent stops early; the full descent (no known index) must
    # reach the same witness and the module dimension the profile states
    settled = 0
    for name, group in oracle_groups:
        analysis = GroupAnalysis(group)
        profile = analysis.profile
        assert profile.gcd_certificate == gcd_kernel_shortcut(group), name
        certificate = profile.gcd_certificate
        known = _settled_index(profile.field, profile.bilinear, certificate)
        settled += known is not None
        full = schur_index(group, profile.field.degree, known_index=None)
        assert full == analysis.witness, name
        assert (full.index, full.module_dimension) == (
            profile.schur.index, profile.schur.module_dimension,
        ), name
        assert known in (None, full.index), name
    assert settled == len(oracle_groups)


def count_orbit_spans(monkeypatch):
    calls = []
    real = schur._orbit_span

    def counting(group, vector, conductor):
        calls.append(vector)
        return real(group, vector, conductor)

    monkeypatch.setattr(schur, "_orbit_span", counting)
    return calls


def test_settled_index_skips_the_descent(monkeypatch):
    calls = count_orbit_spans(monkeypatch)
    analysis = GroupAnalysis(group_from_json(GENERATED["G3-1-3"][0]))
    profile = analysis.profile
    assert profile.gcd_certificate is not None and profile.schur.index == 1
    assert calls == []
    # the witness descent stops at its first span, which has the settled
    # dimension
    assert analysis.witness.index == 1
    assert len(calls) == 1
    # settled by the Frobenius-Schur bound: no gcd certificate, nu = -1
    for group in [get_entry("Q8").group(),
                  group_from_json(GENERATED["Extraspecial2-1-4-minus"][0])]:
        calls.clear()
        analysis = GroupAnalysis(group)
        profile = analysis.profile
        assert profile.gcd_certificate is None
        assert profile.bilinear.indicator == -1 and profile.field.real_valued
        assert profile.schur.index == 2
        assert calls == []
        assert analysis.witness.index == 2
        assert len(calls) == 1


def test_settled_groups_without_a_zn_lattice_run_no_descent(capsys, monkeypatch):
    # the O recipe of an imaginary-quadratic group reads the witness: one
    # orbit span of e1, which already has the settled dimension, and no split
    calls = count_orbit_spans(monkeypatch)
    monkeypatch.setattr(schur, "_split", lambda *a: pytest.fail("split ran"))
    ladder = [GENERATED[name][0] for name in ("G3-1-2", "G4-1-2", "G6-1-2", "G3-1-3")]
    for target in ["G4", "C3-zeta3", "Q8", *ladder]:
        calls.clear()
        analyze(target)
        assert len(calls) == (target != "Q8"), target
        assert all(v[0] == 1 and not any(v[1:]) for v in calls), target
    calls.clear()
    assert main(["construct", "G4", "--recipe", "O"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_an_open_descent_stops_at_the_smallest_possible_span(monkeypatch):
    # no index is known for these groups, but no nonzero G-stable rational
    # subspace is smaller than d * n, so a first span of that dimension ends
    # the descent
    calls = count_orbit_spans(monkeypatch)
    for pair, (_, second) in sorted(SAME_GROUP_TWO_WAYS.items()):
        calls.clear()
        profile = character_profile(group_from_json(second))
        assert profile.gcd_certificate is None and profile.schur.index == 1, pair
        assert len(calls) == 1, pair


def test_profile_and_certificate_rank_no_matrix(oracle_groups, monkeypatch):
    # the certificate's kernel dimensions are eigenvalue multiplicities read
    # off the character, and no profile of these groups runs a descent
    for name in ("rank", "det"):
        monkeypatch.setattr(linalg, name, lambda *a, name=name: pytest.fail(f"linalg.{name}"))
    for name, group in oracle_groups:
        assert character_profile(group).gcd_certificate == gcd_kernel_shortcut(group), name


def test_descent_that_misses_the_known_index_raises(q8):
    with pytest.raises(InternalConsistencyError, match="theory fixes 1"):
        schur_index(q8, 1, known_index=1)


def test_cli_reports_a_wrong_certificate_as_exit_4(capsys, monkeypatch):
    # a certificate claiming index 1 on Q8, whose split ends at index 2
    monkeypatch.setattr(
        schur, "gcd_kernel_shortcut", lambda group: (("ambient", 2), ("fake", 1))
    )
    code = main(["analyze", "Q8"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "theory fixes 1" in captured.err
    assert "Traceback" not in captured.err


def test_gcd_certificate_dimension_one():
    group = get_entry("C4-zeta4").group()
    cert = gcd_kernel_shortcut(group)
    assert cert == (("ambient", 1),)


def test_profile_consistency(s3, g4, q8):
    p3 = character_profile(s3)
    assert (p3.field.kind, p3.bilinear.kind, p3.schur.index) == (
        "rational", "orthogonal", 1,
    )
    p4 = character_profile(g4)
    assert (p4.field.kind, p4.bilinear.kind, p4.schur.index) == (
        "imaginary-quadratic", "complex", 1,
    )
    pq = character_profile(q8)
    assert (pq.field.kind, pq.bilinear.kind, pq.schur.index) == (
        "rational", "symplectic", 2,
    )


def test_profile_rejects_reducible():
    one, nil = CycNum.rational(1), CycNum.rational(0)
    swap = ((nil, one), (one, nil))
    with pytest.raises(InvalidInputError):
        character_profile(close_group([swap]))


def test_verdict_table(s3, s4, g4, q8, c5):
    cases = [
        (s3, "c-i", True, True),
        (s4, "c-i", True, True),
        (g4, "c-i", False, True),
        (q8, "c-ii", False, True),
        (c5, "none", False, False),
    ]
    for group, clause, rank_n, rank_2n in cases:
        profile = character_profile(group)
        verdict = lattice_existence_verdict(profile)
        assert verdict.clause == clause
        assert verdict.exists_rank_n == rank_n
        assert verdict.exists_rank_2n == rank_2n
        assert verdict.exists_any == (rank_n or rank_2n)


def test_witness_field_form_is_g_stable(s3, oracle_groups):
    # every index-1 witness has full complex span, and each dense generator
    # maps it into its rational span, checked on expanded coordinates rather
    # than by the closure that built it
    from oracles import expand_vectors

    groups = [s3, *(group_from_json(obj) for obj in SPLIT_GROUPS.values())]
    groups += [group for _, group in oracle_groups]
    for group in groups:
        witness = schur_index(group, classify_character_field(group).degree)
        if witness.index != 1:
            continue
        n = group.dimension
        assert rank([list(v) for v in witness.basis]) == n
        for g in group.generators:
            for vec in witness.basis:
                image = tuple(
                    sum((g[i][j] * vec[j] for j in range(n)), CycNum.rational(0))
                    for i in range(n)
                )
                _, stacked = expand_vectors(list(witness.basis) + [image])
                assert linalg.rank(stacked) == linalg.rank(stacked[:-1])


CATALOG_GROUPS = [
    name for name in catalog_names() if get_entry(name).kind == "group"
]


def assert_spans_agree(group, start):
    conductor = _expansion_conductor(group, start)
    assert _orbit_span(group, start, conductor)[0] == orbit_span_all_elements(
        group, start, conductor
    )


@pytest.mark.parametrize("name", CATALOG_GROUPS)
def test_orbit_span_matches_all_elements_route(name):
    group = get_entry(name).group()
    for start in five_starts(group.dimension):
        assert_spans_agree(group, start)


@pytest.mark.parametrize("name", CATALOG_GROUPS)
def test_orbit_span_matches_all_elements_route_on_random_starts(name):
    group = get_entry(name).group()
    rng = random.Random(20050)
    # the group's own field and a larger one, as in schur_index on a start
    # vector with entries outside the group's field
    for conductor in (group.conductor, lcm(group.conductor, 4)):
        for _ in range(3):
            start = tuple(
                CycNum(
                    conductor,
                    [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(euler_phi(conductor))],
                )
                for _ in range(group.dimension)
            )
            if all(x.is_zero() for x in start):
                continue
            assert_spans_agree(group, start)


@pytest.mark.parametrize("name", ["WeylB3", "G3-1-2", "G3-1-3"])
def test_orbit_span_matches_all_elements_route_on_generated_groups(name):
    obj, order = GENERATED[name]
    group = group_from_json(obj)
    assert group.order == order
    for start in five_starts(group.dimension):
        assert_spans_agree(group, start)


def test_orbit_span_row_reduces_fewer_rows_than_the_group_order(monkeypatch):
    group = group_from_json(GENERATED["G3-1-3"][0])
    sizes = []
    real_rref = linalg.rref

    def counting_rref(rows):
        rows = list(rows)
        sizes.append(len(rows))
        return real_rref(rows)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    start = five_starts(group.dimension)[3]
    span, _ = _orbit_span(group, start, group.conductor)
    bound = group.dimension * euler_phi(group.conductor)
    assert sizes and max(sizes) <= bound < group.order
    assert len(span) <= bound


# One group written two ways (SAME_GROUP_TWO_WAYS in generated_groups.py):
# the Schur index and the clause are invariants of the character.
@pytest.mark.parametrize("pair", sorted(SAME_GROUP_TWO_WAYS))
def test_schur_verdict_does_not_depend_on_how_the_group_is_written(pair):
    reports = [analyze(obj) for obj in SAME_GROUP_TWO_WAYS[pair]]
    assert reports[0]["group"]["order"] == reports[1]["group"]["order"]
    verdicts = [(r["profile"]["schur_index"], r["verdict"]["clause"]) for r in reports]
    assert verdicts == [(1, "c-i")] * 2, pair


# Two groups whose matrices lie over a larger cyclotomic field than their
# character field.  A gcd certificate fixes Schur index 1, and the character
# field is imaginary quadratic, so the O recipe runs.  Its start e1 spans
# Z[zeta8]*e1 (SD16) or Z[zeta7]*e1 (F21), which is not discrete, so it
# starts from the first vector of the split witness instead.
LARGER_FIELD_GROUPS = {"SD16": SD16, "F21": F21}


@pytest.mark.parametrize("name", sorted(LARGER_FIELD_GROUPS))
def test_index_one_groups_over_a_larger_field_get_clause_c_i(name):
    report = analyze(LARGER_FIELD_GROUPS[name])
    verdict = (report["profile"]["schur_index"], report["verdict"]["clause"])
    assert verdict == (1, "c-i"), name
    assert [e["recipe"] for e in report["lattices"]] == ["O", "saturate"]


# The dihedral groups G(m,m,2) at conductor m: Schur index 1 for every m,
# and a rational character field, so clause c-i, exactly for m = 3, 4, 6.
# A gcd certificate settles the index; the Zn recipe of a c-i group splits
# the orbit span of e1 down to a rational form, and the full split from
# each of four starts reaches index 1 too.
@pytest.mark.parametrize("m, start", [(m, k) for m in range(3, 13) for k in range(4)])
def test_dihedral_groups_get_schur_index_1(m, start):
    report = analyze(dihedral(m))
    assert report["group"]["order"] == 2 * m
    verdict = (report["profile"]["schur_index"], report["verdict"]["clause"])
    assert verdict == (1, "c-i" if m in (3, 4, 6) else "none")
    group = group_from_json(dihedral(m))
    degree = report["profile"]["character_field"]["degree"]
    assert schur_index(group, degree, start=five_starts(2)[start]).index == 1


@pytest.mark.parametrize("m", range(3, 13))
def test_coxeter_diagram_and_monomial_dihedral_groups_agree(m):
    # I2(m) from its Coxeter diagram over Q(zeta_2m), and G(m,m,2) over Q(zeta_m)
    reports = [analyze(obj) for obj in (coxeter_i2(m), dihedral(m))]
    facts = [
        (r["group"]["order"], r["profile"]["schur_index"],
         r["profile"]["character_field"]["kind"], r["verdict"]["clause"])
        for r in reports
    ]
    assert facts[0] == facts[1] == (2 * m, 1, facts[1][2], "c-i" if m in (3, 4, 6) else "none")


@pytest.mark.parametrize("name", sorted(LARGER_FIELD_GROUPS) + CATALOG_GROUPS)
def test_character_field_discriminant_matches_minpoly_oracle(name):
    if name in LARGER_FIELD_GROUPS:
        group = group_from_json(LARGER_FIELD_GROUPS[name])
    else:
        group = get_entry(name).group()
    field = classify_character_field(group)
    expected = {"SD16": -8, "F21": -7}.get(name, field.discriminant)
    if field.kind == "imaginary-quadratic":
        assert field.discriminant == expected == field_discriminant_by_minpoly(
            field.generator
        )
    else:
        assert field.discriminant is None and name not in LARGER_FIELD_GROUPS

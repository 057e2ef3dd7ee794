"""Acceptance gate: eight checks, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every check is exact; the time budgets bound the whole check body.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from invlat import linalg
from invlat.catalog import catalog_names, get_entry, quaternion_preset
from invlat.cyclotomic import CycNum, zeta
from invlat.forge import (
    ImaginaryQuadraticOrder,
    extend_rank_2n,
    orbit_lattice_over_order,
    split_as_order_module,
)
from invlat.groups import character_norm, group_from_json
from invlat.lattices import (
    RankTwoLattice,
    invariance_check,
    lattice_from_generators,
    lattice_sum,
    multiplier_ring,
    scale_lattice,
)
from invlat.quaternion import (
    QuatAlgebra,
    build_quat_torus,
    imaginary_quadratic_subfield,
    torus_endomorphisms,
)
from invlat.reflections import (
    choose_generating_reflections,
    geom_report,
    root_functional_matrix,
    scan_cycle_multipliers,
)
from invlat.schur import (
    character_profile,
    classify_character_field,
    lattice_existence_verdict,
    schur_index,
)

from generated_groups import F21, SAME_GROUP_TWO_WAYS, SD16, dihedral
from oracles import (
    conj_transpose,
    coset_count,
    exact_sign,
    five_starts,
    invariant_hermitian,
    isogeny_test,
    lattice_index,
    mat_mul,
    order_saturate,
    sparse,
)


@contextmanager
def criterion(number: int, budget_seconds: float, text: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {text}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    print(f"ACCEPTANCE {number}: PASS - {text} ({elapsed:.2f}s)")


def std_lattice(n):
    one, nil = CycNum.rational(1), CycNum.rational(0)
    return lattice_from_generators(
        [tuple(one if j == k else nil for j in range(n)) for k in range(n)]
    )


def test_acceptance_1_decision_table():
    expected = {
        "S3-standard": ("c-i", True, True),
        "S4-standard": ("c-i", True, True),
        "Q8": ("c-ii", False, True),
        "G4": ("c-i", False, True),
        "C5-zeta5": ("none", False, False),
    }
    with criterion(1, 10.0, "catalog decision table"):
        for name, (clause, rank_n, rank_2n) in expected.items():
            group = get_entry(name).group()
            profile = character_profile(group)
            verdict = lattice_existence_verdict(profile)
            assert verdict.clause == clause, name
            assert verdict.exists_rank_n == rank_n, name
            assert verdict.exists_rank_2n == rank_2n, name


def test_acceptance_2_q8_gaussian_square():
    with criterion(2, 1.0, "Q8 Gaussian lattice splits into isogenous factors"):
        q8 = get_entry("Q8").group()
        doubled = extend_rank_2n(std_lattice(2), zeta(4))
        assert doubled.rank == 4
        assert invariance_check(doubled, sparse(q8.elements))
        order = ImaginaryQuadraticOrder.from_discriminant(-4)
        split = split_as_order_module(doubled, order)
        assert len(split.basis) == 2
        # L = O*v_1 + O*v_2, so each factor is the order, Z + Z*i
        i4 = zeta(4)
        assert lattice_from_generators(
            [w for v in split.basis for w in (v, tuple(i4 * x for x in v))]
        ) == doubled
        assert order.lattice == RankTwoLattice(CycNum.rational(1), i4)
        # the scalar 1 the report renders between the factors
        assert isogeny_test(order.lattice, order.lattice) == 1


def test_acceptance_3_quaternion_dichotomy():
    with criterion(3, 5.0, "quaternion torus dichotomy"):
        alg, lat, c = quaternion_preset("example-non-generic")
        generic = torus_endomorphisms(build_quat_torus(alg, lat, c))
        assert generic.rank == 4
        assert generic.structure_tag == "order-in-definite-quaternion"
        assert generic.matches_input_lattice is True
        assert generic.abelian is False

        alg2, lat2, c2 = quaternion_preset("example-non-ci")
        special = torus_endomorphisms(build_quat_torus(alg2, lat2, c2))
        assert special.rank == 8
        assert special.structure_tag == "order-in-M2-of-imaginary-quadratic"
        assert special.center_discriminant == -4
        assert special.abelian is True


def test_acceptance_4_schur_indices_from_five_starts():
    cases = [(name, get_entry(name).group(), index)
             for name, index in [("S3-standard", 1), ("Q8", 2), ("G4", 1)]]
    # groups where the orbit span of some start is larger than a simple
    # module: the split must find one from every start
    split = {"SD16": SD16, "F21": F21, "G(3,3,2)": dihedral(3), "G(6,6,2)": dihedral(6)}
    for pair, writings in SAME_GROUP_TWO_WAYS.items():
        split.update({f"{pair}-{k}": obj for k, obj in enumerate(writings)})
    cases += [(name, group_from_json(obj), 1) for name, obj in split.items()]
    with criterion(4, 10.0, "module search index from five start vectors"):
        for name, group, expected in cases:
            degree = classify_character_field(group).degree
            for start in five_starts(group.dimension):
                witness = schur_index(group, degree, start=start)
                assert witness.index == expected, (name, start)
                if expected == 1:
                    basis = [list(v) for v in witness.basis]
                    assert linalg.rank(basis) == group.dimension, (name, start)


def test_acceptance_5_reflection_pipeline():
    with criterion(5, 30.0, "reflection pipeline on WeylB2 and G4"):
        b2 = get_entry("WeylB2").group()
        b2_lat = extend_rank_2n(std_lattice(2), zeta(4))
        g4 = get_entry("G4").group()
        order = ImaginaryQuadraticOrder.from_discriminant(-3)
        one, nil = CycNum.rational(1), CycNum.rational(0)
        g4_field = classify_character_field(g4)
        g4_lat = order_saturate(
            orbit_lattice_over_order(g4, order, (one, nil), g4_field), order
        )

        for group, lattice in [(b2, b2_lat), (g4, g4_lat)]:
            geom = geom_report(group, lattice, classify_character_field(group))
            dec = geom.decomposition
            # the root lines span the whole space
            roots = [list(line.reflection.root) for line in dec.lines]
            assert linalg.rank(roots) == group.dimension
            # every line lattice has rank two and the sum has finite index
            assert all(line.lattice.rank == 2 for line in dec.lines)
            assert dec.index >= 1
            sublattice = dec.lines[0].lattice
            for line in dec.lines[1:]:
                sublattice = lattice_sum(sublattice, line.lattice)
            assert dec.index == lattice_index(lattice, sublattice)
            if dec.index <= 64:
                assert dec.index == coset_count(lattice, sublattice)
            assert not dec.s_det.is_zero()
            assert geom.graph.connected

        # G4 carries a non-rational line multiplier in Q(sqrt(-3))
        g4_geom = geom_report(g4, g4_lat, g4_field)
        cm = g4_geom.cm
        assert cm is not None
        assert not cm.value.is_rational()
        assert cm.ring.fundamental_discriminant == -3
        line = g4_geom.decomposition.lines[cm.line_index].lattice
        scaled = scale_lattice(cm.value, line)
        for vec in scaled.vectors():
            assert line.contains(vec)

        # Weyl groups only ever produce rational cycle multipliers
        for name in ["S3-standard", "WeylB2"]:
            weyl = get_entry(name).group()
            a = root_functional_matrix(choose_generating_reflections(weyl))
            for _, value in scan_cycle_multipliers(a, weyl.dimension + 1):
                assert value.is_rational()


def test_acceptance_6_subfield_search():
    with criterion(6, 5.0, "imaginary quadratic subfield witnesses"):
        w1 = imaginary_quadratic_subfield(QuatAlgebra(Fraction(-1), Fraction(-1)))
        assert w1.t == Fraction(-1)
        w2 = imaginary_quadratic_subfield(QuatAlgebra(Fraction(-1), Fraction(-3)))
        assert w2.t in (Fraction(-1), Fraction(-3))
        for witness in [w1, w2]:
            square = witness.witness * witness.witness
            assert square.coords[0] == CycNum.rational(witness.t)
            assert all(x.is_zero() for x in square.coords[1:])


# property suites for check 7, run at the stated example counts

ints = st.integers(-6, 6)
mat2 = st.tuples(ints, ints, ints, ints).map(
    lambda t: [[t[0], t[1]], [t[2], t[3]]]
)
nonsingular = mat2.filter(lambda m: m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0)
rect = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.lists(
        st.lists(ints, min_size=s[1], max_size=s[1]),
        min_size=s[0], max_size=s[0],
    )
)


def cyc_rows(mat):
    return [tuple(CycNum.rational(x) for x in row) for row in mat]


@given(nonsingular, nonsingular)
@settings(max_examples=200, deadline=None)
def _index_multiplicativity(c_mat, d_mat):
    top = lattice_from_generators(cyc_rows([[1, 0], [0, 1]]))
    mid = lattice_from_generators(cyc_rows(c_mat))
    bot = lattice_from_generators(cyc_rows(linalg.matmul(d_mat, c_mat)))
    assert lattice_index(top, mid) * lattice_index(mid, bot) == lattice_index(top, bot)


@given(rect)
@settings(max_examples=200, deadline=None)
def _hnf_idempotent(mat):
    h = linalg.hnf(mat)
    assert linalg.hnf(h) == h


@st.composite
def _quadratic_tau(draw):
    from invlat.cyclotomic import sqrt_rational

    d = draw(st.sampled_from([1, 2, 3, 5, 7]))
    a = draw(st.integers(-3, 3))
    b = draw(st.integers(1, 3))
    c = draw(st.integers(1, 4))
    return (CycNum.rational(a) + sqrt_rational(-d) * b) / c


@given(_quadratic_tau())
@settings(max_examples=100, deadline=None)
def _multiplier_closure_with_box_oracle(tau):
    gamma = RankTwoLattice(CycNum.rational(1), tau)
    ring = multiplier_ring(gamma)
    for u in range(-2, 3):
        for v in range(-2, 3):
            x = CycNum.rational(u) + tau * v
            if not gamma.contains(x * tau):
                continue
            if v == 0:
                continue
            assert ring.kind == "order"
            coords = RankTwoLattice(CycNum.rational(1), ring.generator).coords_of(x)
            assert coords is not None
            assert all(c.denominator == 1 for c in coords)
    if ring.kind == "order":
        assert gamma.contains(ring.generator * tau)


def test_acceptance_7_property_suites():
    with criterion(7, 120.0, "property suites at stated example counts"):
        _index_multiplicativity()
        _hnf_idempotent()
        _multiplier_closure_with_box_oracle()
        for name in catalog_names():
            entry = get_entry(name)
            if entry.kind != "group":
                continue
            group = entry.group()
            assert character_norm(group) == 1
            gram = invariant_hermitian(group)
            assert conj_transpose(gram) == gram
            for g in group.elements:
                assert mat_mul(mat_mul(conj_transpose(g), gram), g) == gram
            for k in range(1, group.dimension + 1):
                minor = [[gram[i][j] for j in range(k)] for i in range(k)]
                assert exact_sign(linalg.det(minor)) == 1


def test_acceptance_8_hexagonal_doubling():
    with criterion(8, 10.0, "A2 root lattice doubled by a cube root of unity"):
        s3 = get_entry("S3-standard").group()
        lat = extend_rank_2n(std_lattice(2), zeta(3))
        assert lat.rank == 4
        assert invariance_check(lat, sparse(s3.elements))
        geom = geom_report(s3, lat, classify_character_field(s3))
        assert geom.tags == ("geom-i", "geom-ii")
        # edge witnesses: (id - r_target) carries each line lattice into the
        # target line lattice with finite index
        n = s3.dimension
        dec = geom.decomposition
        for edge in geom.graph.edges:
            r = dec.reflections[edge.target].matrix
            op = tuple(
                tuple(
                    (CycNum.rational(1) if i == j else CycNum.rational(0)) - r[i][j]
                    for j in range(n)
                )
                for i in range(n)
            )
            source = dec.lines[edge.source].lattice
            target = dec.lines[edge.target].lattice
            moved = [
                tuple(
                    sum((op[i][j] * vec[j] for j in range(n)), CycNum.rational(0))
                    for i in range(n)
                )
                for vec in source.vectors()
            ]
            for vec in moved:
                assert target.contains(vec)
            image = lattice_from_generators(moved, dim=n)
            assert image.rank == target.rank
            assert lattice_index(target, image) == edge.index

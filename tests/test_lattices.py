import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from invlat import lattices, linalg
from invlat.catalog import catalog_names
from invlat.cyclotomic import CycNum, sqrt_rational, squarefree_part, zeta
from invlat.errors import InvalidInputError, NotDiscreteError
from invlat.forge import (
    EUCLIDEAN_DISCRIMINANTS,
    ImaginaryQuadraticOrder,
    construct_rank_n,
    extend_rank_2n,
)
from invlat.groups import group_from_json
from invlat.report import analyze
from invlat.lattices import (
    RankTwoLattice,
    fundamental_discriminant,
    intersect_with_line,
    invariance_check,
    lattice_from_generators,
    lattice_sum,
    lattice_to_json,
    multiplier_ring,
    scale_lattice,
)
from invlat.schur import schur_index


def cyc_rows(mat):
    return [tuple(CycNum.rational(x) for x in row) for row in mat]


def zlattice(mat):
    return lattice_from_generators(cyc_rows(mat))


ints = st.integers(-6, 6)


def nonsingular_2x2():
    return (
        st.tuples(ints, ints, ints, ints)
        .map(lambda t: [[t[0], t[1]], [t[2], t[3]]])
        .filter(lambda m: m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0)
    )


from generated_groups import GENERATED
from oracles import (
    basis_coords_by_spans,
    check_discrete_by_field_rank,
    coset_count,
    intersect_with_line_by_values,
    intersect_with_subspace,
    is_discrete_by_vector_split,
    isogeny_test,
    lattice_from_json,
    lattice_index,
    lattice_json_by_pivot_hnf,
    multiplier_ring_by_minpoly,
    rank_two_coords_by_span,
    sparse,
    vectors_by_cycnum_combination,
)


def test_canonical_equality():
    a = zlattice([[1, 0], [0, 1]])
    b = zlattice([[1, 1], [0, 1], [1, 0]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != zlattice([[2, 0], [0, 1]])


def test_rank_and_contains():
    lat = zlattice([[2, 0], [1, 3]])
    assert lat.rank == 2
    assert lat.contains(cyc_rows([[3, 3]])[0])
    assert not lat.contains(cyc_rows([[1, 0]])[0])
    third = tuple(x / 3 for x in cyc_rows([[1, 0]])[0])
    assert not lat.contains(third)


def test_fractional_entries_are_fine():
    half = CycNum.rational(Fraction(1, 2))
    lat = lattice_from_generators([(half, CycNum.rational(0))], dim=2)
    assert lat.rank == 1
    assert lat.contains((half, CycNum.rational(0)))


def test_non_discrete_rejected():
    v1 = (CycNum.rational(1),)
    v2 = (sqrt_rational(2),)
    with pytest.raises(NotDiscreteError):
        lattice_from_generators([v1, v2])


def test_complex_span_gives_rank_two():
    lat = lattice_from_generators([(CycNum.rational(1),), (zeta(4),)])
    assert lat.rank == 2


@given(nonsingular_2x2(), nonsingular_2x2())
@settings(max_examples=200)
def test_index_multiplicative(c_mat, d_mat):
    top = zlattice([[1, 0], [0, 1]])
    mid_rows = c_mat
    bot_rows = linalg.matmul(d_mat, c_mat)
    mid = zlattice(mid_rows)
    bot = zlattice(bot_rows)
    i_top_mid = lattice_index(top, mid)
    i_mid_bot = lattice_index(mid, bot)
    i_top_bot = lattice_index(top, bot)
    assert i_top_mid * i_mid_bot == i_top_bot
    det_c = c_mat[0][0] * c_mat[1][1] - c_mat[0][1] * c_mat[1][0]
    assert i_top_mid == abs(det_c)


@given(nonsingular_2x2())
@settings(max_examples=60)
def test_index_matches_coset_count(mat):
    top = zlattice([[1, 0], [0, 1]])
    sub = zlattice(mat)
    idx = lattice_index(top, sub)
    assume(idx <= 64)
    assert idx == coset_count(top, sub)


def test_sum_and_intersect_basics():
    a = zlattice([[2, 0], [0, 1]])
    b = zlattice([[1, 0], [0, 3]])
    assert lattice_sum(a, b) == zlattice([[1, 0], [0, 1]])
    axis = cyc_rows([[1, 0]])
    assert intersect_with_line(a, axis[0]) == (zlattice([[2, 0]]), [[1, 0]])
    assert intersect_with_line(lattice_sum(a, b), axis[0])[0] == zlattice([[1, 0]])


def test_intersect_with_subspace():
    lat = zlattice([[1, 0], [0, 1]])
    line, _ = intersect_with_line(lat, cyc_rows([[1, 1]])[0])
    assert line.rank == 1
    assert line.contains(cyc_rows([[2, 2]])[0])
    assert not line.contains(cyc_rows([[1, 0]])[0])


def test_intersect_with_complex_span():
    # the complex line through (1, i) meets Z[i]^2 in a rank-2 lattice
    one, nil, i4 = CycNum.rational(1), CycNum.rational(0), zeta(4)
    lat = lattice_from_generators(
        [(one, nil), (i4, nil), (nil, one), (nil, i4)]
    )
    complex_line, _ = intersect_with_line(lat, (one, i4))
    assert complex_line.rank == 2


def test_scale_lattice():
    lat = zlattice([[1, 0], [0, 1]])
    rotated = scale_lattice(zeta(4), lat)
    assert rotated.rank == 2
    assert rotated.contains((zeta(4), CycNum.rational(0)))
    assert not rotated.contains((CycNum.rational(1), CycNum.rational(0)))
    assert scale_lattice(zeta(4), rotated) == lat  # i^2 = -1 restores Z^2
    gaussian = lattice_sum(lat, rotated)
    assert gaussian.rank == 4
    halved = scale_lattice(CycNum.rational(Fraction(1, 2)), lat)
    assert lattice_index(halved, lat) == 4


def test_invariance_check():
    lat = zlattice([[1, 0], [0, 1]])
    swap = cyc_rows([[0, 1], [1, 0]])
    shear_half = [
        (CycNum.rational(1), CycNum.rational(Fraction(1, 2))),
        (CycNum.rational(0), CycNum.rational(1)),
    ]
    assert invariance_check(lat, sparse([swap]))
    assert not invariance_check(lat, sparse([shear_half]))


@given(nonsingular_2x2())
@settings(max_examples=60)
def test_lattice_json_round_trip(mat):
    lat = zlattice(mat)
    assert lattice_from_json(lattice_to_json(lat)) == lat


# rank-two lattices in one complex variable


def test_rank_two_rejects_real_ratio():
    with pytest.raises(InvalidInputError):
        RankTwoLattice(CycNum.rational(1), CycNum.rational(2))


# first generators: 1, a rational, and two non-real numbers of other fields
FIRST_GENERATORS = [
    CycNum.rational(1), CycNum.rational(Fraction(3, 2)), 1 + 2 * zeta(4), zeta(12),
]
# numbers outside the rational span of every lattice below
OUTSIDE = [zeta(5), sqrt_rational(2), zeta(8)]
small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(
    st.sampled_from(EUCLIDEAN_DISCRIMINANTS + (-12, -16)),
    st.sampled_from(FIRST_GENERATORS),
    small_fractions, small_fractions,
    st.sampled_from([None, "zero"] + OUTSIDE),
)
@settings(max_examples=150, deadline=None)
def test_rank_two_coords_match_span_oracle(disc, g1, x, y, extra):
    """g1 * (Z + Z*omega) for an order Z[omega], euclidean or not maximal,
    against the rational solve of the coordinate rows."""
    omega = ImaginaryQuadraticOrder.from_discriminant(disc).generator
    gamma = RankTwoLattice(g1, g1 * omega)
    value = x * gamma.g1 + y * gamma.g2
    if extra == "zero":
        value = CycNum.rational(0)
    elif extra is not None:
        value = value + extra
    coords = gamma.coords_of(value)
    assert coords == rank_two_coords_by_span(gamma.g1, gamma.g2, value)
    if extra is None:
        assert coords == [x, y]
    elif extra == "zero":
        assert coords == [0, 0]
    else:
        assert coords is None


def test_multiplier_ring_gaussian():
    gamma = RankTwoLattice(CycNum.rational(1), zeta(4))
    ring = multiplier_ring(gamma)
    assert ring.kind == "order"
    assert ring.discriminant == -4
    assert ring.fundamental_discriminant == -4
    assert ring.order_conductor == 1


def test_multiplier_ring_z_for_degree_four_tau():
    # zeta5 has degree 4 over the rationals; no quadratic element can
    # multiply Z + Z*zeta5 into itself except the integers
    ring = multiplier_ring(RankTwoLattice(CycNum.rational(1), zeta(5)))
    assert ring.kind == "Z"


def test_multiplier_ring_quadratic_with_denominator():
    # tau = sqrt(-2) + 1/5 gives the order Z[25 tau] of discriminant -5000
    tau = sqrt_rational(-2) + CycNum.rational(Fraction(1, 5))
    ring = multiplier_ring(RankTwoLattice(CycNum.rational(1), tau))
    assert ring.kind == "order"
    assert ring.discriminant == -5000
    assert ring.fundamental_discriminant == -8
    assert ring.order_conductor == 25


def test_multiplier_ring_nonmaximal():
    # Z + Z * 2i has multiplier ring Z[2i], discriminant -16, conductor 2
    tau = zeta(4) + zeta(4)
    ring = multiplier_ring(RankTwoLattice(CycNum.rational(1), tau))
    assert ring.kind == "order"
    assert ring.discriminant == -16
    assert ring.fundamental_discriminant == -4
    assert ring.order_conductor == 2


SQUAREFREE = [1, 2, 3, 5, 7]


@st.composite
def quadratic_tau(draw):
    d = draw(st.sampled_from(SQUAREFREE))
    a = draw(st.integers(-3, 3))
    b = draw(st.integers(1, 3))
    c = draw(st.integers(1, 4))
    return (CycNum.rational(a) + sqrt_rational(-d) * b) / c


@given(quadratic_tau())
@settings(max_examples=100)
def test_multiplier_ring_box_oracle(tau):
    """Every multiplier of Z + Z*tau is u + v*tau with u, v integers, so a
    box scan over small u, v is a complete oracle within the box."""
    gamma = RankTwoLattice(CycNum.rational(1), tau)
    ring = multiplier_ring(gamma)
    found = []
    for u in range(-2, 3):
        for v in range(-2, 3):
            x = CycNum.rational(u) + tau * v
            if gamma.contains(x * tau):
                found.append((u, v, x))
    for u, v, x in found:
        if v == 0:
            continue  # rational multipliers always exist
        assert ring.kind == "order", f"missed multiplier {u} + {v}*tau"
        gen = ring.generator
        # x must lie in Z + Z*gen
        coords = RankTwoLattice(CycNum.rational(1), gen).coords_of(x)
        assert coords is not None
        assert all(c.denominator == 1 for c in coords)
    if ring.kind == "order":
        gen = ring.generator
        assert gamma.contains(gen * tau)
        assert gamma.contains(gen * CycNum.rational(1))


# non-real taus of degree above 2, besides the quadratic ones
HIGHER_DEGREE_TAU = [zeta(5), zeta(8), zeta(12) + zeta(5), 2 * zeta(7) - Fraction(1, 3)]


@given(
    st.one_of(quadratic_tau(), st.sampled_from(HIGHER_DEGREE_TAU)),
    st.sampled_from(FIRST_GENERATORS),
)
@settings(max_examples=100, deadline=None)
def test_multiplier_ring_matches_minimal_polynomial_oracle(tau, g1):
    """The trace-and-norm reading of tau = g2 / g1 against the oracle's
    minimal polynomial of tau."""
    gamma = RankTwoLattice(g1, g1 * tau)
    assert multiplier_ring(gamma) == multiplier_ring_by_minpoly(gamma)


def test_multiplier_ring_of_a_large_scalar():
    # the discriminant -4 * 10000019^2 is a square times -4, and the order
    # Z[10000019 i] has conductor 10000019
    gamma = RankTwoLattice(1, 10_000_019 * zeta(4))
    ring = multiplier_ring(gamma)
    assert ring.kind == "order"
    assert ring.discriminant == -4 * 10_000_019**2
    assert ring.fundamental_discriminant == -4
    assert ring.order_conductor == 10_000_019
    assert ring == multiplier_ring_by_minpoly(gamma)


def test_squarefree_and_fundamental():
    assert squarefree_part(12) == 3
    assert squarefree_part(-18) == -2
    assert fundamental_discriminant(-1) == -4
    assert fundamental_discriminant(-3) == -3
    assert fundamental_discriminant(-4) == -4
    assert fundamental_discriminant(-12) == -3
    assert fundamental_discriminant(-20) == -20


def test_isogeny_test_scalar():
    a = RankTwoLattice(CycNum.rational(1), zeta(4))
    b = RankTwoLattice(CycNum.rational(2), zeta(4) * 2)
    beta = isogeny_test(a, b)
    assert beta is not None
    # beta carries the span of b onto the span of a
    assert a.contains(beta * b.g1) or b.contains(beta.inverse() * a.g1)


def test_isogeny_test_distinct_fields():
    a = RankTwoLattice(CycNum.rational(1), zeta(4))
    b = RankTwoLattice(CycNum.rational(1), zeta(3))
    assert isogeny_test(a, b) is None


def test_second_invariance_check_reuses_spans(monkeypatch):
    group = group_from_json(GENERATED["WeylB3"][0])
    base = construct_rank_n(group, schur_index(group, 1).basis)
    doubled = extend_rank_2n(base, zeta(4))
    assert invariance_check(doubled, group.sparse_generators)
    rref_calls, spans = [], []
    real_rref = linalg.rref

    def counting_rref(rows):
        rref_calls.append(rows)
        return real_rref(rows)

    class CountingSpan(linalg.Span):
        def __init__(self, rows=()):
            spans.append(self)
            super().__init__(rows)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(linalg, "Span", CountingSpan)
    assert invariance_check(doubled, group.sparse_generators)
    assert not rref_calls
    assert not spans


GOLDEN = Path(__file__).parent / "golden"


def _lattice_objects(obj):
    """Every lattice encoding (ambient, basis, denominator) inside a report."""
    if isinstance(obj, dict):
        if {"ambient", "basis", "denominator"} <= set(obj):
            yield obj
        for value in obj.values():
            yield from _lattice_objects(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _lattice_objects(value)


def _golden_lattices():
    paths = sorted(GOLDEN.glob("*.json")) + sorted((GOLDEN / "generated").glob("*.json"))
    assert len(paths) == 17
    out = []
    for path in paths:
        report = json.loads(path.read_text(encoding="utf-8"))
        out += [(path.stem, obj) for obj in _lattice_objects(report)]
    return out


def _probe_vectors(lattice, rng):
    """Seeded vectors inside the lattice and near it: an integer combination
    of the basis, that plus half or a third of a basis vector (in the
    rational span, outside the lattice), plus a small rational vector, and
    with a seventh root of unity (outside the field) added to one entry."""
    vecs = lattice.vectors()
    inside = [CycNum.rational(0)] * lattice.dim
    for vec in vecs:
        k = rng.randint(-3, 3)
        inside = [a + k * x for a, x in zip(inside, vec)]
    inside = tuple(inside)
    part = Fraction(1, rng.choice([2, 3]))
    pick = vecs[rng.randrange(len(vecs))]
    nudge = [CycNum.rational(rng.randint(-2, 2)) for _ in range(lattice.dim)]
    return [
        inside,
        tuple(a + part * x for a, x in zip(inside, pick)),
        tuple(a + b for a, b in zip(inside, nudge)),
        (inside[0] + zeta(7),) + inside[1:],
    ]


def test_golden_lattices_match_the_old_routes():
    """Every lattice of the report goldens and the line through each of its
    basis vectors: the encoding equals the two-elimination route's, the
    cached basis vectors equal the CycNum sums, the lattice passes the
    split of the vectors, and membership and coordinates agree with the
    two-Span route on seeded vectors in and near the lattice."""
    rng = random.Random(2005)
    found = set()
    lattices_seen = 0
    for name, obj in _golden_lattices():
        lattice = lattice_from_json(obj)
        assert lattice_to_json(lattice) == obj, name
        assert lattice_json_by_pivot_hnf(lattice.vectors()) == obj, name
        lines = [lattice_from_generators([v], dim=lattice.dim) for v in lattice.vectors()]
        probes = _probe_vectors(lattice, rng)
        for lat in [lattice] + lines:
            lattices_seen += 1
            assert lat.vectors() == vectors_by_cycnum_combination(lat), name
            assert is_discrete_by_vector_split(lat), name
            for vec in probes + list(lattice.vectors()):
                coords = lat.basis_coords(vec)
                assert coords == basis_coords_by_spans(lat, vec), name
                found.add(coords is None)
    assert lattices_seen > 27
    assert found == {True, False}


ROOT2 = zeta(8) + zeta(8).conjugate()


def _unchecked_lattice(monkeypatch, vectors):
    """The canonical data of the integer span of the vectors, built with the
    discreteness check switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(lattices, "_check_discrete", lambda lattice: None)
        return lattice_from_generators(vectors)


def _counting_exact_check(monkeypatch):
    """The list that collects each lattice the exact discreteness check is
    run on, with the check itself unchanged."""
    calls = []
    exact = lattices._check_discrete_exactly

    def counting(lattice):
        calls.append(lattice)
        exact(lattice)

    monkeypatch.setattr(lattices, "_check_discrete_exactly", counting)
    return calls


def test_every_builder_rejects_a_dense_span(monkeypatch):
    """Z*1 + Z*sqrt(2), with sqrt(2) = zeta8 + zeta8^-1, is dense in the real
    line, alone and beside a second coordinate: each lattice builder refuses
    it, after exactly one exact rank (the modular certificate fails on it),
    and the old split of the basis vectors agrees."""
    one, nil = CycNum.rational(1), CycNum.rational(0)
    exact_calls = _counting_exact_check(monkeypatch)

    def rejected_after_one_exact_rank(build, *args):
        exact_calls.clear()
        with pytest.raises(NotDiscreteError, match="^integer span is not discrete: "
                           "generators are dependent over the reals$"):
            build(*args)
        assert len(exact_calls) == 1

    line, root_line = lattice_from_generators([(one,)]), lattice_from_generators([(ROOT2,)])
    rejected_after_one_exact_rank(lattice_sum, line, root_line)
    plane = lattice_from_generators([(one, nil), (nil, one)])
    rejected_after_one_exact_rank(lattice_sum, plane, lattice_from_generators([(ROOT2, nil)]))
    dense_line = _unchecked_lattice(monkeypatch, [(one,), (ROOT2,)])
    dense_plane = _unchecked_lattice(monkeypatch, [(one, nil), (ROOT2, nil), (nil, one)])
    for dense in (dense_line, dense_plane):
        assert not is_discrete_by_vector_split(dense)
        for scalar in (2, zeta(4), ROOT2):
            rejected_after_one_exact_rank(scale_lattice, scalar, dense)
        rejected_after_one_exact_rank(lattice_sum, dense, dense)
        rejected_after_one_exact_rank(lambda lat: lattice_from_json(lattice_to_json(lat)), dense)
    rejected_after_one_exact_rank(intersect_with_line, dense_plane, (one, nil))
    assert is_discrete_by_vector_split(intersect_with_line(plane, (one, nil))[0])


def test_no_analysis_reaches_the_exact_discreteness_check(monkeypatch):
    """Every lattice the catalog and the generated groups build is certified
    discrete modulo a prime; none needs the exact rank over the field."""
    checked = []
    check = lattices._check_discrete
    monkeypatch.setattr(lattices, "_check_discrete", lambda lat: checked.append(lat) or check(lat))
    exact_calls = _counting_exact_check(monkeypatch)
    for name in catalog_names():
        analyze(name)
    for obj, _ in GENERATED.values():
        analyze(obj)
    assert sum(lat.conductor > 1 for lat in checked) > 20
    assert not exact_calls


def _dense_or_discrete_generators(rng, conductor):
    """Seeded generators in C^1 or C^2 at the conductor: random vectors, one
    more than a discrete lattice can hold now and then, and every third time
    a vector u beside t*u for t = zeta + zeta^-1, which is real, so the span
    is dense in the real line through u when t is irrational."""
    dim = rng.randint(1, 2)
    count = rng.randint(1, 2 * dim + 1)
    gens = [tuple(_random_entry(rng, conductor) for _ in range(dim)) for _ in range(count)]
    if rng.random() < 1 / 3:
        t = zeta(conductor) + zeta(conductor).conjugate()
        gens.append(tuple(t * x for x in gens[0]))
    return gens


@pytest.mark.parametrize("conductor", [3, 4, 5, 8, 12])
def test_modular_discreteness_matches_the_field_rank(monkeypatch, conductor):
    rng = random.Random(9100 + conductor)
    cases = [_dense_or_discrete_generators(rng, conductor) for _ in range(40)]
    t = zeta(conductor) + zeta(conductor).conjugate()
    one, nil = CycNum.rational(1), CycNum.rational(0)
    cases += [[(one,), (t,)], [(one, nil), (t, nil), (nil, zeta(conductor))]]
    verdicts = set()
    for gens in cases:
        lattice = _unchecked_lattice(monkeypatch, gens)
        try:
            check_discrete_by_field_rank(lattice)
            expected = None
        except NotDiscreteError as exc:
            expected = str(exc)
        try:
            lattices._check_discrete(lattice)
            got = None
        except NotDiscreteError as exc:
            got = str(exc)
        assert got == expected, gens
        verdicts.add(expected is None)
    # Q(zeta_3) and Q(i) are imaginary quadratic: every lattice in them is
    # discrete; the fields of degree 4 hold dense spans as well
    assert verdicts == ({True} if conductor in (3, 4) else {True, False})


def test_rational_rank_of_the_flattened_rows_misses_a_dense_span(monkeypatch):
    """Z + Z sqrt(2): the flattened rational rows of (v | conj v) have full
    rank over Q, yet the span is dense; the rank has to be taken over the
    field (or modulo a prime ideal through zeta8 -> g), as the check does."""
    one = CycNum.rational(1)
    dense = _unchecked_lattice(monkeypatch, [(one,), (ROOT2,)])
    flattened = [
        [c for x in vec + tuple(y.conjugate() for y in vec) for c in x.coords_at(8)]
        for vec in dense.vectors()
    ]
    assert linalg.rank(flattened) == 2 == dense.rank
    with pytest.raises(NotDiscreteError):
        lattices._check_discrete(dense)


def test_second_basis_coords_builds_no_span(monkeypatch):
    group = group_from_json(GENERATED["WeylB3"][0])
    base = construct_rank_n(group, schur_index(group, 1).basis)
    doubled = extend_rank_2n(base, zeta(4))
    image = tuple(2 * x - y for x, y in zip(doubled.vectors()[0], doubled.vectors()[-1]))
    expected = [2] + [0] * (doubled.rank - 2) + [-1]
    assert doubled.basis_coords(image) == expected
    rref_calls, spans = [], []
    real_rref = linalg.rref

    def counting_rref(rows):
        rref_calls.append(rows)
        return real_rref(rows)

    class CountingSpan(linalg.Span):
        def __init__(self, rows=()):
            spans.append(self)
            super().__init__(rows)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(linalg, "Span", CountingSpan)
    assert doubled.basis_coords(image) == expected
    assert doubled.contains(image)
    assert not rref_calls
    assert not spans
    assert not any(isinstance(v, linalg.Span) for v in vars(doubled).values())


def test_lattice_builds_run_no_rref_and_the_encoding_runs_one(monkeypatch):
    """A build is one HNF of the generator rows and coordinates are one
    back-substitution against it; only the encoding reduces the rows to the
    rational span."""
    one, nil, i4 = CycNum.rational(1), CycNum.rational(0), zeta(4)
    half = CycNum.rational(Fraction(1, 2))
    rref_calls = []
    real_rref = linalg.rref

    def counting_rref(rows):
        rref_calls.append(rows)
        return real_rref(rows)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    lattice = lattice_from_generators([(one, half * i4), (i4, nil), (one + i4, half)])
    total = lattice_sum(lattice, lattice_from_generators([(nil, one)]))
    scaled = scale_lattice(zeta(3), total)
    image = tuple(zeta(3) * (x + y) for x, y in zip(total.vectors()[0], total.vectors()[-1]))
    assert scaled.basis_coords(image) is not None
    assert scaled.basis_coords((half, nil)) is None
    assert not rref_calls
    lattice_to_json(scaled)
    assert len(rref_calls) == 1


def _random_entry(rng, conductor):
    """A seeded number of Q(zeta_conductor) with small rational coordinates."""
    return CycNum(
        conductor,
        [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(conductor)],
    )


def _direction_generators(rng, conductor):
    """Seeded generators of a lattice in one complex line of C^3: rational
    combinations, with denominators, of a vector u and (for a conductor
    above 1) zeta * u, which are independent over the reals."""
    u = tuple(_random_entry(rng, conductor) for _ in range(3))
    base = [u] if conductor == 1 else [u, tuple(zeta(conductor) * x for x in u)]
    gens = []
    for _ in range(len(base) + 2):
        vec = [CycNum.rational(0)] * 3
        for b in base:
            coeff = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 4]))
            vec = [v + coeff * x for v, x in zip(vec, b)]
        gens.append(tuple(vec))
    return u, gens


@pytest.mark.parametrize("conductor", [1, 3, 4, 12])
def test_one_hnf_matches_the_pivot_coordinate_route(conductor):
    """Lines and planes in C^3 of rank below the ambient width: the encoding
    of every lattice, sum, scaled lattice and intersection equals the
    two-elimination route's on their generators, and the index agrees with
    the coset count."""
    rng = random.Random(conductor)
    u, line_gens = _direction_generators(rng, conductor)
    _, other_gens = _direction_generators(rng, conductor)
    line = lattice_from_generators(line_gens)
    plane = lattice_from_generators(line_gens + other_gens)
    assert plane.rank == 2 * line.rank < 3 * len(zeta(conductor).coords_at(conductor))
    assert lattice_to_json(line) == lattice_json_by_pivot_hnf(line_gens)
    assert lattice_to_json(plane) == lattice_json_by_pivot_hnf(line_gens + other_gens)
    # a denominator off the pivot column: the encoding's denominator is 1
    thin = [(CycNum.rational(1), zeta(conductor) / 2, CycNum.rational(Fraction(1, 3)))]
    assert lattice_to_json(lattice_from_generators(thin)) == lattice_json_by_pivot_hnf(thin)
    total = lattice_sum(line, lattice_from_generators(other_gens))
    assert total == plane
    for scalar in (Fraction(2, 3), zeta(4), 1 + zeta(3)):
        scaled = [tuple(scalar * x for x in vec) for vec in line_gens + other_gens]
        assert lattice_to_json(scale_lattice(scalar, plane)) == lattice_json_by_pivot_hnf(scaled)
    assert lattice_to_json(intersect_with_line(plane, u)[0]) == lattice_to_json(line)
    assert lattice_index(plane, line) == math.inf
    multiples = [rng.randint(1, 3) for _ in plane.vectors()]
    sub = lattice_from_generators(
        [tuple(k * x for x in vec) for k, vec in zip(multiples, plane.vectors())]
    )
    assert lattice_index(plane, sub) == coset_count(plane, sub) == math.prod(multiples)


def _line_case(rng, conductor, n):
    """(lattice, root): a seeded lattice in C^n and a root with zero entries
    and a leading entry other than 1.  The lattice is a rational linear image
    of some of the vectors e_i and zeta * e_i, so it is discrete and often
    of rank below 2n; the root is the image of an integer vector, which
    meets the lattice, or a vector of arbitrary entries, which often does
    not."""
    z = zeta(conductor)
    units = [CycNum.rational(1)] + ([z] if conductor > 2 else [])
    nil = CycNum.rational(0)
    base = [tuple(u if j == i else nil for j in range(n)) for i in range(n) for u in units]
    kept = rng.sample(base, rng.randint(1, len(base)))
    m = [[Fraction(rng.choice([1, 2, -3]), rng.choice([1, 2])) if i == j
          else Fraction(rng.randint(-2, 2), rng.choice([1, 3])) if j > i else 0
          for j in range(n)] for i in range(n)]

    def image(vec):
        return tuple(sum((a * x for a, x in zip(row, vec)), nil) for row in m)

    lattice = lattice_from_generators([image(v) for v in kept])
    while True:
        if rng.random() < 0.5:
            w = image([CycNum.rational(rng.choice([0, 0, 1, -2, 3])) for _ in range(n)])
        else:
            w = [rng.choice([nil, _random_entry(rng, conductor)]) for _ in range(n)]
        if any(not x.is_zero() for x in w):
            break
    scalar = rng.choice([CycNum.rational(Fraction(-2, 3)), 1 + z, z / 2])
    return lattice, tuple(scalar * x for x in w)


@pytest.mark.parametrize("conductor", [1, 3, 4, 5, 12])
def test_intersect_with_line_matches_the_kernel_oracle(conductor):
    rng = random.Random(9100 + conductor)
    ranks = set()
    for k in range(16):
        lattice, root = _line_case(rng, conductor, 1 + k % 3)
        line, coords = intersect_with_line(lattice, root)
        assert line == intersect_with_subspace(lattice, [root]), k
        assert line == intersect_with_line_by_values(lattice, root), k
        p = next(j for j, x in enumerate(root) if not x.is_zero())
        for vec in line.vectors():
            assert lattice.contains(vec)
            assert all((root[p] * x - r * vec[p]).is_zero() for x, r in zip(vec, root))
        # coords are the canonical coordinates of a basis of the line lattice
        assert coords == linalg.hnf(coords) and len(coords) == line.rank
        vecs = lattice.vectors()
        combos = [tuple(sum((c * v[i] for c, v in zip(row, vecs)), CycNum.rational(0))
                        for i in range(lattice.dim)) for row in coords]
        assert lattice_from_generators(combos, dim=lattice.dim, allow_zero=True) == line
        ranks.add(line.rank)
    assert len(ranks) > 1


def test_a_line_in_a_smaller_field_takes_its_least_conductor():
    # the line (0, 1) meets these lattices in Z and in Z + Z zeta3, inside
    # fields smaller than the lattices' own; the root's own field is Q(zeta5)
    one, nil = CycNum.rational(1), CycNum.rational(0)
    root = (nil, zeta(5) + 2)
    cases = [
        ([(one, nil), (zeta(4), nil)], [(nil, one)], 4),
        ([(one, nil), (zeta(12), nil)], [(nil, one), (nil, zeta(3))], 12),
    ]
    for off_line, on_line, conductor in cases:
        lattice = lattice_from_generators(off_line + on_line)
        line, coords = intersect_with_line(lattice, root)
        assert lattice.conductor == conductor
        assert line == lattice_from_generators(on_line)
        assert line == intersect_with_line_by_values(lattice, root)
        assert line.conductor < conductor
        assert len(coords) == line.rank

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from invlat import forge, lattices, report
from invlat.catalog import catalog_names, get_entry
from invlat.cyclotomic import CycNum, parse_scalar, sqrt_rational, zeta
from invlat.errors import InternalConsistencyError, InvalidInputError, OutOfScopeError
from invlat.forge import (
    EUCLIDEAN_DISCRIMINANTS,
    ImaginaryQuadraticOrder,
    construct_rank_n,
    extend_rank_2n,
    orbit_lattice_over_order,
    split_as_order_module,
)
from invlat.lattices import (
    RankTwoLattice,
    ZLattice,
    fundamental_discriminant,
    invariance_check,
    lattice_from_generators,
    multiplication_matrix,
    multiplier_ring,
)
from invlat.groups import DEFAULT_CAP, group_from_json
from invlat.report import GroupAnalysis
from invlat.schur import (
    classify_character_field,
    schur_index,
)

from generated_groups import GENERATED, imprimitive_mpn
from oracles import (
    euclid_divmod,
    field_coords,
    field_norm,
    five_starts,
    lattice_index,
    lattice_sum,
    orbit_lattice_all_elements,
    orbit_lattice_by_rebuilding,
    order_saturate,
    rank_two_contains,
    rank_two_coords_by_span,
    scale_lattice,
    sparse,
    split_as_order_module_by_values,
)


def std_lattice(n):
    one, nil = CycNum.rational(1), CycNum.rational(0)
    return lattice_from_generators(
        [tuple(one if j == k else nil for j in range(n)) for k in range(n)]
    )


def test_order_generators_square_correctly():
    for disc in [-3, -4, -7, -8, -11, -15, -20]:
        order = ImaginaryQuadraticOrder.from_discriminant(disc)
        gen = order.generator
        # omega satisfies x^2 - tr x + nm with discriminant disc
        if disc % 4 == 0:
            assert gen * gen == CycNum.rational(Fraction(disc, 4))
        else:
            trace = gen + gen.conjugate()
            norm = gen * gen.conjugate()
            assert trace == CycNum.rational(1)
            assert norm == CycNum.rational(Fraction(1 - disc, 4))


def test_order_rejects_bad_discriminants():
    for disc in [0, 5, -1, -2, -6]:
        with pytest.raises(InvalidInputError):
            ImaginaryQuadraticOrder.from_discriminant(disc)


def test_euclidean_flags():
    for disc in EUCLIDEAN_DISCRIMINANTS:
        assert ImaginaryQuadraticOrder.from_discriminant(disc).euclidean
    for disc in [-15, -19, -20, -23]:
        assert not ImaginaryQuadraticOrder.from_discriminant(disc).euclidean


def test_maximal_order_from_field_discriminant():
    # the report builds the maximal order from the character field's
    # fundamental discriminant
    for disc, fundamental in [(-4, -4), (-12, -3), (-16, -4), (-8, -8)]:
        order = ImaginaryQuadraticOrder.from_discriminant(fundamental_discriminant(disc))
        assert order.discriminant == fundamental


def test_field_coords_and_contains():
    order = ImaginaryQuadraticOrder.from_discriminant(-3)
    omega = order.generator
    assert rank_two_contains(order.lattice, omega * omega)  # omega^2 = omega - 1
    x = omega * 2 - CycNum.rational(5)
    a, b = field_coords(order, x)
    assert a == Fraction(-5) and b == Fraction(2)
    assert rank_two_contains(order.lattice, x)
    assert not rank_two_contains(order.lattice, omega / 2)


# numbers outside every imaginary-quadratic field
OUTSIDE_QUADRATIC = [zeta(5), sqrt_rational(2), zeta(8)]
fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(
    st.sampled_from(EUCLIDEAN_DISCRIMINANTS + (-12, -16)),
    fractions, fractions,
    st.sampled_from([None] + OUTSIDE_QUADRATIC),
)
@settings(max_examples=120, deadline=None)
def test_field_coords_match_span_oracle(disc, u, v, outside):
    order = ImaginaryQuadraticOrder.from_discriminant(disc)
    omega = order.generator
    x = CycNum.rational(u) + omega * v
    if outside is not None:
        x = x + outside
    coords = field_coords(order, x)
    assert coords == rank_two_coords_by_span(CycNum.rational(1), omega, x)
    assert coords == ([u, v] if outside is None else None)
    integral = outside is None and u.denominator == v.denominator == 1
    assert rank_two_contains(order.lattice, x) == integral
    assert field_coords(order, 0) == [0, 0]


def test_orders_are_built_once_per_discriminant():
    for disc in EUCLIDEAN_DISCRIMINANTS + (-15, -20):
        order = ImaginaryQuadraticOrder.from_discriminant(disc)
        assert ImaginaryQuadraticOrder.from_discriminant(disc) is order
        assert order.discriminant == disc
    # a rejected discriminant raises on every call
    for disc in [-5, 5, -5, 5]:
        with pytest.raises(InvalidInputError):
            ImaginaryQuadraticOrder.from_discriminant(disc)


pair_entries = st.integers(-60, 60)


@given(
    st.sampled_from(EUCLIDEAN_DISCRIMINANTS),
    pair_entries, pair_entries, pair_entries, pair_entries,
)
@settings(max_examples=300, deadline=None)
def test_pair_divmod_shrinks_norm_and_matches_the_oracle(disc, a1, a2, b1, b2):
    order = ImaginaryQuadraticOrder.from_discriminant(disc)
    omega = order.generator

    def value(pair):
        return CycNum.rational(pair[0]) + omega * pair[1]

    alpha, beta = (a1, a2), (b1, b2)
    if beta == (0, 0):
        with pytest.raises(InvalidInputError):
            order.pair_divmod(alpha, beta)
        return
    q, r = order.pair_divmod(alpha, beta)
    assert value(alpha) == value(q) * value(beta) + value(r)
    assert order.pair_norm(beta) == field_norm(value(beta))
    assert order.pair_norm(r) == field_norm(value(r)) < order.pair_norm(beta)
    assert euclid_divmod(order, value(alpha), value(beta)) == (value(q), value(r))


def test_divmod_known_value():
    order = ImaginaryQuadraticOrder.from_discriminant(-4)
    assert order.pair_divmod((7, 3), (2, 1)) == ((3, 0), (1, 0))
    i4 = zeta(4)
    q, r = euclid_divmod(order, CycNum.rational(7) + i4 * 3, CycNum.rational(2) + i4)
    assert q == CycNum.rational(3) and r == CycNum.rational(1)


def test_construct_rank_n_s3(s3):
    witness = schur_index(s3, 1).basis
    lat = construct_rank_n(s3, witness)
    assert lat.rank == 2
    assert invariance_check(lat, sparse(s3.elements))


def test_construct_rank_n_s4(s4):
    witness = schur_index(s4, 1).basis
    lat = construct_rank_n(s4, witness)
    assert lat.rank == 3
    assert invariance_check(lat, sparse(s4.elements))


def test_construct_rank_n_rejects_unstable(g4):
    one, nil = CycNum.rational(1), CycNum.rational(0)
    # the standard basis spans a rational structure not stable under G4
    with pytest.raises(InvalidInputError):
        construct_rank_n(g4, [(one, nil), (nil, one)])


def test_orbit_lattices_match_all_elements_oracle():
    # both recipes close their orbits from the generators; the oracle spans
    # the images under all |G| elements in one lattice construction
    groups = [
        (name, get_entry(name).group())
        for name in catalog_names()
        if get_entry(name).kind == "group"
    ]
    groups += [(name, group_from_json(obj)) for name, (obj, _) in GENERATED.items()]
    recipes = set()
    for name, group in groups:
        analysis = GroupAnalysis(group)
        profile = analysis.profile
        if analysis.verdict.clause != "c-i":
            continue
        if profile.field.kind == "rational":
            witness = analysis.witness.basis
            lattice = construct_rank_n(group, witness)
            assert lattice == orbit_lattice_all_elements(group, witness), name
            recipes.add("Zn")
            continue
        order = ImaginaryQuadraticOrder.from_discriminant(profile.field.discriminant)
        for start in five_starts(group.dimension)[::2]:
            lattice = orbit_lattice_over_order(group, order, start, profile.field)
            seeds = [start, tuple(order.generator * x for x in start)]
            assert lattice == orbit_lattice_all_elements(group, seeds), name
            recipes.add("O")
    assert recipes == {"Zn", "O"}


def _counting_builds(monkeypatch):
    """Record every lattice that forge builds from generators."""
    built = []
    real = forge.lattice_from_generators

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(forge, "lattice_from_generators", counting)
    return built


@pytest.mark.parametrize("name", ["G3-1-3", "WeylB3"])
def test_orbit_lattice_stops_on_containment(monkeypatch, name):
    # each orbit builds one lattice fewer than growing until a rebuild comes
    # back unchanged: every build is a strictly larger lattice, and the last
    # one is the result
    group = group_from_json(GENERATED[name][0])
    analysis = GroupAnalysis(group)
    profile = analysis.profile
    if profile.field.kind == "rational":
        witness = analysis.witness.basis
        seeds = [tuple(v) for v in witness]
        run = lambda: construct_rank_n(group, witness)  # noqa: E731
    else:
        order = ImaginaryQuadraticOrder.from_discriminant(profile.field.discriminant)
        start = five_starts(group.dimension)[0]
        seeds = [start, tuple(order.generator * x for x in start)]
        run = lambda: orbit_lattice_over_order(group, order, start, profile.field)  # noqa: E731
    expected, old_builds = orbit_lattice_by_rebuilding(group, seeds)
    built = _counting_builds(monkeypatch)
    assert run() == expected
    assert len(built) == old_builds - 1
    assert built[-1] == expected
    assert all(a != b for a, b in zip(built, built[1:]))


def test_extend_rank_2n(s3):
    base = std_lattice(2)
    doubled = extend_rank_2n(base, zeta(4))
    assert doubled.rank == 4
    assert invariance_check(doubled, sparse(s3.elements))
    assert doubled.contains((zeta(4), CycNum.rational(0)))


def test_extend_rejects_real_scalar():
    for c in (CycNum.rational(2), sqrt_rational(2), zeta(5) + zeta(5).conjugate()):
        with pytest.raises(InvalidInputError, match="non-real"):
            extend_rank_2n(std_lattice(2), c)


def test_extend_rejects_the_zero_lattice_like_the_sum_oracle():
    zero = ZLattice(2, 1, (), 1)
    with pytest.raises(InvalidInputError, match="no nonzero generators"):
        lattice_sum(zero, scale_lattice(zeta(4), zero))
    with pytest.raises(InvalidInputError, match="no nonzero generators"):
        extend_rank_2n(zero, zeta(4))


@pytest.fixture(scope="module")
def ds_cases():
    """(name, base, c) for every `ds` doubling that the catalog and the
    generated groups make, the scalars of test_report_cli on the
    S3-standard and WeylB3 bases, scalars whose conductor does not divide
    the base's, and scalars with denominators."""
    cases = []
    real = report.extend_rank_2n

    def recording(lattice, c):
        cases.append((name, lattice, c))
        return real(lattice, c)

    report._q8_analysis.cache_clear()  # Q8's ds lattice is built afresh
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "extend_rank_2n", recording)
        for name in catalog_names():
            report.analyze(name)
        for name, (obj, _) in GENERATED.items():
            report.analyze(obj)
    assert {name for name, _, _ in cases} >= {"Q8", "S3-standard", "WeylB3"}
    z3, one, nil = zeta(3), CycNum.rational(1), CycNum.rational(0)
    bases = [(name, construct_rank_n(group, GroupAnalysis(group).witness.basis))
             for name, group in [("S3-standard", get_entry("S3-standard").group()),
                                 ("WeylB3", group_from_json(GENERATED["WeylB3"][0]))]]
    bases.append(("conductor 3", lattice_from_generators([(one, z3), (z3, one)])))
    # rows that a prime of c's denominator divides: the stacked rows shrink
    bases.append(("6 Z^2", lattice_from_generators([(6 * one, nil), (nil, 6 * one)])))
    scalars = [parse_scalar(c) for c in EUCLIDEAN_SCALARS + ["2*z4", "1+2*z4", "2*z3"]]
    scalars += [zeta(4), (1 + sqrt_rational(-7)) / 2, (1 + zeta(4)) / 2, z3 / 3]
    cases += [(f"{name} doubled by {c}", base, c) for name, base in bases for c in scalars]
    return cases


def test_extend_rank_2n_matches_the_sum_oracle(ds_cases):
    conductors, dens = set(), set()
    for name, base, c in ds_cases:
        doubled = extend_rank_2n(base, c)
        assert doubled == lattice_sum(base, scale_lattice(c, base)), name
        conductors.add((base.conductor, c.conductor, doubled.conductor))
        _, d = c.numerators_at(c.conductor)
        dens.add((base.den * d, doubled.den))
    # conductors of the scalar that do not divide the base's
    assert {(3, 4, 12), (1, 7, 7), (3, 7, 21)} <= conductors
    # the least den of the sum: den * d kept, and divided by a common factor
    assert {(2, 2), (3, 3), (2, 1), (3, 1)} <= dens


def test_extend_rank_2n_runs_one_hnf_on_integer_rows(ds_cases, monkeypatch):
    hnf_calls = []
    real_hnf = forge.linalg.hnf
    monkeypatch.setattr(forge.linalg, "hnf", lambda rows: hnf_calls.append(rows) or real_hnf(rows))
    for module in (forge, lattices):
        monkeypatch.setattr(module, "lattice_from_generators",
                            lambda *a, **k: pytest.fail("lattice_from_generators"))
    monkeypatch.setattr(CycNum, "inverse", lambda self: pytest.fail("inverse"))
    for name, base, c in ds_cases:
        hnf_calls.clear()
        assert extend_rank_2n(base, c).rank == 2 * base.rank, name
        assert len(hnf_calls) == 1, name


@given(
    st.sampled_from([-3, -4, -7, -8, -11, -15, -20]),
    st.integers(-6, 6), st.integers(-6, 6).filter(bool), st.integers(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_a_scalar_lies_in_its_ring_exactly_when_it_is_the_generator(disc, a, b, q):
    """For c = a + b*omega/q, the report reads "c lies in the multiplier ring
    O of Z + Zc" as O's generator being c; the oracle writes c in the
    rank-two lattice Z + Z*omega of O.  The discriminants are fundamental,
    so c is integral exactly when q divides b."""
    omega = ImaginaryQuadraticOrder.from_discriminant(disc).generator
    c = a + omega * Fraction(b, q)
    ring = multiplier_ring(RankTwoLattice(1, c))
    order = ImaginaryQuadraticOrder.from_discriminant(ring.discriminant)
    assert (ring.generator == c) == rank_two_contains(order.lattice, c) == (b % q == 0)


def test_orbit_lattice_g4(g4):
    order = ImaginaryQuadraticOrder.from_discriminant(-3)
    one, nil = CycNum.rational(1), CycNum.rational(0)
    lat = orbit_lattice_over_order(g4, order, (one, nil), classify_character_field(g4))
    assert lat.rank == 4
    assert invariance_check(lat, sparse(g4.elements))
    # stability under the order generator
    scaled = scale_lattice(order.generator, lat)
    for vec in scaled.vectors():
        assert lat.contains(vec)


def test_orbit_lattice_certifies_order_stability(g4, monkeypatch):
    # a closure that is not omega-stable has no integer matrix of omega
    monkeypatch.setattr(forge, "_orbit_lattice", lambda group, seeds: std_lattice(2))
    with pytest.raises(InternalConsistencyError, match="not order-stable"):
        orbit_lattice_over_order(g4, ImaginaryQuadraticOrder.from_discriminant(-3),
                                 (CycNum.rational(1), CycNum.rational(0)),
                                 classify_character_field(g4))


def test_orbit_lattice_c3():
    group = get_entry("C3-zeta3").group()
    order = ImaginaryQuadraticOrder.from_discriminant(-3)
    lat = orbit_lattice_over_order(
        group, order, (CycNum.rational(1),), classify_character_field(group)
    )
    assert lat.rank == 2


def test_orbit_lattice_rejects_field_mismatch(g4):
    with pytest.raises(InvalidInputError):
        orbit_lattice_over_order(
            g4,
            ImaginaryQuadraticOrder.from_discriminant(-4),
            (CycNum.rational(1), CycNum.rational(0)),
            classify_character_field(g4),
        )


def test_orbit_lattice_rejects_rational_group(s3):
    with pytest.raises(InvalidInputError):
        orbit_lattice_over_order(
            s3,
            ImaginaryQuadraticOrder.from_discriminant(-4),
            (CycNum.rational(1), CycNum.rational(0)),
            classify_character_field(s3),
        )


def test_saturate_is_stable_fixed_point(g4):
    order = ImaginaryQuadraticOrder.from_discriminant(-3)
    one, nil = CycNum.rational(1), CycNum.rational(0)
    lat = orbit_lattice_over_order(g4, order, (one, nil), classify_character_field(g4))
    sat = order_saturate(lat, order)
    assert sat.rank == lat.rank
    assert lattice_index(sat, lat) >= 1
    again = order_saturate(sat, order)
    assert again == sat
    scaled = scale_lattice(order.generator, sat)
    for vec in scaled.vectors():
        assert sat.contains(vec)


def test_saturate_nontrivial_index():
    # Z + Z*2i is not stable under i; saturation adjoins i at index 2
    order = ImaginaryQuadraticOrder.from_discriminant(-4)
    i4 = zeta(4)
    lat = lattice_from_generators(
        [(CycNum.rational(1),), (i4 + i4,)]
    )
    sat = order_saturate(lat, order)
    assert lattice_index(sat, lat) == 2
    assert sat.contains((i4,))


def test_split_gaussian_square():
    order = ImaginaryQuadraticOrder.from_discriminant(-4)
    i4 = zeta(4)
    one, nil = CycNum.rational(1), CycNum.rational(0)
    lat = lattice_from_generators(
        [(one, nil), (i4, nil), (nil, one), (nil, i4)]
    )
    split = split_as_order_module(lat, order)
    assert len(split.basis) == 2
    # every factor O*v is the order Z + Z*i
    assert order.lattice == RankTwoLattice(CycNum.rational(1), i4)
    assert lattice_from_generators(
        [w for v in split.basis for w in (v, tuple(i4 * x for x in v))]
    ) == lat


def test_split_g4_orbit(g4):
    order = ImaginaryQuadraticOrder.from_discriminant(-3)
    one, nil = CycNum.rational(1), CycNum.rational(0)
    sat = order_saturate(
        orbit_lattice_over_order(g4, order, (one, nil), classify_character_field(g4)),
        order,
    )
    split = split_as_order_module(sat, order)
    assert len(split.basis) == 2
    # regeneration: the basis together with omega times it spans the lattice
    omega = order.generator
    regenerated = lattice_from_generators(
        [v for v in split.basis]
        + [tuple(omega * x for x in v) for v in split.basis],
        dim=2,
    )
    assert regenerated == sat


def test_split_requires_euclidean_order():
    order = ImaginaryQuadraticOrder.from_discriminant(-15)
    omega = order.generator
    lat = lattice_from_generators([(CycNum.rational(1),), (omega,)])
    with pytest.raises(OutOfScopeError):
        split_as_order_module(lat, order)


def test_split_requires_stability():
    order = ImaginaryQuadraticOrder.from_discriminant(-4)
    lat = std_lattice(2)  # rank 2, not i-stable
    with pytest.raises(InvalidInputError):
        split_as_order_module(lat, order)


# Z + Z*c is the maximal order of discriminant -3, -4, -7, -8, -11
EUCLIDEAN_SCALARS = ["z3", "z4", "z7+z7^2+z7^4", "z8+z8^3", "z11+z11^3+z11^4+z11^5+z11^9"]
C_I_ORDERS = [(m, p, n) for m in (3, 4, 6, 8, 12) for p in range(1, m + 1) if m % p == 0
              for n in (2, 3) if m**n * (2 if n == 2 else 6) // p <= DEFAULT_CAP]


@pytest.fixture(scope="module")
def split_cases():
    """(name, lattice, order) for every split the report makes on the catalog,
    the generated groups, the groups G(m,p,n) for m in 3, 4, 6, 8, 12 and
    n <= 3 within the default cap, and S3 doubled by a scalar outside its
    ring, plus the splits of the tests' own lattices."""
    cases = []
    real = report.split_as_order_module

    def recording(lattice, order):
        cases.append((name, lattice, order))
        return real(lattice, order)

    targets = [(name, name) for name in catalog_names()]
    targets += [(name, obj) for name, (obj, _) in GENERATED.items()]
    targets += [(f"G({m},{p},{n})", imprimitive_mpn(m, p, n)) for m, p, n in C_I_ORDERS]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "split_as_order_module", recording)
        for name, target in targets:
            report.analyze(target)
        name = "S3-standard ds 1/2+1/2*z4"
        entry = get_entry("S3-standard")
        GroupAnalysis(entry.group(), entry=entry,
                      doubling_scalar=parse_scalar("1/2+1/2*z4")).lattices
    # bases doubled by one scalar of each euclidean discriminant, as the
    # `ds` splits of test_report_cli are
    for name, group in [("S3-standard", get_entry("S3-standard").group()),
                        ("WeylB3", group_from_json(GENERATED["WeylB3"][0]))]:
        base = construct_rank_n(group, GroupAnalysis(group).witness.basis)
        for c in EUCLIDEAN_SCALARS:
            scalar = parse_scalar(c)
            disc = multiplier_ring(RankTwoLattice(1, scalar)).discriminant
            cases.append((f"{name} doubled by {c}", extend_rank_2n(base, scalar),
                          ImaginaryQuadraticOrder.from_discriminant(disc)))
    g4 = get_entry("G4").group()
    order = ImaginaryQuadraticOrder.from_discriminant(-3)
    one, nil = CycNum.rational(1), CycNum.rational(0)
    g4_orbit = orbit_lattice_over_order(g4, order, (one, nil), classify_character_field(g4))
    cases.append(("G4 saturated orbit", order_saturate(g4_orbit, order), order))
    cases.append(("Gaussian square", extend_rank_2n(std_lattice(2), zeta(4)),
                  ImaginaryQuadraticOrder.from_discriminant(-4)))
    return cases


def test_the_split_cases_cover_every_source(split_cases):
    names = [name for name, _, _ in split_cases]
    for name in ["G4", "C3-zeta3", "C4-zeta4", "G3-1-3", "G(6,3,3)", "G(4,2,3)",
                 "S3-standard ds 1/2+1/2*z4", "Gaussian square"]:
        assert name in names
    assert {order.discriminant for _, _, order in split_cases} == set(EUCLIDEAN_DISCRIMINANTS)
    assert {lattice.rank for _, lattice, _ in split_cases} == {2, 4, 6}


def test_split_matches_the_value_oracle(split_cases):
    for name, lattice, order in split_cases:
        split = split_as_order_module(lattice, order)
        assert split == split_as_order_module_by_values(lattice, order), name
        assert len(split.basis) == lattice.rank // 2, name


def _same_error(lattice, order, error):
    with pytest.raises(error) as raised:
        split_as_order_module(lattice, order)
    with pytest.raises(error) as expected:
        split_as_order_module_by_values(lattice, order)
    assert str(raised.value) == str(expected.value)


def test_split_errors_match_the_value_oracle(monkeypatch):
    order = ImaginaryQuadraticOrder.from_discriminant(-15)
    _same_error(lattice_from_generators([(CycNum.rational(1),), (order.generator,)]),
                order, OutOfScopeError)
    gaussian = ImaginaryQuadraticOrder.from_discriminant(-4)
    _same_error(std_lattice(2), gaussian, InvalidInputError)
    # an odd rank is never order-stable, so both stability checks are passed over
    monkeypatch.setattr(forge, "multiplication_matrix", lambda lattice, x: [[1]])
    monkeypatch.setattr(ZLattice, "contains", lambda self, vector: True)
    _same_error(std_lattice(1), gaussian, InternalConsistencyError)


def test_split_inverts_and_divides_nothing(split_cases, monkeypatch):
    monkeypatch.setattr(CycNum, "inverse", lambda self: pytest.fail("inverse"))
    monkeypatch.setattr(CycNum, "__truediv__", lambda self, other: pytest.fail("division"))
    for name, lattice, order in split_cases:
        assert len(split_as_order_module(lattice, order).basis) == lattice.rank // 2, name


def test_split_certifies_regeneration_by_one_determinant(split_cases, monkeypatch):
    # no lattice is rebuilt and compared: a unimodular check fails the split
    monkeypatch.setattr(forge, "lattice_from_generators", lambda *a, **k: pytest.fail("rebuilt"))
    monkeypatch.setattr(forge.linalg, "abs_det", lambda mat: 2)
    _, lattice, order = split_cases[0]
    with pytest.raises(InternalConsistencyError, match="does not regenerate"):
        split_as_order_module(lattice, order)


def test_multiplication_matrix_certifies_stability(split_cases):
    # the rows of M are the coordinates of omega * b_i; None off the order
    for name, lattice, order in split_cases:
        omega = order.generator
        matrix = multiplication_matrix(lattice, omega)
        for vec, row in zip(lattice.vectors(), matrix):
            assert lattice.basis_coords(tuple(omega * x for x in vec)) == row, name
        assert multiplication_matrix(lattice, omega / 2) is None, name
        assert multiplication_matrix(lattice, zeta(5)) is None, name
    assert multiplication_matrix(std_lattice(2), zeta(4)) is None

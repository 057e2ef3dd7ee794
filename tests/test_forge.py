from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from invlat import forge
from invlat.catalog import catalog_names, get_entry
from invlat.cyclotomic import CycNum, sqrt_rational, zeta
from invlat.errors import InvalidInputError, OutOfScopeError
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
    fundamental_discriminant,
    invariance_check,
    lattice_from_generators,
    lattice_index,
    scale_lattice,
)
from invlat.groups import group_from_json
from invlat.report import GroupAnalysis
from invlat.schur import (
    classify_character_field,
    schur_index,
)

from generated_groups import GENERATED
from oracles import (
    five_starts,
    orbit_lattice_all_elements,
    orbit_lattice_by_rebuilding,
    order_saturate,
    rank_two_coords_by_span,
    sparse,
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
    assert order.contains(omega * omega)  # omega^2 = omega - 1
    x = omega * 2 - CycNum.rational(5)
    a, b = order.field_coords(x)
    assert a == Fraction(-5) and b == Fraction(2)
    assert order.contains(x)
    assert not order.contains(omega / 2)


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
    coords = order.field_coords(x)
    assert coords == rank_two_coords_by_span(CycNum.rational(1), omega, x)
    assert coords == ([u, v] if outside is None else None)
    assert order.contains(x) == (outside is None and u.denominator == v.denominator == 1)
    assert order.field_coords(0) == [0, 0]


@given(
    st.sampled_from(EUCLIDEAN_DISCRIMINANTS),
    st.integers(-9, 9), st.integers(-9, 9),
    st.integers(-9, 9), st.integers(-9, 9),
)
@settings(max_examples=150)
def test_euclid_divmod_shrinks_norm(disc, a1, a2, b1, b2):
    order = ImaginaryQuadraticOrder.from_discriminant(disc)
    omega = order.generator
    x = CycNum.rational(a1) + omega * a2
    y = CycNum.rational(b1) + omega * b2
    if y.is_zero():
        return
    q, r = order.euclid_divmod(x, y)
    assert order.contains(q)
    assert x == q * y + r
    assert order.norm(r) < order.norm(y)


def test_divmod_known_value():
    order = ImaginaryQuadraticOrder.from_discriminant(-4)
    i4 = zeta(4)
    x = CycNum.rational(7) + i4 * 3
    y = CycNum.rational(2) + i4
    q, r = order.euclid_divmod(x, y)
    assert q == CycNum.rational(3) + i4 * 0
    assert r == CycNum.rational(1)


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
    with pytest.raises(InvalidInputError):
        extend_rank_2n(std_lattice(2), CycNum.rational(2))


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

import pytest

from invlat.catalog import get_entry
from invlat.cyclotomic import CycNum, zeta
from invlat.errors import InvalidInputError
from invlat.forge import extend_rank_2n, maximal_order, orbit_lattice_over_order, order_saturate
from invlat.groups import find_reflections, mat_identity
from invlat.lattices import lattice_from_generators, lattice_index, scale_lattice
from invlat.reflections import (
    choose_generating_reflections,
    cm_detect,
    cm_from_scan,
    cycle_multiplier,
    geom_report,
    isogeny_graph,
    line_lattice_decomposition,
    scan_cycle_multipliers,
)
from invlat.groups import invariant_hermitian


def std_lattice(n):
    one, nil = CycNum.rational(1), CycNum.rational(0)
    return lattice_from_generators(
        [tuple(one if j == k else nil for j in range(n)) for k in range(n)]
    )


@pytest.fixture(scope="module")
def b2_lattice(b2):
    return extend_rank_2n(std_lattice(2), zeta(4))


@pytest.fixture(scope="module")
def g4_lattice(g4):
    order = maximal_order(-3)
    one, nil = CycNum.rational(1), CycNum.rational(0)
    return order_saturate(
        orbit_lattice_over_order(g4, order, (one, nil)), order
    )


def test_choose_generating_reflections(s3, b2, g4):
    for group in [s3, b2, g4]:
        refs = choose_generating_reflections(group)
        assert len(refs) == group.dimension


def test_chooser_rejects_reflectionless(q8):
    with pytest.raises(InvalidInputError):
        choose_generating_reflections(q8)


def test_b2_line_decomposition(b2, b2_lattice):
    refs = choose_generating_reflections(b2)
    dec = line_lattice_decomposition(b2_lattice, refs)
    assert len(dec.lines) == 2
    for line in dec.lines:
        assert line.lattice.rank == 2
        assert line.scalars is not None
        assert line.multiplier is not None
        assert line.multiplier.discriminant == -4
    assert dec.index == 1
    assert dec.s_det == CycNum.rational(2)


def test_g4_line_decomposition(g4, g4_lattice):
    refs = choose_generating_reflections(g4)
    dec = line_lattice_decomposition(g4_lattice, refs)
    assert len(dec.lines) == 2
    assert all(line.lattice.rank == 2 for line in dec.lines)
    assert dec.index == 1
    for line in dec.lines:
        assert line.multiplier.fundamental_discriminant == -3


def test_cycle_multiplier_b2(b2):
    refs = choose_generating_reflections(b2)
    assert cycle_multiplier(refs, (0,)) == CycNum.rational(2)
    assert cycle_multiplier(refs, (0, 1)) == CycNum.rational(2)
    assert cycle_multiplier(refs, (1, 0)) == CycNum.rational(2)


def test_cycle_multiplier_fixed_line_identity():
    # a cycle multiplier is the eigenvalue of the composed rank-one operator
    b2 = get_entry("WeylB2").group()
    refs = choose_generating_reflections(b2)
    value = cycle_multiplier(refs, (0, 1))
    n = b2.dimension
    identity = mat_identity(n)
    ops = []
    for j in [0, 1]:
        r = refs[j].matrix
        ops.append(
            tuple(
                tuple(identity[i][k] - r[i][k] for k in range(n))
                for i in range(n)
            )
        )
    # (id - r_0)(id - r_1) applied to root_0 equals value * root_0
    root = refs[0].root
    after = tuple(
        sum((ops[1][i][j] * root[j] for j in range(n)), CycNum.rational(0))
        for i in range(n)
    )
    after = tuple(
        sum((ops[0][i][j] * after[j] for j in range(n)), CycNum.rational(0))
        for i in range(n)
    )
    assert after == tuple(value * x for x in root)


def test_scan_is_exhaustive_in_order(b2):
    refs = choose_generating_reflections(b2)
    scanned = scan_cycle_multipliers(refs, 2)
    cycles = [c for c, _ in scanned]
    assert cycles == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_weyl_groups_have_rational_multipliers(s3, b2):
    for group in [s3, b2]:
        refs = choose_generating_reflections(group)
        for _, value in scan_cycle_multipliers(refs, group.dimension + 1):
            assert value.is_rational()


def test_cm_detect_g4(g4, g4_lattice):
    refs = choose_generating_reflections(g4)
    dec = line_lattice_decomposition(g4_lattice, refs)
    cm = cm_detect(dec)
    assert cm is not None
    assert cm.cycle == (0,)
    assert cm.value == CycNum.rational(1) - zeta(3)
    assert cm.ring.fundamental_discriminant == -3
    # the certified containment: cm.value * line lattice inside itself
    line = dec.lines[cm.line_index].lattice
    scaled = scale_lattice(cm.value, line)
    for vec in scaled.vectors():
        assert line.contains(vec)


def test_cm_detect_none_for_weyl(b2, b2_lattice):
    refs = choose_generating_reflections(b2)
    dec = line_lattice_decomposition(b2_lattice, refs)
    assert cm_detect(dec) is None


def test_cm_from_scan_matches_cm_detect(b2, b2_lattice, g4, g4_lattice):
    for group, lattice in [(b2, b2_lattice), (g4, g4_lattice)]:
        dec = line_lattice_decomposition(
            lattice, choose_generating_reflections(group)
        )
        for bound in (1, group.dimension + 1):
            scanned = scan_cycle_multipliers(dec.reflections, bound)
            assert cm_from_scan(dec, scanned) == cm_detect(dec, bound)


def test_isogeny_graph_b2(b2, b2_lattice):
    refs = choose_generating_reflections(b2)
    dec = line_lattice_decomposition(b2_lattice, refs)
    graph = isogeny_graph(dec, invariant_hermitian(b2))
    assert graph.connected
    pairs = {(e.source, e.target) for e in graph.edges}
    assert pairs == {(0, 1), (1, 0)}
    for edge in graph.edges:
        assert edge.index >= 1


def test_geom_report_b2(b2, b2_lattice):
    geom = geom_report(b2, b2_lattice)
    assert geom.tags == ("geom-i", "geom-ii")
    assert geom.weyl_like
    assert geom.cm is None


def test_geom_report_g4(g4, g4_lattice):
    geom = geom_report(g4, g4_lattice)
    assert geom.tags == ("geom-i", "geom-ii", "geom-iii")
    assert not geom.weyl_like
    assert geom.cm is not None


def test_geom_report_a2_with_cube_root(s3):
    lat = extend_rank_2n(std_lattice(2), zeta(3))
    geom = geom_report(s3, lat)
    assert geom.decomposition.index == 1
    assert geom.tags == ("geom-i", "geom-ii")
    pairs = {(e.source, e.target, e.index) for e in geom.graph.edges}
    assert pairs == {(0, 1, 1), (1, 0, 1)}


def test_geom_report_rejects_rank_n(s3):
    with pytest.raises(InvalidInputError):
        geom_report(s3, std_lattice(2))

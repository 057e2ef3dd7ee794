import pytest

from invlat import groups, lattices, reflections
from invlat.catalog import catalog_names, get_entry
from invlat.cyclotomic import CycNum, zeta
from invlat.errors import InternalConsistencyError, InvalidInputError
from invlat.forge import (
    ImaginaryQuadraticOrder,
    extend_rank_2n,
    orbit_lattice_over_order,
    order_saturate,
)
from invlat.groups import close_group, group_from_json, mat_identity
from invlat.lattices import lattice_from_generators, scale_lattice
from invlat.records import replace
from invlat.reflections import (
    MAX_CYCLES,
    check_cycle_bound,
    choose_generating_reflections,
    cm_from_scan,
    default_cycle_bound,
    geom_report,
    isogeny_graph,
    line_lattice_decomposition,
    root_functional_matrix,
    scan_cycle_multipliers,
)
from invlat.report import analyze
from invlat.schur import classify_character_field

from generated_groups import CARTAN_A4, GENERATED, weyl_from_cartan
from oracles import (
    cycle_multiplier_by_matrices,
    gram_edges,
    isogeny_edges_by_images,
    lattice_from_json,
    root_functional_matrix_by_factoring,
)


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
    order = ImaginaryQuadraticOrder.from_discriminant(-3)
    one, nil = CycNum.rational(1), CycNum.rational(0)
    return order_saturate(
        orbit_lattice_over_order(g4, order, (one, nil), classify_character_field(g4)),
        order,
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
    values = dict(scan_cycle_multipliers(refs, 2))
    assert values[(0,)] == CycNum.rational(2)
    assert values[(0, 1)] == CycNum.rational(2)
    assert values[(1, 0)] == CycNum.rational(2)


def test_cycle_multiplier_fixed_line_identity():
    # a cycle multiplier is the eigenvalue of the composed rank-one operator
    b2 = get_entry("WeylB2").group()
    refs = choose_generating_reflections(b2)
    value = dict(scan_cycle_multipliers(refs, 2))[(0, 1)]
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
    cm = cm_from_scan(dec, scan_cycle_multipliers(refs, g4.dimension + 1))
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
    assert cm_from_scan(dec, scan_cycle_multipliers(refs, b2.dimension + 1)) is None


def test_isogeny_graph_b2(b2, b2_lattice):
    refs = choose_generating_reflections(b2)
    dec = line_lattice_decomposition(b2_lattice, refs)
    graph = isogeny_graph(dec)
    assert graph.connected
    pairs = {(e.source, e.target) for e in graph.edges}
    assert pairs == {(0, 1), (1, 0)}
    for edge in graph.edges:
        assert edge.index >= 1


def test_geom_report_b2(b2, b2_lattice):
    geom = geom_report(b2, b2_lattice, classify_character_field(b2))
    assert geom.tags == ("geom-i", "geom-ii")
    assert geom.weyl_like
    assert geom.cm is None


def test_geom_report_g4(g4, g4_lattice):
    geom = geom_report(g4, g4_lattice, classify_character_field(g4))
    assert geom.tags == ("geom-i", "geom-ii", "geom-iii")
    assert not geom.weyl_like
    assert geom.cm is not None


def test_geom_report_a2_with_cube_root(s3):
    lat = extend_rank_2n(std_lattice(2), zeta(3))
    geom = geom_report(s3, lat, classify_character_field(s3))
    assert geom.decomposition.index == 1
    assert geom.tags == ("geom-i", "geom-ii")
    pairs = {(e.source, e.target, e.index) for e in geom.graph.edges}
    assert pairs == {(0, 1, 1), (1, 0, 1)}


def test_geom_report_rejects_rank_n(s3):
    with pytest.raises(InvalidInputError):
        geom_report(s3, std_lattice(2), classify_character_field(s3))


@pytest.fixture(scope="module")
def reflection_cases():
    """(name, group, lattice) for every reflection group of the catalog, the
    generated groups and Weyl A4.  The lattice is the report's last rank-2n
    recipe lattice, the one its reflection section splits, or None when the
    report has no reflection section (C5-zeta5 has no invariant lattice)."""
    inputs = [(name, get_entry(name).group(), name) for name in catalog_names()
              if get_entry(name).kind == "group"]
    # the extraspecial group 2^{1+4}_- has no reflections
    generated = {name: obj for name, (obj, _) in GENERATED.items()
                 if not name.startswith("Extraspecial")}
    generated["WeylA4"] = weyl_from_cartan(CARTAN_A4)
    inputs += [(name, group_from_json(obj), obj) for name, obj in generated.items()]
    cases = []
    for name, group, target in inputs:
        rep = analyze(target)
        if not rep["group"]["reflections"]:
            continue
        lattice = None
        if rep["reflection"] is not None:
            entry = [e for e in rep["lattices"] if e["rank"] == 2 * group.dimension][-1]
            lattice = lattice_from_json(entry["lattice"])
        cases.append((name, group, lattice))
    assert len(cases) == 8 + len(generated)
    assert sum(lattice is None for _, _, lattice in cases) == 1
    return cases


def test_scan_matches_matrix_product_oracle(reflection_cases):
    for name, group, _ in reflection_cases:
        refs = choose_generating_reflections(group)
        for cycle, value in scan_cycle_multipliers(refs, group.dimension + 1):
            assert value == cycle_multiplier_by_matrices(refs, cycle), (name, cycle)


def test_isogeny_graph_matches_gram_oracle(reflection_cases):
    for name, group, lattice in reflection_cases:
        if lattice is None:
            continue
        refs = choose_generating_reflections(group)
        graph = isogeny_graph(line_lattice_decomposition(lattice, refs))
        edges = {(e.source, e.target) for e in graph.edges}
        assert edges == gram_edges(group, refs), name


def test_chosen_reflections_close_to_the_whole_group(reflection_cases):
    # the library finds the group's generators among the chosen reflections
    # and the identity; the oracle closes them in full and compares orders
    for name, group, _ in reflection_cases:
        refs = choose_generating_reflections(group)
        assert close_group([r.matrix for r in refs]).order == group.order, name


def test_fallback_when_the_greedy_pair_does_not_generate():
    # B2 from diag(-1, 1), diag(1, -1) and the swap: the greedy pair (elements
    # 1 and 2) spans the roots but generates a subgroup of order 4
    group = close_group(
        [[[-1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]]]
    )
    assert group.order == 8
    refs = choose_generating_reflections(group)
    assert [r.element_index for r in refs] == [1, 3]
    assert close_group([group.elements[1], group.elements[2]]).order == 4


def test_default_cycle_bound_fits_the_scan_limit():
    # arithmetic only: no scan is run
    for n in range(1, 6):
        assert default_cycle_bound(n) == n + 1
    assert default_cycle_bound(6) == 6  # 6 + ... + 6^6 = 55986 cycles
    for n in range(1, 40):
        bound = default_cycle_bound(n)
        assert 1 <= bound <= n + 1
        check_cycle_bound(n, bound)
        if bound < n + 1:
            with pytest.raises(InvalidInputError):
                check_cycle_bound(n, bound + 1)
    assert default_cycle_bound(MAX_CYCLES + 1) == 1


def test_geom_report_scans_to_the_default_bound(b2, b2_lattice, monkeypatch):
    monkeypatch.setattr(reflections, "default_cycle_bound", lambda n: 1)
    geom = geom_report(b2, b2_lattice, classify_character_field(b2))
    cycles = [cycle for cycle, _ in geom.multipliers]
    assert cycles == [(0,), (1,)]


def test_root_functional_matrix_diagonal_is_one_minus_theta(b2):
    refs = choose_generating_reflections(b2)
    a = root_functional_matrix(refs)
    assert [a[k][k] for k in range(2)] == [CycNum.rational(2)] * 2  # 1 - theta


def test_root_functional_matrix_matches_factoring_oracle(reflection_cases):
    for name, group, lattice in reflection_cases:
        if lattice is None:
            continue
        refs = choose_generating_reflections(group)
        assert root_functional_matrix(refs) == root_functional_matrix_by_factoring(refs), name


def test_isogeny_graph_matches_dense_image_oracle(reflection_cases):
    for name, group, lattice in reflection_cases:
        if lattice is None:
            continue
        dec = line_lattice_decomposition(lattice, choose_generating_reflections(group))
        edges = {(e.source, e.target): e.index for e in isogeny_graph(dec).edges}
        assert edges == isogeny_edges_by_images(dec), name


def test_isogeny_graph_builds_no_lattice(g4, g4_lattice, monkeypatch):
    dec = line_lattice_decomposition(g4_lattice, choose_generating_reflections(g4))
    for module, name in [
        (lattices, "lattice_from_generators"),
        (lattices, "lattice_index"),
        (reflections, "lattice_index"),
        (lattices.ZLattice, "contains"),
    ]:
        monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(name))
    assert not hasattr(reflections, "lattice_from_generators")
    graph = isogeny_graph(dec)
    assert graph.connected
    assert {(e.source, e.target) for e in graph.edges} == {(0, 1), (1, 0)}


def test_isogeny_graph_needs_rank_two_lines(b2, b2_lattice):
    dec = line_lattice_decomposition(b2_lattice, choose_generating_reflections(b2))
    rank_one = replace(dec.lines[1], scalars=None, multiplier=None)
    with pytest.raises(InvalidInputError, match="rank 2"):
        isogeny_graph(replace(dec, lines=(dec.lines[0], rank_one)))


def test_isogeny_graph_rejects_asymmetric_zero_pattern(b2, b2_lattice, monkeypatch):
    dec = line_lattice_decomposition(b2_lattice, choose_generating_reflections(b2))
    one, nil = CycNum.rational(1), CycNum.rational(0)
    monkeypatch.setattr(
        reflections, "root_functional_matrix", lambda refs: ((one, one), (nil, one))
    )
    with pytest.raises(InternalConsistencyError, match="asymmetric zero pattern"):
        isogeny_graph(dec)


def test_geom_report_needs_no_invariant_form(g4, g4_lattice):
    # the averaged Hermitian form is an oracle of the tests only
    assert not hasattr(groups, "invariant_hermitian")
    assert geom_report(g4, g4_lattice, classify_character_field(g4)).cm is not None

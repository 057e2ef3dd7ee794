import math
from fractions import Fraction

import pytest

from invlat import groups, lattices, linalg, reflections
from invlat.catalog import catalog_names, get_entry
from invlat.cyclotomic import CycNum, zeta
from invlat.errors import InternalConsistencyError, InvalidInputError, OutOfScopeError
from invlat.forge import (
    ImaginaryQuadraticOrder,
    extend_rank_2n,
    orbit_lattice_over_order,
)
from invlat.groups import close_group, group_from_json
from invlat.lattices import lattice_from_generators
from invlat.reflections import (
    MAX_CYCLES,
    choose_generating_reflections,
    cm_from_scan,
    default_cycle_bound,
    geom_report,
    isogeny_graph,
    line_lattice_decomposition,
    root_functional_matrix,
    scan_cycle_multipliers,
)
from invlat.report import GroupAnalysis, analyze, render_json
from invlat.schur import classify_character_field

from generated_groups import CARTAN_A4, GENERATED, cartan_a, weyl_from_cartan
from oracles import (
    coset_count,
    cycle_multiplier_by_matrices,
    generating_reflections_by_echelon,
    gram_edges,
    intersect_with_line_by_values,
    isogeny_edges_by_images,
    lattice_from_json,
    lattice_index,
    lattice_sum,
    mat_identity,
    order_saturate,
    rank_two_coords,
    replace,
    root_functional_matrix_by_factoring,
    s_det_by_cofactors,
    scale_lattice,
    scan_cycle_multipliers_by_cycle,
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
    values = dict(scan_cycle_multipliers(root_functional_matrix(refs), 2))
    assert values[(0,)] == CycNum.rational(2)
    assert values[(0, 1)] == CycNum.rational(2)
    assert values[(1, 0)] == CycNum.rational(2)


def test_cycle_multiplier_fixed_line_identity():
    # a cycle multiplier is the eigenvalue of the composed rank-one operator
    b2 = get_entry("WeylB2").group()
    refs = choose_generating_reflections(b2)
    value = dict(scan_cycle_multipliers(root_functional_matrix(refs), 2))[(0, 1)]
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
    scanned = scan_cycle_multipliers(root_functional_matrix(refs), 2)
    cycles = [c for c, _ in scanned]
    assert cycles == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_weyl_groups_have_rational_multipliers(s3, b2):
    for group in [s3, b2]:
        a = root_functional_matrix(choose_generating_reflections(group))
        for _, value in scan_cycle_multipliers(a, group.dimension + 1):
            assert value.is_rational()


def test_cm_detect_g4(g4, g4_lattice):
    refs = choose_generating_reflections(g4)
    dec = line_lattice_decomposition(g4_lattice, refs)
    cm = cm_from_scan(dec, scan_cycle_multipliers(dec.functionals, g4.dimension + 1))
    assert cm is not None
    assert cm.cycle == (0,)
    assert cm.value == CycNum.rational(1) - zeta(3)
    assert cm.ring.fundamental_discriminant == -3
    # the certified containment: cm.value * line lattice inside itself
    line = dec.lines[cm.line_index].lattice
    scaled = scale_lattice(cm.value, line)
    for vec in scaled.vectors():
        assert line.contains(vec)


def test_cm_from_scan_rejects_a_multiplier_off_its_line_lattice(g4, g4_lattice):
    dec = line_lattice_decomposition(g4_lattice, choose_generating_reflections(g4))
    # z3 / 2 is not rational and maps no rank-two lattice into itself
    with pytest.raises(InternalConsistencyError, match="does not preserve"):
        cm_from_scan(dec, [((0,), zeta(3) * Fraction(1, 2))])


def test_cm_detect_none_for_weyl(b2, b2_lattice):
    refs = choose_generating_reflections(b2)
    dec = line_lattice_decomposition(b2_lattice, refs)
    assert cm_from_scan(dec, scan_cycle_multipliers(dec.functionals, b2.dimension + 1)) is None


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
        a = root_functional_matrix(refs)
        for cycle, value in scan_cycle_multipliers(a, group.dimension + 1):
            assert value == cycle_multiplier_by_matrices(refs, cycle), (name, cycle)


def test_prefix_scan_matches_the_per_cycle_oracle(reflection_cases, monkeypatch):
    # every decomposition, and Weyl A6 (55,986 cycles), at the default bound
    weyl_a6 = group_from_json(weyl_from_cartan(cartan_a(6)))
    cases = [(name, group) for name, group, _ in reflection_cases] + [("WeylA6", weyl_a6)]
    products = []
    real = CycNum.__mul__

    def counting(self, other):
        products.append(None)
        return real(self, other)

    for name, group in cases:
        a = root_functional_matrix(choose_generating_reflections(group))
        bound = default_cycle_bound(group.dimension)
        expected = scan_cycle_multipliers_by_cycle(a, bound)
        del products[:]
        with monkeypatch.context() as patch:
            patch.setattr(CycNum, "__mul__", counting)
            scanned = scan_cycle_multipliers(a, bound)
        assert scanned == expected, name
        # at most two products per cycle: the prefix times one factor, and
        # the closing entry times the prefix
        assert len(products) <= 2 * len(scanned), name
    assert len(scanned) == 55_986


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


# G(4,1,2) written as diag(z4, 1), diag(1, z4) and the swap: the greedy pair
# (elements 1 and 2) spans the roots but generates the diagonal subgroup of
# order 16, so the chooser falls back to the subsets
G412_DIAGONAL = {"conductor": 4, "dimension": 2, "generators": [
    [["z4", "0"], ["0", "1"]], [["1", "0"], ["0", "z4"]], [["0", "1"], ["1", "0"]],
]}


def test_fallback_closes_subgroups_on_element_indices(monkeypatch):
    group = group_from_json(G412_DIAGONAL)
    assert group.order == 32
    assert close_group([group.elements[1], group.elements[2]]).order == 16
    # the report as the oracle chooser, which closes matrices, makes it
    with monkeypatch.context() as patch:
        patch.setattr(
            reflections, "choose_generating_reflections", generating_reflections_by_echelon
        )
        expected = render_json(GroupAnalysis(group).report())
    assert not hasattr(reflections, "close_group")
    monkeypatch.setattr(groups, "close_group", lambda *a, **k: pytest.fail("close_group"))
    refs = choose_generating_reflections(group)
    assert [r.element_index for r in refs] == [1, 3]
    assert render_json(GroupAnalysis(group).report()) == expected


def test_chooser_reports_a_group_no_n_reflections_generate_as_out_of_scope():
    # G(4,2,2) is generated by its reflections, but by no two of them
    group = close_group(
        [[[0, 1], [1, 0]], [[0, -zeta(4)], [zeta(4), 0]], [[-1, 0], [0, 1]]]
    )
    assert (group.order, len(groups.find_reflections(group))) == (16, 6)
    with pytest.raises(OutOfScopeError, match="no spanning set"):
        choose_generating_reflections(group)


def scan_size(n, bound):
    """Cycles in the scan of lengths 1..bound over n reflections."""
    return sum(n**length for length in range(1, bound + 1))


def test_default_cycle_bound_fits_the_scan_limit():
    # arithmetic only: no scan is run; 6 + ... + 6^6 = 55986 cycles
    expected = [2, 3, 4, 5, 6, 6, 5, 5, 5, 4, 4, 4] + [4] * 5 + [3] * 23
    assert [default_cycle_bound(n) for n in range(1, 41)] == expected
    for n in range(1, 41):
        bound = default_cycle_bound(n)
        assert scan_size(n, bound) <= MAX_CYCLES
        if bound < n + 1:
            assert scan_size(n, bound + 1) > MAX_CYCLES
    assert default_cycle_bound(MAX_CYCLES + 1) == 1


def test_cm_is_exact_under_the_largest_cap():
    # A rational character field gives cm None, since every cycle multiplier
    # lies in it.  The smallest irreducible reflection group of rank 7 or more
    # with a non-rational field is G(3,3,7), of order m^(n-1) n! for m = 3,
    # n = 7; under MAX_CAP every other input has rank at most 6, where the
    # scan bound is at least the rank and cm is exact.
    m, n = 3, 7
    order = m ** (n - 1) * math.factorial(n)
    assert order == 3_674_160
    assert groups.MAX_CAP < order
    assert all(default_cycle_bound(k) >= k for k in range(1, 7))


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


def test_isogeny_rows_match_the_rank_two_oracle(reflection_cases, monkeypatch):
    # each edge's 2x2 integer rows, read in line k's lattice basis, are the
    # CycNum closed form's coordinates of A[k][j] * g in line k's scalars
    real = linalg.abs_det
    edges = 0
    for name, group, lattice in reflection_cases:
        if lattice is None:
            continue
        dec = line_lattice_decomposition(lattice, choose_generating_reflections(group))
        rows = []
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "abs_det", lambda mat: rows.append(mat) or real(mat))
            graph = isogeny_graph(dec)
        assert len(rows) == len(graph.edges), name
        for edge, got in zip(graph.edges, rows):
            source, target = (dec.lines[i].scalars for i in (edge.source, edge.target))
            a = dec.functionals[edge.target][edge.source]
            expected = [rank_two_coords(target, a * g) for g in (source.g1, source.g2)]
            assert got == expected, name
            (x1, y1), (x2, y2) = expected
            assert edge.index == abs(x1 * y2 - x2 * y1), name
            edges += 1
    assert edges > 20


def test_isogeny_graph_builds_no_lattice(g4, g4_lattice, monkeypatch):
    dec = line_lattice_decomposition(g4_lattice, choose_generating_reflections(g4))
    for module, name in [
        (lattices, "lattice_from_generators"),
        (lattices.ZLattice, "contains"),
    ]:
        monkeypatch.setattr(module, name, lambda *a, name=name: pytest.fail(name))
    assert not hasattr(reflections, "lattice_from_generators")
    assert not hasattr(lattices, "lattice_index") and not hasattr(reflections, "lattice_index")
    graph = isogeny_graph(dec)
    assert graph.connected
    assert {(e.source, e.target) for e in graph.edges} == {(0, 1), (1, 0)}


def test_isogeny_graph_inverts_nothing(reflection_cases, monkeypatch):
    # the edges read integer coordinates in the target line lattice
    decs = [line_lattice_decomposition(lattice, choose_generating_reflections(group))
            for _, group, lattice in reflection_cases if lattice is not None]
    monkeypatch.setattr(CycNum, "inverse", lambda self: pytest.fail("inverse"))
    for dec in decs:
        isogeny_graph(dec)


def test_isogeny_graph_needs_rank_two_lines(b2, b2_lattice):
    dec = line_lattice_decomposition(b2_lattice, choose_generating_reflections(b2))
    rank_one = replace(dec.lines[1], scalars=None, multiplier=None)
    with pytest.raises(InvalidInputError, match="rank 2"):
        isogeny_graph(replace(dec, lines=(dec.lines[0], rank_one)))


def test_isogeny_graph_rejects_asymmetric_zero_pattern(b2, b2_lattice, monkeypatch):
    dec = line_lattice_decomposition(b2_lattice, choose_generating_reflections(b2))
    one, nil = CycNum.rational(1), CycNum.rational(0)
    with pytest.raises(InternalConsistencyError, match="asymmetric zero pattern"):
        isogeny_graph(replace(dec, functionals=((one, one), (nil, one))))


def test_geom_report_needs_no_invariant_form(g4, g4_lattice):
    # the averaged Hermitian form is an oracle of the tests only
    assert not hasattr(groups, "invariant_hermitian")
    assert geom_report(g4, g4_lattice, classify_character_field(g4)).cm is not None


def test_chosen_reflections_match_the_echelon_oracle(reflection_cases):
    # the greedy pass keeps a root when the rank grows; the oracle row
    # reduces the kept roots over the field, one division per entry
    fallback = close_group([[[-1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]]])
    cases = [(name, group) for name, group, _ in reflection_cases]
    for name, group in cases + [("B2 with a fallback", fallback)]:
        expected = generating_reflections_by_echelon(group)
        assert choose_generating_reflections(group) == expected, name


def test_s_det_is_the_det_of_the_rebuilt_s(reflection_cases):
    # det s = det (R Phi) = det (Phi R) = det A
    for name, group, lattice in reflection_cases:
        if lattice is None:
            continue
        refs = choose_generating_reflections(group)
        dec = line_lattice_decomposition(lattice, refs)
        assert dec.functionals == root_functional_matrix(refs), name
        assert dec.s_det == s_det_by_cofactors(refs), name


def test_line_lattices_and_index_match_the_value_route(reflection_cases):
    # each line lattice is the old route's, cut on CycNum values, and the
    # index is [lattice : sum of the line lattices] by the pivot products
    for name, group, lattice in reflection_cases:
        if lattice is None:
            continue
        dec = line_lattice_decomposition(lattice, choose_generating_reflections(group))
        total = dec.lines[0].lattice
        for line in dec.lines:
            root = line.reflection.root
            assert line.lattice == intersect_with_line_by_values(lattice, root), name
            total = lattice_sum(total, line.lattice)
        assert dec.index == lattice_index(lattice, total), name


def test_decomposition_sums_no_lattices(b2, b2_lattice, g4, g4_lattice):
    # the index is one determinant of the lines' kernel coordinates, and no
    # lattice sum is defined in the library at all
    assert not hasattr(lattices, "lattice_sum") and not hasattr(reflections, "lattice_sum")
    assert not hasattr(lattices, "lattice_index") and not hasattr(reflections, "lattice_index")
    for group, lattice, index in [(b2, b2_lattice, 1), (g4, g4_lattice, 1)]:
        dec = line_lattice_decomposition(lattice, choose_generating_reflections(group))
        assert dec.index == index
        assert not hasattr(dec, "sublattice")


def test_a_deficient_line_stack_is_an_internal_error(b2, b2_lattice, monkeypatch):
    # a line that lost its coordinates leaves the stack short, and a
    # repeated one makes it singular
    refs = choose_generating_reflections(b2)
    real = reflections.intersect_with_line
    for damage in (lambda coords: coords[:1], lambda coords: coords[:1] * 2):

        def damaged(lattice, root, damage=damage):
            line, coords = real(lattice, root)
            return line, damage(coords)

        monkeypatch.setattr(reflections, "intersect_with_line", damaged)
        with pytest.raises(InternalConsistencyError, match="deficient rank"):
            line_lattice_decomposition(b2_lattice, refs)


def test_index_of_a_lattice_finer_than_its_lines(b2, b2_lattice, g4, g4_lattice):
    # adding v / k for a lattice vector v off the root lines refines the
    # lattice more than its lines, so the index grows past 1
    indices = set()
    for group, base in [(b2, b2_lattice), (g4, g4_lattice)]:
        refs = choose_generating_reflections(group)
        vecs = base.vectors()
        for k in (2, 3, 4):
            for v in (vecs[0], tuple(x + y for x, y in zip(vecs[0], vecs[-1]))):
                lattice = lattice_from_generators(
                    list(vecs) + [tuple(Fraction(1, k) * x for x in v)]
                )
                dec = line_lattice_decomposition(lattice, refs)
                total = dec.lines[0].lattice
                for line in dec.lines[1:]:
                    total = lattice_sum(total, line.lattice)
                assert dec.index == lattice_index(lattice, total) == coset_count(lattice, total)
                indices.add(dec.index)
    assert max(indices) > 1

import json
import tracemalloc

import pytest

from invlat import groups as groups_module
from invlat import linalg
from invlat.catalog import catalog_names, get_entry
from invlat.cli import main
from invlat.cyclotomic import CycNum, cyc_to_json, zeta
from invlat.errors import CapExceededError, InternalConsistencyError, InvalidInputError
from invlat.groups import (
    character_norm,
    class_character,
    class_sum,
    close_group,
    conjugacy_classes,
    find_reflections,
    group_from_json,
    matrix_from_json,
    power_classes,
)
from invlat.report import analyze
from invlat.schur import frobenius_schur_indicator

from generated_groups import GENERATED, imprimitive, in_generic_basis, weyl_from_cartan
from oracles import (
    character,
    character_norm_by_inverses,
    character_norm_by_products,
    class_sum_by_fractions,
    close_group_dense,
    conj_transpose,
    conjugacy_classes_by_matrices,
    exact_sign,
    hermitian_inner,
    invariant_hermitian,
    mat_identity,
    mat_mul,
    numeric,
    reflections_by_rank_scan,
)

CATALOG_GROUPS = [
    name for name in catalog_names() if get_entry(name).kind == "group"
]
ALL_GROUPS = ["S3-standard", "S4-standard", "WeylB2", "G4", "Q8", "C5-zeta5"]


def test_closure_orders(s3, s4, b2, g4, q8, c5):
    assert s3.order == 6
    assert s4.order == 24
    assert b2.order == 8
    assert g4.order == 24
    assert q8.order == 8
    assert c5.order == 5


def test_closure_contains_inverses():
    groups = [get_entry(name).group() for name in CATALOG_GROUPS]
    groups.append(group_from_json(GENERATED["G3-1-3"][0]))
    for group in groups:
        identity = mat_identity(group.dimension)
        elements, inverse_index = close_group_dense(group.generators)
        assert elements == group.elements
        for idx, g in enumerate(group.elements):
            inv = group.elements[inverse_index[idx]]
            assert mat_mul(g, inv) == identity
            assert mat_mul(inv, g) == identity


def test_closure_matches_dense_oracle(oracle_groups):
    for name, group in oracle_groups:
        elements, _ = close_group_dense(group.generators)
        assert group.elements == elements, name


def test_character_norm_matches_inverse_oracle(oracle_groups):
    for name, group in oracle_groups:
        assert character_norm(group) == character_norm_by_inverses(group), name


def test_character_norm_matches_the_product_route(oracle_groups, monkeypatch):
    z512 = group_from_json(cyclic(512))
    for name, group in oracle_groups + [("<z512>", z512)]:
        assert character_norm(group) == character_norm_by_products(group), name
    # values with a denominator: the sum runs over the lcm of the squared
    # denominators, so chi / 2 and chi / 3 mixed over the classes still agree
    name, group = oracle_groups[-1]
    norm = character_norm(group)
    scaled = tuple(x / (2 if k % 2 else 3) for k, x in enumerate(class_character(group)))
    monkeypatch.setattr(groups_module, "class_character", lambda g: scaled)
    expected = class_sum(group, [x * x.conjugate() for x in scaled]) / group.order
    assert character_norm(group) == expected, name
    assert expected != norm


def cyclic(m: int) -> dict:
    """<z_m> acting on C^1: every element but the identity is a reflection."""
    return {"conductor": m, "dimension": 1, "generators": [[[f"z{m}"]]]}


def test_class_sum_matches_fraction_oracle(oracle_groups):
    z512 = group_from_json(cyclic(512))
    for name, group in oracle_groups + [("<z512>", z512)]:
        chi = class_character(group)
        squares = [chi[seq[2 % len(seq)]] for seq in power_classes(group)]
        for values in (
            chi,
            [x * x.conjugate() for x in chi],
            squares,
            [x / (k % 6 + 1) for k, x in enumerate(chi)],
        ):
            assert class_sum(group, values) == class_sum_by_fractions(group, values), name
    assert character_norm(z512) == 1
    assert frobenius_schur_indicator(z512) == 0


@pytest.mark.parametrize(
    "group_obj, inverses",
    [(imprimitive(m, n), m * n * (n - 1) // 2) for m, n in [(2, 2), (3, 2), (4, 2), (3, 3)]]
    + [(cyclic(m), 0) for m in (2, 5, 12, 64)],
    ids=["G(2,1,2)", "G(3,1,2)", "G(4,1,2)", "G(3,1,3)", "z2", "z5", "z12", "z64"],
)
def test_reflection_roots_invert_only_pivots_of_two_entry_columns(
    monkeypatch, group_obj, inverses
):
    """A diagonal reflection of G(m,1,n) and every reflection of a cyclic
    group has root e_p; only the m * n(n-1)/2 reflections that swap two
    coordinates invert their pivot."""
    group = group_from_json(group_obj)
    calls = []
    real = CycNum.inverse

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(CycNum, "inverse", counting)
    find_reflections(group)
    assert len(calls) == inverses


def test_closure_makes_no_dense_products(monkeypatch):
    monkeypatch.setattr(
        linalg, "matmul", lambda a, b: pytest.fail("dense matrix product")
    )
    for obj, order in GENERATED.values():
        assert group_from_json(obj).order == order


def test_reflection_scan_matches_rank_scan_oracle(oracle_groups, family_oracle_groups):
    for name, group in oracle_groups + family_oracle_groups:
        found = [(r.element_index, r.theta, r.root) for r in find_reflections(group)]
        assert found == reflections_by_rank_scan(group), name


def test_reflection_records_factor_id_minus_the_matrix(oracle_groups):
    for name, group in oracle_groups:
        n = group.dimension
        identity = mat_identity(n)
        for ref in find_reflections(group):
            assert all(
                identity[i][j] - ref.matrix[i][j] == ref.root[i] * ref.functional[j]
                for i in range(n)
                for j in range(n)
            ), (name, ref.element_index)


def test_reflection_scan_ranks_no_matrix(monkeypatch):
    group = group_from_json(GENERATED["G3-1-3"][0])
    for name in ("rank", "det"):
        monkeypatch.setattr(linalg, name, lambda *a, name=name: pytest.fail(f"linalg.{name}"))
    assert not hasattr(linalg, "matvec")
    factored = []
    real = groups_module._rank_one_factors
    monkeypatch.setattr(
        groups_module, "_rank_one_factors", lambda mat: factored.append(mat) or real(mat)
    )
    # 3 of the 22 classes (15 of the 162 elements) have the eigenvalue 1 with
    # multiplicity 2, read off the character; each member is factored once
    assert len(groups_module._scan_reflections(group)) == 15
    assert len(factored) == 15


def test_closure_inverts_no_matrix():
    # the library has no matrix inverse, so no closure can call one
    assert not hasattr(groups_module.linalg, "inverse")
    for obj, order in GENERATED.values():
        assert group_from_json(obj).order == order
    for name in CATALOG_GROUPS:
        get_entry(name).group()


def test_power_map_matches_matrix_powers(oracle_groups, family_oracle_groups):
    # most classes of a cyclic group are met as powers of an earlier class and
    # take their sequence from it; the oracle multiplies matrices
    cyclic = {"conductor": 60, "dimension": 1, "generators": [[["z60"]]]}
    groups = oracle_groups + family_oracle_groups + [("C60", group_from_json(cyclic))]
    for name, group in groups:
        index = {mat: k for k, mat in enumerate(group.elements)}
        classes = conjugacy_classes(group)
        class_of = {k: c for c, cls in enumerate(classes) for k in cls}
        for cls, seq in zip(classes, groups_module.power_classes(group)):
            identity = power = mat_identity(group.dimension)
            expected = []
            while not expected or power != identity:
                expected.append(class_of[index[power]])
                power = mat_mul(power, group.elements[cls[0]])
            assert seq == tuple(expected), (name, cls[0])


def test_eigenvalue_multiplicities_match_ranks(oracle_groups):
    # the multiplicity of +-1 is the kernel dimension n - rank(x -+ id) of
    # each class's first member x, read off the character on the power map
    for name, group in oracle_groups:
        n, identity = group.dimension, mat_identity(group.dimension)
        for k, cls in enumerate(conjugacy_classes(group)):
            x = group.elements[cls[0]]
            for sign in (1, -1):
                shifted = [[x[i][j] - sign * identity[i][j] for j in range(n)] for i in range(n)]
                expected = n - linalg.rank(shifted)
                assert groups_module.eigenvalue_multiplicity(group, k, sign) == expected, name
        assert groups_module.power_classes(group) is groups_module.power_classes(group)


def test_a_multiplicity_that_is_not_an_integer_raises(s3):
    group = close_group(s3.generators)
    chi = list(groups_module.class_character(group))
    chi[1] = chi[1] + 1  # the class of an element of order 2 or 3
    group._class_character = tuple(chi)
    with pytest.raises(InternalConsistencyError, match="multiplicity"):
        groups_module.eigenvalue_multiplicity(group, 1, 1)


def test_a_matrix_that_is_not_root_times_functional_raises():
    minus = close_group([[[-1, 0], [0, -1]]]).elements[1]
    with pytest.raises(InternalConsistencyError, match="root times functional"):
        groups_module._rank_one_factors(minus)


def test_reflection_inventory_is_computed_once(monkeypatch):
    group = get_entry("G4").group()
    first = find_reflections(group)
    monkeypatch.setattr(
        groups_module, "_scan_reflections", lambda g: pytest.fail("rescanned")
    )
    second = find_reflections(group)
    assert second == first and second is not first
    second.clear()
    first.append(first[0])
    third = find_reflections(group)
    assert len(third) == 8
    assert third == first[:-1]


def test_character_is_computed_once_per_analysis(monkeypatch):
    calls = []
    real = groups_module.trace

    def counting(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(groups_module, "trace", counting)
    for target, classes in [("G4", 7), ("WeylB2", 5), (GENERATED["G3-1-2"][0], 9)]:
        calls.clear()
        analyze(target)
        assert len(calls) == classes, target


def test_indicator_takes_no_cycnum_product(monkeypatch):
    groups = [get_entry(name).group() for name in ("G4", "WeylB2", "Q8")]
    groups.append(group_from_json(GENERATED["G3-1-2"][0]))
    monkeypatch.setattr(
        CycNum, "__mul__", lambda *a: pytest.fail("CycNum product")
    )
    assert [frobenius_schur_indicator(g) for g in groups] == [0, 1, -1, 0]


def test_conductors(s3, g4, q8, c5):
    assert s3.conductor == 1
    assert g4.conductor == 3
    assert q8.conductor == 4
    assert c5.conductor == 5


def test_cap_exceeded():
    # an infinite group: a shear has infinite order
    one, nil = CycNum.rational(1), CycNum.rational(0)
    shear = ((one, one), (nil, one))
    with pytest.raises(CapExceededError, match="^group closure exceeded the cap of 50 elements$"):
        close_group([shear], cap=50)


def test_basis_orbits_longer_than_the_cap_still_close():
    # zeta5 * id in dimension 3 has order 5, and each basis row has an
    # orbit of 5 points: 15 points in all, more than the cap of 5
    z5, nil = zeta(5), CycNum.rational(0)
    scalar = tuple(tuple(z5 if i == j else nil for j in range(3)) for i in range(3))
    group = close_group([scalar], cap=5)
    assert group.order == 5 and len(group.rows) == 15
    with pytest.raises(CapExceededError, match="cap of 4 elements"):
        close_group([scalar], cap=4)


def test_s24_reaches_the_cap_after_one_apply_per_orbit_point(tmp_path, capsys, monkeypatch):
    # S24 permuting the coordinates of C^24: a transposition and a 24-cycle.
    # The row orbit is the 24 basis rows, so the closure applies the two
    # generators 48 times and then runs on row indices alone until the cap.
    n = 24
    swap = [["1" if j == {0: 1, 1: 0}.get(i, i) else "0" for j in range(n)] for i in range(n)]
    cycle = [["1" if j == (i + 1) % n else "0" for j in range(n)] for i in range(n)]
    path = tmp_path / "s24.json"
    path.write_text(json.dumps({"dimension": n, "conductor": 1, "generators": [swap, cycle]}))
    calls = []
    real = groups_module.apply

    def counting(g, vec):
        calls.append(g)
        return real(g, vec)

    monkeypatch.setattr(groups_module, "apply", counting)
    assert main(["analyze", str(path)]) == 3
    assert "exceeded the cap of 10000 elements" in capsys.readouterr().err
    assert len(calls) <= n * 2


def test_generic_basis_closure_keeps_n_row_indices_per_element():
    # Weyl A5 in a generic basis: its 5 basis rows have 426 orbit points,
    # so one permutation of that orbit per element would take 720 * 426
    # entries, over 2 MiB in pointers alone
    obj = in_generic_basis(weyl_from_cartan(_cartan_a(5)))
    gens = [matrix_from_json(g, 5) for g in obj["generators"]]
    tracemalloc.start()
    try:
        group = close_group(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.order == 720 and len(group.rows) == 426
    assert peak < 2 * 2**20


def _cartan_a(n):
    return tuple(
        tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n))
        for i in range(n)
    )


def test_conjugacy_classes_match_dense_oracle(oracle_groups):
    extra = [
        ("WeylA6", group_from_json(weyl_from_cartan(_cartan_a(6)))),
        ("G4-1-3", group_from_json(imprimitive(4, 3))),
    ]
    for name, group in oracle_groups + extra:
        assert conjugacy_classes(group) == conjugacy_classes_by_matrices(group), name


@pytest.mark.parametrize(
    "obj, classes",
    [
        (GENERATED["WeylB3"][0], 10),
        (GENERATED["G3-1-2"][0], 9),
        (GENERATED["G4-1-2"][0], 14),
        (GENERATED["G6-1-2"][0], 27),
        (GENERATED["G3-1-3"][0], 22),
        (weyl_from_cartan(_cartan_a(6)), 15),  # the partitions of 7
    ],
)
def test_known_class_counts(obj, classes):
    assert len(conjugacy_classes(group_from_json(obj))) == classes


def test_character_values(s3):
    chi = character(s3)
    assert chi[0] == CycNum.rational(2)
    assert sum((numeric(x).real for x in chi), 0.0) == pytest.approx(0.0)


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_character_norm_one(name):
    group = get_entry(name).group()
    assert character_norm(group) == 1


def test_reducible_detected():
    one, nil = CycNum.rational(1), CycNum.rational(0)
    swap = ((nil, one), (one, nil))
    group = close_group([swap])
    assert character_norm(group) == 2


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_invariant_hermitian_exactness(name):
    group = get_entry(name).group()
    gram = invariant_hermitian(group)
    n = group.dimension
    assert conj_transpose(gram) == gram
    for g in group.elements:
        assert mat_mul(mat_mul(conj_transpose(g), gram), g) == gram
    # positive definite: all leading principal minors have positive sign
    from invlat import linalg

    for k in range(1, n + 1):
        minor = [[gram[i][j] for j in range(k)] for i in range(k)]
        assert exact_sign(linalg.det(minor)) == 1


def test_hermitian_inner_conjugate_linearity(s3):
    gram = invariant_hermitian(s3)
    i4 = zeta(4)
    u = (CycNum.rational(1), CycNum.rational(0))
    v = (CycNum.rational(0), CycNum.rational(1))
    left_scaled = hermitian_inner(gram, tuple(i4 * x for x in u), v)
    right_scaled = hermitian_inner(gram, u, tuple(i4 * x for x in v))
    base = hermitian_inner(gram, u, v)
    assert left_scaled == i4.conjugate() * base
    assert right_scaled == i4 * base


def test_reflection_counts(s3, s4, b2, g4, q8):
    assert len(find_reflections(s3)) == 3
    assert len(find_reflections(s4)) == 6
    assert len(find_reflections(b2)) == 4
    assert len(find_reflections(g4)) == 8
    assert len(find_reflections(q8)) == 0


def test_reflection_data(s3):
    for ref in find_reflections(s3):
        assert exact_sign(ref.theta + CycNum.rational(1)) == 0  # theta = -1
        image = tuple(
            sum(
                (ref.matrix[i][j] * ref.root[j] for j in range(2)),
                CycNum.rational(0),
            )
            for i in range(2)
        )
        assert image == tuple(ref.theta * x for x in ref.root)


def test_g4_reflection_orders(g4):
    thetas = {str(r.theta) for r in find_reflections(g4)}
    assert thetas == {"z3", "-1 - z3"}  # the two primitive cube roots


def test_group_json_round_trip(g4):
    # cyclotomic entries written in their JSON form decode to the same group
    encoded = {
        "conductor": g4.conductor,
        "dimension": g4.dimension,
        "generators": [
            [[cyc_to_json(x) for x in row] for row in g] for g in g4.generators
        ],
    }
    decoded = group_from_json(encoded)
    assert decoded.order == g4.order
    assert set(decoded.elements) == set(g4.elements)


def test_group_from_json_flat_matrices():
    obj = {
        "dimension": 2,
        "conductor": 1,
        "generators": [[-1, 1, 0, 1], [1, 0, 1, -1]],
    }
    group = group_from_json(obj)
    assert group.order == 6


def test_group_from_json_rejects_bad_conductor():
    obj = {
        "dimension": 1,
        "conductor": 4,
        "generators": [[{"conductor": 3, "coeffs": [["0", "1"], ["1", "1"]]}]],
    }
    with pytest.raises(InvalidInputError):
        group_from_json(obj)


def test_group_from_json_rejects_a_row_that_is_not_a_list():
    obj = {"dimension": 2, "conductor": 1, "generators": [[[1, 0], 5]]}
    with pytest.raises(InvalidInputError, match="row"):
        group_from_json(obj)


def _tiny_group(dimension=1, conductor=1, count=1):
    return {
        "dimension": dimension,
        "conductor": conductor,
        "generators": [[[1] * dimension] * dimension] * count,
    }


@pytest.mark.parametrize(
    "obj, message",
    [
        (_tiny_group(dimension=groups_module.MAX_DIMENSION + 1), "dimension"),
        (_tiny_group(count=groups_module.MAX_GENERATORS + 1), "generators"),
        (_tiny_group(conductor=groups_module.MAX_CONDUCTOR + 1), "conductor"),
    ],
)
def test_group_from_json_bounds_come_before_parsing(monkeypatch, obj, message):
    parsed = []
    monkeypatch.setattr(groups_module, "matrix_from_json", lambda *args: parsed.append(args))
    with pytest.raises(InvalidInputError, match=message):
        group_from_json(obj)
    assert not parsed


def test_group_from_json_accepts_the_limits():
    assert group_from_json(_tiny_group(count=groups_module.MAX_GENERATORS)).order == 1
    assert group_from_json(_tiny_group(conductor=groups_module.MAX_CONDUCTOR)).order == 1

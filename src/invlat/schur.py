"""Character-level invariants of an irreducible matrix group.

Covers the character field and its classification, the invariant-bilinear-form
type via the Frobenius-Schur indicator, the Schur index, and the final verdict
on which invariant-lattice ranks can exist.  The indicator and the kernel
dimensions of the gcd certificate are read off the character on the group's
power map.  Where the certificate or the Frobenius-Schur bound settles the
index, the profile takes it from theory; only an open index splits the
rational orbit span by its commutant.  The split to a rational-form witness,
which the `Zn` and `O` recipes read, is a separate call of `schur_index`.

The field's degree is read off the automorphisms of Q(z_N) that fix every
class value, and an imaginary-quadratic discriminant off (gen - conj gen)^2.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, lcm

from . import linalg
from .cyclotomic import CycNum, common_conductor, zeta
from .errors import InternalConsistencyError, InvalidInputError
from .groups import (
    GroupRep, apply, character_norm, class_character, class_sum, conjugacy_classes,
    eigenvalue_multiplicity, power_classes,
)
from .lattices import flatten, fundamental_discriminant, reassemble
from .records import Record


class CharacterFieldClass(Record):
    """The field generated over the rationals by all character values."""

    kind: str  # "rational" | "imaginary-quadratic" | "other"
    degree: int
    discriminant: int | None  # fundamental discriminant when imaginary quadratic
    real_valued: bool
    generator: CycNum | None  # a single field generator when degree is 2


class BilinearFormType(Record):
    kind: str  # "orthogonal" | "symplectic" | "complex"
    indicator: int  # 1, -1, or 0


class SchurWitness(Record):
    index: int
    module_dimension: int
    basis: tuple  # complex vectors spanning the minimal module; () if no split ran


class CharacterProfile(Record):
    field: CharacterFieldClass
    bilinear: BilinearFormType
    schur: SchurWitness
    gcd_certificate: tuple | None  # gcd_kernel_shortcut, computed once


class LatticeVerdict(Record):
    exists_any: bool
    exists_rank_n: bool
    exists_rank_2n: bool
    clause: str  # "c-i" | "c-ii" | "none"


def _field_degree(values) -> int:
    """Degree over the rationals of the field the values generate: by Galois
    theory, the number of units mod N over the order of the subgroup H of
    units a whose automorphism z -> z^a of Q(z_N) fixes every value, N the
    values' common conductor.  One member of each coset aH is tested, so
    the number of tests is about the degree, not phi(N)."""
    n = common_conductor(values)
    gens = list(dict.fromkeys(v for v in values if not v.is_rational()))
    units = [a for a in range(1, n + 1) if gcd(a, n) == 1]
    fixing, moving = {1}, set()
    for a in units:
        if a in fixing or a in moving:
            continue
        if all(g.galois(a) == g for g in gens):
            while (grown := fixing | {x * a % n for x in fixing}) != fixing:
                fixing = grown
            moving = {x * y % n for x in moving for y in fixing}
        else:
            moving.update(a * h % n for h in fixing)
    return len(units) // len(fixing)


def classify_character_field(group: GroupRep) -> CharacterFieldClass:
    """Exact classification of the field generated by the character values.

    The values are taken once per conjugacy class.  The classes are ordered
    by their first member, so the first non-rational class value is the
    first non-rational value in element order."""
    values = class_character(group)
    degree = _field_degree(values)
    real_valued = all(v.is_real() for v in values)
    if degree == 1:
        return CharacterFieldClass("rational", 1, None, True, None)
    if degree == 2:
        gen = next(v for v in values if not v.is_rational())
        if not real_valued:
            # the only real numbers of an imaginary-quadratic field are
            # rational, so gen is not real, and (gen - conj gen)^2, the
            # discriminant of its minimal polynomial, is a negative rational
            square = (gen - gen.conjugate()) ** 2
            if not square.is_rational() or square.as_fraction() >= 0:
                raise InternalConsistencyError(
                    f"degree-2 field generator {gen} has (gen - conj gen)^2 = "
                    f"{square}, not a negative rational"
                )
            square = square.as_fraction()
            disc = fundamental_discriminant(square.numerator * square.denominator)
            return CharacterFieldClass("imaginary-quadratic", 2, disc, False, gen)
        return CharacterFieldClass("other", 2, None, True, gen)
    return CharacterFieldClass("other", degree, None, real_valued, None)


def frobenius_schur_indicator(group: GroupRep) -> int:
    """(1/|G|) sum chi(g^2), exact; 1, -1, or 0 for an irreducible character.

    chi(g^2) is a class function, and g^2 lies in a known class, read off
    the power map (`power_classes`), so the sum is sum |C| chi(C^2) over the
    classes C, with no CycNum product.
    """
    chi = class_character(group)
    total = class_sum(group, [chi[seq[2 % len(seq)]] for seq in power_classes(group)])
    if not total.is_rational():
        raise InvalidInputError("indicator is not rational; character not irreducible")
    value = total.as_fraction() / group.order
    if value.denominator != 1 or value not in (1, -1, 0):
        raise InvalidInputError(
            f"indicator {value} outside {{1,-1,0}}; character not irreducible"
        )
    return int(value)


_FORM_KIND = {1: "orthogonal", -1: "symplectic", 0: "complex"}


def bilinear_type(group: GroupRep) -> BilinearFormType:
    """Invariant-bilinear-form type, read off the Frobenius-Schur indicator.

    For an irreducible character the indicator alone decides the type: 1
    gives an invariant symmetric form, -1 an invariant alternating form, and 0
    no invariant bilinear form at all.
    """
    nu = frobenius_schur_indicator(group)
    return BilinearFormType(_FORM_KIND[nu], nu)


def _expansion_conductor(group: GroupRep, vector) -> int:
    return lcm(group.conductor, common_conductor(vector))


def _spin(group: GroupRep, vector, conductor: int):
    """(span, spun, tree, relations): the rational orbit span of a nonzero
    vector, the smallest one stable under each generator, since every g^-1
    is a power of g.  Each generator is applied to each kept vector, spun[0]
    = vector first, and an image independent of `span` is kept as spun[k]
    with tree[k - 1] = (j, g) for spun[k] = g spun[j]; any other image of
    spun[k] under g is the relation (k, g, image)."""
    span = linalg.Span([flatten(vector, conductor)])
    spun, tree, relations = [tuple(vector)], [], []
    for k, current in enumerate(spun):
        for g in group.sparse_generators:
            image = apply(g, current)
            if span.add(flatten(image, conductor)):
                spun.append(image)
                tree.append((k, g))
            else:
                relations.append((k, g, image))
    return span, spun, tree, relations


def _orbit_span(group: GroupRep, vector, conductor: int):
    """(basis, spin): the rational rref rows of the span of the G-orbit of a
    nonzero vector, and the `_spin` that closed it, which `_split` reads.
    The reduced row echelon form is unique for the subspace."""
    width = group.dimension * len(CycNum.rational(0).coords_at(conductor))
    spin = _spin(group, vector, conductor)
    reduced, _ = linalg.rref(spin[0].rows)
    if any(len(r) != width for r in reduced):
        raise InternalConsistencyError("orbit-span row has the wrong width")
    return [tuple(r) for r in reduced], spin


def _kernel(rows, width):
    """A basis of the rational vectors y with sum(row[j] * y[j]) = 0 for
    every row, one per free column, read off the reduced row echelon form."""
    reduced, pivots = linalg.rref(rows)
    basis = []
    for free in sorted(set(range(width)) - set(pivots)):
        y = [Fraction(int(j == free)) for j in range(width)]
        for row, pivot in zip(reduced, pivots):
            y[pivot] = -row[free]
        basis.append(y)
    return basis


def _integral(mat):
    """The rational matrix times the lcm of its denominators, as ints."""
    d = lcm(*(x.denominator for row in mat for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in mat]


def _split(group: GroupRep, spin, basis, conductor):
    """A nonzero vector of a proper G-stable subspace of U, the orbit span
    that `spin` closed, with rref rows basis, or None when no candidate
    splits U.

    A map X of U is the matrix whose row i holds the basis coordinates of
    X(basis row i).  X in E = End_Q[G](U) is fixed by w = X(spun[0]), as
    X(spun[k]) = word_k(w) (`_spin`), and w qualifies when each relation
    g spun[k] = sum r_j spun[j] holds for the words applied to w: u = dim U
    unknowns, not the u^2 of X A_g = A_g X, whose kernel basis, E reduced
    from the right, depends on U alone.  For x in E and a root of unity c
    that maps U into itself, as those of the character field do, the rows r
    with r (x - c) = 0 span a G-stable subspace.  The first one neither 0
    nor U, for x in the basis of E, then its pairwise sums, then its
    pairwise products, gives the vector."""
    n, u = group.dimension, len(basis)
    _, spun, tree, relations = spin
    words = [spun]  # words[k][i] = word_k(spun[i])
    for k, g in tree:
        words.append([apply(g, x) for x in words[k]])
    flat = [[flatten(x, conductor) for x in row] for row in words]
    spun_span = linalg.Span(flat[0])
    equations = []
    for k, g, image in relations:
        r = spun_span.coords(flatten(image, conductor))
        columns = [flatten(apply(g, x), conductor) for x in words[k]]
        for rj, row in zip(r, flat):
            if rj:
                columns = [[a - rj * b for a, b in zip(col, f)] for col, f in zip(columns, row)]
        equations += map(list, zip(*columns))
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    to_spun = _integral([spun_span.coords(row) for row in basis])
    flipped = []  # each element of E as one row, read from its last entry
    for y in _kernel(equations, u):
        images = [[sum(c * f[p] for c, f in zip(y, row) if c) for p in pivots] for row in flat]
        mat = linalg.matmul(to_spun, _integral(images))
        flipped.append([x for row in mat for x in row][::-1])
    reduced = [y[::-1] for y in linalg.rref(flipped)[0][::-1]]
    e_basis = [[y[i * u:(i + 1) * u] for i in range(u)] for y in reduced]
    span = linalg.Span(basis)
    vectors = [reassemble(n, conductor, row) for row in basis]
    roots = [zeta(lcm(2, conductor), k) for k in range(lcm(2, conductor))]
    scaled = ([span.coords(flatten(tuple(c * x for x in v), conductor)) for v in vectors]
              for c in roots)
    scalars = [rows for rows in scaled if None not in rows]
    candidates = chain(
        e_basis,
        ([[p + q for p, q in zip(*rows)] for rows in zip(x, y)]
         for x, y in combinations(e_basis, 2)),
        (linalg.matmul(x, y) for x, y in product(e_basis, repeat=2)),
    )
    for x in candidates:
        for c in scalars:
            shifted = [[p - q for p, q in zip(*rows)] for rows in zip(x, c)]
            kernel = _kernel(list(zip(*shifted)), u)  # the rows r with r (x - c) = 0
            if 0 < len(kernel) < u:
                row = [sum(r * b for r, b in zip(kernel[0], col)) for col in zip(*basis)]
                return reassemble(n, conductor, row)
    return None


def schur_index(
    group: GroupRep,
    degree: int,
    start=None,
    known_index: int | None = None,
) -> SchurWitness:
    """Schur index via a split of the rational orbit span to a minimal module.

    U starts as the rational span of the G-orbit of start, e1 by default
    (closed from the generators by `_orbit_span`).  `degree` is the degree
    of the character field, which `classify_character_field` gives.  No
    nonzero G-stable rational subspace is smaller than (known_index or 1) *
    degree * n, `known_index` being an index that theory has already fixed
    (see `_settled_index`).  While U is larger, `_split` looks for a proper
    G-stable subspace through the commutant of U, and U becomes the orbit
    span of the vector it returns.  Each split is exact, so the index read
    off the final U is an upper bound, exact whenever U is simple.  A split
    that ends off a known index raises InternalConsistencyError.
    """
    n = group.dimension
    if start is None:
        start = tuple(
            CycNum.rational(1 if k == 0 else 0) for k in range(n)
        )
    start = tuple(CycNum.rational(x) if isinstance(x, (int, Fraction)) else x for x in start)
    if len(start) != n or all(x.is_zero() for x in start):
        raise InvalidInputError("starting vector must be nonzero of matching length")
    conductor = _expansion_conductor(group, start)
    basis, spin = _orbit_span(group, start, conductor)
    smallest = (known_index or 1) * degree * n
    while len(basis) > smallest and (vec := _split(group, spin, basis, conductor)) is not None:
        basis, spin = _orbit_span(group, vec, conductor)
    dim = len(basis)
    if dim % (degree * n):
        raise InternalConsistencyError(
            f"module dimension {dim} is not a multiple of {degree}*{n}"
        )
    m = dim // (degree * n)
    if known_index is not None and m != known_index:
        raise InternalConsistencyError(
            f"split ended at Schur index {m}, but theory fixes {known_index}"
        )
    witness = tuple(reassemble(n, conductor, row) for row in basis)
    # an index-1 witness is a rational form: G-stable, as `_spin` closed it,
    # and of full complex span
    if m == 1 and linalg.rank([list(v) for v in witness]) != n:
        raise InternalConsistencyError("index-1 witness failed the field-form check")
    return SchurWitness(m, dim, witness)


def gcd_kernel_shortcut(group: GroupRep):
    """Certificate that the Schur index is 1 from kernel dimensions.

    Scans the rational combinations g - id and g + id of the group elements
    and collects the complex kernel dimension of each; if the gcd of these
    together with n reaches 1, the index must be 1.  Pairs g - h and g + h
    cannot lower the gcd: g - h = g(id - g^-1 h) and g + h = g(id + g^-1 h)
    have the kernel dimensions of the single element g^-1 h.  Conjugates
    have the same kernel dimensions, so only the first member of each
    conjugacy class is scanned, in element order: every other member comes
    after it and cannot lower the gcd it left.  Each kernel dimension is the
    multiplicity of the eigenvalue +-1 (`eigenvalue_multiplicity`).  Returns
    the list of (description, dimension) pairs on success, else None.
    """
    n = group.dimension
    found = [("ambient", n)]
    running = n
    if running == 1:
        return tuple(found)
    for k, cls in enumerate(conjugacy_classes(group)):
        for sign, word in ((1, "-"), (-1, "+")):
            dim = eigenvalue_multiplicity(group, k, sign)
            if 0 < dim < n and gcd(running, dim) < running:
                found.append((f"element {cls[0]} {word} id", dim))
                running = gcd(running, dim)
                if running == 1:
                    return tuple(found)
    return None


def _settled_index(field: CharacterFieldClass, bilinear: BilinearFormType, gcd_cert):
    """The Schur index where theory fixes it before any search, else None.

    A gcd certificate gives 1: the index divides the complex kernel dimension
    of every element of Q[G].  A real-valued character with indicator -1
    gives 2: Frobenius-Schur puts the real Schur index 2 below it, and
    Brauer-Speiser bounds it by 2.
    """
    if gcd_cert is not None:
        return 1
    if field.real_valued and bilinear.indicator == -1:
        return 2
    return None


def character_profile(group: GroupRep) -> CharacterProfile:
    """Field class, bilinear type, gcd certificate and Schur index, with
    consistency checks.  Where the certificate or the Frobenius-Schur bound
    settles the index m, no split runs: the module dimension is m*d*n and the
    witness basis is empty.  Only an open index runs `schur_index`."""
    norm = character_norm(group)
    if norm != 1:
        raise InvalidInputError(
            f"character norm is {norm}, not 1: representation is reducible"
        )
    field = classify_character_field(group)
    bilinear = bilinear_type(group)
    gcd_cert = gcd_kernel_shortcut(group)
    known = _settled_index(field, bilinear, gcd_cert)
    if known is None:
        schur = schur_index(group, field.degree)
    else:
        dim = known * field.degree * group.dimension
        schur = SchurWitness(known, dim, ())
    if not field.real_valued and bilinear.kind != "complex":
        raise InternalConsistencyError(
            "non-real character admits an invariant bilinear form"
        )
    if field.real_valued and schur.index > 2:
        raise InternalConsistencyError(
            "real-valued character with Schur index above 2"
        )
    return CharacterProfile(field, bilinear, schur, gcd_cert)


def lattice_existence_verdict(profile: CharacterProfile) -> LatticeVerdict:
    """Which invariant-lattice ranks exist, per the field/index decision table."""
    m = profile.schur.index
    kind = profile.field.kind
    if m == 1 and kind in ("rational", "imaginary-quadratic"):
        return LatticeVerdict(True, kind == "rational", True, "c-i")
    if m == 2 and kind == "rational":
        return LatticeVerdict(True, False, True, "c-ii")
    return LatticeVerdict(False, False, False, "none")

"""Character-level invariants of an irreducible matrix group.

Covers the character field and its classification, the invariant-bilinear-form
type via the Frobenius-Schur indicator, the Schur index, and the final verdict
on which invariant-lattice ranks can exist.  Where a gcd-of-kernel-dimensions
certificate or the Frobenius-Schur bound settles the index, the profile takes
it from theory; only an open index runs the rational orbit-span descent.  The
descent to a rational-form witness, which the `Zn` recipe reads, is a separate
call of `schur_index`.

The field's degree is read off the automorphisms of Q(z_N) that fix every
class value, and an imaginary-quadratic discriminant off (gen - conj gen)^2.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .cyclotomic import CycNum, common_conductor
from .errors import InternalConsistencyError, InvalidInputError
from .groups import (
    GroupRep, apply, character_norm, class_character, class_sum, conjugacy_classes,
    mat_identity, square_classes,
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
    basis: tuple  # complex vectors spanning the minimal module; () if no descent ran
    stable_passes: int


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

    chi(g^2) is a class function, and g^2 lies in a known class
    (`square_classes`), so the sum is sum |C| chi(C^2) over the classes C,
    with no CycNum product.
    """
    chi = class_character(group)
    total = class_sum(group, [chi[c] for c in square_classes(group)])
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


def _orbit_span(group: GroupRep, vector, conductor: int):
    """Basis (rational rref rows) of the rational span of the G-orbit of vector.

    That span is the smallest rational subspace containing vector and stable
    under each generator, because every g^-1 is a power of g.  So it is closed
    from the generators: each generator is applied to each new basis vector,
    and an image is kept when it is independent of the echelon rows found so
    far.  At most dimension * phi(conductor) rows are ever held.  The result
    is the reduced row echelon form, which is unique for the subspace.
    """
    width = group.dimension * len(CycNum.rational(0).coords_at(conductor))
    span = linalg.Span()
    queue = [tuple(vector)] if span.add(flatten(vector, conductor)) else []
    while queue:
        current = queue.pop(0)
        for g in group.sparse_generators:
            image = apply(g, current)
            if span.add(flatten(image, conductor)):
                queue.append(image)
    reduced, _ = linalg.rref(span.rows)
    if any(len(r) != width for r in reduced):
        raise InternalConsistencyError("orbit-span row has the wrong width")
    return [tuple(r) for r in reduced]


# Each descent pass tries every basis vector and RANDOM_COMBOS seeded random
# combinations of them; the descent ends after REQUIRED_STABLE_PASSES
# consecutive passes find no smaller span.
RANDOM_COMBOS = 8
REQUIRED_STABLE_PASSES = 2


def schur_index(
    group: GroupRep,
    degree: int,
    start=None,
    seed: int = 0,
    known_index: int | None = None,
) -> SchurWitness:
    """Schur index via descent to a minimal rational orbit span.

    Starting from the rational span of one G-orbit (closed from the
    generators by `_orbit_span`), regenerate from each basis vector and from
    RANDOM_COMBOS seeded random small-integer combinations, keeping any
    strictly smaller span, until REQUIRED_STABLE_PASSES consecutive passes
    make no progress.  The stable-pass count is recorded on the witness: the
    descent certifies an upper bound that is exact whenever the final module
    is simple, which a stable pass supports but does not unconditionally
    prove.  `degree` is the degree of the character field, which
    `classify_character_field` gives.

    `known_index` is an index that theory has already fixed (see
    `_settled_index`).  Every nonzero G-stable rational subspace then has
    dimension at least known_index * degree * n, so the descent stops as soon
    as its span has that dimension: no later pass could shrink it, and the
    basis is the one the full descent returns.  `stable_passes` still records
    the required count, although fewer passes, possibly none, ran.  A descent
    that ends at another index raises InternalConsistencyError.
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
    basis = _orbit_span(group, start, conductor)
    settled = None if known_index is None else known_index * degree * n
    rng = random.Random(seed)
    stable = 0
    while stable < REQUIRED_STABLE_PASSES and len(basis) != settled:
        improved = False
        candidates = [reassemble(n, conductor, row) for row in basis]
        for _ in range(RANDOM_COMBOS):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            if all(c == 0 for c in coeffs):
                coeffs[rng.randrange(len(basis))] = 1
            row = [
                sum(c * x for c, x in zip(coeffs, col))
                for col in zip(*basis)
            ]
            candidates.append(reassemble(n, conductor, tuple(row)))
        for vec in candidates:
            if all(x.is_zero() for x in vec):
                continue
            span = _orbit_span(group, vec, conductor)
            if len(span) < len(basis):
                basis = span
                improved = True
                break
        stable = 0 if improved else stable + 1
    dim = len(basis)
    if dim % (degree * n):
        raise InternalConsistencyError(
            f"module dimension {dim} is not a multiple of {degree}*{n}"
        )
    m = dim // (degree * n)
    if known_index is not None and m != known_index:
        raise InternalConsistencyError(
            f"descent ended at Schur index {m}, but theory fixes {known_index}"
        )
    witness = tuple(reassemble(n, conductor, row) for row in basis)
    if m == 1:
        # an index-1 witness is a rational form: G-stable, full complex span
        complex_rank = linalg.rank([list(v) for v in witness])
        span = linalg.Span(basis)
        stable_under_g = all(
            span.coords(flatten(apply(g, v), conductor)) is not None
            for g in group.sparse_generators
            for v in witness
        )
        if complex_rank != n or not stable_under_g:
            raise InternalConsistencyError("index-1 witness failed the field-form check")
    return SchurWitness(m, dim, witness, REQUIRED_STABLE_PASSES)


def gcd_kernel_shortcut(group: GroupRep):
    """Certificate that the Schur index is 1 from kernel dimensions.

    Scans the rational combinations g - id and g + id of the group elements
    and collects the complex kernel dimension of each; if the gcd of these
    together with n reaches 1, the index must be 1.  Pairs g - h and g + h
    cannot lower the gcd: g - h = g(id - g^-1 h) and g + h = g(id + g^-1 h)
    have the kernel dimensions of the single element g^-1 h.  Conjugates
    have the same kernel dimensions, so only the first member of each
    conjugacy class is scanned, in element order: every other member comes
    after it and cannot lower the gcd it left.  Returns the list of
    (description, dimension) pairs on success, else None.
    """
    n = group.dimension
    identity = mat_identity(n)
    found = [("ambient", n)]
    running = n
    if running == 1:
        return tuple(found)

    def consider(label, mat) -> bool:
        nonlocal running
        dim = n - linalg.rank(mat)
        if dim == 0 or dim == n:
            return False
        if gcd(running, dim) < running:
            found.append((label, dim))
            running = gcd(running, dim)
        return running == 1

    for cls in conjugacy_classes(group):
        idx = cls[0]
        g = group.elements[idx]
        diff = [[g[i][j] - identity[i][j] for j in range(n)] for i in range(n)]
        if consider(f"element {idx} - id", diff):
            return tuple(found)
        plus = [[g[i][j] + identity[i][j] for j in range(n)] for i in range(n)]
        if consider(f"element {idx} + id", plus):
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


def character_profile(group: GroupRep, seed: int = 0) -> CharacterProfile:
    """Field class, bilinear type, gcd certificate and Schur index, with
    consistency checks.  Where the certificate or the Frobenius-Schur bound
    settles the index m, no descent runs: the module dimension is m*d*n, the
    witness basis is empty and `stable_passes` is the required count.  Only
    an open index runs the descent, on `seed`."""
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
        schur = schur_index(group, field.degree, seed=seed)
    else:
        dim = known * field.degree * group.dimension
        schur = SchurWitness(known, dim, (), REQUIRED_STABLE_PASSES)
    if not field.real_valued and bilinear.kind != "complex":
        raise InternalConsistencyError(
            "non-real character admits an invariant bilinear form"
        )
    if field.real_valued and schur.index > 2:
        raise InternalConsistencyError(
            "real-valued character with Schur index above 2"
        )
    return CharacterProfile(field, bilinear, schur, gcd_cert)


def lattice_existence_verdict(profile: CharacterProfile, n: int) -> LatticeVerdict:
    """Which invariant-lattice ranks exist, per the field/index decision table."""
    m = profile.schur.index
    kind = profile.field.kind
    if m == 1 and kind in ("rational", "imaginary-quadratic"):
        return LatticeVerdict(True, kind == "rational", True, "c-i")
    if m == 2 and kind == "rational":
        return LatticeVerdict(True, False, True, "c-ii")
    return LatticeVerdict(False, False, False, "none")

"""Built-in groups and quaternion-torus presets."""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycNum, zeta, sqrt_rational
from .errors import InvalidInputError
from .groups import DEFAULT_CAP, GroupRep, close_group
from .quaternion import QuatAlgebra, QuatElement, lipschitz_lattice
from .records import Record


class CatalogEntry(Record):
    name: str
    kind: str  # "group" | "quaternion-torus"
    dimension: int
    description: str
    generators: tuple = ()
    expected_order: int | None = None
    # For groups with no rank-n lattice but a known doubling preset:
    ds_base: tuple | None = None  # generators of the rank-n base lattice
    ds_scalar: CycNum | None = None

    def group(self, cap: int = DEFAULT_CAP) -> GroupRep:
        if self.kind != "group":
            raise InvalidInputError(f"{self.name} is not a group entry")
        g = close_group(self.generators, cap=cap)
        if self.expected_order is not None and g.order != self.expected_order:
            raise InvalidInputError(
                f"{self.name}: closure has order {g.order}, expected {self.expected_order}"
            )
        return g


def _entries():
    i4 = zeta(4)
    z3 = zeta(3)
    z5 = zeta(5)
    one = CycNum.rational(1)
    t = (one - z3) / 3
    s3_gens = (((-1, 1), (0, 1)), ((1, 0), (1, -1)))
    out = [
        CatalogEntry(
            "S3-standard", "group", 2,
            "symmetric group on three letters, two-dimensional standard representation",
            s3_gens, 6,
        ),
        CatalogEntry(
            "S4-standard", "group", 3,
            "symmetric group on four letters, three-dimensional standard representation",
            (
                ((-1, 1, 0), (0, 1, 0), (0, 0, 1)),
                ((1, 0, 0), (1, -1, 1), (0, 0, 1)),
                ((1, 0, 0), (0, 1, 0), (0, 1, -1)),
            ),
            24,
        ),
        CatalogEntry(
            "WeylA2", "group", 2,
            "rank-two Weyl group of type A in its root basis "
            "(same matrices as S3-standard)",
            s3_gens, 6,
        ),
        CatalogEntry(
            "WeylB2", "group", 2,
            "rank-two Weyl group of type B: sign change and coordinate swap",
            (((-1, 0), (0, 1)), ((0, 1), (1, 0))), 8,
        ),
        CatalogEntry(
            "G4", "group", 2,
            "order-24 complex reflection group generated by two order-3 reflections",
            (
                ((z3, 0), (0, 1)),
                ((one - t, -2 * t), (-t, one - 2 * t)),
            ),
            24,
        ),
        CatalogEntry(
            "Q8", "group", 2,
            "quaternion group of order 8 in its two-dimensional representation",
            (((i4, 0), (0, -i4)), ((0, 1), (-1, 0))), 8,
            ds_base=((1, 0), (0, 1)),
            ds_scalar=i4,
        ),
        CatalogEntry(
            "C3-zeta3", "group", 1,
            "cyclic group of order 3 acting by a primitive cube root of unity",
            (((z3,),),), 3,
        ),
        CatalogEntry(
            "C4-zeta4", "group", 1,
            "cyclic group of order 4 acting by a primitive fourth root of unity",
            (((i4,),),), 4,
        ),
        CatalogEntry(
            "C5-zeta5", "group", 1,
            "cyclic group of order 5 acting by a primitive fifth root of unity",
            (((z5,),),), 5,
        ),
        CatalogEntry(
            "example-non-generic", "quaternion-torus", 2,
            "Hamilton-quaternion torus on the integer-coordinate lattice with "
            "complex structure (i + sqrt(2) j)/sqrt(3): not an abelian variety",
        ),
        CatalogEntry(
            "example-non-ci", "quaternion-torus", 2,
            "Hamilton-quaternion torus on the integer-coordinate lattice with "
            "complex structure i: abelian, the square of a CM elliptic curve",
        ),
    ]
    return {e.name: e for e in out}


CATALOG = _entries()


def catalog_names():
    return tuple(CATALOG)


def get_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown catalog name {name!r}; choices: {', '.join(CATALOG)}"
        ) from None


def quaternion_preset(name: str):
    """(algebra, lattice, c) for a quaternion-torus entry."""
    entry = get_entry(name)
    if entry.kind != "quaternion-torus":
        raise InvalidInputError(f"{name} is not a quaternion-torus entry")
    algebra = QuatAlgebra(Fraction(-1), Fraction(-1))
    lattice = lipschitz_lattice()
    if name == "example-non-generic":
        c = algebra.element(
            (0, sqrt_rational(Fraction(1, 3)), sqrt_rational(Fraction(2, 3)), 0)
        )
    else:
        c = algebra.element((0, 1, 0, 0))
    return algebra, lattice, c

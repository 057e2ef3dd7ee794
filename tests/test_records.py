"""The frozen record base: construction, equality, hashing, immutability,
copies, and an import of the command line that loads neither `dataclasses`
nor `inspect`."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from invlat.catalog import get_entry
from invlat.errors import InvalidInputError
from invlat.lattices import MultiplierRing, lattice_from_generators
from invlat.quaternion import QuatAlgebra
from invlat.records import Record
from invlat.schur import BilinearFormType

from oracles import replace


class Pair(Record):
    left: int
    right: int = 0


class OtherPair(Record):
    left: int
    right: int = 0


def test_fields_come_from_annotations_in_order():
    assert Pair._fields == ("left", "right")
    assert MultiplierRing._fields == (
        "kind", "discriminant", "fundamental_discriminant", "order_conductor", "generator",
    )


def test_defaults_and_keywords():
    assert Pair(1) == Pair(1, 0) == Pair(left=1) == Pair(right=0, left=1)
    assert Pair(1).right == 0
    ring = MultiplierRing("Z")
    assert (ring.discriminant, ring.generator) == (None, None)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # left is missing
    ((1, 2, 3), {}),  # too many
    ((1,), {"left": 2}),  # given twice
    ((1,), {"middle": 2}),  # not a field
])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_a_subclass_adds_fields_after_its_parent():
    class Triple(Pair):
        extra: str = "x"

    triple = Triple(1, extra="y")
    assert Triple._fields == ("left", "right", "extra")
    assert (triple.left, triple.right, triple.extra) == (1, 0, "y")
    assert triple != Pair(1, 0)


def test_equality_only_within_one_class():
    assert Pair(1, 2) == Pair(1, 2)
    assert Pair(1, 2) != Pair(2, 1)
    assert Pair(1, 2) != OtherPair(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert BilinearFormType("orthogonal", 1) != Pair("orthogonal", 1)


def test_hash_agrees_with_equality():
    assert hash(Pair(1, 2)) == hash(Pair(1, 2)) == hash((1, 2))
    assert len({Pair(1, 2), Pair(1, 2), Pair(2, 1), OtherPair(1, 2)}) == 3
    assert hash(QuatAlgebra(-1, -1)) == hash(QuatAlgebra(Fraction(-1), Fraction(-1)))


def test_repr_names_class_and_fields():
    assert repr(Pair(1, "x")) == "Pair(left=1, right='x')"
    assert repr(BilinearFormType("complex", 0)) == "BilinearFormType(kind='complex', indicator=0)"


def test_assignment_and_deletion_raise():
    pair = Pair(1, 2)
    with pytest.raises(AttributeError, match="left"):
        pair.left = 3
    with pytest.raises(AttributeError, match="extra"):
        pair.extra = 3
    with pytest.raises(AttributeError, match="right"):
        del pair.right
    assert pair == Pair(1, 2)


def test_post_init_coerces_quaternion_parameters():
    algebra = QuatAlgebra(-1, 3)
    assert type(algebra.a) is Fraction and type(algebra.b) is Fraction
    assert algebra == QuatAlgebra(Fraction(-1), Fraction(3))
    with pytest.raises(InvalidInputError, match="nonzero"):
        QuatAlgebra(0, -1)


def test_replace_keeps_the_other_fields():
    entry = get_entry("Q8")
    renamed = replace(entry, name="Q8-copy")
    assert renamed.name == "Q8-copy"
    assert type(renamed) is type(entry)
    for name in entry._fields[1:]:
        assert getattr(renamed, name) == getattr(entry, name)
    assert entry.name == "Q8"
    with pytest.raises(TypeError):
        replace(entry, colour="red")


def test_replace_runs_post_init():
    algebra = replace(QuatAlgebra(-1, -1), b=-3)
    assert algebra.b == Fraction(-3) and type(algebra.b) is Fraction
    with pytest.raises(InvalidInputError):
        replace(algebra, a=0)


def test_cached_property_caches_on_a_lattice():
    from invlat.cyclotomic import CycNum

    rows = [tuple(CycNum.rational(x) for x in row) for row in ((2, 0), (1, 3))]
    lattice = lattice_from_generators(rows)
    twin = lattice_from_generators(rows)
    vectors = lattice._vectors
    assert lattice._vectors is vectors
    assert "_vectors" in vars(lattice)
    # cached values take no part in equality or hashing
    assert lattice == twin and hash(lattice) == hash(twin)
    assert "_vectors" not in repr(lattice)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, invlat.cli\n"
        "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr

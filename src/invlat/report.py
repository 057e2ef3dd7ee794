"""Analysis pipeline assembling full torus reports.

A report is a plain dict (schema tag "torus-report/1"): the character
profile, the lattice-existence verdict, the lattices built with their recipe
tags, the reflection-torus analysis when one applies, and the structure of
the quotient tori, all exact, with scalars as strings.  A group's report is
read off a `GroupAnalysis`, whose stages are each computed once, on first read.
"""

from __future__ import annotations

from functools import cache, cached_property
from json.encoder import encode_basestring_ascii

from .catalog import CatalogEntry, get_entry, quaternion_preset
from .cyclotomic import CycNum, zeta
from .errors import InvalidInputError, OutOfScopeError
from .forge import (
    ImaginaryQuadraticOrder,
    OrderSplit,
    construct_rank_n,
    extend_rank_2n,
    orbit_lattice_over_order,
    split_as_order_module,
)
from .groups import DEFAULT_CAP, GroupRep, find_reflections, group_from_json
from .lattices import (
    RankTwoLattice,
    ZLattice,
    invariance_check,
    lattice_from_generators,
    lattice_to_json,
    multiplier_ring,
)
from .quaternion import (
    imaginary_quadratic_subfield,
    build_quat_torus,
    ratl_verdict,
    torus_endomorphisms,
)
from .reflections import GeomReport, geom_report
from .records import Record
from .schur import (
    CharacterProfile,
    LatticeVerdict,
    SchurWitness,
    character_profile,
    lattice_existence_verdict,
    schur_index,
)

SCHEMA = "torus-report/1"


def _vec(v) -> list:
    return [str(x) for x in v]


def _fields_json(record: Record | None) -> dict | None:
    """A record's fields by name, each CycNum as its string, or None for None:
    the section of a record whose other values are plain JSON values."""
    if record is None:
        return None
    return {
        name: str(value) if isinstance(value, CycNum) else value
        for name, value in zip(record._fields, record._values())
    }


def _rank_two_json(gamma: RankTwoLattice) -> dict:
    return {"g1": str(gamma.g1), "g2": str(gamma.g2)}


def _profile_json(profile: CharacterProfile) -> dict:
    gcd_cert = profile.gcd_certificate
    return {
        "character_field": _fields_json(profile.field),
        "frobenius_schur": profile.bilinear.indicator,
        "bilinear_form": profile.bilinear.kind,
        "schur_index": profile.schur.index,
        "module_dimension": profile.schur.module_dimension,
        "stable_passes": 2,  # a torus-report/1 constant, from the retired descent
        "gcd_certificate": None
        if gcd_cert is None
        else [{"combination": label, "kernel_dimension": d} for label, d in gcd_cert],
    }


def _split_json(split: OrderSplit) -> dict:
    """Every factor O*v_k is the order itself, so the scalar 1 carries
    factor 0 onto each of the others."""
    k = len(split.basis)
    return {
        "order": _fields_json(split.order),
        "module_rank": k,
        "basis": [_vec(v) for v in split.basis],
        "factors": [_rank_two_json(split.order.lattice)] * k,
        "factor_isogenies": [
            {"source": 0, "target": t, "scalar": "1"} for t in range(1, k)
        ],
    }


def _geom_json(geom: GeomReport) -> dict:
    dec = geom.decomposition
    lines = []
    for line in dec.lines:
        lines.append(
            {
                "line_index": line.line_index,
                "root": _vec(line.reflection.root),
                "theta": str(line.reflection.theta),
                "rank": line.lattice.rank,
                "scalars": None if line.scalars is None else _rank_two_json(line.scalars),
                "multiplier": _fields_json(line.multiplier),
            }
        )
    return {
        "lines": lines,
        "sublattice_index": dec.index,
        "s_det": str(dec.s_det),
        "graph": {
            "edges": [_fields_json(edge) for edge in geom.graph.edges],
            "connected": geom.graph.connected,
        },
        "cycle_multipliers": [
            {"cycle": list(cycle), "value": str(value)}
            for cycle, value in geom.multipliers
        ],
        "cm": None
        if geom.cm is None
        else {
            "cycle": list(geom.cm.cycle),
            "value": str(geom.cm.value),
            "line_index": geom.cm.line_index,
            "ring": _fields_json(geom.cm.ring),
        },
        "weyl_like": geom.weyl_like,
        "tags": list(geom.tags),
    }


def _lattice_entry(recipe: str, lattice: ZLattice, **extra) -> dict:
    """A report entry.  Every lattice a recipe returns is invariant: by its
    orbit closure, because its base is, or by a check on the generators."""
    entry = {
        "recipe": recipe,
        "rank": lattice.rank,
        "invariant": True,
        "lattice": lattice_to_json(lattice),
    }
    entry.update(extra)
    return entry


def _doubled(base: ZLattice, c: CycNum):
    """(lattice, ds entry, split or None) for the doubled lattice base + c*base.

    When base is G-invariant, so is the doubled lattice, by linearity:
    g(b + c*b') = g(b) + c*g(b').  The basis b_1..b_n of base is a C-basis,
    so the doubled lattice is the direct sum of the (Z + Zc)*b_j:
    `extend_rank_2n` checked that the rank doubled.  The multiplier ring O
    of Z + Zc is Z[f*c], f the least integer that makes c^2 = p*c + q
    integral, and its generator is f*c.  c lies in O exactly when c is
    integral, that is when f = 1 and the generator is c; then Z + Zc is O
    and the base basis is the split.  Otherwise Z + Zc is a fractional ideal
    of O, split by Euclidean reduction when O is Euclidean.
    """
    doubled = extend_rank_2n(base, c)
    entry = _lattice_entry("ds", doubled, scalar=str(c))
    split = None
    ring = multiplier_ring(RankTwoLattice(1, c))
    if ring.kind != "Z":
        order = ImaginaryQuadraticOrder.from_discriminant(ring.discriminant)
        if ring.generator == c:
            split = OrderSplit(order, base.vectors())
        elif order.euclidean:
            split = split_as_order_module(doubled, order)
    return doubled, entry, split


class LatticeStage(Record):
    """What the verdict's recipes built, and the structure read off it."""

    entries: list  # report entries, in recipe order
    rank_2n: ZLattice | None  # the lattice the reflection stage decomposes
    split: OrderSplit | None
    tags: list
    abelian: bool | None
    detail: str


class GroupAnalysis(Record):
    """One irreducible group's analysis, each stage computed on first read.

    The stages follow the decision: the character profile, the verdict it
    gives, the lattices the verdict's recipes build, and the reflection
    geometry of the rank-2n lattice.  `report` reads them all; `construct`
    reads only the lattices, and `decompose` the lattices and the geometry.
    The Schur split runs in the profile only where theory leaves the index
    open, and otherwise only when the `Zn` or `O` recipe reads the witness,
    so at most once per analysis.
    """

    group: GroupRep
    entry: CatalogEntry | None = None  # the catalog entry, for its name and ds preset
    doubling_scalar: CycNum | None = None  # c of the Zn lattice's ds, z4 if None

    @cached_property
    def profile(self) -> CharacterProfile:
        return character_profile(self.group)

    @cached_property
    def verdict(self) -> LatticeVerdict:
        return lattice_existence_verdict(self.profile)

    @cached_property
    def witness(self) -> SchurWitness:
        """A minimal rational module: the profile's, or one split down to
        the index theory settled."""
        schur = self.profile.schur
        if schur.basis:
            return schur
        return schur_index(self.group, self.profile.field.degree, known_index=schur.index)

    @cached_property
    def lattices(self) -> LatticeStage:
        """The lattices of the recipes the verdict allows, and their structure."""
        group, profile, n = self.group, self.profile, self.group.dimension
        clause = self.verdict.clause
        if clause == "c-i" and profile.field.kind == "rational":
            base = construct_rank_n(group, self.witness.basis)
            c = self.doubling_scalar if self.doubling_scalar is not None else zeta(4)
            doubled, ds_entry, split = _doubled(base, c)
            entries = [_lattice_entry("Zn", base), ds_entry]
            if split is None:
                detail = "doubled lattice built; no split certificate for this scalar"
                return LatticeStage(entries, doubled, None, [], None, detail)
            detail = (
                "the doubled lattice is a free module over an imaginary quadratic "
                "order, so the torus is an abelian variety with CM factors"
            )
            return LatticeStage(entries, doubled, split, [], True, detail)
        if clause == "c-i":
            order = ImaginaryQuadraticOrder.from_discriminant(profile.field.discriminant)
            # start in a minimal module: the orbit of e1 need not be discrete
            orbit = orbit_lattice_over_order(group, order, self.witness.basis[0], profile.field)
            orbit_entry = _lattice_entry("O", orbit, order=_fields_json(order))
            # the orbit lattice is already order-stable, so saturating it is
            # the identity: the saturate entry repeats it with index 1
            entries = [orbit_entry, dict(orbit_entry, recipe="saturate", index_over_input=1)]
            detail = (
                "the character field is imaginary quadratic, so every invariant "
                "lattice yields an abelian variety with CM"
            )
            if not order.euclidean:
                return LatticeStage(entries, orbit, None, ["nonrationalT"], True, detail)
            detail += "; the saturated lattice splits into CM line lattices"
            split = split_as_order_module(orbit, order)
            return LatticeStage(entries, orbit, split, ["nonrationalT", "main2"], True, detail)
        if clause == "c-ii":
            entries, doubled, split = [], None, None
            if self.entry is not None and self.entry.ds_base is not None:
                base = lattice_from_generators(
                    [tuple(CycNum.rational(x) for x in row) for row in self.entry.ds_base]
                )
                doubled, ds_entry, split = _doubled(base, self.entry.ds_scalar)
                # no rank-n lattice is invariant here, so the preset's doubled
                # lattice is checked itself
                if not invariance_check(doubled, group.sparse_generators):
                    raise InvalidInputError(
                        "preset doubling lattice is not invariant under the group"
                    )
                entries.append(ds_entry)
            rverdict = ratl_verdict(profile, n, evidence=split)
            return LatticeStage(
                entries, doubled, split, ["ratL"], rverdict.abelian, rverdict.detail
            )
        detail = "no nonzero invariant lattice exists for this representation"
        return LatticeStage([], None, None, [], None, detail)

    @cached_property
    def reflections(self) -> list:
        return find_reflections(self.group)

    @cached_property
    def geometry(self) -> dict | None:
        """The reflection section: the decomposition of the rank-2n lattice,
        or None without one or when no n reflections generate the group."""
        lattice = self.lattices.rank_2n
        if lattice is None or not self.reflections:
            return None
        try:
            return _geom_json(geom_report(self.group, lattice, self.profile.field))
        except OutOfScopeError:  # no n reflections generate the group
            return None

    def report(self) -> dict:
        """The full report: profile, verdict, lattices, split, geometry and
        structure."""
        group, n = self.group, self.group.dimension
        profile, verdict, stage = self.profile, self.verdict, self.lattices
        reflections, geometry = self.reflections, self.geometry
        return {
            "schema": SCHEMA,
            "input": {
                "name": None if self.entry is None else self.entry.name,
                "kind": "group",
                "dimension": n,
            },
            "group": {
                "order": group.order,
                "dimension": n,
                "conductor": group.conductor,
                "reflections": len(reflections),
            },
            "profile": _profile_json(profile),
            "verdict": _fields_json(verdict),
            "lattices": list(stage.entries),
            "split": None if stage.split is None else _split_json(stage.split),
            "reflection": geometry,
            "quaternion": None,
            "structure": {
                "tags": stage.tags + ([] if geometry is None else ["geom"]),
                "abelian": stage.abelian,
                "detail": stage.detail,
            },
        }


@cache
def _q8_analysis() -> GroupAnalysis:
    """Q8's analysis, closed under the default cap once per process: the
    catalog entry's report and both quaternion presets' profile read it.
    Its stages are computed on first read, and no report changes them."""
    entry = get_entry("Q8")
    return GroupAnalysis(entry.group(), entry=entry)


def quaternion_report(name: str) -> dict:
    """Analyze one quaternion-torus preset: endomorphisms and the verdict.

    The profile is Q8's, whose indicator -1 fixes Schur index 2, so no
    split runs.  Q8 is a fixed reference of order 8, closed under the
    default cap, since the input names no group for a cap to bound, and
    profiled once per process for every preset."""
    entry = get_entry(name)
    algebra, lattice, c = quaternion_preset(name)
    torus = build_quat_torus(algebra, lattice, c)
    endos = torus_endomorphisms(torus)
    subfield = imaginary_quadratic_subfield(algebra)

    profile = _q8_analysis().profile
    rverdict = ratl_verdict(profile, 2, evidence=endos)

    quaternion = {
        "algebra": {
            "a": str(algebra.a),
            "b": str(algebra.b),
            "definite": algebra.definite,
        },
        "lattice": lattice_to_json(lattice),
        "complex_structure": _vec(c.coords),
        "rational_direction": torus.rational_direction,
        "direction": None if torus.direction is None else _vec(torus.direction),
        "direction_field_discriminant": torus.field_discriminant,
        "subfield": {
            "t": str(subfield.t),
            "witness": _vec(subfield.witness.coords),
            "field_discriminant": subfield.field_discriminant,
        },
        "endomorphisms": _fields_json(endos),
        "verdict": _fields_json(rverdict),
    }
    return {
        "schema": SCHEMA,
        "input": {"name": name, "kind": "quaternion-torus", "dimension": 2},
        "group": None,
        "profile": _profile_json(profile),
        "verdict": None,
        "lattices": [],
        "split": None,
        "reflection": None,
        "quaternion": quaternion,
        "structure": {
            "tags": ["deform", "ratL"],
            "abelian": endos.abelian,
            "detail": endos.detail,
        },
    }


def analyze(target, *, cap: int = DEFAULT_CAP) -> dict:
    """Full report for a catalog name or group JSON dict.

    `cap` bounds the closure of the group the target names; a quaternion
    torus names none."""
    if isinstance(target, str):
        entry = get_entry(target)
        if entry.kind == "quaternion-torus":
            return quaternion_report(target)
        if entry.name == "Q8" and cap >= entry.expected_order:
            # every cap that admits the order closes the same group
            return _q8_analysis().report()
        return GroupAnalysis(entry.group(cap=cap), entry=entry).report()
    if isinstance(target, dict):
        return GroupAnalysis(group_from_json(target, cap=cap)).report()
    raise InvalidInputError(f"cannot analyze {type(target).__name__}")


def render_json(value) -> str:
    """Canonical serialization of a report or any part of it: stable key
    order, two-space indent.

    The text is that of `json.dumps(value, sort_keys=True, indent=2)`, written
    by one recursive pass instead of the pure-Python encoder that an indent
    selects.  Values are dicts with str keys, lists, tuples, str, int, bool and
    None; anything else (a float too) raises TypeError.  A dict's str and int
    values, and a list of only str or only int (bool is neither), are written
    without a further call."""
    out = []
    # indents[d] starts a line at depth d; a container at depth d is reached
    # only after one at depth d - 1, so one append keeps the list long enough
    indents = ["\n"]

    def write(value, depth):
        if isinstance(value, dict):
            if not value:
                out.append("{}")
                return
            if len(indents) <= depth + 1:
                indents.append(indents[-1] + "  ")
            inner = indents[depth + 1]
            lead, sep = "{" + inner, "," + inner
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be str, not {type(key).__name__}")
                item = value[key]
                out.extend((lead, encode_basestring_ascii(key), ": "))
                kind = type(item)
                if kind is str:
                    out.append(encode_basestring_ascii(item))
                elif kind is int:
                    out.append(int.__repr__(item))
                else:
                    write(item, depth + 1)
                lead = sep
            out.extend((indents[depth], "}"))
        elif isinstance(value, (list, tuple)):
            if not value:
                out.append("[]")
                return
            if len(indents) <= depth + 1:
                indents.append(indents[-1] + "  ")
            inner = indents[depth + 1]
            sep = "," + inner
            kinds = set(map(type, value))
            kind = kinds.pop() if len(kinds) == 1 else None
            if kind is str:
                out.extend(("[", inner, sep.join(map(encode_basestring_ascii, value))))
            elif kind is int:
                out.extend(("[", inner, sep.join(map(int.__repr__, value))))
            else:
                lead = "[" + inner
                for item in value:
                    out.append(lead)
                    write(item, depth + 1)
                    lead = sep
            out.extend((indents[depth], "]"))
        elif isinstance(value, str):
            out.append(encode_basestring_ascii(value))
        elif value is None:
            out.append("null")
        elif value is True:
            out.append("true")
        elif value is False:
            out.append("false")
        elif isinstance(value, int):
            out.append(int.__repr__(value))
        else:
            raise TypeError(f"{type(value).__name__} is not a report value")

    write(value, 0)
    return "".join(out)

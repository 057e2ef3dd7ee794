"""Analysis pipeline assembling full torus reports.

A report is a plain dict (schema tag "torus-report/1") that records, for one
input, the character profile, the lattice-existence verdict, the lattices
actually constructed with their recipe tags, the reflection-torus analysis
when one applies, and the structure conclusion for the quotient tori.
All values are exact; scalars are rendered as strings.
"""

from __future__ import annotations

import json

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
    MultiplierRing,
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
from .schur import (
    CharacterProfile,
    character_profile,
    lattice_existence_verdict,
)

SCHEMA = "torus-report/1"


def _vec(v) -> list:
    return [str(x) for x in v]


def _ring_json(ring: MultiplierRing | None):
    if ring is None:
        return None
    return {
        "kind": ring.kind,
        "discriminant": ring.discriminant,
        "fundamental_discriminant": ring.fundamental_discriminant,
        "order_conductor": ring.order_conductor,
        "generator": None if ring.generator is None else str(ring.generator),
    }


def _rank_two_json(gamma: RankTwoLattice) -> dict:
    return {"g1": str(gamma.g1), "g2": str(gamma.g2)}


def _profile_json(profile: CharacterProfile) -> dict:
    field = profile.field
    gcd_cert = profile.gcd_certificate
    return {
        "character_field": {
            "kind": field.kind,
            "degree": field.degree,
            "discriminant": field.discriminant,
            "real_valued": field.real_valued,
            "generator": None if field.generator is None else str(field.generator),
        },
        "frobenius_schur": profile.bilinear.indicator,
        "bilinear_form": profile.bilinear.kind,
        "schur_index": profile.schur.index,
        "module_dimension": profile.schur.module_dimension,
        "stable_passes": profile.schur.stable_passes,
        "gcd_certificate": None
        if gcd_cert is None
        else [{"combination": label, "kernel_dimension": d} for label, d in gcd_cert],
    }


def _order_json(order: ImaginaryQuadraticOrder) -> dict:
    return {
        "discriminant": order.discriminant,
        "generator": str(order.generator),
        "euclidean": order.euclidean,
    }


def _split_json(split: OrderSplit) -> dict:
    """Every factor O*v_k is the order itself, so the scalar 1 carries
    factor 0 onto each of the others."""
    k = len(split.basis)
    return {
        "order": _order_json(split.order),
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
                "multiplier": _ring_json(line.multiplier),
            }
        )
    return {
        "lines": lines,
        "sublattice_index": dec.index,
        "s_det": str(dec.s_det),
        "graph": {
            "edges": [
                {"source": e.source, "target": e.target, "index": e.index}
                for e in geom.graph.edges
            ],
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
            "ring": _ring_json(geom.cm.ring),
        },
        "weyl_like": geom.weyl_like,
        "tags": list(geom.tags),
    }


def _lattice_entry(recipe: str, lattice: ZLattice, invariant: bool, **extra) -> dict:
    entry = {
        "recipe": recipe,
        "rank": lattice.rank,
        "invariant": invariant,
        "lattice": lattice_to_json(lattice),
    }
    entry.update(extra)
    return entry


def _doubled(group: GroupRep, base: ZLattice, c: CycNum):
    """(lattice, ds entry, split or None) for the doubled lattice base + c*base.

    The basis b_1..b_n of base is a C-basis, so the doubled lattice is the
    direct sum of the (Z + Zc)*b_j: `extend_rank_2n` checked that the rank
    doubled.  When c lies in the multiplier ring O of Z + Zc, Z + Zc is O
    and the base basis is the split; otherwise Z + Zc is a fractional ideal
    of O, split by Euclidean reduction when O is Euclidean.
    """
    doubled = extend_rank_2n(base, c)
    invariant = invariance_check(doubled, group.sparse_generators)
    entry = _lattice_entry("ds", doubled, invariant, scalar=str(c))
    split = None
    ring = multiplier_ring(RankTwoLattice(1, c))
    if ring.kind != "Z":
        order = ImaginaryQuadraticOrder.from_discriminant(ring.discriminant)
        if order.contains(c):
            split = OrderSplit(order, base.vectors())
        elif order.euclidean:
            split = split_as_order_module(doubled, order)
    return doubled, entry, split


def group_report(
    group: GroupRep,
    *,
    name: str | None = None,
    entry: CatalogEntry | None = None,
    doubling_scalar: CycNum | None = None,
    seed: int = 0,
) -> dict:
    """Analyze one irreducible group: profile, verdict, lattices, structure."""
    n = group.dimension
    profile = character_profile(group, seed=seed)
    verdict = lattice_existence_verdict(profile, n)

    lattices = []
    tags = []
    abelian = None
    detail = ""
    rank_2n_lattice = None
    split = None

    if verdict.clause == "c-i" and profile.field.kind == "rational":
        base = construct_rank_n(group, profile.schur.basis)
        # the orbit lattices of forge are invariant by their construction
        lattices.append(_lattice_entry("Zn", base, True))
        c = doubling_scalar if doubling_scalar is not None else zeta(4)
        rank_2n_lattice, ds_entry, split = _doubled(group, base, c)
        lattices.append(ds_entry)
        if split is None:
            detail = "doubled lattice built; no split certificate for this scalar"
        else:
            abelian = True
            detail = (
                "the doubled lattice is a free module over an imaginary quadratic "
                "order, so the torus is an abelian variety with CM factors"
            )
    elif verdict.clause == "c-i":
        order = ImaginaryQuadraticOrder.from_discriminant(profile.field.discriminant)
        start = tuple(
            CycNum.rational(1 if k == 0 else 0) for k in range(n)
        )
        orbit = orbit_lattice_over_order(group, order, start, profile.field)
        orbit_entry = _lattice_entry("O", orbit, True, order=_order_json(order))
        # the orbit lattice is already order-stable, so saturating it is the
        # identity: the saturate entry repeats it with index 1
        lattices += [
            orbit_entry,
            dict(orbit_entry, recipe="saturate", index_over_input=1),
        ]
        rank_2n_lattice = orbit
        tags.append("nonrationalT")
        abelian = True
        detail = (
            "the character field is imaginary quadratic, so every invariant "
            "lattice yields an abelian variety with CM"
        )
        if order.euclidean:
            split = split_as_order_module(orbit, order)
            tags.append("main2")
            detail += "; the saturated lattice splits into CM line lattices"
    elif verdict.clause == "c-ii":
        tags.append("ratL")
        if entry is not None and entry.ds_base is not None:
            base = lattice_from_generators(
                [
                    tuple(CycNum.rational(x) for x in row)
                    for row in entry.ds_base
                ]
            )
            rank_2n_lattice, ds_entry, split = _doubled(group, base, entry.ds_scalar)
            if not ds_entry["invariant"]:
                raise InvalidInputError(
                    "preset doubling lattice is not invariant under the group"
                )
            lattices.append(ds_entry)
        rverdict = ratl_verdict(profile, n, evidence=split)
        abelian = rverdict.abelian
        detail = rverdict.detail
    else:
        detail = "no nonzero invariant lattice exists for this representation"

    reflection = None
    inventory = find_reflections(group)
    if rank_2n_lattice is not None and inventory:
        try:
            geom = geom_report(group, rank_2n_lattice, profile.field)
            reflection = _geom_json(geom)
            tags.append("geom")
        except OutOfScopeError:  # no n reflections generate the group
            reflection = None

    report = {
        "schema": SCHEMA,
        "input": {
            "name": name,
            "kind": "group",
            "dimension": n,
        },
        "group": {
            "order": group.order,
            "dimension": n,
            "conductor": group.conductor,
            "reflections": len(inventory),
        },
        "profile": _profile_json(profile),
        "verdict": {
            "clause": verdict.clause,
            "exists_any": verdict.exists_any,
            "exists_rank_n": verdict.exists_rank_n,
            "exists_rank_2n": verdict.exists_rank_2n,
        },
        "lattices": lattices,
        "split": None if split is None else _split_json(split),
        "reflection": reflection,
        "quaternion": None,
        "structure": {"tags": tags, "abelian": abelian, "detail": detail},
    }
    return report


def quaternion_report(name: str) -> dict:
    """Analyze one quaternion-torus preset: endomorphisms and the verdict.

    The profile is Q8's, whose indicator -1 fixes Schur index 2 before the
    descent draws anything, so no seed is taken.  Q8 is a fixed reference
    of order 8, closed under the default cap: the input names no group for
    a cap to bound."""
    entry = get_entry(name)
    algebra, lattice, c = quaternion_preset(name)
    torus = build_quat_torus(algebra, lattice, c)
    endos = torus_endomorphisms(torus)
    subfield = imaginary_quadratic_subfield(algebra)

    reference = get_entry("Q8").group()
    profile = character_profile(reference)
    rverdict = ratl_verdict(profile, 2, evidence=endos)

    tags = ["deform", "ratL"]
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
        "endomorphisms": {
            "rank": endos.rank,
            "structure_tag": endos.structure_tag,
            "abelian": endos.abelian,
            "matches_input_lattice": endos.matches_input_lattice,
            "center_discriminant": endos.center_discriminant,
            "detail": endos.detail,
        },
        "verdict": {
            "branch": rverdict.branch,
            "abelian": rverdict.abelian,
            "detail": rverdict.detail,
        },
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
            "tags": tags,
            "abelian": endos.abelian,
            "detail": endos.detail,
        },
    }


def analyze(target, *, seed: int = 0, cap: int = DEFAULT_CAP) -> dict:
    """Full report for a catalog name or group JSON dict.

    `cap` bounds the closure of the group the target names; a quaternion
    torus names none."""
    if isinstance(target, str):
        entry = get_entry(target)
        if entry.kind == "quaternion-torus":
            return quaternion_report(target)
        group = entry.group(cap=cap)
        return group_report(group, name=target, entry=entry, seed=seed)
    if isinstance(target, dict):
        group = group_from_json(target, cap=cap)
        return group_report(group, seed=seed)
    raise InvalidInputError(f"cannot analyze {type(target).__name__}")


def render_json(value) -> str:
    """Canonical serialization of a report or any part of it: stable key
    order, two-space indent."""
    return json.dumps(value, sort_keys=True, indent=2)

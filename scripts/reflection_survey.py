"""Run the reflection decomposition over the reflection groups in the catalog
and tabulate line multipliers, sublattice indices, and detected CM scalars.

Each cycle scan runs to `reflections.default_cycle_bound` of the dimension.

Usage: python3 scripts/reflection_survey.py
"""

from invlat.catalog import catalog_names, get_entry
from invlat.errors import InvalidInputError
from invlat.report import analyze


def main():
    for name in catalog_names():
        entry = get_entry(name)
        if entry.kind != "group":
            continue
        try:
            rep = analyze(name)
        except InvalidInputError as exc:
            print(f"{name}: skipped ({exc})")
            continue
        geom = rep["reflection"]
        if geom is None:
            print(f"{name}: no reflection decomposition")
            continue
        print(f"{name}:")
        print(f"  sublattice index {geom['sublattice_index']}, "
              f"s_det {geom['s_det']}, "
              f"graph connected={geom['graph']['connected']}")
        for line in geom["lines"]:
            ring = line["multiplier"]
            desc = "Z" if ring is None or ring["kind"] == "Z" else (
                f"order disc {ring['discriminant']}")
            print(f"  line {line['root']}: multiplier ring {desc}")
        for cyc in geom["cycle_multipliers"]:
            print(f"  cycle {tuple(cyc['cycle'])}: value {cyc['value']}")
        if geom["cm"] is not None:
            cm = geom["cm"]
            print(f"  CM scalar {cm['value']} on line {cm['line_index']}, "
                  f"fundamental discriminant "
                  f"{cm['ring']['fundamental_discriminant']}")
        print(f"  tags: {', '.join(geom['tags']) or '-'}")


if __name__ == "__main__":
    main()

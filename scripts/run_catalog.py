"""Analyze every catalog entry and print a one-line summary per entry.

Usage: python3 scripts/run_catalog.py [--json]
"""

import argparse

from invlat.catalog import catalog_names
from invlat.report import analyze, render_json


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true", help="dump full reports")
    args = parser.parse_args()

    reports = {name: analyze(name) for name in catalog_names()}
    if args.json:
        print(render_json(reports))
        return

    for name, rep in reports.items():
        verdict = rep["verdict"]
        if verdict is None:
            clause, ranks = "-", "-"
        else:
            clause = verdict["clause"]
            ranks = ",".join(
                r for r, ok in [("n", verdict["exists_rank_n"]),
                                ("2n", verdict["exists_rank_2n"])] if ok
            ) or "none"
        built = ",".join(entry["recipe"] for entry in rep["lattices"]) or "-"
        structure = rep["structure"]
        abelian = structure.get("abelian")
        tags = ",".join(structure["tags"]) or "-"
        print(f"{name:24} clause={clause:5} ranks={ranks:5} "
              f"recipes={built:16} abelian={str(abelian):5} tags={tags}")


if __name__ == "__main__":
    main()

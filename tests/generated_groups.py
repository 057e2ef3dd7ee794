"""Reflection groups generated in code, written as group JSON.

These exercise the paths the catalog does not reach with a nontrivial
group order: the Weyl group B3 from its Cartan matrix, and the imprimitive
groups G(m,1,n) of Shephard-Todd, which run the O, saturate, split and CM
steps.  Run this file to rewrite the byte snapshots in
tests/golden/generated/ (only for a change that alters report bytes on
purpose):

    PYTHONPATH=src python tests/generated_groups.py
"""

from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "generated"

# Cartan matrix of B3 (Bourbaki labelling, alpha_3 short).
CARTAN_B3 = ((2, -1, 0), (-1, 2, -2), (0, -1, 2))


def weyl_from_cartan(cartan) -> dict:
    """Simple reflections in the root basis: s_i(alpha_j) = alpha_j - A_ij alpha_i."""
    n = len(cartan)
    gens = []
    for i in range(n):
        gens.append(
            [
                [str((1 if k == j else 0) - (cartan[i][j] if k == i else 0)) for j in range(n)]
                for k in range(n)
            ]
        )
    return {"conductor": 1, "dimension": n, "generators": gens}


def imprimitive(m: int, n: int) -> dict:
    """G(m,1,n): adjacent transpositions plus diag(zeta_m, 1, ..., 1)."""
    gens = []
    for i in range(n - 1):
        swap = {i: i + 1, i + 1: i}
        gens.append(
            [["1" if swap.get(k, k) == j else "0" for j in range(n)] for k in range(n)]
        )
    gens.append(
        [
            [(f"z{m}" if k == 0 else "1") if k == j else "0" for j in range(n)]
            for k in range(n)
        ]
    )
    return {"conductor": m, "dimension": n, "generators": gens}


# snapshot name -> (group JSON, order of the closure)
GENERATED = {
    "WeylB3": (weyl_from_cartan(CARTAN_B3), 48),
    "G3-1-2": (imprimitive(3, 2), 18),
    "G4-1-2": (imprimitive(4, 2), 32),
    "G6-1-2": (imprimitive(6, 2), 72),
    "G3-1-3": (imprimitive(3, 3), 162),
}


if __name__ == "__main__":
    from invlat.report import analyze, render_json

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, (obj, _) in GENERATED.items():
        (GOLDEN / f"{name}.json").write_text(render_json(analyze(obj)), encoding="utf-8")
        print("wrote", name)

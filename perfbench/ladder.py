"""Generated reflection groups for the reflection-ladder workload.

Each group is written in the library's JSON group format (scalars as text),
so that the timed `analyze <file>` call parses it with `group_from_json` and
`parse_scalar` like any user file.
"""

from __future__ import annotations

# Cartan matrix of B3 (Bourbaki labelling, alpha_3 short).
CARTAN_B3 = ((2, -1, 0), (-1, 2, -2), (0, -1, 2))


def weyl_from_cartan(cartan) -> dict:
    """Simple reflections in the root basis: s_i(alpha_j) = alpha_j - A_ij alpha_i."""
    n = len(cartan)
    gens = []
    for i in range(n):
        mat = [
            [(1 if k == j else 0) - (cartan[i][j] if k == i else 0) for j in range(n)]
            for k in range(n)
        ]
        gens.append([[str(x) for x in row] for row in mat])
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
        [[(f"z{m}" if k == 0 else "1") if k == j else "0" for j in range(n)]
         for k in range(n)]
    )
    return {"conductor": m, "dimension": n, "generators": gens}


# name -> (group JSON, known order of the closure)
LADDER = {
    "WeylB3": (weyl_from_cartan(CARTAN_B3), 48),
    "G(3,1,2)": (imprimitive(3, 2), 18),
    "G(4,1,2)": (imprimitive(4, 2), 32),
    "G(6,1,2)": (imprimitive(6, 2), 72),
    "G(3,1,3)": (imprimitive(3, 3), 162),
}


def file_name(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name).strip("_") + ".json"

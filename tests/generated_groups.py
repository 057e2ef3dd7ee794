"""Reflection groups generated in code, written as group JSON.

These exercise the paths the catalog does not reach with a nontrivial
group order: the Weyl groups B_n and D_n from their Cartan matrices, and
the imprimitive groups G(m,p,n) of Shephard-Todd, whose G(m,1,n) run the
O, saturate, split and CM steps; the dihedral groups, as G(m,m,2) and as
I2(m) from the Coxeter diagram; and the extraspecial group
2^{1+4}_- = Q8 o D8 in dimension 4, the only group input with Schur index
2 besides Q8.  Run this file to rewrite the byte snapshots in
tests/golden/generated/ (only for a change that alters report bytes on
purpose):

    PYTHONPATH=src python tests/generated_groups.py
"""

from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "generated"

# Cartan matrix of B3 (Bourbaki labelling, alpha_3 short).
CARTAN_B3 = ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
# Cartan matrix of A4; its Weyl group (order 120) has no golden snapshot.
CARTAN_A4 = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))


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


def cartan_a(n: int):
    """Cartan matrix of A_n, n >= 1: the chain alpha_1 ... alpha_n."""
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def cartan_b(n: int):
    """Cartan matrix of B_n, n >= 2 (Bourbaki labelling, alpha_n short)."""
    return [[2 if i == j else -2 if (i, j) == (n - 2, n - 1) else -1 if abs(i - j) == 1 else 0
             for j in range(n)] for i in range(n)]


def cartan_d(n: int):
    """Cartan matrix of D_n, n >= 4: the chain alpha_1 ... alpha_(n-1), and
    alpha_n joined to alpha_(n-2)."""
    def joined(i, j):
        i, j = min(i, j), max(i, j)
        return (j == i + 1 < n - 1) or (i, j) == (n - 3, n - 1)

    return [[2 if i == j else -1 if joined(i, j) else 0 for j in range(n)] for i in range(n)]


def imprimitive_mpn(m: int, p: int, n: int) -> dict:
    """G(m,p,n), p | m, n >= 2: the adjacent transpositions,
    [[0, zeta_m^-1], [zeta_m, 0]] on the first two coordinates, and
    diag(zeta_m^p, 1, ..., 1) when p < m.  Its order is m^n n! / p."""
    def power(k):
        k %= m
        return "1" if k == 0 else f"z{m}" if k == 1 else f"z{m}^{k}"

    gens = []
    for i in range(n - 1):
        swap = {i: i + 1, i + 1: i}
        gens.append(
            [["1" if swap.get(k, k) == j else "0" for j in range(n)] for k in range(n)]
        )
    flip = [["1" if k == j >= 2 else "0" for j in range(n)] for k in range(n)]
    flip[0][1], flip[1][0] = power(-1), power(1)
    gens.append(flip)
    if p < m:
        gens.append(
            [[(power(p) if k == 0 else "1") if k == j else "0" for j in range(n)]
             for k in range(n)]
        )
    return {"conductor": m, "dimension": n, "generators": gens}


def dihedral(m: int) -> dict:
    """G(m,m,2), the dihedral group of order 2m: [[0, zeta_m^-1], [zeta_m, 0]]
    and the swap."""
    return {"conductor": m, "dimension": 2, "generators": [
        [["0", f"z{m}^{m - 1}"], [f"z{m}", "0"]],
        [["0", "1"], ["1", "0"]],
    ]}


def coxeter_i2(m: int) -> dict:
    """I2(m), the dihedral group of order 2m, from its Coxeter diagram:
    s_i(alpha_j) = alpha_j + 2cos(pi/m_ij) alpha_i, with m_ii = 1 and
    m_12 = m, and 2cos(pi/m) = zeta_2m + zeta_2m^-1.  Column j of s_i holds
    s_i(alpha_j), as in `weyl_from_cartan`."""
    c = f"z{2 * m}+z{2 * m}^{2 * m - 1}"
    return {"conductor": 2 * m, "dimension": 2, "generators": [
        [["-1", c], ["0", "1"]],
        [["1", "0"], [c, "-1"]],
    ]}


def in_generic_basis(obj: dict) -> dict:
    """The same group with each generator g written as P g P^-1, for P the
    unitriangular integer matrix with (3i + 5j) mod 7 - 3 above the diagonal.
    In such a basis the basis rows have long orbits, unlike in the root or
    monomial bases above.  The generator entries must be integers."""
    n = obj["dimension"]
    p = [[int(i == j) if j <= i else (3 * i + 5 * j) % 7 - 3 for j in range(n)] for i in range(n)]
    p_inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in reversed(range(n)):  # back substitution: row i of P^-1
        for j in range(i + 1, n):
            p_inv[i] = [a - p[i][j] * b for a, b in zip(p_inv[i], p_inv[j])]

    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    gens = [
        [[str(x) for x in row] for row in mul(mul(p, [[int(x) for x in r] for r in g]), p_inv)]
        for g in obj["generators"]
    ]
    return {**obj, "generators": gens}

# Generators of Q8 and D8 on C^2, with entries as group JSON strings.
Q8_GENS = ([["z4", "0"], ["0", "-z4"]], [["0", "1"], ["-1", "0"]])
D8_GENS = ([["-1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]])


def kron_identity(g, left: bool):
    """g (x) I2 when left, else I2 (x) g, for a 2x2 matrix g of JSON entries,
    as a Kronecker product with rows and columns indexed 2p + r."""
    return [[(g[p][q] if r == s else "0") if left else (g[r][s] if p == q else "0")
             for q in range(2) for s in range(2)]
            for p in range(2) for r in range(2)]


def tensor_group(first, second, conductor: int) -> dict:
    """The central product of two groups on C^2, acting on C^2 (x) C^2."""
    gens = [kron_identity(g, True) for g in first]
    gens += [kron_identity(g, False) for g in second]
    return {"conductor": conductor, "dimension": 4, "generators": gens}


def extraspecial_minus_4() -> dict:
    """2^{1+4}_- = Q8 o D8: Q8's generators (x) I2, and I2 (x) diag(-1, 1),
    I2 (x) swap."""
    return tensor_group(Q8_GENS, D8_GENS, 4)


# Two groups written over a larger cyclotomic field than their character
# field: the semidihedral group SD16 over Q(zeta8), character field Q(sqrt-2),
# and the Frobenius group F21 = C7 : C3 over Q(zeta7), character field
# Q(sqrt-7).  Both are irreducible, and a gcd certificate fixes Schur index 1.
SD16 = {"conductor": 8, "dimension": 2, "generators": [
    [["z8", "0"], ["0", "z8^3"]], [["0", "1"], ["1", "0"]],
]}
F21 = {"conductor": 7, "dimension": 3, "generators": [
    [["z7", "0", "0"], ["0", "z7^2", "0"], ["0", "0", "z7^4"]],
    [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
]}


# One group written two ways, each pair's characters equal or Galois
# conjugate, so the Schur index and the clause must agree within a pair.
Z3_SCALAR = [["z3", "0"], ["0", "z3"]]
SAME_GROUP_TWO_WAYS = {
    # Q8 x C3 over conductor 12, and over Q(zeta3), where -1 = w + w^2 makes
    # (-1,-1) split
    "Q8xC3": (
        {"conductor": 12, "dimension": 2, "generators": [*Q8_GENS, Z3_SCALAR]},
        {"conductor": 3, "dimension": 2, "generators": [
            [["-z3^2", "z3"], ["z3", "z3^2"]], Q8_GENS[1], Z3_SCALAR,
        ]},
    ),
    # 2^{1+4}_+ as Q8 (x) Q8 and as D8 (x) D8
    "extraspecial-plus": (tensor_group(Q8_GENS, Q8_GENS, 4), tensor_group(D8_GENS, D8_GENS, 1)),
}


# snapshot name -> (group JSON, order of the closure)
GENERATED = {
    "WeylB3": (weyl_from_cartan(CARTAN_B3), 48),
    "G3-1-2": (imprimitive(3, 2), 18),
    "G4-1-2": (imprimitive(4, 2), 32),
    "G6-1-2": (imprimitive(6, 2), 72),
    "G3-1-3": (imprimitive(3, 3), 162),
    "Extraspecial2-1-4-minus": (extraspecial_minus_4(), 32),
}


if __name__ == "__main__":
    from invlat.report import analyze, render_json

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, (obj, _) in GENERATED.items():
        (GOLDEN / f"{name}.json").write_text(render_json(analyze(obj)), encoding="utf-8")
        print("wrote", name)

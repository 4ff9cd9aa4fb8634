"""Independent exact references for the benchmark's output checks.

Nothing here imports quadlie. Expected values come from the seeded
coefficient data alone, so a wrong result from the library cannot make its
own check pass. Coefficients are dicts {(i, j, k): Fraction} with
1 <= i < j < k <= n; algebras are the dual (T*) extension on 2n dimensions
with the hyperbolic form phi(e_a, e_{a+n}) = 1.
"""
from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


def alt_value(coeffs: dict, i: int, j: int, k: int) -> Fraction:
    """c(i, j, k) for any index order: permutation sign, 0 on repeats."""
    if i == j or j == k or i == k:
        return ZERO
    sign = 1
    if i > j:
        i, j, sign = j, i, -sign
    if j > k:
        j, k, sign = k, j, -sign
    if i > j:
        i, j, sign = j, i, -sign
    return sign * coeffs.get((i, j, k), ZERO)


def tstar_brackets(n: int, coeffs: dict) -> dict:
    """Nonzero brackets [e_i, e_j] = sum_k c(i,j,k) e_k*, keys i < j."""
    out = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            star = tuple(alt_value(coeffs, i, j, k) for k in range(1, n + 1))
            if any(star):
                out[(i, j)] = (ZERO,) * n + star
    return out


def hyperbolic(n: int) -> list[list[Fraction]]:
    dim = 2 * n
    return [[Fraction(1) if b == (a + n) % dim else ZERO for b in range(dim)]
            for a in range(dim)]


def is_hyperbolic(form) -> bool:
    n = len(form) // 2
    return [list(r) for r in form] == hyperbolic(n)


def rank(rows) -> int:
    """Rank over Q by plain Gaussian elimination."""
    work = [list(r) for r in rows if any(r)]
    r = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((t for t in range(r, len(work)) if work[t][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        p = work[r]
        for t in range(r + 1, len(work)):
            f = work[t][col]
            if f:
                f = f / p[col]
                work[t] = [a - f * b for a, b in zip(work[t], p)]
        r += 1
    return r


def derived_dim(n: int, coeffs: dict) -> int:
    """dim [A, A] of the T*-extension: rank of the pair-by-k value matrix."""
    return rank([[alt_value(coeffs, i, j, k) for k in range(1, n + 1)]
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def bracket_of(brackets: dict, i: int, j: int):
    """[e_i, e_j] from brackets stored on i < j; None when zero."""
    if i == j:
        return None
    if i < j:
        return brackets.get((i, j))
    v = brackets.get((j, i))
    return None if v is None else tuple(-c for c in v)


def invariance_defects(dim: int, brackets: dict, limit: int) -> list:
    """First `limit` ordered triples (i, j, k), in lexicographic order, with
    phi([e_i,e_j], e_k) + phi(e_j, [e_i,e_k]) != 0 for the hyperbolic form."""
    n = dim // 2
    partner = [(a + n) % dim for a in range(dim)]
    bad = []
    for i in range(1, dim + 1):
        rows = [bracket_of(brackets, i, j) for j in range(1, dim + 1)]
        for j in range(1, dim + 1):
            bij = rows[j - 1]
            for k in range(1, dim + 1):
                bik = rows[k - 1]
                t = (bij[partner[k - 1]] if bij else ZERO) + \
                    (bik[partner[j - 1]] if bik else ZERO)
                if t:
                    bad.append([i, j, k])
                    if len(bad) == limit:
                        return bad
    return bad


def is_isometry(n: int, brackets: dict, pairs: dict, iso) -> bool:
    """iso (columns = images of the basis) maps the T*-algebra with
    `brackets` onto the T*-extension of the abelian n-dim base by the
    cocycle `pairs` {(a, b): covector}, preserving the hyperbolic form."""
    dim = 2 * n
    partner = [(a + n) % dim for a in range(dim)]
    for i in range(dim):
        for j in range(dim):
            g = sum((iso[a][i] * iso[partner[a]][j] for a in range(dim)
                     if iso[a][i]), start=ZERO)
            if g != (1 if j == partner[i] else 0):
                return False
    cols = [[iso[r][c] for r in range(dim)] for c in range(dim)]
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            lhs = [ZERO] * dim
            b = brackets.get((i, j))
            if b:
                for s, c in enumerate(b):
                    if c:
                        col = cols[s]
                        for r in range(dim):
                            if col[r]:
                                lhs[r] += c * col[r]
            x, y = cols[i - 1], cols[j - 1]
            rhs = [ZERO] * dim
            for (a, bb), w in pairs.items():
                c = x[a - 1] * y[bb - 1] - x[bb - 1] * y[a - 1]
                if c:
                    for t, e in enumerate(w):
                        if e:
                            rhs[n + t] += c * e
            if lhs != rhs:
                return False
    return True


def is_skew_derivation(dim: int, brackets: dict, d) -> bool:
    """d is skew for the hyperbolic form and d[x,y] = [dx,y] + [x,dy] on
    every basis pair; d is a list of rows, column j the image of e_{j+1}."""
    n = dim // 2
    partner = [(a + n) % dim for a in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if d[partner[j]][i] + d[partner[i]][j]:
                return False
    cols = [[d[r][c] for r in range(dim)] for c in range(dim)]

    def bracket_vec(i, y):
        out = [ZERO] * dim
        for b, c in enumerate(y, start=1):
            if c:
                v = bracket_of(brackets, i, b)
                if v:
                    for r, e in enumerate(v):
                        if e:
                            out[r] += c * e
        return out

    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            b = bracket_of(brackets, i, j)
            lhs = [ZERO] * dim
            if b:
                for s, c in enumerate(b):
                    if c:
                        for r in range(dim):
                            if cols[s][r]:
                                lhs[r] += c * cols[s][r]
            r1 = bracket_vec(j, cols[i - 1])  # [e_j, d e_i]
            r2 = bracket_vec(i, cols[j - 1])  # [e_i, d e_j]
            if any(a - b + c for a, b, c in zip(lhs, r2, r1)):
                return False
    return True

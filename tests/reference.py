"""The dense reference implementations that the differential tests compare
the package against, each defined once.

Every function here computes a result of the package from its definition,
or as the package's code computed it before a sparse path replaced it:
dense vectors and matrices, loops over every basis pair or triple, no
shared index. Names say which:

- `_dense_*`: straight from the definition, over dense views;
- `_old_*`: a Mat operation as it was on dense rows, a sum of
  products as it was in Fractions, before `linalg._fsum`, and `_fsum`,
  `rref` and `_kernel_rows` as they were before the integer core
  `linalg._eliminate`; `_old_ad_index` is the ad index with a negated
  copy of each bracket, which the `_old_*` law readers read;
- `_loop_*`: a conversion as it was, reading c_ijk at every index triple,
  or a law check as it was, one basis pair at a time;
- `_ref_*`: a construction, law check or file reader as it was, with
  its own validation;
- `_pair_law_*`: a solver as it was, on the derivation law over every
  basis pair and component.

`basis_vec` and `_dense_direct_sum` stand in for `linalg.basis_vec` and
`LieAlgebra.direct_sum`, which the package no longer has, and
`_dense_contains_vec` for `Subspace.contains_vec`. The package's dense
accessors are gone too: `_dense_cols`, `_dense_matvec`,
`_dense_basis_brackets` and `_dense_values` read what `Mat.col`,
`Mat.matvec`, `LieAlgebra.bracket_basis` and `GeneralCocycle.values` and
`value_pair` returned off the two dense views the package keeps,
`Mat.data` and `LieAlgebra.brackets`, so that no reference shares a
dense path with the package.

This module is the oracle for the property tests and the mutant table
that ROADMAP.md plans (open items 4 and 6): a property test compares the
package with it on generated input, and a mutant of the package must make
some comparison with it fail. `tests/test_reference.py` keeps every such
helper here, and here once.
"""
import itertools
import json
from fractions import Fraction

from quadlie import (CocycleCoeffs, ExtensionChain, GeneralCocycle,
                     LieAlgebra, Mat, QuadlieError, QuadraticFamily,
                     QuadraticStructure, RoadsReport, SplitMix64, Subspace,
                     ValidationError, abelian, algebra_from_family,
                     build_chain, chain_dcoeffs, chain_to_algebra,
                     coeffs_to_family,
                     double_extend_1d, hyperbolic_form, inner_preimage,
                     inverse, is_isometry, is_lagrangian, kernel,
                     lagrangian_complement,
                     permute_quadratic, rank, rref, scalar, solve,
                     tstar_extend)
from quadlie.doubleext import _deriv_mat
from quadlie.errors import MAX_N
from quadlie.io import _dim_in, _expect, _expect_list, _int_in
from quadlie.linalg import ONE, hstack, opposite, vstack
from quadlie.trivector import _gl_inverse

ZERO = Fraction(0)


def basis_vec(n, k):
    """e_k in Q^n for a 1-based label k: basis_vec(3, 2) = (0, 1, 0)."""
    if not 1 <= k <= n:
        raise ValueError(f"basis label {k} out of range 1..{n}")
    return tuple(Fraction(int(t == k - 1)) for t in range(n))


def _dense_cols(m):
    """The columns of m as tuples, read off its dense rows."""
    d = m.data
    return [tuple(r[j] for r in d) for j in range(m.cols)]


def _dense_matvec(rows, x):
    """The dense rows times the column x."""
    return tuple(sum((a * b for a, b in zip(r, x) if a and b), ZERO)
                 for r in rows)


def _dense_basis_brackets(alg):
    """(i, j) -> [e_i, e_j] on 1-based labels, read off one copy of the
    dense view `brackets`, with [e_j, e_i] = -[e_i, e_j]."""
    br, n = alg.brackets, alg.dim
    zero = (ZERO,) * n

    def bb(i, j):
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"basis label out of range: ({i},{j})")
        if i > j:
            return tuple(-c for c in bb(j, i))
        return br.get((i, j), zero)
    return bb


def _dense_values(w):
    """w(e_i, e_j) as an n-length tuple per stored pair: the dense view of
    w's terms read as the brackets of an algebra."""
    return LieAlgebra._of(w.base.dim, w.terms).brackets


def _dense_value_pairs(w):
    """(i, j) -> w(e_i, e_j) on 1-based labels, signed like a bracket."""
    return _dense_basis_brackets(LieAlgebra._of(w.base.dim, w.terms))


# ---- linalg ----

def _dense_rref(m):
    """The dense elimination that rref replaced, as it was: for each column,
    the first remaining row with a nonzero entry is swapped up as the pivot
    row, and the column is cleared from every other row."""
    rows = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    pivots = []
    pr = 0
    for col in range(nc):
        sel = None
        for r in range(pr, nr):
            if rows[r][col]:
                sel = r
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        prow = rows[pr]
        inv = Fraction(1) / prow[col]
        if inv != 1:
            for j in range(col, nc):
                if prow[j]:
                    prow[j] *= inv
        for r in range(nr):
            if r == pr:
                continue
            f = rows[r][col]
            if f:
                rr = rows[r]
                for j in range(col, nc):
                    if prow[j]:
                        rr[j] -= f * prow[j]
        pivots.append(col)
        pr += 1
        if pr == nr:
            break
    return Mat.from_rows(rows, nc), tuple(pivots)


def _old_rref(m):
    """rref as it was before the integer core: every row is scaled to
    integers by the lcm of its denominators, each new pivot row scans
    every pivot row found so far for its column, and each pivot row is
    divided by its pivot, a pivot of 1 included; with its own copies of
    the clearing and gcd steps."""
    from math import gcd, lcm

    def clear(row, col, prow):
        a, f = prow[col], row[col]
        g = gcd(a, f)
        a, f = a // g, f // g
        if a != 1:
            for j in row:
                row[j] *= a
        for j, e in prow.items():
            x = row.get(j, 0) - f * e
            if x:
                row[j] = x
            else:
                del row[j]

    def primitive(row):
        g = gcd(*row.values())
        return row if g == 1 else {j: e // g for j, e in row.items()}

    occupied = len(set().union(*m.sparse_rows))
    piv = {}
    for r in m.sparse_rows:
        den = lcm(*[e.denominator for e in r.values()])
        row = {j: e.numerator * (den // e.denominator) for j, e in r.items()}
        for p in [p for p in row if p in piv]:
            clear(row, p, piv[p])
        if not row:
            continue
        row = primitive(row)
        col = min(row)
        for p, prow in piv.items():
            if col in prow:
                clear(prow, col, row)
                piv[p] = primitive(prow)
        piv[col] = row
        if len(piv) == occupied:
            break
    pivots = tuple(sorted(piv))
    sparse = [{j: ONE if j == p else Fraction(e, piv[p][p])
               for j, e in sorted(piv[p].items())} for p in pivots]
    sparse += [{}] * (m.rows - len(pivots))
    return Mat._of(sparse, m.cols), pivots


def _old_kernel_rows(m):
    """linalg._kernel_rows as it was, in Fractions read off _old_rref:
    x_f = 1, x_p = -R[p][f] at each pivot p, one row per free column f."""
    R, pivots = _old_rref(m)
    pivset = set(pivots)
    gens = {f: {f: ONE} for f in range(m.cols) if f not in pivset}
    for p, row in zip(pivots, R.sparse_rows):
        for f, e in row.items():
            if f != p:
                gens[f][p] = -e
    return [dict(sorted(v.items())) for v in gens.values()]


def _old_kernel(m):
    """linalg.kernel as it was: the span of _old_kernel_rows, put into
    RREF by _old_rref."""
    R, pivots = _old_rref(Mat._of(_old_kernel_rows(m), m.cols))
    return Subspace(m.cols, Mat._of(R.sparse_rows[:len(pivots)], m.cols))


def _old_sparse_solve(m, rhs):
    """linalg.solve as it was: column cols of _old_rref of [m | rhs]."""
    if m.rows != len(rhs):
        raise ValueError("length mismatch")
    aug = [{**r, m.cols: b} if b else r
           for r, b in zip(m.sparse_rows, map(scalar, rhs))]
    R, pivots = _old_rref(Mat._of(aug, m.cols + 1))
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for p, row in zip(pivots, R.sparse_rows):
        x[p] = row.get(m.cols, ZERO)
    return tuple(x)


def _old_sparse_inverse(m):
    """linalg.inverse as it was: the right half of _old_rref of [m | I]."""
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    R, pivots = _old_rref(_old_hstack(m, Mat.identity(n)))
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("singular matrix")
    return Mat._of(({j - n: e for j, e in r.items() if j >= n}
                    for r in R.sparse_rows), n)


def _dense(rows, cols):
    return Mat.from_rows([list(r) for r in rows], cols)


def _old_transpose(m):
    return _dense(zip(*m.data) if m.rows else ((),) * m.cols, m.rows)


def _old_same_shape(a, b):
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch")


def _old_add(a, b):
    _old_same_shape(a, b)
    return _dense(([x + y for x, y in zip(r1, r2)]
                   for r1, r2 in zip(a.data, b.data)), a.cols)


def _old_sub(a, b):
    _old_same_shape(a, b)
    return _dense(([x - y for x, y in zip(r1, r2)]
                   for r1, r2 in zip(a.data, b.data)), a.cols)


def _old_neg(a):
    return _dense(([-x for x in r] for r in a.data), a.cols)


def _old_scale(a, c):
    c = scalar(c)
    return _dense(([c * x for x in r] for r in a.data), a.cols)


def _old_mul(a, b):
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} * "
                         f"{b.rows}x{b.cols}")
    bd = b.data
    return _dense(([sum((r[j] * bd[j][k] for j in range(a.cols)),
                        start=Fraction(0)) for k in range(b.cols)]
                   for r in a.data), b.cols)


def _old_is_symmetric(m):
    if m.rows != m.cols:
        return False
    d = m.data
    return all(d[i][j] == d[j][i]
               for i in range(m.rows) for j in range(i + 1, m.cols))


def _old_is_skew(m):
    if m.rows != m.cols:
        return False
    d = m.data
    if any(d[i][i] for i in range(m.rows)):
        return False
    return all(d[i][j] == -d[j][i]
               for i in range(m.rows) for j in range(i + 1, m.cols))


def _old_hstack(a, b):
    if a.rows != b.rows:
        raise ValueError("row mismatch")
    return _dense((ra + rb for ra, rb in zip(a.data, b.data)),
                  a.cols + b.cols)


def _old_vstack(a, b):
    if a.cols != b.cols:
        raise ValueError("col mismatch")
    return Mat.from_rows(list(a.data) + list(b.data), cols=a.cols)


def _old_inverse(m):
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    R, pivots = rref(_old_hstack(m, Mat.identity(n)))
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("singular matrix")
    return _dense((r[n:] for r in R.data), n)


def _dense_solve(m, rhs):
    """One solution of m x = rhs from the dense RREF of [m | rhs], free
    variables 0, or None when rhs is outside the column space."""
    aug = Mat.from_rows([list(r) + [scalar(b)] for r, b in zip(m.data, rhs)],
                        m.cols + 1)
    R, pivots = _dense_rref(aug)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for k, p in enumerate(pivots):
        x[p] = R.data[k][m.cols]
    return tuple(x)


def _dense_intersect(u, v):
    """U intersect V by Zassenhaus on dense rows, [u|u] and [v|0], reduced
    by the dense RREF: the right halves of the rows whose pivot is there."""
    n = u.ambient_dim
    rows = ([list(r) * 2 for r in u.basis.data]
            + [list(r) + [ZERO] * n for r in v.basis.data])
    R, pivots = _dense_rref(Mat.from_rows(rows, 2 * n))
    return Subspace.from_rows(n, [R.data[k][n:] for k, p in enumerate(pivots)
                                  if p >= n])


def _dense_inverse(m):
    """m^-1 read off the dense RREF of [m | I]; ValueError when singular."""
    n = m.rows
    R, pivots = _dense_rref(_old_hstack(m, Mat.identity(n)))
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("singular matrix")
    return _dense((r[n:] for r in R.data), n)


def _dense_contains_vec(s, v):
    """Whether v lies in s: v reduced by s's RREF basis rows is zero."""
    v = [scalar(e) for e in v]
    for row in s.basis.data:
        p = next(k for k, e in enumerate(row) if e)
        f = v[p]
        if f:
            for j, e in enumerate(row):
                v[j] -= f * e
    return not any(v)


# ---- algebra ----

def _dense_bracket(alg, x, y):
    """(x_i y_j - x_j y_i) [e_i, e_j] summed over every stored pair."""
    x = [scalar(e) for e in x]
    y = [scalar(e) for e in y]
    out = [ZERO] * alg.dim
    for (i, j), w in alg.brackets.items():
        c = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if c:
            for r, e in enumerate(w):
                out[r] += c * e
    return tuple(out)


def _dense_ad_vec(alg, i, y, bb=None):
    """[e_i, y] as the sum of y_b [e_i, e_b] over every b with y_b != 0;
    bb is _dense_basis_brackets(alg), made here when not given."""
    bb = bb or _dense_basis_brackets(alg)
    out = [ZERO] * alg.dim
    for b, c in enumerate(y, start=1):
        if c:
            for r, e in enumerate(bb(i, b)):
                if e:
                    out[r] += c * e
    return tuple(out)


def _dense_jacobi_defect(alg):
    """The cyclic sum over every basis triple i<j<k."""
    bb = _dense_basis_brackets(alg)
    bad = []
    for i, j, k in itertools.combinations(range(1, alg.dim + 1), 3):
        t1 = _dense_ad_vec(alg, i, bb(j, k), bb)
        t2 = _dense_ad_vec(alg, j, bb(k, i), bb)
        t3 = _dense_ad_vec(alg, k, bb(i, j), bb)
        tot = tuple(a + b + c for a, b, c in zip(t1, t2, t3))
        if any(tot):
            bad.append((i, j, k, tot))
    return bad


def _dense_centre(alg):
    """Kernel of the rows (s, r) -> {i: [e_i, e_s]_r} over every s and r."""
    n = alg.dim
    bb = _dense_basis_brackets(alg)
    rows = []
    for s in range(1, n + 1):
        cols = [bb(i, s) for i in range(1, n + 1)]
        for r in range(n):
            row = [cols[i][r] for i in range(n)]
            if any(row):
                rows.append(row)
    return kernel(Mat(rows)) if rows else Subspace.full(n)


def _ref_centre_rows(alg):
    """The nonzero rows of the centre's system as LieAlgebra._centre_rows
    built them before the centre read the ad index: row (s, r) holds
    [e_i, e_s]_r over i, {column: entry} with columns ascending.

    Only the stored brackets fill it: entry i of row (j, r) or (i, r)
    comes from the stored (i, j) alone.
    """
    rows = {}
    for (i, j), v in alg.terms.items():
        for r, c in v:
            # [e_i, e_j]_r = c and [e_j, e_i]_r = -c
            rows.setdefault((j, r), {})[i - 1] = c
            rows.setdefault((i, r), {})[j - 1] = -c
    return {key: dict(sorted(row.items())) for key, row in rows.items()}


def _ref_centre_by_rows(alg):
    """centre() as it was: the kernel of _ref_centre_rows."""
    rows = _ref_centre_rows(alg)
    return (kernel(Mat._of(rows.values(), alg.dim)) if rows
            else Subspace.full(alg.dim))


def _dense_lower_central_series(alg):
    """A^1 = the full space, then A^{t+1} = [e_i, A^t] over every i."""
    bb = _dense_basis_brackets(alg)
    cur = Subspace.full(alg.dim)
    series = [cur]
    while True:
        rows = [_dense_ad_vec(alg, i, v, bb) for i in range(1, alg.dim + 1)
                for v in cur.basis.data]
        nxt = Subspace.from_rows(alg.dim, rows)
        series.append(nxt)
        if nxt.dim == cur.dim or nxt.dim == 0:
            return series
        cur = nxt


def _dense_upper_central_series(alg):
    """Z_1 = the centre, then Z_{t+1} = {x : [x, e_s] in Z_t for every s}."""
    n = alg.dim
    bb = _dense_basis_brackets(alg)
    series = [_dense_centre(alg)]
    while series[-1].dim < n:
        zt = series[-1]
        ann = (kernel(zt.basis).basis.data if zt.dim else
               Mat.identity(n).data)
        rows = []
        for s in range(1, n + 1):
            cols = [bb(i, s) for i in range(1, n + 1)]
            for a in ann:
                row = [sum((e * c for e, c in zip(a, cols[i]) if e and c),
                           Fraction(0)) for i in range(n)]
                if any(row):
                    rows.append(row)
        nxt = kernel(Mat(rows)) if rows else Subspace.full(n)
        if nxt.dim == zt.dim:
            break
        series.append(nxt)
    return series


def _dense_permute_basis(alg, perm):
    """f_r = e_{perm[r-1]}: [f_a, f_b] read from the dense basis bracket
    [e_{perm[a-1]}, e_{perm[b-1]}], one key per stored bracket, in the
    stored order."""
    inv = {old: new for new, old in enumerate(perm, start=1)}
    bb = _dense_basis_brackets(alg)
    out = {}
    for i, j in alg.terms:
        a, b = sorted((inv[i], inv[j]))
        v = [ZERO] * alg.dim
        for u, c in enumerate(bb(perm[a - 1], perm[b - 1]), start=1):
            if c:
                v[inv[u] - 1] = c
        out[(a, b)] = v
    return LieAlgebra(alg.dim, out)


def _dense_direct_sum(a, b):
    """a + b on the labels of a, then those of b moved past them."""
    n, m = a.dim, b.dim
    out = {}
    for (i, j), v in a.brackets.items():
        out[(i, j)] = list(v) + [ZERO] * m
    for (i, j), v in b.brackets.items():
        out[(i + n, j + n)] = [ZERO] * n + list(v)
    return LieAlgebra(n + m, out)


# ---- forms ----

def _dense_invariance_defect(alg, form):
    """phi([ei,ej],ek) + phi(ej,[ei,ek]) over every ordered basis triple,
    straight from the definition."""
    n = alg.dim
    bb = _dense_basis_brackets(alg)
    br = [[bb(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    f = form.data
    ft = tuple(zip(*f))
    # phi([ei,ej], .) and phi(., [ei,ek])
    left = [[_dense_matvec(ft, v) for v in row] for row in br]
    right = [[_dense_matvec(f, v) for v in row] for row in br]
    return [(i + 1, j + 1, k + 1)
            for i in range(n) for j in range(n) for k in range(n)
            if left[i][j][k] + right[i][k][j]]


def _ref_greedy_isotropic(q):
    """find_lagrangian_ideal's search on an abelian algebra as it was: each
    candidate e_s, then e_s + e_t and e_s - e_t for s < t, made dense and
    kept when phi vanishes on it and on every vector kept so far and it
    grows the span; the span, or None short of half the dimension."""
    dim, f = q.dim, q.form.data
    n = dim // 2

    def phi(x, y):
        return sum(a * b for a, b in zip(x, _dense_matvec(f, y)))
    cands = [basis_vec(dim, s) for s in range(1, dim + 1)]
    cands += [tuple(a + sg * b for a, b in zip(basis_vec(dim, s),
                                                 basis_vec(dim, t)))
              for s in range(1, dim + 1) for t in range(s + 1, dim + 1)
              for sg in (1, -1)]
    cur = Subspace.zero(dim)
    picked = []
    for v in cands:
        if cur.dim == n:
            break
        if phi(v, v) or any(phi(v, u) for u in picked):
            continue
        grown = cur.sum(Subspace.from_rows(dim, [v]))
        if grown.dim > cur.dim:
            picked.append(v)
            cur = grown
    return cur if cur.dim == n else None


def _dense_is_isometry(q1, q2, m):
    if m.rows != q2.dim or m.cols != q1.dim or q1.dim != q2.dim:
        return False, "shape mismatch"
    if rank(m) != q1.dim:
        return False, "not invertible"
    if m.transpose() * q2.form * m != q1.form:
        return False, "form not preserved"
    cols = _dense_cols(m)
    d = m.data
    bb = _dense_basis_brackets(q1.alg)
    for i in range(1, q1.dim + 1):
        for j in range(i + 1, q1.dim + 1):
            lhs = _dense_matvec(d, bb(i, j))
            rhs = _dense_bracket(q2.alg, cols[i - 1], cols[j - 1])
            if lhs != rhs:
                return False, f"bracket not preserved at ({i},{j})"
    return True, "ok"


def _ref_greedy_picks(q, s):
    """The transversal as lagrangian_complement grew it: standard basis
    vectors, lowest index first, one Subspace.sum per vector tried."""
    cur = s
    picks = []
    for t in range(q.dim):
        if cur.dim == 2 * s.dim:
            break
        grown = cur.sum(Subspace._of(q.dim, [{t: Fraction(1)}]))
        if grown.dim > cur.dim:
            picks.append(t)
            cur = grown
    return picks


def _ref_greedy_lagrangian_complement(q, s):
    """lagrangian_complement as it was, on the greedy transversal."""
    if not is_lagrangian(q, s):
        raise ValidationError("subspace is not lagrangian", law="lagrangian")
    if s.dim == 0:
        return Subspace.zero(q.dim)
    T = Mat._of([{t: Fraction(1)} for t in _ref_greedy_picks(q, s)], q.dim)
    S = s.basis
    P = T * q.form * S.transpose()
    G = T * q.form * T.transpose()
    X = (G * inverse(P).transpose()).scale(Fraction(-1, 2))
    return Subspace._of(q.dim, (T + X * S).sparse_rows)


# ---- trivectors and alternating coefficients ----

def _ref_touched_pairs(c):
    pairs = set()
    for (i, j, k), _ in c.terms:
        pairs.update(((i, j), (i, k), (j, k)))
    return sorted(pairs)


def _loop_pair_terms(c):
    """AltCoeffs.pair_terms from its definition: c.value at every (i, j, k),
    pairs i < j in order, k ascending, zero values and pairs left out."""
    out = {}
    for i in range(1, c.n + 1):
        for j in range(i + 1, c.n + 1):
            nz = tuple((k - 1, v) for k in range(1, c.n + 1)
                       if (v := c.value(i, j, k)))
            if nz:
                out[(i, j)] = nz
    return out


def _dense_kernel(t):
    """trivector_kernel as it was: the dense AltCoeffs.pair_rows matrix,
    a row of t_ijk over i per touched pair (j, k)."""
    rows = [[t.value(i, j, k) for i in range(1, t.n + 1)]
            for (j, k) in _ref_touched_pairs(t)]
    return kernel(Mat.from_rows(rows, cols=t.n))


def _dense_contraction(t, x):
    """contract as it was: each term adds to six dense entries."""
    m = [[0] * t.n for _ in range(t.n)]
    for (i, j, k), c in t.terms:
        xi, xj, xk = x[i - 1], x[j - 1], x[k - 1]
        m[j - 1][k - 1] += xi * c
        m[k - 1][j - 1] -= xi * c
        m[i - 1][k - 1] -= xj * c
        m[k - 1][i - 1] += xj * c
        m[i - 1][j - 1] += xk * c
        m[j - 1][i - 1] -= xk * c
    return Mat(m)


# ---- the GL action: the evaluators as they were before one sparse
# pullback served them, a determinant per term over dense vectors and a
# loop over every basis triple ----

def _dense_call(t, x, y, z):
    """t(x, y, z) as AltCoeffs.__call__ was: a 3x3 determinant of the
    dense vectors per stored term."""
    if not (len(x) == len(y) == len(z) == t.n):
        raise ValueError("vector length != n")
    tot = ZERO
    for (i, j, k), c in t.terms:
        a, b, d = i - 1, j - 1, k - 1
        det = (x[a] * (y[b] * z[d] - y[d] * z[b])
               - x[b] * (y[a] * z[d] - y[d] * z[a])
               + x[d] * (y[a] * z[b] - y[b] * z[a]))
        if det:
            tot += c * det
    return tot


def _dense_gl_act(sigma, t):
    """gl_act as it was: t at the dense columns of sigma^-1, at every
    basis triple i < j < k."""
    cols = _dense_cols(_gl_inverse(sigma, t.n))
    vals = {}
    for i, j, k in itertools.combinations(range(1, t.n + 1), 3):
        v = _dense_call(t, cols[i - 1], cols[j - 1], cols[k - 1])
        if v:
            vals[(i, j, k)] = v
    return CocycleCoeffs(t.n, vals)


def _dense_isometry_from_gl(sigma, t1, t2):
    """isometry_from_gl as it was: t1 against t2 at sigma's dense columns,
    basis triple by basis triple, the first that differs reported."""
    n = t1.n
    if t2.n != n:
        raise ValidationError("trivectors live in different dimensions",
                              law="shape")
    inv = _gl_inverse(sigma, n)
    cols = _dense_cols(sigma)
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        if t1.value(i, j, k) != _dense_call(t2, cols[i - 1], cols[j - 1],
                                            cols[k - 1]):
            raise ValidationError(
                f"trivectors disagree under the action at {(i, j, k)}",
                law="compatible", witness=(i, j, k))
    zero = Mat.zero(n, n)
    out = vstack(hstack(sigma, zero), hstack(zero, inv.transpose()))
    if n >= 3 and not t1.is_zero() and not t2.is_zero():
        ok, why = is_isometry(tstar_extend(t1), tstar_extend(t2), out)
        if not ok:
            raise ValidationError(f"constructed map is not an isometry: "
                                  f"{why}", law="isometry")
    return out


# ---- T*-extensions: the two paths each function had before one sparse
# builder served every cocycle, a branch for coefficient input and dense
# loops over basis pairs and triples for a GeneralCocycle ----

def _ref_from_coeffs(c):
    vals = {}
    for (i, j, k), cv in c.terms:
        for pair, pos, sign in (((i, j), k, 1), ((i, k), j, -1),
                                ((j, k), i, 1)):
            row = vals.setdefault(pair, [Fraction(0)] * c.n)
            row[pos - 1] += cv if sign > 0 else -cv
    return GeneralCocycle(abelian(c.n), vals)


def _ref_cyclic_defect(w):
    if not isinstance(w, GeneralCocycle):
        return []
    n = w.base.dim
    wp = _dense_value_pairs(w)
    return [(i, j, k) for i in range(1, n + 1) for j in range(1, n + 1)
            for k in range(1, n + 1)
            if wp(i, j)[k - 1] != wp(k, i)[j - 1]]


def _ref_cocycle_defect(w):
    if not isinstance(w, GeneralCocycle):
        return []
    base = w.base
    if not base.is_lie():
        raise ValidationError("base is not a Lie algebra", law="jacobi")
    n = base.dim
    bb = _dense_basis_brackets(base)
    wp = _dense_value_pairs(w)
    bad = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                lhs = [Fraction(0)] * n
                rhs = [Fraction(0)] * n
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    # w([e_a, e_b], e_c) by linearity in the first slot
                    wl = [Fraction(0)] * n
                    for u, x in enumerate(bb(a, b), start=1):
                        for v, e in enumerate(wp(u, c)):
                            wl[v] += x * e
                    wbc = wp(b, c)
                    for t in range(n):
                        lhs[t] += wl[t]
                        br = bb(a, t + 1)
                        rhs[t] -= sum(wbc[s] * br[s] for s in range(n))
                if lhs != rhs:
                    bad.append((i, j, k))
    return bad


def _ref_tstar(w):
    if not isinstance(w, GeneralCocycle):
        n = w.n
        brackets = {(i, j): (0,) * n + tuple(w.value(i, j, k)
                                             for k in range(1, n + 1))
                    for (i, j) in _ref_touched_pairs(w)}
        return QuadraticStructure(LieAlgebra(2 * n, brackets),
                                  hyperbolic_form(n))
    bad = _ref_cyclic_defect(w)
    if bad:
        raise ValidationError(f"cocycle is not cyclic at triple {bad[0]}",
                              law="cyclic", witness=bad[0])
    bad = _ref_cocycle_defect(w)
    if bad:
        raise ValidationError(f"2-cocycle identity fails at triple {bad[0]}",
                              law="cocycle", witness=bad[0])
    n = w.base.dim
    bb = _dense_basis_brackets(w.base)
    wp = _dense_value_pairs(w)
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            brackets[(i, j)] = bb(i, j) + wp(i, j)
        for k in range(1, n + 1):
            star = [-bb(i, ell)[k - 1] for ell in range(1, n + 1)]
            brackets[(i, n + k)] = (0,) * n + tuple(star)
    return QuadraticStructure(LieAlgebra(2 * n, brackets), hyperbolic_form(n))


def _ref_radical(w):
    if not isinstance(w, GeneralCocycle):
        return _dense_kernel(w)
    n = w.base.dim
    wp = _dense_value_pairs(w)
    rows = [[wp(i, j)[k] for i in range(1, n + 1)]
            for j in range(1, n + 1) for k in range(n)]
    return kernel(Mat.from_rows([r for r in rows if any(r)], cols=n))


def _ref_value_span(w):
    if not isinstance(w, GeneralCocycle):
        n = w.n
        return Subspace.from_rows(n, [[w.value(i, j, k)
                                       for k in range(1, n + 1)]
                                      for (i, j) in _ref_touched_pairs(w)])
    return Subspace.from_rows(w.base.dim, list(_dense_values(w).values()))


def _dense_tstar_algebra(w, aq=None, phi=()):
    """The T*-builder's algebra, each bracket padded into a dense vector
    for the validating constructor."""
    m = w.base.dim
    star = m + (aq.dim if aq is not None else 0)
    brackets = {}

    def row(i, j):
        return brackets.setdefault((i, j), [ZERO] * (star + m))
    for (i, j), v in w.base.terms.items():
        base = row(i, j)
        for k, c in v:
            base[k] = c
            row(i, star + k + 1)[star + j - 1] = -c
            row(j, star + k + 1)[star + i - 1] = c
    for pair, v in _dense_values(w).items():
        row(*pair)[star:] = v
    if aq is not None:
        for (i, j), v in aq.alg.terms.items():
            a = row(m + i, m + j)
            for r, c in v:
                a[m + r] = c
        form = aq.form.sparse_rows
        for k, mat in enumerate(phi, start=1):
            beta = {}
            for r, mrow in enumerate(mat.sparse_rows):
                for s, c in mrow.items():
                    row(k, m + s + 1)[m + r] = c
                    for j, f in form[r].items():
                        if s < j:
                            beta[(s, j)] = beta.get((s, j), ZERO) + c * f
            for (s, j), x in beta.items():
                if x:
                    row(m + s + 1, m + j + 1)[star + k - 1] = x
    return LieAlgebra(star + m, brackets)


def _dense_decomposed_base(q, ideal):
    """The base of decompose_as_tstar, read from dense brackets."""
    n = q.dim // 2
    L = lagrangian_complement(q, ideal)
    lrows = L.basis.data
    coords = inverse(vstack(L.basis, ideal.basis).transpose())
    iso = Mat._of(coords.sparse_rows[:n] + (L.basis * q.form).sparse_rows,
                  q.dim)
    d = iso.data
    brackets, wvals = {}, {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            v = _dense_matvec(d, _dense_bracket(q.alg, lrows[a - 1],
                                                lrows[b - 1]))
            if any(v[:n]):
                brackets[(a, b)] = v[:n]
            if any(v[n:]):
                wvals[(a, b)] = v[n:]
    B = LieAlgebra(n, brackets)
    return B, GeneralCocycle(B, wvals), iso


# ---- families and chains ----

def _loop_coeffs_to_family(c):
    """coeffs_to_family as it was: c.value at every (i, j, k)."""
    n = c.n
    mats = []
    for i in range(1, n + 1):
        m = [{} for _ in range(n)]
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                v = c.value(i, j, k)
                if v:
                    m[k - 1][j - 1] = v
        mats.append(Mat._of(m, n))
    return QuadraticFamily(n, tuple(mats))


def _ref_coeffs_to_family(c):
    """coeffs_to_family as it was, over the pair terms: slot k of pair
    (a, b) holds c_abk, which M_a has at (k, b) and M_b, negated, at
    (k, a), so every pair-term entry is negated once."""
    n = c.n
    mats = [[{} for _ in range(n)] for _ in range(n)]
    for (a, b), nz in c.pair_terms().items():
        ma, mb = mats[a - 1], mats[b - 1]
        for k, v in nz:
            ma[k][b - 1] = v
            mb[k][a - 1] = -v
    return QuadraticFamily(n, tuple(Mat._of(m, n) for m in mats))


def _loop_family_defects(fam):
    """validate_family's problems as they were, on the dense entry and
    column views."""
    out = []
    cols = [_dense_cols(m) for m in fam.mats]
    for i, m in enumerate(fam.mats, start=1):
        if not _old_is_skew(m):
            out.append(f"M_{i} is not skew")
        if any(cols[i - 1][i - 1]):
            out.append(f"column {i} of M_{i} is nonzero")
    for i in range(1, fam.n + 1):
        for j in range(i + 1, fam.n + 1):
            ci = cols[i - 1][j - 1]
            cj = cols[j - 1][i - 1]
            if any(a + b for a, b in zip(ci, cj)):
                out.append(f"column {j} of M_{i} is not minus "
                           f"column {i} of M_{j}")
    return out


def _ref_family_defects_by_rows(fam):
    """validate_family's problems as they were before the skew law compared
    each pair once: every row of M_i against the same row of its
    transpose, so each off-diagonal pair is compared from both of its
    rows."""
    def negated(a, b):
        return len(a) == len(b) and all(opposite(a.get(k), e)
                                        for k, e in b.items())
    out = []
    cols = []
    for i, m in enumerate(fam.mats, start=1):
        t = m.transpose().sparse_rows
        cols.append(t)
        if not all(map(negated, m.sparse_rows, t)):
            out.append(f"M_{i} is not skew")
        if t[i - 1]:
            out.append(f"column {i} of M_{i} is nonzero")
    for i in range(1, fam.n + 1):
        for j in range(i + 1, fam.n + 1):
            if not negated(cols[i - 1][j - 1], cols[j - 1][i - 1]):
                out.append(f"column {j} of M_{i} is not minus "
                           f"column {i} of M_{j}")
    return out


def _loop_read_coeffs(fam):
    """family_to_coeffs as it was after its family check: c_ijk read at
    every i < j < k, then every (i, j, k) checked, the first mismatch
    raised."""
    n = fam.n
    vals = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                v = fam.value(i, j, k)
                if v:
                    vals[(i, j, k)] = v
    c = CocycleCoeffs(n, vals)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if fam.value(i, j, k) != c.value(i, j, k):
                    raise ValidationError(
                        f"entry ({k},{j}) of matrix {i} breaks the "
                        f"alternating symmetry", law="alternating",
                        witness=(i, j, k))
    return c


def _dense_family_algebra(fam):
    n = fam.n
    cols = [_dense_cols(m) for m in fam.mats]
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            star = cols[i - 1][j - 1]
            if any(star):
                brackets[(i, j)] = (ZERO,) * n + tuple(star)
    return LieAlgebra(2 * n, brackets)


def _dense_chain_algebra(ch):
    n = ch.n
    dco = chain_dcoeffs(ch)
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            star = [dco.value(i, j, k) for k in range(1, n + 1)]
            if any(star):
                brackets[(i, j)] = (ZERO,) * n + tuple(star)
    return LieAlgebra(2 * n, brackets)


def _loop_build_chain(c):
    """build_chain as it was: c.value at every (k+1, j, l), j, l <= k."""
    derivs = []
    for k in range(c.n):
        m = [{} for _ in range(2 * k)]
        for j in range(1, k + 1):
            for ell in range(1, k + 1):
                v = c.value(k + 1, j, ell)
                if v:
                    m[k + ell - 1][j - 1] = v
        derivs.append(Mat._of(m, 2 * k))
    return ExtensionChain(c.n, tuple(derivs))


def _ref_all_roads(c):
    """all_roads as it was: the chain route builds its own T*-extension
    from the coefficients it carries, and both its structure constants
    and its form are compared with the T*-route's."""
    if c.n < 3:
        raise ValidationError("need dimension at least 3", law="dimension")
    if c.is_zero():
        raise ValidationError("zero coefficients give an abelian algebra",
                              law="nonzero")
    routes = {
        "tstar": tstar_extend(c),
        "chain": chain_to_algebra(build_chain(c)),
        "family": algebra_from_family(coeffs_to_family(c)),
    }
    base = routes["tstar"]
    mism = []
    for name, q in routes.items():
        if q.alg != base.alg:
            mism.append(f"{name} structure constants differ from tstar")
        if q.form != base.form:
            mism.append(f"{name} form differs from tstar")
    return RoadsReport(c.n, not mism, tuple(mism), base)


def _ref_validate_chain(ch):
    """validate_chain as it was: the two-step property, then each link in
    turn checked as a skew derivation of the chain folded so far, up to
    the first link that fails. The problems come as (link, law, witness),
    with link None for the two-step property."""
    problems = []
    if not ch.two_sp:
        problems.append((None, "2sp", None))
    cur = None
    for k, d in enumerate(ch.derivs):
        try:
            _ref_deriv_mat(cur, d)
        except ValidationError as e:
            problems.append((k, e.law, e.witness))
            break
        # the fresh generator b comes first; move it past the old basis
        relabel = list(range(2, k + 2)) + [1] + list(range(k + 2, 2 * k + 3))
        cur = permute_quadratic(double_extend_1d(cur, d), relabel)
    return problems


# ---- double extensions ----

def _dense_skew_defect(form, d):
    """The nonzero entries of d^T F + F d, summed over the dense views."""
    f, m, n = form.data, d.data, form.rows
    return [(i + 1, j + 1) for i in range(n) for j in range(n)
            if sum(m[r][i] * f[r][j] + f[i][r] * m[r][j] for r in range(n))]


def _ref_derivation_defect(alg, d):
    """The dense pair loop that derivation_defect replaced."""
    n = alg.dim
    cols = _dense_cols(d)
    dd = d.data
    bb = _dense_basis_brackets(alg)
    bad = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lhs = _dense_matvec(dd, bb(i, j))
            rhs1 = alg.bracket(basis_vec(n, j), cols[i - 1])  # [e_j, d e_i]
            rhs2 = alg.bracket(basis_vec(n, i), cols[j - 1])  # [e_i, d e_j]
            if any(l + r1 - r2 for l, r1, r2 in zip(lhs, rhs1, rhs2)):
                bad.append((i, j))
    return bad


def _ref_derivation_space(aq):
    """The dense n^2-column system that derivation_space replaced."""
    n = aq.dim
    nn = n * n
    rows = []
    f = aq.form.data
    bb = _dense_basis_brackets(aq.alg)
    for i in range(n):
        for j in range(n):
            row = [0] * nn
            for r in range(n):
                if f[r][j]:
                    row[r * n + i] += f[r][j]
            for c in range(n):
                if f[i][c]:
                    row[c * n + j] += f[i][c]
            rows.append(row)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            br = bb(i, j)
            for t in range(n):
                row = [0] * nn
                for s in range(n):
                    if br[s]:
                        row[t * n + s] += br[s]
                for s in range(1, n + 1):
                    c1 = bb(s, j)[t]
                    if c1:
                        row[(s - 1) * n + (i - 1)] -= c1
                    c2 = bb(i, s)[t]
                    if c2:
                        row[(s - 1) * n + (j - 1)] -= c2
                rows.append(row)
    return kernel(Mat.from_rows(rows, cols=nn))


def _pair_law_derivation_space(aq):
    """derivation_space as it was before it solved the closed-2-form law:
    d = G S for alternating S and G = F^-1, with the derivation law solved
    on the n(n-1)/2 unknowns s_ab, one row per nonzero key (i, j, t) of
    its map (read on _old_derivation_map, zero sums dropped), and the
    kernel put into RREF before it is mapped back."""
    n = aq.dim
    g = inverse(aq.form).sparse_rows  # G is symmetric: row a is column a
    law = _old_derivation_map(aq.alg)
    gens = []  # row k: the k-th D_ab, vectorized
    rows = {}
    for a in range(n):
        for b in range(a + 1, n):
            ents = ([(r, b, c) for r, c in g[a].items()]
                    + [(r, a, -c) for r, c in g[b].items()])
            for key, x in law(ents).items():
                if x:
                    rows.setdefault(key, {})[len(gens)] = x
            gens.append(dict(sorted((r * n + s, c) for r, s, c in ents)))
    sol = kernel(Mat._of([rows[k] for k in sorted(rows)], len(gens)))
    return Subspace._of(n * n,
                        (sol.basis * Mat._of(gens, n * n)).sparse_rows)


def _ref_deriv_mat(aq, d):
    """The validation of _deriv_mat, on the dense products and the dense
    derivation loop."""
    if aq is None:
        if not (d.rows == d.cols == 0):
            raise ValidationError("derivation of the zero algebra must be "
                                  "0x0")
        return d
    if d.rows != aq.dim or d.cols != aq.dim:
        raise ValidationError("matrix shape does not match the algebra",
                              law="shape")
    m = d.transpose() * aq.form + aq.form * d
    bad = [(i + 1, j + 1) for i in range(m.rows) for j in range(m.cols)
           if m.data[i][j]]
    if bad:
        raise ValidationError(f"not form-skew at pair {bad[0]}",
                              law="skew", witness=bad[0])
    bad = _ref_derivation_defect(aq.alg, d)
    if bad:
        raise ValidationError(f"derivation law fails at pair {bad[0]}",
                              law="derivation", witness=bad[0])
    return d


def _ref_inner_preimage(aq, d):
    """The dense n^2-row system that inner_preimage replaced."""
    d = _ref_deriv_mat(aq, d)
    if aq is None:
        return ()
    n = aq.dim
    bb = _dense_basis_brackets(aq.alg)
    dcols = _dense_cols(d)
    rows = []
    rhs = []
    for j in range(1, n + 1):
        cols = [bb(i, j) for i in range(1, n + 1)]
        img = dcols[j - 1]
        for t in range(n):
            rows.append([cols[i][t] for i in range(n)])
            rhs.append(img[t])
    return solve(Mat.from_rows(rows, cols=n), tuple(rhs))


def _ref_inner_preimage_by_rows(aq, d):
    """inner_preimage as it was, checking d with the package's _deriv_mat:
    _ref_centre_rows solved against d[r][s]."""
    d = _deriv_mat(aq, d)
    if aq is None:
        return ()
    rows = _ref_centre_rows(aq.alg)
    if any((s + 1, r) not in rows for r, row in enumerate(d.sparse_rows)
           for s in row):
        return None
    return solve(Mat._of(rows.values(), aq.dim),
                 tuple(d.sparse_rows[r].get(s - 1, ZERO) for s, r in rows))


def _ref_double_extend_1d(aq, d):
    """The dedicated one-dimensional construction the general one replaced."""
    d = _ref_deriv_mat(aq, d)
    amn = aq.dim if aq is not None else 0
    dim = amn + 2
    dcols = _dense_cols(d)
    brackets = {}
    for j in range(1, amn + 1):
        img = dcols[j - 1]
        if any(img):
            brackets[(1, 1 + j)] = (0,) + tuple(img) + (0,)
    form = [[0] * dim for _ in range(dim)]
    form[0][dim - 1] = form[dim - 1][0] = 1
    if aq is not None:
        f = aq.form.data
        bb = _dense_basis_brackets(aq.alg)
        for i in range(1, amn + 1):
            fdi = _dense_matvec(f, dcols[i - 1])
            for j in range(i + 1, amn + 1):
                apart = bb(i, j)
                if any(apart) or fdi[j - 1]:
                    brackets[(1 + i, 1 + j)] = ((0,) + tuple(apart)
                                                + (fdi[j - 1],))
            for j in range(amn):
                form[1 + i - 1][1 + j] = f[i - 1][j]
    return QuadraticStructure(LieAlgebra(dim, brackets), Mat(form))


def _ref_double_extend(aq, b, phi):
    """The general double extension with its own coadjoint loop and the
    dense C(dim A, 2) loop for the A part."""
    if not b.is_lie():
        raise ValidationError("extending algebra is not Lie", law="jacobi")
    m = b.dim
    if len(phi) != m:
        raise ValidationError(f"need {m} derivation images, got {len(phi)}")
    amn = aq.dim if aq is not None else 0
    mats = [_ref_deriv_mat(aq, d) for d in phi]
    mcols = [_dense_cols(mat) for mat in mats]
    bb = _dense_basis_brackets(b)

    def phi_of(x):
        out = Mat.zero(amn, amn)
        for c, mat in zip(x, mats):
            if c:
                out = out + mat.scale(c)
        return out

    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            lhs = phi_of(bb(i, j))
            rhs = mats[i - 1] * mats[j - 1] - mats[j - 1] * mats[i - 1]
            if lhs != rhs:
                raise ValidationError(
                    f"phi is not a homomorphism at pair {(i, j)}",
                    law="homomorphism", witness=(i, j))
    dim = 2 * m + amn
    star = m + amn
    brackets = {}

    def row(i, j):
        return brackets.setdefault((i, j), [0] * dim)
    for (i, j), v in b.brackets.items():
        row(i, j)[:m] = v
        for k, c in enumerate(v, start=1):
            if c:
                row(i, star + k)[star + j - 1] = -c
                row(j, star + k)[star + i - 1] = c
    for i, mc in enumerate(mcols, start=1):
        for j in range(amn):
            img = mc[j]
            if any(img):
                row(i, m + 1 + j)[m:star] = img
    if aq is not None:
        fa = aq.form.data
        bba = _dense_basis_brackets(aq.alg)
        for i in range(1, amn + 1):
            fphi = [_dense_matvec(fa, mc[i - 1]) for mc in mcols]
            for j in range(i + 1, amn + 1):
                apart = bba(i, j)
                beta = [f[j - 1] for f in fphi]
                if any(apart) or any(beta):
                    r = row(m + i, m + j)
                    r[m:star] = apart
                    r[star:] = beta
    form = [[0] * dim for _ in range(dim)]
    for i in range(m):
        form[i][star + i] = form[star + i][i] = 1
    if aq is not None:
        for i in range(amn):
            for j in range(amn):
                form[m + i][m + j] = fa[i][j]
    return QuadraticStructure(LieAlgebra(dim, brackets), Mat(form))


def _ref_two_step_by_intersection(aq, d):
    """The criterion as it was: s = im(d) + A^2 against the solved
    intersection Z(A) intersect ker(d)."""
    if aq is None:
        return False
    n = aq.dim
    s = Subspace.from_rows(n, _dense_cols(d)).sum(
        aq.alg.derived())
    return s.dim > 0 and aq.alg.centre().intersect(kernel(d)).contains(s)


def _ref_centre_formula_by_intersection(aq, d):
    """The centre formula as it was: Z(A) intersect ker(d) solved as the
    intersection of the centre with the kernel of d."""
    dim = (aq.dim if aq is not None else 0) + 2
    rows = []
    if aq is not None:
        core = aq.alg.centre().intersect(kernel(d))
        rows = [{j + 1: e for j, e in r.items()}
                for r in core.basis.sparse_rows]
    rows.append({dim - 1: Fraction(1)})
    x = inner_preimage(aq, d)
    if x is not None:
        rows.append({0: Fraction(1),
                     **{j + 1: -c for j, c in enumerate(x) if c}})
    return Subspace._of(dim, rows)


def _ref_scalar_in(x, where, memo=None):
    """io._scalar_in as the dense readers below called it."""
    if isinstance(x, bool):
        raise QuadlieError(f"bad scalar {json.dumps(x)} in {where}")
    if memo is not None and isinstance(x, str):
        if x not in memo:
            memo[x] = _ref_scalar_in(x, where)
        return memo[x]
    try:
        return scalar(x)
    except (ValueError, TypeError, ZeroDivisionError):
        raise QuadlieError(f"bad scalar {x!r} in {where}")


def _ref_mat_in(rows, where, memo=None):
    """io._mat_in as it was: every entry coerced, "0" included, and the
    rows handed to the dense Mat constructor."""
    if not isinstance(rows, list) or any(not isinstance(r, list)
                                         for r in rows):
        raise QuadlieError(f"{where}: matrix must be a list of rows")
    if not rows:
        return Mat.zero(0, 0)
    if any(len(r) != len(rows[0]) for r in rows):
        raise QuadlieError(f"{where}: rows differ in length")
    return Mat([[_ref_scalar_in(e, where, memo) for e in r] for r in rows])


def _ref_algebra_from_obj(obj):
    """io.algebra_from_obj as it was: dense tuples of coerced entries,
    checked by LieAlgebra(dim, brackets), then the form by _ref_mat_in."""
    dim = _dim_in(_expect(obj, "dim", "algebra"), 2 * MAX_N)
    memo = {}
    brackets = {}
    for ent in _expect_list(obj, "brackets", "algebra"):
        i = _expect(ent, "i", "bracket")
        j = _expect(ent, "j", "bracket")
        v = _expect(ent, "v", "bracket")
        if not _int_in(i) or not _int_in(j):
            raise QuadlieError(f"bad bracket index pair ({i!r},{j!r})")
        if not isinstance(v, list):
            raise QuadlieError(f"bracket ({i},{j}): value must be a list")
        if (i, j) in brackets:
            raise QuadlieError(f"duplicate bracket ({i},{j})")
        where = f"bracket ({i},{j})"
        brackets[(i, j)] = tuple(_ref_scalar_in(c, where, memo) for c in v)
    try:
        alg = LieAlgebra(dim, brackets)
    except ValueError as e:
        raise QuadlieError(str(e))
    form = None
    if isinstance(obj, dict) and obj.get("form") is not None:
        form = _ref_mat_in(obj["form"], "form", memo)
    return alg, form


def _ref_general_cocycle_from_obj(obj):
    """io.general_cocycle_from_obj as it was, through
    GeneralCocycle(base, values)."""
    n = _dim_in(_expect(obj, "n", "cocycle"))
    base, _ = _ref_algebra_from_obj(_expect(obj, "base", "cocycle"))
    if n != base.dim:
        raise QuadlieError(f"cocycle n {n} differs from base dim {base.dim}")
    values = {}
    for ent in _expect_list(obj, "pairs", "cocycle"):
        ij = _expect(ent, "ij", "pair")
        if (not isinstance(ij, list) or len(ij) != 2
                or any(not _int_in(x) for x in ij)):
            raise QuadlieError(f"bad index pair {ij!r}")
        v = _expect(ent, "v", "pair")
        i, j = ij
        if not isinstance(v, list):
            raise QuadlieError(f"pair ({i},{j}): value must be a list")
        if (i, j) in values:
            raise QuadlieError(f"duplicate pair ({i},{j})")
        values[(i, j)] = tuple(_ref_scalar_in(c, f"pair {ij}") for c in v)
    return GeneralCocycle(base, values)


def _ref_chain_from_obj(obj):
    """io.chain_from_obj as it was, each link through _ref_mat_in."""
    n = _expect(obj, "n", "chain")
    derivs = _expect_list(obj, "derivs", "chain")
    mats = tuple(_ref_mat_in(rows, f"deriv {k}")
                 for k, rows in enumerate(derivs))
    return ExtensionChain(_dim_in(n), mats)


def _ref_family_from_obj(obj):
    """io.family_from_obj as it was, each matrix through _ref_mat_in."""
    n = _expect(obj, "n", "family")
    mats = _expect_list(obj, "mats", "family")
    mats = tuple(_ref_mat_in(m, f"matrix {i + 1}")
                 for i, m in enumerate(mats))
    return QuadraticFamily(_dim_in(n), mats)


# ---- the one-division sums that linalg._isum replaced ----

def _old_fsum(terms):
    """linalg._fsum as it was: the sum of n/d at each key over (key, n, d)
    terms as nonzero Fractions, keys ascending, one division per sum."""
    from math import lcm
    acc = {}
    den = 1
    for k, n, d in terms:
        if d != den:
            if den % d:
                g = lcm(den, d)
                for j in acc:
                    acc[j] *= g // den
                den = g
            n *= den // d
        acc[k] = acc.get(k, 0) + n
    return {k: Fraction(v) if den == 1 else Fraction(v, den)
            for k, v in sorted(acc.items()) if v}


# ---- the Fraction multiply-accumulate loops that linalg._fsum replaced,
# as they were, one Fraction product and one Fraction sum per term; a
# method takes its object as the first argument ----

def _old_vecmat(m, x):
    """Mat._vecmat as it was: x m for x given as (row, entry) pairs."""
    rows = m.sparse_rows
    v = {}
    for j, c in x:
        for k, e in rows[j].items():
            v[k] = v.get(k, ZERO) + c * e
    return {k: e for k, e in sorted(v.items()) if e}


def _old_sparse_mul(a, b):
    """Mat.__mul__ as it was, one _old_vecmat per row of a."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} * "
                         f"{b.rows}x{b.cols}")
    return Mat._of([_old_vecmat(b, r.items()) for r in a.sparse_rows],
                   b.cols)


def _old_ad_index(alg):
    """LieAlgebra._ad_index as it was: ad[r] lists (y, the terms of
    [e_r, e_y]) for every y with [e_r, e_y] != 0, r and y 0-based, y
    ascending, with a negated copy of every bracket for its mirrored
    pair."""
    ad = [[] for _ in range(alg.dim)]
    for (i, j), nz in alg.terms.items():
        ad[i - 1].append((j - 1, nz))
        ad[j - 1].append((i - 1, tuple((r, -c) for r, c in nz)))
    for pairs in ad:
        pairs.sort()
    return ad


def _old_bracket(alg, x, y):
    """LieAlgebra._bracket as it was, for sparse x and y."""
    ad = _old_ad_index(alg)
    out = {}
    for a, xa in x.items():
        for b, nz in ad[a]:
            yb = y.get(b)
            if yb:
                f = xa * yb
                for r, c in nz:
                    out[r] = out.get(r, ZERO) + f * c
    return {r: c for r, c in sorted(out.items()) if c}


def _old_jacobi_defect(alg):
    """LieAlgebra.jacobi_defect's pass as it was, one dict per triple."""
    ad = _old_ad_index(alg)
    acc = {}
    for (b, c), v in alg.terms.items():
        for r, x in v:
            for a, w in ad[r]:
                a += 1
                if a == b or a == c:
                    continue
                # b < c, so the sorted triple is one of three, and
                # (a,b,c) is a cyclic shift of it unless b < a < c
                if a < b:
                    key, cyclic = (a, b, c), True
                elif a < c:
                    key, cyclic = (b, a, c), False
                else:
                    key, cyclic = (b, c, a), True
                # [e_a, e_r] = -w, the terms of [e_r, e_a]
                f = -x if cyclic else x
                t = acc.setdefault(key, {})
                for k, e in w:
                    t[k] = t.get(k, ZERO) + f * e
    bad = []
    for key in sorted(acc):
        t = acc[key]
        if any(t.values()):
            tot = tuple(t.get(k, ZERO) for k in range(alg.dim))
            bad.append((*key, tot))
    return bad


def _old_lower_central_series(alg):
    """LieAlgebra.lower_central_series as it was, one dict per [e_a, v]."""
    alg._require_lie()
    ad = _old_ad_index(alg)
    cur = Subspace.full(alg.dim)
    series = [cur]
    nxt = alg.derived()
    while True:
        series.append(nxt)
        if nxt.dim == cur.dim or nxt.dim == 0:
            return series
        cur = nxt
        rows = []
        for v in cur.basis.sparse_rows:
            out = {}  # a -> [e_a, v]
            for b, c in v.items():
                # [e_b, e_a] = w adds -v_b w to [e_a, v]
                for a, w in ad[b]:
                    row = out.setdefault(a, {})
                    for r, e in w:
                        row[r] = row.get(r, ZERO) - c * e
            rows += [{r: e for r, e in sorted(row.items()) if e}
                     for row in out.values()]
        nxt = Subspace._of(alg.dim, rows)


def _old_derivation_map(alg):
    """doubleext._derivation_map as it was: a map of d's entries, built
    once per algebra, whose image keeps zero sums, in the order their keys
    were first met."""
    by_comp = {}  # s -> (a, b, v_s) with v_s != 0
    for (a, b), v in alg.terms.items():
        for s, x in v:
            by_comp.setdefault(s, []).append((a - 1, b - 1, x))
    ad = _old_ad_index(alg)

    def image(entries):
        acc = {}
        for r, s, c in entries:
            for a, b, x in by_comp.get(s, ()):
                key = (a, b, r)
                acc[key] = acc.get(key, ZERO) + c * x
            for y, nz in ad[r]:
                if y != s:
                    # -c [e_r, e_y] at (s, y) is c [e_r, e_y] at (y, s)
                    i, j, f = (s, y, -c) if s < y else (y, s, c)
                    for t, x in nz:
                        key = (i, j, t)
                        acc[key] = acc.get(key, ZERO) + f * x
        return acc
    return image


def _old_entries(d):
    return [(r, s, c) for r, row in enumerate(d.sparse_rows)
            for s, c in row.items()]


def _old_derivation_defect(alg, d):
    """derivation_defect as it was, on _old_derivation_map."""
    if not d.rows == d.cols == alg.dim:
        raise ValueError(f"shape mismatch: algebra dim {alg.dim}, "
                         f"d {d.rows}x{d.cols}")
    acc = _old_derivation_map(alg)(_old_entries(d))
    return sorted({(i + 1, j + 1) for (i, j, _), x in acc.items() if x})


def _old_derivation_space(aq):
    """derivation_space as it was, on _old_derivation_map and products
    through _old_vecmat."""
    n = aq.dim
    g = inverse(aq.form).sparse_rows  # G is symmetric: row a is column a
    law = _old_derivation_map(aq.alg)
    gens = []  # row k: the k-th D_ab, vectorized
    rows = {}
    for a in range(n):
        for b in range(a + 1, n):
            ents = ([(r, b, c) for r, c in g[a].items()]
                    + [(r, a, -c) for r, c in g[b].items()])
            for key, x in law(ents).items():
                if x:
                    rows.setdefault(key, {})[len(gens)] = x
            gens.append(dict(sorted((r * n + s, c) for r, s, c in ents)))
    sol = kernel(Mat._of([rows[k] for k in sorted(rows)], len(gens)))
    return Subspace._of(n * n, _old_sparse_mul(
        sol.basis, Mat._of(gens, n * n)).sparse_rows)


def _old_random_skew_derivation(aq, seed, bound=3):
    """random_skew_derivation as it was: one coefficient drawn per basis
    row of the derivation space, each row added in Fractions."""
    space = _old_derivation_space(aq)
    rng = SplitMix64(seed)
    n = aq.dim
    out = [{} for _ in range(n)]
    for row in space.basis.sparse_rows:
        c = Fraction(rng.randint(-bound, bound))
        if c:
            for rs, e in row.items():
                r, s = divmod(rs, n)
                out[r][s] = out[r].get(s, ZERO) + c * e
    return Mat._of([{s: e for s, e in sorted(r.items()) if e} for r in out],
                   n)


def _old_chain_dcoeffs(ch):
    """chain_dcoeffs as it was, through the validating AltCoeffs."""
    vals = {}
    for k in range(3, ch.n + 1):
        d = ch.derivs[k - 1]
        for i in range(1, k):
            for j in range(i + 1, k):
                v = d.sparse_rows[(k - 1) + j - 1].get(i - 1)
                if v:
                    vals[(i, j, k)] = v
    return CocycleCoeffs(ch.n, vals)


def _old_is_isometry(q1, q2, m):
    """is_isometry as it was: the rank of m before the form, and the
    brackets read off the sparse store through the old loops."""
    if m.rows != q2.dim or m.cols != q1.dim or q1.dim != q2.dim:
        return False, "shape mismatch"
    if rank(m) != q1.dim:
        return False, "not invertible"
    mt = m.transpose()  # row j holds the image of e_{j+1}
    if _old_sparse_mul(_old_sparse_mul(mt, q2.form), m) != q1.form:
        return False, "form not preserved"
    cols = mt.sparse_rows
    for i, j in itertools.combinations(range(1, q1.dim + 1), 2):
        lhs = _old_vecmat(mt, q1.alg.terms.get((i, j), ()))
        rhs = _old_bracket(q2.alg, cols[i - 1], cols[j - 1])
        if lhs != rhs:
            return False, f"bracket not preserved at ({i},{j})"
    return True, "ok"


def _loop_is_isometry(q1, q2, m):
    """is_isometry as it was before the batched brackets: the form first,
    the rank only when the form fails, then one bracket per basis pair in
    combinations order, the first pair that differs reported."""
    if m.rows != q2.dim or m.cols != q1.dim or q1.dim != q2.dim:
        return False, "shape mismatch"
    mt = m.transpose()  # row j holds the image of e_{j+1}
    if mt * q2.form * m != q1.form:
        return False, ("not invertible" if rank(m) != q1.dim
                       else "form not preserved")
    cols = mt.sparse_rows
    for i, j in itertools.combinations(range(1, q1.dim + 1), 2):
        lhs = mt._vecmat(q1.alg.terms.get((i, j), ()))
        rhs = _old_bracket(q2.alg, cols[i - 1], cols[j - 1])
        if lhs != rhs:
            return False, f"bracket not preserved at ({i},{j})"
    return True, "ok"


def _old_decompose_as_tstar(q, ideal):
    """decompose_as_tstar as it was before the batched brackets: one
    bracket per pair of ideal vectors, per (e_s, ideal vector) and per
    pair of complement vectors, and the pair loop of _loop_is_isometry."""
    dim = q.dim
    if dim % 2:
        raise ValidationError("dimension is odd", law="even-dim")
    n = dim // 2
    L = lagrangian_complement(q, ideal)  # checks that ideal is lagrangian
    ibasis = ideal.basis.sparse_rows
    for a, u in enumerate(ibasis):
        for v in ibasis[a + 1:]:
            if _old_bracket(q.alg, u, v):
                raise ValidationError("ideal is not abelian", law="abelian")
    if not ideal._holds(_old_bracket(q.alg, {s: ONE}, u)
                        for s in range(dim) for u in ibasis):
        raise ValidationError("subspace is not an ideal", law="ideal")
    lrows = L.basis.sparse_rows
    coords = inverse(vstack(L.basis, ideal.basis).transpose())
    # rows: the coordinates along L, then the pairings phi(l_c, .)
    iso = Mat._of(coords.sparse_rows[:n] + (L.basis * q.form).sparse_rows,
                  dim)
    iso_t = iso.transpose()
    brackets = {}
    wterms = {}
    for a in range(n):
        for b in range(a + 1, n):
            v = iso_t._vecmat(_old_bracket(q.alg, lrows[a],
                                           lrows[b]).items())
            lam = tuple((k, c) for k, c in v.items() if k < n)
            if lam:
                brackets[(a + 1, b + 1)] = lam
            if len(lam) < len(v):
                wterms[(a + 1, b + 1)] = tuple((k - n, c)
                                               for k, c in v.items()
                                               if k >= n)
    B = LieAlgebra._of(n, brackets)
    w = GeneralCocycle._of(B, wterms)
    ok, why = _loop_is_isometry(q, tstar_extend(w), iso)
    if not ok:
        raise ValidationError(f"recovered map failed verification: {why}")
    return B, w, iso

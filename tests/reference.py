"""The dense reference implementations that the differential tests compare
the package against, each defined once.

Every function here computes a result of the package from its definition,
or as the package's code computed it before a sparse path replaced it:
dense vectors and matrices, loops over every basis pair or triple, no
shared index. Names say which:

- `_dense_*`: straight from the definition, over dense views;
- `_old_*`: a Mat operation as it was on dense rows;
- `_loop_*`: a conversion as it was, reading c_ijk at every index triple;
- `_ref_*`: a construction or law check as it was, with its own
  validation.

`basis_vec` and `_dense_direct_sum` stand in for `linalg.basis_vec` and
`LieAlgebra.direct_sum`, which the package no longer has, and
`_dense_contains_vec` for `Subspace.contains_vec`.

This module is the oracle for the property tests and the mutant table
that ROADMAP.md plans (open items 4 and 6): a property test compares the
package with it on generated input, and a mutant of the package must make
some comparison with it fail. `tests/test_reference.py` keeps every such
helper here, and here once.
"""
import itertools
from fractions import Fraction

from quadlie import (CocycleCoeffs, ExtensionChain, GeneralCocycle,
                     LieAlgebra, Mat, QuadraticFamily, QuadraticStructure,
                     SkewDerivation, Subspace, ValidationError, abelian,
                     chain_dcoeffs, hyperbolic_form, inner_preimage, inverse,
                     is_lagrangian, kernel, lagrangian_complement, rank,
                     rref, scalar, solve)
from quadlie.linalg import vstack

ZERO = Fraction(0)


def basis_vec(n, k):
    """e_k in Q^n for a 1-based label k: basis_vec(3, 2) = (0, 1, 0)."""
    if not 1 <= k <= n:
        raise ValueError(f"basis label {k} out of range 1..{n}")
    return tuple(Fraction(int(t == k - 1)) for t in range(n))


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
    return _dense(([sum((r[j] * b.data[j][k] for j in range(a.cols)),
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


def _dense_ad_vec(alg, i, y):
    """[e_i, y] as the sum of y_b [e_i, e_b] over every b with y_b != 0."""
    out = [ZERO] * alg.dim
    for b, c in enumerate(y, start=1):
        if c:
            for r, e in enumerate(alg.bracket_basis(i, b)):
                if e:
                    out[r] += c * e
    return tuple(out)


def _dense_jacobi_defect(alg):
    """The cyclic sum over every basis triple i<j<k."""
    bad = []
    for i, j, k in itertools.combinations(range(1, alg.dim + 1), 3):
        t1 = _dense_ad_vec(alg, i, alg.bracket_basis(j, k))
        t2 = _dense_ad_vec(alg, j, alg.bracket_basis(k, i))
        t3 = _dense_ad_vec(alg, k, alg.bracket_basis(i, j))
        tot = tuple(a + b + c for a, b, c in zip(t1, t2, t3))
        if any(tot):
            bad.append((i, j, k, tot))
    return bad


def _dense_centre(alg):
    """Kernel of the rows (s, r) -> {i: [e_i, e_s]_r} over every s and r."""
    n = alg.dim
    rows = []
    for s in range(1, n + 1):
        cols = [alg.bracket_basis(i, s) for i in range(1, n + 1)]
        for r in range(n):
            row = [cols[i][r] for i in range(n)]
            if any(row):
                rows.append(row)
    return kernel(Mat(rows)) if rows else Subspace.full(n)


def _dense_lower_central_series(alg):
    """A^1 = the full space, then A^{t+1} = [e_i, A^t] over every i."""
    cur = Subspace.full(alg.dim)
    series = [cur]
    while True:
        rows = [_dense_ad_vec(alg, i, v) for i in range(1, alg.dim + 1)
                for v in cur.basis.data]
        nxt = Subspace.from_rows(alg.dim, rows)
        series.append(nxt)
        if nxt.dim == cur.dim or nxt.dim == 0:
            return series
        cur = nxt


def _dense_upper_central_series(alg):
    """Z_1 = the centre, then Z_{t+1} = {x : [x, e_s] in Z_t for every s}."""
    n = alg.dim
    series = [_dense_centre(alg)]
    while series[-1].dim < n:
        zt = series[-1]
        ann = (kernel(zt.basis).basis.data if zt.dim else
               Mat.identity(n).data)
        rows = []
        for s in range(1, n + 1):
            cols = [alg.bracket_basis(i, s) for i in range(1, n + 1)]
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
    out = {}
    for i, j in alg.terms:
        a, b = sorted((inv[i], inv[j]))
        v = [ZERO] * alg.dim
        for u, c in enumerate(alg.bracket_basis(perm[a - 1], perm[b - 1]),
                              start=1):
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
    br = [[alg.bracket_basis(i, j) for j in range(1, n + 1)]
          for i in range(1, n + 1)]
    ft = form.transpose()
    left = [[ft.matvec(v) for v in row] for row in br]     # phi([ei,ej], .)
    right = [[form.matvec(v) for v in row] for row in br]  # phi(., [ei,ek])
    return [(i + 1, j + 1, k + 1)
            for i in range(n) for j in range(n) for k in range(n)
            if left[i][j][k] + right[i][k][j]]


def _dense_is_isometry(q1, q2, m):
    if m.rows != q2.dim or m.cols != q1.dim or q1.dim != q2.dim:
        return False, "shape mismatch"
    if rank(m) != q1.dim:
        return False, "not invertible"
    if m.transpose() * q2.form * m != q1.form:
        return False, "form not preserved"
    cols = [m.col(j) for j in range(m.cols)]
    for i in range(1, q1.dim + 1):
        for j in range(i + 1, q1.dim + 1):
            lhs = m.matvec(q1.alg.bracket_basis(i, j))
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


def _dense_kernel(t):
    """trivector_kernel as it was: the dense AltCoeffs.pair_rows matrix,
    a row of t_ijk over i per touched pair (j, k)."""
    rows = [[t.value(i, j, k) for i in range(1, t.n + 1)]
            for (j, k) in _ref_touched_pairs(t)]
    return kernel(Mat.from_rows(rows, cols=t.n))


def _dense_contraction(t, x):
    """contraction_with as it was: each term adds to six dense entries."""
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
    return [(i, j, k) for i in range(1, n + 1) for j in range(1, n + 1)
            for k in range(1, n + 1)
            if w.value_pair(i, j)[k - 1] != w.value_pair(k, i)[j - 1]]


def _ref_cocycle_defect(w):
    if not isinstance(w, GeneralCocycle):
        return []
    base = w.base
    if not base.is_lie():
        raise ValidationError("base is not a Lie algebra", law="jacobi")
    n = base.dim
    bad = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                lhs = [Fraction(0)] * n
                rhs = [Fraction(0)] * n
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    # w([e_a, e_b], e_c) by linearity in the first slot
                    wl = [Fraction(0)] * n
                    for u, x in enumerate(base.bracket_basis(a, b), start=1):
                        for v, e in enumerate(w.value_pair(u, c)):
                            wl[v] += x * e
                    wbc = w.value_pair(b, c)
                    for t in range(n):
                        lhs[t] += wl[t]
                        br = base.bracket_basis(a, t + 1)
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
    base = w.base
    n = base.dim
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            brackets[(i, j)] = (tuple(base.bracket_basis(i, j))
                                + w.value_pair(i, j))
        for k in range(1, n + 1):
            star = [-base.bracket_basis(i, ell)[k - 1]
                    for ell in range(1, n + 1)]
            brackets[(i, n + k)] = (0,) * n + tuple(star)
    return QuadraticStructure(LieAlgebra(2 * n, brackets), hyperbolic_form(n))


def _ref_radical(w):
    if not isinstance(w, GeneralCocycle):
        return _dense_kernel(w)
    n = w.base.dim
    rows = [[w.value_pair(i, j)[k] for i in range(1, n + 1)]
            for j in range(1, n + 1) for k in range(n)]
    return kernel(Mat.from_rows([r for r in rows if any(r)], cols=n))


def _ref_value_span(w):
    if not isinstance(w, GeneralCocycle):
        n = w.n
        return Subspace.from_rows(n, [[w.value(i, j, k)
                                       for k in range(1, n + 1)]
                                      for (i, j) in _ref_touched_pairs(w)])
    return Subspace.from_rows(w.base.dim, list(w.values.values()))


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
    for pair, v in w.values.items():
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
    brackets, wvals = {}, {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            v = iso.matvec(_dense_bracket(q.alg, lrows[a - 1], lrows[b - 1]))
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


def _loop_family_defects(fam):
    """family_defects as it was, on the dense entry and column views."""
    out = []
    for i, m in enumerate(fam.mats, start=1):
        if not _old_is_skew(m):
            out.append(f"M_{i} is not skew")
        if any(m.entry(r, i - 1) for r in range(fam.n)):
            out.append(f"column {i} of M_{i} is nonzero")
    for i in range(1, fam.n + 1):
        for j in range(i + 1, fam.n + 1):
            ci = fam.mats[i - 1].col(j - 1)
            cj = fam.mats[j - 1].col(i - 1)
            if any(a + b for a, b in zip(ci, cj)):
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
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            star = fam.mats[i - 1].col(j - 1)
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


# ---- double extensions ----

def _dense_skew_defect(form, d):
    """The nonzero entries of d^T F + F d, summed over the dense views."""
    f, m, n = form.data, d.data, form.rows
    return [(i + 1, j + 1) for i in range(n) for j in range(n)
            if sum(m[r][i] * f[r][j] + f[i][r] * m[r][j] for r in range(n))]


def _ref_derivation_defect(alg, d):
    """The dense pair loop that derivation_defect replaced."""
    n = alg.dim
    cols = [d.col(j) for j in range(n)]
    bad = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lhs = d.matvec(alg.bracket_basis(i, j))
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
            br = aq.alg.bracket_basis(i, j)
            for t in range(n):
                row = [0] * nn
                for s in range(n):
                    if br[s]:
                        row[t * n + s] += br[s]
                for s in range(1, n + 1):
                    c1 = aq.alg.bracket_basis(s, j)[t]
                    if c1:
                        row[(s - 1) * n + (i - 1)] -= c1
                    c2 = aq.alg.bracket_basis(i, s)[t]
                    if c2:
                        row[(s - 1) * n + (j - 1)] -= c2
                rows.append(row)
    return kernel(Mat.from_rows(rows, cols=nn))


def _ref_deriv_mat(aq, d):
    """The validation of SkewDerivation and _deriv_mat, on the dense
    products and the dense derivation loop."""
    if isinstance(d, SkewDerivation):
        return d.mat
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
    rows = []
    rhs = []
    for j in range(1, n + 1):
        cols = [aq.alg.bracket_basis(i, j) for i in range(1, n + 1)]
        img = d.col(j - 1)
        for t in range(n):
            rows.append([cols[i][t] for i in range(n)])
            rhs.append(img[t])
    return solve(Mat.from_rows(rows, cols=n), tuple(rhs))


def _ref_double_extend_1d(aq, d):
    """The dedicated one-dimensional construction the general one replaced."""
    if isinstance(d, SkewDerivation):
        d = d.mat
    elif aq is not None:
        SkewDerivation(aq, d)
    elif not (d.rows == d.cols == 0):
        raise ValidationError("derivation of the zero algebra must be 0x0")
    amn = aq.dim if aq is not None else 0
    dim = amn + 2
    brackets = {}
    for j in range(1, amn + 1):
        img = d.col(j - 1)
        if any(img):
            brackets[(1, 1 + j)] = (0,) + tuple(img) + (0,)
    form = [[0] * dim for _ in range(dim)]
    form[0][dim - 1] = form[dim - 1][0] = 1
    if aq is not None:
        for i in range(1, amn + 1):
            fdi = aq.form.matvec(d.col(i - 1))
            for j in range(i + 1, amn + 1):
                apart = aq.alg.bracket_basis(i, j)
                if any(apart) or fdi[j - 1]:
                    brackets[(1 + i, 1 + j)] = ((0,) + tuple(apart)
                                                + (fdi[j - 1],))
            for j in range(amn):
                form[1 + i - 1][1 + j] = aq.form.data[i - 1][j]
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

    def phi_of(x):
        out = Mat.zero(amn, amn)
        for c, mat in zip(x, mats):
            if c:
                out = out + mat.scale(c)
        return out

    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            lhs = phi_of(b.bracket_basis(i, j))
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
    for i, mat in enumerate(mats, start=1):
        for j in range(amn):
            img = mat.col(j)
            if any(img):
                row(i, m + 1 + j)[m:star] = img
    if aq is not None:
        fa = aq.form
        for i in range(1, amn + 1):
            fphi = [fa.matvec(mat.col(i - 1)) for mat in mats]
            for j in range(i + 1, amn + 1):
                apart = aq.alg.bracket_basis(i, j)
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
                form[m + i][m + j] = aq.form.data[i][j]
    return QuadraticStructure(LieAlgebra(dim, brackets), Mat(form))


def _ref_two_step_by_intersection(aq, d):
    """The criterion as it was: s = im(d) + A^2 against the solved
    intersection Z(A) intersect ker(d)."""
    if aq is None:
        return False
    dmat = d.mat if isinstance(d, SkewDerivation) else d
    n = aq.dim
    s = Subspace.from_rows(n, [dmat.col(j) for j in range(n)]).sum(
        aq.alg.derived())
    return s.dim > 0 and aq.alg.centre().intersect(kernel(dmat)).contains(s)


def _ref_centre_formula_by_intersection(aq, d):
    """The centre formula as it was: Z(A) intersect ker(d) solved as the
    intersection of the centre with the kernel of d."""
    dmat = d.mat if isinstance(d, SkewDerivation) else d
    dim = (aq.dim if aq is not None else 0) + 2
    rows = []
    if aq is not None:
        core = aq.alg.centre().intersect(kernel(dmat))
        rows = [{j + 1: e for j, e in r.items()}
                for r in core.basis.sparse_rows]
    rows.append({dim - 1: Fraction(1)})
    x = inner_preimage(aq, dmat)
    if x is not None:
        rows.append({0: Fraction(1),
                     **{j + 1: -c for j, c in enumerate(x) if c}})
    return Subspace._of(dim, rows)

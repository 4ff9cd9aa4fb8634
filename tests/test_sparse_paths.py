"""Differential tests: the sparse query path against the dense code it
replaced.

The _dense_* functions are copies of the code before algebras were built
from sparse terms: builders that padded each bracket into a dim-length
vector for the validating `LieAlgebra(dim, brackets)`, a bracket that
scanned dense vectors, a membership test that reduced dense vectors, and an
isometry check that read dense columns. Each runs on the catalog and on
seeded corpora, and must give identical results.
"""
from fractions import Fraction

import pytest

from quadlie import (CATALOG, CocycleCoeffs, GeneralCocycle, LieAlgebra, Mat,
                     QuadraticStructure, SplitMix64, Subspace, abelian,
                     algebra_from_family, algebra_from_trivector,
                     chain_dcoeffs, chain_to_algebra, coeffs_to_chain,
                     coeffs_to_family, decompose_as_tstar, gl_act,
                     heisenberg, hyperbolic_form, is_isometry, kernel,
                     random_coeffs, random_invertible, random_matrix,
                     random_skew_derivation, rank, scalar, tstar_extend)
from quadlie.linalg import hstack, inverse, vstack, zero_vec
from quadlie.tstar import _general, _tstar_algebra

ZERO = Fraction(0)


# ---- the dense references ----

def _dense_tstar_algebra(w, aq=None, phi=()):
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


def _dense_chain_algebra(ch):
    n = ch.n
    dco = chain_dcoeffs(ch)
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            star = [dco.value(i, j, k) for k in range(1, n + 1)]
            if any(star):
                brackets[(i, j)] = zero_vec(n) + tuple(star)
    return LieAlgebra(2 * n, brackets)


def _dense_family_algebra(fam):
    n = fam.n
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            star = fam.mats[i - 1].col(j - 1)
            if any(star):
                brackets[(i, j)] = zero_vec(n) + tuple(star)
    return LieAlgebra(2 * n, brackets)


def _dense_permute_basis(alg, perm):
    inv = {old: new for new, old in enumerate(perm, start=1)}
    out = {}
    for (i, j), nz in alg.terms.items():
        a, b = inv[i], inv[j]
        v = [ZERO] * alg.dim
        for r, c in nz:
            v[inv[r + 1] - 1] = c if a < b else -c
        out[(a, b) if a < b else (b, a)] = v
    return LieAlgebra(alg.dim, out)


def _dense_direct_sum(a, b):
    n, m = a.dim, b.dim
    out = {}
    for (i, j), v in a.brackets.items():
        out[(i, j)] = list(v) + [ZERO] * m
    for (i, j), v in b.brackets.items():
        out[(i + n, j + n)] = [ZERO] * n + list(v)
    return LieAlgebra(n + m, out)


def _dense_bracket(alg, x, y):
    x = [scalar(e) for e in x]
    y = [scalar(e) for e in y]
    out = [ZERO] * alg.dim
    for (i, j), w in alg.brackets.items():
        c = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if c:
            for r, e in enumerate(w):
                out[r] += c * e
    return tuple(out)


def _dense_decomposed_base(q, ideal):
    """The base of decompose_as_tstar, read from dense brackets."""
    from quadlie import lagrangian_complement
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


def _dense_contains_vec(s, v):
    v = [scalar(e) for e in v]
    for row in s.basis.data:
        p = next(k for k, e in enumerate(row) if e)
        f = v[p]
        if f:
            for j, e in enumerate(row):
                v[j] -= f * e
    return not any(v)


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


# ---- corpora ----

def _catalog():
    for e in CATALOG:
        yield e.label, algebra_from_trivector(e.trivector)


def _seeded_coeffs():
    for seed in range(40):
        yield random_coeffs(3 + seed % 6, seed=seed,
                            density=Fraction(1 + seed % 3, 4), nonzero=True)


def _chain_cocycle(n):
    return CocycleCoeffs(n, {(i, i + 1, i + 2): 1 for i in range(1, n - 1)})


def _same_terms(new, ref):
    """Equal algebras with the same keys in the same order."""
    assert new.dim == ref.dim
    assert list(new.terms.items()) == list(ref.terms.items())


def _extension_cases():
    """(w, aq, phi) inputs of the T*-builder: T*-extensions over abelian
    and non-abelian bases, and double extensions by seeded derivations."""
    for k, (_, q) in enumerate(_catalog()):
        _, w, _ = decompose_as_tstar(q, q.alg.derived())
        yield w, None, ()
        if k < 4:
            # a relabelled base stores its keys out of order
            perm = list(range(q.dim, 0, -1))
            yield GeneralCocycle(q.alg.permute_basis(perm), {}), None, ()
    for c in _seeded_coeffs():
        yield _general(c), None, ()
    for n in (12, 30):
        yield _general(_chain_cocycle(n)), None, ()
    det = GeneralCocycle(heisenberg(), {
        (1, 2): (0, 0, 1), (1, 3): (0, -1, 0), (2, 3): (1, 0, 0)})
    yield det, None, ()
    # keys out of order, and two brackets of e_3 meeting e_4: the dual
    # row of e_3 and e_4* is written out of column order
    yield GeneralCocycle(LieAlgebra(4, {(2, 3): (0, 0, 0, 1),
                                        (1, 3): (0, 0, 0, 1)}), {}), None, ()
    for seed in range(12):
        m = 1 + seed % 3
        aq = (tstar_extend(random_coeffs(3, seed=seed, nonzero=True))
              if seed % 3 == 0 else
              QuadraticStructure(abelian(2 * m), hyperbolic_form(m)))
        d = random_skew_derivation(aq, seed)
        yield GeneralCocycle(abelian(1), {}), aq, (d,)
        if seed % 2:
            yield (GeneralCocycle(heisenberg(), {}), aq,
                   (d, d.scale(2), Mat.zero(aq.dim, aq.dim)))


def test_tstar_builder_matches_dense_reference():
    cases = 0
    for w, aq, phi in _extension_cases():
        _same_terms(_tstar_algebra(w, aq, phi),
                    _dense_tstar_algebra(w, aq, phi))
        cases += 1
    assert cases == 22 + 4 + 40 + 2 + 2 + 12 + 6


def test_closed_form_builders_match_dense_reference():
    inputs = list(_seeded_coeffs())
    inputs += [_chain_cocycle(n) for n in (3, 8, 25)]
    inputs += [CocycleCoeffs(e.n, e.trivector.terms) for e in CATALOG]
    for c in inputs:
        ch = coeffs_to_chain(c)
        _same_terms(chain_to_algebra(ch).alg, _dense_chain_algebra(ch))
        fam = coeffs_to_family(c)
        _same_terms(algebra_from_family(fam).alg, _dense_family_algebra(fam))
    assert len(inputs) == 40 + 3 + 22


def _assert_decompositions_agree(q, ideal):
    base, w, iso = decompose_as_tstar(q, ideal)
    rbase, rw, riso = _dense_decomposed_base(q, ideal)
    _same_terms(base, rbase)
    assert (w.values, iso) == (rw.values, riso)


def test_radical_algebra_and_decomposed_base_match_dense_reference():
    from quadlie import radical
    cocycles = [_general(c) for c in _seeded_coeffs()]
    cocycles += [_general(_chain_cocycle(n)) for n in (5, 12)]
    cocycles.append(GeneralCocycle(heisenberg(), {
        (1, 2): (0, 0, 1), (1, 3): (0, -1, 0), (2, 3): (1, 0, 0)}))
    for w in cocycles:
        assert radical(w) == LieAlgebra(w.base.dim, w.values).centre()
        # the dual half is an abelian lagrangian ideal of any T*-extension
        n = w.base.dim
        _assert_decompositions_agree(tstar_extend(w), Subspace._of(
            2 * n, [{n + k: Fraction(1)} for k in range(n)]))
    for _, q in _catalog():
        _assert_decompositions_agree(q, q.alg.derived())


def test_relabelled_and_summed_algebras_match_dense_reference():
    g = SplitMix64(31)
    algs = [q.alg for _, q in _catalog()]
    algs += [tstar_extend(c).alg for c in _seeded_coeffs()]
    algs += [heisenberg(), abelian(0), abelian(3)]
    for k, alg in enumerate(algs):
        perm = list(range(1, alg.dim + 1))
        for t in range(alg.dim - 1, 0, -1):
            u = g.randint(0, t)
            perm[t], perm[u] = perm[u], perm[t]
        _same_terms(alg.permute_basis(perm), _dense_permute_basis(alg, perm))
        other = algs[(7 * k + 3) % len(algs)]
        _same_terms(alg.direct_sum(other), _dense_direct_sum(alg, other))


# ---- the bracket ----

def test_public_bracket_matches_dense_reference():
    g = SplitMix64(5)
    algs = [q.alg for _, q in _catalog()][:8]
    algs += [tstar_extend(c).alg for c in list(_seeded_coeffs())[:10]]
    for alg in algs:
        for _ in range(6):
            x = [g.nonzero_entry() if g.randint(0, 2) else 0
                 for _ in range(alg.dim)]
            y = [g.nonzero_entry() if g.randint(0, 2) else 0
                 for _ in range(alg.dim)]
            assert alg.bracket(x, y) == _dense_bracket(alg, x, y)
            i = g.randint(1, alg.dim)
            e = [1 if k == i - 1 else 0 for k in range(alg.dim)]
            assert alg.bracket_basis_vec(i, y) == _dense_bracket(alg, e, y)


def test_public_bracket_takes_ints_and_strings():
    h = heisenberg()
    assert h.bracket((1, 0, 0), ("0", "1/2", 0)) == (0, 0, Fraction(1, 2))
    assert h.bracket(("-2/3", 0, 0), (0, 3, 5)) == (0, 0, -2)
    assert h.bracket((0, 1, 0), (1, 0, 0)) == (0, 0, -1)
    assert h.bracket_basis_vec(2, ("1", 0, 0)) == (0, 0, -1)
    with pytest.raises(ValueError, match="vector length mismatch"):
        h.bracket((1, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="vector length mismatch"):
        h.bracket((1, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValueError, match="vector length mismatch"):
        h.bracket_basis_vec(1, (0, 1))


# ---- membership ----

def _subspaces(alg, g):
    n = alg.dim
    subs = [Subspace.zero(n), Subspace.full(n), alg.derived(), alg.centre()]
    subs += alg.lower_central_series() + alg.upper_central_series()
    subs.append(kernel(random_matrix(n, g.randint(0, 10**6))))
    subs.append(Subspace.from_rows(n, [
        [g.nonzero_entry() if g.randint(0, 3) == 0 else 0 for _ in range(n)]
        for _ in range(g.randint(1, 3))]))
    return subs


def test_contains_matches_dense_reference():
    g = SplitMix64(17)
    algs = [q.alg for _, q in _catalog()][:10]
    algs += [tstar_extend(c).alg for c in list(_seeded_coeffs())[::3]]
    seen = {True: 0, False: 0}
    for alg in algs:
        subs = _subspaces(alg, g)
        for s in subs:
            for t in subs:
                ref = all(_dense_contains_vec(s, r) for r in t.basis.data)
                assert s.contains(t) == ref
                seen[ref] += 1
            for t in subs:
                # members: combinations of t's basis, and non-members
                v = [ZERO] * alg.dim
                for r in t.basis.data:
                    c = g.nonzero_entry()
                    v = [a + c * b for a, b in zip(v, r)]
                assert s.contains_vec(v) == _dense_contains_vec(s, v)
                v[g.randint(0, alg.dim - 1)] += 1
                assert s.contains_vec(v) == _dense_contains_vec(s, v)
    assert seen[True] > 200 and seen[False] > 200


def test_contains_rejects_other_ambient_dimension():
    with pytest.raises(ValueError, match="length mismatch"):
        Subspace.full(3).contains(Subspace.full(4))
    with pytest.raises(ValueError, match="length mismatch"):
        Subspace.full(3).contains_vec((1, 0))
    assert Subspace.full(3).contains(Subspace.zero(4))


# ---- the isometry check ----

def _one_entry_changed(m, r, c, delta):
    rows = [dict(row) for row in m.sparse_rows]
    x = rows[r].get(c, ZERO) + delta
    if x:
        rows[r][c] = x
    else:
        del rows[r][c]
    return Mat._of([dict(sorted(row.items())) for row in rows], m.cols)


def _gl_map(sigma):
    n = sigma.rows
    zero = Mat.zero(n, n)
    return vstack(hstack(sigma, zero), hstack(zero, inverse(sigma).transpose()))


def _isometry_cases():
    g = SplitMix64(23)
    for _, q in _catalog():
        _, w, iso = decompose_as_tstar(q, q.alg.derived())
        q2 = tstar_extend(w)
        yield q, q2, iso
        for _ in range(4):
            r, c = g.randint(0, q.dim - 1), g.randint(0, q.dim - 1)
            yield q, q2, _one_entry_changed(iso, r, c, g.nonzero_entry())
    for _, q in _catalog():
        # a shear of the base: form-preserving, and the first pair it
        # breaks moves with the sheared entry
        n = q.dim // 2
        r, c = g.randint(0, n - 1), g.randint(0, n - 1)
        if r != c:
            yield q, q, _gl_map(_one_entry_changed(Mat.identity(n), r, c,
                                                   g.nonzero_entry()))
    for e in CATALOG[:12]:
        t = e.trivector
        sigma = random_invertible(e.n, e.n)
        q1 = algebra_from_trivector(t)
        q2 = algebra_from_trivector(gl_act(sigma, t))
        m = _gl_map(sigma)
        yield q1, q2, m
        # form-preserving, but brackets go to the wrong algebra
        yield q1, q1, m
        yield q2, q1, _gl_map(random_invertible(e.n, e.n + 1))
    for c in list(_seeded_coeffs())[:16]:
        q = tstar_extend(c)
        shifted = dict(c.terms)
        key = sorted(shifted)[g.randint(0, len(shifted) - 1)]
        shifted[key] += g.nonzero_entry()
        q2 = tstar_extend(CocycleCoeffs(c.n, shifted))
        yield q, q2, Mat.identity(q.dim)
        yield q, q, Mat.identity(q.dim).scale(2)
        yield q, q, Mat.identity(q.dim)
    q = tstar_extend(random_coeffs(4, seed=3, nonzero=True))
    yield q, tstar_extend(random_coeffs(3, seed=3, nonzero=True)), \
        Mat.identity(q.dim)
    yield q, q, Mat.zero(q.dim, q.dim)


def test_is_isometry_matches_dense_reference():
    reasons = {}
    for q1, q2, m in _isometry_cases():
        got = is_isometry(q1, q2, m)
        assert got == _dense_is_isometry(q1, q2, m)
        kind = got[1].split(" at ")[0]
        reasons.setdefault(kind, set()).add(got[1])
    assert len(reasons["ok"]) == 1
    assert {"shape mismatch", "not invertible", "form not preserved"} <= \
        set(reasons)
    # the first failing pair is pinned at many different pairs
    assert len(reasons["bracket not preserved"]) >= 10

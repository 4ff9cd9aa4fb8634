"""Structure-constant Lie algebras: brackets, Jacobi, series, invariants."""
import itertools
from fractions import Fraction

import pytest

from quadlie import (LieAlgebra, Mat, SplitMix64, Subspace, ValidationError,
                     abelian, from_bracket_table, heisenberg, kernel)


def test_constructor_canonicalizes():
    # zero vectors dropped, entries coerced, key order irrelevant
    a = LieAlgebra(3, {(1, 2): (0, 0, 1), (1, 3): (0, 0, 0)})
    assert set(a.brackets) == {(1, 2)}
    assert a.brackets[(1, 2)] == (0, 0, 1)
    b = LieAlgebra(3, {(1, 2): ("0", "0", "1")})
    assert a == b


def test_constructor_rejects_bad_keys():
    with pytest.raises(ValueError):
        LieAlgebra(3, {(2, 1): (0, 0, 1)})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(1, 1): (0, 0, 1)})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(1, 4): (0, 0, 1)})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(1, 2): (0, 0)})


def test_bracket_antisymmetry():
    h = heisenberg()
    assert h.bracket_basis(1, 2) == (0, 0, 1)
    assert h.bracket_basis(2, 1) == (0, 0, -1)
    assert h.bracket_basis(1, 1) == (0, 0, 0)
    assert h.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert h.bracket((0, 1, 0), (1, 0, 0)) == (0, 0, -1)


def test_bracket_bilinearity():
    h = heisenberg()
    x = (Fraction(1, 2), Fraction(3), Fraction(0))
    y = (Fraction(2), Fraction(-1), Fraction(5))
    lhs = h.bracket(x, y)
    assert lhs == (0, 0, Fraction(1, 2) * (-1) - 3 * 2)
    assert h.bracket_basis_vec(1, y) == h.bracket((1, 0, 0), y)


def test_ad_matrix():
    h = heisenberg()
    ad1 = h.ad_basis(1)
    assert ad1.matvec((0, 1, 0)) == (0, 0, 1)
    assert ad1.matvec((1, 0, 0)) == (0, 0, 0)


def test_jacobi_defect_empty_on_lie():
    assert heisenberg().jacobi_defect() == []
    assert abelian(4).jacobi_defect() == []
    assert heisenberg().is_lie()


def test_jacobi_defect_nonlie():
    # [e1,e2] = e1, [e1,e3] = e2 fails Jacobi at the only triple
    a = LieAlgebra(3, {(1, 2): (1, 0, 0), (1, 3): (0, 1, 0)})
    assert a.jacobi_defect() == [(1, 2, 3, (0, -1, 0))]
    assert not a.is_lie()


def test_centre_and_derived():
    h = heisenberg()
    assert h.centre() == Subspace.from_rows(3, [(0, 0, 1)])
    assert h.derived() == Subspace.from_rows(3, [(0, 0, 1)])
    assert abelian(2).centre() == Subspace.full(2)
    assert abelian(2).derived() == Subspace.zero(2)


def test_lower_central_series_heisenberg():
    dims = [s.dim for s in heisenberg().lower_central_series()]
    assert dims == [3, 1, 0]
    assert heisenberg().nilindex() == 2


def test_upper_central_series():
    ucs = heisenberg().upper_central_series()
    assert [s.dim for s in ucs] == [1, 3]
    assert ucs[0] == heisenberg().centre()


def test_nilindex_edge_cases():
    assert abelian(3).nilindex() == 1
    assert abelian(0).nilindex() == 0
    # [e1,e2] = e2 is solvable but not nilpotent
    assert LieAlgebra(2, {(1, 2): (0, 1)}).nilindex() is None


def test_algebra_type_and_reduced():
    h = heisenberg()
    assert tuple(h.algebra_type()) == (1, 1)
    assert h.is_reduced()
    assert not abelian(2).is_reduced()
    assert abelian(0).is_reduced()


def test_direct_sum():
    s = heisenberg().direct_sum(abelian(2))
    assert s.dim == 5
    assert s.bracket_basis(1, 2) == (0, 0, 1, 0, 0)
    assert s.centre().dim == 3
    assert s.derived().dim == 1
    assert not s.is_reduced()
    assert tuple(s.algebra_type()) == (1, 3)


def test_permute_basis():
    h = heisenberg()
    # swap e1 and e3: [e3,e2] = e1 i.e. [e2,e3] = -e1
    p = h.permute_basis((3, 2, 1))
    assert p.bracket_basis(2, 3) == (-1, 0, 0)
    assert p.permute_basis((3, 2, 1)) == h


def test_from_bracket_table():
    a = from_bracket_table(3, {(1, 2): {3: 1}})
    assert a == heisenberg()
    b = from_bracket_table(4, {(1, 2): {3: "1/2", 4: -1}})
    assert b.bracket_basis(1, 2) == (0, 0, Fraction(1, 2), -1)


def test_two_step_brackets_central_implies_lie():
    # if A^2 lies in the centre, Jacobi holds for free; spot-check random data
    g = SplitMix64(314)
    for _ in range(25):
        n = 2 + g.randint(0, 3)
        m = 1 + g.randint(0, 2)
        dim = n + m
        br = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                v = [0] * dim
                for k in range(n + 1, dim + 1):
                    if g.randint(0, 1):
                        v[k - 1] = g.nonzero_entry()
                if any(v):
                    br[(i, j)] = v
        a = LieAlgebra(dim, br)
        assert a.centre().contains(a.derived())
        assert a.jacobi_defect() == []


def test_jacobi_defect_cache_survives_caller_mutation():
    a = LieAlgebra(3, {(1, 2): (1, 0, 0), (1, 3): (0, 1, 0)})
    got = a.jacobi_defect()
    got.clear()
    assert a.jacobi_defect() == [(1, 2, 3, (0, -1, 0))]
    assert not a.is_lie()
    with pytest.raises(ValidationError) as e:
        a.nilindex()
    assert e.value.witness == (1, 2, 3)
    h = heisenberg()
    h.jacobi_defect().append((1, 2, 3, (0, 0, 1)))
    assert h.is_lie() and h.jacobi_defect() == []


# ---- differential check of the sparse Jacobi, centre and series ----

def _dense_ad_vec(alg, i, y):
    """[e_i, y] as the sum of y_b [e_i, e_b] over every b with y_b != 0."""
    out = [Fraction(0)] * alg.dim
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


def _dense_bracket(alg, x, y):
    """(x_i y_j - x_j y_i) [e_i, e_j] summed over every stored pair."""
    out = [Fraction(0)] * alg.dim
    for (i, j), w in alg.brackets.items():
        c = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if c:
            for r, e in enumerate(w):
                if e:
                    out[r] += c * e
    return tuple(out)


def _dense_permute_basis(alg, perm):
    """f_r = e_{perm[r-1]}, with [f_r, f_s] read from dense basis brackets
    over every pair r < s."""
    inv = {old: new for new, old in enumerate(perm, start=1)}
    out = {}
    for r in range(1, alg.dim + 1):
        for s in range(r + 1, alg.dim + 1):
            w = alg.bracket_basis(perm[r - 1], perm[s - 1])
            if any(w):
                v = [Fraction(0)] * alg.dim
                for u, c in enumerate(w, start=1):
                    if c:
                        v[inv[u] - 1] = c
                out[(r, s)] = v
    return LieAlgebra(alg.dim, out)


def _seeded_vec(dim, g):
    """About a third of the entries zero, the rest nonzero in -3..3."""
    return tuple(g.nonzero_entry() if g.randint(0, 2) else Fraction(0)
                 for _ in range(dim))


def _seeded_perm(dim, g):
    perm = list(range(1, dim + 1))
    for k in range(dim - 1, 0, -1):
        t = g.randint(0, k)
        perm[k], perm[t] = perm[t], perm[k]
    return perm


def _perturbed(alg, g):
    """The same algebra with one stored bracket coefficient shifted."""
    brackets = {key: list(v) for key, v in alg.brackets.items()}
    key = sorted(brackets)[g.randint(0, len(brackets) - 1)]
    brackets[key][g.randint(0, alg.dim - 1)] += g.nonzero_entry()
    return LieAlgebra(alg.dim, brackets)


def _in_random_basis(alg, seed):
    """The same algebra in the basis f_k = sum_r P[r][k] e_r for a random
    invertible P: every structure constant tends to fill in."""
    from quadlie import inverse, random_invertible
    n = alg.dim
    p = random_invertible(n, seed)
    p_inv = inverse(p)
    cols = [p.col(k) for k in range(n)]
    return LieAlgebra(n, {(a + 1, b + 1): p_inv.matvec(alg.bracket(cols[a],
                                                                 cols[b]))
                          for a in range(n) for b in range(a + 1, n)})


def _dense_random(dim, g):
    """Every bracket value dense with entries in -3..3: almost never Lie."""
    return LieAlgebra(dim, {(i, j): [g.randint(-3, 3) for _ in range(dim)]
                            for i in range(1, dim + 1)
                            for j in range(i + 1, dim + 1)})


def _series_inputs():
    from quadlie import (CATALOG, GeneralCocycle, QuadraticStructure,
                         algebra_from_trivector, double_extend_1d,
                         hyperbolic_form, lambda_trivector, random_coeffs,
                         tstar_extend)
    from quadlie.acceptance import _jordan_extension
    from quadlie.randgen import random_skew_derivation
    for entry in CATALOG:
        yield algebra_from_trivector(entry.trivector).alg
    for lam in (1, "-2/3", "3/2"):
        yield algebra_from_trivector(lambda_trivector(lam)).alg
    g = SplitMix64(2718)
    for seed in range(30):
        alg = tstar_extend(random_coeffs(3 + seed % 5, seed=seed,
                                         nonzero=True)).alg
        yield alg
        yield _perturbed(alg, g)
    det = GeneralCocycle(heisenberg(), {
        (1, 2): (0, 0, 1), (1, 3): (0, -1, 0), (2, 3): (1, 0, 0)})
    yield tstar_extend(det).alg
    yield _in_random_basis(tstar_extend(det).alg, 1)
    for n in range(2, 7):
        yield _jordan_extension(n).alg
        if n < 5:
            yield _in_random_basis(_jordan_extension(n).alg, n)
    for seed in range(12):
        m = 2 + seed % 2
        aq = (tstar_extend(random_coeffs(3, seed=seed, nonzero=True))
              if seed % 3 == 0 else
              QuadraticStructure(abelian(2 * m), hyperbolic_form(m)))
        yield double_extend_1d(aq, random_skew_derivation(aq, seed)).alg
    for seed in range(12):
        yield _dense_random(3 + seed % 5, g)
    yield abelian(0)
    yield abelian(4)
    yield heisenberg().direct_sum(abelian(2))


def test_jacobi_centre_and_series_match_dense_definitions():
    cases = lie = 0
    steps = set()
    g = SplitMix64(1414)
    for alg in _series_inputs():
        want = _dense_jacobi_defect(alg)
        assert alg.jacobi_defect() == want
        assert alg.centre() == _dense_centre(alg)
        y = tuple(Fraction(k % 3 - 1, 1 + k % 2) for k in range(alg.dim))
        for i in range(1, alg.dim + 1):
            assert alg.bracket_basis_vec(i, y) == _dense_ad_vec(alg, i, y)
        # the sparse storage against the dense brackets it was built from
        x, z = _seeded_vec(alg.dim, g), _seeded_vec(alg.dim, g)
        assert alg.bracket(x, z) == _dense_bracket(alg, x, z)
        perm = _seeded_perm(alg.dim, g)
        assert alg.permute_basis(perm) == _dense_permute_basis(alg, perm)
        assert LieAlgebra(alg.dim, alg.brackets) == alg
        cases += 1
        if want:
            with pytest.raises(ValidationError) as e:
                alg.lower_central_series()
            assert e.value.witness == want[0][:3]
            continue
        lie += 1
        lcs = alg.lower_central_series()
        assert lcs == _dense_lower_central_series(alg)
        assert alg.upper_central_series() == _dense_upper_central_series(alg)
        steps.add(alg.nilindex())
    # Lie and non-Lie inputs are both well represented, and the series
    # reach past two steps (the determinant cocycle and two-block maps)
    assert cases == 22 + 3 + 2 * 30 + 2 + 5 + 3 + 12 + 12 + 3
    assert 40 < lie < cases - 20
    assert {0, 1, 2, 3, 4, 5, 6} <= steps


def test_chain_cocycle_at_dim_120():
    # the invariants read the stored brackets only, so a sparse algebra
    # well past the catalog stays cheap (the dense passes took minutes)
    from quadlie import CocycleCoeffs, tstar_extend
    n = 60
    alg = tstar_extend(CocycleCoeffs(
        n, {(i, i + 1, i + 2): 1 for i in range(1, n - 1)})).alg
    assert alg.dim == 120
    assert alg.nilindex() == 2
    assert alg.centre().dim == 60
    assert alg.is_reduced()
    assert alg.upper_central_series() == [alg.centre(),
                                          Subspace.full(120)]

"""Exact linear algebra: RREF, kernel, solve, inverse, subspaces."""
from fractions import Fraction

import pytest

from quadlie.linalg import (Mat, Subspace, basis_vec, hstack, inverse, kernel,
                            rank, rref, scalar, scalar_str, solve, vec,
                            vstack, zero_vec)


def test_scalar_coercion():
    assert scalar(3) == Fraction(3)
    assert scalar("2/5") == Fraction(2, 5)
    assert scalar(Fraction(-1, 7)) == Fraction(-1, 7)
    with pytest.raises(TypeError):
        scalar(0.5)


def test_scalar_str_lowest_terms():
    assert scalar_str(Fraction(4, 6)) == "2/3"
    assert scalar_str(Fraction(-3)) == "-3"


def test_vec_helpers():
    assert vec([1, "1/2"]) == (Fraction(1), Fraction(1, 2))
    assert zero_vec(3) == (Fraction(0),) * 3
    assert basis_vec(3, 2) == (0, 1, 0)
    with pytest.raises(ValueError):
        basis_vec(3, 4)


def test_mat_construct_and_shape():
    m = Mat([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.entry(1, 0) == 3
    assert m.col(1) == (2, 4)
    with pytest.raises(ValueError):
        Mat([[1, 2], [3]])


def test_mat_zero_identity():
    z = Mat.zero(2, 3)
    assert z.is_zero() and z.rows == 2 and z.cols == 3
    assert Mat.identity(2) == Mat([[1, 0], [0, 1]])
    assert Mat.from_rows([], cols=4).cols == 4
    with pytest.raises(ValueError):
        Mat.from_rows([])


def test_mat_symmetry_predicates():
    assert Mat([[0, 1], [1, 0]]).is_symmetric()
    assert not Mat([[0, 1], [-1, 0]]).is_symmetric()
    assert Mat([[0, 1], [-1, 0]]).is_skew()
    assert not Mat([[1, 0], [0, 0]]).is_skew()
    assert not Mat([[0, 1, 0], [0, 0, 1]]).is_skew()


def test_mat_arithmetic():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    assert a + b == Mat([[1, 3], [4, 4]])
    assert a - b == Mat([[1, 1], [2, 4]])
    assert -a == Mat([[-1, -2], [-3, -4]])
    assert a.scale("1/2") == Mat([["1/2", 1], ["3/2", 2]])
    assert a * b == Mat([[2, 1], [4, 3]])
    assert a.matvec((1, 1)) == (3, 7)
    assert a.transpose() == Mat([[1, 3], [2, 4]])


def test_mat_shape_errors():
    a = Mat([[1, 2]])
    with pytest.raises(ValueError):
        a + Mat([[1], [2]])
    with pytest.raises(ValueError):
        a * Mat([[1, 2]])
    with pytest.raises(ValueError):
        a.matvec((1, 2, 3))


def test_stacking():
    a = Mat([[1, 2]])
    b = Mat([[3, 4]])
    assert hstack(a, b) == Mat([[1, 2, 3, 4]])
    assert vstack(a, b) == Mat([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        hstack(a, Mat([[1, 2], [3, 4]]))


def test_rref_known():
    m = Mat([[1, 2, 1], [2, 4, 0], [0, 0, 1]])
    r, piv = rref(m)
    assert piv == (0, 2)
    assert r == Mat([[1, 2, 0], [0, 0, 1], [0, 0, 0]])


def test_rref_fractional_pivot():
    r, piv = rref(Mat([["2/3", 1], [0, "5"]]))
    assert r == Mat([[1, 0], [0, 1]])
    assert piv == (0, 1)


def test_rank():
    assert rank(Mat([[1, 2], [2, 4]])) == 1
    assert rank(Mat.zero(3, 3)) == 0
    assert rank(Mat.identity(4)) == 4


def test_kernel():
    # x + 2y + z = 0, z = 0  ->  kernel = span{(-2, 1, 0)}
    k = kernel(Mat([[1, 2, 1], [0, 0, 1]]))
    assert k.dim == 1
    assert k.contains_vec((-2, 1, 0))
    assert not k.contains_vec((1, 0, 0))
    assert kernel(Mat.identity(3)).dim == 0
    assert kernel(Mat.zero(2, 3)).dim == 3


def test_solve():
    m = Mat([[1, 1], [0, 1]])
    assert solve(m, (3, 1)) == (2, 1)
    # inconsistent
    assert solve(Mat([[1, 1], [1, 1]]), (0, 1)) is None
    # underdetermined: free variables pinned to 0
    s = solve(Mat([[1, 1, 0]]), (5,))
    assert s is not None and Mat([[1, 1, 0]]).matvec(s) == (5,)
    assert s == (5, 0, 0)


def test_inverse():
    m = Mat([[1, 2], [3, 4]])
    assert m * inverse(m) == Mat.identity(2)
    assert inverse(Mat.identity(3)) == Mat.identity(3)
    with pytest.raises(ValueError):
        inverse(Mat([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        inverse(Mat.zero(2, 3))


def test_subspace_canonical_equality():
    # same plane, different generating sets
    a = Subspace.from_rows(3, [(1, 0, 1), (0, 1, 0)])
    b = Subspace.from_rows(3, [(1, 1, 1), (2, 1, 2)])
    assert a == b
    assert a.dim == 2
    assert hash(a) == hash(b)


def test_subspace_membership_and_ops():
    s = Subspace.from_rows(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    t = Subspace.from_rows(4, [(0, 1, 0, 0), (0, 0, 1, 0)])
    assert s.contains_vec((3, -2, 0, 0))
    assert not s.contains_vec((0, 0, 1, 0))
    assert s.intersect(t) == Subspace.from_rows(4, [(0, 1, 0, 0)])
    assert s.sum(t).dim == 3
    assert s.contains(Subspace.from_rows(4, [(1, 1, 0, 0)]))
    assert not s.contains(t)


def test_subspace_zero_full():
    z = Subspace.zero(3)
    f = Subspace.full(3)
    assert z.dim == 0 and f.dim == 3
    assert f.contains(z) and f.contains_vec((1, 2, 3))
    assert list(f.vectors()) == [tuple(Mat.identity(3).row(i)) for i in range(3)]


def test_subspace_dedupes_dependent_rows():
    s = Subspace.from_rows(3, [(1, 2, 0), (2, 4, 0), (0, 0, 0)])
    assert s.dim == 1
    assert s.contains_vec(("1/2", 1, 0))


def test_empty_results_keep_their_shape():
    e = Mat.zero(0, 2)
    m = Mat([[1, 2], [3, 4]])
    assert (e * m).rows == 0 and (e * m).cols == 2
    assert Mat.zero(2, 0) * Mat.zero(0, 3) == Mat.zero(2, 3)
    for r in (e + e, e - e, -e, e.scale(2)):
        assert (r.rows, r.cols) == (0, 2)
    assert e.transpose() == Mat.zero(2, 0)
    assert Mat.zero(2, 0).transpose() == Mat.zero(0, 2)
    assert hstack(Mat.zero(0, 1), e) == Mat.zero(0, 3)
    # a kernel of the empty 0x2 product is the whole plane
    assert kernel(e * m) == Subspace.full(2)


def test_contains_matches_rank_reference():
    # v lies in S exactly when adding it keeps the dimension
    from quadlie import SplitMix64
    g = SplitMix64(4242)
    inside = outside = 0
    for seed in range(40):
        n = 1 + seed % 7
        s = Subspace.from_rows(n, [[g.randint(-2, 2) if g.randint(0, 1)
                                    else 0 for _ in range(n)]
                                   for _ in range(g.randint(0, n))])
        combos = [[sum((Fraction(g.randint(-3, 3), g.randint(1, 3)) * r[j]
                        for r in s.basis.data), start=Fraction(0))
                   for j in range(n)] for _ in range(3)]
        randoms = [[g.randint(-2, 2) for _ in range(n)] for _ in range(3)]
        for v in combos + randoms:
            want = s.sum(Subspace.from_rows(n, [v])).dim == s.dim
            assert s.contains_vec(v) == want
            assert s.contains(Subspace.from_rows(n, [v])) == want
            inside += want
            outside += not want
        t = Subspace.from_rows(n, combos + randoms[:1])
        assert s.contains(t) == (s.sum(t).dim == s.dim)
    assert inside > 100 and outside > 50


# ---- the sparse rref against the dense Gauss-Jordan it replaced ----

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
    return Mat._of(rows, nc), tuple(pivots)


def _recorded_systems(monkeypatch):
    """Every distinct matrix that centre, derived, derivation_space and
    Subspace.intersect hand to rref on the catalog and on every 25th seed
    of the corpora of criteria 4 and 5."""
    from quadlie import (CATALOG, algebra_from_trivector, derivation_space,
                         double_extend_1d, random_coeffs, tstar_extend)
    from quadlie import linalg
    from quadlie.acceptance import _random_extension_case
    seen = {}
    real = linalg.rref

    def record(m):
        seen.setdefault((m.cols, m.data), m)
        return real(m)

    monkeypatch.setattr(linalg, "rref", record)
    cases = [(algebra_from_trivector(e.trivector), e.n <= 5)
             for e in CATALOG]
    cases += [(tstar_extend(random_coeffs(3 + s % 5, seed=s)), True)
              for s in range(1000, 1500, 25)]
    for s in range(2000, 2100, 25):
        aq, d = _random_extension_case(s)
        cases += [(aq, True), (double_extend_1d(aq, d), False)]
    for q, with_derivations in cases:
        alg = q.alg
        alg.centre().intersect(alg.derived())
        if with_derivations:
            derivation_space(q)
    monkeypatch.undo()
    return list(seen.values())


def _random_systems():
    """Seeded matrices with fractional entries: rank-deficient ones, mostly
    zeros, with some rows repeated or scaled; fully dense ones up to 30x30;
    and ones whose numerators and denominators pass 2**64, with rows that
    are other rows times large scales."""
    from quadlie import SplitMix64
    g = SplitMix64(777)
    big = 2 ** 64

    def system(nr, nc, entry, density, scale):
        rows = [[entry() if g.randint(0, density) == 0 else Fraction(0)
                 for _ in range(nc)] for _ in range(g.randint(1, nr))]
        while len(rows) < nr:
            c = scale()
            rows.insert(g.randint(0, len(rows)),
                        [c * e for e in rows[g.randint(0, len(rows) - 1)]])
        return Mat(rows)

    def small():
        return Fraction(g.randint(-4, 4), g.randint(1, 5))

    def huge():
        # randint spans at most 2**64 values
        sign = 1 - 2 * g.randint(0, 1)
        return Fraction(sign * (g.randint(1, 9) * big + g.next_u64()),
                        g.randint(1, 9) * big + g.next_u64() + 1)

    out = [system(g.randint(1, 9), g.randint(1, 9), small, 2,
                  lambda: Fraction(g.randint(-3, 3), g.randint(1, 3)))
           for _ in range(150)]
    for k in range(12):
        n = 6 + 2 * k
        out.append(system(n, g.randint(n - 3, n), small, 0,
                          lambda: Fraction(g.randint(-3, 3), g.randint(1, 3))))
    for k in range(30):
        out.append(system(g.randint(1, 9), g.randint(1, 9),
                          huge if k % 2 else small, 1, huge))
    return out


def test_rref_matches_dense_reference(monkeypatch):
    systems = _recorded_systems(monkeypatch)
    shapes = {(m.rows, m.cols) for m in systems}
    assert len(systems) > 100 and max(r for r, _ in shapes) > 200
    systems += _random_systems()
    systems += [Mat.zero(0, 3), Mat.zero(3, 0), Mat.zero(0, 0)]
    deficient = 0
    for m in systems:
        got, want = rref(m), _dense_rref(m)
        assert got == want, m
        assert (got[0].rows, got[0].cols) == (m.rows, m.cols)
        deficient += len(got[1]) < min(m.rows, m.cols)
    assert deficient > 100


# ---- the sparse view of a matrix ----

def _assert_view(m):
    """sparse_rows holds each row's nonzero entries, columns ascending."""
    assert len(m.sparse_rows) == m.rows
    for r, row in zip(m.data, m.sparse_rows):
        assert list(row.items()) == [(j, e) for j, e in enumerate(r) if e]


def test_sparse_rows_match_dense_rows(monkeypatch):
    systems = _recorded_systems(monkeypatch) + _random_systems()
    systems += [Mat.zero(0, 3), Mat.zero(3, 0), Mat.zero(2, 2)]
    systems += [Mat([[0, "1/2", 0], [3, 0, -1]]), Mat.identity(3)]
    systems.append(Mat._of([(Fraction(0), Fraction(5)),
                            (Fraction(-2), Fraction(0))], 2))
    for m in systems:
        _assert_view(m)
        # a matrix given its sparse rows alone makes the same dense rows
        dense = Mat._of(m.data, m.cols)
        alone = Mat._of(None, m.cols, dense.sparse_rows)
        assert (alone.rows, alone.cols) == (m.rows, m.cols)
        assert alone.data == dense.data
        assert alone == dense and hash(alone) == hash(dense)
        t = m.transpose()
        _assert_view(t)
        _assert_view(m * t)
        R, pivots = rref(m)
        _assert_view(R)
        assert not any(R.sparse_rows[len(pivots):])
        span = Subspace.from_rows(m.cols, m.data)
        for s in (span, kernel(m), kernel(t), kernel(m).sum(kernel(t * m)),
                  kernel(m).intersect(span)):
            _assert_view(s.basis)
            # contains_vec takes a basis row's first key as its pivot
            assert [next(iter(r)) for r in s.basis.sparse_rows] == \
                list(rref(s.basis)[1])

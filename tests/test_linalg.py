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
    assert a.vecmat((1, 1)) == (4, 6)
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

"""Structure-constant Lie algebras: brackets, Jacobi, series, invariants."""
from fractions import Fraction

import pytest

from quadlie import (LieAlgebra, SplitMix64, Subspace, ValidationError,
                     abelian, from_bracket_table, heisenberg)


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

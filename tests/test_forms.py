"""Invariant forms, orthogonal complements, lagrangians, isometries."""
from fractions import Fraction

import pytest

from quadlie import (LieAlgebra, Mat, QuadraticStructure, Subspace,
                     ValidationError, abelian, catalog, heisenberg,
                     hyperbolic_form, invariance_defect, is_isometry,
                     is_lagrangian, lagrangian_complement,
                     orthogonal_complement, parse_coeffs, permute_quadratic,
                     tstar_extend)
from quadlie.randgen import SplitMix64, random_coeffs
from reference import (_dense_contains_vec, _dense_invariance_defect,
                       _ref_greedy_lagrangian_complement, _ref_greedy_picks,
                       basis_vec)


def test_hyperbolic_form_shape():
    f = hyperbolic_form(2)
    assert f == Mat([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert f.is_symmetric()
    assert hyperbolic_form(0) == Mat.zero(0, 0)


def test_invariance_defect_empty_for_tstar():
    q = tstar_extend(random_coeffs(4, seed=8, nonzero=True))
    assert invariance_defect(q.alg, q.form) == []


def test_invariance_defect_catches_sign_flip():
    # Heisenberg double: flipping one structure constant breaks invariance
    a = LieAlgebra(6, {(1, 2): (0, 0, 0, 0, 0, 1),
                       (1, 3): (0, 0, 0, 0, -1, 0),
                       (2, 3): (0, 0, 0, -1, 0, 0)})  # [e2,e3] sign wrong
    bad = invariance_defect(a, hyperbolic_form(3))
    assert bad != []
    assert all(len(t) == 3 for t in bad)


@pytest.mark.parametrize("key, slot", [((1, 3), 4), ((2, 3), 3)],
                         ids=["[e1,e3]", "[e2,e3]"])
def test_invariance_defect_on_fractional_brackets(key, slot):
    # c_123 = 2/3: [e1,e2] = 2/3 e3*, [e1,e3] = -2/3 e2*, [e2,e3] = 2/3 e1*
    # among others. Putting 5 for 3 in one denominator breaks invariance
    # without changing any numerator
    q = tstar_extend(parse_coeffs("2/3*[1,2,3]"))
    assert invariance_defect(q.alg, q.form) == []
    brackets = {k: list(v) for k, v in q.alg.brackets.items()}
    c = brackets[key][slot]
    assert abs(c) == Fraction(2, 3)
    brackets[key][slot] = Fraction(c.numerator, 5)
    alg = LieAlgebra(6, brackets)
    want = _dense_invariance_defect(alg, q.form)
    assert want != []
    assert invariance_defect(alg, q.form) == want


def test_invariance_defect_validates_input():
    with pytest.raises(ValidationError) as e:
        invariance_defect(heisenberg(), hyperbolic_form(2))
    assert e.value.law == "shape"
    with pytest.raises(ValidationError) as e:
        invariance_defect(abelian(2), Mat([[0, 1], [0, 0]]))
    assert e.value.law == "symmetric"


def test_phi_rejects_vectors_of_the_wrong_length():
    # zip once dropped the extra entries of x and read a short x as padded
    q = QuadraticStructure(abelian(4), hyperbolic_form(2))
    assert q.phi((1, 0, 0, 0), (0, 0, 1, 0)) == 1
    for x, y in (((1,), (0, 0, 1, 0)), ((1, 0, 0, 0, 5, 6), (0, 0, 1, 0)),
                 ((1, 0, 0, 0), (0, 0, 1)), ((), ())):
        with pytest.raises(ValueError, match="vector length mismatch"):
            q.phi(x, y)


def test_phi_matches_the_dense_form():
    from quadlie import CATALOG
    g = SplitMix64(41)
    for e in CATALOG[:6]:
        q = tstar_extend(e.trivector)
        f = q.form.data
        for _ in range(5):
            x = [g.randint(-2, 2) for _ in range(q.dim)]
            y = [Fraction(g.randint(-3, 3), g.randint(1, 3))
                 for _ in range(q.dim)]
            assert q.phi(x, y) == sum(x[i] * f[i][j] * y[j]
                                      for i in range(q.dim)
                                      for j in range(q.dim))


def test_quadratic_structure_validates():
    q = QuadraticStructure(abelian(4), hyperbolic_form(2))
    assert q.dim == 4
    assert q.phi((1, 0, 0, 0), (0, 0, 2, 0)) == 2
    with pytest.raises(ValidationError) as e:
        QuadraticStructure(abelian(2), Mat.zero(2, 2))
    assert e.value.law == "nondegenerate"
    with pytest.raises(ValidationError) as e:
        QuadraticStructure(heisenberg(), Mat.identity(3))
    assert e.value.law == "invariance"
    assert e.value.witness is not None


def test_orthogonal_complement_basic():
    q = QuadraticStructure(abelian(4), hyperbolic_form(2))
    s = Subspace.from_rows(4, [(1, 0, 0, 0)])
    # e1 pairs only with e1*: complement is span{e1, e2, e2*}
    perp = orthogonal_complement(q, s)
    assert perp == Subspace.from_rows(4, [(1, 0, 0, 0), (0, 1, 0, 0),
                                          (0, 0, 0, 1)])
    assert orthogonal_complement(q, Subspace.zero(4)) == Subspace.full(4)
    assert orthogonal_complement(q, Subspace.full(4)) == Subspace.zero(4)


def test_orthogonal_complement_duality():
    q = tstar_extend(random_coeffs(5, seed=21, nonzero=True))
    d = q.alg.derived()
    z = q.alg.centre()
    assert orthogonal_complement(q, d) == z
    assert orthogonal_complement(q, z) == d


def test_is_lagrangian():
    q = QuadraticStructure(abelian(6), hyperbolic_form(3))
    stars = Subspace.from_rows(6, [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0),
                                   (0, 0, 0, 0, 0, 1)])
    assert is_lagrangian(q, stars)
    # isotropic but too small
    assert not is_lagrangian(q, Subspace.from_rows(6, [(1, 0, 0, 0, 0, 0)]))
    # right dimension, not isotropic
    assert not is_lagrangian(q, Subspace.from_rows(
        6, [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]))


def test_lagrangian_complement_is_lagrangian_too():
    q = QuadraticStructure(abelian(6), hyperbolic_form(3))
    lag = Subspace.from_rows(6, [(1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                                 (0, 0, 0, 1, -1, 0)])
    assert is_lagrangian(q, lag)
    comp = lagrangian_complement(q, lag)
    assert is_lagrangian(q, comp)
    assert lag.intersect(comp).dim == 0
    assert lag.sum(comp) == Subspace.full(6)


def test_lagrangian_complement_rejects_non_lagrangian():
    q = QuadraticStructure(abelian(4), hyperbolic_form(2))
    with pytest.raises(ValidationError) as e:
        lagrangian_complement(q, Subspace.from_rows(4, [(1, 0, 0, 0)]))
    assert e.value.law == "lagrangian"


def test_lagrangian_complement_deterministic():
    q = QuadraticStructure(abelian(6), hyperbolic_form(3))
    lag = Subspace.from_rows(6, [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0),
                                 (0, 0, 0, 0, 0, 1)])
    assert lagrangian_complement(q, lag) == lagrangian_complement(q, lag)


def test_is_isometry_identity_and_failure():
    q = tstar_extend(random_coeffs(3, seed=4, nonzero=True))
    ok, why = is_isometry(q, q, Mat.identity(6))
    assert ok, why
    bad = Mat.identity(6).scale(2)
    ok, why = is_isometry(q, q, bad)
    assert not ok and "form" in why


def test_permute_quadratic_is_isometric():
    q = tstar_extend(random_coeffs(3, seed=4, nonzero=True))
    perm = (2, 3, 1, 5, 6, 4)
    p = permute_quadratic(q, perm)
    # the permutation matrix itself is the isometry q -> p
    m = Mat([[1 if perm[r] == c + 1 else 0 for c in range(6)]
             for r in range(6)])
    ok, why = is_isometry(q, p, m)
    assert ok, why


def test_ideal_iff_perp_ideal():
    # checked on subspaces of a catalog algebra
    def is_ideal(alg, s):
        return all(_dense_contains_vec(s, alg.bracket(basis_vec(alg.dim, i),
                                                      v))
                   for i in range(1, alg.dim + 1) for v in s.vectors())

    entry = catalog("L5,1")
    from quadlie import algebra_from_trivector
    q = algebra_from_trivector(entry.trivector)
    g = SplitMix64(99)
    cases = 0
    for _ in range(40):
        k = 1 + g.randint(0, q.dim - 2)
        rows = [[g.nonzero_entry() if g.randint(0, 1) else 0
                 for _ in range(q.dim)] for _ in range(k)]
        s = Subspace.from_rows(q.dim, rows)
        left = is_ideal(q.alg, s)
        right = is_ideal(q.alg, orthogonal_complement(q, s))
        assert left == right
        cases += left
    # the sample actually contains ideals (e.g. everything containing A^2)
    assert cases > 0


# ---- differential check of the sparse invariance defect ----

def _perturbed(alg, g):
    """The same algebra with one stored bracket coefficient shifted."""
    brackets = {key: list(v) for key, v in alg.brackets.items()}
    key = sorted(brackets)[g.randint(0, len(brackets) - 1)]
    brackets[key][g.randint(0, alg.dim - 1)] += g.nonzero_entry()
    return LieAlgebra(alg.dim, brackets)


def _random_symmetric(n, g):
    rows = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            if g.randint(0, 2) == 0:
                rows[r][c] = rows[c][r] = g.nonzero_entry()
    return Mat(rows)


def _differential_inputs():
    from quadlie import (CATALOG, algebra_from_trivector, double_extend_1d,
                         lambda_trivector)
    from quadlie.randgen import random_skew_derivation
    for entry in CATALOG:
        q = algebra_from_trivector(entry.trivector)
        yield q.alg, q.form
    for lam in (1, "3/2", -2):
        q = algebra_from_trivector(lambda_trivector(lam))
        yield q.alg, q.form
    g = SplitMix64(2024)
    for seed in range(40):
        q = tstar_extend(random_coeffs(3 + seed % 5, seed=seed, nonzero=True))
        yield q.alg, q.form
        yield _perturbed(q.alg, g), q.form
        yield q.alg, _random_symmetric(q.dim, g)
    for seed in range(12):
        m = 2 + seed % 2
        aq = (tstar_extend(random_coeffs(3, seed=seed, nonzero=True))
              if seed % 3 == 0 else
              QuadraticStructure(abelian(2 * m), hyperbolic_form(m)))
        ext = double_extend_1d(aq, random_skew_derivation(aq, seed))
        yield ext.alg, ext.form
        yield _perturbed(ext.alg, g), ext.form


def test_invariance_defect_matches_dense_definition():
    cases = invariant = 0
    for alg, form in _differential_inputs():
        want = _dense_invariance_defect(alg, form)
        assert invariance_defect(alg, form) == want
        cases += 1
        invariant += not want
    # both verdicts are well represented
    assert cases == 22 + 3 + 3 * 40 + 2 * 12
    assert 40 < invariant < cases - 40


def _lagrangian_inputs():
    """(q, s): the catalog's derived ideals, both halves of seeded
    T*-extensions, and seeded lagrangians of hyperbolic and of mixed forms
    (rows e_i + sum_j A[i][j] e_j* for an antisymmetric A, some e_i and e_i*
    swapped, carried by an invertible M to the form M H M^T)."""
    from quadlie import CATALOG, algebra_from_trivector, inverse
    from quadlie.randgen import random_invertible
    for e in CATALOG:
        q = algebra_from_trivector(e.trivector)
        yield q, q.alg.derived()
    for seed in range(30):
        n = 3 + seed % 4
        q = tstar_extend(random_coeffs(n, seed=300 + seed))
        for half in (range(n), range(n, 2 * n)):
            yield q, Subspace.from_rows(
                2 * n, [[int(j == i) for j in range(2 * n)] for i in half])
    g = SplitMix64(909)
    for seed in range(240):
        m = 1 + seed % 6
        rows = [[0] * (2 * m) for _ in range(m)]
        for i in range(m):
            rows[i][i] = 1
            for j in range(i + 1, m):
                if g.randint(0, 2):
                    c = g.nonzero_entry()
                    rows[i][m + j] += c
                    rows[j][m + i] -= c
        for i in range(m):
            if g.randint(0, 1):
                for r in rows:
                    r[i], r[m + i] = r[m + i], r[i]
        s = Subspace.from_rows(2 * m, rows)
        if seed % 3 == 1:
            M = random_invertible(2 * m, seed)
            form = M * hyperbolic_form(m) * M.transpose()
            s = Subspace.from_rows(2 * m, (s.basis * inverse(M)).data)
        else:
            form = hyperbolic_form(m)
        yield QuadraticStructure(abelian(2 * m), form), s


def test_lagrangian_complement_matches_greedy_transversal():
    transversals = set()
    cases = 0
    for q, s in _lagrangian_inputs():
        got = lagrangian_complement(q, s)
        assert got == _ref_greedy_lagrangian_complement(q, s)
        transversals.add((q.dim, tuple(_ref_greedy_picks(q, s))))
        cases += 1
    assert cases > 300 and len(transversals) > 35
    # a subspace that is not lagrangian fails the same way
    q = QuadraticStructure(abelian(4), hyperbolic_form(2))
    s = Subspace.from_rows(4, [[1, 0, 1, 0]])
    for f in (lagrangian_complement, _ref_greedy_lagrangian_complement):
        with pytest.raises(ValidationError) as e:
            f(q, s)
        assert e.value.law == "lagrangian"

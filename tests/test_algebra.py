"""Structure-constant Lie algebras: brackets, Jacobi, series, invariants."""
import re
from fractions import Fraction
from math import lcm

import pytest

from quadlie import (LieAlgebra, Mat, SplitMix64, Subspace, ValidationError,
                     abelian, from_bracket_table, heisenberg)
from reference import (_dense_ad_vec, _dense_bracket, _dense_centre,
                       _dense_cols, _dense_direct_sum, _dense_jacobi_defect,
                       _dense_lower_central_series, _dense_matvec,
                       _dense_permute_basis, _old_ad_index, basis_vec)


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


def test_constructor_rejects_labels_that_are_not_ints():
    # a float or bool label fails with the bad-key error, rather than being
    # stored and failing later as a list index
    for key in ((True, 2), (2.0, 3), (1, 2.0), (2, True)):
        with pytest.raises(ValueError, match=re.escape(
                f"bracket key ({key[0]},{key[1]}) not 1 <= i < j <= 3")):
            LieAlgebra(3, {key: (0, 0, 1)})


def test_bracket_antisymmetry():
    h = heisenberg()
    assert h.brackets == {(1, 2): (0, 0, 1)}
    assert h.bracket((1, 0, 0), (1, 0, 0)) == (0, 0, 0)
    assert h.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert h.bracket((0, 1, 0), (1, 0, 0)) == (0, 0, -1)


def test_bracket_bilinearity():
    h = heisenberg()
    x = (Fraction(1, 2), Fraction(3), Fraction(0))
    y = (Fraction(2), Fraction(-1), Fraction(5))
    lhs = h.bracket(x, y)
    assert lhs == (0, 0, Fraction(1, 2) * (-1) - 3 * 2)


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
    s = _dense_direct_sum(heisenberg(), abelian(2))
    assert s.dim == 5
    assert s.brackets == {(1, 2): (0, 0, 1, 0, 0)}
    assert s.centre().dim == 3
    assert s.derived().dim == 1
    assert not s.is_reduced()
    assert tuple(s.algebra_type()) == (1, 3)


def test_permute_basis():
    h = heisenberg()
    # swap e1 and e3: [e3,e2] = e1 i.e. [e2,e3] = -e1
    p = h.permute_basis((3, 2, 1))
    assert p.brackets == {(2, 3): (-1, 0, 0)}
    assert p.permute_basis((3, 2, 1)) == h


def test_from_bracket_table():
    a = from_bracket_table(3, {(1, 2): {3: 1}})
    assert a == heisenberg()
    b = from_bracket_table(4, {(1, 2): {3: "1/2", 4: -1}})
    assert b.brackets == {(1, 2): (0, 0, Fraction(1, 2), -1)}


@pytest.mark.parametrize("k", [0, -1, 4, True, False, 1.5, "2"])
def test_from_bracket_table_rejects_labels_outside_the_basis(k):
    # label 0 once stored its coefficient at e_3, and label 4 raised
    # IndexError; True stored it at e_1, and 1.5 and "2" raised TypeError
    with pytest.raises(ValueError, match=f"basis label out of range: {k}$"):
        from_bracket_table(3, {(1, 2): {k: 1}})


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
    cols = _dense_cols(p)
    inv = p_inv.data
    return LieAlgebra(n, {(a + 1, b + 1): _dense_matvec(
        inv, alg.bracket(cols[a], cols[b]))
        for a in range(n) for b in range(a + 1, n)})


def _random_dense_algebra(dim, g):
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
        yield _random_dense_algebra(3 + seed % 5, g)
    yield abelian(0)
    yield abelian(4)
    yield _dense_direct_sum(heisenberg(), abelian(2))


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
            assert alg.bracket(basis_vec(alg.dim, i), y) == \
                _dense_ad_vec(alg, i, y)
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
        steps.add(alg.nilindex())
    # Lie and non-Lie inputs are both well represented, and the series
    # reach past two steps (the determinant cocycle and two-block maps)
    assert cases == 22 + 3 + 2 * 30 + 2 + 5 + 3 + 12 + 12 + 3
    assert 40 < lie < cases - 20
    assert {0, 1, 2, 3, 4, 5, 6} <= steps


def _rational_tstar_algebras(g):
    """T*-extensions of seeded coefficients with entries p/q, p in -3..3
    nonzero and q in 2..7, each with a seeded relabelling of it."""
    from itertools import combinations
    from quadlie import CocycleCoeffs, tstar_extend
    for seed in range(8):
        n = 3 + seed % 4
        alg = tstar_extend(CocycleCoeffs(n, {
            t: Fraction(g.nonzero_entry(), g.randint(2, 7))
            for t in combinations(range(1, n + 1), 3)
            if g.randint(0, 1)} or {(1, 2, 3): Fraction(-5, 6)})).alg
        yield alg
        yield alg.permute_basis(_seeded_perm(alg.dim, g))


def test_ad_index_signs_the_stored_brackets():
    # each entry is the stored tuple with a sign, never a copy, and expands
    # to the negated-copy index it replaced; the centre's rows read it
    g = SplitMix64(3232)
    algs = list(_series_inputs()) + list(_rational_tstar_algebras(g))
    fractional = 0
    for alg in algs:
        old = _old_ad_index(alg)
        ad = alg._ad_index()
        assert [[(y, tuple((r, sign * c) for r, c in nz))
                 for y, sign, nz in pairs] for pairs in ad] == old
        for r, pairs in enumerate(ad):
            for y, sign, nz in pairs:
                assert sign == (1 if r < y else -1)
                assert nz is alg.terms[(min(r, y) + 1, max(r, y) + 1)]
        # the centre's rows are L times the rows read from the old index,
        # in integers, L the lcm of the stored denominators
        L = lcm(*[c.denominator for nz in alg.terms.values() for _, c in nz])
        rows = {}
        for s, pairs in enumerate(old):
            for y, nz in pairs:
                for r, c in nz:
                    rows.setdefault((s, r), {})[y] = L * c
        got, scale = alg._ad_rows()
        assert scale == L
        assert all(type(e) is int for v in got.values() for e in v.values())
        assert [(k, list(v.items())) for k, v in got.items()] == \
            [(k, list(v.items())) for k, v in rows.items()]
        fractional += any(c < 0 and c.denominator != 1
                          for nz in alg.terms.values() for _, c in nz)
    # every rational T*-extension and its relabelling has a negative
    # non-integer coefficient
    assert fractional >= 16


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
    # two steps: A^2 is central
    assert alg.centre().contains(alg.derived())


def test_derived_is_eliminated_once_per_algebra(monkeypatch):
    # count the eliminations of the stored brackets' span across the
    # readers of derived() on one algebra, and those of the centre's
    # kernel system across the readers of centre()
    from quadlie import algebra_from_trivector, catalog, linalg
    from quadlie.tstar import find_lagrangian_ideal
    q = algebra_from_trivector(catalog("L6,1").trivector)
    alg = q.alg
    rows = Mat._of([dict(nz) for nz in alg.terms.values()], alg.dim)
    centre_rows = Mat._of(alg._ad_rows()[0].values(), alg.dim)
    real = linalg._eliminate
    runs = []
    centre_runs = []

    def counting(m):
        runs.append(m == rows)
        centre_runs.append(m == centre_rows)
        return real(m)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    assert alg.is_reduced()
    assert alg.algebra_type() == (6, 6)
    assert [s.dim for s in alg.lower_central_series()] == [12, 6, 0]
    assert find_lagrangian_ideal(q) == alg.derived()
    assert runs.count(True) == 1 and len(runs) > 1
    assert centre_runs.count(True) == 1

"""Fraction-free sums (`linalg._isum`) against the Fraction loops they
replaced, on rational inputs.

Every benchmark workload has integer entries only, so a sum there never
meets a denominator other than 1. The corpus here does: T*-extensions of
cocycles with denominators 1 to 7 and both signs, the lambda family at
-2/3 and 5/4, changes of basis by the inverse of a random invertible
matrix (rational brackets and rational forms), and double extensions of
those by rational skew derivations. Products such as m m^-1 and the
cyclic sums of a Lie algebra cancel to zero. Each path must equal the
dense reference and the moved Fraction loop in `reference.py` exactly.
"""
import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

import quadlie.forms
from quadlie import (CATALOG, CocycleCoeffs, LieAlgebra, Mat,
                     QuadraticStructure, SplitMix64, abelian,
                     algebra_from_trivector, build_chain, chain_dcoeffs,
                     derivation_defect, derivation_space, double_extend_1d,
                     hyperbolic_form, inverse, is_isometry,
                     lambda_trivector,
                     random_invertible, random_skew_derivation, rref,
                     tstar_extend)
from quadlie.acceptance import _jordan_extension
from quadlie.alternating import AltCoeffs
from quadlie.doubleext import _derivation_map, _entries
from quadlie.linalg import _divide, _isum
from quadlie.randgen import random_coeffs
from reference import (_dense_bracket, _dense_cols, _dense_inverse,
                       _dense_jacobi_defect, _dense_lower_central_series,
                       _dense_matvec, _old_bracket, _old_chain_dcoeffs,
                       _old_derivation_defect, _old_derivation_map,
                       _old_derivation_space, _old_fsum, _old_is_isometry,
                       _old_jacobi_defect, _old_lower_central_series,
                       _old_mul, _old_random_skew_derivation,
                       _old_sparse_mul, _old_transpose,
                       _ref_derivation_defect, _ref_derivation_space)

F = Fraction


def _rational(g):
    """A nonzero rational of either sign, numerator up to 3 in size and
    denominator 1 to 7."""
    return F(g.nonzero_entry(), g.randint(1, 7))


def _rational_coeffs(n, seed):
    g = SplitMix64(seed)
    vals = {t: _rational(g) for t in combinations(range(1, n + 1), 3)
            if g.randint(0, 2)}
    return CocycleCoeffs(n, vals or {(1, 2, 3): F(-5, 6)})


def _changed_basis(q, p):
    """q in the basis f_a = sum_j p[j][a] e_j, the columns of p: brackets
    p^-1 [p_a, p_b] and form p^T F p, built on the dense references and
    checked by the validating constructors."""
    n = q.dim
    cols = _dense_cols(p)
    pinv = _dense_inverse(p).data
    br = {(a, b): _dense_matvec(pinv, _dense_bracket(q.alg, cols[a - 1],
                                                     cols[b - 1]))
          for a, b in combinations(range(1, n + 1), 2)}
    form = _old_mul(_old_mul(_old_transpose(p), q.form), p)
    return QuadraticStructure(LieAlgebra(n, br), form)


def _rational_basis_change(n, seed):
    return _dense_inverse(random_invertible(n, seed))


@pytest.fixture(scope="module")
def rational_structures():
    """(q, is the dense derivation-space reference cheap on it)."""
    out = [(tstar_extend(_rational_coeffs(3 + s % 4, 40 + s)), s % 4 < 3)
           for s in range(8)]
    out += [(algebra_from_trivector(lambda_trivector(lam)), False)
            for lam in ("-2/3", "5/4")]
    bases = [tstar_extend(_rational_coeffs(3, 7)),
             tstar_extend(random_coeffs(4, seed=3, nonzero=True)),
             QuadraticStructure(abelian(4), hyperbolic_form(2)),
             algebra_from_trivector(CATALOG[0].trivector),
             _jordan_extension(3)]
    for k, q in enumerate(bases):
        out.append((_changed_basis(q, _rational_basis_change(q.dim, k)),
                    q.dim <= 8))
    # double extensions of rational bases by rational skew derivations:
    # their lower central series runs past the derived algebra
    for k, (q, small) in enumerate(out[:3] + out[10:13:2]):
        d = random_skew_derivation(q, 90 + k).scale(F(1 - 2 * (k % 2), 3))
        if not d.is_zero():
            out.append((double_extend_1d(q, d), small and q.dim <= 6))
    return tuple(out)


def _sparse_vector(g, n):
    return {a: _rational(g) for a in range(n) if g.randint(0, 2) == 0}


def _fraction_sum(terms):
    acc = {}
    for k, n, d in terms:
        acc[k] = acc.get(k, F(0)) + F(n, d)
    return {k: v for k, v in sorted(acc.items()) if v}


def test_fsum_matches_fraction_sums():
    cases = [
        [],
        [(0, 1, 1), (0, -1, 1)],                        # cancels to nothing
        [(2, 3, 1), (1, 1, 2), (2, 1, 3)],              # rescales 1 -> 2 -> 6
        [(0, 1, 6), (1, 1, 3), (0, 1, 2), (1, -2, 6)],  # divides 6, cancels
        [(5, 7, 1), (3, 2, 4), (5, 1, 4)],              # non-lowest terms
        [((1, 2), 1, 2), ((0, 5), -1, 2), ((1, 2), 1, 2)],
    ]
    g = SplitMix64(77)
    for _ in range(300):
        size = g.randint(0, 12)
        cases.append([(g.randint(0, 5), g.randint(-6, 6), g.randint(1, 7))
                      for _ in range(size)])
    for terms in cases:
        sums, den = _isum(iter(terms))
        got = _divide(sums, den)
        assert got == _fraction_sum(terms) == _old_fsum(terms)
        assert list(sums) == sorted(sums) and den > 0
        assert all(type(v) is int and v for v in sums.values())
        assert all(type(v) is Fraction and v for v in got.values())
    # 1 -> 2 -> 6: 3/6 and 20/6; the sum 4/4 stays over 4 until divided
    assert _isum([(2, 3, 1), (1, 1, 2), (2, 1, 3)]) == ({1: 3, 2: 20}, 6)
    assert _divide(*_isum([(2, 3, 1), (1, 1, 2), (2, 1, 3)])) == {
        1: F(1, 2), 2: F(10, 3)}
    assert _isum([(0, 2, 4), (0, 1, 2)]) == ({0: 4}, 4)
    assert _divide(*_isum([(0, 2, 4), (0, 1, 2)])) == {0: F(1)}


def test_products_match_references(rational_structures):
    inverses, mats = [], []
    for q, _ in rational_structures:
        p = _rational_basis_change(q.dim, q.dim)
        inverses += [(q.form, inverse(q.form)), (p, inverse(p))]
        mats.append((p.scale(F(-3, 5)), q.form))
    products = 0
    for a, b in inverses + mats:
        for x, y in ((a, b), (b, a), (a, a)):
            got = x * y
            assert got.sparse_rows == _old_sparse_mul(x, y).sparse_rows
            assert got == _old_mul(x, y)
            products += 1
    assert products == 9 * len(rational_structures)
    # m m^-1 cancels every off-diagonal sum to zero
    for a, b in inverses:
        assert a * b == b * a == Mat.identity(a.rows)


def test_brackets_match_references(rational_structures):
    g = SplitMix64(31)
    nonzero = 0
    for q, _ in rational_structures:
        alg, n = q.alg, q.dim
        for _ in range(6):
            x, y = _sparse_vector(g, n), _sparse_vector(g, n)
            got = alg._brackets([x, y])
            assert got == {(0, 1, r): c
                           for r, c in _old_bracket(alg, x, y).items()}
            assert list(got) == sorted(got) and all(got.values())
            dense = [tuple(v.get(a, F(0)) for a in range(n)) for v in (x, y)]
            assert alg.bracket(*dense) == _dense_bracket(alg, *dense)
            assert alg._brackets([x, x]) == {}
            nonzero += bool(got)
    assert nonzero > 40


def test_lie_passes_match_references(rational_structures):
    g = SplitMix64(5)
    depths = set()
    for q, _ in rational_structures:
        alg = LieAlgebra._of(q.dim, q.alg.terms)  # no cached Jacobi pass
        assert alg.jacobi_defect() == _old_jacobi_defect(alg) == []
        assert alg.jacobi_defect() == _dense_jacobi_defect(alg)
        series = alg.lower_central_series()
        assert series == _old_lower_central_series(alg)
        assert series == _dense_lower_central_series(alg)
        depths.add(len(series))
        # one bracket moved by a rational: the cyclic sums no longer cancel
        terms = dict(alg.terms)
        if not terms:
            continue
        key = sorted(terms)[g.randint(0, len(terms) - 1)]
        r = g.randint(0, q.dim - 1)
        moved = dict(terms[key])
        moved[r] = moved.get(r, F(0)) + _rational(g)
        terms[key] = tuple((k, c) for k, c in sorted(moved.items()) if c)
        bad = LieAlgebra._of(q.dim, {k: v for k, v in terms.items() if v})
        defect = bad.jacobi_defect()
        assert defect == _old_jacobi_defect(bad) == _dense_jacobi_defect(bad)
    assert {2, 3, 4} <= depths


def test_derivation_law_matches_references(rational_structures,
                                           derivation_variants):
    g = SplitMix64(47)
    failing = 0
    for q, small in rational_structures:
        space = derivation_space(q)
        assert space == _old_derivation_space(q)
        if small:
            assert space == _ref_derivation_space(q)
        d = random_skew_derivation(q, q.dim)
        for v in derivation_variants(q, d, g) + [d.scale(F(-2, 7))]:
            got = derivation_defect(q.alg, v)
            assert got == _old_derivation_defect(q.alg, v)
            if small:
                assert got == _ref_derivation_defect(q.alg, v)
            image = _divide(*_isum(_derivation_map(q.alg, _entries(v))))
            old = _old_derivation_map(q.alg)(_entries(v))
            assert image == {k: x for k, x in sorted(old.items()) if x}
            assert list(image) == sorted(image)
            failing += bool(got)
    assert failing > 20


def _digest(ms):
    text = ";".join(repr([sorted(r.items()) for r in m.sparse_rows])
                    for m in ms)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pinned_bases():
    return [
        ("hyperbolic 2", QuadraticStructure(abelian(2), hyperbolic_form(1))),
        ("hyperbolic 6", QuadraticStructure(abelian(6), hyperbolic_form(3))),
        ("tstar 3", tstar_extend(random_coeffs(3, seed=1, nonzero=True))),
        ("tstar 5", tstar_extend(random_coeffs(5, seed=2, nonzero=True))),
        ("L6,1", algebra_from_trivector(CATALOG[1].trivector)),
        ("rational tstar 4", tstar_extend(_rational_coeffs(4, 41))),
        ("lambda -2/3", algebra_from_trivector(lambda_trivector("-2/3"))),
        ("changed basis", _changed_basis(
            tstar_extend(_rational_coeffs(3, 7)),
            _rational_basis_change(6, 0))),
    ]


# sha256 prefixes of the matrices the parent's Fraction loop drew for
# seeds 0..5 on each base
_PINNED = {
    "hyperbolic 2": "ca80516e46eae2a1",
    "hyperbolic 6": "e812bd2c5b721bf6",
    "tstar 3": "d3be5b5dcd701680",
    "tstar 5": "37d485ffa9725ed5",
    "L6,1": "1833a3f566d81a32",
    "rational tstar 4": "4f45363775d207e5",
    "lambda -2/3": "6e78bde6c3a78da6",
    "changed basis": "549451f3716886bd",
}


def test_random_skew_derivation_is_pinned():
    for name, q in _pinned_bases():
        ms = [random_skew_derivation(q, seed) for seed in range(6)]
        assert ms == [_old_random_skew_derivation(q, seed)
                      for seed in range(6)]
        assert _digest(ms) == _PINNED[name], name


def test_equal_matrices_hash_equal_without_fraction_hash(monkeypatch):
    half = F(1, 2)
    built = [Mat([[1, "1/2", 0], [0, 0, "-3/4"]]),
             Mat._of([{0: F(1), 1: half}, {2: F(-3, 4)}], 3),
             Mat.from_rows([[F(2, 2), F(3, 6), 0], [0, 0, F(-6, 8)]])]
    R, _ = rref(Mat([[2, 1, 0], [4, 2, 0], [0, 0, -3]]))
    echelon = [R, Mat([[1, "1/2", 0], [0, 0, 1], [0, 0, 0]]),
               Mat._of([{0: F(1), 1: half}, {2: F(1)}, {}], 3)]
    calls = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__",
                        lambda self: calls.append(1) or real(self))
    for group in (built, echelon):
        assert len(set(group)) == 1
        assert len({hash(m) for m in group}) == 1
    assert hash(built[0]) != hash(echelon[0])
    assert calls == []


def test_is_isometry_ranks_only_a_failing_map(monkeypatch,
                                              isometry_cases):
    cases = list(isometry_cases)
    for k, q in enumerate([tstar_extend(_rational_coeffs(3, 7)),
                           algebra_from_trivector(CATALOG[2].trivector)]):
        p = _rational_basis_change(q.dim, k)
        q2 = _changed_basis(q, p)
        cases += [(q2, q, p), (q2, q, p.scale(2)), (q, q2, p),
                  (q2, q, Mat.zero(q.dim, q.dim))]
    ranked = []
    real = quadlie.forms.rank
    monkeypatch.setattr(quadlie.forms, "rank",
                        lambda m: ranked.append(1) or real(m))
    reasons = {}
    for q1, q2, m in cases:
        before = len(ranked)
        ok, why = is_isometry(q1, q2, m)
        assert (ok, why) == _old_is_isometry(q1, q2, m)
        kind = why.split(" at ")[0]
        reasons[kind] = reasons.get(kind, 0) + 1
        form_fails = kind in ("not invertible", "form not preserved")
        assert len(ranked) - before == int(form_fails)
    assert reasons["ok"] >= 3
    assert reasons["not invertible"] >= 3
    assert reasons["form not preserved"] >= 10


def test_chain_dcoeffs_skips_the_validating_constructor(monkeypatch,
                                                        seeded_coeffs):
    coeffs = list(seeded_coeffs) + [_rational_coeffs(3 + s % 5, s)
                                    for s in range(12)]
    chains = [build_chain(c) for c in coeffs]
    want = [_old_chain_dcoeffs(ch) for ch in chains]
    real = AltCoeffs.__init__
    built = []
    monkeypatch.setattr(AltCoeffs, "__init__",
                        lambda self, *a: built.append(1) or real(self, *a))
    for c, ch, old in zip(coeffs, chains, want):
        got = chain_dcoeffs(ch)
        assert got == old == c
        assert got.terms == c.terms
        assert hash(got) == hash(c)
    assert built == []

"""Differential tests: the sparse query path against the dense code it
replaced.

The references in `reference.py` are copies of the code before algebras
were built from sparse terms: builders that padded each bracket into a
dim-length vector for the validating `LieAlgebra(dim, brackets)`, a
bracket that scanned dense vectors, a membership test that reduced dense
vectors, and an isometry check that read dense columns. Each runs on the
catalog and on seeded corpora, and must give identical results.
"""
from fractions import Fraction

import pytest

from quadlie import (CocycleCoeffs, GeneralCocycle, LieAlgebra, SplitMix64,
                     Subspace, abelian, algebra_from_family,
                     build_chain, chain_to_algebra, coeffs_to_family,
                     decompose_as_tstar, heisenberg, is_isometry, kernel,
                     random_matrix, tstar_extend)
from quadlie.tstar import _general, _tstar_algebra
from reference import (_dense_bracket, _dense_chain_algebra,
                       _dense_contains_vec, _dense_decomposed_base,
                       _dense_family_algebra, _dense_is_isometry,
                       _dense_permute_basis, _dense_tstar_algebra,
                       _dense_upper_central_series, _dense_values, basis_vec)

ZERO = Fraction(0)


def _chain_cocycle(n):
    return CocycleCoeffs(n, {(i, i + 1, i + 2): 1 for i in range(1, n - 1)})


def _same_terms(new, ref):
    """Equal algebras with the same keys in the same order."""
    assert new.dim == ref.dim
    assert list(new.terms.items()) == list(ref.terms.items())


def test_tstar_builder_matches_dense_reference(extension_cases):
    cases = 0
    for w, aq, phi in extension_cases:
        _same_terms(_tstar_algebra(w, aq, phi),
                    _dense_tstar_algebra(w, aq, phi))
        cases += 1
    assert cases == 22 + 4 + 40 + 2 + 2 + 12 + 6


def test_closed_form_builders_match_dense_reference(seeded_coeffs,
                                                    catalog_coeffs):
    inputs = list(seeded_coeffs)
    inputs += [_chain_cocycle(n) for n in (3, 8, 25)]
    inputs += catalog_coeffs
    for c in inputs:
        ch = build_chain(c)
        _same_terms(chain_to_algebra(ch).alg, _dense_chain_algebra(ch))
        fam = coeffs_to_family(c)
        _same_terms(algebra_from_family(fam).alg, _dense_family_algebra(fam))
    assert len(inputs) == 40 + 3 + 22


def _assert_decompositions_agree(q, ideal):
    base, w, iso = decompose_as_tstar(q, ideal)
    rbase, rw, riso = _dense_decomposed_base(q, ideal)
    _same_terms(base, rbase)
    assert (_dense_values(w), iso) == (_dense_values(rw), riso)


def test_radical_algebra_and_decomposed_base_match_dense_reference(
        seeded_coeffs, catalog_algebras):
    from quadlie import radical
    cocycles = [_general(c) for c in seeded_coeffs]
    cocycles += [_general(_chain_cocycle(n)) for n in (5, 12)]
    cocycles.append(GeneralCocycle(heisenberg(), {
        (1, 2): (0, 0, 1), (1, 3): (0, -1, 0), (2, 3): (1, 0, 0)}))
    for w in cocycles:
        assert radical(w) == LieAlgebra(w.base.dim,
                                        _dense_values(w)).centre()
        # the dual half is an abelian lagrangian ideal of any T*-extension
        n = w.base.dim
        _assert_decompositions_agree(tstar_extend(w), Subspace._of(
            2 * n, [{n + k: Fraction(1)} for k in range(n)]))
    for q in catalog_algebras:
        _assert_decompositions_agree(q, q.alg.derived())


def test_relabelled_algebras_match_dense_reference(seeded_coeffs,
                                                   catalog_algebras):
    g = SplitMix64(31)
    algs = [q.alg for q in catalog_algebras]
    algs += [tstar_extend(c).alg for c in seeded_coeffs]
    algs += [heisenberg(), abelian(0), abelian(3)]
    for alg in algs:
        perm = list(range(1, alg.dim + 1))
        for t in range(alg.dim - 1, 0, -1):
            u = g.randint(0, t)
            perm[t], perm[u] = perm[u], perm[t]
        _same_terms(alg.permute_basis(perm), _dense_permute_basis(alg, perm))


# ---- the bracket ----

def test_public_bracket_matches_dense_reference(seeded_coeffs,
                                                catalog_algebras):
    g = SplitMix64(5)
    algs = [q.alg for q in catalog_algebras[:8]]
    algs += [tstar_extend(c).alg for c in seeded_coeffs[:10]]
    for alg in algs:
        for _ in range(6):
            x = [g.nonzero_entry() if g.randint(0, 2) else 0
                 for _ in range(alg.dim)]
            y = [g.nonzero_entry() if g.randint(0, 2) else 0
                 for _ in range(alg.dim)]
            assert alg.bracket(x, y) == _dense_bracket(alg, x, y)
            i = g.randint(1, alg.dim)
            e = [1 if k == i - 1 else 0 for k in range(alg.dim)]
            assert alg.bracket(basis_vec(alg.dim, i), y) == \
                _dense_bracket(alg, e, y)


def test_public_bracket_takes_ints_and_strings():
    h = heisenberg()
    assert h.bracket((1, 0, 0), ("0", "1/2", 0)) == (0, 0, Fraction(1, 2))
    assert h.bracket(("-2/3", 0, 0), (0, 3, 5)) == (0, 0, -2)
    assert h.bracket((0, 1, 0), (1, 0, 0)) == (0, 0, -1)
    assert h.bracket(basis_vec(3, 2), ("1", 0, 0)) == (0, 0, -1)
    with pytest.raises(ValueError, match="vector length mismatch"):
        h.bracket((1, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="vector length mismatch"):
        h.bracket((1, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValueError, match="vector length mismatch"):
        h.bracket(basis_vec(3, 1), (0, 1))


# ---- membership ----

def _subspaces(alg, g):
    n = alg.dim
    subs = [Subspace.zero(n), Subspace.full(n), alg.derived(), alg.centre()]
    subs += alg.lower_central_series() + _dense_upper_central_series(alg)
    subs.append(kernel(random_matrix(n, g.randint(0, 10**6))))
    subs.append(Subspace.from_rows(n, [
        [g.nonzero_entry() if g.randint(0, 3) == 0 else 0 for _ in range(n)]
        for _ in range(g.randint(1, 3))]))
    return subs


def test_contains_matches_dense_reference(seeded_coeffs, catalog_algebras):
    g = SplitMix64(17)
    algs = [q.alg for q in catalog_algebras[:10]]
    algs += [tstar_extend(c).alg for c in seeded_coeffs[::3]]
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
                assert s.contains(Subspace.from_rows(alg.dim, [v])) == \
                    _dense_contains_vec(s, v)
                v[g.randint(0, alg.dim - 1)] += 1
                assert s.contains(Subspace.from_rows(alg.dim, [v])) == \
                    _dense_contains_vec(s, v)
    assert seen[True] > 200 and seen[False] > 200


def test_contains_rejects_other_ambient_dimension():
    with pytest.raises(ValueError, match="length mismatch"):
        Subspace.full(3).contains(Subspace.full(4))
    assert Subspace.full(3).contains(Subspace.zero(4))


# ---- the isometry check ----

def test_is_isometry_matches_dense_reference(isometry_cases):
    reasons = {}
    for q1, q2, m in isometry_cases:
        got = is_isometry(q1, q2, m)
        assert got == _dense_is_isometry(q1, q2, m)
        kind = got[1].split(" at ")[0]
        reasons.setdefault(kind, set()).add(got[1])
    assert len(reasons["ok"]) == 1
    assert {"shape mismatch", "not invertible", "form not preserved"} <= \
        set(reasons)
    # the first failing pair is pinned at many different pairs
    assert len(reasons["bracket not preserved"]) >= 10

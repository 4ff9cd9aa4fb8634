"""The batched bracket sums of `decompose_as_tstar` and `is_isometry`
(`LieAlgebra._brackets` and `LieAlgebra._ad_images`) against the pair
loops they replaced, kept in `reference.py`.

The inputs are the catalog, seeded T*-extensions of cocycles with rational
coefficients, and each of those moved into a seeded random rational basis,
its brackets and its form both transported, so that `decompose_as_tstar`
also meets algebras outside a builder's basis. Each decomposition is
compared as (B.terms, w.terms, iso.sparse_rows) with key order, or as the
law and message of the error both paths raise.
"""
from fractions import Fraction as F

import pytest

from quadlie import (CATALOG, LieAlgebra, Mat, SplitMix64, Subspace,
                     ValidationError, algebra_from_trivector,
                     decompose_as_tstar, hyperbolic_form, inverse,
                     is_isometry, tstar_extend)
from quadlie.forms import QuadraticStructure
from reference import (_canonical, _loop_is_isometry, _old_bracket,
                       _old_decompose_as_tstar)
from test_fraction_free import (_changed_basis, _rational,
                                _rational_basis_change, _rational_coeffs)


def _span(dim, labels):
    """The span of the basis vectors e_k, k 0-based."""
    return Subspace._of(dim, [{k: 1} for k in labels])


def _moved(q, ideals, seed):
    """q and its ideals in the basis f_a = sum_j p[j][a] e_j of a seeded
    rational p: a row v of e-coordinates has f-coordinates v p^-T."""
    p = _rational_basis_change(q.dim, seed)
    back = inverse(p).transpose()
    return _changed_basis(q, p), [
        Subspace._of(q.dim, (s.basis * back).sparse_rows) for s in ideals]


MOVED = 10


@pytest.fixture(scope="module")
def decompose_inputs():
    """(q, ideals): each catalog algebra with its derived algebra, and
    seeded rational T*-extensions with the dual half B*, the base half B
    and the derived algebra; then the first MOVED of them, moved."""
    catalog = [(q, [q.alg.derived()]) for q in
               (algebra_from_trivector(e.trivector) for e in CATALOG)]
    tstars = []
    for s in range(10):
        q = tstar_extend(_rational_coeffs(3 + s % 4, 60 + s))
        n = q.dim // 2
        tstars.append((q, [_span(q.dim, range(n, 2 * n)),
                           _span(q.dim, range(n)), q.alg.derived()]))
    moved = [_moved(q, ideals, seed)
             for seed, (q, ideals) in enumerate(catalog[:4] + tstars[:6])]
    assert len(moved) == MOVED
    return tuple(catalog + tstars + moved)


def _outcome(decompose, q, ideal):
    try:
        B, w, iso = decompose(q, ideal)
    except ValidationError as e:
        return e.law, str(e)
    return list(B.terms.items()), list(w.terms.items()), iso.sparse_rows


def test_decompose_matches_pair_loops(decompose_inputs):
    laws = {}
    for q, ideals in decompose_inputs:
        for ideal in ideals:
            got = _outcome(decompose_as_tstar, q, ideal)
            assert got == _outcome(_old_decompose_as_tstar, q, ideal)
            law = got[0] if isinstance(got[0], str) else "ok"
            laws[law] = laws.get(law, 0) + 1
    # every moved dual half and catalog ideal decomposes: the returned
    # map passed is_isometry onto the extension of the recovered w
    assert laws["ok"] >= len(CATALOG) + 20
    assert laws["abelian"] >= 10 and laws["lagrangian"] >= 3


def test_base_half_is_not_abelian():
    for s in range(6):
        q = tstar_extend(_rational_coeffs(3 + s % 3, 80 + s))
        n = q.dim // 2
        base = _span(q.dim, range(n))
        for decompose in (decompose_as_tstar, _old_decompose_as_tstar):
            with pytest.raises(ValidationError) as e:
                decompose(q, base)
            assert (e.value.law, str(e.value)) == ("abelian",
                                                   "ideal is not abelian")


def test_ideal_law_needs_a_non_invariant_form():
    # For a lagrangian I in an invariant form, phi([x,u], v) = phi(x,
    # [u,v]) for u, v in I, so an abelian I has [x,u] in I-perp = I: the
    # abelian law implies the ideal law. Only a structure made without
    # the invariance check, through QuadraticStructure._of, reaches the
    # ideal check, which stays for such callers.
    g = SplitMix64(11)
    for n in (2, 3, 4, 5):
        c = _rational(g)
        # [e_1, e_2] = c e_{n+1}, with e_1 paired to e_{n+1}: the
        # hyperbolic form is not invariant, and span(e_1, e_{n+2}, ...,
        # e_{2n}) is lagrangian and abelian but [e_2, e_1] leaves it
        alg = LieAlgebra._of(2 * n, {(1, 2): ((n, c),)})
        q = QuadraticStructure._of(alg, hyperbolic_form(n))
        ideal = _span(2 * n, [0, *range(n + 1, 2 * n)])
        for decompose in (decompose_as_tstar, _old_decompose_as_tstar):
            with pytest.raises(ValidationError) as e:
                decompose(q, ideal)
            assert (e.value.law, str(e.value)) == ("ideal",
                                                   "subspace is not an ideal")
        with pytest.raises(ValidationError) as e:
            QuadraticStructure(alg, hyperbolic_form(n))
        assert e.value.law == "invariance"


def _vectors(g, n):
    """Up to six sparse rational vectors, some empty, one maybe repeated."""
    vs = [{a: _rational(g) for a in range(n) if g.randint(0, 2) == 0}
          for _ in range(g.randint(0, 6))]
    if vs and g.randint(0, 1):
        vs.append(vs[g.randint(0, len(vs) - 1)])
    return vs


def test_bracket_sums_match_pair_loops(decompose_inputs):
    g = SplitMix64(19)
    nonzero = 0
    for q, _ in decompose_inputs:
        alg, n = q.alg, q.dim
        for _ in range(3):
            vs = _vectors(g, n)
            got = alg._brackets(vs)
            assert got == {(a, b, r): c
                           for b, y in enumerate(vs) for a, x in
                           enumerate(vs[:b])
                           for r, c in _old_bracket(alg, x, y).items()}
            assert list(got) == sorted(got)
            assert all(_canonical(c) and c for c in got.values())
            images, den = alg._ad_images(vs)
            assert {key: {r: F(e, den) for r, e in row.items()}
                    for key, row in images.items()} == {
                (i, s): row for i, v in enumerate(vs) for s in range(n)
                if (row := _old_bracket(alg, {s: 1}, v))}
            assert den > 0 and all(type(e) is int and e
                                   for row in images.values()
                                   for e in row.values())
            assert list(images) == sorted(images)
            assert all(list(row) == sorted(row) for row in images.values())
            nonzero += bool(got)
    assert nonzero > 40


def test_is_isometry_matches_pair_loop(isometry_cases, decompose_inputs):
    cases = list(isometry_cases)
    for q, ideals in decompose_inputs[-MOVED:]:
        # a moved algebra's decomposition, and the map with its first
        # column doubled: the form fails, or a bracket does
        _, w, iso = decompose_as_tstar(q, ideals[0])
        q2 = tstar_extend(w)
        cases.append((q, q2, iso))
        rows = [dict(r) for r in iso.sparse_rows]
        for r in rows:
            if 0 in r:
                r[0] *= 2
        cases.append((q, q2, Mat._of(rows, iso.cols)))
    witnesses = set()
    for q1, q2, m in cases:
        got = is_isometry(q1, q2, m)
        assert got == _loop_is_isometry(q1, q2, m)
        if got[1].startswith("bracket"):
            witnesses.add(got[1])
    assert len(witnesses) >= 10

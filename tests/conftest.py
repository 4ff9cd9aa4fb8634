"""Fixtures shared by more than one test module, and the seeded corpora the
differential tests read, each built once per session.

The corpora are tuples. Their objects cache what they compute (a centre,
a Jacobi defect, a validated derivation), so a test that counts calls
builds its own inputs instead.
"""
from fractions import Fraction

import pytest

from quadlie import (CATALOG, CocycleCoeffs, GeneralCocycle, LieAlgebra, Mat,
                     QuadraticStructure, SplitMix64, abelian,
                     algebra_from_trivector, build_chain, chain_to_algebra,
                     decompose_as_tstar, gl_act, heisenberg,
                     hyperbolic_form, inverse, lambda_trivector,
                     random_invertible, random_skew_derivation, tstar_extend)
from quadlie.acceptance import _jordan_extension, _random_extension_case
from quadlie.linalg import hstack, vstack
from quadlie.randgen import random_coeffs
from quadlie.tstar import _general


def _det_cocycle():
    """w(e_i, e_j) = e_k* on the Heisenberg algebra, signed like a 3x3
    determinant: the base is not abelian."""
    return GeneralCocycle(heisenberg(), {(1, 2): (0, 0, 1),
                                         (1, 3): (0, -1, 0),
                                         (2, 3): (1, 0, 0)})


@pytest.fixture(scope="session")
def catalog_algebras():
    """The catalog's quadratic algebras, built from their trivectors."""
    return tuple(algebra_from_trivector(e.trivector) for e in CATALOG)


@pytest.fixture(scope="session")
def catalog_coeffs():
    """The catalog's trivectors as cocycle coefficients."""
    return tuple(CocycleCoeffs(e.n, e.trivector.terms) for e in CATALOG)


@pytest.fixture(scope="session")
def construction_coeffs(catalog_coeffs):
    """The catalog's trivectors, a seeded corpus of densities 1/4..3/4 on
    n = 3..9, and zero coefficients on n = 0, 3, 4, 6."""
    return (catalog_coeffs
            + tuple(random_coeffs(3 + seed % 7, seed=seed,
                                  density=Fraction(1 + seed % 3, 4))
                    for seed in range(40))
            + tuple(CocycleCoeffs(n) for n in (0, 3, 4, 6)))


@pytest.fixture(scope="session")
def seeded_coeffs():
    """Forty nonzero seeded coefficients on n = 3..8, densities 1/4..3/4."""
    return tuple(random_coeffs(3 + seed % 6, seed=seed,
                               density=Fraction(1 + seed % 3, 4),
                               nonzero=True)
                 for seed in range(40))


@pytest.fixture(scope="session")
def extension_cases(seeded_coeffs, catalog_algebras):
    """(w, aq, phi) inputs of the T*-builder: T*-extensions over abelian
    and non-abelian bases, and double extensions by seeded derivations."""
    cases = []
    for k, q in enumerate(catalog_algebras):
        _, w, _ = decompose_as_tstar(q, q.alg.derived())
        cases.append((w, None, ()))
        if k < 4:
            # a relabelled base stores its keys out of order
            perm = list(range(q.dim, 0, -1))
            cases.append((GeneralCocycle(q.alg.permute_basis(perm), {}),
                          None, ()))
    cases += [(_general(c), None, ()) for c in seeded_coeffs]
    for n in (12, 30):
        chain = CocycleCoeffs(n, {(i, i + 1, i + 2): 1
                                  for i in range(1, n - 1)})
        cases.append((_general(chain), None, ()))
    cases.append((_det_cocycle(), None, ()))
    # keys out of order, and two brackets of e_3 meeting e_4: the dual
    # row of e_3 and e_4* is written out of column order
    cases.append((GeneralCocycle(LieAlgebra(4, {(2, 3): (0, 0, 0, 1),
                                                (1, 3): (0, 0, 0, 1)}), {}),
                  None, ()))
    for seed in range(12):
        m = 1 + seed % 3
        aq = (tstar_extend(random_coeffs(3, seed=seed, nonzero=True))
              if seed % 3 == 0 else
              QuadraticStructure(abelian(2 * m), hyperbolic_form(m)))
        d = random_skew_derivation(aq, seed)
        cases.append((GeneralCocycle(abelian(1), {}), aq, (d,)))
        if seed % 2:
            cases.append((GeneralCocycle(heisenberg(), {}), aq,
                          (d, d.scale(2), Mat.zero(aq.dim, aq.dim))))
    return tuple(cases)


def _one_entry_changed(m, r, c, delta):
    rows = [dict(row) for row in m.sparse_rows]
    x = rows[r].get(c, Fraction(0)) + delta
    if x:
        rows[r][c] = x
    else:
        del rows[r][c]
    return Mat._of([dict(sorted(row.items())) for row in rows], m.cols)


def _gl_map(sigma):
    n = sigma.rows
    zero = Mat.zero(n, n)
    return vstack(hstack(sigma, zero), hstack(zero, inverse(sigma).transpose()))


@pytest.fixture(scope="session")
def isometry_cases(seeded_coeffs, catalog_algebras):
    """(q1, q2, m) inputs of is_isometry: decompositions of the catalog and
    copies with one entry changed, shears of a base, GL-maps between a
    trivector and its image, and maps that fail each check in turn."""
    g = SplitMix64(23)
    cases = []
    for q in catalog_algebras:
        _, w, iso = decompose_as_tstar(q, q.alg.derived())
        q2 = tstar_extend(w)
        cases.append((q, q2, iso))
        for _ in range(4):
            r, c = g.randint(0, q.dim - 1), g.randint(0, q.dim - 1)
            cases.append((q, q2, _one_entry_changed(iso, r, c,
                                                    g.nonzero_entry())))
    for q in catalog_algebras:
        # a shear of the base: form-preserving, and the first pair it
        # breaks moves with the sheared entry
        n = q.dim // 2
        r, c = g.randint(0, n - 1), g.randint(0, n - 1)
        if r != c:
            cases.append((q, q, _gl_map(_one_entry_changed(
                Mat.identity(n), r, c, g.nonzero_entry()))))
    for e in CATALOG[:12]:
        t = e.trivector
        sigma = random_invertible(e.n, e.n)
        q1 = algebra_from_trivector(t)
        q2 = algebra_from_trivector(gl_act(sigma, t))
        m = _gl_map(sigma)
        cases.append((q1, q2, m))
        # form-preserving, but brackets go to the wrong algebra
        cases.append((q1, q1, m))
        cases.append((q2, q1, _gl_map(random_invertible(e.n, e.n + 1))))
    for c in seeded_coeffs[:16]:
        q = tstar_extend(c)
        shifted = dict(c.terms)
        key = sorted(shifted)[g.randint(0, len(shifted) - 1)]
        shifted[key] += g.nonzero_entry()
        q2 = tstar_extend(CocycleCoeffs(c.n, shifted))
        cases.append((q, q2, Mat.identity(q.dim)))
        cases.append((q, q, Mat.identity(q.dim).scale(2)))
        cases.append((q, q, Mat.identity(q.dim)))
    q = tstar_extend(random_coeffs(4, seed=3, nonzero=True))
    cases.append((q, tstar_extend(random_coeffs(3, seed=3, nonzero=True)),
                  Mat.identity(q.dim)))
    cases.append((q, q, Mat.zero(q.dim, q.dim)))
    return tuple(cases)


@pytest.fixture(scope="session")
def two_step_corpus():
    """Quadratic two-step algebras: the catalog, two lambda family members,
    sixty seeded T*-extensions with a chain for every fourth, and the
    determinant cocycle's extension."""
    corpus = [algebra_from_trivector(e.trivector) for e in CATALOG]
    corpus += [algebra_from_trivector(lambda_trivector(lam))
               for lam in (1, "-2/3")]
    for seed in range(60):
        c = random_coeffs(3 + seed % 6, seed=seed,
                          density=Fraction(1 + seed % 3, 4), nonzero=True)
        corpus.append(tstar_extend(c))
        if seed % 4 == 0:
            corpus.append(chain_to_algebra(build_chain(c)))
    corpus.append(tstar_extend(_det_cocycle()))
    return tuple(corpus)


def _variants(aq, d, g):
    """d, d with one entry shifted, d plus F^-1 A for an antisymmetric A
    (still skew, a derivation only where the base allows it), and a sparse
    random map."""
    n = aq.dim
    rows = [list(r) for r in d.data]
    rows[g.randint(0, n - 1)][g.randint(0, n - 1)] += g.nonzero_entry()
    a, b = g.randint(0, n - 2), n - 1
    anti = [[0] * n for _ in range(n)]
    anti[a][b], anti[b][a] = 1, -1
    sparse = Mat([[g.nonzero_entry() if g.randint(0, 3) == 0 else 0
                   for _ in range(n)] for _ in range(n)])
    return [d, Mat(rows), d + inverse(aq.form) * Mat(anti), sparse]


@pytest.fixture(scope="session")
def derivation_variants():
    """The function (aq, d, g) -> [d and three seeded variants of it]."""
    return _variants


@pytest.fixture(scope="session")
def law_cases():
    """(aq, d): criterion 5's seeds, 60 seeded T*-bases, the two-block
    extensions and the catalog, each with a skew derivation and its
    variants."""
    g = SplitMix64(2718)
    bases = [_random_extension_case(seed) for seed in range(2000, 2100)]
    for seed in range(60):
        aq = tstar_extend(random_coeffs(3 + seed % 3, seed=500 + seed,
                                        nonzero=True))
        bases.append((aq, random_skew_derivation(aq, seed)))
    extra = [_jordan_extension(n) for n in range(2, 6)]
    extra += [algebra_from_trivector(e.trivector) for e in CATALOG[:6]]
    bases += [(aq, random_skew_derivation(aq, 7)) for aq in extra]
    return tuple((aq, v) for aq, d in bases for v in _variants(aq, d, g))


@pytest.fixture(scope="session")
def phi_cases():
    """(aq, b, phi) over abelian(2) and heisenberg(), valid and not."""
    g = SplitMix64(1729)
    h = heisenberg()
    non_lie = LieAlgebra(3, {(1, 2): (0, 0, 1), (2, 3): (1, 0, 0),
                             (1, 3): (0, 1, 1)})
    cases = [(None, abelian(2), [Mat.zero(0, 0)] * 2),
             (None, h, [Mat.zero(0, 0)] * 3),
             (None, h, [Mat.zero(0, 0)] * 2),
             (None, h, [Mat.zero(1, 1)] * 3)]
    for seed in range(24):
        m = 2 + seed % 2
        aq = (QuadraticStructure(abelian(2 * m), hyperbolic_form(m))
              if seed % 3 else
              tstar_extend(random_coeffs(3 + seed % 2, seed=900 + seed,
                                         nonzero=True)))
        n = aq.dim
        d1 = random_skew_derivation(aq, seed)
        d2 = random_skew_derivation(aq, seed + 1000)
        c = Fraction(g.randint(-3, 3))
        comm = d1 * d2 - d2 * d1
        zero = Mat.zero(n, n)
        shifted, plus = _variants(aq, d1, g)[1:3]
        cases += [
            (aq, abelian(2), [d1, d1.scale(c)]),      # commuting
            (aq, abelian(2), [d1, d2]),               # rarely commuting
            (aq, abelian(2), [plus, shifted]),        # not a derivation
            (aq, abelian(2), [d1, shifted]),          # not skew
            (aq, h, [d1, d1.scale(c), zero]),
            (aq, h, [d1, zero, zero]),
            (aq, h, [d1, d2, comm]),
            (aq, h, [zero, zero, d1]),                # not a homomorphism
            (aq, h, [d1, d2]),                        # wrong length
            (aq, non_lie, [zero] * 3),
            (aq, abelian(1), [d1]),
        ]
    return tuple(cases)

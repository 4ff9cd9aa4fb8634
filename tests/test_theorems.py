"""The theorems behind the trusted builders, written as tests.

tstar_extend, algebra_from_family, double_extend, build_chain,
permute_quadratic and permute_basis skip the law checks on what they
build, because a theorem gives the laws from hypotheses they have just
checked: Bordemann's T*-extension of a cyclic 2-cocycle, and Medina and
Revoy's double extension by skew derivations that form a homomorphism.
Here every law is checked in full on their outputs, on a fresh copy of
the brackets made through the public constructor, so nothing a builder
remembers is read.
"""
from fractions import Fraction

import pytest

from quadlie import CATALOG, algebra_from_trivector
from quadlie.acceptance import _random_extension_case
from quadlie.algebra import LieAlgebra, abelian, heisenberg
from quadlie.convert import all_roads, coeffs_to_family
from quadlie.doubleext import (ExtensionChain, _check_chain, build_chain,
                               chain_to_algebra, double_extend,
                               double_extend_1d, fold_chain)
from quadlie.errors import ValidationError
from quadlie.forms import (QuadraticStructure, invariance_defect,
                           permute_quadratic)
from quadlie.linalg import Mat, rank
from quadlie.quadfam import algebra_from_family
from quadlie.randgen import SplitMix64, random_coeffs, random_skew_derivation
from quadlie.tstar import GeneralCocycle, decompose_as_tstar, tstar_extend


def assert_quadratic_lie(q: QuadraticStructure):
    """Jacobi, invariance (with symmetry) and nondegeneracy, all afresh;
    what the builder's algebra says of its own Jacobi defect must agree."""
    alg = LieAlgebra(q.dim, q.alg.brackets)
    assert alg == q.alg
    assert alg.jacobi_defect() == [] == q.alg.jacobi_defect()
    assert invariance_defect(alg, q.form) == []
    assert rank(q.form) == q.dim


def _nonzero(coeffs):
    return [c for c in coeffs if c.n >= 3 and not c.is_zero()]


def _extensions():
    """Criterion 5's seeded one-dimensional double extensions."""
    for seed in range(2000, 2100):
        aq, d = _random_extension_case(seed)
        yield double_extend_1d(aq, d)


def _general_cocycles():
    """The cocycles decompose_as_tstar recovers from the catalog, and the
    determinant cocycle on the Heisenberg algebra, whose base is not
    abelian."""
    for e in CATALOG:
        q = algebra_from_trivector(e.trivector)
        yield decompose_as_tstar(q, q.alg.derived())[1]
    yield GeneralCocycle(heisenberg(), {
        (1, 2): (0, 0, 1), (1, 3): (0, -1, 0), (2, 3): (1, 0, 0)})


def _perm(n: int, seed: int) -> list[int]:
    g = SplitMix64(seed)
    perm = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = g.randint(0, i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def test_tstar_extend_of_coefficients_is_quadratic_lie(construction_coeffs):
    for c in construction_coeffs:
        assert_quadratic_lie(tstar_extend(c))
    for e in CATALOG:
        assert_quadratic_lie(algebra_from_trivector(e.trivector))


def test_tstar_extend_of_general_cocycles_is_quadratic_lie():
    for w in _general_cocycles():
        assert_quadratic_lie(tstar_extend(w))


def test_algebra_from_family_is_quadratic_lie(construction_coeffs):
    for c in _nonzero(construction_coeffs):
        assert_quadratic_lie(algebra_from_family(coeffs_to_family(c)))


def test_chain_builders_are_quadratic_lie(construction_coeffs):
    for c in _nonzero(construction_coeffs):
        ch = build_chain(c)
        assert_quadratic_lie(chain_to_algebra(ch))
    for seed in range(30):
        ch = build_chain(random_coeffs(3 + seed % 4, seed=300 + seed,
                                       nonzero=True))
        assert_quadratic_lie(fold_chain(ch))


def test_build_chain_links_are_skew_derivations(construction_coeffs):
    # a fresh chain remembers nothing of the builder; fold_chain checks
    # every link as a skew derivation of the chain folded so far
    for c in _nonzero(construction_coeffs):
        ch = build_chain(c)
        fresh = ExtensionChain(ch.n, ch.derivs)
        _check_chain(fresh)
        assert fold_chain(fresh) == chain_to_algebra(fresh)


def test_double_extend_is_quadratic_lie():
    for ext in _extensions():
        assert_quadratic_lie(ext)
    h = heisenberg()
    assert_quadratic_lie(double_extend(None, h, [Mat.zero(0, 0)] * 3))
    for seed in range(12):
        aq = tstar_extend(random_coeffs(3 + seed % 3, seed=700 + seed,
                                        nonzero=True))
        d = random_skew_derivation(aq, seed)
        zero = Mat.zero(aq.dim, aq.dim)
        assert_quadratic_lie(double_extend(aq, abelian(2),
                                           [d, d.scale(Fraction(-2))]))
        assert_quadratic_lie(double_extend(aq, h, [d, zero, zero]))


def test_relabelling_keeps_the_laws(construction_coeffs):
    qs = [tstar_extend(c) for c in _nonzero(construction_coeffs)]
    qs += list(_extensions())[::5]
    for k, q in enumerate(qs):
        p = permute_quadratic(q, _perm(q.dim, k))
        assert_quadratic_lie(p)
        # a known-empty Jacobi defect stays known, and an unknown one
        # stays unknown
        assert p.alg._jacobi == []
        fresh = LieAlgebra(q.dim, q.alg.brackets)
        assert fresh.permute_basis(_perm(q.dim, k))._jacobi is None


def _counter(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_all_roads_checks_no_law(monkeypatch, catalog_coeffs,
                                 construction_coeffs):
    from quadlie import forms
    inv = _counter(monkeypatch, forms, "invariance_defect")
    ranks = _counter(monkeypatch, forms, "rank")
    cases = list(catalog_coeffs) + _nonzero(construction_coeffs)
    for c in cases:
        assert all_roads(c).equal
    assert (len(inv), len(ranks)) == (0, 0)
    # the public constructor still checks both, once each
    q = tstar_extend(cases[0])
    QuadraticStructure(q.alg, q.form)
    assert (len(inv), len(ranks)) == (1, 1)


def _jacobi_fills(monkeypatch):
    """Count the Jacobi passes: each one ends by filling its algebra's
    _jacobi slot with a list."""
    slot = LieAlgebra.__dict__["_jacobi"]
    fills = []

    class CountingSlot:
        def __get__(self, obj, cls=None):
            return slot.__get__(obj, cls)

        def __set__(self, obj, value):
            if value is not None:
                fills.append(obj)
            slot.__set__(obj, value)

    monkeypatch.setattr(LieAlgebra, "_jacobi", CountingSlot())
    return fills


def test_nilindex_of_a_double_extension_over_a_lie_base_runs_no_jacobi_pass(
        monkeypatch):
    exts = list(_extensions())
    fills = _jacobi_fills(monkeypatch)
    for ext in exts:
        ext.alg.nilindex()
    assert fills == []


def _non_lie_base() -> QuadraticStructure:
    """An anticommutative algebra that is not Lie, with an invariant
    nondegenerate form: on Q^5 with the identity form, [x, y] is read off
    the alternating form e123 + e145, so phi([x, y], z) is alternating."""
    alg = LieAlgebra(5, {(1, 2): (0, 0, 1, 0, 0), (1, 3): (0, -1, 0, 0, 0),
                         (1, 4): (0, 0, 0, 0, 1), (1, 5): (0, 0, 0, -1, 0),
                         (2, 3): (1, 0, 0, 0, 0), (4, 5): (1, 0, 0, 0, 0)})
    return QuadraticStructure(alg, Mat.identity(5))


def test_double_extension_of_a_non_lie_base_fails_in_nilindex():
    aq = _non_lie_base()
    bad = aq.alg.jacobi_defect()
    assert bad
    zero = Mat.zero(5, 5)
    for ext in (double_extend_1d(aq, zero),
                double_extend(aq, abelian(2), [zero, zero])):
        m = (ext.dim - aq.dim) // 2  # b's dimension
        with pytest.raises(ValidationError) as e:
            ext.alg.nilindex()
        assert e.value.law == "jacobi"
        # b acts by zero, so A's first bad triple is the first one, moved
        # past b's labels
        assert e.value.witness == tuple(x + m for x in bad[0][:3])
        assert not ext.alg.is_lie()

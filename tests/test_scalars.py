"""The scalar contract: every value the package stores or returns is an
int when integral and a Fraction otherwise, never a float, and no module
of the package divides with `/`, which makes a float of two ints."""
import ast
import importlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from quadlie import (CATALOG, CocycleCoeffs, ExtensionChain, GeneralCocycle,
                     LieAlgebra, Mat, QuadraticFamily, QuadraticStructure,
                     RoadsReport, Subspace, abelian, algebra_from_trivector,
                     all_roads, build_chain, coeffs_to_family, contract,
                     decompose_as_tstar, double_extend, double_extend_1d,
                     heisenberg, hyperbolic_form, lambda_trivector,
                     random_skew_derivation, tstar_extend)
from quadlie.randgen import random_coeffs
from reference import _canonical
from test_convert import _roads_corpus
from test_fraction_free import (_changed_basis, _rational_basis_change,
                                _rational_coeffs)

_ROOT = Path(__file__).resolve().parent.parent


def _divisions(source):
    """The line of each true division, `/` or `/=`, in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div))


def test_scanner_finds_true_division():
    assert _divisions("a = b / c\nd //= 2\ne /= f\ng = h // i\n") == [1, 3]


def test_package_has_no_true_division():
    found = {path.name: lines
             for path in sorted((_ROOT / "src" / "quadlie").glob("*.py"))
             if (lines := _divisions(path.read_text(encoding="utf-8")))}
    assert found == {}


def _values(x):
    """Every scalar stored in x, walking the package's objects and the
    tuples, lists and dicts that hold them; a bare int or Fraction is read
    as a value, a label or a dimension inside an object is not."""
    if isinstance(x, (int, Fraction, float)) and not isinstance(x, bool):
        yield x
    elif isinstance(x, LieAlgebra):
        for nz in x.terms.values():
            yield from (c for _, c in nz)
    elif isinstance(x, Mat):
        for r in x.sparse_rows:
            yield from r.values()
    elif isinstance(x, CocycleCoeffs):
        yield from (c for _, c in x.terms)
    elif isinstance(x, GeneralCocycle):
        yield from _values(x.base)
        for nz in x.terms.values():
            yield from (c for _, c in nz)
    elif isinstance(x, QuadraticStructure):
        yield from _values((x.alg, x.form))
    elif isinstance(x, Subspace):
        yield from _values(x.basis)
    elif isinstance(x, ExtensionChain):
        yield from _values(x.derivs)
    elif isinstance(x, QuadraticFamily):
        yield from _values(x.mats)
    elif isinstance(x, RoadsReport):
        yield from _values(x.algebra)
    elif isinstance(x, (tuple, list)):
        for v in x:
            yield from _values(v)
    elif isinstance(x, dict):
        yield from _values(list(x.values()))


def _assert_canonical(objs):
    values = list(_values(objs))
    assert values
    assert not [v for v in values if isinstance(v, float)]
    assert [v for v in values if not _canonical(v)] == []
    return values


def test_walk_reads_every_container():
    half = Fraction(1, 2)
    got = list(_values([LieAlgebra(3, {(1, 2): (0, 0, half)}),
                        Mat([[1, 0], [0, 2]]), {"k": (3, True, None)}]))
    assert got == [half, 1, 2, 3]
    assert not _canonical(Fraction(2)) and not _canonical(1.0)
    assert not _canonical(True) and _canonical(half) and _canonical(-4)


def test_catalog_and_its_algebras_store_canonical_scalars():
    quads = [algebra_from_trivector(e.trivector) for e in CATALOG]
    quads += [algebra_from_trivector(lambda_trivector(lam))
              for lam in (1, "-2/3", Fraction(4, 2))]
    values = _assert_canonical([[e.trivector for e in CATALOG], quads])
    assert any(type(v) is Fraction for v in values)
    for q in quads:
        _assert_canonical([q.alg.centre(), q.alg.derived(),
                           decompose_as_tstar(q, q.alg.derived())])
    # sums of values whose total is an integer
    t = lambda_trivector("-2/3")
    half = t.scale("-3/4")
    x = ["3/2", "1/2", 0, 0, 0, 0, 0, "-1/3", 0]
    m = Mat([["1/2", "-3/2"]])
    _assert_canonical([t(x, x[::-1], x[1:] + x[:1]), contract(t, x),
                       half + half, m + m, m - m.scale(-1),
                       quads[-2].phi(x + x, [6] * 18)])


def test_roads_corpus_stores_canonical_scalars(catalog_coeffs):
    corpus = [c for c in _roads_corpus(catalog_coeffs)
              if c.n >= 3 and not c.is_zero()]
    values = _assert_canonical(corpus)
    assert any(type(v) is Fraction for v in values)
    for c in corpus:
        _assert_canonical([c, all_roads(c), build_chain(c),
                           coeffs_to_family(c)])


def test_double_extensions_store_canonical_scalars():
    bases = [QuadraticStructure(abelian(2 * m), hyperbolic_form(m))
             for m in (1, 2, 3)]
    bases += [tstar_extend(random_coeffs(3 + s % 3, seed=s, nonzero=True))
              for s in range(6)]
    bases += [tstar_extend(_rational_coeffs(4, 41)),
              algebra_from_trivector(lambda_trivector("-2/3"))]
    # forms with rational entries, moved into a seeded rational basis
    bases += [_changed_basis(tstar_extend(_rational_coeffs(3, 80 + k)),
                             _rational_basis_change(6, 90 + k))
              for k in range(2)]
    for k, aq in enumerate(bases):
        for seed in range(3):
            d = random_skew_derivation(aq, 100 * k + seed)
            ext = double_extend_1d(aq, d)
            # d scaled so that F d, summed into the new brackets, holds a 1
            s = next((e for r in (aq.form * d).sparse_rows
                      for e in r.values()), 1)
            unit = double_extend_1d(aq, d.scale(Fraction(s.denominator,
                                                         s.numerator)))
            # commuting images of the Heisenberg basis, summed in checks
            heis = double_extend(aq, heisenberg(),
                                 [d, d.scale("-3/2"), d.scale(0)])
            _assert_canonical([aq, d, ext, ext.alg.centre(),
                               ext.alg.lower_central_series(), unit, heis])


@pytest.mark.parametrize("dim", [40, 100, 200, 400])
def test_chain_rungs_store_canonical_scalars(dim):
    n = dim // 2
    q = tstar_extend(CocycleCoeffs(n, {(i, i + 1, i + 2): 1
                                       for i in range(1, n - 1)}))
    _assert_canonical([q, q.alg.centre(), q.alg.derived()])


@pytest.mark.parametrize("dim", [8, 16, 24, 32, 40])
def test_dense_rungs_store_canonical_scalars(dim):
    c = random_coeffs(dim // 2, seed=1, density=Fraction(1, 2))
    q = tstar_extend(c)
    _assert_canonical([c, q, q.alg.centre(), q.alg.derived()])


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT / "benchmarks"))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("workload", ["roads-corpus", "scale-ladder",
                                      "extension-derivations"])
def test_benchmark_outputs_store_canonical_scalars(monkeypatch, tmp_path,
                                                   workload):
    # one pass of the seeded cases, as tools/layers.py builds them
    workloads = _workloads(monkeypatch)
    rng = random.Random(f"{workload}:11")
    cases = workloads.WORKLOADS[workload](rng, str(tmp_path))
    for case in cases:
        out = case.run()
        assert case.check(out) is None, case.label
        _assert_canonical(out)

"""Conversions between presentations and the three-route equality check."""
from fractions import Fraction
from math import comb

import pytest

from quadlie import (AltCoeffs, CocycleCoeffs, ExtensionChain, Mat,
                     QuadraticFamily, ValidationError, all_roads, build_chain,
                     chain_to_coeffs, coeffs_to_family, convert,
                     count_parameters, doubleext, family_to_coeffs,
                     parse_coeffs, tstar_extend)
from quadlie.randgen import random_coeffs
import reference
from reference import (_loop_coeffs_to_family, _loop_family_defects,
                       _loop_read_coeffs, _ref_all_roads)


def test_family_round_trip():
    for text in ("123", "123+145", "125+136+147+234", "2/3*[1,2,3]-145"):
        c = parse_coeffs(text)
        assert family_to_coeffs(coeffs_to_family(c)) == c


def test_chain_round_trip():
    for text in ("123", "124+135+236", "123+147+257+367+456"):
        c = parse_coeffs(text)
        assert chain_to_coeffs(build_chain(c)) == c


def test_family_to_coeffs_rejects_inconsistent():
    good = coeffs_to_family(parse_coeffs("123"))
    # scaling one matrix breaks cross-matrix compatibility, caught by the
    # family laws before the alternating re-check
    fam = QuadraticFamily(3, (good.mats[0].scale(2), good.mats[1],
                              good.mats[2]))
    with pytest.raises(ValidationError) as e:
        family_to_coeffs(fam)
    assert e.value.law == "family"


def test_all_roads_equal_on_clean_input():
    for text in ("123", "123+145", "124+135+236"):
        rep = all_roads(parse_coeffs(text))
        assert rep.equal
        assert rep.mismatches == ()
        assert rep.n == parse_coeffs(text).n
        assert rep.algebra.alg == tstar_extend(
            parse_coeffs(text)).alg


def test_all_roads_seeded():
    for seed in range(40):
        c = random_coeffs(3 + seed % 5, seed=seed, nonzero=True)
        rep = all_roads(c)
        assert rep.equal, rep.mismatches


def test_all_roads_rejects_degenerate_input():
    with pytest.raises(ValidationError) as e:
        all_roads(CocycleCoeffs(4))
    assert e.value.law == "nonzero"
    with pytest.raises(ValidationError) as e:
        all_roads(CocycleCoeffs(2))
    assert e.value.law == "dimension"


def test_count_parameters():
    assert count_parameters(5) == comb(5, 3) == 10
    assert [count_parameters(n) for n in range(3, 8)] == [1, 4, 10, 20, 35]


# ---- the family path against the dense loops it replaced ----


def _families(coeffs):
    """Each family of the coefficients, then broken copies: one entry
    shifted; a skew pair shifted, so the matrix stays skew; a symmetric
    pair added, so it is not skew; and three of these at once."""
    from quadlie import SplitMix64
    g = SplitMix64(4242)
    for c in coeffs:
        fam = coeffs_to_family(c)
        yield fam
        n = fam.n
        if not n:
            continue
        for kind in range(4):
            mats = [[list(r) for r in m.data] for m in fam.mats]
            for _ in range(1 if kind < 3 else 3):
                i, r, s = (g.randint(0, n - 1) for _ in range(3))
                x = g.nonzero_entry()
                how = kind if kind < 3 else g.randint(0, 2)
                mats[i][r][s] += x
                if how == 1 and r != s:
                    mats[i][s][r] -= x
                elif how == 2:
                    mats[i][s][r] += x
            yield QuadraticFamily(n, tuple(Mat(m) for m in mats))


def _rows(m):
    return [list(r.items()) for r in m.sparse_rows]


def test_coeffs_to_family_matches_value_loop(construction_coeffs):
    cases = 0
    for c in construction_coeffs:
        got, want = coeffs_to_family(c), _loop_coeffs_to_family(c)
        assert got == want
        # same rows, columns in the same order, so equal hashes
        assert [_rows(m) for m in got.mats] == [_rows(m) for m in want.mats]
        cases += 1
    assert cases == 22 + 40 + 4


def test_family_defects_match_dense_loop(construction_coeffs):
    from quadlie import validate_family
    kinds = set()  # 0 skew, 1 own column, 2 cross columns
    several = clean = 0
    for fam in _families(construction_coeffs):
        want = _loop_family_defects(fam)
        assert validate_family(fam)[1] == want
        kinds.update(("skew" in p, "nonzero" in p, "minus" in p).index(True)
                     for p in want)
        several += len(want) > 1
        clean += not want
    assert kinds == {0, 1, 2}
    assert several > 50 and clean == 22 + 40 + 4


def _outcome(read, fam):
    try:
        return read(fam)
    except ValidationError as e:
        return (e.law, e.witness, str(e))


def test_family_to_coeffs_matches_value_loop(construction_coeffs):
    """Equal coefficients, or the same law, witness and message.
    family_to_coeffs has no alternating re-check, as a family that passes
    the family laws cannot fail it: on every such family the loop reader,
    re-check included, raises nothing."""
    clean = 0
    for fam in _families(construction_coeffs):
        problems = _loop_family_defects(fam)
        want = (("family", None, "; ".join(problems)) if problems
                else _outcome(_loop_read_coeffs, fam))
        assert _outcome(family_to_coeffs, fam) == want
        if not problems:
            assert isinstance(_loop_read_coeffs(fam), CocycleCoeffs)
            clean += 1
    assert clean == 22 + 40 + 4


# ---- all_roads against the three-build comparison it replaced ----

def _roads_corpus(catalog_coeffs):
    """The catalog, seeded cocycles on n = 3..9 with every third set
    divided term by term by 2, 3 or 5, and zero and too-small input."""
    seeded = [random_coeffs(3 + seed % 7, seed=900 + seed,
                            density=Fraction(1 + seed % 3, 4), nonzero=True)
              for seed in range(21)]
    seeded = [c if k % 3 else CocycleCoeffs(c.n, [
        (t, Fraction(v, (2, 3, 5)[m % 3]))
        for m, (t, v) in enumerate(c.terms)])
        for k, c in enumerate(seeded)]
    return (list(catalog_coeffs) + seeded
            + [CocycleCoeffs(n) for n in (0, 2, 3, 5)])


def test_all_roads_matches_reference(catalog_coeffs):
    corpus = _roads_corpus(catalog_coeffs)
    laws = set()
    fractional = 0
    for c in corpus:
        got = _outcome(all_roads, c)
        assert got == _outcome(_ref_all_roads, c)
        if isinstance(got, tuple):
            laws.add(got[0])
        else:
            assert got.equal and got.mismatches == ()
            fractional += any(v.denominator > 1 for _, v in c.terms)
    assert laws == {"dimension", "nonzero"}
    assert fractional >= 5


def _double_one(chain_dcoeffs, pick):
    """chain_dcoeffs with the coefficient at position pick doubled."""
    def perturbed(ch):
        got = chain_dcoeffs(ch)
        terms = list(got.terms)
        t, v = terms[pick % len(terms)]
        terms[pick % len(terms)] = (t, 2 * v)
        return AltCoeffs._of(got.n, terms)
    return perturbed


def test_all_roads_matches_reference_on_a_perturbed_chain(monkeypatch,
                                                          catalog_coeffs):
    corpus = [c for c in _roads_corpus(catalog_coeffs)
              if c.n >= 3 and not c.is_zero()]
    for pick, c in enumerate(corpus):
        with monkeypatch.context() as m:
            m.setattr(doubleext, "chain_dcoeffs",
                      _double_one(doubleext.chain_dcoeffs, pick))
            got = all_roads(c)
            assert got == _ref_all_roads(c)
        assert not got.equal
        assert got.mismatches == (
            "chain structure constants differ from tstar",)


def _broken_chains(build_chain):
    """build_chain, then one law of _check_chain broken: every link zero
    (nnp), an entry off the dual half (2sp), or one entry of the top link
    changed without its mirror (skew)."""
    def zero(c):
        return ExtensionChain(c.n, tuple(Mat.zero(2 * k, 2 * k)
                                         for k in range(c.n)))

    def off_dual(c):
        ch = build_chain(c)
        top = [dict(r) for r in ch.derivs[-1].sparse_rows]
        top[0][0] = Fraction(1)  # d_k(e_1) gains e_1
        return ExtensionChain(c.n, ch.derivs[:-1] + (Mat._of(top, len(top)),))

    def unskew(c):
        ch = build_chain(c)
        k = c.n - 1
        top = [dict(r) for r in ch.derivs[-1].sparse_rows]
        top[k] = {0: Fraction(1), **top[k]}  # d_k(e_1) gains e_1*
        return ExtensionChain(c.n, ch.derivs[:-1] + (Mat._of(top, 2 * k),))
    return {"nnp": zero, "2sp": off_dual, "skew": unskew}


def test_all_roads_matches_reference_on_a_chain_that_breaks_a_law(
        monkeypatch, catalog_coeffs):
    corpus = [c for c in _roads_corpus(catalog_coeffs)
              if c.n >= 3 and not c.is_zero()]
    for law, broken in _broken_chains(convert.build_chain).items():
        for c in corpus:
            with monkeypatch.context() as m:
                m.setattr(convert, "build_chain", broken)
                m.setattr(reference, "build_chain", broken)
                got = _outcome(all_roads, c)
                assert got == _outcome(_ref_all_roads, c)
            assert got[0] == law

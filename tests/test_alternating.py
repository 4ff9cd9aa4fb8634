"""Alternating 3-index coefficient maps: storage, evaluation, parsing,
contraction."""
import re
from fractions import Fraction

import pytest

from quadlie import (AltCoeffs, Mat, QuadlieError, contract, format_coeffs,
                     parse_coeffs, trivector_kernel)
from quadlie.alternating import sorted_triple
from reference import _dense_contains_vec


def test_sorted_triple_signs():
    assert sorted_triple(1, 2, 3) == ((1, 2, 3), 1)
    assert sorted_triple(2, 1, 3) == ((1, 2, 3), -1)
    assert sorted_triple(3, 1, 2) == ((1, 2, 3), 1)
    assert sorted_triple(1, 1, 3) == ((1, 1, 3), 0)


def test_value_alternates():
    c = AltCoeffs(4, {(1, 2, 3): 1})
    assert c.value(1, 2, 3) == 1
    assert c.value(2, 1, 3) == -1
    assert c.value(2, 3, 1) == 1
    assert c.value(1, 1, 3) == 0
    assert c.value(1, 2, 4) == 0
    # every index triple, permuted, repeated, absent or out of range, read
    # against a dict lookup on the stored terms
    from itertools import combinations, product
    from quadlie.randgen import random_coeffs
    fams = [AltCoeffs(0), AltCoeffs(3), AltCoeffs(5, {(2, 4, 5): "-7/3"})]
    fams += [random_coeffs(3 + seed, seed=seed,
                           density=Fraction(1 + seed % 3, 4)).scale(
                               Fraction(1, 1 + seed % 3))
             for seed in range(6)]
    for fam in fams:
        stored = dict(fam.terms)
        for ijk in product(range(fam.n + 2), repeat=3):
            flips = sum(a > b for a, b in combinations(ijk, 2))
            want = (0 if len(set(ijk)) < 3 else
                    (-1) ** flips * stored.get(tuple(sorted(ijk)), 0))
            assert fam.value(*ijk) == want


def test_constructor_normalizes_keys():
    c = AltCoeffs(3, {(2, 1, 3): 1})
    assert c.terms == (((1, 2, 3), Fraction(-1)),)
    # summed duplicates that cancel disappear
    assert AltCoeffs(3, [((1, 2, 3), 1), ((2, 1, 3), 1)]).is_zero()


def test_constructor_validates_range():
    with pytest.raises(QuadlieError):
        AltCoeffs(3, {(1, 2, 4): 1})
    with pytest.raises(QuadlieError):
        AltCoeffs(3, {(0, 1, 2): 1})
    with pytest.raises(QuadlieError):
        AltCoeffs(3, {(1, 1, 2): 1})


def test_constructor_rejects_labels_that_are_not_ints():
    # True is not read as 1, nor 1.0 or "1": each fails as out of range
    for x in (True, 1.0, "1"):
        for ijk in ((x, 2, 3), (2, x, 3), (2, 3, x)):
            with pytest.raises(QuadlieError, match=re.escape(
                    f"triple {ijk} out of range 1..3")):
                AltCoeffs(3, {ijk: 1})


def test_constructor_rejects_a_dimension_that_is_not_an_int():
    # 3.5 was stored as the dimension, and True read as 1 in the range
    # message; a negative int keeps its own message
    for n in (3.5, 3.0, True, False, "3", Fraction(3)):
        with pytest.raises(ValueError, match=re.escape(
                f"dimension {n!r} is not an int")):
            AltCoeffs(n, {(1, 2, 3): 1})
    with pytest.raises(ValueError, match="negative dimension"):
        AltCoeffs(-1)
    assert AltCoeffs(3, {(1, 2, 3): 1}).n == 3


def test_call_trilinear():
    c = AltCoeffs(3, {(1, 2, 3): 2})
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert c(e1, e2, e3) == 2
    assert c(e2, e1, e3) == -2
    assert c(e1, e1, e3) == 0
    assert c((1, 1, 0), e2, e3) == 2


def test_add_scale():
    a = parse_coeffs("123")
    b = parse_coeffs("123+145", n=5)
    s = AltCoeffs(5, a.terms).scale(-1) + b
    assert s == parse_coeffs("145", n=5)
    assert s.support() == {1, 4, 5}


def test_contraction_matrix():
    c = parse_coeffs("123")
    # iota_{e1} c = dx2 ^ dx3 as a skew matrix in coordinates 2,3
    m = contract(c, (1, 0, 0))
    assert m == Mat([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    assert m == -m.transpose()


def test_kernel_subspace():
    c = parse_coeffs("123", n=4)
    k = trivector_kernel(c)
    assert k.dim == 1
    assert _dense_contains_vec(k, (0, 0, 0, 1))
    assert trivector_kernel(parse_coeffs("123")).dim == 0


def test_parse_compact_and_bracket_forms():
    a = parse_coeffs("123+145")
    b = parse_coeffs("1*[1,2,3] + 1*[1,4,5]")
    assert a == b
    assert a.n == 5
    c = parse_coeffs("-123 + 2/3*[1,2,4]")
    assert c.value(1, 2, 3) == -1
    assert c.value(1, 2, 4) == Fraction(2, 3)


def test_parse_zero_and_dimension():
    assert parse_coeffs("0", n=4).is_zero()
    assert parse_coeffs("123", n=6).n == 6
    with pytest.raises(QuadlieError):
        parse_coeffs("145", n=3)
    with pytest.raises(QuadlieError):
        parse_coeffs("12")
    with pytest.raises(QuadlieError):
        parse_coeffs("1x3")


def test_parse_refuses_a_dimension_that_is_not_an_int():
    # True read as 1 ("index 3 exceeds dimension True"), and 3.5 reached
    # AltCoeffs, which raised a ValueError
    for n in (True, False, 3.5, 3.0, "3", Fraction(3)):
        with pytest.raises(QuadlieError, match=re.escape(
                f"dimension {n!r} is not an int")):
            parse_coeffs("123", n=n)
    with pytest.raises(QuadlieError, match="negative dimension -1"):
        parse_coeffs("123", n=-1)
    assert parse_coeffs("123", n=3).n == 3


def test_parse_needs_indices_above_nine_bracketed():
    c = parse_coeffs("[1,2,10]")
    assert c.n == 10 and c.value(1, 2, 10) == 1


def test_format_round_trip():
    for text in ("123", "123+145", "-123+145", "2/3*[1,2,3]", "[1,2,10]",
                 "123-2*[1,4,5]"):
        c = parse_coeffs(text)
        assert parse_coeffs(format_coeffs(c), n=c.n) == c
    assert format_coeffs(AltCoeffs(3)) == "0"


def test_format_compact_when_possible():
    assert format_coeffs(parse_coeffs("123+145")) == "123+145"
    assert format_coeffs(parse_coeffs("-123")) == "-123"

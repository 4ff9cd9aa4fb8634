"""Deterministic random data: the 64-bit mixer and seeded generators."""
from fractions import Fraction

import pytest

from quadlie import (QuadlieError, SplitMix64, abelian, hyperbolic_form,
                     QuadraticStructure, random_coeffs, random_invertible,
                     random_matrix, random_skew_derivation, tstar_extend,
                     parse_coeffs)
from quadlie.doubleext import derivation_defect, skew_defect
from quadlie.linalg import Mat, inverse


def test_mixer_reference_stream():
    # published reference outputs for the standard 64-bit mix constants
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(5)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        0xF88BB8A8724C81EC, 0x1B39896A51A8749B]
    g = SplitMix64(1234567)
    assert [g.next_u64() for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_mixer_seed_masking():
    # seeds are taken mod 2^64
    assert SplitMix64(2 ** 64).next_u64() == SplitMix64(0).next_u64()


def test_randint_bounds_and_determinism():
    g = SplitMix64(42)
    draws = [g.randint(1, 6) for _ in range(200)]
    assert set(draws) <= set(range(1, 7))
    assert len(set(draws)) == 6
    g2 = SplitMix64(42)
    assert [g2.randint(1, 6) for _ in range(200)] == draws
    assert SplitMix64(1).randint(5, 5) == 5
    with pytest.raises(QuadlieError):
        SplitMix64(1).randint(3, 2)


def test_randint_range_holds_at_most_one_draw():
    # one draw has 2**64 outcomes; a wider range is refused, not looped on
    with pytest.raises(QuadlieError):
        SplitMix64(1).randint(0, 2 ** 64)
    with pytest.raises(QuadlieError):
        SplitMix64(1).randint(-2 ** 64, 2 ** 64)
    # the widest range takes each draw as it comes
    assert SplitMix64(1).randint(0, 2 ** 64 - 1) == SplitMix64(1).next_u64()
    assert SplitMix64(5).randint(-1, 2 ** 64 - 2) == \
        SplitMix64(5).next_u64() - 1


def test_nonzero_entry_range():
    g = SplitMix64(7)
    vals = [g.nonzero_entry() for _ in range(100)]
    assert all(v != 0 and abs(v) <= 3 for v in vals)
    assert any(v < 0 for v in vals) and any(v > 0 for v in vals)
    g = SplitMix64(7)
    assert all(abs(g.nonzero_entry(bound=1)) == 1 for _ in range(20))


def test_random_coeffs_frozen_stream():
    c = random_coeffs(5, seed=11)
    assert sorted(c.terms) == [((1, 3, 4), Fraction(3)),
                               ((1, 3, 5), Fraction(1)),
                               ((1, 4, 5), Fraction(3)),
                               ((2, 3, 4), Fraction(-2))]


def test_random_coeffs_determinism_and_bounds():
    a = random_coeffs(6, seed=99)
    b = random_coeffs(6, seed=99)
    assert a == b
    assert a != random_coeffs(6, seed=100)
    assert all(v != 0 and abs(v) <= 3 for _, v in a.terms)


def test_random_coeffs_density_extremes():
    full = random_coeffs(5, seed=3, density=Fraction(1))
    assert len(full.terms) == 10
    empty = random_coeffs(5, seed=3, density=Fraction(0))
    assert empty.is_zero()
    forced = random_coeffs(5, seed=3, density=Fraction(0), nonzero=True)
    assert len(forced.terms) == 1


def test_random_coeffs_validation():
    with pytest.raises(QuadlieError):
        random_coeffs(2, seed=1)
    with pytest.raises(QuadlieError):
        random_coeffs(4, seed=1, density=Fraction(3, 2))


def test_random_matrix_shape_and_bound():
    m = random_matrix(4, seed=17)
    assert (m.rows, m.cols) == (4, 4)
    assert all(abs(e) <= 3 for r in m.data for e in r)
    assert random_matrix(4, seed=17) == m


def test_random_invertible():
    for seed in range(10):
        m = random_invertible(3, seed)
        assert m * inverse(m) == Mat.identity(3)


def test_random_skew_derivation_laws():
    cases = [QuadraticStructure(abelian(4), hyperbolic_form(2)),
             tstar_extend(parse_coeffs("123")),
             tstar_extend(parse_coeffs("123+145"))]
    for i, aq in enumerate(cases):
        for seed in range(5):
            d = random_skew_derivation(aq, seed + 10 * i)
            assert skew_defect(aq.form, d) == []
            assert derivation_defect(aq.alg, d) == []
    assert random_skew_derivation(cases[0], 3) == random_skew_derivation(
        cases[0], 3)

"""Skew matrix families encoding 2-step quadratic algebras."""
from fractions import Fraction

import pytest

from quadlie import (Mat, QuadraticFamily, SplitMix64, ValidationError,
                     algebra_from_family, coeffs_to_family, f_matrix,
                     is_nondegenerate_family, parse_coeffs, tstar_extend,
                     validate_family)
from quadlie.quadfam import _negated
from quadlie.randgen import random_coeffs
from reference import _loop_family_defects, _ref_family_defects_by_rows


def fam123():
    return QuadraticFamily(3, (Mat([[0, 0, 0], [0, 0, -1], [0, 1, 0]]),
                               Mat([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
                               Mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])))


def test_family_value_indexing():
    fam = fam123()
    # value(i,j,k) reads entry (k-1, j-1) of the i-th matrix
    assert fam.value(1, 2, 3) == 1
    assert fam.value(2, 1, 3) == -1
    assert fam.value(1, 3, 2) == -1
    assert fam.value(1, 2, 2) == 0


def test_family_value_rejects_out_of_range_labels():
    fam = fam123()
    for ijk in ((0, 1, 2), (1, 0, 2), (1, 2, 0), (4, 1, 2), (1, 2, 4)):
        with pytest.raises(ValueError, match="basis label out of range"):
            fam.value(*ijk)


def test_family_matches_coeffs_route():
    assert coeffs_to_family(parse_coeffs("123")) == fam123()


def test_family_defects_empty_on_consistent():
    ok, problems = validate_family(fam123())
    assert ok and problems == []


def test_family_defects_report_each_law():
    # break skewness
    m1 = Mat([[1, 0, 0], [0, 0, -1], [0, 1, 0]])
    fam = QuadraticFamily(3, (m1, fam123().mats[1], fam123().mats[2]))
    assert any("skew" in p for p in validate_family(fam)[1])
    # break the own-column law: column i of M_i must vanish
    m1 = Mat([[0, 0, 0], [1, 0, -1], [0, 1, 0]])
    fam = QuadraticFamily(3, (m1, fam123().mats[1], fam123().mats[2]))
    assert any("column" in p for p in validate_family(fam)[1])
    # break cross-column compatibility between M_1 and M_2
    m2 = Mat([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    fam = QuadraticFamily(3, (fam123().mats[0], m2, fam123().mats[2]))
    assert validate_family(fam)[1] != []


_F = Fraction


@pytest.mark.parametrize("a, b, want", [
    ({0: _F(2, 3)}, {0: _F(-2, 3)}, True),
    ({}, {}, True),
    ({0: _F(2, 3), 2: _F(-1)}, {0: _F(-2, 3), 2: _F(1)}, True),
    ({0: _F(2, 3)}, {0: _F(2, 3)}, False),
    ({0: _F(2, 3)}, {0: _F(-3, 2)}, False),
    ({0: _F(-2, 3)}, {0: _F(-2, 3)}, False),
    ({0: _F(2)}, {0: _F(-2, 3)}, False),
    ({0: _F(2, 3)}, {0: _F(-2, 5)}, False),
    ({1: _F(2, 3)}, {0: _F(-2, 3)}, False),
    ({0: _F(2, 3)}, {0: _F(-2, 3), 1: _F(1)}, False),
    ({0: _F(2, 3), 1: _F(1)}, {0: _F(-2, 3)}, False),
    ({0: _F(2, 3)}, {}, False),
], ids=["2/3,-2/3", "empty", "two-entries", "2/3,2/3", "2/3,-3/2",
        "-2/3,-2/3", "2,-2/3", "2/3,-2/5", "other-column", "a-shorter",
        "b-shorter", "b-empty"])
def test_negated_rows_near_misses(a, b, want):
    assert _negated(a, b) is want


def test_family_defects_with_fractional_entries():
    # c_123 = 2/3 and c_145 = -3/5 sit at entries 2/3, -2/3, -3/5 and 3/5
    fam = coeffs_to_family(parse_coeffs("2/3*[1,2,3]-3/5*[1,4,5]", n=5))
    assert validate_family(fam)[1] == []
    assert algebra_from_family(fam) == \
        tstar_extend(parse_coeffs("2/3*[1,2,3]-3/5*[1,4,5]", n=5))
    m1 = [list(r) for r in fam.mats[0].data]
    assert (m1[2][1], m1[1][2]) == (_F(2, 3), _F(-2, 3))
    # the same numerator over another denominator is not the negation:
    # M_1 stops being skew, and column 2 of M_1 stops being minus
    # column 1 of M_2
    m1[1][2] = _F(-2, 5)
    bad = QuadraticFamily(5, (Mat(m1),) + fam.mats[1:])
    assert validate_family(bad)[1] == [
        "M_1 is not skew", "column 3 of M_1 is not minus column 1 of M_3"]
    with pytest.raises(ValidationError, match="M_1 is not skew"):
        algebra_from_family(bad)


@pytest.mark.parametrize("entries", [
    {(0, 2): 1},
    {(2, 0): 1},
    {(0, 2): 1, (2, 0): 1},
    {(0, 2): 1, (2, 0): _F(-1, 2)},
    {(0, 2): 1, (2, 0): -1, (1, 3): 2},
    {(3, 3): 3},
    {(0, 2): 1, (2, 0): -1, (3, 3): _F(1, 3)},
], ids=["above-only", "below-only", "symmetric", "mismatched",
        "skew-pair-and-above-only", "diagonal", "skew-pair-and-diagonal"])
def test_one_faulty_pair_or_diagonal_entry_is_not_skew(entries):
    # M_2 of a zero family holds the entries; each pair (r, k), r < k, is
    # compared once, so a lone entry below the diagonal is found by count
    n = 4
    rows = [[_F(0)] * n for _ in range(n)]
    for (r, k), e in entries.items():
        rows[r][k] = _F(e)
    fam = QuadraticFamily(n, (Mat.zero(n, n), Mat(rows), Mat.zero(n, n),
                              Mat.zero(n, n)))
    got = validate_family(fam)[1]
    assert "M_2 is not skew" in got
    assert got == _ref_family_defects_by_rows(fam) == \
        _loop_family_defects(fam)


def _roads_families():
    """The families of seeded cocycles at n = 3..9 and densities 1/4, 1/2
    and 1, five seeds each, as a roads corpus draws them."""
    return [coeffs_to_family(random_coeffs(n, seed=100 * n + k,
                                           density=density))
            for n in range(3, 10)
            for density in (_F(1, 4), _F(1, 2), _F(1))
            for k in range(5)]


def test_family_defects_match_the_full_row_check():
    # the skew law compares each stored entry with its mirror, in
    # linalg._skew_pairs; the reference compares each row of M_i with the
    # same row of its transpose
    g = SplitMix64(5150)
    kinds = {"ok": 0, "not skew": 0, "other": 0}
    families = _roads_families()
    for fam in families:
        assert (validate_family(fam)[1] == _ref_family_defects_by_rows(fam)
                == [])
        n = fam.n
        for _ in range(4):
            i, r, k = (g.randint(0, n - 1) for _ in range(3))
            rows = [list(row) for row in fam.mats[i].data]
            rows[r][k] += _F(g.randint(1, 3), g.randint(1, 2))
            if g.randint(0, 1) and r != k:
                # keep the pair skew: only the column laws can fail
                rows[k][r] -= rows[r][k] + rows[k][r]
            bad = QuadraticFamily(n, fam.mats[:i] + (Mat(rows),)
                                  + fam.mats[i + 1:])
            got = validate_family(bad)[1]
            assert got == _ref_family_defects_by_rows(bad)
            kinds["not skew" if f"M_{i + 1} is not skew" in got
                  else "other" if got else "ok"] += 1
    assert len(families) == 105
    assert kinds["not skew"] > 150 and kinds["other"] > 100


def test_family_shape_validation():
    with pytest.raises(ValidationError):
        QuadraticFamily(3, (Mat.zero(3, 3), Mat.zero(3, 3)))
    with pytest.raises(ValidationError):
        QuadraticFamily(2, (Mat.zero(2, 2), Mat.zero(3, 3)))


def test_f_matrix_concatenation():
    f = f_matrix(fam123())
    assert f == Mat([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    # block i holds columns i+1..n of M_i, so widths shrink left to right
    fam5 = coeffs_to_family(parse_coeffs("123+145"))
    f5 = f_matrix(fam5)
    assert (f5.rows, f5.cols) == (5, 10)


def test_nondegenerate_family():
    assert is_nondegenerate_family(fam123())
    fam5 = coeffs_to_family(parse_coeffs("123+145"))
    assert is_nondegenerate_family(fam5)
    degenerate = coeffs_to_family(parse_coeffs("123", n=4))
    assert not is_nondegenerate_family(degenerate)


def test_algebra_from_family_matches_tstar():
    for text in ("123", "123+145", "124+135+236"):
        c = parse_coeffs(text)
        via_family = algebra_from_family(coeffs_to_family(c))
        via_tstar = tstar_extend(c)
        assert via_family.alg == via_tstar.alg
        assert via_family.form == via_tstar.form


def test_algebra_from_family_rejects_invalid():
    m1 = Mat([[1, 0, 0], [0, 0, -1], [0, 1, 0]])
    fam = QuadraticFamily(3, (m1, fam123().mats[1], fam123().mats[2]))
    with pytest.raises(ValidationError) as e:
        algebra_from_family(fam)
    assert e.value.law == "family"


def test_algebra_from_family_rejects_zero():
    fam = QuadraticFamily(2, (Mat.zero(2, 2), Mat.zero(2, 2)))
    assert validate_family(fam)[0]
    with pytest.raises(ValidationError) as e:
        algebra_from_family(fam)
    assert e.value.law == "nonzero"


def test_random_families_are_consistent():
    # families built from alternating coefficients always satisfy the laws
    for seed in range(25):
        c = random_coeffs(3 + seed % 5, seed=seed)
        fam = coeffs_to_family(c)
        assert validate_family(fam)[1] == []
        # nondegeneracy equals full rank of the concatenation by definition
        from quadlie import rank
        assert is_nondegenerate_family(fam) == (rank(f_matrix(fam)) == fam.n)

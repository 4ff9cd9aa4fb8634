"""One-dimensional and chained double extensions."""
from fractions import Fraction

import pytest

from quadlie import (ExtensionChain, Mat, QuadraticStructure, SkewDerivation,
                     SplitMix64, Subspace, ValidationError, abelian,
                     build_chain, centre_formula_1d, chain_dcoeffs,
                     chain_display_permutation, chain_reduced_check,
                     chain_to_algebra, derivation_defect, derivation_space,
                     double_extend, double_extend_1d, fold_chain,
                     heisenberg, hyperbolic_form, inner_preimage, inverse,
                     invariance_defect, parse_coeffs, skew_defect,
                     tstar_extend, two_step_criterion, validate_chain)
from quadlie.randgen import random_coeffs, random_skew_derivation
from reference import (_dense_contains_vec, _dense_skew_defect,
                       _loop_build_chain, _ref_centre_formula_by_intersection,
                       _ref_derivation_defect, _ref_derivation_space,
                       _ref_double_extend, _ref_double_extend_1d,
                       _ref_inner_preimage, _ref_two_step_by_intersection,
                       basis_vec)


def hyperbolic_abelian(m):
    return QuadraticStructure(abelian(2 * m), hyperbolic_form(m))


def rot(aq):
    # the standard skew derivation e1 -> e1*, e1* -> -e1 pattern does not
    # suit hyperbolic coordinates; use the 2x2 block that is actually skew
    # for phi(e1,e1*)=1: d(e1)=e1, d(e1*)=-e1*
    n = aq.dim
    d = [[0] * n for _ in range(n)]
    d[0][0] = 1
    d[n // 2][n // 2] = -1
    return Mat(d)


def test_skew_defect():
    aq = hyperbolic_abelian(1)
    assert skew_defect(aq.form, rot(aq)) == []
    assert skew_defect(aq.form, Mat.identity(2)) != []


def _skew_inputs():
    g = SplitMix64(1618)
    for seed in range(24):
        m = 1 + seed % 4
        aq = (tstar_extend(random_coeffs(3 + seed % 3, seed=seed,
                                         nonzero=True))
              if seed % 2 else hyperbolic_abelian(m))
        n = aq.dim
        d = random_skew_derivation(aq, seed)
        yield aq.form, d
        # one entry of the derivation shifted
        rows = [list(r) for r in d.data]
        rows[g.randint(0, n - 1)][g.randint(0, n - 1)] += g.nonzero_entry()
        yield aq.form, Mat(rows)
        # a sparse random map against a random symmetric form
        sym = [[0] * n for _ in range(n)]
        for r in range(n):
            for c in range(r, n):
                if g.randint(0, 2) == 0:
                    sym[r][c] = sym[c][r] = g.nonzero_entry()
        yield Mat(sym), Mat([[g.nonzero_entry() if g.randint(0, 3) == 0
                              else 0 for _ in range(n)] for _ in range(n)])
    yield Mat.zero(0, 0), Mat.zero(0, 0)


def test_skew_defect_matches_dense_products():
    cases = skew = 0
    for form, d in _skew_inputs():
        m = d.transpose() * form + form * d
        want = [(i + 1, j + 1) for i in range(m.rows) for j in range(m.cols)
                if m.data[i][j]]
        assert skew_defect(form, d) == want
        cases += 1
        skew += not want
    assert cases == 3 * 24 + 1
    assert 20 < skew < cases - 20


@pytest.mark.parametrize("form_shape, d_shape", [
    ((2, 2), (3, 3)), ((2, 2), (2, 3)), ((2, 3), (3, 3)), ((3, 2), (2, 2))])
def test_skew_defect_rejects_shape_mismatch(form_shape, d_shape):
    with pytest.raises(ValueError):
        skew_defect(Mat.zero(*form_shape), Mat.zero(*d_shape))


def test_derivation_defect_abelian_trivial():
    aq = hyperbolic_abelian(2)
    assert derivation_defect(aq.alg, Mat.identity(4)) == []


def test_derivation_defect_catches_non_derivation():
    h = heisenberg()
    # e1 -> e1 with e3 fixed: d[e1,e2] = 0 but [de1,e2] = e3
    d = Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    bad = derivation_defect(h, d)
    assert (1, 2) in bad
    # the grading derivation deg(e1)=deg(e2)=1, deg(e3)=2 passes
    grading = Mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert derivation_defect(h, grading) == []


def test_skew_derivation_wrapper_validates():
    aq = hyperbolic_abelian(1)
    sd = SkewDerivation(aq, rot(aq))
    assert sd.mat == rot(aq)
    with pytest.raises(ValidationError) as e:
        SkewDerivation(aq, Mat.identity(2))
    assert e.value.law == "skew"
    with pytest.raises(ValidationError) as e:
        SkewDerivation(aq, Mat.zero(3, 3))
    assert e.value.law == "shape"
    q = tstar_extend(parse_coeffs("123"))
    d = Mat.zero(6, 6).data
    d = [list(r) for r in d]
    d[3][0] = 1  # e1 -> e1*, skew for the hyperbolic form? phi(de1,e1)=0 ok
    d[0][0] = 0
    m = Mat(d)
    if skew_defect(q.form, m) == []:
        with pytest.raises(ValidationError) as e:
            SkewDerivation(q, m)
        assert e.value.law == "derivation"


def test_skew_derivation_of_another_base_is_validated():
    aq1 = QuadraticStructure(abelian(6), hyperbolic_form(3))
    aq2 = tstar_extend(parse_coeffs("123"))
    d = random_skew_derivation(aq1, 1)
    with pytest.raises(ValidationError) as plain:
        SkewDerivation(aq2, d)
    assert plain.value.law == "derivation"
    want = (plain.value.law, plain.value.witness, str(plain.value))
    foreign = SkewDerivation(aq1, d)
    for f in (double_extend_1d, two_step_criterion, centre_formula_1d,
              inner_preimage, lambda aq, d: double_extend(aq, abelian(1),
                                                          [d])):
        with pytest.raises(ValidationError) as e:
            f(aq2, foreign)
        assert (e.value.law, e.value.witness, str(e.value)) == want
    with pytest.raises(ValidationError, match="must be 0x0"):
        double_extend_1d(None, foreign)
    # checked against an equal structure, the map is trusted as it is
    same = QuadraticStructure(abelian(6), hyperbolic_form(3))
    ext = double_extend_1d(same, foreign)
    assert ext == double_extend_1d(aq1, d)
    assert not ext.alg.jacobi_defect()


def test_double_extend_1d_bracket_layout():
    # b = label 1, core 2..5, beta = 6
    aq = hyperbolic_abelian(2)
    d = Mat([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]])
    assert skew_defect(aq.form, d) == []
    ext = double_extend_1d(aq, d)
    assert ext.dim == 6
    # [b, e_j] = d(e_j)
    assert ext.alg.bracket_basis(1, 2) == (0, 0, 1, 0, 0, 0)
    assert ext.alg.bracket_basis(1, 5) == (0, 0, 0, -1, 0, 0)
    # [e_i, e_j] picks up f(d e_i, e_j) beta
    assert ext.alg.bracket_basis(2, 5) == (0, 0, 0, 0, 0, 1)
    # form: hyperbolic pairing of b with beta plus the inner block
    assert ext.form.entry(0, 5) == 1
    assert ext.form.entry(1, 3) == 1
    assert ext.form.entry(0, 0) == 0


def test_double_extend_1d_rejects_non_skew():
    aq = hyperbolic_abelian(2)
    with pytest.raises(ValidationError) as e:
        double_extend_1d(aq, Mat.identity(4))
    assert e.value.law == "skew"


def test_double_extend_1d_from_nothing():
    # aq = None: extension of the zero algebra is the 2-dim abelian algebra
    ext = double_extend_1d(None, Mat.zero(0, 0))
    assert ext.dim == 2
    assert ext.alg == abelian(2)
    assert ext.form == hyperbolic_form(1)


def test_two_block_extension_nilindex():
    # d has a Jordan block on each lagrangian half; nilindex scales with n
    for n in range(2, 6):
        dim = 2 * n
        d = [[0] * dim for _ in range(dim)]
        for l in range(1, n):
            d[l][l - 1] = 1
        for m in range(n + 2, dim + 1):
            d[m - 2][m - 1] = -1
        aq = QuadraticStructure(abelian(dim), hyperbolic_form(n))
        ext = double_extend_1d(aq, Mat(d))
        assert ext.alg.nilindex() == n
        assert ext.alg.jacobi_defect() == []
        assert invariance_defect(ext.alg, ext.form) == []
        expected = [2 * n + 2] + list(range(2 * n - 1, 1, -2)) + [0]
        assert [s.dim for s in ext.alg.lower_central_series()] == expected
        assert ext.alg.centre().dim == 3


def test_two_block_centre_formula_n2():
    # direct check of the centre formula at n=2: no inner part, so the
    # centre is (ker d meet Z) + the new central direction
    n = 2
    d = Mat([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]])
    aq = hyperbolic_abelian(2)
    ext = double_extend_1d(aq, d)
    z = ext.alg.centre()
    assert z == centre_formula_1d(aq, d)
    assert z == Subspace.from_rows(6, [(0, 0, 1, 0, 0, 0),
                                       (0, 0, 0, 1, 0, 0),
                                       (0, 0, 0, 0, 0, 1)])


def test_inner_preimage():
    # on an abelian core only d = 0 is inner
    aq = hyperbolic_abelian(2)
    assert inner_preimage(aq, Mat.zero(4, 4)) == (0, 0, 0, 0)
    d = Mat([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]])
    assert inner_preimage(aq, d) is None
    # ad x itself is recovered on a 2-step core
    q = tstar_extend(parse_coeffs("123"))
    x = (1, 0, 0, 0, 0, 0)
    adx = Mat([[q.alg.bracket(basis_vec(6, 1), basis_vec(6, c + 1))[r]
                for c in range(6)] for r in range(6)])
    pre = inner_preimage(q, adx)
    assert pre is not None
    got = Mat([[q.alg.bracket(pre, tuple(
        1 if t == c else 0 for t in range(6)))[r] for c in range(6)]
        for r in range(6)])
    assert got == adx
    assert x is not None


def test_centre_formula_includes_inner_direction():
    # d = ad x: the formula contributes b - x as an extra central vector
    q = tstar_extend(parse_coeffs("123"))
    adx = Mat([[q.alg.bracket(basis_vec(6, 1), basis_vec(6, c + 1))[r]
                for c in range(6)] for r in range(6)])
    assert skew_defect(q.form, adx) == []
    ext = double_extend_1d(q, adx)
    z = ext.alg.centre()
    assert centre_formula_1d(q, adx) == z
    # b - x central: b = label 1, x = e1 = label 2
    assert _dense_contains_vec(z, (1, -1, 0, 0, 0, 0, 0, 0))


def test_two_step_criterion_matches_nilindex():
    cases = [
        (hyperbolic_abelian(2), Mat.zero(4, 4)),           # stays abelian
        (hyperbolic_abelian(2),
         Mat([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]])),
        (tstar_extend(parse_coeffs("123")), Mat.zero(6, 6)),
    ]
    for aq, d in cases:
        ext = double_extend_1d(aq, d)
        assert two_step_criterion(aq, d) == (ext.alg.nilindex() == 2)
    for seed in range(40):
        aq = hyperbolic_abelian(2 + seed % 2)
        d = random_skew_derivation(aq, seed)
        ext = double_extend_1d(aq, d)
        assert two_step_criterion(aq, d) == (ext.alg.nilindex() == 2)
        assert centre_formula_1d(aq, d) == ext.alg.centre()


def test_two_step_criterion_matches_intersection_form():
    # s in Z(A) with d(s) = 0 decides exactly what s in Z(A) cap ker d did
    from quadlie import CATALOG, algebra_from_trivector
    from quadlie.acceptance import _random_extension_case
    cases = [_random_extension_case(s) for s in range(2000, 2100)]
    cases += [(hyperbolic_abelian(2), Mat.zero(4, 4)),
              (hyperbolic_abelian(2),
               Mat([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1],
                    [0, 0, 0, 0]])),
              (tstar_extend(parse_coeffs("123")), Mat.zero(6, 6)),
              (None, Mat.zero(0, 0))]
    cases += [(hyperbolic_abelian(2 + s % 2),
               random_skew_derivation(hyperbolic_abelian(2 + s % 2), s))
              for s in range(40)]
    # 2-step bases with the zero map and an inner map ad(x), which satisfy
    # the criterion, and with a random skew derivation; extensions, whose
    # derived algebra may leave the centre, with the same three maps
    bases = [algebra_from_trivector(e.trivector) for e in CATALOG if e.n <= 6]
    bases += [tstar_extend(random_coeffs(3 + s % 4, seed=s))
              for s in range(1000, 1010)]
    bases += [double_extend_1d(aq, d) for aq, d in cases[:30]]
    for aq in bases:
        n = aq.dim
        x = tuple(Fraction(1 + j % 3) for j in range(n))
        ad_x = Mat([aq.alg.bracket(x, basis_vec(n, j))
                    for j in range(1, n + 1)]).transpose()
        cases += [(aq, Mat.zero(n, n)), (aq, ad_x),
                  (aq, random_skew_derivation(aq, n))]
    verdicts = [two_step_criterion(aq, d) for aq, d in cases]
    assert verdicts == [_ref_two_step_by_intersection(aq, d)
                        for aq, d in cases]
    assert 20 < sum(verdicts) < len(cases) - 20


def test_nilindex_never_drops_under_extension():
    for seed in range(20):
        c = random_coeffs(3 + seed % 3, seed=seed, nonzero=True)
        aq = tstar_extend(c)
        d = random_skew_derivation(aq, seed + 100)
        ext = double_extend_1d(aq, d)
        ni = ext.alg.nilindex()
        if ni is not None:
            assert ni >= aq.alg.nilindex()


def test_general_double_extend_matches_1d():
    # extending by the 1-dim abelian algebra reproduces the 1-d layout
    aq = hyperbolic_abelian(2)
    d = Mat([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]])
    via_1d = double_extend_1d(aq, d)
    via_general = double_extend(aq, abelian(1), [d])
    assert via_general.alg == via_1d.alg
    assert via_general.form == via_1d.form


def test_general_double_extend_validates_homomorphism():
    # phi must be a Lie homomorphism: for abelian B the images must commute
    aq = hyperbolic_abelian(2)
    d1 = Mat([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]])
    # e1 -> -e2*, e2 -> e1*: skew, commutes with d1
    d2 = Mat([[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
    assert skew_defect(aq.form, d2) == []
    assert (d1 * d2 - d2 * d1).is_zero()
    ext = double_extend(aq, abelian(2), [d1, d2])
    assert ext.dim == 8
    assert ext.alg.jacobi_defect() == []
    assert invariance_defect(ext.alg, ext.form) == []
    # the grading-style map e1 -> e1, e1* -> -e1* does not commute with d1
    d3 = Mat([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]])
    assert skew_defect(aq.form, d3) == []
    with pytest.raises(ValidationError) as e:
        double_extend(aq, abelian(2), [d1, d3])
    assert e.value.law == "homomorphism"


def test_general_double_extend_nonabelian_b():
    # B = heisenberg, phi = 0: the coadjoint part alone must close
    b = heisenberg()
    ext = double_extend(None, b, [Mat.zero(0, 0)] * 3)
    assert ext.dim == 6
    assert ext.alg.jacobi_defect() == []
    assert invariance_defect(ext.alg, ext.form) == []
    # [b1, b2] = b3 survives and [b1, b3*] = -b2* appears coadjointly
    assert ext.alg.bracket_basis(1, 2)[2] == 1
    assert ext.alg.bracket_basis(1, 6) == (0, 0, 0, 0, -1, 0)


# ---- chains ----


def test_build_chain_shapes():
    c = parse_coeffs("123+145")
    ch = build_chain(c)
    assert ch.n == 5
    assert [m.rows for m in ch.derivs] == [0, 2, 4, 6, 8]
    assert ch.nnp and ch.two_sp
    assert validate_chain(ch) == []


def test_chain_round_trip():
    for text in ("123", "123+145", "124+135+236", "125+136+147+234"):
        c = parse_coeffs(text)
        ch = build_chain(c)
        assert chain_dcoeffs(ch) == c
        assert validate_chain(ch) == []


def test_chain_deriv_entries_match_display_pattern():
    # d_3 in display order (b3 b2 b1 | b1* b2* b3*) has the lower-left
    # block filled with the level-4 coefficients
    c = parse_coeffs("134+124+234", n=5)
    ch = build_chain(c)
    d3 = ch.derivs[3]
    disp = chain_display_permutation(3)
    val = c.value
    expect = Mat([[0] * 6, [0] * 6, [0] * 6,
                  [-val(4, 1, 3), -val(4, 1, 2), 0, 0, 0, 0],
                  [-val(4, 2, 3), 0, val(4, 1, 2), 0, 0, 0],
                  [0, val(4, 2, 3), val(4, 1, 3), 0, 0, 0]])
    perm = {r: disp[r] for r in range(6)}
    got = Mat([[d3.entry(perm[r] - 1, perm[cc] - 1) for cc in range(6)]
               for r in range(6)])
    assert got == expect


def test_chain_to_algebra_matches_tstar():
    for text in ("123", "123+145", "127+134+256"):
        c = parse_coeffs(text)
        q1 = chain_to_algebra(build_chain(c))
        q2 = tstar_extend(c)
        assert q1.alg == q2.alg
        assert q1.form == q2.form


def test_fold_chain_agrees_with_closed_form():
    c = parse_coeffs("124+135+236")
    ch = build_chain(c)
    folded = fold_chain(ch)
    closed = chain_to_algebra(ch)
    assert folded.alg == closed.alg
    assert folded.form == closed.form


def test_chain_validation_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        ExtensionChain(2, (Mat.zero(0, 0), Mat.zero(3, 3)))
    with pytest.raises(ValidationError):
        ExtensionChain(2, (Mat.zero(0, 0),))


def test_chain_two_sp_flag():
    # a deriv entry in the forbidden block breaks the 2-step pattern
    c = parse_coeffs("123")
    ch = build_chain(c)
    bad = [list(r) for r in ch.derivs[2].data]
    bad[0][0] = 1
    ch2 = ExtensionChain(3, (ch.derivs[0], ch.derivs[1], Mat(bad)))
    assert not ch2.two_sp
    problems = validate_chain(ch2)
    assert problems != []
    with pytest.raises(ValidationError):
        chain_to_algebra(ch2)


def test_chain_nnp_flag():
    ch = ExtensionChain(2, (Mat.zero(0, 0), Mat.zero(2, 2)))
    assert not ch.nnp
    with pytest.raises(ValidationError) as e:
        chain_to_algebra(ch)
    assert e.value.law == "nnp"


def test_chain_skew_validation():
    # b1 -> b1* sits in the allowed block but pairs symmetrically, so it
    # violates skewness for the hyperbolic form of the link
    bad = Mat([[0, 0], [1, 0]])
    ch = ExtensionChain(2, (Mat.zero(0, 0), bad))
    assert ch.two_sp and ch.nnp
    problems = validate_chain(ch)
    assert any("skew" in p for p in problems)
    with pytest.raises(ValidationError) as e:
        chain_to_algebra(ch)
    assert e.value.law == "skew"


def test_chain_display_permutation():
    assert chain_display_permutation(1) == (1, 2)
    assert chain_display_permutation(3) == (3, 2, 1, 4, 5, 6)


def test_chain_reduced_check():
    assert chain_reduced_check(build_chain(parse_coeffs("123+145")))
    assert not chain_reduced_check(build_chain(parse_coeffs("123", n=4)))


def test_derivation_space_dimensions():
    # abelian core: skew maps for the hyperbolic form, dim = m(2m-1)
    for m in (1, 2):
        aq = hyperbolic_abelian(m)
        ds = derivation_space(aq)
        assert ds.ambient_dim == (2 * m) ** 2
        assert ds.dim == m * (2 * m - 1)
    # every member really is a skew derivation
    aq = tstar_extend(parse_coeffs("123"))
    ds = derivation_space(aq)
    for v in ds.vectors():
        n = aq.dim
        mat = Mat([v[r * n:(r + 1) * n] for r in range(n)])
        assert skew_defect(aq.form, mat) == []
        assert derivation_defect(aq.alg, mat) == []


# ---- the one-dimensional extension as the m = 1 case ----

def _extension_outcome(fn, aq, d):
    try:
        q = fn(aq, d)
    except ValidationError as e:
        return ("error", e.law, e.witness, str(e))
    return ("ok", q.alg, q.form)


def test_double_extend_1d_matches_dedicated_construction():
    from quadlie.acceptance import _random_extension_case
    g = SplitMix64(3141)
    cases = [(None, Mat.zero(0, 0)), (None, Mat.zero(2, 2))]
    for seed in range(2000, 2060):
        aq, d = _random_extension_case(seed)
        cases.append((aq, d))
        # one entry shifted: not skew, or skew but not a derivation
        rows = [list(r) for r in d.data]
        rows[g.randint(0, aq.dim - 1)][g.randint(0, aq.dim - 1)] += \
            g.nonzero_entry()
        cases.append((aq, Mat(rows)))
        # plus F^-1 A for an antisymmetric A: still skew, and a derivation
        # only where the base allows it
        a, b = g.randint(0, aq.dim - 2), aq.dim - 1
        anti = [[0] * aq.dim for _ in range(aq.dim)]
        anti[a][b], anti[b][a] = 1, -1
        cases.append((aq, d + inverse(aq.form) * Mat(anti)))
    laws = set()
    for aq, d in cases:
        want = _extension_outcome(_ref_double_extend_1d, aq, d)
        assert _extension_outcome(double_extend_1d, aq, d) == want
        if want[0] == "error":
            laws.add(want[1])
        else:
            assert double_extend_1d(aq, SkewDerivation(aq, d)
                                    if aq is not None else d).alg == want[1]
    assert laws == {"skew", "derivation", ""}


def test_double_extend_takes_skew_derivations():
    aq = hyperbolic_abelian(2)
    d = Mat([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]])
    sd = SkewDerivation(aq, d)
    via_1d = double_extend_1d(aq, d)
    for ext in (double_extend(aq, abelian(1), [sd]), double_extend_1d(aq, sd)):
        assert ext.alg == via_1d.alg
        assert ext.form == via_1d.form
    ext = double_extend(aq, abelian(2), [sd, Mat.zero(4, 4)])
    assert ext.alg.jacobi_defect() == []
    assert invariance_defect(ext.alg, ext.form) == []


# ---- the sparse law maps against the dense code they replaced ----

def _outcome(fn, *args):
    try:
        out = fn(*args)
    except ValidationError as e:
        return ("error", e.law, e.witness, str(e))
    if isinstance(out, QuadraticStructure):
        return ("ok", out.alg, out.form)
    return ("ok", out)


def test_derivation_laws_match_dense_reference(law_cases):
    outcomes = {"ok": 0, "skew": 0, "derivation": 0}
    inner = 0
    for aq, d in law_cases:
        assert derivation_defect(aq.alg, d) == \
            _ref_derivation_defect(aq.alg, d)
        want = _outcome(_ref_inner_preimage, aq, d)
        assert _outcome(inner_preimage, aq, d) == want
        outcomes[want[1] if want[0] == "error" else "ok"] += 1
        inner += want[0] == "ok" and want[1] is not None
    assert min(outcomes.values()) > 20 and inner > 20
    # ad(x) for seeded nonzero x on seeded T*-bases: the cases above all
    # have the zero preimage, so these are the ones whose preimage is not
    g = SplitMix64(3141)
    nonzero = 0
    for seed in range(20):
        aq = tstar_extend(random_coeffs(3 + seed % 3, seed=500 + seed,
                                        nonzero=True))
        n = aq.dim
        x = (Fraction(g.randint(1, 3)),) + tuple(
            Fraction(g.randint(-3, 3)) for _ in range(n - 1))
        ad_x = Mat([aq.alg.bracket(x, basis_vec(n, j))
                    for j in range(1, n + 1)]).transpose()
        want = _outcome(_ref_inner_preimage, aq, ad_x)
        assert _outcome(inner_preimage, aq, ad_x) == want
        nonzero += want[0] == "ok" and any(want[1])
    assert nonzero == 20
    # the zero algebra
    zero = QuadraticStructure(abelian(0), Mat.zero(0, 0))
    assert derivation_defect(zero.alg, Mat.zero(0, 0)) == []
    assert inner_preimage(zero, Mat.zero(0, 0)) == () == \
        _ref_inner_preimage(zero, Mat.zero(0, 0))
    assert inner_preimage(None, Mat.zero(0, 0)) == ()


def test_derivation_space_matches_dense_reference():
    # equal bases keep every random_skew_derivation seed
    from quadlie import algebra_from_trivector
    from quadlie.acceptance import _jordan_extension, _random_extension_case
    from quadlie.catalog import CATALOG
    bases = [_random_extension_case(seed)[0] for seed in range(2000, 2100)]
    bases += [_jordan_extension(n) for n in range(2, 6)]
    bases += [algebra_from_trivector(e.trivector) for e in CATALOG[:4]]
    bases.append(QuadraticStructure(abelian(0), Mat.zero(0, 0)))
    bases = {(aq.dim, tuple(sorted(aq.alg.brackets.items())), aq.form): aq
             for aq in bases}
    assert len(bases) > 30
    for aq in bases.values():
        assert derivation_space(aq) == _ref_derivation_space(aq)


def test_double_extend_matches_dense_reference(phi_cases):
    laws = set()
    for aq, b, phi in phi_cases:
        want = _outcome(_ref_double_extend, aq, b, phi)
        assert _outcome(double_extend, aq, b, phi) == want
        laws.add(want[1] if want[0] == "error" else "ok")
    assert laws == {"ok", "", "jacobi", "homomorphism", "skew", "derivation"}


@pytest.mark.parametrize("shape", [(2, 3), (2, 2), (3, 2), (4, 4)])
def test_derivation_defect_rejects_shape_mismatch(shape):
    with pytest.raises(ValueError, match="3.*" + "x".join(map(str, shape))):
        derivation_defect(heisenberg(), Mat.zero(*shape))


def _counting(monkeypatch, name):
    """Count the calls that the doubleext module makes to one of its laws."""
    import quadlie.doubleext as de
    real = getattr(de, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(de, name, counted)
    return calls


def test_plain_matrix_is_validated_once_per_structure(monkeypatch):
    from quadlie.acceptance import _random_extension_case
    skew = _counting(monkeypatch, "skew_defect")
    deriv = _counting(monkeypatch, "derivation_defect")
    for seed in range(2000, 2012):
        aq, d = _random_extension_case(seed)
        before = repr(aq)
        ext = double_extend_1d(aq, d)
        two_step_criterion(aq, d)
        centre_formula_1d(aq, d)
        inner_preimage(aq, d)
        # an equal matrix built apart is the same claim
        double_extend_1d(aq, Mat(d.data))
        assert len(skew) == len(deriv) == 1
        # the memo stays out of repr and equality
        assert repr(aq) == before
        fresh = QuadraticStructure(aq.alg, aq.form)
        assert fresh == aq
        # another structure object checks the matrix for itself
        assert double_extend_1d(fresh, d) == ext
        assert len(skew) == 2
        skew.clear()
        deriv.clear()
    # a structure that never sees a derivation has no memo
    assert tstar_extend(parse_coeffs("123"))._derivations is None


def test_chain_links_are_validated_once(monkeypatch):
    skew = _counting(monkeypatch, "skew_defect")
    ch = build_chain(parse_coeffs("123+145+246"))
    assert len(skew) == ch.n  # build_chain checks each link's skew law
    skew.clear()
    assert validate_chain(ch) == []
    # the first link has no base; every later one is checked once
    assert len(skew) == ch.n - 1


def test_bad_matrix_fails_the_same_way_every_call(monkeypatch,
                                                  derivation_variants):
    from quadlie.acceptance import _random_extension_case
    skew = _counting(monkeypatch, "skew_defect")
    g = SplitMix64(4242)
    laws = set()
    for seed in range(2000, 2040):
        aq, d = _random_extension_case(seed)
        for v in derivation_variants(aq, d, g)[1:]:
            first = _outcome(double_extend_1d, aq, v)
            if first[0] == "ok":
                continue
            laws.add(first[1])
            for f in (two_step_criterion, centre_formula_1d, inner_preimage,
                      double_extend_1d):
                skew.clear()
                assert _outcome(f, aq, v) == first
                assert len(skew) == 1  # checked again, never remembered
    assert laws == {"skew", "derivation"}


def test_centre_formula_matches_intersection_form():
    # criterion 5's corpus, then inner and zero maps on 2-step bases and
    # on extensions, where the centre is wider
    from quadlie import CATALOG, algebra_from_trivector
    from quadlie.acceptance import _random_extension_case
    cases = [_random_extension_case(s) for s in range(2000, 2100)]
    cases.append((None, Mat.zero(0, 0)))
    bases = [algebra_from_trivector(e.trivector) for e in CATALOG if e.n <= 6]
    bases += [double_extend_1d(aq, d) for aq, d in cases[:30]]
    for aq in bases:
        n = aq.dim
        x = tuple(Fraction(1 + j % 3) for j in range(n))
        ad_x = Mat([aq.alg.bracket(x, basis_vec(n, j))
                    for j in range(1, n + 1)]).transpose()
        cases += [(aq, Mat.zero(n, n)), (aq, ad_x),
                  (aq, random_skew_derivation(aq, n))]
    widths = set()
    for aq, d in cases:
        got = centre_formula_1d(aq, d)
        assert got == _ref_centre_formula_by_intersection(aq, d)
        widths.add(got.dim)
    assert len(widths) > 5


# ---- the construction path against its dense definitions ----


def _skew_defect_cases(coeffs):
    """(form, d) pairs: chain links, seeded skew derivations and those
    with one entry shifted, each under its form and twice it, and sparse
    random maps under random symmetric forms of entries in -3..3."""
    g = SplitMix64(1729)
    for c in coeffs:
        for k, d in enumerate(build_chain(c).derivs):
            yield hyperbolic_form(k), d
    for seed in range(30):
        aq = (tstar_extend(random_coeffs(3 + seed % 3, seed=seed,
                                         nonzero=True))
              if seed % 2 else hyperbolic_abelian(1 + seed % 3))
        n = aq.dim
        d = random_skew_derivation(aq, seed)
        rows = [list(r) for r in d.data]
        rows[g.randint(0, n - 1)][g.randint(0, n - 1)] += g.nonzero_entry()
        for m in (d, Mat(rows)):
            yield aq.form, m
            yield aq.form.scale(2), m
        sym = [[0] * n for _ in range(n)]
        for r in range(n):
            for s in range(r, n):
                if g.randint(0, 1):
                    sym[r][s] = sym[s][r] = g.nonzero_entry()
        yield Mat(sym), Mat([[g.nonzero_entry() if g.randint(0, 2) == 0
                              else 0 for _ in range(n)] for _ in range(n)])


def _chain_coeffs(coeffs):
    """The coefficients build_chain accepts: n >= 3."""
    return [c for c in coeffs if c.n >= 3]


def test_skew_defect_matches_dense_definition_on_construction_inputs(
        construction_coeffs):
    cases = skew = 0
    entries = set()  # whether form entries equal to 1 and others both ran
    for form, d in _skew_defect_cases(_chain_coeffs(construction_coeffs)):
        want = _dense_skew_defect(form, d)
        assert skew_defect(form, d) == want
        cases += 1
        skew += not want
        entries.update(e == 1 for r in form.sparse_rows for e in r.values())
    assert cases > 400
    assert 100 < skew < cases - 50
    assert entries == {True, False}


def test_build_chain_matches_value_loop(construction_coeffs):
    links = 0
    for c in _chain_coeffs(construction_coeffs):
        got, want = build_chain(c), _loop_build_chain(c)
        assert got == want
        for a, b in zip(got.derivs, want.derivs):
            # same rows, columns in the same order, so equal hashes
            assert [list(r.items()) for r in a.sparse_rows] == \
                [list(r.items()) for r in b.sparse_rows]
            links += not a.is_zero()
    assert links > 100

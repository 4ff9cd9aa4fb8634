"""Trivectors: the duality with cocycles, group action, induced isometries."""
import pytest

from quadlie import (AltCoeffs, CocycleCoeffs, Mat, Trivector,
                     ValidationError, algebra_from_trivector, contract,
                     gl_act, is_isometry, isometry_from_gl, parse_coeffs,
                     trivector_kernel, trivector_rank, tstar_extend)
from quadlie.randgen import SplitMix64, random_coeffs, random_invertible
from reference import _dense_contains_vec, _dense_contraction, _dense_kernel


def tv(text, n=None):
    return parse_coeffs(text, n=n)


def test_role_names_are_one_class():
    # a cocycle on an abelian base and a trivector are the same coefficients
    assert CocycleCoeffs is AltCoeffs is Trivector
    c = parse_coeffs("123+145")
    assert repr(c) == "AltCoeffs(5, '123+145')"
    assert algebra_from_trivector(c) == tstar_extend(c)


def test_contract():
    t = tv("123")
    # iota_{e1} t = dx2 ^ dx3 as a skew matrix in coordinates 2,3
    m = contract(t, (1, 0, 0))
    assert m == Mat([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    assert m == -m.transpose()
    with pytest.raises(ValidationError) as e:
        contract(t, (1, 0))
    assert e.value.law == "shape"


def test_kernel_and_rank():
    t = tv("123", n=4)
    k = trivector_kernel(t)
    assert k.dim == 1 and _dense_contains_vec(k, (0, 0, 0, 1))
    assert trivector_kernel(tv("123")).dim == 0
    assert trivector_rank(t) == 3
    assert trivector_rank(tv("123")) == 3
    assert trivector_rank(tv("123+145")) == 5
    assert trivector_rank(Trivector(4)) == 0


def test_algebra_from_trivector():
    t = tv("123+145")
    q = algebra_from_trivector(t)
    assert q.alg == tstar_extend(parse_coeffs("123+145")).alg
    with pytest.raises(ValidationError) as e:
        algebra_from_trivector(Trivector(5))
    assert e.value.law == "nonzero"
    with pytest.raises(ValidationError) as e:
        algebra_from_trivector(Trivector(2, {}))
    assert e.value.law in ("dimension", "nonzero")


def test_gl_act_identity_and_composition():
    t = tv("123+145")
    assert gl_act(Mat.identity(5), t) == t
    a = random_invertible(5, 31)
    b = random_invertible(5, 32)
    assert gl_act(a, gl_act(b, t)) == gl_act(a * b, t)


def test_gl_act_scaling():
    t = tv("123")
    two = Mat.identity(3).scale(2)
    # evaluating on (sigma^-1 e_i) divides each term by 8
    assert gl_act(two, t) == tv("123").scale("1/8")


def test_gl_act_permutation():
    t = tv("123", n=4)
    # swap e3 and e4
    p = Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert gl_act(p, t) == tv("124", n=4)


def test_gl_act_validates():
    t = tv("123")
    with pytest.raises(ValidationError) as e:
        gl_act(Mat.zero(3, 3), t)
    assert e.value.law == "invertible"
    with pytest.raises(ValidationError) as e:
        gl_act(Mat.identity(4), t)
    assert e.value.law == "shape"


def test_gl_act_preserves_rank():
    g = SplitMix64(77)
    for seed in range(12):
        n = 3 + seed % 4
        t = random_coeffs(n, seed=seed, nonzero=True)
        sigma = random_invertible(n, 1000 + seed)
        assert trivector_rank(gl_act(sigma, t)) == trivector_rank(t)
        assert g.randint(0, 1) in (0, 1)


def test_isometry_from_gl_recovers_relabelling():
    t1 = tv("123+145")
    # relabel e2 <-> e4, e3 <-> e5: sends 123+145 to 145+123
    perm = (1, 4, 5, 2, 3)
    sigma = Mat([[1 if perm[c] == r + 1 else 0 for c in range(5)]
                 for r in range(5)])
    t2 = gl_act(sigma, t1)
    m = isometry_from_gl(sigma, t1, t2)
    q1 = algebra_from_trivector(t1)
    q2 = algebra_from_trivector(t2)
    ok, why = is_isometry(q1, q2, m)
    assert ok, why
    # block structure: base block is sigma, star block its inverse transpose
    assert Mat([r[:5] for r in m.data[:5]]) == sigma


def test_isometry_from_gl_rejects_incompatible():
    t1 = tv("123")
    t2 = tv("123").scale(2)
    with pytest.raises(ValidationError) as e:
        isometry_from_gl(Mat.identity(3), t1, t2)
    assert e.value.law == "compatible"
    assert e.value.witness == (1, 2, 3)


def test_isometry_from_gl_random_cases():
    for seed in range(8):
        n = 3 + seed % 3
        t1 = random_coeffs(n, seed=500 + seed, nonzero=True)
        sigma = random_invertible(n, 600 + seed)
        t2 = gl_act(sigma, t1)
        m = isometry_from_gl(sigma, t1, t2)
        ok, why = is_isometry(algebra_from_trivector(t1),
                              algebra_from_trivector(t2), m)
        assert ok, (seed, why)


# ---- the pair-terms readers against the dense loops they replaced ----


def test_pair_term_readers_match_dense_loops(construction_coeffs):
    from quadlie.randgen import SplitMix64
    g = SplitMix64(77)
    n = 200
    chain = Trivector(n, {(i, i + 1, i + 2): 1 for i in range(1, n - 1)})
    cases = list(construction_coeffs) + [chain]
    for t in cases:
        k = trivector_kernel(t)
        assert k == _dense_kernel(t)
        assert trivector_rank(t) == t.n - k.dim
        xs = [tuple(g.randint(-2, 2) for _ in range(t.n)),
              tuple(g.nonzero_entry() for _ in range(t.n))]
        if t.n <= 9:
            xs += [tuple(int(a == b) for a in range(t.n))
                   for b in range(t.n)]
        for x in xs:
            got = contract(t, x)
            assert got == _dense_contraction(t, x)
            # same rows, columns in the same order
            assert [list(r.items()) for r in got.sparse_rows] == \
                [list(r.items()) for r in _dense_contraction(t, x).sparse_rows]
    assert trivector_rank(chain) == n

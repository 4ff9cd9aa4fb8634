"""Trivectors: the duality with cocycles, group action, induced isometries."""
from fractions import Fraction

import pytest

from quadlie import (AltCoeffs, CocycleCoeffs, Mat, Trivector,
                     ValidationError, algebra_from_trivector, contract,
                     gl_act, is_isometry, isometry_from_gl, parse_coeffs,
                     trivector_kernel, trivector_rank, tstar_extend)
from quadlie.linalg import rank
from quadlie.randgen import SplitMix64, random_coeffs, random_invertible
from reference import (_canonical, _dense_call, _dense_contains_vec,
                       _dense_contraction, _dense_gl_act,
                       _dense_isometry_from_gl, _dense_kernel)


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


# ---- the sparse pullback against the dense evaluators it replaced ----


def _outcome(f, *args):
    """f's value, or the type, message, law and witness of its error."""
    try:
        return f(*args)
    except ValueError as e:  # ValidationError is not one
        return ValueError, str(e)
    except ValidationError as e:
        return ValidationError, str(e), e.law, e.witness


def _permutation(n, g):
    perm = list(range(n))
    for a in range(n - 1, 0, -1):
        b = g.randint(0, a)
        perm[a], perm[b] = perm[b], perm[a]
    return Mat([[int(perm[c] == r) for c in range(n)] for r in range(n)])


def _elementary(n, g):
    """The identity plus one nonzero rational entry off the diagonal."""
    i, j = g.randint(0, n - 1), g.randint(0, n - 2)
    j += j >= i
    c = Fraction(g.nonzero_entry(), g.randint(1, 3))
    return Mat([[int(r == s) + (c if (r, s) == (i, j) else 0)
                 for s in range(n)] for r in range(n)])


def _rational(n, g):
    while True:
        m = Mat([[Fraction(g.randint(-2, 2), g.randint(1, 3))
                  for _ in range(n)] for _ in range(n)])
        if rank(m) == n:
            return m


def _perturbed(t, g):
    """t with one triple changed: a stored coefficient moved, or a term
    added where t has none."""
    triples = [(i, j, k) for i in range(1, t.n + 1)
               for j in range(i + 1, t.n + 1) for k in range(j + 1, t.n + 1)]
    key = triples[g.randint(0, len(triples) - 1)]
    return t + Trivector(t.n, {key: g.nonzero_entry()})


def _check_pullbacks(sigma, t, g):
    """gl_act, isometry_from_gl on the image and on a perturbed image, and
    t(x, y, z) on rational vectors, each equal to its dense reference."""
    t2 = gl_act(sigma, t)
    assert t2.terms == _dense_gl_act(sigma, t).terms
    for u in (t2, _perturbed(t2, g)):
        assert _outcome(isometry_from_gl, sigma, t, u) == \
            _outcome(_dense_isometry_from_gl, sigma, t, u)
    x, y, z = ([Fraction(g.randint(-3, 3), g.randint(1, 3))
                for _ in range(t.n)] for _ in range(3))
    assert t(x, y, z) == _dense_call(t, x, y, z)
    assert t2(x, y, z) == _dense_call(t2, x, y, z)


def test_pullback_matches_dense_reference_on_the_catalog(catalog_coeffs):
    g = SplitMix64(2027)
    for seed, t in enumerate(catalog_coeffs):
        _check_pullbacks(random_invertible(t.n, 40 + seed, bound=2), t, g)


def test_pullback_matches_dense_reference_on_seeded_coeffs():
    g = SplitMix64(31)
    for n in range(3, 9):
        for seed in range(2):
            t = random_coeffs(n, seed=100 * n + seed,
                              density=Fraction(1 + 2 * seed, 4))
            for make in (_permutation, _elementary, _rational):
                _check_pullbacks(make(n, g), t, g)


def test_pullback_errors_match_dense_reference():
    t = tv("123+145")
    sigma = random_invertible(5, 7)
    cases = [(sigma, t, tv("123", n=4)),            # dimensions differ
             (Mat.zero(5, 5), t, t),                # singular
             (Mat.identity(4), t, t),               # wrong shape
             (Mat.identity(5), t, t.scale(-1)),     # both terms differ
             (sigma, t, t)]
    for case in cases:
        assert _outcome(isometry_from_gl, *case) == \
            _outcome(_dense_isometry_from_gl, *case)
    assert _outcome(isometry_from_gl, *cases[3]) == (
        ValidationError, "trivectors disagree under the action at (1, 2, 3)",
        "compatible", (1, 2, 3))
    for args in [(sigma, t), (Mat.zero(5, 5), t), (Mat.identity(3), t)]:
        assert _outcome(gl_act, *args) == _outcome(_dense_gl_act, *args)
    e = tuple(tuple(int(a == b) for a in range(5)) for b in range(3))
    assert _outcome(t, *e[:2], e[2][:4]) == _outcome(_dense_call, t, *e[:2],
                                                     e[2][:4])
    assert t(*e) == _dense_call(t, *e) == 1
    assert tv("0", n=0)((), (), ()) == 0


def test_evaluation_and_contraction_read_exact_scalars():
    t = tv("123")
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert t(("1/2", 0, 0), e2, e3) == Fraction(1, 2)
    assert _canonical(t(e1, e2, e3))
    assert contract(t, ("1/2", 0, 0)) == contract(t, (1, 0, 0)).scale("1/2")
    for bad in [lambda: t((1.0, 0, 0), e2, e3),
                lambda: t(e1, e2, (0, 0, 1.5)),
                lambda: contract(t, (1.5, 0, 0))]:
        with pytest.raises(TypeError, match="floats are not exact"):
            bad()


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

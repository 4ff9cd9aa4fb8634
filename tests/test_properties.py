"""Property tests of the stored-half form laws against their dense
definitions: cyclic_defect, invariance_defect and skew_defect on sparse
rational data drawn by Hypothesis, derandomized so every run draws the
same examples; of what a roads case reads (the symmetry test
without a transpose, the family written from the terms, the pair terms
and the shared hyperbolic forms) against the code it replaced or the
definition; and of the integer sums of `linalg._isum` against the
Fraction sums they replaced.
Each test also counts what it drew, so a change to the strategies cannot
quietly stop reaching repeated-index witnesses, forms with entries other
than 1, or inputs where the law holds."""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quadlie import (AltCoeffs, GeneralCocycle, LieAlgebra, Mat, abelian,
                     all_roads, coeffs_to_family, cyclic_defect,
                     hyperbolic_form, invariance_defect, inverse, rank,
                     skew_defect)
from quadlie.linalg import _isum
from quadlie.tstar import _tstar_algebra
from reference import (_dense_invariance_defect, _dense_skew_defect,
                       _loop_pair_terms, _old_fsum, _ref_coeffs_to_family,
                       _ref_cyclic_defect)

_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                     max_examples=150)
# nonzero rationals with numerators and denominators up to 3
_nonzero = st.builds(Fraction, st.integers(1, 3), st.integers(1, 3)) | \
    st.builds(Fraction, st.integers(-3, -1), st.integers(1, 3))


def _sparse(n: int, k: int, max_size: int):
    """Dicts from k-tuples of 1-based labels up to n to nonzero rationals."""
    return st.dictionaries(st.tuples(*[st.integers(1, n)] * k), _nonzero,
                           max_size=max_size)


def _pair_values(n: int, entries) -> dict:
    """w(e_i, e_j)(e_k) += c for each ((i, j, k), c), i != j, as the
    dense values of the stored pairs i < j."""
    vals: dict = {}
    for (i, j, k), c in entries:
        if i != j:
            v = vals.setdefault((min(i, j), max(i, j)), [Fraction(0)] * n)
            v[k - 1] += c if i < j else -c
    return vals


@st.composite
def _cocycles(draw, max_n=5):
    """A GeneralCocycle over abelian(n): an alternating part, cyclic by
    construction, plus a few arbitrary entries that usually break it."""
    n = draw(st.integers(1, max_n))
    alt = draw(_sparse(n, 3, 4))
    extra = draw(_sparse(n, 3, 2))
    # c at (i,j,k) and its rotations, the reversed orders read as -c
    entries = [(p, c) for (i, j, k), c in alt.items() if len({i, j, k}) == 3
               for p in ((i, j, k), (j, k, i), (k, i, j))]
    return GeneralCocycle(abelian(n), _pair_values(n, entries + list(
        extra.items())))


def _symmetric(n: int, entries: dict) -> Mat:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in entries.items():
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = c
    return Mat(rows)


@st.composite
def _algebras_with_forms(draw):
    """Either random sparse brackets with a random sparse symmetric form,
    or the T*-algebra of a cocycle with lam times the hyperbolic form
    plus a symmetric part on B x B, invariant exactly when the cocycle is
    cyclic, and sometimes one more entry that reaches B*."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        brackets = _pair_values(n, draw(_sparse(n, 3, 5)).items())
        return LieAlgebra(n, brackets), _symmetric(n, draw(_sparse(n, 2, 5)))
    w = draw(_cocycles(max_n=4))
    n = w.base.dim
    lam = draw(_nonzero)
    part = draw(_sparse(n, 2, 3))
    part.update(draw(_sparse(2 * n, 2, 1)))
    form = hyperbolic_form(n).scale(lam) + _symmetric(2 * n, part)
    return _tstar_algebra(w), form


@st.composite
def _forms_with_maps(draw):
    """A sparse symmetric form F and a map d: F^-1 A for an antisymmetric
    A when F is invertible (skew), then a few arbitrary entries added."""
    n = draw(st.integers(1, 5))
    form = _symmetric(n, draw(_sparse(n, 2, 2 * n)))
    rows = [[Fraction(0)] * n for _ in range(n)]
    if rank(form) == n:
        a = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), c in draw(_sparse(n, 2, 3)).items():
            if i != j:
                a[i - 1][j - 1], a[j - 1][i - 1] = c, -c
        rows = [list(r) for r in (inverse(form) * Mat(a)).data]
    for (i, j), c in draw(_sparse(n, 2, 2)).items():
        rows[i - 1][j - 1] += c
    return form, Mat(rows)


def _shapes(defects):
    """Which labels of each witness coincide: 'ijk', 'iij', 'iji', ..."""
    out = set()
    for x in defects:
        seen: dict = {}
        out.add("".join(seen.setdefault(v, "ijk"[len(seen)]) for v in x))
    return out


def test_cyclic_defect_matches_dense_definition():
    shapes, empty = set(), 0

    @_SETTINGS
    @given(_cocycles())
    def check(w):
        nonlocal empty
        got = cyclic_defect(w)
        assert got == _ref_cyclic_defect(w)
        shapes.update(_shapes(got))
        empty += not got
    check()
    assert {"ijk", "iij", "iji", "ijj"} <= shapes
    assert 10 <= empty <= 140


def test_invariance_defect_matches_dense_definition():
    shapes, empty, entries = set(), 0, set()

    @_SETTINGS
    @given(_algebras_with_forms())
    def check(case):
        nonlocal empty
        alg, form = case
        got = invariance_defect(alg, form)
        assert got == _dense_invariance_defect(alg, form)
        shapes.update(_shapes(got))
        empty += not got
        entries.update(e == 1 for r in form.sparse_rows for e in r.values())
    check()
    assert {"ijk", "iij", "iji", "ijj"} <= shapes
    assert 10 <= empty <= 140
    assert entries == {True, False}


def test_skew_defect_matches_dense_definition():
    diagonal, empty, entries = 0, 0, set()

    @_SETTINGS
    @given(_forms_with_maps())
    def check(case):
        nonlocal diagonal, empty
        form, d = case
        got = skew_defect(form, d)
        assert got == _dense_skew_defect(form, d)
        diagonal += any(i == j for i, j in got)
        empty += not got
        entries.update(e == 1 for r in form.sparse_rows for e in r.values())
    check()
    assert diagonal >= 10
    assert 10 <= empty <= 140
    assert entries == {True, False}


@st.composite
def _square_or_not(draw):
    """A sparse rational matrix, square three times in four: a symmetric
    part, whose diagonal may be nonzero, then up to two entries anywhere,
    whose mirror is then absent or differs."""
    n = draw(st.integers(0, 5))
    cols = n if draw(st.integers(0, 3)) else draw(st.integers(0, 5))
    rows = [[Fraction(0)] * cols for _ in range(n)]
    if n and cols:
        for (i, j), c in draw(_sparse(min(n, cols), 2, 4)).items():
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = c
        extra = st.tuples(st.integers(1, n), st.integers(1, cols))
        for (i, j), c in draw(st.dictionaries(extra, _nonzero,
                                              max_size=2)).items():
            rows[i - 1][j - 1] += c
    return Mat(rows) if n else Mat.zero(0, cols)


def test_is_symmetric_matches_equality_with_transpose():
    seen = set()

    @_SETTINGS
    @given(_square_or_not())
    def check(m):
        got = m.is_symmetric()
        assert got == (m == m.transpose())
        r = m.sparse_rows
        unmirrored = any(j >= m.rows or i not in r[j]
                         for i, x in enumerate(r) for j in x)
        seen.add((got, m.rows == m.cols, unmirrored))
        if any(i in x for i, x in enumerate(r)):
            seen.add("diagonal")
        if m.rows == m.cols and all(i in r[j] for i, x in enumerate(r)
                                    for j in x if j > i) and unmirrored:
            seen.add("only a lower entry unmirrored")
        if any(e != 1 for x in r for e in x.values()):
            seen.add("not one")
    check()
    # symmetric, unsymmetric with an entry lacking its mirror, unsymmetric
    # with every mirror present but unequal, and not square
    assert {(True, True, False), (False, True, True), (False, True, False),
            (False, False, True), "diagonal", "not one",
            "only a lower entry unmirrored"} <= seen


@st.composite
def _alt_coeffs(draw):
    """Alternating coefficients on n = 0..7 with rational values, some of
    them made through the trusted AltCoeffs._of."""
    n = draw(st.integers(0, 7))
    terms = {} if n < 3 else draw(_sparse(n, 3, 12))
    c = AltCoeffs(n, {t: v for t, v in terms.items() if len(set(t)) == 3})
    return AltCoeffs._of(n, list(c.terms)) if draw(st.booleans()) else c


def _ordered(fam):
    return [[list(r.items()) for r in m.sparse_rows] for m in fam.mats]


def test_coeffs_to_family_matches_pair_term_body():
    sizes = set()

    @_SETTINGS
    @given(_alt_coeffs())
    def check(c):
        got, want = coeffs_to_family(c), _ref_coeffs_to_family(c)
        assert got == want
        assert _ordered(got) == _ordered(want)  # key order too
        sizes.add(min(len(c.terms), 3))
    check()
    assert sizes == {0, 1, 2, 3}


def test_pair_terms_match_value_loop():
    kinds = set()

    @_SETTINGS
    @given(_alt_coeffs())
    def check(c):
        want = list(_loop_pair_terms(c).items())  # key order too
        first = c.pair_terms()
        assert list(first.items()) == want
        first.clear()  # each call hands out a dict of its own
        assert list(c.pair_terms().items()) == want
        copy = AltCoeffs._of(c.n, list(c.terms))
        assert list(copy.pair_terms().items()) == want
        kinds.add(bool(want))
    check()
    assert kinds == {True, False}


def test_shared_hyperbolic_forms_survive_all_roads():
    ran = 0

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=40)
    @given(_alt_coeffs())
    def check(c):
        nonlocal ran
        if c.n >= 3 and c.terms:
            rep = all_roads(c)
            assert rep.equal
            ran += 1
        for n in range(c.n + 1):
            fresh = Mat([[int(j == (i + n) % (2 * n)) for j in range(2 * n)]
                         for i in range(2 * n)]) if n else Mat.zero(0, 0)
            assert hyperbolic_form(n) == fresh
            assert hyperbolic_form(n) is hyperbolic_form(n)
    check()
    assert ran >= 10


def test_isum_over_its_denominator_matches_old_fsum():
    seen = {"rescaled": 0, "cancelled": 0, "integral": 0}

    @_SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(-6, 6),
                              st.integers(1, 12)), max_size=12),
           st.integers(0, 5), st.booleans())
    def check(terms, drop, whole):
        if whole:  # integer terms, which stay over the denominator 1
            terms = [(k, n, 1) for k, n, _ in terms]
        # the terms at key drop, negated, cancel its sum
        terms += [(k, -n, d) for k, n, d in terms if k == drop]
        sums, den = _isum(iter(terms))
        want = _old_fsum(terms)
        assert {k: Fraction(v, den) for k, v in sums.items()} == want
        assert list(sums) == list(want) and den > 0
        assert all(type(v) is int and v for v in sums.values())
        seen["rescaled"] += den > 1
        seen["cancelled"] += len(sums) < len({k for k, n, _ in terms if n})
        seen["integral"] += bool(sums) and den == 1
    check()
    assert min(seen.values()) >= 10

"""Exact linear algebra: RREF, kernel, solve, inverse, subspaces."""
import functools
import random
from fractions import Fraction

import pytest

from quadlie.linalg import (Mat, Subspace, hstack, inverse, kernel,
                            opposite, rank, rref, scalar, solve,
                            vec, vstack)
from quadlie.linalg import _kernel_rows, _skew_pairs
from reference import (_canonical, _dense_contains_vec, _dense_intersect,
                       _dense_inverse, _dense_matvec, _dense_rref,
                       _dense_solve, _old_add,
                       _old_hstack, _old_inverse, _old_is_skew,
                       _old_is_symmetric, _old_kernel, _old_kernel_rows,
                       _old_mul, _old_neg, _old_rref, _old_scale,
                       _old_skew_pairs, _old_sparse_inverse,
                       _old_sparse_solve, _old_sub,
                       _old_transpose, _old_vstack,
                       _pair_law_derivation_space)


def test_scalar_coercion():
    assert scalar(3) == Fraction(3)
    assert scalar("2/5") == Fraction(2, 5)
    assert scalar(Fraction(-1, 7)) == Fraction(-1, 7)
    with pytest.raises(TypeError):
        scalar(0.5)


def test_scalar_str_lowest_terms():
    # the writers emit a scalar's str: "p/q" or "p", in lowest terms
    assert str(scalar("4/6")) == "2/3"
    assert str(scalar(Fraction(-6, 2))) == "-3"


_F = Fraction


@pytest.mark.parametrize("x, y, want", [
    (_F(2, 3), _F(-2, 3), True),
    (_F(-2, 3), _F(2, 3), True),
    (_F(0), _F(0), True),
    (_F(5), _F(-5), True),
    (_F(2, 3), _F(2, 3), False),
    (_F(2, 3), _F(-3, 2), False),
    (_F(-2, 3), _F(-2, 3), False),
    (_F(2), _F(-2, 3), False),
    (_F(2, 3), _F(-2, 5), False),
    (_F(0), _F(1), False),
    (_F(2, 3), None, False),
    (None, _F(2, 3), False),
    (None, None, False),
], ids=["2/3,-2/3", "-2/3,2/3", "0,0", "5,-5", "2/3,2/3", "2/3,-3/2",
        "-2/3,-2/3", "2,-2/3", "2/3,-2/5", "0,1", "x,None", "None,x",
        "None,None"])
def test_opposite_near_misses(x, y, want):
    assert opposite(x, y) is want
    if x is not None and y is not None:
        assert (x == -y) is want


def test_skew_pairs_reads_ints_and_fractions():
    # both orders of each failing pair, sorted; a stored zero counts only
    # against a nonzero mirror
    assert _skew_pairs([{1: 2}, {0: -2}]) == []
    assert _skew_pairs([{1: _F(2, 3)}, {0: _F(-2, 3)}]) == []
    assert _skew_pairs([{1: 2}, {0: _F(-2)}]) == []
    assert _skew_pairs([{0: 0, 1: 0}, {}]) == []
    assert _skew_pairs([{}, {1: 1}]) == [(2, 2)]
    assert _skew_pairs([{1: 2}, {}]) == [(1, 2), (2, 1)]
    assert _skew_pairs([{}, {0: 0}, {1: _F(2, 3)}, {1: _F(-2, 5)}]) == [
        (2, 3), (2, 4), (3, 2), (4, 2)]
    assert _skew_pairs([{1: 1}, {0: 1}, {}]) == [(1, 2), (2, 1)]


def _seeded_near_skew_rows(g, n):
    """A random skew matrix of size n as sparse rows, int or p/q entries,
    with up to three faults or harmless additions: a stored zero, a
    diagonal entry, an entry without its mirror, a mirror with the wrong
    sign, or a mirror with the same numerator over another denominator."""
    rows = [{} for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if g.randint(0, 2):
                continue
            x = (g.randint(-3, 3) if g.randint(0, 1)
                 else _F(g.randint(-5, 5), g.randint(1, 4)))
            if x:
                rows[i][j], rows[j][i] = x, -x
    kinds = []
    for _ in range(g.randint(0, 3)):
        i, j = g.randint(0, n - 1), g.randint(0, n - 1)
        kind = g.choice(["zero", "diagonal", "one-sided", "sign",
                         "denominator"])
        kinds.append(kind)
        x = _F(g.randint(1, 5), g.randint(1, 3)) * g.choice([1, -1])
        if kind == "zero":
            rows[i][j] = g.choice([0, _F(0)])
        elif kind == "diagonal":
            rows[i][i] = g.choice([x, x.numerator])
        elif kind == "one-sided":
            rows[i][j] = x
            if i != j:
                rows[j].pop(i, None)
        elif kind == "sign":
            rows[i][j] = rows[j][i] = x
        else:
            rows[i][j] = x
            rows[j][i] = _F(-x.numerator, x.denominator + 1)
    return rows, kinds


def test_skew_pairs_matches_the_two_sided_comparison():
    # each pair compared once gives the witnesses of every stored entry
    # compared with its mirror, on int and p/q entries, stored zeros,
    # diagonal entries, one-sided entries and p/q mirrors over another
    # denominator
    g = random.Random("skew-pairs:7")
    seen = {"ok": 0, "bad": 0}
    kinds = set()
    for _ in range(3000):
        rows, k = _seeded_near_skew_rows(g, g.randint(1, 7))
        kinds.update(k)
        got = _skew_pairs(rows)
        assert got == _old_skew_pairs(rows)
        seen["bad" if got else "ok"] += 1
    assert kinds == {"zero", "diagonal", "one-sided", "sign", "denominator"}
    assert seen["ok"] > 500 and seen["bad"] > 1000


def test_vec_helpers():
    assert vec([1, "1/2"]) == (Fraction(1), Fraction(1, 2))


def test_mat_construct_and_shape():
    m = Mat([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.data == ((1, 2), (3, 4))
    with pytest.raises(ValueError):
        Mat([[1, 2], [3]])


def test_mat_zero_identity():
    z = Mat.zero(2, 3)
    assert z.is_zero() and z.rows == 2 and z.cols == 3
    assert Mat.identity(2) == Mat([[1, 0], [0, 1]])
    assert Mat.from_rows([], cols=4).cols == 4
    with pytest.raises(ValueError):
        Mat.from_rows([])


def test_from_rows_checks_an_explicit_column_count():
    assert Mat.from_rows([[1, 2]], cols=2) == Mat.from_rows([[1, 2]])
    for cols in (1, 3):
        with pytest.raises(ValueError, match=f"^rows have 2 columns, not "
                                             f"{cols}$"):
            Mat.from_rows([[1, 2]], cols=cols)


def test_mat_symmetry_predicates():
    assert Mat([[0, 1], [1, 0]]).is_symmetric()
    assert not Mat([[0, 1], [-1, 0]]).is_symmetric()
    for m, skew in ((Mat([[0, 1], [-1, 0]]), True),
                    (Mat([[1, 0], [0, 0]]), False),
                    (Mat([[0, 1, 0], [0, 0, 1]]), False)):
        assert (m == -m.transpose()) == skew


def test_mat_arithmetic():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    assert a + b == Mat([[1, 3], [4, 4]])
    assert a - b == Mat([[1, 1], [2, 4]])
    assert -a == Mat([[-1, -2], [-3, -4]])
    assert a.scale("1/2") == Mat([["1/2", 1], ["3/2", 2]])
    assert a * b == Mat([[2, 1], [4, 3]])
    assert a.transpose() == Mat([[1, 3], [2, 4]])


def test_mat_shape_errors():
    a = Mat([[1, 2]])
    with pytest.raises(ValueError):
        a + Mat([[1], [2]])
    with pytest.raises(ValueError):
        a * Mat([[1, 2]])


def test_stacking():
    a = Mat([[1, 2]])
    b = Mat([[3, 4]])
    assert hstack(a, b) == Mat([[1, 2, 3, 4]])
    assert vstack(a, b) == Mat([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        hstack(a, Mat([[1, 2], [3, 4]]))


def test_rref_known():
    m = Mat([[1, 2, 1], [2, 4, 0], [0, 0, 1]])
    r, piv = rref(m)
    assert piv == (0, 2)
    assert r == Mat([[1, 2, 0], [0, 0, 1], [0, 0, 0]])


def test_rref_fractional_pivot():
    r, piv = rref(Mat([["2/3", 1], [0, "5"]]))
    assert r == Mat([[1, 0], [0, 1]])
    assert piv == (0, 1)


def test_rank():
    assert rank(Mat([[1, 2], [2, 4]])) == 1
    assert rank(Mat.zero(3, 3)) == 0
    assert rank(Mat.identity(4)) == 4


def test_kernel():
    # x + 2y + z = 0, z = 0  ->  kernel = span{(-2, 1, 0)}
    k = kernel(Mat([[1, 2, 1], [0, 0, 1]]))
    assert k.dim == 1
    assert _dense_contains_vec(k, (-2, 1, 0))
    assert not _dense_contains_vec(k, (1, 0, 0))
    assert kernel(Mat.identity(3)).dim == 0
    assert kernel(Mat.zero(2, 3)).dim == 3


def test_solve():
    m = Mat([[1, 1], [0, 1]])
    assert solve(m, (3, 1)) == (2, 1)
    # inconsistent
    assert solve(Mat([[1, 1], [1, 1]]), (0, 1)) is None
    # underdetermined: free variables pinned to 0
    s = solve(Mat([[1, 1, 0]]), (5,))
    assert s is not None and _dense_matvec(((1, 1, 0),), s) == (5,)
    assert s == (5, 0, 0)


def test_inverse():
    m = Mat([[1, 2], [3, 4]])
    assert m * inverse(m) == Mat.identity(2)
    assert inverse(Mat.identity(3)) == Mat.identity(3)
    with pytest.raises(ValueError):
        inverse(Mat([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        inverse(Mat.zero(2, 3))


def test_subspace_canonical_equality():
    # same plane, different generating sets
    a = Subspace.from_rows(3, [(1, 0, 1), (0, 1, 0)])
    b = Subspace.from_rows(3, [(1, 1, 1), (2, 1, 2)])
    assert a == b
    assert a.dim == 2
    assert hash(a) == hash(b)


def test_subspace_membership_and_ops():
    s = Subspace.from_rows(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    t = Subspace.from_rows(4, [(0, 1, 0, 0), (0, 0, 1, 0)])
    assert _dense_contains_vec(s, (3, -2, 0, 0))
    assert not _dense_contains_vec(s, (0, 0, 1, 0))
    assert s.intersect(t) == Subspace.from_rows(4, [(0, 1, 0, 0)])
    assert s.sum(t).dim == 3
    assert s.contains(Subspace.from_rows(4, [(1, 1, 0, 0)]))
    assert not s.contains(t)


def test_subspace_zero_full():
    z = Subspace.zero(3)
    f = Subspace.full(3)
    assert z.dim == 0 and f.dim == 3
    assert f.contains(z) and _dense_contains_vec(f, (1, 2, 3))
    assert f.vectors() == list(Mat.identity(3).data)


def test_subspace_dedupes_dependent_rows():
    s = Subspace.from_rows(3, [(1, 2, 0), (2, 4, 0), (0, 0, 0)])
    assert s.dim == 1
    assert _dense_contains_vec(s, ("1/2", 1, 0))


def test_empty_results_keep_their_shape():
    e = Mat.zero(0, 2)
    m = Mat([[1, 2], [3, 4]])
    assert (e * m).rows == 0 and (e * m).cols == 2
    assert Mat.zero(2, 0) * Mat.zero(0, 3) == Mat.zero(2, 3)
    for r in (e + e, e - e, -e, e.scale(2)):
        assert (r.rows, r.cols) == (0, 2)
    assert e.transpose() == Mat.zero(2, 0)
    assert Mat.zero(2, 0).transpose() == Mat.zero(0, 2)
    assert hstack(Mat.zero(0, 1), e) == Mat.zero(0, 3)
    # a kernel of the empty 0x2 product is the whole plane
    assert kernel(e * m) == Subspace.full(2)


def test_contains_matches_rank_reference():
    # v lies in S exactly when adding it keeps the dimension
    from quadlie import SplitMix64
    g = SplitMix64(4242)
    inside = outside = 0
    for seed in range(40):
        n = 1 + seed % 7
        s = Subspace.from_rows(n, [[g.randint(-2, 2) if g.randint(0, 1)
                                    else 0 for _ in range(n)]
                                   for _ in range(g.randint(0, n))])
        combos = [[sum((Fraction(g.randint(-3, 3), g.randint(1, 3)) * r[j]
                        for r in s.basis.data), start=Fraction(0))
                   for j in range(n)] for _ in range(3)]
        randoms = [[g.randint(-2, 2) for _ in range(n)] for _ in range(3)]
        for v in combos + randoms:
            want = s.sum(Subspace.from_rows(n, [v])).dim == s.dim
            assert s.contains(Subspace.from_rows(n, [v])) == want
            inside += want
            outside += not want
        t = Subspace.from_rows(n, combos + randoms[:1])
        assert s.contains(t) == (s.sum(t).dim == s.dim)
    assert inside > 100 and outside > 50


# ---- the sparse rref against the dense Gauss-Jordan it replaced ----

def _recorded_systems(monkeypatch):
    """Every distinct matrix that centre, derived, derivation_space, the
    pair-law derivation_space it replaced and Subspace.intersect hand to
    the elimination core `_eliminate` (through rref, kernel, inverse and
    the spans; some with integer entries) on the catalog and on every 25th seed of the corpora of criteria
    4 and 5. The derivation spaces run on the catalog entries with n <= 5
    and on the last entry of each larger n; the pair law's tall systems
    are the ones past 200 rows."""
    from quadlie import (CATALOG, algebra_from_trivector, derivation_space,
                         double_extend_1d, random_coeffs, tstar_extend)
    from quadlie import linalg
    from quadlie.acceptance import _random_extension_case
    seen = {}
    real = linalg._eliminate

    def record(m):
        seen.setdefault((m.cols, m.data), m)
        return real(m)

    monkeypatch.setattr(linalg, "_eliminate", record)
    last = {e.n: e for e in CATALOG}
    cases = [(algebra_from_trivector(e.trivector), e.n <= 5 or last[e.n] is e)
             for e in CATALOG]
    cases += [(tstar_extend(random_coeffs(3 + s % 5, seed=s)), True)
              for s in range(1000, 1500, 25)]
    for s in range(2000, 2100, 25):
        aq, d = _random_extension_case(s)
        cases += [(aq, True), (double_extend_1d(aq, d), False)]
    for q, with_derivations in cases:
        alg = q.alg
        alg.centre().intersect(alg.derived())
        if with_derivations:
            derivation_space(q)
            _pair_law_derivation_space(q)
    monkeypatch.undo()
    return list(seen.values())


def _random_systems():
    """Seeded matrices with fractional entries: rank-deficient ones, mostly
    zeros, with some rows repeated or scaled; fully dense ones up to 30x30;
    and ones whose numerators and denominators pass 2**64, with rows that
    are other rows times large scales."""
    from quadlie import SplitMix64
    g = SplitMix64(777)
    big = 2 ** 64

    def system(nr, nc, entry, density, scale):
        rows = [[entry() if g.randint(0, density) == 0 else Fraction(0)
                 for _ in range(nc)] for _ in range(g.randint(1, nr))]
        while len(rows) < nr:
            c = scale()
            rows.insert(g.randint(0, len(rows)),
                        [c * e for e in rows[g.randint(0, len(rows) - 1)]])
        return Mat(rows)

    def small():
        return Fraction(g.randint(-4, 4), g.randint(1, 5))

    def huge():
        # randint spans at most 2**64 values
        sign = 1 - 2 * g.randint(0, 1)
        return Fraction(sign * (g.randint(1, 9) * big + g.next_u64()),
                        g.randint(1, 9) * big + g.next_u64() + 1)

    out = [system(g.randint(1, 9), g.randint(1, 9), small, 2,
                  lambda: Fraction(g.randint(-3, 3), g.randint(1, 3)))
           for _ in range(150)]
    for k in range(12):
        n = 6 + 2 * k
        out.append(system(n, g.randint(n - 3, n), small, 0,
                          lambda: Fraction(g.randint(-3, 3), g.randint(1, 3))))
    for k in range(30):
        out.append(system(g.randint(1, 9), g.randint(1, 9),
                          huge if k % 2 else small, 1, huge))
    return out


def test_rref_matches_dense_reference(monkeypatch):
    systems = _recorded_systems(monkeypatch)
    shapes = {(m.rows, m.cols) for m in systems}
    assert len(systems) > 100 and max(r for r, _ in shapes) > 200
    systems += _random_systems()
    systems += [Mat.zero(0, 3), Mat.zero(3, 0), Mat.zero(0, 0)]
    deficient = 0
    for m in systems:
        got, want = rref(m), _dense_rref(m)
        assert got == want, m
        assert (got[0].rows, got[0].cols) == (m.rows, m.cols)
        deficient += len(got[1]) < min(m.rows, m.cols)
    assert deficient > 100


# ---- the integer elimination core against the Fraction code it replaced ----

def test_integer_core_matches_old_elimination(monkeypatch):
    """rref, rank, kernel, solve and inverse read _eliminate's integer
    rows; each gives what it gave when it read the Fraction RREF, and each
    integer kernel row over its free-column entry is the old row."""
    systems = _recorded_systems(monkeypatch) + _random_systems()
    systems += list(_tall_systems()) + _edge_systems()
    squares = [m for m in systems if m.rows == m.cols]
    squares += [Mat.identity(5), hstack(Mat.identity(3), Mat.zero(3, 0))]
    squares += _built_forms()
    wide = 0
    for m in systems:
        R, pivots = _old_rref(m)
        assert rref(m) == (R, pivots)
        assert rank(m) == len(pivots)
        rows = _kernel_rows(m)
        free = [f for f in range(m.cols) if f not in pivots]
        assert len(rows) == len(free)
        for f, x, y in zip(free, rows, _old_kernel_rows(m)):
            assert list(x) == sorted(x)
            assert all(type(e) is int and e for e in x.values())
            assert {j: Fraction(e, x[f]) for j, e in x.items()} == y
        k = kernel(m)
        assert k == _old_kernel(m)
        assert all(_canonical(e) for r in k.basis.sparse_rows
                   for e in r.values())
        wide += len(free) > 1
        # a consistent right-hand side (the sum of the columns) and one
        # that is usually not
        for rhs in ([sum(r.values(), Fraction(0)) for r in m.sparse_rows],
                    [Fraction(i + 1, 2) for i in range(m.rows)]):
            assert solve(m, rhs) == _old_sparse_solve(m, rhs)
    for m in squares:
        got, want = _outcome(inverse, m), _outcome(_old_sparse_inverse, m)
        if isinstance(want, Mat):
            _same(got, want)
        else:
            assert got == want
    assert wide > 50 and len(squares) > 50


# ---- the early stop on tall systems ----

@functools.cache
def _tall_systems():
    """Seeded tall systems whose rank is known long before their last row:
    rows spanning every occupied column come first (or one of them comes
    last), and many rows in their span follow, some of them zero. Every
    third system leaves some columns empty, so its rank stays below cols."""
    from quadlie import SplitMix64
    g = SplitMix64(2121)

    def small():
        return Fraction(g.randint(-3, 3), g.randint(1, 3))

    out = []
    for k in range(36):
        nc = 1 + k % 9
        empty = ({j for j in range(nc) if g.randint(0, 2) == 0}
                 if k % 3 == 1 else set())
        used = [j for j in range(nc) if j not in empty]
        basis = []
        while len(basis) < len(used):
            row = [small() if j in used else Fraction(0) for j in range(nc)]
            if rank(Mat(basis + [row])) > len(basis):
                basis.append(row)
        tail = [[sum((g.randint(-2, 2) * b[j] for b in basis), Fraction(0))
                 for j in range(nc)] for _ in range(12 + 8 * k)]
        if k % 4 == 3 and basis:
            # the rank is reached at the last row only
            tail.append(basis.pop(g.randint(0, len(basis) - 1)))
        out.append(Mat(basis + tail) if basis + tail
                   else Mat.zero(0, nc))
    return tuple(out)


def _edge_systems():
    """Zero-row and zero-column systems, and all-zero ones."""
    return [Mat.zero(0, 0), Mat.zero(0, 4), Mat.zero(5, 0), Mat.zero(6, 3)]


def test_tall_rref_matches_dense_reference():
    systems = list(_tall_systems()) + _edge_systems()
    short = 0
    for m in systems:
        got, want = rref(m), _dense_rref(m)
        assert got == want, m
        assert (got[0].rows, got[0].cols) == (m.rows, m.cols)
        k = kernel(m)
        assert k.dim == m.cols - len(want[1])
        assert not any(any(_dense_matvec(m.data, v)) for v in k.vectors())
        short += len(got[1]) < m.cols
    assert short >= 10 and max(m.rows for m in systems) > 250


class _Row(dict):
    """A sparse row that records when rref reads its entries, through
    items() (an integer row) or values() (a row with denominators)."""
    reads: list = []

    def items(self):
        _Row.reads.append(id(self))
        return super().items()

    def values(self):
        _Row.reads.append(id(self))
        return super().values()


def test_rref_reads_no_row_past_the_occupied_rank():
    # columns 1 and 4 are empty, so the rank stops at 4 of 6 columns; the
    # 55 middle rows lie in the span of the first two. With all of `first`
    # in front the rank is reached at row 5, and nothing after it is read;
    # with three of them at the end it is reached at the last row.
    f = Fraction
    first = [{0: f(1), 2: f(2)}, {2: f(-1, 2)}, {}, {3: f(3), 5: f(1)},
             {0: f(1), 5: f(7)}]
    rest = [{0: f(k), 2: f(k + 1, 3)} for k in range(1, 56)]
    for split, want_rows in ((5, 5), (2, 60)):
        rows = [_Row(r) for r in first[:split] + rest + first[split:]]
        _Row.reads = []
        got = rref(Mat._of(rows, 6))
        assert got == _dense_rref(Mat._of(rows, 6))
        assert got[1] == (0, 2, 3, 5)
        # a row with denominators is read more than once
        assert list(dict.fromkeys(_Row.reads)) == [
            id(r) for r in rows[:want_rows]]


def test_solve_finds_the_last_inconsistent_row():
    # every row but the last is consistent, and the system reaches its
    # full occupied rank long before it
    checked = inconsistent = 0
    for m in _tall_systems():
        if m.rows == 0:
            continue
        x = [Fraction(j + 1, 2) for j in range(m.cols)]
        rhs = list(_dense_matvec(m.data, x))
        assert solve(m, rhs) == _dense_solve(m, rhs) is not None
        rhs[-1] += 1
        got = solve(m, rhs)
        assert got == _dense_solve(m, rhs)
        inconsistent += got is None
        checked += 1
    assert inconsistent == checked > 30
    for m in _edge_systems():
        rhs = (0,) * m.rows
        assert solve(m, rhs) == _dense_solve(m, rhs) == (0,) * m.cols
        if m.rows:
            assert solve(m, (0,) * (m.rows - 1) + (1,)) is None


def test_tall_intersect_and_inverse_match_dense_reference():
    systems = _tall_systems()
    for a, b in zip(systems, systems[1:] + systems[:1]):
        if a.cols != b.cols:
            b = Mat._of([{j: e for j, e in r.items() if j < a.cols}
                         for r in b.sparse_rows], a.cols)
        u, v = Subspace._of(a.cols, a.sparse_rows), Subspace._of(
            a.cols, b.sparse_rows)
        assert u.intersect(v) == _dense_intersect(u, v)
        assert u.intersect(u) == u == _dense_intersect(u, u)
        assert u.intersect(Subspace.zero(a.cols)) == Subspace.zero(a.cols)
    for n in range(0, 6):
        assert Subspace.zero(n).intersect(Subspace.full(n)) == \
            _dense_intersect(Subspace.zero(n), Subspace.full(n))
    invertible = singular = 0
    for m in systems:
        # the square block of the spanning rows, and of the dependent ones
        for sq in (Mat(m.data[:m.cols]), Mat(m.data[-m.cols:])):
            if sq.rows != sq.cols:
                continue
            try:
                want = _dense_inverse(sq)
            except ValueError:
                with pytest.raises(ValueError, match="singular"):
                    inverse(sq)
                singular += 1
                continue
            assert inverse(sq) == want
            invertible += 1
    assert inverse(Mat.zero(0, 0)) == _dense_inverse(Mat.zero(0, 0))
    assert invertible > 5 and singular > 5


# ---- the sparse view of a matrix ----

def _assert_view(m):
    """sparse_rows holds each row's nonzero entries, columns ascending."""
    assert len(m.sparse_rows) == m.rows
    for r, row in zip(m.data, m.sparse_rows):
        assert list(row.items()) == [(j, e) for j, e in enumerate(r) if e]


def _built_forms():
    """The forms the constructions write as sparse rows: hyperbolic forms,
    and double-extension forms over the zero algebra, over hyperbolic and
    T* bases, and by a two-dimensional algebra."""
    from quadlie import (abelian, double_extend, double_extend_1d,
                         hyperbolic_form)
    from quadlie.acceptance import _random_extension_case
    forms = [hyperbolic_form(n) for n in range(5)]
    forms.append(double_extend_1d(None, Mat.zero(0, 0)).form)
    for seed in range(2000, 2008):
        aq, d = _random_extension_case(seed)
        forms.append(double_extend_1d(aq, d).form)
        forms.append(double_extend(aq, abelian(2), [d, d]).form)
    return forms


def test_sparse_rows_match_dense_rows(monkeypatch):
    systems = _recorded_systems(monkeypatch) + _random_systems()
    systems += [Mat.zero(0, 3), Mat.zero(3, 0), Mat.zero(2, 2)]
    systems += [Mat([[0, "1/2", 0], [3, 0, -1]]), Mat.identity(3)]
    systems.append(Mat._of([{1: Fraction(5)}, {0: Fraction(-2)}], 2))
    systems += _built_forms()
    for m in systems:
        _assert_view(m)
        # its dense view, validated back, is the same matrix
        dense = Mat.from_rows(m.data, m.cols)
        alone = Mat._of(dense.sparse_rows, m.cols)
        assert (alone.rows, alone.cols) == (m.rows, m.cols)
        assert alone.data == dense.data == m.data
        assert alone == dense == m and hash(alone) == hash(dense) == hash(m)
        t = m.transpose()
        _assert_view(t)
        _assert_view(m * t)
        R, pivots = rref(m)
        _assert_view(R)
        assert not any(R.sparse_rows[len(pivots):])
        span = Subspace.from_rows(m.cols, m.data)
        for s in (span, kernel(m), kernel(t), kernel(m).sum(kernel(t * m)),
                  kernel(m).intersect(span)):
            _assert_view(s.basis)
            # contains takes a basis row's first key as its pivot
            assert [next(iter(r)) for r in s.basis.sparse_rows] == \
                list(rref(s.basis)[1])


# ---- the sparse Mat operations against the dense ones they replaced ----

def _outcome(f, *args):
    """f's result, or the type and message of the error it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return ("ValueError", str(e))


def _same(got, want):
    if isinstance(want, Mat):
        assert isinstance(got, Mat)
        _assert_view(got)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert got.data == want.data and got == want
        assert hash(got) == hash(want)
    else:
        assert got == want


def _operand_pairs():
    """Seeded (a, b) pairs: same shapes, including 0xk and kx0, with
    fractional entries, b sometimes cancelling rows of a or symmetric or
    skew; and pairs of other shapes."""
    from quadlie import SplitMix64
    g = SplitMix64(4242)

    def mat(nr, nc, density):
        return Mat([[Fraction(g.randint(-3, 3), g.randint(1, 4))
                     if g.randint(0, density) == 0 else 0
                     for _ in range(nc)] for _ in range(nr)]) \
            if nr else Mat.zero(0, nc)

    pairs = []
    for _ in range(160):
        kind = g.randint(0, 3)
        nr = g.randint(0, 5)
        nc = nr if kind == 1 else g.randint(0, 5)
        a = mat(nr, nc, g.randint(0, 3))
        if kind == 0:
            # b cancels some rows of a, and a + b has zero rows
            b = Mat.from_rows([[-x for x in r] if g.randint(0, 1) else r
                               for r in a.data], nc)
        elif kind == 1:
            b = a + a.transpose() if g.randint(0, 1) else a - a.transpose()
        else:
            b = mat(nr, nc, g.randint(0, 3))
        pairs.append((a, b))
        pairs.append((a, mat(nc, g.randint(0, 5), g.randint(0, 3))))
        pairs.append((a, mat(g.randint(0, 5), g.randint(0, 5), 1)))
    return pairs


def test_sparse_mat_operations_match_dense_reference():
    from quadlie import hyperbolic_form
    pairs = _operand_pairs()
    singular = invertible = cancelled = 0
    for a, b in pairs:
        for new, old in ((Mat.__add__, _old_add), (Mat.__sub__, _old_sub),
                         (Mat.__mul__, _old_mul), (hstack, _old_hstack),
                         (vstack, _old_vstack)):
            _same(_outcome(new, a, b), _outcome(old, a, b))
        total = _outcome(Mat.__add__, a, b)
        cancelled += isinstance(total, Mat) and any(
            r and not t for r, t in zip(a.sparse_rows, total.sparse_rows))
        for m in (a, b):
            _same(m.transpose(), _old_transpose(m))
            _same(-m, _old_neg(m))
            for c in (0, "-2/3", Fraction(5)):
                _same(m.scale(c), _old_scale(m, c))
            assert m.is_symmetric() == _old_is_symmetric(m)
            assert (m == -m.transpose()) == _old_is_skew(m)
            got, want = _outcome(inverse, m), _outcome(_old_inverse, m)
            _same(got, want)
            singular += want == ("ValueError", "singular matrix")
            invertible += isinstance(want, Mat)
    assert singular > 20 and invertible > 20
    assert sum(a.is_symmetric() for a, _ in pairs) > 20
    assert sum(_old_is_skew(b) and not b.is_zero() for _, b in pairs) > 5
    assert cancelled > 10
    h = hyperbolic_form(3)
    assert h.is_symmetric() and _old_is_symmetric(h)
    _same(h * h, _old_mul(h, h))


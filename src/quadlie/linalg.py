"""Exact linear algebra over the rationals.

Everything downstream runs on this: matrices of `fractions.Fraction` stored
once, as each row's nonzero entries in a {column: entry} dict, with the
dense rows a view built on each read; fraction-free sums of products
(`_isum`: integer numerators over one common denominator), which matrix
products, brackets and the law checks accumulate in; and one integer
elimination core, `_eliminate`, which reduces those dicts scaled to
integers to primitive integer pivot rows and stops once it holds a pivot
in every column that has an entry. Its callers read the integers: `rank`
the pivot count, `inverse` the right half, `solve` one column, `kernel`
integer rows, and a span takes integer rows as they are. Fractions are
built only where a caller reads them: the RREF (`rref`, and so the
canonical basis of each `Subspace`), an inverse, a solution, a product.

Vectors are plain tuples of Fractions. Basis labels elsewhere in the package
are 1-based; coordinates here are 0-based Python indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass int, Fraction or 'p/q'")
    return Fraction(x)


def opposite(x: Fraction | None, y: Fraction | None) -> bool:
    """Whether x = -y, and False where either is None (an absent entry).
    A Fraction is kept in lowest terms with a positive denominator, so
    this compares numerators and denominators without building -y."""
    return (x is not None and y is not None
            and x.denominator == y.denominator
            and x.numerator == -y.numerator)


def _skew_pairs(rows: Sequence[dict]) -> list[tuple[int, int]]:
    """The sorted 1-based pairs (i+1, j+1), (j+1, i+1) for each stored
    rows[i][j] not opposite rows[j].get(i, ZERO): where the square matrix
    of these sparse rows, ints or Fractions, is not minus its transpose."""
    bad = set()
    for i, r in enumerate(rows):
        for j, x in r.items():
            if not opposite(x, rows[j].get(i, ZERO)):
                bad.update(((i + 1, j + 1), (j + 1, i + 1)))
    return sorted(bad)


def _isum(terms: Iterable[tuple[object, int, int]]) -> tuple[dict, int]:
    """The sum of n/d at each key over (key, n, d) terms, for integers n
    and d > 0, as integers over one common denominator: the nonzero
    integer sums, keys ascending, and that denominator. The numerators
    add over it, scaled up to the lcm only when a term's d does not
    divide it; a span reads the sums alone, and `_divide` makes them
    Fractions."""
    acc: dict = {}
    den = 1
    for k, n, d in terms:
        if d != den:
            if den % d:
                g = lcm(den, d)
                for j in acc:
                    acc[j] *= g // den
                den = g
            n *= den // d
        acc[k] = acc.get(k, 0) + n
    return {k: v for k, v in sorted(acc.items()) if v}, den


def _divide(sums: dict, den: int) -> dict:
    """Each integer sum of _isum over its denominator, as a Fraction: one
    division per sum, none when the denominator is 1."""
    if den == 1:
        return {k: Fraction(v) for k, v in sums.items()}
    return {k: Fraction(v, den) for k, v in sums.items()}


def vec(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(scalar(e) for e in entries)


class Mat:
    """Immutable matrix over Fraction, stored once as `sparse_rows`: each
    row's nonzero entries as a {column: entry} dict, columns ascending. The
    dicts are shared: never mutate them. `data` is the dense view."""

    __slots__ = ("rows", "cols", "sparse_rows")

    def __init__(self, data: Sequence[Sequence]):
        rows = tuple(tuple(scalar(e) for e in r) for r in data)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.cols:
                raise ValueError("ragged rows")
        self.sparse_rows = tuple([{j: e for j, e in enumerate(r) if e}
                                  for r in rows])

    @classmethod
    def _of(cls, sparse: Iterable[dict[int, Fraction]], cols: int) -> "Mat":
        """Trusted constructor: rows of nonzero Fractions as {column: entry},
        columns ascending and below cols, explicit so that a result with no
        rows keeps its shape."""
        m = object.__new__(cls)
        m.sparse_rows = tuple(sparse)
        m.rows = len(m.sparse_rows)
        m.cols = cols
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        return cls._of(({},) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._of([{k: ONE} for k in range(n)], n)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "Mat":
        rows = list(rows)
        if not rows:
            if cols is None:
                raise ValueError("empty matrix needs explicit column count")
            return cls.zero(0, cols)
        m = cls(rows)
        if cols is not None and cols != m.cols:
            raise ValueError(f"rows have {m.cols} columns, not {cols}")
        return m

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense rows, built on each read: the dense API of Mat."""
        z = (ZERO,) * self.cols
        return tuple(tuple(map(r.get, range(self.cols), z))
                     for r in self.sparse_rows)

    def transpose(self) -> "Mat":
        out: list[dict[int, Fraction]] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.sparse_rows):
            for j, e in r.items():
                out[j][i] = e
        return Mat._of(out, self.rows)

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def is_symmetric(self) -> bool:
        # a mirror is often the same object; `is` skips Fraction.__eq__
        s = self.sparse_rows
        return self.rows == self.cols and all(
            (x := s[j].get(i)) is e or x == e
            for i, r in enumerate(s) for j, e in r.items())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols
                and self.sparse_rows == other.sparse_rows)

    def __hash__(self):
        # entries are in lowest terms: no Fraction.__hash__ (a modular inverse)
        return hash((self.cols, tuple(
            tuple((j, e.numerator, e.denominator) for j, e in r.items())
            for r in self.sparse_rows)))

    def _combine(self, other: "Mat", c: Fraction) -> "Mat":
        """self + c other, row by row."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        out = []
        for r1, r2 in zip(self.sparse_rows, other.sparse_rows):
            v = dict(r1)
            for j, e in r2.items():
                v[j] = v.get(j, ZERO) + c * e
            out.append({j: x for j, x in sorted(v.items()) if x})
        return Mat._of(out, self.cols)

    def __add__(self, other: "Mat") -> "Mat":
        return self._combine(other, ONE)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._combine(other, -ONE)

    def __neg__(self) -> "Mat":
        return self.scale(-ONE)

    def scale(self, c) -> "Mat":
        c = scalar(c)
        return Mat._of([{j: c * e for j, e in r.items()} if c else {}
                        for r in self.sparse_rows], self.cols)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{other.rows}x{other.cols}")
        return Mat._of([other._vecmat(r.items()) for r in self.sparse_rows],
                       other.cols)

    def _vecmat(self, x: Iterable[tuple[int, Fraction]]
                ) -> dict[int, Fraction]:
        """x self for x given as (row, entry) pairs: the sum of entry times
        that row, as its nonzero entries, columns ascending."""
        rows = self.sparse_rows
        return _divide(*_isum((k, c.numerator * e.numerator,
                               c.denominator * e.denominator)
                              for j, c in x for k, e in rows[j].items()))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"


def hstack(a: Mat, b: Mat) -> Mat:
    if a.rows != b.rows:
        raise ValueError("row mismatch")
    return Mat._of(({**ra, **{a.cols + j: e for j, e in rb.items()}}
                    for ra, rb in zip(a.sparse_rows, b.sparse_rows)),
                   a.cols + b.cols)


def vstack(a: Mat, b: Mat) -> Mat:
    if a.cols != b.cols:
        raise ValueError("col mismatch")
    return Mat._of(a.sparse_rows + b.sparse_rows, a.cols)


def _clear(row: dict, col: int, prow: dict) -> None:
    """In place, row = (a/g) row - (f/g) prow on integer rows, with a the
    pivot of prow at col, f = row[col] and g = gcd(a, f): col is cleared."""
    a, f = prow[col], row[col]
    g = gcd(a, f)
    a, f = a // g, f // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, e in prow.items():
        x = row.get(j, 0) - f * e
        if x:
            row[j] = x
        else:
            del row[j]


def _primitive(row: dict) -> dict:
    """row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {j: e // g for j, e in row.items()}


def _eliminate(m: Mat) -> dict[int, dict[int, int]]:
    """The primitive integer pivot rows of m's row space, as pivot column
    -> {column: entry}: each row is zero in every other pivot column, so
    dividing row p by its entry at p gives row p of the RREF. Entries of m
    may be ints or Fractions; a row whose denominators are all 1 is read
    as it is, any other is scaled to integers by their lcm. Each row is
    reduced by the pivot rows found so far; one that stays nonzero is made
    primitive and clears its first column from the pivot rows that hold
    it, which are looked for only once some pivot row has held it.

    The rank cannot pass the number of columns that hold an entry, so the
    elimination stops once it has that many pivots: their rows then span
    every such column, and each later row already lies in the span."""
    occupied = len(set().union(*m.sparse_rows))
    piv: dict[int, dict[int, int]] = {}  # pivot column -> its row
    held: set[int] = set()  # every column a pivot row has held
    for r in m.sparse_rows:
        row = {j: e.numerator for j, e in r.items() if e.denominator == 1}
        if len(row) < len(r):
            den = lcm(*[e.denominator for e in r.values()])
            row = {j: e.numerator * (den // e.denominator)
                   for j, e in r.items()}
        for p in [p for p in row if p in piv]:
            _clear(row, p, piv[p])
        if not row:
            continue
        row = _primitive(row)
        col = min(row)
        if col in held:
            for p, prow in piv.items():
                if col in prow:
                    _clear(prow, col, row)
                    piv[p] = _primitive(prow)
        piv[col] = row
        held.update(row)
        if len(piv) == occupied:
            break
    return piv


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """The unique reduced row echelon form, zero rows last, and its pivot
    columns: each pivot row of _eliminate divided by its pivot, which
    becomes the shared ONE; a pivot of 1 divides nothing. The result comes
    as a sparse view alone."""
    piv = _eliminate(m)
    pivots = tuple(sorted(piv))
    sparse = [_reduced(piv[p], p) for p in pivots]
    sparse += [{}] * (m.rows - len(pivots))
    return Mat._of(sparse, m.cols), pivots


def _reduced(row: dict[int, int], p: int) -> dict[int, Fraction]:
    """Pivot row p of _eliminate as a row of the RREF, columns ascending."""
    a = row[p]
    if a == 1:
        return {j: ONE if j == p else Fraction(e)
                for j, e in sorted(row.items())}
    return {j: ONE if j == p else Fraction(e, a)
            for j, e in sorted(row.items())}


def rank(m: Mat) -> int:
    return len(_eliminate(m))


def _kernel_rows(m: Mat) -> list[dict[int, int]]:
    """A basis of {x : m x = 0}, one integer row per free column f of m:
    pivot row p of _eliminate reads a_p x_p + sum e_f x_f = 0 over the free
    columns f, so with L the lcm of the pivots a_p of the rows that hold f,
    x_f = -L and x_p = e_f (L / a_p), 0 elsewhere; divided by -L it is the
    row with x_f = 1. Rows are {column: entry}, columns ascending, and not
    in RREF; a caller that maps them on spans the image once, in its own
    Subspace."""
    piv = _eliminate(m)
    reads: dict[int, list[tuple[int, int, int]]] = {
        f: [] for f in range(m.cols) if f not in piv}  # f -> (p, a_p, e_f)
    for p, row in piv.items():
        a = row[p]
        for f, e in row.items():
            if f != p:
                reads[f].append((p, a, e))
    out = []
    for f, rs in reads.items():
        L = lcm(*[a for _, a, _ in rs])
        x = {p: e * (L // a) for p, a, e in rs}
        x[f] = -L
        out.append(dict(sorted(x.items())))
    return out


def kernel(m: Mat) -> "Subspace":
    """{x : m x = 0} as a Subspace of dim cols - rank."""
    return Subspace._of(m.cols, _kernel_rows(m))


def _span_rows(xs: Iterable[dict], m: Mat) -> Iterator[dict[int, int]]:
    """The rows x m for rows x of ints or Fractions, one at a time, each as
    integers over its own denominator, which is dropped: each is a
    positive multiple of x m, so a span, a kernel or a zero test reads
    them as they are."""
    rows = m.sparse_rows
    return (_isum((k, c.numerator * e.numerator,
                   c.denominator * e.denominator)
                  for j, c in x.items() for k, e in rows[j].items())[0]
            for x in xs)


def solve(m: Mat, rhs: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """One solution of m x = rhs, or None. Free variables set to 0."""
    if m.rows != len(rhs):
        raise ValueError("length mismatch")
    b = m.cols
    aug = [{**r, b: c} if c else r
           for r, c in zip(m.sparse_rows, map(scalar, rhs))]
    piv = _eliminate(Mat._of(aug, b + 1))
    if b in piv:
        return None  # inconsistent
    x = [ZERO] * b
    for p, row in piv.items():
        if b in row:
            x[p] = Fraction(row[b], row[p])
    return tuple(x)


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    piv = _eliminate(hstack(m, Mat.identity(n)))
    if len(piv) != n or any(p >= n for p in piv):
        raise ValueError("singular matrix")
    # RREF [I | m^-1]: row p holds its pivot and row p of m^-1
    return Mat._of(({j - n: e for j, e in _reduced(piv[p], p).items()
                     if j >= n} for p in range(n)), n)


@dataclass(frozen=True)
class Subspace:
    """Row-space subspace; basis rows kept in RREF, zero rows dropped.

    Equal subspaces compare equal because RREF is canonical.
    """
    ambient_dim: int
    basis: Mat

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[Sequence]) -> "Subspace":
        rows = [vec(r) for r in rows]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("row length != ambient dim")
        return cls._of(ambient_dim, Mat(rows).sparse_rows)

    @classmethod
    def _of(cls, ambient_dim: int, sparse: Sequence[dict]) -> "Subspace":
        """Trusted constructor: the span of {column: entry} rows of nonzero
        ints or Fractions, columns below ambient_dim."""
        R, pivots = rref(Mat._of(sparse, ambient_dim))
        return cls(ambient_dim, Mat._of(R.sparse_rows[:len(pivots)],
                                        ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.zero(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, other: "Subspace") -> bool:
        if other.dim and other.ambient_dim != self.ambient_dim:
            raise ValueError("length mismatch")
        return self._holds(other.basis.sparse_rows)

    def _holds(self, rows: Iterable[dict[int, Fraction]]) -> bool:
        """Whether every sparse row of nonzero Fractions lies in the span.
        The basis is in RREF, each row's first key its pivot, so v does
        exactly when v = sum v_p b_p over the pivots p in v's support."""
        lead = {next(iter(b)): k for k, b in enumerate(self.basis.sparse_rows)}
        return all(v == self.basis._vecmat((lead[p], f) for p, f in v.items()
                                           if p in lead) for v in rows)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")
        return Subspace._of(self.ambient_dim, self.basis.sparse_rows
                            + other.basis.sparse_rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rows [u|u] for u in U, [v|0] for v in V."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")
        n = self.ambient_dim
        rows = [{**u, **{j + n: e for j, e in u.items()}}
                for u in self.basis.sparse_rows]
        piv = _eliminate(Mat._of(rows + list(other.basis.sparse_rows),
                                 2 * n))
        return Subspace._of(n, [{j - n: e for j, e in row.items()}
                                for p, row in piv.items() if p >= n])

    def vectors(self) -> list[tuple[Fraction, ...]]:
        """The dense basis rows, for callers outside the package."""
        return list(self.basis.data)

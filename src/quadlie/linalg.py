"""Exact linear algebra over the rationals.

Everything downstream runs on this: matrices of `fractions.Fraction` stored
once, as each row's nonzero entries in a {column: entry} dict, with the
dense rows a view built on each read; the unique RREF by a fraction-free
elimination of those dicts scaled to integers, which stops once it holds
a pivot in every column that has an entry; fraction-free sums of products
(`_fsum`: integer numerators over one common denominator, one division per
sum), which matrix products, brackets and the law checks accumulate in;
kernels, solving, and row-space subspaces in canonical RREF form.

Vectors are plain tuples of Fractions. Basis labels elsewhere in the package
are 1-based; coordinates here are 0-based Python indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

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


def _fsum(terms: Iterable[tuple[object, int, int]]) -> dict:
    """The sum of n/d at each key over (key, n, d) terms, for integers n
    and d > 0, as its nonzero values, keys ascending. The numerators add
    over one common denominator, scaled up to the lcm only when a term's
    d does not divide it, and each sum divides once at the end."""
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
    return {k: Fraction(v) if den == 1 else Fraction(v, den)
            for k, v in sorted(acc.items()) if v}


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
        return cls(rows)

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
        return _fsum((k, c.numerator * e.numerator,
                      c.denominator * e.denominator)
                     for j, c in x for k, e in rows[j].items())

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


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """The unique reduced row echelon form, zero rows last, and its pivot
    columns. Fraction-free: each row's {column: entry} dict is scaled to
    integers by the lcm of its denominators and reduced by the pivot rows
    found so far, which are primitive and zero in every other pivot column;
    a row that stays nonzero clears its first column from them. Only the
    result divides, by each row's pivot; it comes as a sparse view alone.

    The rank cannot pass the number of columns that hold an entry, so the
    elimination stops once it has that many pivots: their rows then span
    every such column, and each later row already lies in the span."""
    occupied = len(set().union(*m.sparse_rows))
    piv: dict[int, dict[int, int]] = {}  # pivot column -> its row
    for r in m.sparse_rows:
        den = lcm(*[e.denominator for e in r.values()])
        row = {j: e.numerator * (den // e.denominator) for j, e in r.items()}
        for p in [p for p in row if p in piv]:
            _clear(row, p, piv[p])
        if not row:
            continue
        row = _primitive(row)
        col = min(row)
        for p, prow in piv.items():
            if col in prow:
                _clear(prow, col, row)
                piv[p] = _primitive(prow)
        piv[col] = row
        if len(piv) == occupied:
            break
    pivots = tuple(sorted(piv))
    sparse = [{j: ONE if j == p else Fraction(e, piv[p][p])
               for j, e in sorted(piv[p].items())} for p in pivots]
    sparse += [{}] * (m.rows - len(pivots))
    return Mat._of(sparse, m.cols), pivots


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def _kernel_rows(m: Mat) -> list[dict[int, Fraction]]:
    """A basis of {x : m x = 0}, one row per free column f of m's RREF R:
    x_f = 1, x_p = -R[p][f] at each pivot p, 0 elsewhere, as {column:
    entry} rows, columns ascending. The rows are not in RREF; a caller
    that maps them on spans the image once, in its own Subspace."""
    R, pivots = rref(m)
    pivset = set(pivots)
    gens = {f: {f: ONE} for f in range(m.cols) if f not in pivset}
    # pivot row p is x_p + sum R[p][f] x_f over the free columns f
    for p, row in zip(pivots, R.sparse_rows):
        for f, e in row.items():
            if f != p:
                gens[f][p] = -e
    return [dict(sorted(v.items())) for v in gens.values()]


def kernel(m: Mat) -> "Subspace":
    """{x : m x = 0} as a Subspace of dim cols - rank."""
    return Subspace._of(m.cols, _kernel_rows(m))


def solve(m: Mat, rhs: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """One solution of m x = rhs, or None. Free variables set to 0."""
    if m.rows != len(rhs):
        raise ValueError("length mismatch")
    aug = [{**r, m.cols: b} if b else r
           for r, b in zip(m.sparse_rows, map(scalar, rhs))]
    R, pivots = rref(Mat._of(aug, m.cols + 1))
    if m.cols in pivots:
        return None  # inconsistent
    x = [ZERO] * m.cols
    for p, row in zip(pivots, R.sparse_rows):
        x[p] = row.get(m.cols, ZERO)
    return tuple(x)


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    R, pivots = rref(hstack(m, Mat.identity(n)))
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("singular matrix")
    return Mat._of(({j - n: e for j, e in r.items() if j >= n}
                    for r in R.sparse_rows), n)


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
        Fractions, columns ascending and below ambient_dim."""
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
        R, pivots = rref(Mat._of(rows + list(other.basis.sparse_rows), 2 * n))
        return Subspace._of(n, [{j - n: e for j, e in row.items()}
                                for row, p in zip(R.sparse_rows, pivots)
                                if p >= n])

    def vectors(self) -> list[tuple[Fraction, ...]]:
        """The dense basis rows, for callers outside the package."""
        return list(self.basis.data)

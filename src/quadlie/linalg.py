"""Exact linear algebra over the rationals.

Everything downstream runs on this: dense matrices of `fractions.Fraction`,
deterministic RREF (first nonzero entry in column order picks the pivot),
kernels, solving, and row-space subspaces in canonical RREF form.

Vectors are plain tuples of Fractions. Basis labels elsewhere in the package
are 1-based; coordinates here are 0-based Python indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
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


def scalar_str(x: Fraction) -> str:
    # Fraction str() is already "p/q" or "p" in lowest terms
    return str(x)


def vec(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(scalar(e) for e in entries)


def zero_vec(n: int) -> tuple[Fraction, ...]:
    return (ZERO,) * n


def basis_vec(n: int, k: int) -> tuple[Fraction, ...]:
    """k is a 1-based label: basis_vec(3, 2) = (0, 1, 0)."""
    if not 1 <= k <= n:
        raise ValueError(f"basis label {k} out of range 1..{n}")
    return tuple(ONE if t == k - 1 else ZERO for t in range(n))


def is_zero_vec(x: Sequence[Fraction]) -> bool:
    return not any(x)


class Mat:
    """Immutable dense matrix over Fraction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        rows = tuple(tuple(scalar(e) for e in r) for r in data)
        self.data = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def _of(cls, data: Iterable[Sequence[Fraction]], cols: int) -> "Mat":
        """Trusted constructor: rows already hold Fractions, each of length
        cols. The column count is explicit so a result with no rows keeps
        its shape."""
        m = object.__new__(cls)
        m.data = tuple(tuple(r) for r in data)
        m.rows = len(m.data)
        m.cols = cols
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        return cls._of(((ZERO,) * cols,) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "Mat":
        rows = list(rows)
        if not rows:
            if cols is None:
                raise ValueError("empty matrix needs explicit column count")
            return cls.zero(0, cols)
        return cls(rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "Mat":
        return Mat._of(zip(*self.data) if self.rows else
                       ((),) * self.cols, self.rows)

    def is_zero(self) -> bool:
        return all(not e for r in self.data for e in r)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        d = self.data
        return all(d[i][j] == d[j][i]
                   for i in range(self.rows) for j in range(i + 1, self.cols))

    def is_skew(self) -> bool:
        if self.rows != self.cols:
            return False
        d = self.data
        if any(d[i][i] for i in range(self.rows)):
            return False
        return all(d[i][j] == -d[j][i]
                   for i in range(self.rows) for j in range(i + 1, self.cols))

    def _same_shape(self, other: "Mat"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash(self.data)

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat._of(([a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.data, other.data)), self.cols)

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat._of(([a - b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.data, other.data)), self.cols)

    def __neg__(self) -> "Mat":
        return Mat._of(([-a for a in r] for r in self.data), self.cols)

    def scale(self, c) -> "Mat":
        c = scalar(c)
        return Mat._of(([c * a for a in r] for r in self.data), self.cols)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{other.rows}x{other.cols}")
        ot = other.transpose().data
        out = []
        for r in self.data:
            nz = [(j, c) for j, c in enumerate(r) if c]
            out.append([sum((c * oc[j] for j, c in nz), start=ZERO) for oc in ot])
        return Mat._of(out, other.cols)

    def matvec(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if self.cols != len(x):
            raise ValueError("length mismatch")
        out = []
        for r in self.data:
            tot = ZERO
            for a, b in zip(r, x):
                if a and b:
                    tot += a * b
            out.append(tot)
        return tuple(out)

    def vecmat(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if self.rows != len(x):
            raise ValueError("length mismatch")
        out = [ZERO] * self.cols
        for a, r in zip(x, self.data):
            if a:
                for j, b in enumerate(r):
                    if b:
                        out[j] += a * b
        return tuple(out)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"


def hstack(a: Mat, b: Mat) -> Mat:
    if a.rows != b.rows:
        raise ValueError("row mismatch")
    return Mat._of((ra + rb for ra, rb in zip(a.data, b.data)),
                   a.cols + b.cols)


def vstack(a: Mat, b: Mat) -> Mat:
    if a.cols != b.cols:
        raise ValueError("col mismatch")
    return Mat.from_rows(list(a.data) + list(b.data), cols=a.cols)


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form with pivot columns.

    Pivot choice: scanning columns left to right, take the first row (in
    current order) with a nonzero entry. Output is the unique RREF.
    """
    rows = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    pivots: list[int] = []
    pr = 0
    for col in range(nc):
        sel = None
        for r in range(pr, nr):
            if rows[r][col]:
                sel = r
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        prow = rows[pr]
        inv = ONE / prow[col]
        if inv != 1:
            for j in range(col, nc):
                if prow[j]:
                    prow[j] *= inv
        for r in range(nr):
            if r == pr:
                continue
            f = rows[r][col]
            if f:
                rr = rows[r]
                for j in range(col, nc):
                    if prow[j]:
                        rr[j] -= f * prow[j]
        pivots.append(col)
        pr += 1
        if pr == nr:
            break
    return Mat.from_rows(rows, cols=nc), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel(m: Mat) -> "Subspace":
    """{x : m x = 0} as a Subspace of dim cols - rank."""
    R, pivots = rref(m)
    nc = m.cols
    pivset = set(pivots)
    free = [j for j in range(nc) if j not in pivset]
    gens = []
    for f in free:
        v = [ZERO] * nc
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -R.data[r][f]
        gens.append(v)
    return Subspace.from_rows(nc, gens)


def solve(m: Mat, rhs: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """One solution of m x = rhs, or None. Free variables set to 0."""
    if m.rows != len(rhs):
        raise ValueError("length mismatch")
    aug = Mat([list(r) + [b] for r, b in zip(m.data, rhs)]) if m.rows else \
        Mat.zero(0, m.cols + 1)
    R, pivots = rref(aug)
    if m.cols in pivots:
        return None  # inconsistent
    x = [ZERO] * m.cols
    for r, p in enumerate(pivots):
        x[p] = R.data[r][m.cols]
    return tuple(x)


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise ValueError("not square")
    n = m.rows
    R, pivots = rref(hstack(m, Mat.identity(n)))
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("singular matrix")
    return Mat([r[n:] for r in R.data])


@dataclass(frozen=True)
class Subspace:
    """Row-space subspace; basis rows kept in RREF, zero rows dropped.

    Equal subspaces compare equal because RREF is canonical.
    """
    ambient_dim: int
    basis: Mat

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[Sequence]) -> "Subspace":
        rows = [list(r) for r in rows]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("row length != ambient dim")
        if not rows:
            return cls(ambient_dim, Mat.zero(0, ambient_dim))
        R, pivots = rref(Mat(rows))
        return cls(ambient_dim, Mat.from_rows(R.data[:len(pivots)],
                                              cols=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.zero(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    @cached_property
    def _lead_rows(self) -> tuple[tuple[int, tuple], ...]:
        """(leading column, nonzero (column, entry) pairs) of each basis
        row; computed once, and not part of equality."""
        out = []
        for r in self.basis.data:
            nz = tuple((j, e) for j, e in enumerate(r) if e)
            if nz:
                out.append((nz[0][0], nz))
        return tuple(out)

    def contains_vec(self, v: Sequence[Fraction]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("length mismatch")
        # reduce v against the RREF basis
        v = [scalar(e) for e in v]
        for lead, row in self._lead_rows:
            f = v[lead]
            if f:
                for j, e in row:
                    v[j] -= f * e
        return not any(v)

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vec(r) for r in other.basis.data)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")
        return Subspace.from_rows(self.ambient_dim,
                                  list(self.basis.data) + list(other.basis.data))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rows [u|u] for u in U, [v|0] for v in V."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")
        n = self.ambient_dim
        rows = [list(u) + list(u) for u in self.basis.data]
        rows += [list(v) + [ZERO] * n for v in other.basis.data]
        if not rows:
            return Subspace.zero(n)
        R, pivots = rref(Mat(rows))
        out = []
        for r in range(len(pivots)):
            row = R.data[r]
            if not any(row[:n]):
                out.append(row[n:])
        return Subspace.from_rows(n, out)

    def vectors(self) -> list[tuple[Fraction, ...]]:
        return [tuple(r) for r in self.basis.data]

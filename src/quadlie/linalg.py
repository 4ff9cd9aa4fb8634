"""Exact linear algebra over the rationals.

Everything downstream runs on this: matrices of `fractions.Fraction` stored
as dense rows, with one cached sparse view of them (each row's nonzero
entries as a {column: entry} dict), the unique RREF by a sparse elimination
of those dicts, kernels, solving, and row-space subspaces in canonical RREF
form.

Vectors are plain tuples of Fractions. Basis labels elsewhere in the package
are 1-based; coordinates here are 0-based Python indices.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    """Immutable matrix over Fraction: dense rows in `data`, and their
    nonzero entries in `sparse_rows`."""

    __slots__ = ("rows", "cols", "data", "_sparse")

    def __init__(self, data: Sequence[Sequence]):
        rows = tuple(tuple(scalar(e) for e in r) for r in data)
        self.data = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        self._sparse = None
        for r in rows:
            if len(r) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def _of(cls, data: Iterable[Sequence[Fraction]], cols: int,
            sparse: tuple[dict[int, Fraction], ...] | None = None) -> "Mat":
        """Trusted constructor: rows already hold Fractions, each of length
        cols. The column count is explicit so a result with no rows keeps
        its shape. sparse, when given, must be the sparse_rows of data."""
        m = object.__new__(cls)
        m.data = tuple(tuple(r) for r in data)
        m.rows = len(m.data)
        m.cols = cols
        m._sparse = sparse
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        return cls._of(((ZERO,) * cols,) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._of((basis_vec(n, k) for k in range(1, n + 1)), n)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "Mat":
        rows = list(rows)
        if not rows:
            if cols is None:
                raise ValueError("empty matrix needs explicit column count")
            return cls.zero(0, cols)
        return cls(rows)

    @property
    def sparse_rows(self) -> tuple[dict[int, Fraction], ...]:
        """Each row's nonzero entries as {column: entry}, columns ascending;
        built once, on first read. The dicts are shared: never mutate them."""
        if self._sparse is None:
            self._sparse = tuple([{j: e for j, e in enumerate(r) if e}
                                  for r in self.data])
        return self._sparse

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
        return not any(self.sparse_rows)

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
        orows = other.sparse_rows
        out = []
        for r in self.sparse_rows:
            v = [ZERO] * other.cols
            for j, c in r.items():
                for k, e in orows[j].items():
                    v[k] += c * e
            out.append(v)
        return Mat._of(out, other.cols)

    def matvec(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if self.cols != len(x):
            raise ValueError("length mismatch")
        out = []
        for r in self.sparse_rows:
            tot = ZERO
            for j, a in r.items():
                if x[j]:
                    tot += a * x[j]
            out.append(tot)
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


def _axpy(row: dict, f: Fraction, prow: dict) -> None:
    """row -= f * prow on sparse rows; entries that cancel are dropped."""
    for j, e in prow.items():
        x = row.get(j, ZERO) - f * e
        if x:
            row[j] = x
        else:
            del row[j]


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """The unique reduced row echelon form, zero rows last, and its pivot
    columns. Each row, as a {column: entry} dict, is reduced by the pivot
    rows found so far (one pass: they are fully reduced); if it stays
    nonzero it is normalised on its first column, which is then cleared
    from the earlier pivot rows. The result comes with its sparse view."""
    nc = m.cols
    piv: dict[int, dict[int, Fraction]] = {}  # pivot column -> its row
    for r in m.sparse_rows:
        row = dict(r)
        for p, f in [(p, f) for p, f in row.items() if p in piv]:
            _axpy(row, f, piv[p])
        if not row:
            continue
        col = min(row)
        inv = ONE / row[col]
        if inv != 1:
            row = {j: e * inv for j, e in row.items()}
        for prow in piv.values():
            if col in prow:
                _axpy(prow, prow[col], row)
        piv[col] = row
    pivots = tuple(sorted(piv))
    sparse = [{j: piv[p][j] for j in sorted(piv[p])} for p in pivots]
    out = []
    for row in sparse:
        v = [ZERO] * nc
        for j, e in row.items():
            v[j] = e
        out.append(v)
    zeros = m.rows - len(pivots)
    out += [(ZERO,) * nc] * zeros
    return Mat._of(out, nc, tuple(sparse + [{}] * zeros)), pivots


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel(m: Mat) -> "Subspace":
    """{x : m x = 0} as a Subspace of dim cols - rank."""
    R, pivots = rref(m)
    nc = m.cols
    pivset = set(pivots)
    gens = {f: [ZERO] * nc for f in range(nc) if f not in pivset}
    for f, v in gens.items():
        v[f] = ONE
    # pivot row p is x_p + sum R[p][f] x_f over the free columns f
    for p, row in zip(pivots, R.sparse_rows):
        for f, e in row.items():
            if f != p:
                gens[f][p] = -e
    return Subspace._of(nc, list(gens.values()))


def solve(m: Mat, rhs: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """One solution of m x = rhs, or None. Free variables set to 0."""
    if m.rows != len(rhs):
        raise ValueError("length mismatch")
    R, pivots = rref(Mat._of(((*r, scalar(b)) for r, b in zip(m.data, rhs)),
                             m.cols + 1))
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
    return Mat._of((r[n:] for r in R.data), n)


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
        return cls._of(ambient_dim, rows)

    @classmethod
    def _of(cls, ambient_dim: int, rows: Sequence) -> "Subspace":
        """Trusted constructor: the span of rows that already hold
        Fractions, each of length ambient_dim."""
        R, pivots = rref(Mat._of(rows, ambient_dim))
        k = len(pivots)
        return cls(ambient_dim,
                   Mat._of(R.data[:k], ambient_dim, R.sparse_rows[:k]))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.zero(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains_vec(self, v: Sequence[Fraction]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("length mismatch")
        # reduce v against the RREF basis; a row's first key is its pivot
        v = [scalar(e) for e in v]
        for row in self.basis.sparse_rows:
            f = v[next(iter(row))]
            if f:
                for j, e in row.items():
                    v[j] -= f * e
        return not any(v)

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vec(r) for r in other.basis.data)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")
        return Subspace._of(self.ambient_dim,
                            self.basis.data + other.basis.data)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rows [u|u] for u in U, [v|0] for v in V."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")
        n = self.ambient_dim
        rows = [list(u) + list(u) for u in self.basis.data]
        rows += [list(v) + [ZERO] * n for v in other.basis.data]
        R, pivots = rref(Mat._of(rows, 2 * n))
        return Subspace._of(n, [R.data[r][n:]
                                for r, p in enumerate(pivots) if p >= n])

    def vectors(self) -> list[tuple[Fraction, ...]]:
        return [tuple(r) for r in self.basis.data]

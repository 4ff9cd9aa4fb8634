"""Alternating coefficient families c_{ijk} over basis labels 1..n.

One storage type serves two roles downstream: coefficients of a cyclic
2-cocycle on an abelian base, and coordinates of a trivector. Only triples
i<j<k are stored; any other index pattern resolves by permutation sign, with
repeated indices giving 0.

Text notations: compact digit monomials "123+145" (indices 1-9 only) and the
coefficient form "1*[1,2,3]+1*[1,4,5]" with rational coefficients and
arbitrary indices.
"""
from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

from .errors import QuadlieError
from .linalg import Fraction, Mat, Subspace, ZERO, kernel, scalar, scalar_str


def sorted_triple(i: int, j: int, k: int) -> tuple[tuple[int, int, int], int]:
    """((i,j,k) ascending, sign of the sorting permutation); sign 0 on repeats."""
    if i == j or j == k or i == k:
        return (i, j, k), 0
    sign = 1
    if i > j:
        i, j, sign = j, i, -sign
    if j > k:
        j, k, sign = k, j, -sign
    if i > j:
        i, j, sign = j, i, -sign
    return (i, j, k), sign


class AltCoeffs:
    """Immutable alternating family; `terms` holds ((i,j,k), c) with i<j<k."""

    __slots__ = ("n", "terms", "_map")

    def __init__(self, n: int, coeffs: Mapping | Iterable = ()):
        if n < 0:
            raise ValueError("negative dimension")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), c in items:
            key, sign = sorted_triple(i, j, k)
            if sign == 0:
                raise QuadlieError(f"repeated index in triple {(i, j, k)}")
            if key[2] > n or key[0] < 1:
                raise QuadlieError(f"triple {(i, j, k)} out of range 1..{n}")
            c = scalar(c) if sign > 0 else -scalar(c)
            acc[key] = acc.get(key, ZERO) + c
        self.n = n
        self.terms = tuple(sorted((t, c) for t, c in acc.items() if c))
        self._map = dict(self.terms)

    def value(self, i: int, j: int, k: int) -> Fraction:
        key, sign = sorted_triple(i, j, k)
        if sign == 0:
            return ZERO
        c = self._map.get(key, ZERO)
        return c if sign > 0 else -c

    def __call__(self, x: Sequence[Fraction], y: Sequence[Fraction],
                 z: Sequence[Fraction]) -> Fraction:
        if not (len(x) == len(y) == len(z) == self.n):
            raise ValueError("vector length != n")
        tot = ZERO
        for (i, j, k), c in self.terms:
            a, b, d = i - 1, j - 1, k - 1
            det = (x[a] * (y[b] * z[d] - y[d] * z[b])
                   - x[b] * (y[a] * z[d] - y[d] * z[a])
                   + x[d] * (y[a] * z[b] - y[b] * z[a]))
            if det:
                tot += c * det
        return tot

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, AltCoeffs) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.terms))

    def __repr__(self):
        return f"{type(self).__name__}({self.n}, {format_coeffs(self)!r})"

    def support(self) -> set[int]:
        return {i for t, _ in self.terms for i in t}

    def scale(self, c) -> "AltCoeffs":
        c = scalar(c)
        return type(self)(self.n, [(t, c * v) for t, v in self.terms])

    def __add__(self, other: "AltCoeffs") -> "AltCoeffs":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return type(self)(self.n, list(self.terms) + list(other.terms))

    def relabel(self, n: int) -> "AltCoeffs":
        """Same coefficients in a new ambient dimension n (must fit)."""
        return type(self)(n, self.terms)

    def contraction_with(self, x: Sequence[Fraction]) -> Mat:
        """The skew 2-form c(x, -, -) as an n x n matrix."""
        if len(x) != self.n:
            raise ValueError("vector length != n")
        m = [[ZERO] * self.n for _ in range(self.n)]
        for (i, j, k), c in self.terms:
            xi, xj, xk = x[i - 1], x[j - 1], x[k - 1]
            if xi:
                m[j - 1][k - 1] += xi * c
                m[k - 1][j - 1] -= xi * c
            if xj:
                m[i - 1][k - 1] -= xj * c
                m[k - 1][i - 1] += xj * c
            if xk:
                m[i - 1][j - 1] += xk * c
                m[j - 1][i - 1] -= xk * c
        return Mat(m)

    def pair_rows(self) -> Mat:
        """Rows indexed by pairs j<k, columns by i, entries c_{ijk}.

        Its kernel is {x : c(x,-,-) = 0}; pairs untouched by any term are
        omitted (their rows are zero).
        """
        pairs = sorted({p for (i, j, k), _ in self.terms
                        for p in ((j, k), (i, k), (i, j))})
        rows = [[self.value(i, j, k) for i in range(1, self.n + 1)]
                for (j, k) in pairs]
        return Mat.from_rows(rows, cols=self.n)

    def kernel_subspace(self) -> Subspace:
        return kernel(self.pair_rows())


_TERM = re.compile(r"^([+-]?)(?:(\d+(?:/0*[1-9]\d*)?)\*)?"
                   r"(?:\[(\d+),(\d+),(\d+)\]|([1-9]{3}))$")


def parse_coeffs(text: str, n: int | None = None,
                 cls: type = AltCoeffs) -> AltCoeffs:
    """Parse "123+145", "1*[1,2,3]+1*[1,4,5]", mixes of both, or "0"."""
    s = "".join(text.split())
    if s in ("", "0"):
        return cls(n or 0)
    chunks: list[str] = []
    cur = ""
    depth = 0
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch in "+-" and depth == 0 and cur not in ("", "+", "-"):
            chunks.append(cur)
            cur = ch
        else:
            cur += ch
    chunks.append(cur)
    items = []
    for chunk in chunks:
        m = _TERM.match(chunk)
        if not m:
            raise QuadlieError(f"cannot parse trivector term {chunk!r}")
        sign, coef, bi, bj, bk, compact = m.groups()
        c = scalar(coef) if coef else Fraction(1)
        if sign == "-":
            c = -c
        ijk = (int(bi), int(bj), int(bk)) if compact is None else \
            tuple(int(d) for d in compact)
        items.append((ijk, c))
    top = max(max(t) for t, _ in items)
    if n is None:
        n = top
    elif top > n:
        raise QuadlieError(f"index {top} exceeds dimension {n}")
    return cls(n, items)


def format_coeffs(c: AltCoeffs) -> str:
    """Inverse of parse_coeffs up to equality of the parsed value."""
    if not c.terms:
        return "0"
    parts = []
    for (i, j, k), v in c.terms:
        if k <= 9 and v == 1:
            parts.append(("+", f"{i}{j}{k}"))
        elif k <= 9 and v == -1:
            parts.append(("-", f"{i}{j}{k}"))
        else:
            sign = "-" if v < 0 else "+"
            parts.append((sign, f"{scalar_str(abs(v))}*[{i},{j},{k}]"))
    first_sign, first = parts[0]
    out = (first_sign if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        out += sign + body
    return out

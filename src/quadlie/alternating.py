"""Alternating coefficient families c_{ijk} over basis labels 1..n.

One class serves two roles downstream: coefficients of a cyclic 2-cocycle
on an abelian base, and coordinates of a trivector, which are the same
numbers. tstar.CocycleCoeffs and trivector.Trivector are names bound to
AltCoeffs, one per role. Only triples i<j<k are stored; any other index
pattern resolves by permutation sign, with repeated indices giving 0.

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
        return f"AltCoeffs({self.n}, {format_coeffs(self)!r})"

    def support(self) -> set[int]:
        return {i for t, _ in self.terms for i in t}

    def scale(self, c) -> "AltCoeffs":
        c = scalar(c)
        return AltCoeffs(self.n, [(t, c * v) for t, v in self.terms])

    def __add__(self, other: "AltCoeffs") -> "AltCoeffs":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return AltCoeffs(self.n, list(self.terms) + list(other.terms))

    def pair_terms(self) -> dict[tuple[int, int], tuple]:
        """c as w(e_i, e_j)(e_k) = c_ijk in LieAlgebra.terms' format, a new
        dict per call: sorted keys (i, j), i < j, each value the nonzero
        (k - 1, c) with k ascending. A term (i, j, k) puts c, -c and c at
        the pairs (i, j), (i, k) and (j, k); self.terms is sorted, so a pair
        (a, b) gets k < a, then a < k < b, then k > b."""
        acc: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
        for (i, j, k), c in self.terms:
            acc.setdefault((i, j), []).append((k - 1, c))
            acc.setdefault((i, k), []).append((j - 1, -c))
            acc.setdefault((j, k), []).append((i - 1, c))
        return {p: tuple(acc[p]) for p in sorted(acc)}

    def contraction_with(self, x: Sequence[Fraction]) -> Mat:
        """The skew 2-form c(x, -, -) as an n x n matrix: entry (j, k) sums
        x_i c_ijk over slot i of pair (j, k), as c_ijk = c_jki. Pairs come
        sorted, so every row fills in ascending columns."""
        if len(x) != self.n:
            raise ValueError("vector length != n")
        rows: list[dict[int, Fraction]] = [{} for _ in range(self.n)]
        for (j, k), nz in self.pair_terms().items():
            v = sum((x[i] * c for i, c in nz if x[i]), ZERO)
            if v:
                rows[j - 1][k - 1] = v
                rows[k - 1][j - 1] = -v
        return Mat._of(rows, self.n)

    def kernel_subspace(self) -> Subspace:
        """{x : c(x, -, -) = 0}: one sparse row per pair (j, k), holding
        c_ijk at column i; untouched pairs have zero rows and are left out."""
        return kernel(Mat._of([dict(nz) for nz in self.pair_terms().values()],
                              self.n))


_TERM = re.compile(r"^([+-]?)(?:(\d+(?:/0*[1-9]\d*)?)\*)?"
                   r"(?:\[(\d+),(\d+),(\d+)\]|([1-9]{3}))$")


def parse_coeffs(text: str, n: int | None = None) -> AltCoeffs:
    """Parse "123+145", "1*[1,2,3]+1*[1,4,5]", mixes of both, or "0"."""
    if n is not None and n < 0:
        raise QuadlieError(f"negative dimension {n}")
    s = "".join(text.split())
    if s in ("", "0"):
        return AltCoeffs(n or 0)
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
    return AltCoeffs(n, items)


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

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
from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

from .errors import MAX_N, QuadlieError, _int_in, within_limit
from .linalg import Fraction, ZERO, _divide, _isum, scalar, vec


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

    __slots__ = ("n", "terms")

    def __init__(self, n: int, coeffs: Mapping | Iterable = ()):
        if n < 0:
            raise ValueError("negative dimension")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), c in items:
            if not (_int_in(i) and _int_in(j) and _int_in(k)):
                raise QuadlieError(f"triple {(i, j, k)} out of range 1..{n}")
            key, sign = sorted_triple(i, j, k)
            if sign == 0:
                raise QuadlieError(f"repeated index in triple {(i, j, k)}")
            if key[2] > n or key[0] < 1:
                raise QuadlieError(f"triple {(i, j, k)} out of range 1..{n}")
            c = scalar(c) if sign > 0 else -scalar(c)
            acc[key] = acc[key] + c if key in acc else c
        self.n = n
        self.terms = tuple(sorted((t, c) for t, c in acc.items() if c))

    @classmethod
    def _of(cls, n: int, terms: list) -> "AltCoeffs":
        """Trusted constructor: terms ((i, j, k), c) sorted, with
        1 <= i < j < k <= n and each c a nonzero Fraction."""
        c = object.__new__(cls)
        c.n, c.terms = n, tuple(terms)
        return c

    def value(self, i: int, j: int, k: int) -> Fraction:
        key, sign = sorted_triple(i, j, k)  # a repeated index is never stored
        p = bisect_left(self.terms, (key,))
        if p == len(self.terms) or self.terms[p][0] != key:
            return ZERO
        return self.terms[p][1] if sign > 0 else -self.terms[p][1]

    def __call__(self, x: Sequence, y: Sequence, z: Sequence) -> Fraction:
        """t(x, y, z): the pullback along the n x 3 matrix [x y z]."""
        x, y, z = vec(x), vec(y), vec(z)
        if not (len(x) == len(y) == len(z) == self.n):
            raise ValueError("vector length != n")
        rows = [{s: v[a] for s, v in enumerate((x, y, z)) if v[a]}
                for a in range(self.n)]
        return _pullback(self, rows, 3).value(1, 2, 3)

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


def _pullback(t: AltCoeffs, rows: Sequence[Mapping[int, Fraction]],
              m: int) -> AltCoeffs:
    """t(M., M., M.) for the n x m matrix M with these sparse rows: a stored
    term c e_a* ^ e_b* ^ e_d* expands over rows a, b and d into products at
    distinct columns p, q, r, each added at the sorted 1-based (p, q, r)
    of one _isum, signed by its sort."""
    ent = [[(p + 1, e.numerator, e.denominator) for p, e in r.items()]
           for r in rows]

    def terms():
        for (a, b, d), c in t.terms:
            for p, xn, xd in ent[a - 1]:
                for q, yn, yd in ent[b - 1]:
                    if q != p:
                        f, g = c.numerator * xn * yn, c.denominator * xd * yd
                        for r, zn, zd in ent[d - 1]:
                            key, sign = sorted_triple(p, q, r)
                            if sign:
                                yield key, sign * f * zn, g * zd
    return AltCoeffs._of(m, list(_divide(*_isum(terms())).items()))


_TERM = re.compile(r"^([+-]?)(?:(\d+(?:/0*[1-9]\d*)?)\*)?"
                   r"(?:\[(\d+),(\d+),(\d+)\]|([1-9]{3}))$")


def parse_coeffs(text: str, n: int | None = None) -> AltCoeffs:
    """Parse "123+145", "1*[1,2,3]+1*[1,4,5]", mixes of both, or "0"."""
    if n is not None and n < 0:
        raise QuadlieError(f"negative dimension {n}")
    within_limit(n or 0, MAX_N, "dimension")
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
        try:
            c = scalar(coef) if coef else Fraction(1)
            ijk = (int(bi), int(bj), int(bk)) if compact is None else \
                tuple(int(d) for d in compact)
        except ValueError as e:  # more digits than int() converts
            raise QuadlieError(f"cannot read trivector term: {e}")
        if sign == "-":
            c = -c
        items.append((ijk, c))
    top = max(max(t) for t, _ in items)
    if n is None:
        n = within_limit(top, MAX_N, "index")
    elif top > n:
        raise QuadlieError(f"index {top} exceeds dimension {n}")
    return AltCoeffs(n, items)


def format_coeffs(c: AltCoeffs) -> str:
    """Inverse of parse_coeffs up to equality of the parsed value."""
    out = "".join(("-" if v < 0 else "+")
                  + (f"{i}{j}{k}" if k <= 9 and abs(v) == 1
                     else f"{abs(v)!s}*[{i},{j},{k}]")
                  for (i, j, k), v in c.terms)
    return out.removeprefix("+") or "0"

"""Structure-constant Lie algebras.

Brackets are stored sparsely on 1-based basis labels: only keys (i,j) with
i<j are kept and [e_j,e_i] = -[e_i,e_j] is resolved on lookup, so
antisymmetry cannot be violated by construction. An absent key is a zero
bracket. A bracket keeps its nonzero coefficients as (r, c) pairs, r
0-based and ascending; a dense vector v has the coefficient of e_k at v[k-1].
"""
from __future__ import annotations

from math import lcm
from typing import Mapping, NamedTuple, Sequence

from .errors import ValidationError, _int_in
from .linalg import (Fraction, Mat, Subspace, ZERO, _divide, _isum, kernel,
                     scalar, solve, vec)


class AlgebraType(NamedTuple):
    r: int  # dim of the derived algebra
    s: int  # dim of the centre


class LieAlgebra:
    """dim + sparse brackets. Treated as immutable after construction."""

    __slots__ = ("dim", "terms", "_jacobi", "_ad", "_derived", "_centre")

    def __init__(self, dim: int, brackets: Mapping[tuple[int, int], Sequence]):
        if dim < 0:
            raise ValueError("negative dimension")
        # each value is coerced lazily, between the key and length checks
        self.dim, self.terms = dim, self._checked_terms(dim, (
            (key, len(v), ((r, c) for r, c in enumerate(map(scalar, v)) if c))
            for key, v in brackets.items()))
        self._jacobi = self._ad = self._derived = self._centre = None

    @staticmethod
    def _checked_terms(dim: int, items) -> dict:
        """The stored terms of items, ((i, j), length, nonzero (r, c) pairs
        with r ascending) per bracket: the one check of bracket keys and
        lengths. In item order, each key is checked, then its pairs are
        read, then its length is checked. A key holds two int labels."""
        terms: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        for (i, j), n, nz in items:
            if not (_int_in(i) and _int_in(j) and 1 <= i < j <= dim):
                raise ValueError(f"bracket key ({i},{j}) not 1 <= i < j <= {dim}")
            nz = tuple(nz)
            if n != dim:
                raise ValueError(f"bracket value for ({i},{j}) has wrong length")
            if nz:
                terms[(i, j)] = nz
        return terms

    @classmethod
    def _of(cls, dim: int, terms: dict, jacobi: list | None = None
            ) -> "LieAlgebra":
        """Trusted constructor: terms as stored, keys 1 <= i < j <= dim, each
        value nonempty, its Fractions nonzero and its r ascending. jacobi is
        [] only where a theorem gives the Jacobi identity from hypotheses
        its caller has just checked; it is kept as the Jacobi pass's result,
        and None leaves that pass to run on first use."""
        alg = object.__new__(cls)
        alg.dim, alg.terms = dim, terms
        alg._ad = alg._derived = alg._centre = None
        alg._jacobi = jacobi
        return alg

    def _dense(self, nz) -> tuple[Fraction, ...]:
        v = [ZERO] * self.dim
        for r, c in nz:
            v[r] = c
        return tuple(v)

    @property
    def brackets(self) -> dict[tuple[int, int], tuple[Fraction, ...]]:
        """The dense view, for callers outside the package: [e_i, e_j] as
        a dim-length tuple per stored key."""
        return {key: self._dense(nz) for key, nz in self.terms.items()}

    def __eq__(self, other) -> bool:
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.terms == other.terms)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, {len(self.terms)} brackets)"

    def _ad_index(self) -> list[list[tuple[int, int, tuple]]]:
        """ad[r] lists (y, g, nz) for each y with [e_r, e_y] = g nz != 0: nz
        the stored terms of the pair {r, y}, g = 1 if r < y else -1, r and y
        0-based, y ascending; built once per algebra."""
        if self._ad is None:
            ad: list[list] = [[] for _ in range(self.dim)]
            for (i, j), nz in self.terms.items():
                ad[i - 1].append((j - 1, 1, nz))
                ad[j - 1].append((i - 1, -1, nz))
            # y is unique in each list, so g and nz are not compared
            self._ad = [sorted(pairs) for pairs in ad]
        return self._ad

    # ---- bracket evaluation ----

    def bracket(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        """[x, y] for dense vectors of ints, Fractions or 'p/q' strings."""
        x, y = vec(x), vec(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length mismatch")
        x, y = ({a: c for a, c in enumerate(v) if c} for v in (x, y))
        br = self._brackets([x, y])
        return self._dense((k[2], c) for k, c in br.items())

    def _brackets(self, vs: Sequence[Mapping[int, Fraction]]
                  ) -> dict[tuple[int, int, int], Fraction]:
        """[v_a, v_b]_r for every a < b over sparse vectors {y: v_y} of
        nonzero Fractions, as one _isum keyed (a, b, r): the vectors are read
        last first, and a stored [e_p, e_y] meets only later ones holding y."""
        ad = self._ad_index()
        holders: dict[int, list[tuple[int, int, int]]] = {}  # y -> (b, v_b[y])

        def terms():
            for a in range(len(vs) - 1, -1, -1):
                for p, x in vs[a].items():
                    for y, g, nz in ad[p]:
                        for b, yn, yd in holders.get(y, ()):
                            f, d = g * x.numerator * yn, x.denominator * yd
                            for r, c in nz:
                                yield ((a, b, r), f * c.numerator,
                                       d * c.denominator)
                for y, c in vs[a].items():
                    holders.setdefault(y, []).append(
                        (a, c.numerator, c.denominator))
        return _divide(*_isum(terms()))

    def _ad_images(self, vs: Sequence[Mapping[int, Fraction]]
                   ) -> tuple[dict[tuple[int, int], dict[int, int]], int]:
        """The nonzero rows [e_s, v_i] over sparse vectors v_i and every s,
        keyed (i, s) ascending, from one sum over the ad index: integer
        rows over one common denominator, returned with it. A span reads
        the rows alone."""
        ad = self._ad_index()
        # [e_b, e_s] = g w adds -g v_b w to [e_s, v], row (i, s) of the sum
        sums, den = _isum(((i, s, r), -g * c.numerator * e.numerator,
                           c.denominator * e.denominator)
                          for i, v in enumerate(vs) for b, c in v.items()
                          for s, g, w in ad[b] for r, e in w)
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for (i, s, r), e in sums.items():
            rows.setdefault((i, s), {})[r] = e
        return rows, den

    # ---- Lie-ness ----

    def jacobi_defect(self) -> list[tuple[int, int, int, tuple[Fraction, ...]]]:
        """Basis triples i<j<k whose cyclic bracket sum is nonzero.

        Only stored brackets are visited: each term [e_a,[e_b,e_c]] of a
        cyclic sum expands over the support r of [e_b,e_c] into the stored
        [e_a,e_r], so a triple whose double brackets all vanish (every
        triple of a 2-step algebra) costs nothing. The pass runs once per
        algebra; later calls copy the cache.
        """
        if self._jacobi is None:
            ad = self._ad_index()

            def terms():  # ((sorted triple, k), numerator, denominator)
                for (b, c), v in self.terms.items():
                    for r, x in v:
                        for a, g, w in ad[r]:
                            a += 1
                            if a == b or a == c:
                                continue
                            # b < c, so the sorted triple is one of three, and
                            # (a,b,c) is a cyclic shift of it unless b < a < c
                            if a < b:
                                key, f = (a, b, c), -g * x.numerator
                            elif a < c:
                                key, f = (b, a, c), g * x.numerator
                            else:
                                key, f = (b, c, a), -g * x.numerator
                            # [e_a, e_r] = -g w, w the stored terms of {a, r}
                            for k, e in w:
                                yield ((key, k), f * e.numerator,
                                       x.denominator * e.denominator)
            acc: dict[tuple[int, int, int], dict[int, Fraction]] = {}
            for (key, k), e in _divide(*_isum(terms())).items():
                acc.setdefault(key, {})[k] = e
            self._jacobi = [(*key, self._dense(t.items()))
                            for key, t in acc.items()]
        return list(self._jacobi)

    def is_lie(self) -> bool:
        return not self.jacobi_defect()

    def _require_lie(self):
        bad = self.jacobi_defect()
        if bad:
            raise ValidationError("Jacobi identity fails", law="jacobi",
                                  witness=bad[0][:3])

    # ---- subspace invariants ----

    def derived(self) -> Subspace:
        """The span of the stored brackets; eliminated once per algebra."""
        if self._derived is None:
            self._derived = Subspace._of(
                self.dim, [dict(nz) for nz in self.terms.values()])
        return self._derived

    def _ad_rows(self) -> tuple[dict[tuple[int, int], dict[int, int]], int]:
        """The nonzero rows of the centre's system, read from the ad index,
        and their scale L, the lcm of the stored denominators: row (s, r)
        -> {y: L [e_s, e_y]_r} in integers, s, r and y 0-based, columns
        ascending. x is central exactly when every row vanishes on it."""
        L = lcm(*[c.denominator for nz in self.terms.values() for _, c in nz])
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for s, pairs in enumerate(self._ad_index()):
            for y, g, nz in pairs:
                for r, c in nz:
                    rows.setdefault((s, r), {})[y] = \
                        g * c.numerator * (L // c.denominator)
        return rows, L

    def _ad_preimage(self, d_rows: Sequence[Mapping[int, Fraction]]
                     ) -> tuple[Fraction, ...] | None:
        """x with [x, e_s] = d e_s for every s, for d given by its sparse
        rows, or None; free components are 0. [x, e_s]_r = -[e_s, x]_r, so
        x solves the centre's rows against -L d[r][s], and none does when
        an absent row meets a nonzero entry of d."""
        rows, L = self._ad_rows()
        if any((s, r) not in rows for r, row in enumerate(d_rows)
               for s in row):
            return None
        return solve(Mat._of(rows.values(), self.dim),
                     tuple(-L * d_rows[r].get(s, 0) for s, r in rows))

    def centre(self) -> Subspace:
        """{x : [e_s, x] = 0 for all s}; one kernel computation per algebra,
        and row order cannot change it."""
        if self._centre is None:
            rows, _ = self._ad_rows()
            self._centre = (kernel(Mat._of(rows.values(), self.dim)) if rows
                            else Subspace.full(self.dim))
        return self._centre

    def lower_central_series(self) -> list[Subspace]:
        """[A^1, A^2, ...] until the first repeat (which is kept once).

        A^2 is spanned by the stored brackets. Each later term is spanned by
        [e_a, v] over every a and every basis vector v of the one before,
        the rows of _ad_images.
        """
        self._require_lie()
        cur = Subspace.full(self.dim)
        series = [cur]
        nxt = self.derived()
        while True:
            series.append(nxt)
            if nxt.dim == cur.dim or nxt.dim == 0:
                return series
            cur = nxt
            nxt = Subspace._of(self.dim, self._ad_images(
                cur.basis.sparse_rows)[0].values())

    def nilindex(self) -> int | None:
        """Smallest t with A^{t+1} = 0, or None when not nilpotent."""
        for idx, sub in enumerate(self.lower_central_series()):
            if sub.dim == 0:
                return idx
        return None

    def algebra_type(self) -> AlgebraType:
        return AlgebraType(self.derived().dim, self.centre().dim)

    def is_reduced(self) -> bool:
        """Z(A) contained in the derived algebra."""
        return self.derived().contains(self.centre())

    # ---- constructions ----

    def permute_basis(self, perm: Sequence[int]) -> "LieAlgebra":
        """New basis f_r = e_{perm[r-1]}; perm is a 1-based relabeling."""
        if sorted(perm) != list(range(1, self.dim + 1)):
            raise ValueError("not a permutation of 1..dim")
        inv = {old: new for new, old in enumerate(perm, start=1)}
        out = {}
        for (i, j), nz in self.terms.items():
            a, b = inv[i], inv[j]
            # e_{r+1} = f_{inv[r+1]}, and [f_b, f_a] = -[f_a, f_b]
            out[(a, b) if a < b else (b, a)] = tuple(sorted(
                (inv[r + 1] - 1, c if a < b else -c) for r, c in nz))
        # relabelling keeps the Jacobi identity, so a known-empty defect
        # stays known
        return LieAlgebra._of(self.dim, out,
                              [] if self._jacobi == [] else None)


def abelian(dim: int) -> LieAlgebra:
    return LieAlgebra(dim, {})


def heisenberg() -> LieAlgebra:
    """Basis x, y, z with [x,y] = z."""
    return LieAlgebra(3, {(1, 2): (0, 0, 1)})


def from_bracket_table(dim: int,
                       table: Mapping[tuple[int, int], Mapping[int, object]],
                       ) -> LieAlgebra:
    """Build from {(i,j): {k: coeff}} meaning [e_i,e_j] = sum coeff*e_k."""
    br = {}
    for (i, j), terms in table.items():
        v = [ZERO] * dim
        for k, c in terms.items():
            if (not isinstance(k, int) or isinstance(k, bool)
                    or not 1 <= k <= dim):
                raise ValueError(f"basis label out of range: {k}")
            v[k - 1] = scalar(c)
        br[(i, j)] = v
    return LieAlgebra(dim, br)

"""Structure-constant Lie algebras.

Brackets are stored sparsely on 1-based basis labels: only keys (i,j) with
i<j are kept and [e_j,e_i] = -[e_i,e_j] is resolved on lookup, so
antisymmetry cannot be violated by construction. An absent key is a zero
bracket. A bracket keeps its nonzero coefficients as (r, c) pairs, r
0-based and ascending; a dense vector v has the coefficient of e_k at v[k-1].
"""
from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .errors import ValidationError
from .linalg import (Fraction, Mat, ONE, Subspace, ZERO, basis_vec, kernel,
                     scalar, vec)


class AlgebraType(NamedTuple):
    r: int  # dim of the derived algebra
    s: int  # dim of the centre


class LieAlgebra:
    """dim + sparse brackets. Treated as immutable after construction."""

    __slots__ = ("dim", "terms", "_jacobi", "_ad")

    def __init__(self, dim: int, brackets: Mapping[tuple[int, int], Sequence]):
        if dim < 0:
            raise ValueError("negative dimension")
        terms: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        for (i, j), v in brackets.items():
            if not (1 <= i < j <= dim):
                raise ValueError(f"bracket key ({i},{j}) not 1 <= i < j <= {dim}")
            v = vec(v)
            if len(v) != dim:
                raise ValueError(f"bracket value for ({i},{j}) has wrong length")
            nz = tuple((r, c) for r, c in enumerate(v) if c)
            if nz:
                terms[(i, j)] = nz
        self.dim = dim
        self.terms = terms
        self._jacobi = None
        self._ad = None

    def _dense(self, nz) -> tuple[Fraction, ...]:
        v = [ZERO] * self.dim
        for r, c in nz:
            v[r] = c
        return tuple(v)

    @property
    def brackets(self) -> dict[tuple[int, int], tuple[Fraction, ...]]:
        """The dense view: [e_i, e_j] as a dim-length tuple per stored key."""
        return {key: self._dense(nz) for key, nz in self.terms.items()}

    def __eq__(self, other) -> bool:
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.terms == other.terms)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, {len(self.terms)} brackets)"

    def _ad_index(self) -> list[list[tuple[int, tuple]]]:
        """ad[r] lists (y, the terms of [e_r, e_y]) for every y with
        [e_r, e_y] != 0, r and y 0-based; built once per algebra."""
        if self._ad is None:
            ad: list[list[tuple[int, tuple]]] = [[] for _ in range(self.dim)]
            for (i, j), nz in self.terms.items():
                ad[i - 1].append((j - 1, nz))
                ad[j - 1].append((i - 1, tuple((r, -c) for r, c in nz)))
            self._ad = ad
        return self._ad

    # ---- bracket evaluation ----

    def bracket_basis(self, i: int, j: int) -> tuple[Fraction, ...]:
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise ValueError(f"basis label out of range: ({i},{j})")
        if i > j:
            return tuple(-c for c in self.bracket_basis(j, i))
        return self._dense(self.terms.get((i, j), ()))

    def bracket(self, x: Sequence, y: Sequence) -> tuple[Fraction, ...]:
        """sum x_a y_b [e_a, e_b] over the support a of x and the stored
        brackets [e_a, e_b] that meet the support of y."""
        x = vec(x)
        y = vec(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.dim
        ad = self._ad_index()
        for a, xa in enumerate(x):
            if xa:
                for b, nz in ad[a]:
                    if y[b]:
                        f = xa * y[b]
                        for r, c in nz:
                            out[r] += f * c
        return tuple(out)

    def bracket_basis_vec(self, i: int, y: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """[e_i, y]."""
        return self.bracket(basis_vec(self.dim, i), y)

    def ad_basis(self, i: int) -> Mat:
        """Matrix of ad(e_i): column j holds [e_i, e_j]."""
        cols = [self.bracket_basis(i, j) for j in range(1, self.dim + 1)]
        return Mat([[cols[j][r] for j in range(self.dim)]
                    for r in range(self.dim)]) if self.dim else Mat.zero(0, 0)

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
            acc: dict[tuple[int, int, int], dict[int, Fraction]] = {}
            for (b, c), v in self.terms.items():
                for r, x in v:
                    for a, w in ad[r]:
                        a += 1
                        if a == b or a == c:
                            continue
                        # b < c, so the sorted triple is one of three, and
                        # (a,b,c) is a cyclic shift of it unless b < a < c
                        if a < b:
                            key, cyclic = (a, b, c), True
                        elif a < c:
                            key, cyclic = (b, a, c), False
                        else:
                            key, cyclic = (b, c, a), True
                        # [e_a, e_r] = -w, the terms of [e_r, e_a]
                        f = -x if cyclic else x
                        t = acc.setdefault(key, {})
                        for k, e in w:
                            t[k] = t.get(k, ZERO) + f * e
            bad = []
            for key in sorted(acc):
                t = acc[key]
                if any(t.values()):
                    tot = tuple(t.get(k, ZERO) for k in range(self.dim))
                    bad.append((*key, tot))
            self._jacobi = bad
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
        return Subspace.from_rows(self.dim, list(self.brackets.values()))

    def _centraliser_rows(self, ann_by_col: Mapping[int, Sequence]
                          ) -> dict[tuple[int, int], list[Fraction]]:
        """The nonzero rows of {x : u([x, e_s]) = 0 for every s and every
        annihilator row u}.

        ann_by_col[r] lists (a, u_r) for each row a with u_r != 0. Row (s, a)
        holds u_a([e_i, e_s]) over i; only the stored brackets fill it, and
        entry i of row (j, a) or (i, a) comes from the stored (i, j) alone.
        """
        rows: dict[tuple[int, int], list[Fraction]] = {}
        for (i, j), v in self.terms.items():
            dots: dict[int, Fraction] = {}  # a -> u_a([e_i, e_j])
            for r, c in v:
                for a, u in ann_by_col.get(r, ()):
                    # the centre's identity rows cost no arithmetic
                    x = c if u is ONE else u * c
                    dots[a] = dots[a] + x if a in dots else x
            for a, x in dots.items():
                if x:
                    # u_a([e_i, e_j]) = x and u_a([e_j, e_i]) = -x
                    rows.setdefault((j, a), [ZERO] * self.dim)[i - 1] = x
                    rows.setdefault((i, a), [ZERO] * self.dim)[j - 1] = -x
        return rows

    def _centraliser(self, ann_by_col: Mapping[int, Sequence]) -> Subspace:
        """The kernel of _centraliser_rows; row order cannot change it."""
        rows = self._centraliser_rows(ann_by_col)
        if not rows:
            return Subspace.full(self.dim)
        return kernel(Mat._of(rows.values(), self.dim))

    def centre(self) -> Subspace:
        """{x : [x, e_s] = 0 for all s} by one kernel computation."""
        return self._centraliser({r: ((r, ONE),) for r in range(self.dim)})

    def lower_central_series(self) -> list[Subspace]:
        """[A^1, A^2, ...] until the first repeat (which is kept once).

        A^2 is spanned by the stored brackets. Each later term is spanned by
        [e_a, v] over every a and every basis vector v of the one before,
        summed from the ad index over the support of v.
        """
        self._require_lie()
        ad = self._ad_index()
        cur = Subspace.full(self.dim)
        series = [cur]
        nxt = self.derived()
        while True:
            series.append(nxt)
            if nxt.dim == cur.dim or nxt.dim == 0:
                return series
            cur = nxt
            rows = []
            for v in cur.basis.data:
                out: dict[int, list[Fraction]] = {}  # a -> [e_a, v]
                for b, c in enumerate(v):
                    if c:
                        # [e_b, e_a] = w adds -v_b w to [e_a, v]
                        for a, w in ad[b]:
                            row = out.setdefault(a, [ZERO] * self.dim)
                            for r, e in w:
                                row[r] -= c * e
                rows += [row for row in out.values() if any(row)]
            nxt = Subspace.from_rows(self.dim, rows)

    def nilindex(self) -> int | None:
        """Smallest t with A^{t+1} = 0, or None when not nilpotent."""
        for idx, sub in enumerate(self.lower_central_series()):
            if sub.dim == 0:
                return idx
        return None

    def upper_central_series(self) -> list[Subspace]:
        """[Z_1, Z_2, ...] until stabilization; Z_{t+1} is the preimage of Z_t.

        v lies in Z_t exactly when u.v = 0 for every row u of a basis of
        the null space of Z_t's basis (its annihilator under the dot product).
        """
        series = [self.centre()]
        while series[-1].dim < self.dim:
            zt = series[-1]
            ann_by_col: dict[int, list] = {}
            for a, u in enumerate(kernel(zt.basis).basis.data):
                for r, e in enumerate(u):
                    if e:
                        ann_by_col.setdefault(r, []).append((a, e))
            nxt = self._centraliser(ann_by_col)
            if nxt.dim == zt.dim:
                break
            series.append(nxt)
        return series

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
        out: dict[tuple[int, int], list[Fraction]] = {}
        for (i, j), nz in self.terms.items():
            a, b = inv[i], inv[j]
            v = [ZERO] * self.dim
            for r, c in nz:
                # e_{r+1} = f_{inv[r+1]}, and [f_b, f_a] = -[f_a, f_b]
                v[inv[r + 1] - 1] = c if a < b else -c
            out[(a, b) if a < b else (b, a)] = v
        return LieAlgebra(self.dim, out)

    def direct_sum(self, other: "LieAlgebra") -> "LieAlgebra":
        n, m = self.dim, other.dim
        out: dict[tuple[int, int], list[Fraction]] = {}
        for (i, j), v in self.brackets.items():
            out[(i, j)] = list(v) + [ZERO] * m
        for (i, j), v in other.brackets.items():
            out[(i + n, j + n)] = [ZERO] * n + list(v)
        return LieAlgebra(n + m, out)


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
            v[k - 1] = scalar(c)
        br[(i, j)] = v
    return LieAlgebra(dim, br)

"""Symmetric invariant bilinear forms on structure-constant algebras.

A QuadraticStructure pairs an algebra with a symmetric non-degenerate
invariant form and refuses invalid pairs at construction; the private
QuadraticStructure._of skips those checks for the builders whose theorem
gives them. Invariance is the left-multiplication skewness
phi([x,y],z) + phi(y,[x,z]) = 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Sequence

from .algebra import LieAlgebra
from .errors import ValidationError
from .linalg import (Fraction, Mat, Subspace, _divide, _eliminate, _exact,
                     _isum, inverse, kernel, opposite, rank, vec)


@cache
def hyperbolic_form(n: int) -> Mat:
    """The 2n x 2n pairing with phi(e_i, e_{n+i}) = 1, zero elsewhere: one
    Mat per n, shared by every caller, which must not mutate it."""
    return Mat._of([{(i + n) % (2 * n): 1} for i in range(2 * n)], 2 * n)


def _cyclic_defect(t: dict) -> list[tuple[int, int, int]]:
    """The sorted x with T(x) != T(x[2], x[0], x[1]), for T alternating in
    its first two slots and held in t at i < j alone: T(j,i,k) is read as
    -t(i,j,k) with opposite, and T(i,i,k) as 0. A defect at (i,j,k) is
    T(i,j,k) + T(i,k,j) != 0, so it is one at (i,k,j) too."""
    bad = set()
    for (i, j, k), c in t.items():
        # T(i,k,j) is t(i,k,j) for i < k, else -t(k,i,j), absent at k = i
        if not (opposite(c, t.get((i, k, j), 0)) if i < k
                else c == t.get((k, i, j), 0)):
            bad.update(((i, j, k), (i, k, j)))
        # T(j,k,i) is t(j,k,i) for j < k, else -t(k,j,i), absent at k = j
        if not (c == t.get((j, k, i), 0) if j < k
                else opposite(c, t.get((k, j, i), 0))):
            bad.update(((j, i, k), (j, k, i)))
    return sorted(bad)


def invariance_defect(alg: LieAlgebra, form: Mat) -> list[tuple[int, int, int]]:
    """Ordered basis triples (i,j,k) with phi([ei,ej],ek) + phi(ej,[ei,ek]) != 0.

    With phi symmetric the sum is T(i,j,k) + T(i,k,j) for
    T(i,j,k) = phi([ei,ej],ek), so invariance holds exactly when T is
    cyclic, and only the stored brackets are visited.
    """
    if form.rows != alg.dim or form.cols != alg.dim:
        raise ValidationError("form shape does not match algebra dimension",
                              law="shape")
    if not form.is_symmetric():
        raise ValidationError("form is not symmetric", law="symmetric")
    nz = form.sparse_rows  # phi(e_r, e_k) for the nonzero k, 0-based
    # T over one common denominator: the comparisons read the sums alone
    t, _ = _isum(((i, j, k + 1), c.numerator * e.numerator,
                  c.denominator * e.denominator)
                 for (i, j), v in alg.terms.items()
                 for r, c in v for k, e in nz[r].items())
    return _cyclic_defect(t)


@dataclass(frozen=True)
class QuadraticStructure:
    alg: LieAlgebra
    form: Mat
    # id -> matrix for the matrix objects already checked as skew
    # derivations of this structure (holding each keeps its id from
    # reuse), made on first use by doubleext._deriv_mat; outside eq, hash
    # and repr
    _derivations: dict | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        defects = invariance_defect(self.alg, self.form)  # also checks symmetry
        if rank(self.form) != self.alg.dim:
            raise ValidationError("form is degenerate", law="nondegenerate")
        if defects:
            raise ValidationError(
                f"form is not invariant; first bad triple {defects[0]}",
                law="invariance", witness=defects[0])

    @classmethod
    def _of(cls, alg: LieAlgebra, form: Mat) -> "QuadraticStructure":
        """Trusted constructor, without __post_init__'s checks: only where a
        theorem makes form symmetric, invariant and nondegenerate for alg
        from hypotheses its caller has just checked."""
        q = object.__new__(cls)
        object.__setattr__(q, "alg", alg)
        object.__setattr__(q, "form", form)
        object.__setattr__(q, "_derivations", None)
        return q

    @property
    def dim(self) -> int:
        return self.alg.dim

    def phi(self, x: Sequence, y: Sequence) -> int | Fraction:
        x, y = vec(x), vec(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length mismatch")
        return _exact(sum((a * e * y[j]
                           for a, r in zip(x, self.form.sparse_rows)
                           if a for j, e in r.items() if y[j]), start=0))


def orthogonal_complement(q: QuadraticStructure, s: Subspace) -> Subspace:
    """{x : phi(x, v) = 0 for all v in s}."""
    if s.ambient_dim != q.dim:
        raise ValueError("ambient dimension mismatch")
    if s.dim == 0:
        return Subspace.full(q.dim)
    return kernel(s.basis * q.form)


def is_lagrangian(q: QuadraticStructure, s: Subspace) -> bool:
    return s == orthogonal_complement(q, s)


def lagrangian_complement(q: QuadraticStructure, s: Subspace) -> Subspace:
    """A deterministic isotropic complement pairing perfectly with s.

    Greedy transversal from the standard basis (lowest index first), then the
    symmetric correction t_a -> t_a + sum_k X[a][k] s_k with X chosen so the
    corrected rows are isotropic. Exists in characteristic 0 whenever s is
    lagrangian, and raises law "lagrangian" when s is not.
    """
    if not is_lagrangian(q, s):
        raise ValidationError("subspace is not lagrangian", law="lagrangian")
    if s.dim == 0:
        return Subspace.zero(q.dim)
    # transversal: the standard basis vectors that extending s greedily,
    # lowest index first, picks. e_t is picked exactly when no vector of s
    # has its last nonzero entry at t, so the picks are the columns that
    # are not pivots of s's RREF taken with its columns reversed.
    top = q.dim - 1
    rev = [dict(sorted((top - j, e) for j, e in r.items()))
           for r in s.basis.sparse_rows]
    last = {top - p for p in _eliminate(Mat._of(rev, q.dim))}
    picks = [{t: 1} for t in range(q.dim) if t not in last]
    T = Mat._of(picks, q.dim)
    S = s.basis
    P = T * q.form * S.transpose()     # P[a][k] = phi(t_a, s_k), invertible
    G = T * q.form * T.transpose()     # symmetric Gram of the transversal
    X = (G * inverse(P).transpose()).scale(Fraction(-1, 2))
    return Subspace._of(q.dim, (T + X * S).sparse_rows)


def is_isometry(q1: QuadraticStructure, q2: QuadraticStructure,
                m: Mat) -> tuple[bool, str]:
    """Check m maps q1 to q2 preserving brackets and the form.

    Columns of m are the images of q1's basis vectors. Returns (ok, reason).
    The form is checked first, then m[e_i, e_j] against [m e_i, m e_j]
    as two sums keyed (i, j, r), the first pair that differs reported.
    """
    if m.rows != q2.dim or m.cols != q1.dim or q1.dim != q2.dim:
        return False, "shape mismatch"
    mt = m.transpose()  # row j holds the image of e_{j+1}
    # q1's form is nondegenerate, so m^T F2 m = F1 makes m invertible, and
    # the rank decides only which check a failing m fails first
    if mt * q2.form * m != q1.form:
        return False, ("not invertible" if rank(m) != q1.dim
                       else "form not preserved")
    cols = mt.sparse_rows
    lhs = _divide(*_isum(((i - 1, j - 1, k), c.numerator * e.numerator,
                          c.denominator * e.denominator)
                         for (i, j), nz in q1.alg.terms.items()
                         for r, c in nz for k, e in cols[r].items()))
    rhs = q2.alg._brackets(cols)
    if lhs != rhs:
        i, j = min(key[:2] for key in lhs.keys() | rhs.keys()
                   if lhs.get(key) != rhs.get(key))
        return False, f"bracket not preserved at ({i + 1},{j + 1})"
    return True, "ok"


def permute_quadratic(q: QuadraticStructure, perm: Sequence[int]
                      ) -> QuadraticStructure:
    """Relabel the basis: new basis f_r = e_{perm[r-1]} (1-based labels)."""
    alg = q.alg.permute_basis(perm)
    inv = {old - 1: new for new, old in enumerate(perm)}
    rows = q.form.sparse_rows
    form = [dict(sorted((inv[j], e) for j, e in rows[p - 1].items()))
            for p in perm]
    # relabelling an invariant nondegenerate form keeps both properties
    return QuadraticStructure._of(alg, Mat._of(form, q.dim))

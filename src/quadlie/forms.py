"""Symmetric invariant bilinear forms on structure-constant algebras.

A QuadraticStructure pairs an algebra with a symmetric non-degenerate
invariant form and refuses invalid pairs at construction. Invariance is the
left-multiplication skewness phi([x,y],z) + phi(y,[x,z]) = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import LieAlgebra
from .errors import ValidationError
from .linalg import (Fraction, Mat, Subspace, ZERO, inverse, kernel, rank,
                     vec)


def hyperbolic_form(n: int) -> Mat:
    """The 2n x 2n pairing with phi(e_i, e_{n+i}) = 1, zero elsewhere."""
    rows = []
    for i in range(2 * n):
        r = [ZERO] * (2 * n)
        r[(i + n) % (2 * n)] = Fraction(1)
        rows.append(r)
    return Mat(rows)


def invariance_defect(alg: LieAlgebra, form: Mat) -> list[tuple[int, int, int]]:
    """Ordered basis triples (i,j,k) with phi([ei,ej],ek) + phi(ej,[ei,ek]) != 0.

    With phi symmetric the sum is T(i,j,k) + T(i,k,j) for
    T(i,j,k) = phi([ei,ej],ek), so only the stored brackets are visited:
    invariance holds exactly when T is alternating.
    """
    if form.rows != alg.dim or form.cols != alg.dim:
        raise ValidationError("form shape does not match algebra dimension",
                              law="shape")
    if not form.is_symmetric():
        raise ValidationError("form is not symmetric", law="symmetric")
    # sparse rows of the form: phi(e_r, e_k) for the nonzero k
    nz = [[(k, e) for k, e in enumerate(r, start=1) if e] for r in form.data]
    t: dict[tuple[int, int, int], Fraction] = {}
    for (i, j), v in alg.terms.items():
        for r, c in v:
            for k, e in nz[r]:
                t[(i, j, k)] = t.get((i, j, k), ZERO) + c * e
    for (i, j, k), c in list(t.items()):
        t[(j, i, k)] = -c
    bad = set()
    for (i, j, k), c in t.items():
        if c + t.get((i, k, j), ZERO):
            bad.update(((i, j, k), (i, k, j)))
    return sorted(bad)


@dataclass(frozen=True)
class QuadraticStructure:
    alg: LieAlgebra
    form: Mat

    def __post_init__(self):
        defects = invariance_defect(self.alg, self.form)  # also checks symmetry
        if rank(self.form) != self.alg.dim:
            raise ValidationError("form is degenerate", law="nondegenerate")
        if defects:
            raise ValidationError(
                f"form is not invariant; first bad triple {defects[0]}",
                law="invariance", witness=defects[0])

    @property
    def dim(self) -> int:
        return self.alg.dim

    def phi(self, x: Sequence, y: Sequence) -> Fraction:
        return sum((c * e for c, e in zip(self.form.matvec(vec(y)), vec(x))
                    if c and e), start=ZERO)

    def phi_basis(self, i: int, j: int) -> Fraction:
        return self.form.data[i - 1][j - 1]


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
    lagrangian.
    """
    if not is_lagrangian(q, s):
        raise ValidationError("subspace is not lagrangian", law="lagrangian")
    n = s.dim
    if n == 0:
        return Subspace.zero(q.dim)
    # transversal: extend s by standard basis vectors, lowest index preferred
    cur = s
    picks: list[tuple[Fraction, ...]] = []
    for t in range(1, q.dim + 1):
        if cur.dim == 2 * n:
            break
        e = [ZERO] * q.dim
        e[t - 1] = Fraction(1)
        grown = cur.sum(Subspace.from_rows(q.dim, [e]))
        if grown.dim > cur.dim:
            picks.append(tuple(e))
            cur = grown
    T = Mat(picks)
    S = s.basis
    P = T * q.form * S.transpose()     # P[a][k] = phi(t_a, s_k), invertible
    G = T * q.form * T.transpose()     # symmetric Gram of the transversal
    X = (G * inverse(P).transpose()).scale(Fraction(-1, 2))
    corrected = [tuple(t + sum((X.data[a][k] * S.data[k][c] for k in range(n)
                                if X.data[a][k]), start=ZERO)
                       for c, t in enumerate(T.data[a]))
                 for a in range(n)]
    return Subspace.from_rows(q.dim, corrected)


def is_isometry(q1: QuadraticStructure, q2: QuadraticStructure,
                m: Mat) -> tuple[bool, str]:
    """Check m maps q1 to q2 preserving brackets and the form.

    Columns of m are the images of q1's basis vectors. Returns (ok, reason).
    """
    if m.rows != q2.dim or m.cols != q1.dim or q1.dim != q2.dim:
        return False, "shape mismatch"
    if rank(m) != q1.dim:
        return False, "not invertible"
    if m.transpose() * q2.form * m != q1.form:
        return False, "form not preserved"
    cols = [m.col(j) for j in range(m.cols)]
    for (i, j) in _all_pairs(q1.dim):
        lhs = m.matvec(q1.alg.bracket_basis(i, j))
        rhs = q2.alg.bracket(cols[i - 1], cols[j - 1])
        if lhs != rhs:
            return False, f"bracket not preserved at ({i},{j})"
    return True, "ok"


def _all_pairs(n: int):
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield i, j


def permute_quadratic(q: QuadraticStructure, perm: Sequence[int]
                      ) -> QuadraticStructure:
    """Relabel the basis: new basis f_r = e_{perm[r-1]} (1-based labels)."""
    alg = q.alg.permute_basis(perm)
    n = q.dim
    form = Mat([[q.form.data[perm[r] - 1][perm[c] - 1] for c in range(n)]
                for r in range(n)])
    return QuadraticStructure(alg, form)

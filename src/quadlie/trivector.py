"""Alternating trivectors and their 2-step quadratic algebras.

A trivector with coefficients t_ijk is the same coefficient data as a
cyclic cocycle on an abelian space, so both roles are one class: Trivector
is the name of AltCoeffs in the trivector role, as tstar.CocycleCoeffs is
in the cocycle role, and a value passes between the roles as it is.
Evaluation follows the determinant convention (e_i* ^ e_j* ^ e_k*)(x, y, z)
= det of the 3x3 matrix with rows x, y, z restricted to components i, j, k.
"""
from __future__ import annotations

from typing import Sequence

from .alternating import AltCoeffs, _pullback
from .errors import ValidationError
from .forms import QuadraticStructure, is_isometry
from .linalg import (Fraction, Mat, Subspace, ZERO, hstack, inverse, kernel,
                     rank, vec, vstack)
from .tstar import tstar_extend

Trivector = AltCoeffs


def contract(t: Trivector, x: Sequence[Fraction]) -> Mat:
    """The skew 2-form t(x, ., .) as a matrix: entry (j, k) sums x_i t_ijk
    over slot i of pair (j, k), as t_ijk = t_jki. Pairs come sorted, so
    every row fills in ascending columns."""
    x = vec(x)
    if len(x) != t.n:
        raise ValidationError(f"vector length {len(x)} != dimension {t.n}",
                              law="shape")
    rows: list[dict[int, Fraction]] = [{} for _ in range(t.n)]
    for (j, k), nz in t.pair_terms().items():
        v = sum((x[i] * c for i, c in nz if x[i]), ZERO)
        if v:
            rows[j - 1][k - 1] = v
            rows[k - 1][j - 1] = -v
    return Mat._of(rows, t.n)


def _pair_rows(t: Trivector) -> Mat:
    """One sparse row per pair (j, k), holding t_ijk at column i, so that
    the rows vanish on x exactly when t(x, ., .) = 0; untouched pairs have
    zero rows and are left out."""
    return Mat._of([dict(nz) for nz in t.pair_terms().values()], t.n)


def trivector_kernel(t: Trivector) -> Subspace:
    """Vectors x with t(x, ., .) = 0."""
    return kernel(_pair_rows(t))


def trivector_rank(t: Trivector) -> int:
    """n minus the dimension of the kernel: the rank of the pair rows, in
    one elimination that builds no Fraction."""
    return rank(_pair_rows(t))


def algebra_from_trivector(t: Trivector) -> QuadraticStructure:
    """The 2-step quadratic algebra on 2n hyperbolic dimensions whose
    brackets are the trivector's coefficients."""
    if t.n < 3:
        raise ValidationError("need dimension at least 3", law="dimension")
    if t.is_zero():
        raise ValidationError("zero trivector gives an abelian algebra",
                              law="nonzero")
    return tstar_extend(t)


def _gl_inverse(sigma: Mat, n: int) -> Mat:
    """sigma^-1 for an n x n sigma; any other shape, or a singular sigma,
    is rejected."""
    if sigma.rows != n or sigma.cols != n:
        raise ValidationError(f"matrix must be {n}x{n}", law="shape")
    try:
        return inverse(sigma)
    except ValueError:
        raise ValidationError("matrix is singular", law="invertible")


def gl_act(sigma: Mat, t: Trivector) -> Trivector:
    """Pullback action (sigma . t)(x, y, z) = t applied to the inverse
    images; singular sigma is rejected."""
    return _pullback(t, _gl_inverse(sigma, t.n).sparse_rows, t.n)


def isometry_from_gl(sigma: Mat, t1: Trivector, t2: Trivector) -> Mat:
    """The isometry sigma + (sigma^-1)^T between the algebras of t1 and t2,
    valid when t2 is the gl action of sigma on t1."""
    n = t1.n
    if t2.n != n:
        raise ValidationError("trivectors live in different dimensions",
                              law="shape")
    inv = _gl_inverse(sigma, n)
    diff = set(t1.terms) ^ set(_pullback(t2, sigma.sparse_rows, n).terms)
    if diff:
        key = min(k for k, _ in diff)
        raise ValidationError(f"trivectors disagree under the action at "
                              f"{key}", law="compatible", witness=key)
    zero = Mat.zero(n, n)
    out = vstack(hstack(sigma, zero), hstack(zero, inv.transpose()))
    if n >= 3 and not t1.is_zero() and not t2.is_zero():
        q1 = algebra_from_trivector(t1)
        q2 = algebra_from_trivector(t2)
        ok, why = is_isometry(q1, q2, out)
        if not ok:
            raise ValidationError(f"constructed map is not an isometry: "
                                  f"{why}", law="isometry")
    return out

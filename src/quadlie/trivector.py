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

from .alternating import AltCoeffs
from .errors import ValidationError
from .forms import QuadraticStructure, is_isometry
from .linalg import Fraction, Mat, Subspace, hstack, inverse, vstack
from .tstar import tstar_extend

Trivector = AltCoeffs


def contract(t: Trivector, x: Sequence[Fraction]) -> Mat:
    """The skew 2-form t(x, ., .) as a matrix."""
    if len(x) != t.n:
        raise ValidationError(f"vector length {len(x)} != dimension {t.n}",
                              law="shape")
    return t.contraction_with(x)


def trivector_kernel(t: Trivector) -> Subspace:
    """Vectors x with t(x, ., .) = 0."""
    return t.kernel_subspace()


def trivector_rank(t: Trivector) -> int:
    return t.n - trivector_kernel(t).dim


def algebra_from_trivector(t: Trivector) -> QuadraticStructure:
    """The 2-step quadratic algebra on 2n hyperbolic dimensions whose
    brackets are the trivector's coefficients."""
    if t.n < 3:
        raise ValidationError("need dimension at least 3", law="dimension")
    if t.is_zero():
        raise ValidationError("zero trivector gives an abelian algebra",
                              law="nonzero")
    return tstar_extend(t)


def gl_act(sigma: Mat, t: Trivector) -> Trivector:
    """Pullback action (sigma . t)(x, y, z) = t applied to the inverse
    images; singular sigma is rejected."""
    n = t.n
    if sigma.rows != n or sigma.cols != n:
        raise ValidationError(f"matrix must be {n}x{n}", law="shape")
    try:
        inv = inverse(sigma)
    except ValueError:
        raise ValidationError("matrix is singular", law="invertible")
    cols = [inv.col(j) for j in range(n)]
    vals = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                v = t(cols[i - 1], cols[j - 1], cols[k - 1])
                if v:
                    vals[(i, j, k)] = v
    return Trivector(n, vals)


def isometry_from_gl(sigma: Mat, t1: Trivector, t2: Trivector) -> Mat:
    """The isometry sigma + (sigma^-1)^T between the algebras of t1 and t2,
    valid when t2 is the gl action of sigma on t1."""
    n = t1.n
    if t2.n != n:
        raise ValidationError("trivectors live in different dimensions",
                              law="shape")
    if sigma.rows != n or sigma.cols != n:
        raise ValidationError(f"matrix must be {n}x{n}", law="shape")
    try:
        inv = inverse(sigma)
    except ValueError:
        raise ValidationError("matrix is singular", law="invertible")
    scols = [sigma.col(j) for j in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                if t1.value(i, j, k) != t2(scols[i - 1], scols[j - 1],
                                           scols[k - 1]):
                    raise ValidationError(
                        f"trivectors disagree under the action at "
                        f"{(i, j, k)}", law="compatible", witness=(i, j, k))
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

"""Families of n skew matrices presenting a 2-step quadratic algebra.

A family (M_1, .., M_n) of n x n matrices is admissible when every M_i is
skew, column i of M_i vanishes, and column j of M_i equals minus column i
of M_j. The algebra it presents lives on a hyperbolic 2n-dimensional space
with [e_i, e_j] = the dual vector given by column j of M_i.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra
from .errors import ValidationError
from .forms import QuadraticStructure, hyperbolic_form
from .linalg import Mat, Subspace, rank, zero_vec


@dataclass(frozen=True)
class QuadraticFamily:
    n: int
    mats: tuple[Mat, ...]

    def __post_init__(self):
        if len(self.mats) != self.n:
            raise ValidationError(f"need {self.n} matrices, got "
                                  f"{len(self.mats)}")
        for i, m in enumerate(self.mats):
            if m.rows != self.n or m.cols != self.n:
                raise ValidationError(f"matrix {i + 1} must be "
                                      f"{self.n}x{self.n}")

    def value(self, i: int, j: int, k: int):
        """Coefficient of e_k* in [e_i, e_j]: entry (k, j) of M_i."""
        return self.mats[i - 1].entry(k - 1, j - 1)


def family_defects(fam: QuadraticFamily) -> list[str]:
    """Violations of the three admissibility laws, as readable strings."""
    out = []
    for i, m in enumerate(fam.mats, start=1):
        if not m.is_skew():
            out.append(f"M_{i} is not skew")
        if any(m.entry(r, i - 1) for r in range(fam.n)):
            out.append(f"column {i} of M_{i} is nonzero")
    for i in range(1, fam.n + 1):
        for j in range(i + 1, fam.n + 1):
            ci = fam.mats[i - 1].col(j - 1)
            cj = fam.mats[j - 1].col(i - 1)
            if any(a + b for a, b in zip(ci, cj)):
                out.append(f"column {j} of M_{i} is not minus "
                           f"column {i} of M_{j}")
    return out


def validate_family(fam: QuadraticFamily) -> tuple[bool, list[str]]:
    problems = family_defects(fam)
    return (not problems, problems)


def f_matrix(fam: QuadraticFamily) -> Mat:
    """n x n(n-1)/2 matrix whose block i holds columns i+1..n of M_i."""
    cols: list[tuple] = []
    for i in range(1, fam.n):
        m = fam.mats[i - 1]
        for j in range(i + 1, fam.n + 1):
            cols.append(m.col(j - 1))
    if not cols:
        return Mat.zero(fam.n, 0)
    return Mat.from_rows(list(zip(*cols)), cols=len(cols))


def is_nondegenerate_family(fam: QuadraticFamily) -> bool:
    """True iff the stacked columns span everything: the presented algebra
    is reduced."""
    return rank(f_matrix(fam)) == fam.n


def family_bracket_span(fam: QuadraticFamily) -> Subspace:
    # column j of M_i is row j of its transpose
    ts = [m.transpose().sparse_rows for m in fam.mats]
    return Subspace._of(fam.n, [ts[i][j] for i in range(fam.n)
                                for j in range(i + 1, fam.n)])


def algebra_from_family(fam: QuadraticFamily) -> QuadraticStructure:
    """The quadratic algebra presented by an admissible nonzero family."""
    ok, problems = validate_family(fam)
    if not ok:
        raise ValidationError("; ".join(problems), law="family")
    n = fam.n
    brackets = {}
    nonzero = False
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            star = fam.mats[i - 1].col(j - 1)
            if any(star):
                brackets[(i, j)] = zero_vec(n) + tuple(star)
                nonzero = True
    if not nonzero:
        raise ValidationError("every matrix in the family is zero",
                              law="nonzero")
    return QuadraticStructure(LieAlgebra(2 * n, brackets), hyperbolic_form(n))

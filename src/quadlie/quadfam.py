"""Families of n skew matrices presenting a 2-step quadratic algebra.

A family (M_1, .., M_n) of n x n matrices is admissible when every M_i is
skew, column i of M_i vanishes, and column j of M_i equals minus column i
of M_j. Let N_k be the matrix whose row i is row k of M_i: the last two
laws hold exactly when every N_k is skew, its diagonal being the first of
them and its pairs the second, so all three laws are skewness checks of
the rows as stored. The algebra it presents lives on a hyperbolic
2n-dimensional space with [e_i, e_j] = the dual vector given by column j
of M_i, which is row i of the N_k read at j, k ascending.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra
from .errors import ValidationError, _int_in
from .forms import QuadraticStructure, hyperbolic_form
from .linalg import Mat, _skew_pairs, rank


@dataclass(frozen=True)
class QuadraticFamily:
    n: int
    mats: tuple[Mat, ...]

    def __post_init__(self):
        if not _int_in(self.n):
            raise ValidationError(f"dimension {self.n!r} is not an int")
        if self.n < 0:
            raise ValidationError(f"negative dimension {self.n}")
        if len(self.mats) != self.n:
            raise ValidationError(f"need {self.n} matrices, got "
                                  f"{len(self.mats)}")
        for i, m in enumerate(self.mats):
            if m.rows != self.n or m.cols != self.n:
                raise ValidationError(f"matrix {i + 1} must be "
                                      f"{self.n}x{self.n}")

    def value(self, i: int, j: int, k: int):
        """Coefficient of e_k* in [e_i, e_j]: entry (k, j) of M_i."""
        if not all(1 <= x <= self.n for x in (i, j, k)):
            raise ValueError(f"basis label out of range: ({i},{j},{k})")
        return self.mats[i - 1].sparse_rows[k - 1].get(j - 1, 0)


def _laws(fam: QuadraticFamily) -> list[str]:
    """The violations of the admissibility laws: one skewness check of
    each M_i and one of each N_k, whose witness (i, i) is a nonzero
    column i of M_i and (i, j), i < j, a column j of M_i that is not
    minus column i of M_j."""
    cols = set()
    for nk in zip(*(m.sparse_rows for m in fam.mats)):
        cols.update(_skew_pairs(nk))
    out = []
    for i, m in enumerate(fam.mats, start=1):
        if _skew_pairs(m.sparse_rows):
            out.append(f"M_{i} is not skew")
        if (i, i) in cols:
            out.append(f"column {i} of M_{i} is nonzero")
    out.extend(f"column {j} of M_{i} is not minus column {i} of M_{j}"
               for i, j in sorted(cols) if i < j)
    return out


def validate_family(fam: QuadraticFamily) -> tuple[bool, list[str]]:
    """Whether fam is admissible, and the violations of the three laws as
    readable strings."""
    problems = _laws(fam)
    return (not problems, problems)


def _dual_parts(fam: QuadraticFamily, shift: int) -> dict:
    """Column j of M_i for i < j, keyed (i, j) ascending where it is
    nonzero: the dual part of [e_i, e_j], as (k + shift, entry (k, j) of
    M_i) with k ascending. It is read off row i of each N_k, that is row k
    of M_i, for j > i."""
    parts = {}
    for i, m in enumerate(fam.mats):
        cols: dict[int, list] = {}
        for k, row in enumerate(m.sparse_rows, shift):
            for j, c in row.items():
                if j > i:
                    cols.setdefault(j, []).append((k, c))
        for j in sorted(cols):
            parts[(i + 1, j + 1)] = tuple(cols[j])
    return parts


def f_matrix(fam: QuadraticFamily) -> Mat:
    """n x n(n-1)/2 matrix whose block i holds columns i+1..n of M_i."""
    n = fam.n
    rows: list[dict] = [{} for _ in range(n)]
    for (i, j), part in _dual_parts(fam, 0).items():
        col = (i - 1) * n - i * (i - 1) // 2 + j - i - 1
        for k, c in part:
            rows[k][col] = c
    return Mat._of(rows, n * (n - 1) // 2)


def is_nondegenerate_family(fam: QuadraticFamily) -> bool:
    """True iff the stacked columns span everything: the presented algebra
    is reduced."""
    return rank(f_matrix(fam)) == fam.n


def algebra_from_family(fam: QuadraticFamily) -> QuadraticStructure:
    """The quadratic algebra presented by an admissible nonzero family; the
    law check and the brackets read the rows as stored."""
    problems = _laws(fam)
    if problems:
        raise ValidationError("; ".join(problems), law="family")
    n = fam.n
    terms = _dual_parts(fam, n)
    if not terms:
        raise ValidationError("every matrix in the family is zero",
                              law="nonzero")
    # the family laws make c_ijk alternating (see family_to_coeffs), so
    # this is the T*-extension of alternating coefficients: B* is central
    # and Jacobi holds, and the hyperbolic form is invariant (Bordemann
    # 1997) and nondegenerate
    return QuadraticStructure._of(LieAlgebra._of(2 * n, terms, []),
                                  hyperbolic_form(n))

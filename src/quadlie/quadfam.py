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
from .linalg import Mat, ZERO, _skew_pairs, opposite, rank


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
        if not all(1 <= x <= self.n for x in (i, j, k)):
            raise ValueError(f"basis label out of range: ({i},{j},{k})")
        return self.mats[i - 1].sparse_rows[k - 1].get(j - 1, ZERO)


def _negated(a: dict, b: dict) -> bool:
    """Whether the sparse rows a and b satisfy a = -b."""
    return len(a) == len(b) and all(opposite(a.get(k), e)
                                    for k, e in b.items())


def _laws(fam: QuadraticFamily) -> tuple[list[str], list]:
    """The violations of the admissibility laws, and the sparse rows of each
    matrix's transpose read for them: column j of M_i is row j of its
    transpose, taken once."""
    out = []
    cols = []
    for i, m in enumerate(fam.mats, start=1):
        t = m.transpose().sparse_rows
        cols.append(t)
        if _skew_pairs(m.sparse_rows):
            out.append(f"M_{i} is not skew")
        if t[i - 1]:
            out.append(f"column {i} of M_{i} is nonzero")
    for i in range(1, fam.n + 1):
        for j in range(i + 1, fam.n + 1):
            if not _negated(cols[i - 1][j - 1], cols[j - 1][i - 1]):
                out.append(f"column {j} of M_{i} is not minus "
                           f"column {i} of M_{j}")
    return out, cols


def validate_family(fam: QuadraticFamily) -> tuple[bool, list[str]]:
    """Whether fam is admissible, and the violations of the three laws as
    readable strings."""
    problems = _laws(fam)[0]
    return (not problems, problems)


def _columns(cols: list) -> dict[tuple[int, int], dict]:
    """Column j of M_i for i < j, keyed (i, j) and read off row j of its
    transpose, cols[i - 1]: the dual part of [e_i, e_j], as a sparse row."""
    return {(i, j): col for i, t in enumerate(cols, start=1)
            for j, col in enumerate(t[i:], i + 1)}


def f_matrix(fam: QuadraticFamily) -> Mat:
    """n x n(n-1)/2 matrix whose block i holds columns i+1..n of M_i."""
    cols = [m.transpose().sparse_rows for m in fam.mats]
    return Mat._of(list(_columns(cols).values()), fam.n).transpose()


def is_nondegenerate_family(fam: QuadraticFamily) -> bool:
    """True iff the stacked columns span everything: the presented algebra
    is reduced."""
    return rank(f_matrix(fam)) == fam.n


def algebra_from_family(fam: QuadraticFamily) -> QuadraticStructure:
    """The quadratic algebra presented by an admissible nonzero family; the
    law check and the brackets read one transpose per matrix."""
    problems, cols = _laws(fam)
    if problems:
        raise ValidationError("; ".join(problems), law="family")
    n = fam.n
    terms = {key: tuple((n + k, c) for k, c in col.items())
             for key, col in _columns(cols).items() if col}
    if not terms:
        raise ValidationError("every matrix in the family is zero",
                              law="nonzero")
    # the family laws make c_ijk alternating (see family_to_coeffs), so
    # this is the T*-extension of alternating coefficients: B* is central
    # and Jacobi holds, and the hyperbolic form is invariant (Bordemann
    # 1997) and nondegenerate
    return QuadraticStructure._of(LieAlgebra._of(2 * n, terms, []),
                                  hyperbolic_form(n))

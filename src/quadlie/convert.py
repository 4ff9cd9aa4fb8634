"""Lossless conversions among the presentations of a 2-step algebra.

Cocycle coefficients c_ijk are the pivot: families and chains convert to
and from them, and all_roads demands bit-identical results along every
route, not mere isomorphism: the family route's structure constants and
form equal the T*-extension's, and the chain route carries c itself, which
the T*-extension stores as its brackets. The shared canonical basis
e_1..e_n, e_1*..e_n* makes that equality achievable.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .doubleext import build_chain, chain_to_coeffs
from .errors import ValidationError
from .forms import QuadraticStructure
from .linalg import Mat
from .quadfam import QuadraticFamily, algebra_from_family, validate_family
from .tstar import CocycleCoeffs, tstar_extend


def family_to_coeffs(fam: QuadraticFamily) -> CocycleCoeffs:
    """Read c_ijk off entry (k,j) of M_i at i < j < k. The family laws make
    the other places agree: M_i skew swaps j and k, and column j of M_i =
    -column i of M_j swaps i and j, which together generate S_3."""
    ok, problems = validate_family(fam)
    if not ok:
        raise ValidationError("; ".join(problems), law="family")
    return CocycleCoeffs(fam.n, {(i, j + 1, k + 1): v
                                 for i, m in enumerate(fam.mats, start=1)
                                 for k, row in enumerate(m.sparse_rows)
                                 for j, v in row.items() if i <= j < k})


def coeffs_to_family(c: CocycleCoeffs) -> QuadraticFamily:
    """The matrix family with entry (k,j) of M_i equal to c_ijk: a term
    (i, j, k) fills the six places where its labels meet, c at the even
    orders and -c at the odd. c.terms is sorted, so every row fills in
    ascending columns."""
    n = c.n
    mats: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j, k), v in c.terms:
        w = -v
        mi, mj, mk = mats[i - 1], mats[j - 1], mats[k - 1]
        mi[k - 1][j - 1], mj[k - 1][i - 1] = v, w
        mi[j - 1][k - 1], mk[j - 1][i - 1] = w, v
        mj[i - 1][k - 1], mk[i - 1][j - 1] = v, w
    return QuadraticFamily(n, tuple(Mat._of(m, n) for m in mats))


@dataclass(frozen=True)
class RoadsReport:
    """Outcome of building one algebra along all three routes."""
    n: int
    equal: bool
    mismatches: tuple[str, ...]
    algebra: QuadraticStructure


def all_roads(c: CocycleCoeffs) -> RoadsReport:
    """Build via the T*-extension and the matrix family, then compare
    structure constants and forms exactly. The chain route is the round
    trip c -> chain -> c' under the chain's laws, compared by the carried
    coefficients: its T*-extension, over the same hyperbolic form, stores
    them as its brackets. fold_chain, the independent chain construction,
    is compared in the tests."""
    if c.n < 3:
        raise ValidationError("need dimension at least 3", law="dimension")
    if c.is_zero():
        raise ValidationError("zero coefficients give an abelian algebra",
                              law="nonzero")
    base = tstar_extend(c)
    carried = chain_to_coeffs(build_chain(c))
    family = algebra_from_family(coeffs_to_family(c))
    mism = []
    if carried != c:
        mism.append("chain structure constants differ from tstar")
    if family.alg != base.alg:
        mism.append("family structure constants differ from tstar")
    if family.form != base.form:
        mism.append("family form differs from tstar")
    return RoadsReport(c.n, not mism, tuple(mism), base)


def count_parameters(n: int) -> int:
    """Free coefficients at base dimension n; with N = 2n the algebra
    dimension this is N(N-2)(N-4)/48."""
    return comb(n, 3)

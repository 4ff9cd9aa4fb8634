"""Lossless conversions among the presentations of a 2-step algebra.

Cocycle coefficients c_ijk are the pivot: families and chains convert to
and from them, and all_roads builds the algebra along every route and
demands bit-identical structure constants and forms, not mere isomorphism.
The shared canonical basis e_1..e_n, e_1*..e_n* makes that equality
achievable.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .doubleext import (ExtensionChain, _check_chain, build_chain,
                        chain_dcoeffs, chain_to_algebra)
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
    """The matrix family with entry (k,j) of M_i equal to c_ijk: slot k of
    pair (a, b) holds c_abk, which M_a has at (k, b) and M_b, negated, at
    (k, a). Pairs come sorted, so every row fills in ascending columns."""
    n = c.n
    mats: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for (a, b), nz in c.pair_terms().items():
        ma, mb = mats[a - 1], mats[b - 1]
        for k, v in nz:
            ma[k][b - 1] = v
            mb[k][a - 1] = -v
    return QuadraticFamily(n, tuple(Mat._of(m, n) for m in mats))


def coeffs_to_chain(c: CocycleCoeffs) -> ExtensionChain:
    return build_chain(c)


def chain_to_coeffs(ch: ExtensionChain) -> CocycleCoeffs:
    """The coefficients a chain carries, read once its two-step property
    and skew links are checked, as chain_to_algebra checks them."""
    _check_chain(ch)
    return chain_dcoeffs(ch)


@dataclass(frozen=True)
class RoadsReport:
    """Outcome of building one algebra along all three routes."""
    n: int
    equal: bool
    mismatches: tuple[str, ...]
    algebra: QuadraticStructure


def all_roads(c: CocycleCoeffs) -> RoadsReport:
    """Build via the T*-extension, the chain and the matrix family, then
    compare structure constants and forms exactly. The chain route checks
    the round trip c -> chain -> c' and the chain's laws; fold_chain, the
    independent chain construction, is compared in the tests."""
    if c.n < 3:
        raise ValidationError("need dimension at least 3", law="dimension")
    if c.is_zero():
        raise ValidationError("zero coefficients give an abelian algebra",
                              law="nonzero")
    routes = {
        "tstar": tstar_extend(c),
        "chain": chain_to_algebra(coeffs_to_chain(c)),
        "family": algebra_from_family(coeffs_to_family(c)),
    }
    base = routes["tstar"]
    mism = []
    for name, q in routes.items():
        if q.alg != base.alg:
            mism.append(f"{name} structure constants differ from tstar")
        if q.form != base.form:
            mism.append(f"{name} form differs from tstar")
    return RoadsReport(c.n, not mism, tuple(mism), base)


def count_parameters(n: int) -> int:
    """Free coefficients at base dimension n; with N = 2n the algebra
    dimension this is N(N-2)(N-4)/48."""
    return comb(n, 3)

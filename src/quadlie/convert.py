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

from .doubleext import ExtensionChain, build_chain, chain_dcoeffs
from .doubleext import chain_to_algebra
from .errors import ValidationError
from .forms import QuadraticStructure
from .linalg import Mat
from .quadfam import QuadraticFamily, algebra_from_family, validate_family
from .tstar import CocycleCoeffs, tstar_extend


def _signed_places(c: CocycleCoeffs):
    """(i, j, k, c_ijk) at the six orderings of each term of c."""
    for (i, j, k), v in c.terms:
        yield from ((i, j, k, v), (j, k, i, v), (k, i, j, v),
                    (i, k, j, -v), (k, j, i, -v), (j, i, k, -v))


def family_to_coeffs(fam: QuadraticFamily) -> CocycleCoeffs:
    """Read c_ijk off entry (k,j) of M_i, checking every redundant
    position against the alternating symmetry."""
    ok, problems = validate_family(fam)
    if not ok:
        raise ValidationError("; ".join(problems), law="family")
    entries = {(i, j + 1, k + 1): v
               for i, m in enumerate(fam.mats, start=1)
               for k, row in enumerate(m.sparse_rows) for j, v in row.items()}
    c = CocycleCoeffs(fam.n, {t: v for t, v in entries.items()
                              if t[0] < t[1] < t[2]})
    # a mismatch needs a nonzero on one side: an entry of the family, or
    # one of the six signed places of a term of c
    want = {(i, j, k): v for i, j, k, v in _signed_places(c)}
    bad = [t for t, v in entries.items() if want.get(t) != v]
    bad += [t for t, v in want.items() if entries.get(t) != v]
    if bad:
        i, j, k = min(bad)
        raise ValidationError(
            f"entry ({k},{j}) of matrix {i} breaks the "
            f"alternating symmetry", law="alternating", witness=(i, j, k))
    return c


def coeffs_to_family(c: CocycleCoeffs) -> QuadraticFamily:
    """The matrix family with entry (k,j) of M_i equal to c_ijk."""
    n = c.n
    # c.terms is sorted, so the terms holding both i and k come in
    # ascending order of their third index: row k of M_i fills ascending
    mats: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for i, j, k, v in _signed_places(c):
        mats[i - 1][k - 1][j - 1] = v
    return QuadraticFamily(n, tuple(Mat._of(m, n) for m in mats))


def coeffs_to_chain(c: CocycleCoeffs) -> ExtensionChain:
    return build_chain(c)


def chain_to_coeffs(ch: ExtensionChain) -> CocycleCoeffs:
    d = chain_dcoeffs(ch)
    return CocycleCoeffs(d.n, d.terms)


@dataclass(frozen=True)
class RoadsReport:
    """Outcome of building one algebra along all three routes."""
    n: int
    equal: bool
    mismatches: tuple[str, ...]
    algebra: QuadraticStructure


def all_roads(c: CocycleCoeffs) -> RoadsReport:
    """Build via the T*-extension, the folded chain closed formula, and the
    matrix family, then compare structure constants and forms exactly."""
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

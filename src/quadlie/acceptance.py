"""The eight acceptance checks, each returning (ok, one-line detail).

These run the library end to end: catalog soundness, the census counts,
route equality, the four reducedness criteria, the two-step and centre
formulas against direct computation, the dual-extension round trip, the
worked examples, and the parameter count. Everything is exact; the only
measured quantity is the catalog wall time, which must stay under ten
seconds.
"""
from __future__ import annotations

import time

from .algebra import LieAlgebra, abelian, heisenberg
from .catalog import CATALOG, catalog_counts, lambda_trivector
from .convert import all_roads, coeffs_to_family, count_parameters
from .doubleext import centre_formula_1d, double_extend_1d, \
    two_step_criterion
from .errors import ValidationError
from .forms import QuadraticStructure, hyperbolic_form, invariance_defect
from .linalg import Mat, rank
from .quadfam import is_nondegenerate_family
from .randgen import random_coeffs, random_skew_derivation
from .trivector import algebra_from_trivector, trivector_rank
from .tstar import CocycleCoeffs, GeneralCocycle, decompose_as_tstar, \
    radical, tstar_extend


def verify_report(alg: LieAlgebra, form: Mat | None) -> dict:
    """Every law of a quadratic two-step algebra, checked once each.

    The Lie-dependent fields (nilindex, type, reducedness, D^perp = Z) are
    filled only when the Jacobi defect is empty; D^perp = Z only with a
    nondegenerate form. `pass` covers Lie, invariance and nondegeneracy.
    """
    rep: dict = {"dim": alg.dim}
    jd = alg.jacobi_defect()
    rep["lie"] = not jd
    if jd:
        rep["jacobi_defect"] = [list(t[:3]) for t in jd[:5]]
    ok = rep["lie"]
    if form is not None:
        defects = invariance_defect(alg, form)
        rep["invariant"] = not defects
        if defects:
            rep["invariance_defect"] = [list(t) for t in defects[:5]]
        rep["nondegenerate"] = rank(form) == alg.dim
        ok = ok and rep["invariant"] and rep["nondegenerate"]
    if rep["lie"]:
        rep["nilindex"] = alg.nilindex()
        r, s = alg.algebra_type()
        rep["type"] = [r, s]
        rep["reduced"] = alg.is_reduced()
        if form is not None and rep["nondegenerate"]:
            # the form is nondegenerate, so D^perp has dimension dim - dim
            # D, and Z = D^perp exactly when Z has it and D F Z^T = 0
            D, Z = alg.derived(), alg.centre()
            rep["derived_perp_equals_centre"] = (
                Z.dim == alg.dim - D.dim
                and (D.basis * form * Z.basis.transpose()).is_zero())
    rep["pass"] = ok
    return rep


def _unchecked(alg: LieAlgebra) -> LieAlgebra:
    """alg's brackets in an algebra that remembers no law, so that a check
    on it runs afresh instead of reading a builder's known-empty Jacobi
    defect."""
    return LieAlgebra._of(alg.dim, alg.terms)


def verify_catalog_entry(entry) -> list[str]:
    """The full verify report of a catalog entry against its stated data: a
    reduced two-step algebra of type (n, n) with D^perp = Z. The T* builder
    checks none of these laws, so each is checked here, once."""
    q = algebra_from_trivector(entry.trivector)
    rep = verify_report(_unchecked(q.alg), q.form)
    n = entry.n
    want = {"dim": entry.expected_dim, "lie": True, "invariant": True,
            "nondegenerate": True, "nilindex": 2, "type": [n, n],
            "reduced": True, "derived_perp_equals_centre": True}
    return [f"{entry.label}: {key} {rep.get(key)} != {val}"
            for key, val in want.items() if rep.get(key) != val]


def criterion_1() -> tuple[bool, str]:
    """All 22 catalog entries verify exactly, within the time budget."""
    start = time.monotonic()
    problems = []
    for entry in CATALOG:
        problems.extend(verify_catalog_entry(entry))
    elapsed = time.monotonic() - start
    if problems:
        return False, f"{len(problems)} failures: {problems[:3]}"
    if elapsed >= 10.0:
        return False, f"22 entries verified but took {elapsed:.2f}s >= 10s"
    return True, f"22 entries verified in {elapsed:.2f}s"


def criterion_2() -> tuple[bool, str]:
    """Census counts per dimension match the classification table."""
    counts = catalog_counts()
    want = {6: 1, 8: 0, 10: 1, 12: 2, 14: 5, 16: 13}
    total = sum(counts.values())
    if counts != want:
        return False, f"counts {counts} != {want}"
    if total != 22:
        return False, f"total {total} != 22"
    return True, f"counts {counts} with total 22"


def _roads_problem(c: CocycleCoeffs) -> str | None:
    """Why the three routes fail on c, or None. The laws are checked once,
    on the T* result: all_roads checks none of them, and the other routes
    must equal that result bit for bit."""
    rep = all_roads(c)
    q = rep.algebra
    if _unchecked(q.alg).jacobi_defect():
        return "T* result fails the Jacobi identity"
    if invariance_defect(q.alg, q.form):
        return "T* form is not invariant"
    if rank(q.form) != q.dim:
        return "T* form is degenerate"
    return None if rep.equal else str(rep.mismatches)


def criterion_3() -> tuple[bool, str]:
    """Route equality on the catalog and 200 seeded random cocycles, after
    the Jacobi, invariance and rank checks on the T* result; the chain
    route is the round trip c -> chain -> c' (see all_roads)."""
    cases = 0
    for entry in CATALOG:
        why = _roads_problem(entry.trivector)
        if why:
            return False, f"{entry.label}: {why}"
        cases += 1
    for seed in range(1, 201):
        n = 3 + seed % 5
        why = _roads_problem(random_coeffs(n, seed=seed, nonzero=True))
        if why:
            return False, f"seed {seed}: {why}"
        cases += 1
    return True, f"{cases} cases bit-identical along all three routes"


def criterion_4() -> tuple[bool, str]:
    """Reduced <=> zero radical <=> full family rank <=> full trivector
    rank, on 500 seeded random cocycles."""
    for seed in range(1000, 1500):
        n = 3 + seed % 5
        c = random_coeffs(n, seed=seed)
        flags = (
            tstar_extend(c).alg.is_reduced(),
            radical(GeneralCocycle.from_coeffs(c)).dim == 0,
            is_nondegenerate_family(coeffs_to_family(c)),
            trivector_rank(c) == n,
        )
        if len(set(flags)) != 1:
            return False, f"seed {seed}: flags {flags} disagree"
    return True, "four reducedness flags identical on 500 cocycles"


def _random_extension_case(seed: int):
    """A seeded quadratic base and skew derivation, mixing abelian bases,
    zero maps, and 2-step bases."""
    kind = seed % 4
    if kind in (0, 1):
        m = 2 + seed % 3
        aq = QuadraticStructure(abelian(2 * m), hyperbolic_form(m))
        d = random_skew_derivation(aq, seed) if kind == 0 else \
            Mat.zero(2 * m, 2 * m)
    elif kind == 2:
        c = random_coeffs(3 + seed % 4, seed=7 * seed + 1, nonzero=True)
        aq = tstar_extend(c)
        d = random_skew_derivation(aq, seed)
    else:
        m = 1 + seed % 2
        aq = QuadraticStructure(abelian(2 * m), hyperbolic_form(m))
        d = random_skew_derivation(aq, seed)
    return aq, d


def criterion_5() -> tuple[bool, str]:
    """Two-step criterion matches the nilindex and the centre formula
    matches the computed centre on 100 seeded extensions."""
    for seed in range(2000, 2100):
        aq, d = _random_extension_case(seed)
        ext = double_extend_1d(aq, d)
        predicted = two_step_criterion(aq, d)
        actual = ext.alg.nilindex() == 2
        if predicted != actual:
            return False, (f"seed {seed}: criterion {predicted} but "
                           f"nilindex {ext.alg.nilindex()}")
        if centre_formula_1d(aq, d) != ext.alg.centre():
            return False, f"seed {seed}: centre formula mismatch"
    return True, "criterion and centre formula exact on 100 extensions"


def criterion_6() -> tuple[bool, str]:
    """Dual-extension round trip through the derived ideal, isometry
    verified on all basis pairs."""
    for entry in CATALOG:
        q = algebra_from_trivector(entry.trivector)
        try:
            # verifies the map on every basis pair before returning it
            base, _, _ = decompose_as_tstar(q, q.alg.derived())
        except ValidationError as e:
            return False, f"{entry.label}: {e}"
        if base.terms:
            return False, f"{entry.label}: quotient not abelian"
    return True, "22 round trips isometric, maps verified pairwise"


def _jordan_extension(n: int) -> QuadraticStructure:
    """Extend the 2n-dim abelian algebra by the nilpotent two-block map
    d(a_l) = a_{l+1}, d(a_{n+m}) = -a_{n+m-1}."""
    dim = 2 * n
    d: list[dict[int, int]] = [{} for _ in range(dim)]
    for l in range(1, n):
        d[l] = {l - 1: 1}
    for m in range(n + 2, dim + 1):
        d[m - 2] = {m - 1: -1}
    aq = QuadraticStructure(abelian(dim), hyperbolic_form(n))
    return double_extend_1d(aq, Mat._of(d, dim))


def criterion_7() -> tuple[bool, str]:
    """The worked examples: determinant cocycle, two-block extensions,
    and the 18-dimensional parametric algebra."""
    det = GeneralCocycle(heisenberg(), {
        (1, 2): (0, 0, 1), (1, 3): (0, -1, 0), (2, 3): (1, 0, 0)})
    q = tstar_extend(det)
    if q.dim != 6 or q.alg.nilindex() != 3:
        return False, (f"determinant cocycle gave dim {q.dim}, "
                       f"nilindex {q.alg.nilindex()}")
    for n in range(2, 6):
        ext = _jordan_extension(n)
        if ext.alg.nilindex() != n:
            return False, (f"two-block extension at n={n}: nilindex "
                           f"{ext.alg.nilindex()} != {n}")
    big = algebra_from_trivector(lambda_trivector(1))
    if big.dim != 18 or big.alg.nilindex() != 2:
        return False, f"18-dim example: dim {big.dim}"
    if not big.alg.is_reduced():
        return False, "18-dim example not reduced"
    return True, "determinant, two-block, and 18-dim examples all verify"


def criterion_8() -> tuple[bool, str]:
    """C(n,3) equals N(N-2)(N-4)/48 at algebra dimension N = 2n."""
    for n in range(3, 8):
        big_n = 2 * n
        formula = big_n * (big_n - 2) * (big_n - 4) // 48
        if count_parameters(n) != formula:
            return False, (f"n={n}: C(n,3)={count_parameters(n)} != "
                           f"{formula}")
    return True, "parameter count matches the closed formula for n=3..7"


ALL_CRITERIA = (
    ("catalog soundness", criterion_1),
    ("census counts", criterion_2),
    ("three-route equality", criterion_3),
    ("reducedness criteria agreement", criterion_4),
    ("two-step and centre formulas", criterion_5),
    ("dual-extension round trip", criterion_6),
    ("worked examples", criterion_7),
    ("parameter count", criterion_8),
)


def run_all() -> list[tuple[str, bool, str, float]]:
    """(name, ok, detail, wall seconds) of each criterion, in order."""
    out = []
    for name, fn in ALL_CRITERIA:
        start = time.perf_counter()
        ok, detail = fn()
        out.append((name, ok, detail, time.perf_counter() - start))
    return out

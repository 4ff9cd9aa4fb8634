"""T*-extensions: B + B* with a cocycle-twisted bracket and hyperbolic form.

Two cocycle containers: CocycleCoeffs (alternating coefficients over an
abelian base, shared storage with trivectors) and GeneralCocycle (arbitrary
Lie base, one covector per basis pair). Coefficient input converts once,
through GeneralCocycle.from_coeffs, and one sparse builder makes the bracket
of every extension; the cocycle law is checked as its Jacobi law.
"""
from __future__ import annotations

from typing import Mapping, Sequence

from .algebra import LieAlgebra, abelian
from .alternating import AltCoeffs
from .errors import ValidationError
from .forms import (QuadraticStructure, hyperbolic_form, is_isometry,
                    is_lagrangian, lagrangian_complement)
from .linalg import (Fraction, Mat, Subspace, ZERO, inverse, is_zero_vec,
                     vec, vstack, zero_vec)


class CocycleCoeffs(AltCoeffs):
    """Cyclic 2-cocycle data on the abelian algebra of dimension n."""


class GeneralCocycle:
    """Skew bilinear w: B x B -> B*, stored as covectors on pairs i<j."""

    __slots__ = ("base", "values")

    def __init__(self, base: LieAlgebra,
                 values: Mapping[tuple[int, int], Sequence]):
        n = base.dim
        store: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        for (i, j), v in values.items():
            if not (1 <= i < j <= n):
                raise ValidationError(f"bad pair {(i, j)}; need 1 <= i < j <= {n}")
            v = vec(v)
            if len(v) != n:
                raise ValidationError(f"covector at {(i, j)} must have length {n}")
            if not is_zero_vec(v):
                store[(i, j)] = v
        self.base = base
        self.values = store

    @classmethod
    def from_coeffs(cls, c: AltCoeffs) -> "GeneralCocycle":
        """w(e_i,e_j)(e_k) = c_ijk over the abelian base. Each (pair, slot)
        comes from exactly one stored triple, already range-checked."""
        vals: dict[tuple[int, int], list[Fraction]] = {}
        for (i, j, k), cv in c.terms:
            for pair, pos, v in (((i, j), k, cv), ((i, k), j, -cv),
                                 ((j, k), i, cv)):
                vals.setdefault(pair, [ZERO] * c.n)[pos - 1] = v
        w = object.__new__(cls)
        w.base = abelian(c.n)
        w.values = {pair: tuple(v) for pair, v in vals.items()}
        return w

    def value_pair(self, i: int, j: int) -> tuple[Fraction, ...]:
        """w(e_i, e_j) with sign resolution; zero covector on i == j."""
        n = self.base.dim
        if i == j:
            return zero_vec(n)
        if i < j:
            return self.values.get((i, j), zero_vec(n))
        v = self.values.get((j, i))
        return zero_vec(n) if v is None else tuple(-e for e in v)

    def value(self, i: int, j: int, k: int) -> Fraction:
        return self.value_pair(i, j)[k - 1]

    def apply(self, x: Sequence[Fraction], j: int) -> tuple[Fraction, ...]:
        """w(x, e_j) by linearity in the first slot."""
        n = self.base.dim
        out = [ZERO] * n
        for i, c in enumerate(x, start=1):
            if c:
                for t, e in enumerate(self.value_pair(i, j)):
                    if e:
                        out[t] += c * e
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.values


def _general(w: GeneralCocycle | AltCoeffs) -> GeneralCocycle:
    return GeneralCocycle.from_coeffs(w) if isinstance(w, AltCoeffs) else w


def _tstar_algebra(w: GeneralCocycle, aq: QuadraticStructure | None = None,
                   phi: Sequence[Mat] = ()) -> LieAlgebra:
    """The bracket on B + A + B*, read from the stored brackets of B and A,
    the stored values of w and the nonzero entries of each phi_k in Der(A).

    Labels: 1..m the base, then A's basis, then e_k* (A = 0 when aq is
    None). [e_i, e_j] = [e_i, e_j]_B + w(e_i, e_j); [e_i, e_k*] =
    ad*(e_i)(e_k*) has component -[e_i, e_l]_k at e_l*; [e_k, a] =
    phi_k(a); [a, a'] = [a, a']_A + sum_k phi(phi_k a, a') e_k*. A double
    extension is the case w = 0, and a T*-extension the case A = 0.
    """
    m = w.base.dim
    star = m + (aq.dim if aq is not None else 0)  # e_k* has label star + k
    brackets: dict[tuple[int, int], list[Fraction]] = {}

    def row(i, j):
        return brackets.setdefault((i, j), [ZERO] * (star + m))
    for (i, j), v in w.base.terms.items():
        base = row(i, j)
        for k, c in v:
            base[k] = c
            # [e_i, e_j] has c at e_{k+1}, and [e_j, e_i] has -c
            row(i, star + k + 1)[star + j - 1] = -c
            row(j, star + k + 1)[star + i - 1] = c
    for pair, v in w.values.items():
        row(*pair)[star:] = v
    if aq is not None:
        for (i, j), v in aq.alg.terms.items():
            a = row(m + i, m + j)
            for r, c in v:
                a[m + r] = c
        form = [[(j, f) for j, f in enumerate(r) if f] for r in aq.form.data]
        for k, mat in enumerate(phi, start=1):
            beta: dict[tuple[int, int], Fraction] = {}
            for r, mrow in enumerate(mat.data):
                for s, c in enumerate(mrow):
                    if c:
                        # phi_k a_s has c at a_r, so phi(phi_k a_s, a_j)
                        # gains c phi(a_r, a_j)
                        row(k, m + s + 1)[m + r] = c
                        for j, f in form[r]:
                            if s < j:
                                beta[(s, j)] = beta.get((s, j), ZERO) + c * f
            for (s, j), x in beta.items():
                if x:
                    row(m + s + 1, m + j + 1)[star + k - 1] = x
    return LieAlgebra(star + m, brackets)


def cyclic_defect(w: GeneralCocycle | AltCoeffs
                  ) -> list[tuple[int, int, int]]:
    """Ordered triples with w(e_i,e_j)(e_k) != w(e_k,e_i)(e_j).

    With t(i,j,k) = w(e_i,e_j)(e_k), a defect needs t(i,j,k) or t(k,i,j)
    nonzero, so the candidates are the nonzero entries of t and their
    cyclic pre-images.
    """
    if isinstance(w, AltCoeffs):
        return []  # alternating storage is cyclic by construction
    t: dict[tuple[int, int, int], Fraction] = {}
    for (i, j), v in w.values.items():
        for k, c in enumerate(v, start=1):
            if c:
                t[(i, j, k)] = c
                t[(j, i, k)] = -c
    cands = set(t) | {(b, c, a) for (a, b, c) in t}
    return sorted(x for x in cands
                  if t.get(x, ZERO) != t.get((x[2], x[0], x[1]), ZERO))


def is_cyclic(w: GeneralCocycle | AltCoeffs) -> bool:
    return not cyclic_defect(w)


def _cocycle_defect(w: GeneralCocycle, alg: LieAlgebra
                    ) -> list[tuple[int, int, int]]:
    """Over a Lie base, the Jacobi sum of alg = _tstar_algebra(w) on a base
    triple is the cyclic sum of ad*(a)(w(b,c)) - w([a,b],c), and a triple
    with a dual vector satisfies Jacobi because ad* is a representation
    (Bordemann 1997). So the defect is exactly alg's Jacobi defect."""
    if not w.base.is_lie():
        raise ValidationError("base is not a Lie algebra", law="jacobi")
    return [(i, j, k) for i, j, k, _ in alg.jacobi_defect()]


def cocycle_defect(w: GeneralCocycle | AltCoeffs
                   ) -> list[tuple[int, int, int]]:
    """Basis triples i<j<k violating the 2-cocycle identity.

    Sum over cyclic (a,b,c) of w([a,b],c) must equal the same cyclic sum of
    ad*(a)(w(b,c)). Over an abelian base both sides vanish.
    """
    if isinstance(w, AltCoeffs):
        return []
    return _cocycle_defect(w, _tstar_algebra(w))


def is_two_cocycle(w: GeneralCocycle | AltCoeffs) -> bool:
    return not cocycle_defect(w)


def tstar_extend(w: GeneralCocycle | AltCoeffs) -> QuadraticStructure:
    """The quadratic algebra on B + B* twisted by the cyclic 2-cocycle w.

    Basis labels: 1..n the base, n+k the dual vector e_k*.
    """
    bad = cyclic_defect(w)
    if bad:
        raise ValidationError(f"cocycle is not cyclic at triple {bad[0]}",
                              law="cyclic", witness=bad[0])
    g = _general(w)
    alg = _tstar_algebra(g)
    # coefficient storage is alternating over an abelian base: a cocycle
    if not isinstance(w, AltCoeffs):
        bad = _cocycle_defect(g, alg)
        if bad:
            raise ValidationError(f"2-cocycle identity fails at triple "
                                  f"{bad[0]}", law="cocycle", witness=bad[0])
    return QuadraticStructure(alg, hyperbolic_form(g.base.dim))


def radical(w: GeneralCocycle | AltCoeffs) -> Subspace:
    """{b in B : w(b, -) = 0}: the centre of the bracket w on B."""
    g = _general(w)
    return LieAlgebra(g.base.dim, g.values).centre()


def value_span(w: GeneralCocycle | AltCoeffs) -> Subspace:
    """span{w(b, b')} inside B* coordinates."""
    g = _general(w)
    return Subspace.from_rows(g.base.dim, list(g.values.values()))


def reduced_criteria(w: AltCoeffs) -> tuple[bool, bool, bool]:
    """(extension is reduced, rad w = 0, w values span B*), independently."""
    q = tstar_extend(w)
    return (q.alg.is_reduced(),
            radical(w).dim == 0,
            value_span(w).dim == w.n)


def find_lagrangian_ideal(q: QuadraticStructure) -> Subspace | None:
    """A lagrangian ideal when one is apparent; None otherwise.

    Reduced 2-step algebras always have one: the derived subalgebra. For
    abelian algebras a greedy isotropic search over small integer vectors is
    attempted; rationality may make it fail, which returns None.
    """
    dim = q.dim
    if dim % 2:
        return None
    n = dim // 2
    alg = q.alg
    if not alg.is_lie():
        return None
    if alg.terms:
        if alg.nilindex() == 2 and alg.is_reduced():
            d = alg.derived()
            if is_lagrangian(q, d):
                return d
        return None
    cands = [tuple(Fraction(1) if t == s else ZERO for t in range(dim))
             for s in range(dim)]
    for s in range(dim):
        for t in range(s + 1, dim):
            for sg in (1, -1):
                cands.append(tuple(
                    Fraction(1) if u == s else (Fraction(sg) if u == t else ZERO)
                    for u in range(dim)))
    cur = Subspace.zero(dim)
    picked: list[tuple[Fraction, ...]] = []
    for v in cands:
        if cur.dim == n:
            break
        if q.phi(v, v):
            continue
        if any(q.phi(v, u) for u in picked):
            continue
        grown = cur.sum(Subspace.from_rows(dim, [v]))
        if grown.dim > cur.dim:
            picked.append(v)
            cur = grown
    return cur if cur.dim == n else None


def decompose_as_tstar(q: QuadraticStructure, ideal: Subspace
                       ) -> tuple[LieAlgebra, GeneralCocycle, Mat]:
    """Recover (B, w) and an isometric isomorphism from a lagrangian ideal.

    B is the quotient by the ideal, realized on a deterministic isotropic
    complement L; w reads off the bracket components falling back into the
    ideal. The returned matrix maps q onto tstar_extend(w) and is verified
    bracket- and form-preserving before returning.
    """
    dim = q.dim
    if dim % 2:
        raise ValidationError("dimension is odd", law="even-dim")
    n = dim // 2
    if not is_lagrangian(q, ideal):
        raise ValidationError("subspace is not lagrangian", law="lagrangian")
    ibasis = ideal.basis.data
    for a, u in enumerate(ibasis):
        for v in ibasis[a + 1:]:
            if not is_zero_vec(q.alg.bracket(u, v)):
                raise ValidationError("ideal is not abelian", law="abelian")
    for s in range(1, dim + 1):
        for u in ibasis:
            if not ideal.contains_vec(q.alg.bracket_basis_vec(s, u)):
                raise ValidationError("subspace is not an ideal", law="ideal")
    L = lagrangian_complement(q, ideal)
    lrows = L.basis.data
    coords = inverse(vstack(L.basis, ideal.basis).transpose())
    brackets = {}
    wvals = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            br = q.alg.bracket(lrows[a - 1], lrows[b - 1])
            lam = coords.matvec(br)[:n]
            if any(lam):
                brackets[(a, b)] = lam
            wv = tuple(q.phi(br, lc) for lc in lrows)
            if any(wv):
                wvals[(a, b)] = wv
    B = LieAlgebra(n, brackets)
    w = GeneralCocycle(B, wvals)
    lam_rows = coords.data[:n]
    mu_rows = (L.basis * q.form).data
    iso = Mat.from_rows(list(lam_rows) + list(mu_rows), cols=dim)
    ok, why = is_isometry(q, tstar_extend(w), iso)
    if not ok:
        raise ValidationError(f"recovered map failed verification: {why}")
    return B, w, iso


def inflation(base: LieAlgebra, base_form: Mat) -> QuadraticStructure:
    """T*_0(base) carrying the hyperbolic form enlarged by a form on base.

    base_form must be symmetric and invariant for base; the result's form is
    beta(b') + beta'(b) + base_form(b, b').
    """
    n = base.dim
    split = tstar_extend(GeneralCocycle(base, {}))
    f = [list(r) for r in hyperbolic_form(n).data]
    for i in range(n):
        for j in range(n):
            f[i][j] += base_form.data[i][j]
    return QuadraticStructure(split.alg, Mat(f))

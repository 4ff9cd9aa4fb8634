"""T*-extensions: B + B* with a cocycle-twisted bracket and hyperbolic form.

Two cocycle containers: CocycleCoeffs (alternating coefficients over an
abelian base, the AltCoeffs class itself) and GeneralCocycle (arbitrary
Lie base, the nonzero entries of w(e_i, e_j) per basis pair, stored like
LieAlgebra.terms). Coefficient input converts once, through
GeneralCocycle.from_coeffs, and one sparse builder makes the bracket of
every extension; the cocycle law is checked as its Jacobi law.
"""
from __future__ import annotations

from typing import Mapping, Sequence

from .algebra import LieAlgebra, abelian
from .alternating import AltCoeffs
from .errors import ValidationError
from .forms import (QuadraticStructure, hyperbolic_form, is_isometry,
                    lagrangian_complement)
from .linalg import (Fraction, Mat, ONE, Subspace, ZERO, inverse, vec,
                     vstack)


# Cyclic 2-cocycle data on the abelian algebra of dimension n: the role name
# of AltCoeffs, not a class of its own.
CocycleCoeffs = AltCoeffs


class GeneralCocycle:
    """Skew bilinear w: B x B -> B*, stored like LieAlgebra.terms: keys
    (i, j) with 1 <= i < j <= n, each value the nonzero (k, c) of
    w(e_i, e_j) with k 0-based and ascending. An absent key is zero."""

    __slots__ = ("base", "terms")

    def __init__(self, base: LieAlgebra,
                 values: Mapping[tuple[int, int], Sequence]):
        n = base.dim
        terms: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        for (i, j), v in values.items():
            if not (1 <= i < j <= n):
                raise ValidationError(f"bad pair {(i, j)}; need 1 <= i < j <= {n}")
            v = vec(v)
            if len(v) != n:
                raise ValidationError(f"covector at {(i, j)} must have length {n}")
            nz = tuple((k, c) for k, c in enumerate(v) if c)
            if nz:
                terms[(i, j)] = nz
        self.base, self.terms = base, terms

    @classmethod
    def _of(cls, base: LieAlgebra, terms: dict) -> "GeneralCocycle":
        """Trusted constructor: terms already in the stored format."""
        w = object.__new__(cls)
        w.base, w.terms = base, terms
        return w

    @classmethod
    def from_coeffs(cls, c: AltCoeffs) -> "GeneralCocycle":
        """w(e_i,e_j)(e_k) = c_ijk over the abelian base: c's pair terms."""
        return cls._of(abelian(c.n), c.pair_terms())

    @property
    def values(self) -> dict[tuple[int, int], tuple[Fraction, ...]]:
        """The dense view: w(e_i, e_j) as a dim-length tuple per stored key."""
        return {key: self.base._dense(nz) for key, nz in self.terms.items()}

    def value_pair(self, i: int, j: int) -> tuple[Fraction, ...]:
        """w(e_i, e_j) with sign resolution; zero covector on i == j."""
        n = self.base.dim
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"basis label out of range: ({i},{j})")
        if i > j:
            return tuple(-e for e in self.value_pair(j, i))
        return self.base._dense(self.terms.get((i, j), ()))

    def value(self, i: int, j: int, k: int) -> Fraction:
        if not 1 <= k <= self.base.dim:
            raise ValueError(f"basis label out of range: ({i},{j},{k})")
        return self.value_pair(i, j)[k - 1]

    def is_zero(self) -> bool:
        return not self.terms


def _general(w: GeneralCocycle | AltCoeffs) -> GeneralCocycle:
    return GeneralCocycle.from_coeffs(w) if isinstance(w, AltCoeffs) else w


def _tstar_algebra(w: GeneralCocycle, aq: QuadraticStructure | None = None,
                   phi: Sequence[Mat] = (), jacobi: list | None = None
                   ) -> LieAlgebra:
    """The bracket on B + A + B*, read from the stored brackets of B and A,
    the stored values of w and the nonzero entries of each phi_k in Der(A);
    jacobi goes to LieAlgebra._of.

    Labels: 1..m the base, then A's basis, then e_k* (A = 0 when aq is
    None). [e_i, e_j] = [e_i, e_j]_B + w(e_i, e_j); [e_i, e_k*] =
    ad*(e_i)(e_k*) has component -[e_i, e_l]_k at e_l*; [e_k, a] =
    phi_k(a); [a, a'] = [a, a']_A + sum_k phi(phi_k a, a') e_k*. A double
    extension is the case w = 0, and a T*-extension the case A = 0.
    """
    m = w.base.dim
    star = m + (aq.dim if aq is not None else 0)  # e_k* has label star + k
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}

    def row(i, j):
        return rows.setdefault((i, j), {})
    for (i, j), v in w.base.terms.items():
        base = row(i, j)
        for k, c in v:
            base[k] = c
            # [e_i, e_j] has c at e_{k+1}, and [e_j, e_i] has -c
            row(i, star + k + 1)[star + j - 1] = -c
            row(j, star + k + 1)[star + i - 1] = c
    for pair, nz in w.terms.items():
        row(*pair).update((star + k, c) for k, c in nz)
    if aq is not None:
        for (i, j), v in aq.alg.terms.items():
            a = row(m + i, m + j)
            for r, c in v:
                a[m + r] = c
        form = aq.form.sparse_rows
        for k, mat in enumerate(phi, start=1):
            beta: dict[tuple[int, int], Fraction] = {}
            for r, mrow in enumerate(mat.sparse_rows):
                for s, c in mrow.items():
                    # phi_k a_s has c at a_r, so phi(phi_k a_s, a_j)
                    # gains c phi(a_r, a_j)
                    row(k, m + s + 1)[m + r] = c
                    for j, f in form[r].items():
                        if s < j:
                            beta[(s, j)] = beta.get((s, j), ZERO) + c * f
            for (s, j), x in beta.items():
                if x:
                    row(m + s + 1, m + j + 1)[star + k - 1] = x
    # every entry written is nonzero, and no entry is written twice
    return LieAlgebra._of(star + m, {key: tuple(sorted(r.items()))
                                     for key, r in rows.items()}, jacobi)


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
    for (i, j), nz in w.terms.items():
        for k, c in nz:
            t[(i, j, k + 1)] = c
            t[(j, i, k + 1)] = -c
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
    if isinstance(w, AltCoeffs):
        # alternating coefficients over an abelian base are a cocycle, and
        # [B, B] lies in B*, which is central: every double bracket
        # vanishes, so Jacobi holds. A converted cocycle dies here
        alg = _tstar_algebra(GeneralCocycle.from_coeffs(w), jacobi=[])
    else:
        alg = _tstar_algebra(w)
        bad = _cocycle_defect(w, alg)  # leaves alg's Jacobi pass done
        if bad:
            raise ValidationError(f"2-cocycle identity fails at triple "
                                  f"{bad[0]}", law="cocycle", witness=bad[0])
    # Bordemann 1997: the T*-extension of a cyclic 2-cocycle is invariant
    # under the hyperbolic form, which is nondegenerate by construction
    return QuadraticStructure._of(alg, hyperbolic_form(alg.dim // 2))


def radical(w: GeneralCocycle | AltCoeffs) -> Subspace:
    """{b in B : w(b, -) = 0}: the centre of the bracket w on B, which for
    alternating coefficients is their kernel."""
    if isinstance(w, AltCoeffs):
        return w.kernel_subspace()
    return LieAlgebra._of(w.base.dim, w.terms).centre()


def value_span(w: GeneralCocycle | AltCoeffs) -> Subspace:
    """span{w(b, b')} inside B* coordinates."""
    g = _general(w)
    return Subspace._of(g.base.dim, [dict(nz) for nz in g.terms.values()])


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
        # D^perp = Z in every quadratic Lie algebra; two-step gives D <= Z
        # and reduced Z <= D, so D = Z = D^perp is lagrangian
        if alg.nilindex() == 2 and alg.is_reduced():
            return alg.derived()
        return None
    # e_s, then e_s + e_t and e_s - e_t for s < t
    cands = [{s: ONE} for s in range(dim)]
    cands += [{s: ONE, t: Fraction(sg)} for s in range(dim)
              for t in range(s + 1, dim) for sg in (1, -1)]
    cur = Subspace.zero(dim)
    picked: list[tuple[Fraction, ...]] = []
    for c in cands:
        if cur.dim == n:
            break
        v = tuple(c.get(u, ZERO) for u in range(dim))
        if q.phi(v, v) or any(q.phi(v, u) for u in picked):
            continue
        grown = cur.sum(Subspace._of(dim, [c]))
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
    L = lagrangian_complement(q, ideal)  # checks that ideal is lagrangian
    ibasis = ideal.basis.sparse_rows
    for a, u in enumerate(ibasis):
        for v in ibasis[a + 1:]:
            if q.alg._bracket(u, v):
                raise ValidationError("ideal is not abelian", law="abelian")
    if not ideal._holds(q.alg._bracket({s: ONE}, u)
                        for s in range(dim) for u in ibasis):
        raise ValidationError("subspace is not an ideal", law="ideal")
    lrows = L.basis.sparse_rows
    coords = inverse(vstack(L.basis, ideal.basis).transpose())
    # rows: the coordinates along L, then the pairings phi(l_c, .)
    iso = Mat._of(coords.sparse_rows[:n] + (L.basis * q.form).sparse_rows,
                  dim)
    iso_t = iso.transpose()
    brackets = {}
    wterms = {}
    for a in range(n):
        for b in range(a + 1, n):
            v = iso_t._vecmat(q.alg._bracket(lrows[a], lrows[b]).items())
            lam = tuple((k, c) for k, c in v.items() if k < n)
            if lam:
                brackets[(a + 1, b + 1)] = lam
            if len(lam) < len(v):
                wterms[(a + 1, b + 1)] = tuple((k - n, c) for k, c in v.items()
                                               if k >= n)
    B = LieAlgebra._of(n, brackets)
    w = GeneralCocycle._of(B, wterms)
    ok, why = is_isometry(q, tstar_extend(w), iso)
    if not ok:
        raise ValidationError(f"recovered map failed verification: {why}")
    return B, w, iso

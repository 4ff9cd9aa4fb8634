"""Double extensions: B + A + B* from skew derivations of a quadratic base.

Covers the general construction, the one-dimensional case (the general
construction by the one-dimensional abelian algebra) with its centre formula
and 2-step criterion, and telescoped chains of one-dimensional extensions
driven by an alternating coefficient family.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import LieAlgebra, abelian
from .alternating import AltCoeffs
from .errors import ValidationError
from .forms import QuadraticStructure, hyperbolic_form, permute_quadratic
from .linalg import Fraction, Mat, Subspace, ZERO, kernel, solve, zero_vec


def skew_defect(form: Mat, d: Mat) -> list[tuple[int, int]]:
    """Pairs (i,j) with phi(d e_i, e_j) + phi(e_i, d e_j) != 0.

    These are the nonzero entries of d^T F + F d, summed from the nonzero
    entries of F against the nonzero entries of the rows of d.
    """
    n = form.rows
    if not form.cols == d.rows == d.cols == n:
        raise ValueError(f"shape mismatch: form {form.rows}x{form.cols}, "
                         f"d {d.rows}x{d.cols}")
    d_rows = [[(j, c) for j, c in enumerate(r) if c] for r in d.data]
    acc: dict[tuple[int, int], Fraction] = {}
    for k, row in enumerate(form.data):
        for j, f in enumerate(row):
            if f:
                # F[k][j] pairs with row k of d in d^T F, row j of d in F d
                for i, c in d_rows[k]:
                    acc[(i, j)] = acc.get((i, j), ZERO) + c * f
                for m, c in d_rows[j]:
                    acc[(k, m)] = acc.get((k, m), ZERO) + f * c
    return [(i + 1, j + 1) for (i, j) in sorted(acc) if acc[(i, j)]]


def derivation_defect(alg: LieAlgebra, d: Mat) -> list[tuple[int, int]]:
    """Basis pairs where d([x,y]) != [d(x),y] + [x,d(y)]."""
    n = alg.dim
    cols = [d.col(j) for j in range(n)]
    bad = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lhs = d.matvec(alg.bracket_basis(i, j))
            rhs1 = alg.bracket_basis_vec(j, cols[i - 1])  # [e_j, d e_i]
            rhs2 = alg.bracket_basis_vec(i, cols[j - 1])  # [e_i, d e_j]
            if any(l + r1 - r2 for l, r1, r2 in zip(lhs, rhs1, rhs2)):
                bad.append((i, j))
    return bad


class SkewDerivation:
    """A form-skew derivation of a quadratic algebra, validated eagerly."""

    __slots__ = ("aq", "mat")

    def __init__(self, aq: QuadraticStructure, mat: Mat):
        if mat.rows != aq.dim or mat.cols != aq.dim:
            raise ValidationError("matrix shape does not match the algebra",
                                  law="shape")
        bad = skew_defect(aq.form, mat)
        if bad:
            raise ValidationError(f"not form-skew at pair {bad[0]}",
                                  law="skew", witness=bad[0])
        bad = derivation_defect(aq.alg, mat)
        if bad:
            raise ValidationError(f"derivation law fails at pair {bad[0]}",
                                  law="derivation", witness=bad[0])
        self.aq = aq
        self.mat = mat


def _deriv_mat(aq: QuadraticStructure | None, d) -> Mat:
    if isinstance(d, SkewDerivation):
        return d.mat
    if aq is not None:
        SkewDerivation(aq, d)  # validate
    elif not (d.rows == d.cols == 0):
        raise ValidationError("derivation of the zero algebra must be 0x0")
    return d


def double_extend(aq: QuadraticStructure | None, b: LieAlgebra,
                  phi: Sequence[Mat | SkewDerivation]) -> QuadraticStructure:
    """General double extension of aq by (b, phi); aq None means A = 0.

    Basis order: b's basis, then A's, then the duals of b's. phi lists the
    image of each b basis vector, every image a form-skew derivation, and
    phi must be a Lie homomorphism on b's basis pairs.
    """
    if not b.is_lie():
        raise ValidationError("extending algebra is not Lie", law="jacobi")
    m = b.dim
    if len(phi) != m:
        raise ValidationError(f"need {m} derivation images, got {len(phi)}")
    amn = aq.dim if aq is not None else 0
    mats = [_deriv_mat(aq, d) for d in phi]

    def phi_of(x: Sequence[Fraction]) -> Mat:
        out = Mat.zero(amn, amn)
        for c, mat in zip(x, mats):
            if c:
                out = out + mat.scale(c)
        return out

    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            lhs = phi_of(b.bracket_basis(i, j))
            rhs = mats[i - 1] * mats[j - 1] - mats[j - 1] * mats[i - 1]
            if lhs != rhs:
                raise ValidationError(
                    f"phi is not a homomorphism at pair {(i, j)}",
                    law="homomorphism", witness=(i, j))

    dim = 2 * m + amn
    star = m + amn  # e_k* of b has label star + k
    brackets: dict[tuple[int, int], list[Fraction]] = {}

    def row(i: int, j: int) -> list[Fraction]:
        return brackets.setdefault((i, j), [ZERO] * dim)
    for (i, j), v in b.brackets.items():
        row(i, j)[:m] = v
        for k, c in enumerate(v, start=1):
            if c:
                # [e_i, e_k*] = ad*(e_i)(e_k*) has -[e_i, e_j]_k at e_j*
                row(i, star + k)[star + j - 1] = -c
                row(j, star + k)[star + i - 1] = c
    for i, mat in enumerate(mats, start=1):
        for j in range(amn):
            img = mat.col(j)
            if any(img):
                row(i, m + 1 + j)[m:star] = img
    if aq is not None:
        fa = aq.form
        for i in range(1, amn + 1):
            # phi(phi_k e_i, e_j) for every k and j
            fphi = [fa.matvec(mat.col(i - 1)) for mat in mats]
            for j in range(i + 1, amn + 1):
                apart = aq.alg.bracket_basis(i, j)
                beta = [f[j - 1] for f in fphi]
                if any(apart) or any(beta):
                    r = row(m + i, m + j)
                    r[m:star] = apart
                    r[star:] = beta

    form = [[ZERO] * dim for _ in range(dim)]
    for i in range(m):
        form[i][star + i] = Fraction(1)
        form[star + i][i] = Fraction(1)
    if aq is not None:
        for i in range(amn):
            for j in range(amn):
                form[m + i][m + j] = aq.form.data[i][j]
    return QuadraticStructure(LieAlgebra(dim, brackets), Mat(form))


def double_extend_1d(aq: QuadraticStructure | None,
                     d: Mat | SkewDerivation) -> QuadraticStructure:
    """One-dimensional double extension; aq None extends the zero algebra.

    Basis order: the new generator b, then A's basis, then the dual beta.
    """
    return double_extend(aq, abelian(1), [d])


def inner_preimage(aq: QuadraticStructure | None, d) -> tuple | None:
    """x with d = ad(x), or None when d is outer. Free components are 0."""
    d = _deriv_mat(aq, d)
    if aq is None:
        return ()
    n = aq.dim
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for j in range(1, n + 1):
        # [x, e_j] = d(e_j), linear in x
        cols = [aq.alg.bracket_basis(i, j) for i in range(1, n + 1)]
        img = d.col(j - 1)
        for t in range(n):
            rows.append([cols[i][t] for i in range(n)])
            rhs.append(img[t])
    return solve(Mat.from_rows(rows, cols=n), tuple(rhs))


def centre_formula_1d(aq: QuadraticStructure | None, d) -> Subspace:
    """Closed-form centre of the one-dimensional double extension.

    (Z(A) intersect ker d) + the dual line, plus the line through b - x
    exactly when d = ad(x) is inner.
    """
    dmat = _deriv_mat(aq, d)
    amn = aq.dim if aq is not None else 0
    dim = amn + 2
    rows = []
    if aq is not None:
        core = aq.alg.centre().intersect(kernel(dmat))
        for r in core.basis.data:
            rows.append((ZERO,) + tuple(r) + (ZERO,))
    rows.append(zero_vec(dim - 1) + (Fraction(1),))
    x = inner_preimage(aq, dmat)
    if x is not None:
        rows.append((Fraction(1),) + tuple(-c for c in x) + (ZERO,))
    return Subspace.from_rows(dim, rows)


def two_step_criterion(aq: QuadraticStructure | None, d) -> bool:
    """0 != im(d) + A^2 contained in Z(A) intersect ker(d)."""
    dmat = _deriv_mat(aq, d)
    if aq is None:
        return False
    n = aq.dim
    image = Subspace.from_rows(n, [dmat.col(j) for j in range(n)])
    s = image.sum(aq.alg.derived())
    if s.dim == 0:
        return False
    t = aq.alg.centre().intersect(kernel(dmat))
    return t.contains(s)


@dataclass(frozen=True)
class ExtensionChain:
    """Derivations d_0..d_{n-1}; d_k acts on the 2k-dimensional link k."""
    n: int
    derivs: tuple[Mat, ...]

    def __post_init__(self):
        if len(self.derivs) != self.n:
            raise ValidationError(f"need {self.n} derivations, got "
                                  f"{len(self.derivs)}")
        for k, m in enumerate(self.derivs):
            if m.rows != 2 * k or m.cols != 2 * k:
                raise ValidationError(f"derivation {k} must be {2*k}x{2*k}")

    @property
    def nnp(self) -> bool:
        return any(not m.is_zero() for m in self.derivs)

    @property
    def two_sp(self) -> bool:
        """im d_k inside the dual half and the dual half inside ker d_k."""
        for k, m in enumerate(self.derivs):
            if k == 0:
                continue
            for r in range(k):
                if any(m.data[r]):
                    return False
            for r in range(2 * k):
                if any(m.data[r][k:]):
                    return False
        return True


def build_chain(c: AltCoeffs) -> ExtensionChain:
    """The chain whose link k extends by d_k(e_j) = sum_l c(k+1,j,l) e_l*."""
    n = c.n
    if n < 3:
        raise ValidationError("need dimension at least 3", law="dimension")
    derivs = []
    for k in range(n):
        m = [[ZERO] * (2 * k) for _ in range(2 * k)]
        for j in range(1, k + 1):
            for ell in range(1, k + 1):
                v = c.value(k + 1, j, ell)
                if v:
                    m[k + ell - 1][j - 1] = v
        mat = Mat.from_rows(m, cols=2 * k)
        bad = skew_defect(hyperbolic_form(k), mat)
        if bad:
            raise ValidationError(f"link {k} not skew at {bad[0]}",
                                  law="skew", witness=bad[0])
        derivs.append(mat)
    return ExtensionChain(n, tuple(derivs))


def chain_dcoeffs(ch: ExtensionChain) -> AltCoeffs:
    """Structure coefficients read off the chain: the dual-j component of
    d_{k-1}(e_i) for i<j<k, extended alternating."""
    vals = {}
    for k in range(3, ch.n + 1):
        d = ch.derivs[k - 1]
        for i in range(1, k):
            for j in range(i + 1, k):
                v = d.data[(k - 1) + j - 1][i - 1]
                if v:
                    vals[(i, j, k)] = v
    return AltCoeffs(ch.n, vals)


def validate_chain(ch: ExtensionChain) -> list[str]:
    """Structural problems: shape laws hold by construction; checks the
    two-step property and that every link map is a skew derivation of the
    algebra folded so far."""
    problems = []
    if not ch.two_sp:
        problems.append("two-step property fails")
    cur: QuadraticStructure | None = None
    for k, d in enumerate(ch.derivs):
        try:
            _deriv_mat(cur, d)
        except ValidationError as e:
            problems.append(f"link {k}: {e}")
            break
        if k + 1 < ch.n:
            cur = permute_quadratic(double_extend_1d(cur, d),
                                    _canonical_relabel(k + 1))
    return problems


def _canonical_relabel(k: int) -> tuple[int, ...]:
    """Relabelling that puts a fresh extension (b, old basis, beta) into the
    canonical order e_1..e_k, e_1*..e_k*."""
    return tuple(list(range(2, k + 1)) + [1] + list(range(k + 1, 2 * k + 1)))


def chain_display_permutation(k: int) -> tuple[int, ...]:
    """Presentation order: newest generator first, duals ascending last."""
    return tuple(list(range(k, 0, -1)) + list(range(k + 1, 2 * k + 1)))


def fold_chain(ch: ExtensionChain) -> QuadraticStructure:
    """Iterate the one-dimensional extension over the links, relabelling to
    the canonical order after each step."""
    cur: QuadraticStructure | None = None
    for k, d in enumerate(ch.derivs):
        cur = permute_quadratic(double_extend_1d(cur, d),
                                _canonical_relabel(k + 1))
    assert cur is not None
    return cur


def chain_to_algebra(ch: ExtensionChain) -> QuadraticStructure:
    """Closed-form result of the whole chain: [e_i, e_j] = sum D_ijk e_k*.

    Requires the chain to be nonzero with the two-step property; every link
    must be skew for the hyperbolic pairing.
    """
    if not ch.nnp:
        raise ValidationError("all chain derivations are zero", law="nnp")
    if not ch.two_sp:
        raise ValidationError("two-step property fails", law="2sp")
    for k, d in enumerate(ch.derivs):
        bad = skew_defect(hyperbolic_form(k), d)
        if bad:
            raise ValidationError(f"link {k} not skew at {bad[0]}",
                                  law="skew", witness=bad[0])
    n = ch.n
    dco = chain_dcoeffs(ch)
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            star = [dco.value(i, j, k) for k in range(1, n + 1)]
            if any(star):
                brackets[(i, j)] = zero_vec(n) + tuple(star)
    return QuadraticStructure(LieAlgebra(2 * n, brackets), hyperbolic_form(n))


def chain_reduced_check(ch: ExtensionChain) -> bool:
    """True iff the bracket values span the whole dual half."""
    n = ch.n
    dco = chain_dcoeffs(ch)
    rows = [[dco.value(i, j, k) for k in range(1, n + 1)]
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return Subspace.from_rows(n, rows).dim == n


def derivation_space(aq: QuadraticStructure) -> Subspace:
    """All form-skew derivations, as row-major vectorized matrices."""
    n = aq.dim
    nn = n * n
    rows = []
    f = aq.form.data
    for i in range(n):
        for j in range(n):
            row = [ZERO] * nn
            for r in range(n):
                if f[r][j]:
                    row[r * n + i] += f[r][j]
            for c in range(n):
                if f[i][c]:
                    row[c * n + j] += f[i][c]
            rows.append(row)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            br = aq.alg.bracket_basis(i, j)
            for t in range(n):
                row = [ZERO] * nn
                for s in range(n):
                    if br[s]:
                        row[t * n + s] += br[s]
                for s in range(1, n + 1):
                    c1 = aq.alg.bracket_basis(s, j)[t]
                    if c1:
                        row[(s - 1) * n + (i - 1)] -= c1
                    c2 = aq.alg.bracket_basis(i, s)[t]
                    if c2:
                        row[(s - 1) * n + (j - 1)] -= c2
                rows.append(row)
    return kernel(Mat.from_rows(rows, cols=nn))

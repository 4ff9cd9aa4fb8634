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
from .linalg import (Fraction, Mat, ONE, Subspace, ZERO, kernel, solve,
                     zero_vec)
from .tstar import GeneralCocycle, _tstar_algebra


def _entries(d: Mat) -> list[tuple[int, int, Fraction]]:
    """The nonzero entries (r, s, d[r][s]) of d, 0-based."""
    return [(r, s, c) for r, row in enumerate(d.data)
            for s, c in enumerate(row) if c]


def _skew_map(form: Mat):
    """The map d -> d^T F + F d as image(nonzero entries of d) ->
    {(i, j): value}, 0-based: an entry d[r][s] = c meets row r of F in
    d^T F and column r of F in F d."""
    rows = [[(j, f) for j, f in enumerate(r) if f] for r in form.data]
    cols = [[(i, f) for i, f in enumerate(c) if f] for c in zip(*form.data)]

    def image(entries) -> dict[tuple[int, int], Fraction]:
        acc: dict[tuple[int, int], Fraction] = {}
        for r, s, c in entries:
            for j, f in rows[r]:
                acc[(s, j)] = acc.get((s, j), ZERO) + c * f
            for i, f in cols[r]:
                acc[(i, s)] = acc.get((i, s), ZERO) + f * c
        return acc
    return image


def _derivation_map(alg: LieAlgebra):
    """The map d -> D(i, j) = d[e_i,e_j] - [d e_i, e_j] - [e_i, d e_j], i < j,
    as image(nonzero entries of d) -> {(i, j, t): D(i, j)_t}, 0-based.

    Only stored brackets are read. An entry d[r][s] = c adds c v_s e_r to
    D(a, b) for each stored [e_a, e_b] = v, and -c [e_r, e_y] to D(s, y)
    for each y; D(y, s) counts as -D(s, y), and D(s, s) is dropped.
    """
    by_comp: dict[int, list] = {}  # s -> (a, b, v_s) with v_s != 0
    for (a, b), v in alg.terms.items():
        for s, x in v:
            by_comp.setdefault(s, []).append((a - 1, b - 1, x))
    ad = alg._ad_index()

    def image(entries) -> dict[tuple[int, int, int], Fraction]:
        acc: dict[tuple[int, int, int], Fraction] = {}
        for r, s, c in entries:
            for a, b, x in by_comp.get(s, ()):
                key = (a, b, r)
                acc[key] = acc.get(key, ZERO) + c * x
            for y, nz in ad[r]:
                if y != s:
                    # -c [e_r, e_y] at (s, y) is c [e_r, e_y] at (y, s)
                    i, j, f = (s, y, -c) if s < y else (y, s, c)
                    for t, x in nz:
                        key = (i, j, t)
                        acc[key] = acc.get(key, ZERO) + f * x
        return acc
    return image


def skew_defect(form: Mat, d: Mat) -> list[tuple[int, int]]:
    """Pairs (i,j) with phi(d e_i, e_j) + phi(e_i, d e_j) != 0: the nonzero
    entries of d^T F + F d."""
    if not form.rows == form.cols == d.rows == d.cols:
        raise ValueError(f"shape mismatch: form {form.rows}x{form.cols}, "
                         f"d {d.rows}x{d.cols}")
    acc = _skew_map(form)(_entries(d))
    return [(i + 1, j + 1) for (i, j) in sorted(acc) if acc[(i, j)]]


def derivation_defect(alg: LieAlgebra, d: Mat) -> list[tuple[int, int]]:
    """Basis pairs where d([x,y]) != [d(x),y] + [x,d(y)]."""
    if not d.rows == d.cols == alg.dim:
        raise ValueError(f"shape mismatch: algebra dim {alg.dim}, "
                         f"d {d.rows}x{d.cols}")
    acc = _derivation_map(alg)(_entries(d))
    return sorted({(i + 1, j + 1) for (i, j, _), x in acc.items() if x})


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
    phi must be a Lie homomorphism on b's basis pairs. The bracket is the
    T*-builder's with w = 0.
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
    form = [[ZERO] * dim for _ in range(dim)]
    for i in range(m):
        form[i][m + amn + i] = form[m + amn + i][i] = ONE
    if aq is not None:
        for i, r in enumerate(aq.form.data):
            form[m + i][m:m + amn] = r
    alg = _tstar_algebra(GeneralCocycle(b, {}), aq, mats)
    return QuadraticStructure(alg, Mat._of(form, dim))


def double_extend_1d(aq: QuadraticStructure | None,
                     d: Mat | SkewDerivation) -> QuadraticStructure:
    """One-dimensional double extension; aq None extends the zero algebra.

    Basis order: the new generator b, then A's basis, then the dual beta.
    """
    return double_extend(aq, abelian(1), [d])


def inner_preimage(aq: QuadraticStructure | None, d) -> tuple | None:
    """x with d = ad(x), or None when d is outer. Free components are 0.

    x solves the centre's rows (s, r) -> {i: [e_i, e_s]_r} against d[r][s],
    and none does when an absent row meets a nonzero entry of d.
    """
    d = _deriv_mat(aq, d)
    if aq is None:
        return ()
    rows = aq.alg._centraliser_rows({r: ((r, ONE),) for r in range(aq.dim)})
    if any((s + 1, r) not in rows for r, s, _ in _entries(d)):
        return None
    return solve(Mat._of(rows.values(), aq.dim),
                 tuple(d.data[r][s - 1] for s, r in rows))


def centre_formula_1d(aq: QuadraticStructure | None, d) -> Subspace:
    """Closed-form centre of the one-dimensional double extension.

    (Z(A) intersect ker d) + the dual line, plus the line through b - x
    exactly when d = ad(x) is inner.
    """
    if aq is not None and isinstance(d, Mat):
        d = SkewDerivation(aq, d)  # validated once, here
    dmat = _deriv_mat(aq, d)
    amn = aq.dim if aq is not None else 0
    dim = amn + 2
    rows = []
    if aq is not None:
        core = aq.alg.centre().intersect(kernel(dmat))
        for r in core.basis.data:
            rows.append((ZERO,) + tuple(r) + (ZERO,))
    rows.append(zero_vec(dim - 1) + (Fraction(1),))
    x = inner_preimage(aq, d)
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
    """All form-skew derivations, as row-major vectorized matrices: the
    kernel of both law maps, whose column (r, s) is the image of E_rs.

    The skew rows come first, then the derivation rows, each block sorted;
    the kernel is canonical, but this order eliminates fastest. Rows with
    i > j go: skew row (j, i) repeats (i, j), and derivation keys have i < j.
    """
    n = aq.dim
    nn = n * n
    maps = (_skew_map(aq.form), _derivation_map(aq.alg))
    blocks: tuple[dict, dict] = ({}, {})
    for r in range(n):
        for s in range(n):
            for image, rows in zip(maps, blocks):
                for key, x in image(((r, s, ONE),)).items():
                    if x and key[0] <= key[1]:
                        rows.setdefault(key, [ZERO] * nn)[r * n + s] = x
    return kernel(Mat._of([rows[k] for rows in blocks for k in sorted(rows)],
                          nn))

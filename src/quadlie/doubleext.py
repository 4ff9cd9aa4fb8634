"""Double extensions: B + A + B* from skew derivations of a quadratic base.

Covers the general construction, the one-dimensional case (the general
construction by the one-dimensional abelian algebra) with its centre formula
and 2-step criterion, and telescoped chains of one-dimensional extensions
driven by an alternating coefficient family.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .algebra import LieAlgebra, abelian
from .alternating import AltCoeffs
from .errors import ValidationError
from .forms import QuadraticStructure, permute_quadratic
from .linalg import (Fraction, Mat, ONE, Subspace, _isum, _kernel_rows,
                     _skew_pairs, _span_rows, inverse)
from .tstar import GeneralCocycle, _tstar_algebra, tstar_extend, value_span


def _entries(d: Mat) -> list[tuple[int, int, Fraction]]:
    """The nonzero entries (r, s, d[r][s]) of d, 0-based."""
    return [(r, s, c) for r, row in enumerate(d.sparse_rows)
            for s, c in row.items()]


def _derivation_map(alg: LieAlgebra, entries) -> Iterator[tuple]:
    """D(i, j) = d[e_i,e_j] - [d e_i, e_j] - [e_i, d e_j], i < j, for the
    d with these nonzero entries (r, s, d[r][s]), as the _isum terms
    ((i, j, t), numerator, denominator) of D(i, j)_t, 0-based.

    Only stored brackets are read. An entry d[r][s] = c adds c v_s e_r to
    D(a, b) for each stored [e_a, e_b] = v, and -c [e_r, e_y] to D(s, y)
    for each y; D(y, s) counts as -D(s, y), and D(s, s) is dropped.
    """
    by_comp: dict[int, list] = {}  # s -> (a, b, v_s) with v_s != 0
    for (a, b), v in alg.terms.items():
        for s, x in v:
            by_comp.setdefault(s, []).append((a - 1, b - 1, x))
    ad = alg._ad_index()
    for r, s, c in entries:
        f, g = c.numerator, c.denominator
        for a, b, x in by_comp.get(s, ()):
            yield (a, b, r), f * x.numerator, g * x.denominator
        for y, sign, nz in ad[r]:
            if y != s:
                # -c [e_r, e_y] = -c sign nz at (s, y) is c sign nz at (y, s)
                i, j, h = (s, y, -sign * f) if s < y else (y, s, sign * f)
                for t, x in nz:
                    yield (i, j, t), h * x.numerator, g * x.denominator


def skew_defect(form: Mat, d: Mat) -> list[tuple[int, int]]:
    """Pairs (i,j) with phi(d e_i, e_j) + phi(e_i, d e_j) != 0, for a
    symmetric form F: the sum is S(j,i) + S(i,j) for S = F d, so these are
    the _skew_pairs of S."""
    if not form.rows == form.cols == d.rows == d.cols:
        raise ValueError(f"shape mismatch: form {form.rows}x{form.cols}, "
                         f"d {d.rows}x{d.cols}")
    if not form.is_symmetric():
        raise ValidationError("form is not symmetric", law="symmetric")
    rows = form.sparse_rows  # also F's columns
    s: list[dict[int, Fraction]] = [{} for _ in rows]
    for r, j, c in _entries(d):
        for i, f in rows[r].items():
            x = c if f is ONE else f * c  # hyperbolic forms hold ONE
            s[i][j] = s[i][j] + x if j in s[i] else x
    return _skew_pairs(s)


def derivation_defect(alg: LieAlgebra, d: Mat) -> list[tuple[int, int]]:
    """Basis pairs where d([x,y]) != [d(x),y] + [x,d(y)]."""
    if not d.rows == d.cols == alg.dim:
        raise ValueError(f"shape mismatch: algebra dim {alg.dim}, "
                         f"d {d.rows}x{d.cols}")
    sums, _ = _isum(_derivation_map(alg, _entries(d)))
    return sorted({(i + 1, j + 1) for i, j, _ in sums})


def _deriv_mat(aq: QuadraticStructure | None, d: Mat) -> Mat:
    """d, checked for shape, skew and derivation laws against aq unless aq
    has accepted this object before; an equal copy is checked again. A
    matrix is remembered only once it passes, so a bad one fails with the
    same law and witness on every call."""
    if aq is None:
        if not (d.rows == d.cols == 0):
            raise ValidationError("derivation of the zero algebra must be 0x0")
        return d
    seen = aq._derivations
    if seen is None:
        seen = {}
        object.__setattr__(aq, "_derivations", seen)
    if id(d) in seen:
        return d
    if d.rows != aq.dim or d.cols != aq.dim:
        raise ValidationError("matrix shape does not match the algebra",
                              law="shape")
    bad = skew_defect(aq.form, d)
    if bad:
        raise ValidationError(f"not form-skew at pair {bad[0]}",
                              law="skew", witness=bad[0])
    bad = derivation_defect(aq.alg, d)
    if bad:
        raise ValidationError(f"derivation law fails at pair {bad[0]}",
                              law="derivation", witness=bad[0])
    seen[id(d)] = d
    return d


def double_extend(aq: QuadraticStructure | None, b: LieAlgebra,
                  phi: Sequence[Mat]) -> QuadraticStructure:
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

    def phi_of(nz) -> Mat:  # phi of the bracket with nonzero terms nz
        out = Mat.zero(amn, amn)
        for r, c in nz:
            out = out + mats[r].scale(c)
        return out

    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            lhs = phi_of(b.terms.get((i, j), ()))
            rhs = mats[i - 1] * mats[j - 1] - mats[j - 1] * mats[i - 1]
            if lhs != rhs:
                raise ValidationError(
                    f"phi is not a homomorphism at pair {(i, j)}",
                    law="homomorphism", witness=(i, j))

    # b pairs with its duals, and A keeps its form
    form = [{m + amn + i: ONE} for i in range(m)]
    if aq is not None:
        form += [{m + j: e for j, e in r.items()}
                 for r in aq.form.sparse_rows]
    form += [{i: ONE} for i in range(m)]
    # Medina-Revoy 1985: with b Lie and phi a homomorphism into the skew
    # derivations, the form is invariant and nondegenerate, and the
    # extension is Lie when A is; over a non-Lie A, nilindex still runs
    # the Jacobi pass and fails
    lie = aq is None or aq.alg.is_lie()
    alg = _tstar_algebra(GeneralCocycle(b, {}), aq, mats, [] if lie else None)
    return QuadraticStructure._of(alg, Mat._of(form, 2 * m + amn))


def double_extend_1d(aq: QuadraticStructure | None,
                     d: Mat) -> QuadraticStructure:
    """One-dimensional double extension; aq None extends the zero algebra.

    Basis order: the new generator b, then A's basis, then the dual beta.
    """
    return double_extend(aq, abelian(1), [d])


def inner_preimage(aq: QuadraticStructure | None, d) -> tuple | None:
    """x with d = ad(x), or None when d is outer. Free components are 0.
    d e_s = [x, e_s], which the algebra solves on its centre's rows."""
    d = _deriv_mat(aq, d)
    if aq is None:
        return ()
    return aq.alg._ad_preimage(d.sparse_rows)


def centre_formula_1d(aq: QuadraticStructure | None, d) -> Subspace:
    """Closed-form centre of the one-dimensional double extension.

    (Z(A) intersect ker d) + the dual line, plus the line through b - x
    exactly when d = ad(x) is inner. Z(A) intersect ker d is solved inside
    the cached centre: the combinations sum a_k z_k of its basis with
    sum a_k d(z_k) = 0, mapped on from the kernel's unreduced integer
    rows, since the one final span reduces them.
    """
    dmat = _deriv_mat(aq, d)
    dim = (aq.dim if aq is not None else 0) + 2
    rows = []
    if aq is not None:
        z = aq.alg.centre().basis
        # column k of d z^T is d(z_k); a scaled row has the same kernel
        dz = _span_rows(dmat.sparse_rows, z.transpose())
        core = _span_rows(_kernel_rows(Mat._of(dz, z.rows)), z)
        rows = [{j + 1: e for j, e in r.items()} for r in core]
    rows.append({dim - 1: ONE})
    x = inner_preimage(aq, dmat)
    if x is not None:
        rows.append({0: ONE, **{j + 1: -c for j, c in enumerate(x) if c}})
    return Subspace._of(dim, rows)


def two_step_criterion(aq: QuadraticStructure | None, d) -> bool:
    """0 != im(d) + A^2 contained in Z(A) intersect ker(d): s lies in
    Z(A) and d(s) = 0, so neither ker(d) nor the intersection is solved.
    A span lies in a subspace exactly when its generators do, so d's
    columns and A^2's basis are tested as they are, with no elimination:
    first d(s) = 0, which stops at the first generator d does not kill."""
    dmat = _deriv_mat(aq, d)
    if aq is None:
        return False
    dt = dmat.transpose()
    gens = dt.sparse_rows + aq.alg.derived().basis.sparse_rows
    if not any(gens):
        return False
    return not any(_span_rows(gens, dt)) and aq.alg.centre()._holds(gens)


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
        return not any(any(m.sparse_rows[:k])
                       or any(j >= k for r in m.sparse_rows for j in r)
                       for k, m in enumerate(self.derivs))


def _check_chain(ch: ExtensionChain) -> None:
    """A nonzero link, the two-step property, and link k skew for the
    hyperbolic form of dim 2k."""
    if not ch.nnp:
        raise ValidationError("all chain derivations are zero", law="nnp")
    if not ch.two_sp:
        raise ValidationError("two-step property fails", law="2sp")
    for k, d in enumerate(ch.derivs):
        # with two_sp, the hyperbolic F d is link k's rows k..2k-1 moved up,
        # so their _skew_pairs are skew_defect(hyperbolic_form(k), d)
        bad = _skew_pairs(d.sparse_rows[k:])
        if bad:
            raise ValidationError(f"link {k} not skew at {bad[0]}",
                                  law="skew", witness=bad[0])


def build_chain(c: AltCoeffs) -> ExtensionChain:
    """The chain whose link k extends by d_k(e_j) = sum_l c(k+1,j,l) e_l*.

    A trusted builder: c alternates, so link k maps e_1..e_k into the dual
    half, kills the dual half and is skew for the hyperbolic form. The dual
    half is then central and holds the derived algebra of the chain folded
    so far, so each link is a skew derivation of it (Medina-Revoy 1985),
    and the links are not checked here. Zero coefficients are refused as
    _check_chain refuses their all-zero chain, so every chain built here
    reads back.
    """
    n = c.n
    if n < 3:
        raise ValidationError("need dimension at least 3", law="dimension")
    if c.is_zero():
        raise ValidationError("all chain derivations are zero", law="nnp")
    # a term c(a,b,k+1) = v, a < b, lands only in link k, as c(k+1,a,b) = v
    # at d_k(e_a)'s dual-b entry and -v at d_k(e_b)'s dual-a entry. c.terms
    # is sorted, so a row's terms (a,l,k+1), a < l, then (l,b,k+1) fill it
    # in ascending columns a, then b
    links: list[list[dict[int, Fraction]]] = [[{} for _ in range(2 * k)]
                                              for k in range(n)]
    for (a, b, top), v in c.terms:
        k = top - 1
        links[k][k + b - 1][a - 1] = v
        links[k][k + a - 1][b - 1] = -v
    return ExtensionChain(n, tuple(Mat._of(m, 2 * k)
                                   for k, m in enumerate(links)))


def chain_dcoeffs(ch: ExtensionChain) -> AltCoeffs:
    """Structure coefficients read off the chain: the dual-j component of
    d_{k-1}(e_i) for i<j<k, extended alternating."""
    return AltCoeffs._of(ch.n, sorted(
        ((i + 1, j, k), v) for k in range(3, ch.n + 1)
        for j in range(2, k)
        for i, v in ch.derivs[k - 1].sparse_rows[(k - 1) + j - 1].items()
        if i < j - 1))


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


def chain_to_coeffs(ch: ExtensionChain) -> AltCoeffs:
    """The coefficients a chain carries, read once _check_chain passes."""
    _check_chain(ch)
    return chain_dcoeffs(ch)


def chain_to_algebra(ch: ExtensionChain) -> QuadraticStructure:
    """Closed-form result of the whole chain: [e_i, e_j] = sum D_ijk e_k*,
    the T*-extension of the coefficients the chain carries."""
    return tstar_extend(chain_to_coeffs(ch))


def chain_reduced_check(ch: ExtensionChain) -> bool:
    """True iff the bracket values span the whole dual half."""
    return value_span(chain_to_coeffs(ch)).dim == ch.n


def derivation_space(aq: QuadraticStructure) -> Subspace:
    """All form-skew derivations, as row-major vectorized matrices.

    d is a skew derivation exactly when s(u, v) = F(u, d v) is an
    alternating, closed 2-form: s([x,y],z) + s([y,z],x) + s([z,x],y) = 0,
    since F(D(x,y), z) is minus that sum for the derivation law's D and F
    is invariant and nondegenerate (Medina-Revoy 1985). So the law is
    solved on the n(n-1)/2 entries s_ab, a < b, of S = F d, one row per
    sorted triple, in one sum over the stored brackets: a term c e_r of
    [e_i, e_j] adds c s(r, z) to the row of {i, j, z}, negated when
    i < z < j. The kernel maps back to d = G S, G = F^-1: D_ab has column
    b equal to column a of G and column a minus column b of G. The RREF
    basis of the Subspace is canonical.
    """
    n = aq.dim
    # unknown[r][z] = (k, sign) with s(r, z) = sign s_k, r != z
    unknown: list[list[tuple[int, int]]] = [[(0, 0)] * n for _ in range(n)]
    first, second = [], []  # D_ab is row k of first minus row k of second
    g = inverse(aq.form).sparse_rows  # G is symmetric: row a is column a
    for a in range(n):
        for b in range(a + 1, n):
            unknown[a][b], unknown[b][a] = (len(first), 1), (len(first), -1)
            first.append({r * n + b: c for r, c in g[a].items()})
            second.append({r * n + a: c for r, c in g[b].items()})

    def terms():  # ((sorted triple, unknown), numerator, denominator)
        for (i, j), nz in aq.alg.terms.items():
            i, j = i - 1, j - 1
            for z in range(n):
                if z < i:
                    key, f = (z, i, j), 1
                elif z == i or z == j:
                    continue
                elif z < j:
                    key, f = (i, z, j), -1
                else:
                    key, f = (i, j, z), 1
                for r, c in nz:
                    if r != z:
                        k, sign = unknown[r][z]
                        yield ((key, k), f * sign * c.numerator,
                               c.denominator)
    # the law's integer sums share one denominator, which the kernel
    # does not read
    rows: dict[tuple[int, int, int], dict[int, int]] = {}
    for (key, k), x in _isum(terms())[0].items():
        rows.setdefault(key, {})[k] = x
    sol = _kernel_rows(Mat._of(rows.values(), len(first)))
    return Subspace._of(n * n, _span_rows(
        ({**x, **{k + len(first): -e for k, e in x.items()}} for x in sol),
        Mat._of(first + second, n * n)))

"""The four benchmark workloads: seeded inputs, timed calls, output checks.

Each builder takes a `random.Random` and a scratch directory and returns a
list of `Case`s. `Case.run` makes the library calls that are timed and
builds every object afresh, because users pay the per-instance caches on
each new algebra. `Case.check` runs outside the timed interval and returns
None when the output is right, else a one-line reason. Expected values come
from `oracle`, which does not import quadlie.

Library functions are always reached through their module (`convert.all_roads`
rather than a bound name), so the traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io as _io
import json
import os
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from quadlie import algebra, cli, convert, doubleext, forms, randgen
from quadlie import io as qio
from quadlie import tstar
from quadlie.catalog import CATALOG

import oracle

ENTRIES = tuple(Fraction(v) for v in (-3, -2, -1, 1, 2, 3))


class Case(NamedTuple):
    label: str
    dim: int
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def random_coeffs(rng, n: int, density: float) -> dict:
    """Alternating coefficients in -3..3 on round(density * C(n,3)) triples
    (at least one) chosen uniformly. A fixed count per size keeps the work
    per case steady from seed to seed."""
    triples = [(i, j, k) for i in range(1, n + 1)
               for j in range(i + 1, n + 1) for k in range(j + 1, n + 1)]
    count = max(1, round(density * len(triples)))
    return {t: rng.choice(ENTRIES) for t in sorted(rng.sample(triples, count))}


def full_rank_coeffs(rng, n: int) -> dict:
    while True:
        vals = random_coeffs(rng, n, 0.5)
        if oracle.derived_dim(n, vals) == n:
            return vals


def chain_coeffs(n: int) -> dict:
    """The sparse chain cocycle sum_i [i, i+1, i+2]."""
    return {(i, i + 1, i + 2): Fraction(1) for i in range(1, n - 1)}


def _cocycle(n: int, coeffs: dict):
    return tstar.CocycleCoeffs(n, coeffs)


def _in_process_cli(argv):
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _tstar_check(q, n: int, coeffs: dict):
    if q.alg.dim != 2 * n:
        return f"dimension {q.alg.dim} != {2 * n}"
    if q.alg.brackets != oracle.tstar_brackets(n, coeffs):
        return "structure constants differ from the coefficients"
    if not oracle.is_hyperbolic(q.form.data):
        return "form is not the hyperbolic pairing"
    return None


# ---- roads-corpus: the construction path ----

def _roads_case(n: int, coeffs: dict) -> Case:
    def run():
        rep = convert.all_roads(_cocycle(n, coeffs))
        text = qio.dumps(qio.quadratic_to_obj(rep.algebra))
        return rep, qio.algebra_from_obj(json.loads(text))

    def check(out):
        rep, (alg, form) = out
        if not rep.equal:
            return f"routes differ: {rep.mismatches}"
        if alg != rep.algebra.alg or form != rep.algebra.form:
            return "JSON round trip changed the algebra"
        return _tstar_check(rep.algebra, n, coeffs)

    return Case(f"roads n={n} terms={len(coeffs)}", 2 * n, run, check)


def roads_corpus(rng, workdir) -> list[Case]:
    return [_roads_case(n, random_coeffs(rng, n, density))
            for _ in range(5) for n in range(3, 10)
            for density in (0.25, 0.5, 1.0)]


# ---- catalog-verify: the query path through the CLI ----

def _algebra_file(n: int, brackets: dict) -> dict:
    return {
        "dim": 2 * n,
        "brackets": [{"i": i, "j": j, "v": [str(c) for c in v]}
                     for (i, j), v in sorted(brackets.items())],
        "form": [[str(c) for c in r] for r in oracle.hyperbolic(n)],
    }


def _corrupt(rng, n: int, brackets: dict) -> dict:
    """Perturb one e_k* coefficient of one bracket [e_i, e_j], i < j <= n.
    The result is still Lie (the dual half stays central) but the form is
    no longer invariant."""
    i, j = sorted(rng.sample(range(1, n + 1), 2))
    k = rng.randint(1, n)
    out = dict(brackets)
    v = list(out.get((i, j), (oracle.ZERO,) * (2 * n)))
    v[n + k - 1] += rng.choice(ENTRIES)
    if any(v):
        out[(i, j)] = tuple(v)
    else:
        out.pop((i, j), None)
    return out


def _verify_case(path: str, n: int, coeffs: dict, brackets: dict,
                 corrupted: bool) -> Case:
    def run():
        return _in_process_cli(["verify", path, "--format", "json"])

    def check(out):
        code, text = out
        rep = json.loads(text)
        if corrupted:
            want = oracle.invariance_defects(2 * n, brackets, 5)
            if code != 1 or rep.get("pass") is not False:
                return "corrupted file was not rejected"
            if (rep.get("lie"), rep.get("invariant"),
                    rep.get("nondegenerate")) != (True, False, True):
                return f"rejected for the wrong law: {rep}"
            if rep.get("invariance_defect") != want:
                return (f"invariance witnesses {rep.get('invariance_defect')}"
                        f" != {want}")
            return None
        r = oracle.derived_dim(n, coeffs)
        want = {"dim": 2 * n, "lie": True, "invariant": True,
                "nondegenerate": True, "nilindex": 2, "type": [r, 2 * n - r],
                "reduced": r == n, "derived_perp_equals_centre": True,
                "pass": True}
        if code != 0 or rep != want:
            return f"verify gave exit {code} and {rep}, want {want}"
        return None

    return Case(f"verify {os.path.basename(path)}", 2 * n, run, check)


def _decompose_case(path: str, n: int, brackets: dict) -> Case:
    def run():
        return _in_process_cli(["decompose", path, "--format", "json"])

    def check(out):
        code, text = out
        if code != 0:
            return f"decompose exited {code}"
        obj = json.loads(text)
        base = obj["base"]
        if base["dim"] != n or base["brackets"]:
            return "quotient is not the abelian n-dimensional base"
        pairs = {tuple(p["ij"]): tuple(Fraction(c) for c in p["v"])
                 for p in obj["cocycle"]["pairs"]}
        iso = [[Fraction(c) for c in r] for r in obj["isometry"]]
        if len(iso) != 2 * n or any(len(r) != 2 * n for r in iso):
            return "isometry has the wrong shape"
        if not oracle.is_isometry(n, brackets, pairs, iso):
            return "returned map is not an isometry onto the T*-extension"
        return None

    return Case(f"decompose {os.path.basename(path)}", 2 * n, run, check)


LAMBDAS = tuple(Fraction(v) for v in
                ("1", "2", "-1", "3", "1/2", "-1/2", "3/2", "-2/3", "5/4"))

# Seeded full-rank cocycles per base dimension, weighted to the cheaper
# sizes so that one pass stays near eight seconds with 100 cases.
SEEDED = {6: 10, 7: 4, 8: 2, 9: 1}


def catalog_verify(rng, workdir) -> list[Case]:
    sources = [(e.label, e.n, dict(e.trivector.terms)) for e in CATALOG]
    for lam in rng.sample(LAMBDAS, 2):
        sources.append((f"lambda{lam}".replace("/", "_"), 9, {
            (1, 2, 3): lam, (4, 5, 6): lam, (7, 8, 9): lam,
            (1, 4, 7): Fraction(1), (1, 5, 8): Fraction(1)}))
    for n, count in SEEDED.items():
        for s in range(count):
            sources.append((f"rand{n}-{s}", n, full_rank_coeffs(rng, n)))
    cases = []
    for idx, (label, n, coeffs) in enumerate(sources):
        brackets = oracle.tstar_brackets(n, coeffs)
        variants = [(False, brackets)]
        if idx % 2 == 1:
            variants.append((True, _corrupt(rng, n, brackets)))
        for corrupted, br in variants:
            name = f"{idx:03d}-{label}{'-bad' if corrupted else ''}.json"
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_algebra_file(n, br), fh)
            cases.append(_verify_case(path, n, coeffs, br, corrupted))
            if not corrupted:
                cases.append(_decompose_case(path, n, br))
    return cases


# ---- scale-ladder: one algebra per rung, past the catalog ----

def _ladder_case(label: str, n: int, coeffs: dict) -> Case:
    def run():
        q = tstar.tstar_extend(_cocycle(n, coeffs))
        alg = q.alg
        return q, alg.nilindex(), alg.centre(), alg.is_reduced()

    def check(out):
        q, nil, centre, reduced = out
        r = oracle.derived_dim(n, coeffs)
        if nil != 2:
            return f"nilindex {nil} != 2"
        if centre.dim != 2 * n - r or reduced != (r == n):
            return (f"centre dim {centre.dim}, reduced {reduced}; want "
                    f"{2 * n - r}, {r == n}")
        if reduced and [list(v) for v in centre.vectors()] != \
                oracle.hyperbolic(n)[:n]:
            return "centre of a reduced algebra is not the dual half"
        return _tstar_check(q, n, coeffs)

    return Case(label, 2 * n, run, check)


def scale_ladder(rng, workdir) -> list[Case]:
    cases = [_ladder_case(f"dense dim={2 * n}", n, random_coeffs(rng, n, 0.5))
             for n in range(4, 8) for _ in range(24)]
    cases += [_ladder_case(f"chain dim={2 * n}", n, chain_coeffs(n))
              for n in (10, 15, 20, 25)]
    return cases


# ---- extension-derivations: the double-extension layer ----

def _extension_case(kind: str, n: int, coeffs: dict, dseed: int) -> Case:
    def base():
        if kind == "abelian":
            return forms.QuadraticStructure(algebra.abelian(2 * n),
                                            forms.hyperbolic_form(n))
        return tstar.tstar_extend(_cocycle(n, coeffs))

    def run():
        aq = base()
        d = randgen.random_skew_derivation(aq, dseed)
        ext = doubleext.double_extend_1d(aq, d)
        predicted = doubleext.two_step_criterion(aq, d)
        formula = doubleext.centre_formula_1d(aq, d)
        return d, ext, predicted, ext.alg.nilindex(), formula, ext.alg.centre()

    def check(out):
        d, ext, predicted, nil, formula, centre = out
        brackets = oracle.tstar_brackets(n, coeffs)
        if not oracle.is_skew_derivation(2 * n, brackets, d.data):
            return "random element is not a skew derivation"
        if ext.alg.dim != 2 * n + 2:
            return f"extension has dimension {ext.alg.dim}"
        if predicted != (nil == 2):
            return f"two-step criterion {predicted} but nilindex {nil}"
        if formula != centre:
            return "centre formula differs from the computed centre"
        return None

    return Case(f"extend {kind} dim={2 * n} seed={dseed}", 2 * n + 2,
                run, check)


def _fold_case(n: int, coeffs: dict) -> Case:
    def run():
        ch = doubleext.build_chain(_cocycle(n, coeffs))
        return doubleext.fold_chain(ch), doubleext.chain_to_algebra(ch)

    def check(out):
        folded, closed = out
        if folded.alg != closed.alg or folded.form != closed.form:
            return "folded chain differs from the closed formula"
        return _tstar_check(closed, n, coeffs)

    return Case(f"fold n={n}", 2 * n, run, check)


def extension_derivations(rng, workdir) -> list[Case]:
    cases = []
    for kind, n in (("abelian", 2), ("abelian", 3), ("abelian", 4),
                    ("tstar", 3), ("tstar", 4), ("tstar", 5)):
        for _ in range(12):
            coeffs = random_coeffs(rng, n, 0.5) if kind == "tstar" else {}
            cases.append(_extension_case(kind, n, coeffs,
                                         rng.randrange(1 << 32)))
    # 24 folds at n = 5 put the median case inside their cluster rather
    # than at the gap below it, so the median does not jump between two.
    for n, count in ((4, 16), (5, 24)):
        for _ in range(count):
            cases.append(_fold_case(n, random_coeffs(rng, n, 0.5)))
    return cases


WORKLOADS = {
    "roads-corpus": roads_corpus,
    "catalog-verify": catalog_verify,
    "scale-ladder": scale_ladder,
    "extension-derivations": extension_derivations,
}

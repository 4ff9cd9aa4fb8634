"""Command-line surface: verification, catalog access, conversions,
extensions, random generation, and the acceptance selftest.

Commands are pure functions of their inputs and flags; randomized commands
are pure functions of the seed. Exit code 0 means every requested check
passed; failures print one JSON object to stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .acceptance import run_all, verify_catalog_entry, verify_report
from .alternating import format_coeffs, parse_coeffs
from .catalog import CATALOG, catalog, catalog_counts, lambda_trivector
from .convert import all_roads, coeffs_to_family, family_to_coeffs
from .doubleext import build_chain, chain_to_algebra, chain_to_coeffs
from .errors import MAX_N, QuadlieError, ValidationError, within_limit
from .forms import QuadraticStructure
from .io import (_mat_out, _scalar_in, algebra_from_obj, algebra_to_obj,
                 chain_from_obj, chain_to_obj, coeffs_from_obj, coeffs_to_obj,
                 dumps, family_from_obj, family_to_obj,
                 general_cocycle_from_obj, general_cocycle_to_obj, load_json,
                 quadratic_to_obj)
from .latex import bracket_cells, latex_table
from .linalg import rank
from .quadfam import f_matrix, validate_family
from .randgen import random_coeffs
from .trivector import algebra_from_trivector, trivector_rank
from .tstar import (CocycleCoeffs, decompose_as_tstar, find_lagrangian_ideal,
                    tstar_extend)


_FORMATS = ("json", "latex", "summary")


def _fmt(args) -> str:
    fmt = os.environ.get("QUADLIE_FORMAT") or args.format
    if fmt not in _FORMATS:
        raise QuadlieError(f"QUADLIE_FORMAT must be json, latex or summary, "
                           f"not {fmt!r}")
    return fmt


def _fail(message: str, law: str = "", witness=None) -> int:
    obj = {"error": message}
    if law:
        obj["law"] = law
    if witness is not None:
        obj["witness"] = list(witness) if isinstance(witness, tuple) \
            else witness
    print(json.dumps(obj), file=sys.stderr)
    return 1


def _load_coeffs(text: str, n: int | None, general: bool = False):
    """File path -> JSON terms, or with general=True a GeneralCocycle when
    the JSON object has "pairs"; anything else -> inline '123+145' form."""
    if not os.path.exists(text):
        return parse_coeffs(text, n=n)
    obj = load_json(text)
    if general and isinstance(obj, dict) and "pairs" in obj:
        return general_cocycle_from_obj(obj)
    return coeffs_from_obj(obj)


def _print_algebra(fmt: str, q: QuadraticStructure, split: int, header,
                   obj=None) -> int:
    """q as the JSON object obj() (q's own when obj is None), as the LaTeX
    table, or as the lines of header() above the text table; obj and
    header run only for their own format."""
    if fmt == "json":
        print(dumps(quadratic_to_obj(q) if obj is None else obj()), end="")
    elif fmt == "latex":
        print(latex_table(q.alg, split=split), end="")
    else:
        print("\n".join(header()))
        print("\n".join(bracket_cells(q.alg, split)) or "(abelian)")
    return 0


def _print_verify_summary(rep: dict):
    def yn(v):
        return "yes" if v else "no"
    print(f"dim: {rep['dim']}")
    print(f"lie: {yn(rep['lie'])}")
    if "jacobi_defect" in rep:
        print(f"  jacobi defect at: {rep['jacobi_defect']}")
    if "invariant" in rep:
        print(f"invariant: {yn(rep['invariant'])}")
        if "invariance_defect" in rep:
            print(f"  invariance defect at: {rep['invariance_defect']}")
        print(f"nondegenerate: {yn(rep['nondegenerate'])}")
    if "nilindex" in rep:
        print(f"nilindex: {rep['nilindex']}")
        print(f"type: ({rep['type'][0]}, {rep['type'][1]})")
        print(f"reduced: {yn(rep['reduced'])}")
    if "derived_perp_equals_centre" in rep:
        print("derived-perp equals centre: "
              f"{yn(rep['derived_perp_equals_centre'])}")
    print(f"result: {'PASS' if rep['pass'] else 'FAIL'}")


def cmd_verify(args) -> int:
    alg, form = algebra_from_obj(load_json(args.file))
    rep = verify_report(alg, form)
    fmt = _fmt(args)
    if fmt == "json":
        print(dumps(rep), end="")
    elif fmt == "latex":
        print(latex_table(alg), end="")
        print(f"% result: {'PASS' if rep['pass'] else 'FAIL'}")
    else:
        _print_verify_summary(rep)
    return 0 if rep["pass"] else 1


def cmd_catalog(args) -> int:
    fmt = _fmt(args)
    if args.lam is not None:
        t = lambda_trivector(_scalar_in(args.lam, "--lam"))
        q = algebra_from_trivector(t)
        return _print_algebra(fmt, q, t.n, lambda: (
            f"parametric entry  lambda={args.lam}  n={t.n}  dim={q.dim}",
            f"trivector: {format_coeffs(t)}"), lambda: {
            "lambda": args.lam, "n": t.n, "dim": q.dim,
            "trivector": coeffs_to_obj(t), "algebra": quadratic_to_obj(q)})
    if args.counts:
        counts = catalog_counts()
        if fmt == "json":
            print(dumps({"counts": {str(k): v for k, v in
                                    sorted(counts.items())},
                         "total": sum(counts.values())}), end="")
        else:
            row = "  ".join(f"{k}:{v}" for k, v in sorted(counts.items()))
            print(f"{row}  total:{sum(counts.values())}")
        return 0
    if args.all:
        bad = []
        for entry in CATALOG:
            problems = verify_catalog_entry(entry)
            bad.extend(problems)
            status = "PASS" if not problems else "FAIL"
            print(f"{status} {entry.label} dim={entry.expected_dim} "
                  f"trivector={format_coeffs(entry.trivector)}")
        if bad:
            return _fail(f"{len(bad)} catalog failures: {bad[:3]}")
        return 0
    if not args.label:
        return _fail("need a label, --counts, or --all")
    entry = catalog(args.label)
    q = algebra_from_trivector(entry.trivector)
    return _print_algebra(fmt, q, entry.n, lambda: (
        f"{entry.label}  n={entry.n}  dim={entry.expected_dim}",
        f"trivector: {format_coeffs(entry.trivector)}"), lambda: {
        "label": entry.label, "n": entry.n, "dim": entry.expected_dim,
        "trivector": coeffs_to_obj(entry.trivector),
        "algebra": quadratic_to_obj(q)})


_KINDS = ("cocycle", "trivector", "family", "chain")


def _read_as_coeffs(kind: str, text: str, n: int | None) -> CocycleCoeffs:
    if kind in ("cocycle", "trivector"):
        return _load_coeffs(text, n)
    if not os.path.exists(text):
        raise QuadlieError(f"{kind} input must be a JSON file")
    if kind == "family":
        return family_to_coeffs(family_from_obj(load_json(text)))
    return chain_to_coeffs(chain_from_obj(load_json(text)))


def cmd_convert(args) -> int:
    c = _read_as_coeffs(args.src, args.input, args.n)
    fmt = _fmt(args)
    to = args.dst
    if to in ("cocycle", "trivector"):
        if fmt == "summary":
            print(format_coeffs(c))
        else:
            print(dumps(coeffs_to_obj(c)), end="")
    elif to == "family":
        fam = coeffs_to_family(c)
        if fmt == "summary":
            print(f"family of {fam.n} matrices, rank {rank(f_matrix(fam))}")
        else:
            print(dumps(family_to_obj(fam)), end="")
    elif to == "chain":
        ch = build_chain(c)
        if fmt == "summary":
            print(f"chain with {ch.n} links, nnp={ch.nnp}, 2sp={ch.two_sp}")
        else:
            print(dumps(chain_to_obj(ch)), end="")
    else:  # algebra
        rep = all_roads(c)
        if not rep.equal:
            return _fail(f"route mismatch: {rep.mismatches}")
        q = rep.algebra
        return _print_algebra(fmt, q, c.n, lambda: (
            f"dim {q.dim} algebra, all three routes agree",))
    return 0


def cmd_extend(args) -> int:
    ch = chain_from_obj(load_json(args.chain))
    q = chain_to_algebra(ch)
    return _print_algebra(_fmt(args), q, ch.n, lambda: (
        f"chain of {ch.n} links -> dim {q.dim} algebra, "
        f"nilindex {q.alg.nilindex()}",))


def cmd_tstar(args) -> int:
    # B + B*, so B is its first half
    q = tstar_extend(_load_coeffs(args.input, args.n, general=True))
    return _print_algebra(_fmt(args), q, q.dim // 2, lambda: (
        f"dual extension: dim {q.dim}, nilindex {q.alg.nilindex()}",))


def cmd_family(args) -> int:
    fam = family_from_obj(load_json(args.file))
    ok, problems = validate_family(fam)
    fmt = _fmt(args)
    fr = rank(f_matrix(fam))
    if fmt == "json":
        print(dumps({"n": fam.n, "valid": ok, "problems": problems,
                     "stacked_rank": fr,
                     "nondegenerate": ok and fr == fam.n}), end="")
    else:
        print(f"n: {fam.n}")
        print(f"valid: {'yes' if ok else 'no'}")
        for p in problems:
            print(f"  {p}")
        print(f"stacked rank: {fr}")
        print(f"nondegenerate: {'yes' if ok and fr == fam.n else 'no'}")
    return 0 if ok else 1


def cmd_rank(args) -> int:
    t = _load_coeffs(args.input, args.n)
    r = trivector_rank(t)
    if _fmt(args) == "json":
        print(dumps({"n": t.n, "rank": r}), end="")
    else:
        print(f"rank: {r}")
    return 0


def cmd_random(args) -> int:
    within_limit(args.n, MAX_N, "dimension")
    density = _scalar_in(args.density, "--density")
    c = random_coeffs(args.n, seed=args.seed, density=density)
    q = tstar_extend(c)
    summary = {
        "n": args.n, "seed": args.seed,
        "density": str(density),
        "coefficients": len(c.terms),
        "nilindex": q.alg.nilindex(),
        "reduced": q.alg.is_reduced(),
        "trivector_rank": trivector_rank(c),
    }
    if args.out:
        cpath = f"{args.out}.cocycle.json"
        apath = f"{args.out}.algebra.json"
        for path, obj in ((cpath, coeffs_to_obj(c)),
                          (apath, quadratic_to_obj(q))):
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(dumps(obj))
            except OSError as e:
                raise QuadlieError(f"{path}: {e.strerror or e}")
        print(f"wrote {cpath} and {apath}")
        print(dumps(summary), end="")
    else:
        print(dumps({"cocycle": coeffs_to_obj(c),
                     "algebra": quadratic_to_obj(q),
                     "summary": summary}), end="")
    return 0


def cmd_decompose(args) -> int:
    alg, form = algebra_from_obj(load_json(args.file))
    if form is None:
        return _fail("decompose needs an algebra file with a form")
    q = QuadraticStructure(alg, form)
    ideal = find_lagrangian_ideal(q)
    if ideal is None:
        return _fail("no abelian lagrangian ideal found", law="lagrangian")
    base, w, iso = decompose_as_tstar(q, ideal)
    fmt = _fmt(args)
    if fmt == "json":
        print(dumps({"base": algebra_to_obj(base),
                     "cocycle": general_cocycle_to_obj(w),
                     "isometry": _mat_out(iso)}), end="")
    else:
        print(f"base dim: {base.dim} "
              f"({'abelian' if not base.terms else 'non-abelian'})")
        print(f"cocycle pairs: {len(w.terms)}")
        print("isometry verified: yes")
    return 0


def cmd_selftest(args) -> int:
    fmt = _fmt(args)
    results = run_all()
    failed = sum(not ok for _, ok, _, _ in results)
    if fmt == "json":
        print(dumps({"checks": [
            {"name": name, "pass": ok, "detail": detail,
             "seconds": round(seconds, 3)}
            for name, ok, detail, seconds in results],
            "pass": not failed}), end="")
    else:
        for name, ok, detail, _ in results:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if failed:
        return _fail(f"{failed} of {len(results)} checks failed")
    if fmt != "json":
        print(f"all {len(results)} checks passed")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every word beginning with a single '-',
    other than -h, as a value, never as an option: inline coefficients
    such as -123+234 and rationals such as -2/3, positional or after an
    option alike. Every other quadlie option is --name, so none is lost.
    Subcommand parsers are made with the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a word this matches as a negative number, a value
        self._negative_number_matcher = re.compile(r"-(?!-|h$)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on first use; parse_args keeps
    no state between calls."""
    p = _Parser(
        prog="quadlie",
        description="Exact construction and verification of quadratic "
                    "2-step nilpotent Lie algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=_FORMATS,
                        default="summary",
                        help="output format (env QUADLIE_FORMAT overrides)")

    sp = sub.add_parser("verify", help="check a JSON algebra file")
    sp.add_argument("file")
    add_format(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("catalog", help="catalog entries and counts")
    sp.add_argument("label", nargs="?")
    sp.add_argument("--counts", action="store_true")
    sp.add_argument("--all", action="store_true",
                    help="verify every entry")
    sp.add_argument("--lam", default=None,
                    help="emit the parametric 18-dim entry with this "
                         "nonzero rational parameter")
    add_format(sp)
    sp.set_defaults(fn=cmd_catalog)

    sp = sub.add_parser("convert", help="convert between presentations")
    sp.add_argument("--from", dest="src", choices=_KINDS, required=True)
    sp.add_argument("--to", dest="dst", choices=_KINDS + ("algebra",),
                    required=True)
    sp.add_argument("input", help="file path, or inline coefficients "
                                  "like 123+145")
    sp.add_argument("--n", type=int, default=None,
                    help="ambient dimension for inline input")
    add_format(sp)
    sp.set_defaults(fn=cmd_convert)

    sp = sub.add_parser("extend", help="build the algebra of a chain file")
    sp.add_argument("--chain", required=True)
    add_format(sp)
    sp.set_defaults(fn=cmd_extend)

    sp = sub.add_parser("tstar", help="dual extension of a cocycle")
    sp.add_argument("input", help="file path or inline coefficients")
    sp.add_argument("--n", type=int, default=None)
    add_format(sp)
    sp.set_defaults(fn=cmd_tstar)

    sp = sub.add_parser("family", help="validate a matrix family file")
    sp.add_argument("file")
    add_format(sp)
    sp.set_defaults(fn=cmd_family)

    sp = sub.add_parser("rank", help="rank of a trivector")
    sp.add_argument("input", help="file path or inline coefficients")
    sp.add_argument("--n", type=int, default=None)
    add_format(sp)
    sp.set_defaults(fn=cmd_rank)

    sp = sub.add_parser("random", help="seeded random cocycle and algebra")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--density", default="1/2",
                    help="fill probability as a fraction, default 1/2")
    sp.add_argument("--out", default=None,
                    help="path prefix for output files")
    sp.set_defaults(fn=cmd_random)

    sp = sub.add_parser("decompose",
                        help="split a quadratic algebra as a dual extension")
    sp.add_argument("file")
    add_format(sp)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("selftest", help="run the acceptance checks")
    add_format(sp)
    sp.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as e:
        return _fail(str(e), law=e.law, witness=e.witness)
    except QuadlieError as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())

"""JSON file formats for algebras, coefficient data, chains, and families.

Scalars are strings like "3" or "-1/2" so that exactness survives the trip.
Emission is deterministic: fixed key order, brackets and terms sorted.
"""
from __future__ import annotations

import json
from typing import Any

from .alternating import AltCoeffs
from .algebra import LieAlgebra
from .doubleext import ExtensionChain
from .errors import QuadlieError
from .forms import QuadraticStructure
from .linalg import Fraction, Mat, scalar, scalar_str
from .quadfam import QuadraticFamily
from .tstar import GeneralCocycle


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise QuadlieError(f"{path}: invalid JSON at line {e.lineno} "
                           f"column {e.colno}: {e.msg}")
    except ValueError as e:  # too many digits for an int, or not UTF-8
        raise QuadlieError(f"{path}: unreadable JSON: {e}")
    except RecursionError:
        raise QuadlieError(f"{path}: JSON nested too deeply")
    except OSError as e:
        raise QuadlieError(f"{path}: {e.strerror or e}")


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _expect(obj: Any, key: str, kind: str):
    if not isinstance(obj, dict) or key not in obj:
        raise QuadlieError(f"{kind} object needs key {key!r}")
    return obj[key]


def _expect_list(obj: Any, key: str, kind: str) -> list:
    val = _expect(obj, key, kind)
    if not isinstance(val, list):
        raise QuadlieError(f"{kind} {key} must be a list")
    return val


def _dim_in(n: Any) -> int:
    if not isinstance(n, int) or n < 0:
        raise QuadlieError(f"bad dimension {n!r}")
    return n


def _scalar_in(x, where: str, memo: dict | None = None):
    """memo keeps the value of each good str parsed so far; only str keys,
    since the float 1.0 would find a kept int 1. Bad strings fail each time."""
    if memo is not None and isinstance(x, str):
        if x not in memo:
            memo[x] = _scalar_in(x, where)
        return memo[x]
    try:
        return scalar(x)
    except (ValueError, TypeError, ZeroDivisionError):
        raise QuadlieError(f"bad scalar {x!r} in {where}")


def _mat_in(rows, where: str, memo: dict | None = None) -> Mat:
    if not isinstance(rows, list) or any(not isinstance(r, list)
                                         for r in rows):
        raise QuadlieError(f"{where}: matrix must be a list of rows")
    if not rows:
        return Mat.zero(0, 0)
    if any(len(r) != len(rows[0]) for r in rows):
        raise QuadlieError(f"{where}: rows differ in length")
    return Mat([[_scalar_in(e, where, memo) for e in r] for r in rows])


def _mat_out(m: Mat) -> list[list[str]]:
    return [[scalar_str(e) for e in r] for r in m.data]


# ---- algebra ----

def algebra_to_obj(alg: LieAlgebra, form: Mat | None = None) -> dict:
    out: dict[str, Any] = {
        "dim": alg.dim,
        "brackets": [
            {"i": i, "j": j, "v": [scalar_str(c) for c in v]}
            for (i, j), v in sorted(alg.brackets.items())
        ],
    }
    if form is not None:
        out["form"] = _mat_out(form)
    return out


def quadratic_to_obj(q: QuadraticStructure) -> dict:
    return algebra_to_obj(q.alg, q.form)


def algebra_from_obj(obj: Any) -> tuple[LieAlgebra, Mat | None]:
    dim = _dim_in(_expect(obj, "dim", "algebra"))
    memo: dict[str, Fraction] = {}  # one parse per distinct string
    brackets = {}
    for ent in _expect_list(obj, "brackets", "algebra"):
        i = _expect(ent, "i", "bracket")
        j = _expect(ent, "j", "bracket")
        v = _expect(ent, "v", "bracket")
        if not isinstance(i, int) or not isinstance(j, int):
            raise QuadlieError(f"bad bracket index pair ({i!r},{j!r})")
        if not isinstance(v, list):
            raise QuadlieError(f"bracket ({i},{j}): value must be a list")
        if (i, j) in brackets:
            raise QuadlieError(f"duplicate bracket ({i},{j})")
        where = f"bracket ({i},{j})"
        brackets[(i, j)] = tuple(_scalar_in(c, where, memo) for c in v)
    try:
        alg = LieAlgebra(dim, brackets)
    except ValueError as e:
        raise QuadlieError(str(e))
    form = None
    if isinstance(obj, dict) and obj.get("form") is not None:
        form = _mat_in(obj["form"], "form", memo)
    return alg, form


# ---- alternating coefficients (cocycle or trivector role) ----

def coeffs_to_obj(c: AltCoeffs) -> dict:
    return {
        "n": c.n,
        "terms": [{"ijk": list(key), "c": scalar_str(v)}
                  for key, v in c.terms],
    }


def coeffs_from_obj(obj: Any) -> AltCoeffs:
    n = _dim_in(_expect(obj, "n", "coefficients"))
    vals = []
    for ent in _expect_list(obj, "terms", "coefficients"):
        ijk = _expect(ent, "ijk", "term")
        if (not isinstance(ijk, list) or len(ijk) != 3
                or any(not isinstance(x, int) for x in ijk)):
            raise QuadlieError(f"bad index triple {ijk!r}")
        vals.append((tuple(ijk), _scalar_in(_expect(ent, "c", "term"),
                                            f"term {ijk}")))
    try:
        return AltCoeffs(n, vals)
    except QuadlieError:
        raise
    except ValueError as e:
        raise QuadlieError(str(e))


def general_cocycle_to_obj(w: GeneralCocycle) -> dict:
    return {
        "n": w.base.dim,
        "base": algebra_to_obj(w.base),
        "pairs": [{"ij": list(pair), "v": [scalar_str(c) for c in v]}
                  for pair, v in sorted(w.values.items())],
    }


def general_cocycle_from_obj(obj: Any) -> GeneralCocycle:
    base, _ = algebra_from_obj(_expect(obj, "base", "cocycle"))
    values = {}
    for ent in _expect_list(obj, "pairs", "cocycle"):
        ij = _expect(ent, "ij", "pair")
        if (not isinstance(ij, list) or len(ij) != 2
                or any(not isinstance(x, int) for x in ij)):
            raise QuadlieError(f"bad index pair {ij!r}")
        v = _expect(ent, "v", "pair")
        i, j = ij
        if not isinstance(v, list):
            raise QuadlieError(f"pair ({i},{j}): value must be a list")
        if (i, j) in values:
            raise QuadlieError(f"duplicate pair ({i},{j})")
        values[(i, j)] = tuple(_scalar_in(c, f"pair {ij}") for c in v)
    return GeneralCocycle(base, values)


# ---- extension chain ----

def chain_to_obj(ch: ExtensionChain) -> dict:
    return {"n": ch.n, "derivs": [_mat_out(d) for d in ch.derivs]}


def chain_from_obj(obj: Any) -> ExtensionChain:
    n = _expect(obj, "n", "chain")
    derivs = _expect_list(obj, "derivs", "chain")
    # [] is the 0x0 link; shape errors surface in the chain constructor
    mats = tuple(_mat_in(rows, f"deriv {k}")
                 for k, rows in enumerate(derivs))
    return ExtensionChain(_dim_in(n), mats)


# ---- matrix family ----

def family_to_obj(fam: QuadraticFamily) -> dict:
    return {"n": fam.n, "mats": [_mat_out(m) for m in fam.mats]}


def family_from_obj(obj: Any) -> QuadraticFamily:
    n = _expect(obj, "n", "family")
    mats = _expect_list(obj, "mats", "family")
    mats = tuple(_mat_in(m, f"matrix {i + 1}") for i, m in enumerate(mats))
    return QuadraticFamily(_dim_in(n), mats)

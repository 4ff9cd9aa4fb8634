"""JSON file formats for algebras, coefficient data, chains, and families.

Scalars are strings like "3" or "-1/2" so that exactness survives the trip.
Emission is deterministic: fixed key order, brackets and terms sorted.
"""
from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .alternating import AltCoeffs
from .algebra import LieAlgebra
from .doubleext import ExtensionChain
from .errors import (MAX_N, QuadlieError, ValidationError, _int_in,
                     within_limit)
from .forms import QuadraticStructure
from .linalg import Fraction, Mat, scalar
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
    """json.dumps(obj, indent=2) + "\n", byte for byte, without json's
    pure-Python indent encoder for the dicts (str keys), lists, tuples, strs
    and ints that the writers here build; any other value is json's."""
    out: list[str] = []
    try:
        _write(obj, out, "\n")
    except (_Other, RecursionError):  # json reports a circular container
        return json.dumps(obj, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


class _Other(Exception):
    """A container dumps does not write itself: a dict with a key that is
    not a str, or a subclass of dict, list or tuple."""


def _write(x: Any, out: list[str], nl: str) -> None:
    """Append x's JSON text to out; nl is the newline and indent of x's
    own line."""
    t = type(x)
    if t is str:
        out.append(_quote(x))
    elif t is int:
        out.append(repr(x))
    elif t is list or t is tuple:
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        try:  # a list of strs, such as a bracket value or a form row
            out.append("[" + inner + ("," + inner).join(map(_quote, x))
                       + nl + "]")
            return
        except TypeError:
            pass
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write(v, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif t is dict:
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in x.items():
            if type(k) is not str:
                raise _Other
            out.append(sep + _quote(k) + ": ")
            _write(v, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(x, (dict, list, tuple)):
        raise _Other
    else:  # true, false, null, a float, or json's TypeError
        out.append(json.dumps(x))


def _expect(obj: Any, key: str, kind: str):
    if not isinstance(obj, dict) or key not in obj:
        raise QuadlieError(f"{kind} object needs key {key!r}")
    return obj[key]


def _expect_list(obj: Any, key: str, kind: str) -> list:
    val = _expect(obj, key, kind)
    if not isinstance(val, list):
        raise QuadlieError(f"{kind} {key} must be a list")
    return val


def _dim_in(n: Any, top: int = MAX_N) -> int:
    """A dimension read from a file: an int from 0 to top."""
    if not _int_in(n) or n < 0:
        raise QuadlieError(f"bad dimension {n!r}")
    return within_limit(n, top, "dimension")


def _scalar_in(x, where: str, memo: dict | None = None):
    """memo keeps the value of each good str parsed so far; only str keys,
    since the float 1.0 would find a kept int 1. Bad strings fail each time.
    The JSON true and false are not scalars, though Python counts them as
    ints."""
    if isinstance(x, bool):
        raise QuadlieError(f"bad scalar {json.dumps(x)} in {where}")
    if memo is not None and isinstance(x, str):
        if x not in memo:
            memo[x] = _scalar_in(x, where)
        return memo[x]
    try:
        return scalar(x)
    except (ValueError, TypeError, ZeroDivisionError):
        raise QuadlieError(f"bad scalar {x!r} in {where}")


def _sparse_in(v: list, where: str, memo: dict) -> dict[int, Fraction]:
    """The nonzero entries of the dense JSON list v as {index: Fraction},
    indices ascending. The string "0" is skipped unread; every other entry
    is coerced once, through memo, and the first bad one raises."""
    out = {}
    for k, x in enumerate(v):
        if x != "0":
            c = _scalar_in(x, where, memo)
            if c:
                out[k] = c
    return out


def _mat_in(rows, where: str, memo: dict) -> Mat:
    if not isinstance(rows, list) or any(not isinstance(r, list)
                                         for r in rows):
        raise QuadlieError(f"{where}: matrix must be a list of rows")
    if not rows:
        return Mat.zero(0, 0)
    if any(len(r) != len(rows[0]) for r in rows):
        raise QuadlieError(f"{where}: rows differ in length")
    return Mat._of([_sparse_in(r, where, memo) for r in rows], len(rows[0]))


def _dense_out(nz, n: int) -> list[str]:
    """The n-length list of strings for the nonzero (index, value) pairs
    nz: "0" where absent, the str of each stored value. A value with more
    digits than the interpreter converts to str is the one `limit` error."""
    out = ["0"] * n
    try:
        for r, c in nz:
            out[r] = str(c)
    except ValueError:  # only the int-to-str digit limit raises it here
        raise ValidationError(
            f"a scalar to write exceeds the interpreter's limit of "
            f"{sys.get_int_max_str_digits()} digits", law="limit")
    return out


def _mat_out(m: Mat) -> list[list[str]]:
    return [_dense_out(r.items(), m.cols) for r in m.sparse_rows]


# ---- algebra ----

def algebra_to_obj(alg: LieAlgebra, form: Mat | None = None) -> dict:
    out: dict[str, Any] = {
        "dim": alg.dim,
        "brackets": [
            {"i": i, "j": j, "v": _dense_out(nz, alg.dim)}
            for (i, j), nz in sorted(alg.terms.items())
        ],
    }
    if form is not None:
        out["form"] = _mat_out(form)
    return out


def quadratic_to_obj(q: QuadraticStructure) -> dict:
    return algebra_to_obj(q.alg, q.form)


def algebra_from_obj(obj: Any) -> tuple[LieAlgebra, Mat | None]:
    dim = _dim_in(_expect(obj, "dim", "algebra"), 2 * MAX_N)
    memo: dict[str, Fraction] = {}  # one parse per distinct string
    brackets = {}
    for ent in _expect_list(obj, "brackets", "algebra"):
        i = _expect(ent, "i", "bracket")
        j = _expect(ent, "j", "bracket")
        v = _expect(ent, "v", "bracket")
        if not _int_in(i) or not _int_in(j):
            raise QuadlieError(f"bad bracket index pair ({i!r},{j!r})")
        if not isinstance(v, list):
            raise QuadlieError(f"bracket ({i},{j}): value must be a list")
        if (i, j) in brackets:
            raise QuadlieError(f"duplicate bracket ({i},{j})")
        brackets[(i, j)] = len(v), _sparse_in(v, f"bracket ({i},{j})", memo)
    try:
        alg = LieAlgebra._of(dim, LieAlgebra._checked_terms(dim, (
            (key, n, nz.items()) for key, (n, nz) in brackets.items())))
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
        "terms": [{"ijk": list(key), "c": str(v)}
                  for key, v in c.terms],
    }


def coeffs_from_obj(obj: Any) -> AltCoeffs:
    n = _dim_in(_expect(obj, "n", "coefficients"))
    vals = []
    for ent in _expect_list(obj, "terms", "coefficients"):
        ijk = _expect(ent, "ijk", "term")
        if (not isinstance(ijk, list) or len(ijk) != 3
                or any(not _int_in(x) for x in ijk)):
            raise QuadlieError(f"bad index triple {ijk!r}")
        vals.append((tuple(ijk), _scalar_in(_expect(ent, "c", "term"),
                                            f"term {ijk}")))
    return AltCoeffs(n, vals)


def general_cocycle_to_obj(w: GeneralCocycle) -> dict:
    return {
        "n": w.base.dim,
        "base": algebra_to_obj(w.base),
        "pairs": [{"ij": list(pair), "v": _dense_out(nz, w.base.dim)}
                  for pair, nz in sorted(w.terms.items())],
    }


def general_cocycle_from_obj(obj: Any) -> GeneralCocycle:
    n = _dim_in(_expect(obj, "n", "cocycle"))
    base, _ = algebra_from_obj(_expect(obj, "base", "cocycle"))
    if n != base.dim:
        raise QuadlieError(f"cocycle n {n} differs from base dim {base.dim}")
    memo: dict[str, Fraction] = {}
    values = {}
    for ent in _expect_list(obj, "pairs", "cocycle"):
        ij = _expect(ent, "ij", "pair")
        if (not isinstance(ij, list) or len(ij) != 2
                or any(not _int_in(x) for x in ij)):
            raise QuadlieError(f"bad index pair {ij!r}")
        v = _expect(ent, "v", "pair")
        i, j = ij
        if not isinstance(v, list):
            raise QuadlieError(f"pair ({i},{j}): value must be a list")
        if (i, j) in values:
            raise QuadlieError(f"duplicate pair ({i},{j})")
        values[(i, j)] = len(v), _sparse_in(v, f"pair {ij}", memo)
    return GeneralCocycle._of(base, GeneralCocycle._checked_terms(n, (
        (key, m, nz.items()) for key, (m, nz) in values.items())))


# ---- extension chain ----

def chain_to_obj(ch: ExtensionChain) -> dict:
    return {"n": ch.n, "derivs": [_mat_out(d) for d in ch.derivs]}


def chain_from_obj(obj: Any) -> ExtensionChain:
    n = _expect(obj, "n", "chain")
    derivs = _expect_list(obj, "derivs", "chain")
    # [] is the 0x0 link; shape errors surface in the chain constructor
    memo: dict[str, Fraction] = {}
    mats = tuple(_mat_in(rows, f"deriv {k}", memo)
                 for k, rows in enumerate(derivs))
    return ExtensionChain(_dim_in(n), mats)


# ---- matrix family ----

def family_to_obj(fam: QuadraticFamily) -> dict:
    return {"n": fam.n, "mats": [_mat_out(m) for m in fam.mats]}


def family_from_obj(obj: Any) -> QuadraticFamily:
    n = _expect(obj, "n", "family")
    mats = _expect_list(obj, "mats", "family")
    memo: dict[str, Fraction] = {}
    mats = tuple(_mat_in(m, f"matrix {i + 1}", memo)
                 for i, m in enumerate(mats))
    return QuadraticFamily(_dim_in(n), mats)

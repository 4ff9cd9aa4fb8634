"""Differential tests: the sparse file readers against the dense readers
they replaced.

`io` reads each dense JSON list straight into {index: Fraction}: the
string "0" is skipped unread, every other entry is coerced once, and the
nonzero entries go to the one check of keys and lengths that
`LieAlgebra` and `GeneralCocycle` keep. The references in `reference.py`
coerce every entry and go through the dense constructors. On every input
here both give the same value, or the same error with the same message.
"""
import copy
import re
from fractions import Fraction
from pathlib import Path

import pytest

from quadlie import (GeneralCocycle, LieAlgebra, Mat, SplitMix64,
                     ValidationError, build_chain, coeffs_to_family,
                     tstar_extend)
from quadlie import io
from quadlie.io import (algebra_from_obj, algebra_to_obj, chain_from_obj,
                        chain_to_obj, family_from_obj, family_to_obj,
                        general_cocycle_from_obj, general_cocycle_to_obj,
                        quadratic_to_obj)
from quadlie.tstar import _general
from reference import (_ref_algebra_from_obj, _ref_chain_from_obj,
                       _ref_family_from_obj, _ref_general_cocycle_from_obj)

SRC = Path(io.__file__).resolve().parent

ZERO_SPELLINGS = [0, "0/5", "-0", "0/1"]

# what a fault writes over a leaf: bad scalars, other zeros and nonzeros,
# labels in and out of range, and values of the wrong JSON type
LEAVES = ["x", "1/0", "0/0", "", "1e", 1.0, 0.0, 0.5, True, False, None,
          [], {}, 0, "0/5", "-0", "00", " 0", "0.0", "1", "2/2", "-3/6",
          "0.5", 1, 7, -1, 2, 3, 19]


def _mat_key(m):
    return m.rows, m.cols, [list(r.items()) for r in m.sparse_rows]


def _alg_key(alg):
    return alg.dim, list(alg.terms.items())


def _algebra_key(out):
    alg, form = out
    return _alg_key(alg), None if form is None else _mat_key(form)


def _cocycle_key(w):
    return _alg_key(w.base), list(w.terms.items())


def _chain_key(ch):
    return ch.n, [_mat_key(m) for m in ch.derivs]


def _family_key(fam):
    return fam.n, [_mat_key(m) for m in fam.mats]


READERS = {
    "algebra": (algebra_from_obj, _ref_algebra_from_obj, _algebra_key),
    "cocycle": (general_cocycle_from_obj, _ref_general_cocycle_from_obj,
                _cocycle_key),
    "chain": (chain_from_obj, _ref_chain_from_obj, _chain_key),
    "family": (family_from_obj, _ref_family_from_obj, _family_key),
}


def _outcome(read, key, obj):
    """("ok", the value's key), or the error's type, message, law and
    witness; each reader gets its own copy of obj."""
    try:
        return "ok", key(read(copy.deepcopy(obj)))
    except Exception as e:  # the reference fixes which errors are right
        return (type(e).__name__, str(e), getattr(e, "law", None),
                getattr(e, "witness", None))


def _assert_same(kind, obj):
    new, ref, key = READERS[kind]
    out = _outcome(new, key, obj)
    assert out == _outcome(ref, key, obj), obj
    return out


# ---- corpora: every file the writers give, and seeded faults in them ----

@pytest.fixture(scope="module")
def files(catalog_algebras, construction_coeffs, seeded_coeffs,
          extension_cases):
    algebras = [quadratic_to_obj(q) for q in catalog_algebras]
    algebras += [quadratic_to_obj(tstar_extend(c))
                 for c in construction_coeffs]
    algebras += [algebra_to_obj(q.alg) for q in catalog_algebras[:6]]
    cocycles = [general_cocycle_to_obj(w) for w, _, _ in extension_cases
                if w.base.dim <= 18]
    cocycles += [general_cocycle_to_obj(_general(c))
                 for c in construction_coeffs]
    chains = [chain_to_obj(build_chain(c)) for c in seeded_coeffs]
    families = [family_to_obj(coeffs_to_family(c))
                for c in construction_coeffs]
    return {"algebra": algebras, "cocycle": cocycles, "chain": chains,
            "family": families}


def _paths(x, path=()):
    """Every position in the JSON tree x, itself included."""
    yield path
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _paths(v, path + (k,))
    elif isinstance(x, list):
        for k, v in enumerate(x):
            yield from _paths(v, path + (k,))


def _fault(obj, g):
    """Change obj in place at one seeded position: a leaf takes a value
    from LEAVES; a list gains a copy of an item, loses its last, or
    becomes a str; a dict loses a key."""
    paths = list(_paths(obj))
    path = paths[g.randint(1, len(paths) - 1)]
    parent = obj
    for k in path[:-1]:
        parent = parent[k]
    x, k = parent[path[-1]], path[-1]
    if isinstance(x, list) and x and g.randint(0, 1):
        op = g.randint(0, 2)
        if op == 0:
            x.append(copy.deepcopy(x[g.randint(0, len(x) - 1)]))
        elif op == 1:
            x.pop()
        else:
            parent[k] = "12"
    elif isinstance(x, dict) and x and g.randint(0, 1):
        del x[list(x)[g.randint(0, len(x) - 1)]]
    else:
        parent[k] = copy.deepcopy(LEAVES[g.randint(0, len(LEAVES) - 1)])


@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_match_dense_reference_on_written_files(files, kind):
    for obj in files[kind]:
        assert _assert_same(kind, obj)[0] == "ok"


@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_match_dense_reference_on_seeded_faults(files, kind):
    # one to three faults per file, so that which error comes first
    # depends on the order of the checks
    g = SplitMix64(23)
    errors = set()
    for _ in range(4):
        for obj in files[kind]:
            bad = copy.deepcopy(obj)
            for _ in range(1 + g.randint(0, 2)):
                _fault(bad, g)
            out = _assert_same(kind, bad)
            if out[0] != "ok":
                errors.add(re.sub(r"[-\d'\"]+", "#", out[1]))
    # the faults reach the scalar, key, length, duplicate and shape checks
    assert len(errors) >= 8, errors


@pytest.mark.parametrize("zero", ZERO_SPELLINGS, ids=repr)
def test_zero_spellings_read_as_absent_entries(files, zero):
    for kind, (new, _, key) in READERS.items():
        for obj in files[kind][:30]:
            out = _assert_same(kind, _respell(obj, zero))
            assert out == ("ok", key(new(obj)))


def _respell(x, zero):
    """x with every "0" string written as zero."""
    if isinstance(x, dict):
        return {k: _respell(v, zero) for k, v in x.items()}
    if isinstance(x, list):
        return [_respell(v, zero) for v in x]
    return zero if x == "0" else x


# ---- the first error when a file has several faults ----

def _b(i, j, *v):
    return {"i": i, "j": j, "v": list(v)}


MULTI_FAULT = [
    # scalars are read bracket by bracket; key ranges and lengths are
    # checked after the last bracket
    ({"dim": 3, "brackets": [_b(2, 1, "0", "0", "1"),
                             _b(1, 2, "0", "x", "0")]},
     "bad scalar 'x' in bracket (1,2)"),
    ({"dim": 3, "brackets": [_b(1, 2, "0", "0"), _b(1, 3, "0", "0", "1/0")]},
     "bad scalar '1/0' in bracket (1,3)"),
    ({"dim": 3, "brackets": [_b(1, 2, "0", "y")]},
     "bad scalar 'y' in bracket (1,2)"),
    ({"dim": 3, "brackets": [_b(1, 2, "0", "0", True),
                             _b(1, 2, "0", "0", "1")]},
     "bad scalar true in bracket (1,2)"),
    ({"dim": 3, "brackets": [_b(1, 2, "0", "0", "1"),
                             _b(1, 2, "0", "x", "0")]},
     "duplicate bracket (1,2)"),
    # key before length within a bracket, brackets in file order
    ({"dim": 3, "brackets": [_b(1, 2, "0", "0"), _b(3, 1, "0", "0", "1")]},
     "bracket value for (1,2) has wrong length"),
    ({"dim": 3, "brackets": [_b(3, 1, "0", "0", "1"), _b(1, 2, "0", "0")]},
     "bracket key (3,1) not 1 <= i < j <= 3"),
    ({"dim": 3, "brackets": [_b(1, 4, "0")]},
     "bracket key (1,4) not 1 <= i < j <= 3"),
    # an all-"0" value still has its length checked
    ({"dim": 3, "brackets": [_b(1, 2, "0", "0", "0", "0")]},
     "bracket value for (1,2) has wrong length"),
    # the form comes last
    ({"dim": 2, "brackets": [_b(1, 3, "0", "0")],
      "form": [["0", "x"], ["x", "0"]]},
     "bracket key (1,3) not 1 <= i < j <= 2"),
    ({"dim": 2, "brackets": [_b(1, 2, "0")], "form": [["0", "1"], ["1"]]},
     "bracket value for (1,2) has wrong length"),
    ({"dim": 2, "brackets": [_b(1, 2, "1", "0")],
      "form": [["1", "1/0"], ["1/0", "1"]]},
     "bad scalar '1/0' in form"),
    # only the string "0" is skipped unread: false, 0.0 and "0/0" are not
    # zeros
    ({"dim": 2, "brackets": [_b(1, 2, "0", False)]},
     "bad scalar false in bracket (1,2)"),
    ({"dim": 2, "brackets": [_b(1, 2, 0.0, "0")]},
     "bad scalar 0.0 in bracket (1,2)"),
    ({"dim": 2, "brackets": [_b(1, 2, "0", "0/0")]},
     "bad scalar '0/0' in bracket (1,2)"),
    ({"dim": 2, "brackets": [], "form": [["0", False], ["0", "0"]]},
     "bad scalar false in form"),
    ({"dim": 2, "brackets": [], "form": [["0", "1"], ["1", 0.0]]},
     "bad scalar 0.0 in form"),
]


@pytest.mark.parametrize("obj, message", MULTI_FAULT)
def test_first_error_of_a_multi_fault_algebra_file(obj, message):
    assert _assert_same("algebra", obj)[:2] == ("QuadlieError", message)


def _pair(i, j, *v):
    return {"ij": [i, j], "v": list(v)}


HEIS = {"dim": 3, "brackets": [_b(1, 2, "0", "0", "1")]}

COCYCLE_FAULTS = [
    ({"n": 3, "base": HEIS,
      "pairs": [_pair(2, 1, "0", "0", "1"), _pair(1, 3, "0", "x", "0")]},
     "QuadlieError", "bad scalar 'x' in pair [1, 3]"),
    ({"n": 3, "base": HEIS,
      "pairs": [_pair(1, 2, "0", "0"), _pair(1, 3, "0", "0", "1/0")]},
     "QuadlieError", "bad scalar '1/0' in pair [1, 3]"),
    ({"n": 3, "base": HEIS,
      "pairs": [_pair(1, 2, "0", "0"), _pair(3, 1, "0", "0", "1")]},
     "ValidationError", "covector at (1, 2) must have length 3"),
    ({"n": 3, "base": HEIS,
      "pairs": [_pair(3, 1, "0", "0", "1"), _pair(1, 2, "0", "0")]},
     "ValidationError", "bad pair (3, 1); need 1 <= i < j <= 3"),
    ({"n": 3, "base": HEIS,
      "pairs": [_pair(1, 2, "0", False, "0"), _pair(1, 2, "0", "0", "1")]},
     "QuadlieError", "bad scalar false in pair [1, 2]"),
    ({"n": 3, "base": {"dim": 3, "brackets": [_b(1, 2, "0", "x", "1")]},
      "pairs": [_pair(1, 2, "0", "y")]},
     "QuadlieError", "bad scalar 'x' in bracket (1,2)"),
]


@pytest.mark.parametrize("obj, kind, message", COCYCLE_FAULTS)
def test_first_error_of_a_multi_fault_cocycle_file(obj, kind, message):
    assert _assert_same("cocycle", obj)[:2] == (kind, message)


MATRIX_FAULTS = [
    ("family", {"n": 2, "mats": [[["0", "x"], ["1/0", "0"]], [["0"]]]},
     "bad scalar 'x' in matrix 1"),
    ("family", {"n": 2, "mats": [[["0", "1"], ["-1", "0"]],
                                 [["0", "0"], ["0"]]]},
     "matrix 2: rows differ in length"),
    ("family", {"n": 2, "mats": [[["0", "1"], ["-1", False]], [["0"]]]},
     "bad scalar false in matrix 1"),
    ("family", {"n": 2, "mats": [[["0", "0", "0"], ["0", "0", "0"]],
                                 [["0", "0"], ["0", "0"]]]},
     "matrix 1 must be 2x2"),
    ("chain", {"n": 2, "derivs": [[], [["0", "0/0"], ["0", "0"]]]},
     "bad scalar '0/0' in deriv 1"),
    ("chain", {"n": 2, "derivs": [[], [["0", "0"], "0"]]},
     "deriv 1: matrix must be a list of rows"),
    ("chain", {"n": 2, "derivs": [[["0"]], [["0", "0"], ["0", "0"]]]},
     "derivation 0 must be 0x0"),
    ("chain", {"n": 2, "derivs": [[[]], [["0", "0"], ["0", "0"]]]},
     "derivation 0 must be 0x0"),
]


@pytest.mark.parametrize("kind, obj, message", MATRIX_FAULTS)
def test_first_error_of_a_chain_or_family_file(kind, obj, message):
    assert _assert_same(kind, obj)[1] == message


# ---- the sparse path itself ----

def test_readers_call_no_dense_constructor(monkeypatch, files):
    # the entries go straight into terms and sparse_rows
    def refuse(*args, **kwargs):
        raise AssertionError("dense constructor called")

    for cls in (LieAlgebra, GeneralCocycle, Mat):
        monkeypatch.setattr(cls, "__init__", refuse)
    for kind, (new, _, _) in READERS.items():
        for obj in files[kind][:10]:
            new(obj)


def _strings(x):
    """The distinct str leaves of the JSON tree x."""
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        return set().union(*map(_strings, x))
    return {x} if isinstance(x, str) else set()


@pytest.mark.parametrize("zero", ["0", "0/5"])
def test_readers_parse_each_string_but_zero_once(monkeypatch, files, zero):
    parsed = []
    real = io.scalar

    def counting(x):
        parsed.append(x)
        return real(x)

    monkeypatch.setattr(io, "scalar", counting)
    for kind, (new, _, _) in READERS.items():
        for obj in files[kind][:10]:
            obj = _respell(obj, zero)
            del parsed[:]
            new(obj)
            # one parse per distinct string and memo, and none of "0"; a
            # cocycle file reads its base with a memo of its own
            parts = ([obj["base"], obj["pairs"]] if kind == "cocycle"
                     else [obj])
            assert sorted(parsed) == sorted(
                s for part in parts for s in _strings(part) - {"0"})


def test_key_and_length_checks_are_written_once():
    # LieAlgebra._checked_terms and GeneralCocycle._checked_terms are the
    # one place each class checks a key's range and a value's length
    texts = {p.name: p.read_text(encoding="utf-8")
             for p in SRC.glob("*.py")}
    for message, home in (("not 1 <= i < j <=", "algebra.py"),
                          ("has wrong length", "algebra.py"),
                          ("need 1 <= i < j <=", "tstar.py"),
                          ("must have length", "tstar.py")):
        assert {name: t.count(message) for name, t in texts.items()
                if message in t} == {home: 1}, message
    assert "LieAlgebra(" not in texts["io.py"]
    assert not re.search(r"\bMat\(", texts["io.py"])


@pytest.mark.parametrize("cls", [LieAlgebra, GeneralCocycle])
def test_constructors_check_key_then_entries_then_length(cls):
    # outside callers keep the order of the dense constructors: per key in
    # order, the key's range, the coercion of its entries, its length
    def make(values):
        if cls is LieAlgebra:
            return LieAlgebra(3, values)
        return GeneralCocycle(LieAlgebra(3, {}), values)

    error = ValueError if cls is LieAlgebra else ValidationError
    with pytest.raises(error, match=r"\(3, ?1\)"):
        make({(3, 1): ("x", 0, 0)})
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        make({(1, 2): ("x", 0)})
    with pytest.raises(TypeError, match="floats are not exact"):
        make({(1, 2): (0.5, 0)})
    with pytest.raises(error, match=r"\(1, ?2\).*length|length.*\(1, ?2\)"):
        make({(1, 2): (0, 0), (3, 1): (0, 0, 1)})
    made = make({(1, 2): ("0", "0/5", 0), (1, 3): (0, "1/2", "0")})
    assert list(made.terms.items()) == [((1, 3), ((1, Fraction(1, 2)),))]

"""JSON serialization round trips and input validation."""
import json
from collections import OrderedDict
from fractions import Fraction

import pytest

from quadlie import (GeneralCocycle, QuadlieError, build_chain,
                     coeffs_to_family, heisenberg, parse_coeffs, tstar_extend)
from quadlie.io import (algebra_from_obj, algebra_to_obj, chain_from_obj,
                        chain_to_obj, coeffs_from_obj, coeffs_to_obj, dumps,
                        family_from_obj, family_to_obj,
                        general_cocycle_from_obj, general_cocycle_to_obj,
                        load_json, quadratic_to_obj)


def test_algebra_round_trip():
    q = tstar_extend(parse_coeffs("123+145"))
    obj = algebra_to_obj(q.alg, q.form)
    alg, form = algebra_from_obj(obj)
    assert alg == q.alg
    assert form == q.form


def test_algebra_without_form():
    obj = algebra_to_obj(heisenberg())
    assert "form" not in obj
    alg, form = algebra_from_obj(obj)
    assert alg == heisenberg() and form is None


def test_algebra_obj_shape():
    obj = algebra_to_obj(heisenberg())
    assert obj["dim"] == 3
    assert obj["brackets"] == [{"i": 1, "j": 2, "v": ["0", "0", "1"]}]


def test_quadratic_to_obj_is_algebra_with_form():
    q = tstar_extend(parse_coeffs("123"))
    assert quadratic_to_obj(q) == algebra_to_obj(q.alg, q.form)


def test_algebra_from_obj_rejects_duplicates():
    obj = {"dim": 3, "brackets": [{"i": 1, "j": 2, "v": ["0", "0", "1"]},
                                  {"i": 1, "j": 2, "v": ["0", "0", "2"]}]}
    with pytest.raises(QuadlieError):
        algebra_from_obj(obj)


def test_algebra_from_obj_rejects_malformed():
    with pytest.raises(QuadlieError):
        algebra_from_obj({"brackets": []})
    with pytest.raises(QuadlieError):
        algebra_from_obj({"dim": 3, "brackets": [{"i": 1, "v": []}]})
    # raw JSON floats are refused; exact decimal strings are fine
    with pytest.raises(QuadlieError):
        algebra_from_obj({"dim": 2, "brackets": [
            {"i": 1, "j": 2, "v": ["0", 0.5]}]})
    alg, _ = algebra_from_obj({"dim": 2, "brackets": [
        {"i": 1, "j": 2, "v": ["0", "0.5"]}]})
    from fractions import Fraction
    assert alg.brackets == {(1, 2): (0, Fraction(1, 2))}


def test_coeffs_round_trip():
    c = parse_coeffs("123-2/3*[1,4,5]")
    obj = coeffs_to_obj(c)
    assert coeffs_from_obj(obj) == c


def test_coeffs_obj_shape():
    obj = coeffs_to_obj(parse_coeffs("123"))
    assert obj == {"n": 3, "terms": [{"ijk": [1, 2, 3], "c": "1"}]}


def test_general_cocycle_round_trip():
    w = GeneralCocycle(heisenberg(), {(1, 2): (0, 0, 1), (1, 3): (0, -1, 0),
                                      (2, 3): (1, 0, 0)})
    obj = general_cocycle_to_obj(w)
    back = general_cocycle_from_obj(obj)
    assert back.base == w.base
    assert back.terms == w.terms


@pytest.mark.parametrize("n", [None, 7, 2, "3", True, -1])
def test_general_cocycle_obj_needs_n_equal_to_base_dim(n):
    # the writer puts "n" next to the 3-dim base; a reader that skipped it
    # once loaded "n": 7 over that base
    obj = general_cocycle_to_obj(GeneralCocycle(heisenberg(),
                                                {(1, 2): (0, 0, 1)}))
    if n is None:
        del obj["n"]
    else:
        obj["n"] = n
    with pytest.raises(QuadlieError):
        general_cocycle_from_obj(obj)


def test_chain_round_trip():
    ch = build_chain(parse_coeffs("124+135+236"))
    obj = chain_to_obj(ch)
    assert chain_from_obj(obj) == ch
    # the 0x0 link serializes as an empty list
    assert obj["derivs"][0] == []


def test_family_round_trip():
    fam = coeffs_to_family(parse_coeffs("123+145"))
    assert family_from_obj(family_to_obj(fam)) == fam


def test_dumps_ends_with_newline():
    s = dumps({"a": 1})
    assert s.endswith("\n")
    assert '"a": 1' in s


class _Str(str):
    pass


class _Int(int):
    pass


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}, "b": [], "c": [[], {}, ()]}, [{}, [], [[]]],
    "plain", "h\u00e9llo \u2713 \U0001f600",
    "tab\tnew\nline \"quoted\" back\\slash /\x00\x1f\x7f",
    {"\u043a\u043b\u044e\u0447": ["\u0437\u043d\u0430\u0447", "\x07"],
     "q\"k\n": "v"},
    True, False, None, 1.5, -0.0, float("inf"), float("nan"),
    [True, False, None, 2.5e-300, 10 ** 40, -7, 0],
    {"t": True, "f": None, "x": 1.25},
    (1, "2", (3, [4, ()])), {"t": (1, 2), "u": ((), ("a",))},
    {1: "int key"}, {"a": [{2: "nested int key"}]},
    {None: 1, True: 2, 1.5: 3},
    OrderedDict([("b", 1), ("a", [OrderedDict()])]),
    {"sub": _Str("str subclass"), "n": _Int(3), "l": [_Str("x"), 1]},
    ["a", "b", 1, "c"], [["0", "1"], ["1", "0"]],
], ids=lambda obj: repr(obj)[:40])
def test_dumps_matches_json(obj):
    assert dumps(obj) == json.dumps(obj, indent=2) + "\n"


def test_dumps_keeps_json_errors():
    loop: list = []
    loop.append(loop)
    for bad in (object(), [1, {"a": object()}], {(1, 2): 3}, loop):
        with pytest.raises((TypeError, ValueError)) as want:
            json.dumps(bad, indent=2)
        with pytest.raises(want.type) as got:
            dumps(bad)
        assert str(got.value) == str(want.value)


def test_dumps_matches_json_on_cli_corpus(tmp_path, monkeypatch):
    """Every object the CLI writes in the snapshot corpus, and every input
    file of that corpus, has json's bytes."""
    import quadlie.cli
    import quadlie.io
    from test_cli_snapshot import (COMMANDS, GOLDEN, _input_files, _run,
                                   _write_files)
    seen = []

    def record(obj):
        seen.append(obj)
        return dumps(obj)

    monkeypatch.setattr(quadlie.cli, "dumps", record)
    monkeypatch.setattr(quadlie.io, "dumps", record)
    monkeypatch.delenv("QUADLIE_FORMAT", raising=False)
    files = json.loads(GOLDEN.read_text(encoding="utf-8"))["files"]
    assert _input_files() == files
    _write_files(files, tmp_path)
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS:
        _run(argv)
    assert len(seen) > 80
    kinds = {type(v) for obj in seen for v in _leaves(obj)}
    assert {str, int, bool} <= kinds
    for obj in seen:
        assert dumps(obj) == json.dumps(obj, indent=2) + "\n"


def _leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


def test_load_json_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(QuadlieError) as e:
        load_json(str(bad))
    assert "line" in str(e.value)
    with pytest.raises(QuadlieError):
        load_json(str(tmp_path / "missing.json"))


def test_load_json_round_trip(tmp_path):
    p = tmp_path / "c.json"
    c = parse_coeffs("123+145")
    p.write_text(dumps(coeffs_to_obj(c)))
    assert coeffs_from_obj(load_json(str(p))) == c


def test_algebra_from_obj_parses_each_string_once(monkeypatch):
    from quadlie import io
    q = tstar_extend(parse_coeffs("123+145-2/3*[2,4,5]"))
    obj = quadratic_to_obj(q)
    strings = {e for b in obj["brackets"] for e in b["v"]}
    strings |= {e for row in obj["form"] for e in row}
    parsed = []
    real = io.scalar

    def counting(x):
        parsed.append(x)
        return real(x)

    monkeypatch.setattr(io, "scalar", counting)
    alg, form = algebra_from_obj(obj)
    assert (alg, form) == (q.alg, q.form)
    # one parse per distinct string, shared by the brackets and the form;
    # "0" is skipped unread
    assert "0" in strings
    assert sorted(parsed) == sorted(strings - {"0"}) == ["-1", "-2/3", "1",
                                                         "2/3"]
    # the memo lives for one call: a second load parses again
    algebra_from_obj(obj)
    assert len(parsed) == 2 * (len(strings) - 1)


def test_every_spelling_of_one_reads_as_one():
    # "1", 1, "2/2", "3/3" and "01" are each the value 1, and no check of a
    # form depends on which object holds it
    from quadlie.acceptance import verify_report
    obj = {"dim": 4, "brackets": [{"i": 1, "j": 2,
                                   "v": ["0", "0", "1", "2/2"]}],
           "form": [["0", "0", "1", "0"], ["0", "0", "0", "3/3"],
                    [1, "0", "0", "0"], ["0", "01", "0", "0"]]}
    alg, form = algebra_from_obj(obj)
    entries = [c for _, c in alg.terms[(1, 2)]]
    entries += [e for row in form.sparse_rows for e in row.values()]
    assert entries == [1] * 6
    assert all(type(e) is Fraction for e in entries)
    alg, _ = algebra_from_obj({"dim": 2, "brackets": [
        {"i": 1, "j": 2, "v": ["-1", "1/2"]}]})
    assert [c for _, c in alg.terms[(1, 2)]] == [-1, Fraction(1, 2)]
    # the hyperbolic algebra, and a copy whose bracket breaks invariance
    good = quadratic_to_obj(tstar_extend(parse_coeffs("123")))
    bad = json.loads(json.dumps(good))
    bad["brackets"][0]["v"][5] = "2"
    for base in (good, bad):
        reports = []
        for one in ("1", 1, "2/2", "01"):
            obj = json.loads(json.dumps(base))
            obj["form"] = [[one if e == "1" else e for e in r]
                           for r in obj["form"]]
            reports.append(verify_report(*algebra_from_obj(obj)))
        assert reports == [reports[0]] * 4
        assert reports[0]["invariant"] is (base is good)


def test_algebra_from_obj_memo_keeps_errors():
    # the float 1.0 never meets the parsed "1" or the integer 1
    obj = {"dim": 3, "brackets": [{"i": 1, "j": 2, "v": ["0", 1, "1"]},
                                  {"i": 1, "j": 3, "v": ["0", 1.0, "0"]}]}
    with pytest.raises(QuadlieError, match=r"^bad scalar 1\.0 in "
                                           r"bracket \(1,3\)$"):
        algebra_from_obj(obj)
    # a bad string fails where it is first read, in the brackets ...
    obj = {"dim": 2, "brackets": [{"i": 1, "j": 2, "v": ["x", "0"]}],
           "form": [["0", "x"], ["x", "0"]]}
    with pytest.raises(QuadlieError, match=r"^bad scalar 'x' in "
                                           r"bracket \(1,2\)$"):
        algebra_from_obj(obj)
    # ... or in the form, and again after a good first use of "1"
    obj = {"dim": 2, "brackets": [{"i": 1, "j": 2, "v": ["1", "0"]}],
           "form": [["1", "1/0"], ["1/0", "1"]]}
    with pytest.raises(QuadlieError, match=r"^bad scalar '1/0' in form$"):
        algebra_from_obj(obj)
    obj = {"dim": 3, "brackets": [{"i": 1, "j": 2, "v": ["0", "0", "y"]},
                                  {"i": 1, "j": 3, "v": ["0", "y", "0"]}]}
    with pytest.raises(QuadlieError, match=r"bracket \(1,2\)$"):
        algebra_from_obj(obj)


def test_dimensions_are_read_up_to_the_limit():
    from quadlie.errors import MAX_N, ValidationError
    assert MAX_N == 1000
    assert algebra_from_obj({"dim": 2 * MAX_N, "brackets": []})[0].dim == 2000
    assert coeffs_from_obj({"n": MAX_N, "terms": []}).n == 1000
    assert parse_coeffs(f"[1,2,{MAX_N}]").n == parse_coeffs("0", MAX_N).n
    for read in (lambda: algebra_from_obj({"dim": 2001, "brackets": []}),
                 lambda: coeffs_from_obj({"n": 1001, "terms": []}),
                 lambda: family_from_obj({"n": 1001, "mats": []}),
                 lambda: chain_from_obj({"n": 1001, "derivs": []}),
                 lambda: parse_coeffs("123", 1001),
                 lambda: parse_coeffs("[1,2,1001]"),
                 lambda: parse_coeffs("[1,2," + "9" * 20 + "]")):
        with pytest.raises(ValidationError) as e:
            read()
        assert e.value.law == "limit"

"""JSON serialization round trips and input validation."""
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
    assert alg.bracket_basis(1, 2) == (0, Fraction(1, 2))


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
    assert back.values == w.values


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
    # one parse per distinct string, shared by the brackets and the form
    assert sorted(parsed) == sorted(strings) == ["-1", "-2/3", "0", "1",
                                                 "2/3"]
    # the memo lives for one call: a second load parses again
    algebra_from_obj(obj)
    assert len(parsed) == 2 * len(strings)


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

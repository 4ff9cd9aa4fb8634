"""End-to-end checks of the command-line surface via cli.main(argv)."""
import json
import os
import subprocess
import sys

import pytest

import quadlie
from quadlie import (algebra_from_trivector, build_chain, catalog,
                     coeffs_to_family)
from quadlie.alternating import parse_coeffs
from quadlie.cli import main
from quadlie.io import (chain_to_obj, coeffs_to_obj, dumps, family_to_obj,
                        quadratic_to_obj)


@pytest.fixture(autouse=True)
def _no_format_env(monkeypatch):
    monkeypatch.delenv("QUADLIE_FORMAT", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_catalog_algebra(tmp_path, label):
    q = algebra_from_trivector(catalog(label).trivector)
    path = tmp_path / "alg.json"
    path.write_text(dumps(quadratic_to_obj(q)), encoding="utf-8")
    return path


def test_verify_passes_on_catalog_entry(tmp_path, capsys):
    path = write_catalog_algebra(tmp_path, "L3,1")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0
    assert "lie: yes" in out
    assert "invariant: yes" in out
    assert "nondegenerate: yes" in out
    assert "nilindex: 2" in out
    assert "derived-perp equals centre: yes" in out
    assert out.rstrip().endswith("result: PASS")
    assert err == ""


def test_verify_flags_flipped_sign(tmp_path, capsys):
    # corrupt one structure constant: [e1,e2] = e3* becomes -e3*
    q = algebra_from_trivector(catalog("L3,1").trivector)
    obj = quadratic_to_obj(q)
    ent = next(e for e in obj["brackets"] if (e["i"], e["j"]) == (1, 2))
    assert ent["v"][5] == "1"
    ent["v"][5] = "-1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert "lie: yes" in out  # still 2-step Lie, only invariance breaks
    assert "invariant: no" in out
    assert "invariance defect at" in out
    assert out.rstrip().endswith("result: FAIL")


def test_verify_summary_names_the_jacobi_defect(tmp_path, capsys):
    from test_theorems import _non_lie_base
    q = _non_lie_base()
    path = tmp_path / "nonlie.json"
    path.write_text(dumps(quadratic_to_obj(q)), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "lie: no" in out
    bad = [list(t[:3]) for t in q.alg.jacobi_defect()]
    assert f"  jacobi defect at: {bad}" in out
    assert out.rstrip().endswith("result: FAIL")


def test_verify_json_format(tmp_path, capsys):
    path = write_catalog_algebra(tmp_path, "L5,1")
    code, out, err = run(capsys, "verify", str(path), "--format", "json")
    rep = json.loads(out)
    assert code == 0
    assert rep["pass"] is True
    assert rep["dim"] == 10
    assert rep["type"] == [5, 5]
    assert rep["reduced"] is True


def test_verify_missing_file(tmp_path, capsys):
    code, out, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 1
    assert "error" in json.loads(err)


def test_verify_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    assert "line" in json.loads(err)["error"]


def test_catalog_counts_line(capsys):
    code, out, err = run(capsys, "catalog", "--counts")
    assert code == 0
    assert out == "6:1  8:0  10:1  12:2  14:5  16:13  total:22\n"


def test_catalog_entry_summary(capsys):
    code, out, err = run(capsys, "catalog", "L5,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "L5,1  n=5  dim=10"
    assert lines[1] == "trivector: 123+145"
    assert "[e1,e4] = e5*" in out
    assert "[e4,e5] = e1*" in out


def test_catalog_entry_latex(capsys):
    code, out, err = run(capsys, "catalog", "L3,1", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{alignat*}{3}")
    assert "[e_1,e_2] & = e^*_3" in out


def test_catalog_all_entries_pass(capsys):
    code, out, err = run(capsys, "catalog", "--all")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 22
    assert all(line.startswith("PASS ") for line in lines)


def test_catalog_parametric_entry(capsys):
    code, out, err = run(capsys, "catalog", "--lam", "3/2")
    assert code == 0
    assert "parametric entry  lambda=3/2  n=9  dim=18" in out
    code, out, err = run(capsys, "catalog", "--lam", "0")
    assert code == 1
    assert json.loads(err)["law"] == "nonzero"


@pytest.mark.parametrize("fmt", ["summary", "json", "latex"])
def test_catalog_negative_lambda(capsys, fmt):
    # argparse alone reads -2/3 as an option and exits 2 with usage text
    code, out, err = run(capsys, "catalog", "--lam", "-2/3", "--format", fmt)
    assert (code, err) == (0, "")
    assert run(capsys, "catalog", "--lam=-2/3", "--format", fmt) == \
        (code, out, err)
    if fmt == "summary":
        assert "lambda=-2/3  n=9  dim=18" in out
        proc = _cli_process("catalog", "--lam", "-2/3")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_catalog_unknown_label(capsys):
    code, out, err = run(capsys, "catalog", "five-one")
    assert code == 1
    assert "error" in json.loads(err)


def test_catalog_needs_selector(capsys):
    code, out, err = run(capsys, "catalog")
    assert code == 1
    assert "label" in json.loads(err)["error"]


def test_convert_family_round_trip(tmp_path, capsys):
    text = "2/3*[1,2,3]-145"
    code, out, _ = run(capsys, "convert", "--from", "cocycle",
                       "--to", "family", text, "--n", "5",
                       "--format", "json")
    assert code == 0
    path = tmp_path / "fam.json"
    path.write_text(out, encoding="utf-8")
    code, out2, _ = run(capsys, "convert", "--from", "family",
                        "--to", "cocycle", str(path), "--format", "json")
    assert code == 0
    expected = coeffs_to_obj(parse_coeffs(text, n=5))
    assert json.loads(out2) == expected


def test_convert_chain_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "convert", "--from", "cocycle",
                       "--to", "chain", "123+145", "--n", "5",
                       "--format", "json")
    assert code == 0
    path = tmp_path / "chain.json"
    path.write_text(out, encoding="utf-8")
    code, out2, _ = run(capsys, "convert", "--from", "chain",
                        "--to", "cocycle", str(path), "--format", "json")
    assert code == 0
    expected = coeffs_to_obj(parse_coeffs("123+145", n=5))
    assert json.loads(out2) == expected


def test_convert_chain_summary(capsys):
    code, out, _ = run(capsys, "convert", "--from", "cocycle",
                       "--to", "chain", "123", "--n", "3")
    assert code == 0
    assert out == "chain with 3 links, nnp=True, 2sp=True\n"


def test_convert_to_algebra(capsys):
    code, out, _ = run(capsys, "convert", "--from", "cocycle",
                       "--to", "algebra", "123", "--n", "3")
    assert code == 0
    assert out.splitlines()[0] == "dim 6 algebra, all three routes agree"
    assert "[e1,e2] = e3*" in out


def test_convert_rejects_inline_chain(capsys):
    code, out, err = run(capsys, "convert", "--from", "chain",
                         "--to", "cocycle", "123", "--n", "3")
    assert code == 1
    assert "JSON file" in json.loads(err)["error"]


def test_extend_command(tmp_path, capsys):
    code, out, _ = run(capsys, "convert", "--from", "cocycle",
                       "--to", "chain", "123+145", "--n", "5",
                       "--format", "json")
    path = tmp_path / "chain.json"
    path.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, "extend", "--chain", str(path))
    assert code == 0
    assert "chain of 5 links -> dim 10 algebra, nilindex 2" in out


def test_extend_rejects_non_skew_link(tmp_path, capsys):
    code, out, _ = run(capsys, "convert", "--from", "cocycle",
                       "--to", "chain", "123", "--n", "3",
                       "--format", "json")
    obj = json.loads(out)
    obj["derivs"][1] = [["0", "0"], ["1", "0"]]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, "extend", "--chain", str(path))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "link 1 not skew at (1, 1)",
                               "law": "skew", "witness": [1, 1]}
    assert run(capsys, "convert", "--from", "chain", "--to", "algebra",
               str(path)) == (code, out, err)


def test_convert_rejects_chain_that_extend_rejects(tmp_path, capsys):
    # link 2 reads c_123 = 5 off one triangle, but its other triangle holds
    # 7 where -5 belongs: the link is not skew
    obj = {"n": 3, "derivs": [[], [["0", "0"], ["0", "0"]],
                              [["0", "0", "0", "0"], ["0", "0", "0", "0"],
                               ["0", "7", "0", "0"], ["5", "0", "0", "0"]]]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, extend_err = run(capsys, "extend", "--chain", str(path))
    assert (code, out) == (1, "")
    reports = []
    for to in ("cocycle", "trivector", "family", "chain", "algebra"):
        code, out, err = run(capsys, "convert", "--from", "chain",
                             "--to", to, str(path))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err == extend_err
        reports.append(json.loads(err))
    assert reports[0]["law"] == "skew"
    assert reports[0]["witness"] == [1, 2]
    assert "link 2 not skew" in reports[0]["error"]
    assert all(r == reports[0] for r in reports)


def test_tstar_command(capsys):
    code, out, _ = run(capsys, "tstar", "123", "--n", "3")
    assert code == 0
    assert "dual extension: dim 6, nilindex 2" in out
    assert "[e1,e2] = e3*" in out


def test_family_command(tmp_path, capsys):
    code, out, _ = run(capsys, "convert", "--from", "cocycle",
                       "--to", "family", "123+145", "--n", "5",
                       "--format", "json")
    path = tmp_path / "fam.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "family", str(path))
    assert code == 0
    assert "valid: yes" in out
    assert "stacked rank: 5" in out
    assert "nondegenerate: yes" in out


def test_family_degenerate(tmp_path, capsys):
    code, out, _ = run(capsys, "convert", "--from", "cocycle",
                       "--to", "family", "123", "--n", "4",
                       "--format", "json")
    path = tmp_path / "fam.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "family", str(path))
    assert code == 0
    assert "valid: yes" in out
    assert "stacked rank: 3" in out
    assert "nondegenerate: no" in out


def test_family_summary_lists_each_problem(tmp_path, capsys):
    from quadlie import validate_family
    from quadlie.io import family_from_obj
    obj = family_to_obj(coeffs_to_family(parse_coeffs("123")))
    obj["mats"][0][0][0] = "1"  # M_1 neither skew nor zero in column 1
    path = tmp_path / "fam.json"
    path.write_text(dumps(obj), encoding="utf-8")
    problems = validate_family(family_from_obj(obj))[1]
    assert len(problems) == 2
    code, out, _ = run(capsys, "family", str(path))
    assert code == 1
    assert "valid: no" in out
    assert out.splitlines()[2:4] == [f"  {p}" for p in problems]


def test_rank_command(capsys):
    code, out, _ = run(capsys, "rank", "123+145", "--n", "5")
    assert code == 0
    assert out == "rank: 5\n"
    code, out, _ = run(capsys, "rank", "123", "--n", "4",
                       "--format", "json")
    assert json.loads(out) == {"n": 4, "rank": 3}


def test_random_deterministic(capsys):
    code, out1, _ = run(capsys, "random", "--n", "5", "--seed", "11")
    code2, out2, _ = run(capsys, "random", "--n", "5", "--seed", "11")
    assert code == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["summary"]["coefficients"] == 4
    assert rep["cocycle"]["terms"] == [
        {"ijk": [1, 3, 4], "c": "3"}, {"ijk": [1, 3, 5], "c": "1"},
        {"ijk": [1, 4, 5], "c": "3"}, {"ijk": [2, 3, 4], "c": "-2"}]
    assert rep["summary"]["nilindex"] == 2


def test_random_out_files(tmp_path, capsys):
    prefix = str(tmp_path / "r")
    code, out, _ = run(capsys, "random", "--n", "4", "--seed", "2",
                       "--out", prefix)
    assert code == 0
    assert "wrote" in out
    cpath = tmp_path / "r.cocycle.json"
    apath = tmp_path / "r.algebra.json"
    assert cpath.exists() and apath.exists()
    code, out, _ = run(capsys, "verify", str(apath))
    assert code == 0
    assert "result: PASS" in out


def test_decompose_command(tmp_path, capsys):
    path = write_catalog_algebra(tmp_path, "L3,1")
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 0
    assert "base dim: 3 (abelian)" in out
    assert "cocycle pairs: 3" in out
    assert "isometry verified: yes" in out


@pytest.mark.parametrize("label, perm", [
    ("L3,1", (4, 1, 6, 2, 5, 3)),
    ("L5,1", (10, 1, 2, 9, 3, 8, 4, 7, 5, 6)),
])
def test_decompose_json_isometry_is_the_verified_matrix(tmp_path, capsys,
                                                        label, perm):
    # a relabelled algebra, so that the isometry is not symmetric and its
    # rows cannot be read as its columns
    from quadlie import (Mat, decompose_as_tstar, find_lagrangian_ideal,
                         is_isometry, permute_quadratic, tstar_extend)
    from quadlie.io import general_cocycle_from_obj
    q = permute_quadratic(algebra_from_trivector(catalog(label).trivector),
                          perm)
    path = tmp_path / "alg.json"
    path.write_text(dumps(quadratic_to_obj(q)), encoding="utf-8")
    code, out, err = run(capsys, "decompose", str(path), "--format", "json")
    assert (code, err) == (0, "")
    rep = json.loads(out)
    iso = Mat(rep["isometry"])
    assert iso != iso.transpose()
    assert iso == decompose_as_tstar(q, find_lagrangian_ideal(q))[2]
    w = general_cocycle_from_obj(rep["cocycle"])
    assert is_isometry(q, tstar_extend(w), iso) == (True, "ok")


def test_decompose_without_lagrangian_ideal(tmp_path, capsys):
    # the identity form on Q^4 has no isotropic vector over the rationals
    path = tmp_path / "abelian.json"
    path.write_text(dumps({"dim": 4, "brackets": [], "form": [
        ["1" if r == k else "0" for k in range(4)] for r in range(4)]}),
        encoding="utf-8")
    code, out, err = run(capsys, "decompose", str(path))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "no abelian lagrangian ideal found",
                               "law": "lagrangian"}


def test_decompose_needs_form(tmp_path, capsys):
    q = algebra_from_trivector(catalog("L3,1").trivector)
    obj = quadratic_to_obj(q)
    del obj["form"]
    path = tmp_path / "noform.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 1
    assert "form" in json.loads(err)["error"]


def test_env_format_override(monkeypatch, capsys):
    monkeypatch.setenv("QUADLIE_FORMAT", "json")
    code, out, _ = run(capsys, "catalog", "--counts")
    assert code == 0
    rep = json.loads(out)
    assert rep["total"] == 22
    assert rep["counts"] == {"6": 1, "8": 0, "10": 1, "12": 2,
                             "14": 5, "16": 13}


def test_verify_abelian_quadratic(tmp_path, capsys):
    # D = 0, so D^perp is the whole space, which is the centre
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({"dim": 2, "brackets": [],
                                "form": [["0", "1"], ["1", "0"]]}),
                    encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    rep = json.loads(out)
    assert code == 0
    assert rep["type"] == [0, 2]
    assert rep["derived_perp_equals_centre"] is True


def test_verify_runs_the_jacobi_loop_once(tmp_path, capsys, monkeypatch):
    # every Jacobi evaluation ends by filling the _jacobi cache of its
    # algebra; count those fills through a descriptor around the slot. The
    # file is written first: the T* builder that makes it fills the slot
    # with its known-empty defect, without a Jacobi pass
    from quadlie.algebra import LieAlgebra
    path = write_catalog_algebra(tmp_path, "L5,1")
    slot = LieAlgebra.__dict__["_jacobi"]
    fills = []

    class CountingSlot:
        def __get__(self, obj, cls=None):
            return slot.__get__(obj, cls)

        def __set__(self, obj, value):
            if value is not None:
                fills.append(obj)
            slot.__set__(obj, value)

    monkeypatch.setattr(LieAlgebra, "_jacobi", CountingSlot())
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["nilindex"] == 2
    assert len(fills) == 1


def _cli_process(*argv):
    src = os.path.dirname(os.path.dirname(quadlie.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("QUADLIE_FORMAT", None)
    return subprocess.run([sys.executable, "-m", "quadlie.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)


_FORM = [["0", "1"], ["1", "0"]]


def _body(obj):
    return json.dumps(obj).encode()


def _assert_one_json_error(*argv, in_error=None):
    """Run the CLI on argv: exit 1, empty stdout, no traceback, and one
    JSON error object on stderr, whose message holds in_error if given."""
    proc = _cli_process(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert set(err) <= {"error", "law", "witness"}
    if in_error is not None:
        assert in_error in err["error"]


def _assert_bad_file_is_one_json_error(tmp_path, cmd, body, in_error=None):
    """cmd on a file holding body, in both output formats."""
    path = tmp_path / "bad.json"
    path.write_bytes(body)
    for fmt in ("summary", "json"):
        _assert_one_json_error(*cmd, str(path), "--format", fmt,
                               in_error=in_error)


@pytest.mark.parametrize("body", [
    _body({"dim": 2, "brackets": [], "form": [["0", "1"], ["1"]]}),
    _body({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": 5}], "form": _FORM}),
    _body({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": "12"}],
           "form": _FORM}),
    _body({"dim": 2, "brackets": [{"i": "1", "j": 2, "v": ["0", "0"]}]}),
    _body({"dim": 2, "brackets": [{"i": 1.0, "j": 2, "v": ["0", "0"]}]}),
    _body({"dim": 2, "brackets": 7}),
    _body({"dim": 2, "brackets": [],
           "form": [["0", "1", "0"], ["1", "0", "0"]]}),
    b'{"dim": ' + b"9" * 5000 + b', "brackets": []}',
    b"[" * 100000 + b"]" * 100000,
    b'\xff\xfe{"dim": 2}',
    # JSON true is not the integer 1
    _body({"dim": True, "brackets": []}),
    _body({"dim": 2, "brackets": [{"i": True, "j": 2, "v": ["0", "0"]}],
           "form": _FORM}),
], ids=["ragged-form", "v-int", "v-string", "i-string", "i-float",
        "brackets-int", "form-not-square", "5000-digit-dim",
        "nested-100000-deep", "not-utf8", "dim-true", "i-true"])
def test_verify_bad_input_is_one_json_error(tmp_path, body):
    _assert_bad_file_is_one_json_error(tmp_path, ("verify",), body)


_HEIS = {"dim": 3, "brackets": [{"i": 1, "j": 2, "v": ["0", "0", "1"]}]}


@pytest.mark.parametrize("cmd, body", [
    (("tstar",), _body({"n": 3, "base": _HEIS, "pairs": 7})),
    (("tstar",), _body({"n": 3, "base": _HEIS,
                        "pairs": [{"ij": [1, 2], "v": 5}]})),
    # read as the zero covector (0, 0, 0) if a string were taken as a list
    (("tstar",), _body({"n": 3, "base": _HEIS,
                        "pairs": [{"ij": [1, 2], "v": "000"}]})),
    (("tstar",), _body({"n": 3, "base": _HEIS,
                        "pairs": [{"ij": [1, 2], "v": ["0", "0", "1"]},
                                  {"ij": [1, 2], "v": ["0", "0", "0"]}]})),
    (("tstar",), _body({"n": 3, "terms": 5})),
    (("convert", "--from", "cocycle", "--to", "algebra"),
     _body({"n": 3, "terms": 5})),
    (("rank",), _body({"n": 3, "terms": 5})),
    # JSON true is not the integer 1
    (("rank",), _body({"n": True, "terms": []})),
    (("rank",), _body({"n": 3, "terms": [{"ijk": [True, 2, 3], "c": "1"}]})),
    (("tstar",), _body({"n": 3, "base": _HEIS,
                        "pairs": [{"ij": [True, 2], "v": ["0", "0", "0"]}]})),
    # "n" is written next to the base, and must be its dimension: with the
    # zero cocycle, both files once extended the base
    (("tstar",), _body({"n": 7, "base": _HEIS, "pairs": []})),
    (("tstar",), _body({"base": _HEIS, "pairs": []})),
], ids=["pairs-int", "pair-v-int", "pair-v-string", "pair-duplicate",
        "tstar-terms-int", "convert-terms-int", "rank-terms-int",
        "rank-n-true", "rank-ijk-true", "pair-ij-true", "pairs-n-not-base-dim",
        "pairs-no-n"])
def test_cocycle_bad_input_is_one_json_error(tmp_path, cmd, body):
    _assert_bad_file_is_one_json_error(tmp_path, cmd, body)


# valid files for the coefficients 123 but for their "n"
_CHAIN = chain_to_obj(build_chain(parse_coeffs("123")))
_FAMILY = family_to_obj(coeffs_to_family(parse_coeffs("123")))


@pytest.mark.parametrize("cmd, body", [
    (("extend", "--chain"), _body(dict(_CHAIN, n=3.0))),
    (("extend", "--chain"), _body(dict(_CHAIN, n="3"))),
    (("extend", "--chain"), _body({"n": "1", "derivs": [[]]})),
    (("extend", "--chain"), _body(dict(_CHAIN, n=-1))),
    (("convert", "--from", "chain", "--to", "algebra"),
     _body(dict(_CHAIN, n=3.0))),
    (("family",), _body(dict(_FAMILY, n=3.0))),
    (("family",), _body(dict(_FAMILY, n="3"))),
    (("convert", "--from", "family", "--to", "cocycle"),
     _body(dict(_FAMILY, n=3.0))),
    (("extend", "--chain"), _body(dict(_CHAIN, n=True))),
    (("family",), _body(dict(_FAMILY, n=True))),
], ids=["chain-n-float", "chain-n-string", "chain-n-string-one",
        "chain-n-negative", "convert-chain-n-float", "family-n-float",
        "family-n-string", "convert-family-n-float", "chain-n-true",
        "family-n-true"])
def test_chain_and_family_bad_dimension_is_one_json_error(tmp_path, cmd,
                                                           body):
    # n must be checked as a dimension: a float n reaches range() as a
    # TypeError, and "1" fails the count check as "need 1 derivations,
    # got 1"
    _assert_bad_file_is_one_json_error(tmp_path, cmd, body,
                                       in_error="bad dimension")


@pytest.mark.parametrize("cmd, body, in_error", [
    (("rank",), _body({"n": 3, "terms": [{"ijk": [1, 2, 3], "c": True}]}),
     "bad scalar true in term [1, 2, 3]"),
    (("verify",), _body({"dim": 3, "brackets": [
        {"i": 1, "j": 2, "v": [False, False, True]}]}),
     "bad scalar false in bracket (1,2)"),
    (("verify",), _body({"dim": 2, "brackets": [],
                         "form": [["0", True], [True, "0"]]}),
     "bad scalar true in form"),
    (("tstar",), _body({"n": 3, "base": _HEIS,
                        "pairs": [{"ij": [1, 2], "v": ["0", "0", True]}]}),
     "bad scalar true in pair [1, 2]"),
    (("extend", "--chain"), _body({"n": 3, "derivs": [
        [], [["0", "0"], ["0", "0"]],
        [["0"] * 4, ["0"] * 4, ["0", True, "0", "0"], ["0"] * 4]]}),
     "bad scalar true in deriv 2"),
    (("family",), _body({"n": 1, "mats": [[[False]]]}),
     "bad scalar false in matrix 1"),
], ids=["coefficient", "bracket-value", "form-entry", "pair-value",
        "chain-entry", "family-entry"])
def test_bool_scalar_is_one_json_error(tmp_path, cmd, body, in_error):
    # JSON true and false are not the scalars 1 and 0, though Python
    # counts bools as ints
    _assert_bad_file_is_one_json_error(tmp_path, cmd, body,
                                       in_error=in_error)


def test_zero_coefficients_give_no_chain(capsys, tmp_path):
    # the all-zero chain fails the nnp law when read back, so converting
    # zero coefficients to a chain fails with the same error
    zero = tmp_path / "zero.json"
    zero.write_text(dumps({"n": 3, "derivs": [
        [], [["0"] * 2] * 2, [["0"] * 4] * 4]}), encoding="utf-8")
    read_back = run(capsys, "convert", "--from", "chain", "--to", "cocycle",
                    str(zero))
    code, out, err = run(capsys, "convert", "--from", "cocycle", "--to",
                         "chain", "0", "--n", "3", "--format", "json")
    assert (code, out, err) == read_back
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "all chain derivations are zero",
                               "law": "nnp"}
    # below dimension 3 the dimension error comes first, as before
    code, _, err = run(capsys, "convert", "--from", "cocycle", "--to",
                       "chain", "0", "--n", "2")
    assert code == 1 and json.loads(err)["law"] == "dimension"
    # the other routes still take zero coefficients
    for dst in ("cocycle", "family"):
        assert run(capsys, "convert", "--from", "cocycle", "--to", dst,
                   "0", "--n", "3")[0] == 0


def test_every_written_chain_reads_back(tmp_path, monkeypatch, capsys):
    """Each chain file that `convert --to chain` writes in the snapshot
    corpus reads back through `convert --from chain` to the coefficients
    `convert --to cocycle` gives for the same input."""
    from test_cli_snapshot import COMMANDS, GOLDEN, _write_files
    _write_files(json.loads(GOLDEN.read_text(encoding="utf-8"))["files"],
                 tmp_path)
    monkeypatch.chdir(tmp_path)
    written = 0
    for argv in COMMANDS:
        if (argv[0] != "convert" or argv[argv.index("--to") + 1] != "chain"
                or argv[-1] == "summary"):
            continue
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        (tmp_path / "written.json").write_text(out, encoding="utf-8")
        back = run(capsys, "convert", "--from", "chain", "--to", "cocycle",
                   "written.json", "--format", "json")
        src = list(argv[:argv.index("--format")])
        src[src.index("--to") + 1] = "cocycle"
        assert back == run(capsys, *src, "--format", "json"), argv
        written += 1
    assert written == 8  # four sources, in the json and latex formats


@pytest.mark.parametrize("argv", [
    ("catalog", "--lam", "abc"),
    ("catalog", "--lam", "1/0"),
    ("random", "--n", "4", "--seed", "1", "--density", "1/0"),
    ("random", "--n", "4", "--seed", "1", "--density", ""),
], ids=["lam-word", "lam-zero-denominator", "density-zero-denominator",
        "density-empty"])
def test_bad_rational_option_is_one_json_error(argv):
    _assert_one_json_error(*argv, in_error=argv[-2])


def test_random_out_into_a_missing_directory_is_one_json_error(tmp_path):
    prefix = tmp_path / "missing" / "x"
    _assert_one_json_error("random", "--n", "3", "--seed", "1", "--out",
                           str(prefix), in_error=f"{prefix}.cocycle.json: "
                           "No such file or directory")
    assert not (tmp_path / "missing").exists()


_CONVERT = ("convert", "--from", "cocycle", "--to")


@pytest.mark.parametrize("argv, twin", [
    (("tstar", "-123+234", "--n", "4"), ("tstar", "234-123", "--n", "4")),
    (("tstar", "--n", "4", "-123+234", "--format", "json"),
     ("tstar", "--n", "4", "234-123", "--format", "json")),
    (("tstar", "-2*[1,2,3]+145"), ("tstar", "145-2*[1,2,3]")),
    (("rank", "-123+234", "--n", "4"), ("rank", "234-123", "--n", "4")),
    (("rank", "-[1,2,3]", "--format", "json"),
     ("rank", "-1*[1,2,3]", "--format", "json")),
    (_CONVERT + ("algebra", "-123+234", "--n", "4"),
     _CONVERT + ("algebra", "234-123", "--n", "4")),
    (_CONVERT + ("chain", "-1/2*[1,2,3]+345", "--format", "json"),
     _CONVERT + ("chain", "345-1/2*[1,2,3]", "--format", "json")),
    (("convert", "--from", "trivector", "--to", "family", "-123+145",
      "--format", "json"),
     ("convert", "--from", "trivector", "--to", "family", "145-123",
      "--format", "json")),
    (("catalog", "--lam", "-2/3"), ("catalog", "--lam=-2/3")),
], ids=["tstar", "tstar-option-first", "tstar-bracket-term", "rank",
        "rank-bare-bracket", "convert-algebra", "convert-chain",
        "convert-trivector", "catalog-lam"])
def test_minus_sign_input_matches_its_inline_twin(capsys, argv, twin):
    # argparse alone reads each leading-minus word as an unknown option
    # and exits 2 with usage text
    got = run(capsys, *argv)
    assert got == run(capsys, *twin)
    assert got[0] == 0 and got[1] and got[2] == ""


@pytest.mark.parametrize("argv", [
    ("tstar", "-1x3", "--n", "4"),
    ("rank", "-123+2x4"),
    _CONVERT + ("algebra", "-123", "--n", "2"),
    ("random", "--n", "4", "--seed", "1", "--density", "-1/2"),
    ("tstar", "0", "--n", "-5"),
    ("rank", "0", "--n", "-5"),
    _CONVERT + ("family", "0", "--n", "-5"),
], ids=["tstar-bad-term", "rank-bad-term", "convert-index-too-big",
        "density-negative", "tstar-negative-n", "rank-negative-n",
        "convert-negative-n"])
def test_bad_minus_sign_input_is_one_json_error(argv):
    _assert_one_json_error(*argv)


@pytest.mark.parametrize("argv", [
    ("tstar", "2/0*[1,2,3]"),
    ("rank", "2/0*[1,2,3]"),
], ids=["tstar", "rank"])
def test_zero_denominator_term_is_one_json_error(argv):
    _assert_one_json_error(*argv, in_error="2/0*[1,2,3]")


_LONG = "9" * 5000  # past the interpreter's 4300-digit int() limit


@pytest.mark.parametrize("argv", [
    ("tstar", f"{_LONG}*[1,2,3]", "--n", "3"),
    ("rank", f"{_LONG}*[1,2,3]"),
    ("rank", f"1/{_LONG}*[1,2,3]", "--format", "json"),
    _CONVERT + ("chain", f"{_LONG}*[1,2,3]"),
    _CONVERT + ("algebra", f"[1,2,{_LONG}]", "--format", "json"),
], ids=["tstar", "rank", "rank-denominator", "convert-chain",
        "convert-index"])
def test_over_digit_limit_term_is_one_json_error(argv):
    _assert_one_json_error(*argv, in_error="digits")


@pytest.mark.parametrize("argv", [
    ("catalog", "L3,1"), ("tstar", "123"),
    ("convert", "--from", "cocycle", "--to", "algebra", "123"),
    ("rank", "123"),
])
def test_unknown_env_format_is_one_json_error(monkeypatch, capsys, argv):
    monkeypatch.setenv("QUADLIE_FORMAT", "xml")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "QUADLIE_FORMAT" in json.loads(lines[0])["error"]


def _fake_criteria(monkeypatch, *verdicts):
    from quadlie import acceptance
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", tuple(
        (f"check {k}", lambda ok=ok, k=k: (ok, f"detail {k}"))
        for k, ok in enumerate(verdicts, start=1)))


def test_selftest_text_output_is_unchanged(capsys, monkeypatch):
    _fake_criteria(monkeypatch, True, True)
    assert run(capsys, "selftest") == (
        0, "PASS check 1: detail 1\nPASS check 2: detail 2\n"
           "all 2 checks passed\n", "")
    _fake_criteria(monkeypatch, True, False)
    code, out, err = run(capsys, "selftest", "--format", "summary")
    assert (code, out) == (1, "PASS check 1: detail 1\n"
                              "FAIL check 2: detail 2\n")
    assert json.loads(err) == {"error": "1 of 2 checks failed"}


def test_selftest_json_lists_each_check_with_seconds(capsys, monkeypatch):
    _fake_criteria(monkeypatch, True, False)
    code, out, err = run(capsys, "selftest", "--format", "json")
    rep = json.loads(out)
    assert code == 1 and json.loads(err) == {"error": "1 of 2 checks failed"}
    assert rep["pass"] is False
    assert [{k: v for k, v in c.items() if k != "seconds"}
            for c in rep["checks"]] == [
        {"name": "check 1", "pass": True, "detail": "detail 1"},
        {"name": "check 2", "pass": False, "detail": "detail 2"}]
    assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0
               for c in rep["checks"])
    _fake_criteria(monkeypatch, True)
    monkeypatch.setenv("QUADLIE_FORMAT", "json")
    code, out, err = run(capsys, "selftest")
    assert (code, err) == (0, "") and json.loads(out)["pass"] is True


def _assert_limit_error(capsys, *argv):
    """argv refused in process: exit 1, empty stdout, one JSON error of
    law "limit" on stderr, which is returned."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert json.loads(line)["law"] == "limit"
    assert set(json.loads(line)) == {"error", "law"}
    return json.loads(line)


@pytest.mark.parametrize("argv", [
    ("tstar", "[1,2,1001]"),
    ("tstar", "1*[1,2,1001]+123"),
    ("rank", "[1,2,1001]", "--format", "json"),
    ("tstar", "123", "--n", "1001"),
    ("rank", "0", "--n", "1001"),
    _CONVERT + ("chain", "123", "--n", "1001"),
    ("random", "--n", "1001", "--seed", "1"),
], ids=["tstar-index", "tstar-mixed", "rank-index", "tstar-n", "rank-zero-n",
        "convert-n", "random-n"])
def test_inline_dimension_past_the_limit_is_one_limit_error(capsys, argv):
    _assert_limit_error(capsys, *argv)


@pytest.mark.parametrize("cmd,obj", [
    (("tstar",), {"n": 1001, "terms": []}),
    (("rank",), {"n": 1001, "terms": [{"ijk": [1, 2, 3], "c": "1"}]}),
    (("tstar",), {"n": 1001, "base": {"dim": 3, "brackets": []},
                  "pairs": []}),
    (("extend", "--chain"), {"n": 1001, "derivs": []}),
    (("family",), {"n": 1001, "mats": []}),
    (("verify",), {"dim": 2001, "brackets": []}),
    (("decompose",), {"dim": 2001, "brackets": []}),
], ids=["coeffs", "coeffs-rank", "general-cocycle", "chain", "family",
        "verify", "decompose"])
def test_file_dimension_past_the_limit_is_one_limit_error(tmp_path, capsys,
                                                          cmd, obj):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    _assert_limit_error(capsys, *cmd, str(path))


def test_random_dimension_past_the_limit_writes_nothing(tmp_path, capsys):
    # refused before any of the C(n, 3) triples is listed
    _assert_limit_error(capsys, "random", "--n", "1001", "--seed", "1",
                        "--out", str(tmp_path / "big"))
    assert list(tmp_path.iterdir()) == []


def test_decompose_json_past_the_str_digit_limit_is_one_limit_error(
        tmp_path, capsys):
    # the hyperbolic algebra scaled by 10^2500: its cocycle has a value of
    # about 5,000 digits, past the interpreter's int-to-str limit
    big = 10 ** 2500

    def v(k, c):
        return ["0"] * k + [str(c)] + ["0"] * (5 - k)
    form = [v(i + 3, big) for i in range(3)] + [v(i, big) for i in range(3)]
    obj = {"dim": 6, "brackets": [{"i": 1, "j": 2, "v": v(5, big)},
                                  {"i": 1, "j": 3, "v": v(4, -big)},
                                  {"i": 2, "j": 3, "v": v(3, big)}],
           "form": form}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.endswith("result: PASS\n")
    code, out, _ = run(capsys, "decompose", str(path), "--format", "summary")
    assert code == 0 and "isometry verified: yes" in out
    err = _assert_limit_error(capsys, "decompose", str(path),
                              "--format", "json")
    assert str(sys.get_int_max_str_digits()) in err["error"]


def test_dimension_at_the_limit_is_read(tmp_path, capsys):
    assert run(capsys, "rank", "123", "--n", "1000", "--format", "json") == (
        0, dumps({"n": 1000, "rank": 3}), "")
    assert run(capsys, "rank", "[1,2,1000]") == (0, "rank: 3\n", "")
    path = tmp_path / "at.json"
    path.write_text(json.dumps({"n": 1000, "terms": []}), encoding="utf-8")
    assert run(capsys, "rank", str(path)) == (0, "rank: 0\n", "")

"""Byte-level snapshot of the command-line surface.

Every command in COMMANDS runs in process through cli.main, with
QUADLIE_FORMAT unset, in a directory holding the input files stored in the
golden file. Its exit code and the sha256 of its stdout and stderr must
match the golden file. After an intentional output change, regenerate the
golden file from the source tree with

    PYTHONPATH=src python tests/test_cli_snapshot.py

and name the change in CHANGES.md.
"""
import hashlib
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

GOLDEN = Path(__file__).with_name("cli_golden.json")

_FORMATS = ("summary", "json", "latex")
_LABELS = ("L3,1", "L5,1", "L6,2", "L7,3", "L8,1", "L8,5", "L8,13")
_LAMBDAS = (("--lam", "1"), ("--lam", "-2/3"), ("--lam=3/2",))
_COEFFS = (("123",), ("123+145", "--n", "5"), ("124+135+236",),
           ("2/3*[1,2,3]-[2,4,5]", "--n", "6"), ("cocycle.json",))
_SOURCES = {"cocycle": ("123+145", "--n", "5"),
            "trivector": ("trivector.json",),
            "family": ("fam.json",), "chain": ("chain.json",)}
# a link that is not skew, a skew link that breaks the two-step property,
# and a chain whose links are all zero
_BAD_CHAINS = ("chain-not-skew.json", "chain-not-two-step.json",
               "chain-zero.json")


def _commands():
    out = []
    for fmt in _FORMATS:
        f = ("--format", fmt)
        out += [("catalog", label) + f for label in _LABELS]
        out += [("catalog",) + lam + f for lam in _LAMBDAS]
        out.append(("catalog", "--counts") + f)
        out += [("tstar",) + c + f for c in _COEFFS]
        out += [("convert", "--from", "cocycle", "--to", "algebra") + c + f
                for c in _COEFFS]
        out.append(("extend", "--chain", "chain.json") + f)
        out.append(("rank", "123+145", "--n", "5") + f)
        out += [("verify", name) + f
                for name in ("alg.json", "corrupt.json", "abelian.json")]
        out += [("decompose", name) + f
                for name in ("alg.json", "corrupt.json", "noform.json")]
        out.append(("family", "fam.json") + f)
        out += [("convert", "--from", src, "--to", dst) + arg + f
                for src, arg in _SOURCES.items()
                for dst in tuple(_SOURCES) + ("algebra",)]
        out += [("tstar", name) + f for name in ("split.json", "general.json")]
    out += [
        ("catalog", "--all"),
        ("catalog", "L9,9"),
        ("catalog",),
        ("verify", "missing.json"),
        ("verify", "bad.json"),
        ("convert", "--from", "chain", "--to", "algebra", "123"),
        ("random", "--n", "5", "--seed", "7"),
        ("random", "--n", "6", "--seed", "42", "--density", "1/3",
         "--out", "case"),
    ]
    for name in _BAD_CHAINS:
        out += [("extend", "--chain", name),
                ("convert", "--from", "chain", "--to", "algebra", name)]
    return out


COMMANDS = _commands()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv) -> dict:
    from quadlie.cli import main
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return {"argv": list(argv), "code": code,
            "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue())}


def _write_files(files: dict, where: Path):
    for name, text in files.items():
        (where / name).write_text(text, encoding="utf-8")


def test_cli_matches_golden(tmp_path, monkeypatch):
    monkeypatch.delenv("QUADLIE_FORMAT", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden["commands"]] == \
        [list(a) for a in COMMANDS]
    _write_files(golden["files"], tmp_path)
    monkeypatch.chdir(tmp_path)
    bad = [g["argv"] for g in golden["commands"] if _run(g["argv"]) != g]
    assert bad == []


def _input_files() -> dict:
    from quadlie import algebra_from_trivector, catalog, heisenberg
    from quadlie.alternating import parse_coeffs
    from quadlie.convert import build_chain, coeffs_to_family
    from quadlie.io import (chain_to_obj, coeffs_to_obj, dumps,
                            family_to_obj, general_cocycle_to_obj,
                            quadratic_to_obj)
    from quadlie.tstar import GeneralCocycle
    from reference import _dense_direct_sum
    c = parse_coeffs("123+145", n=5)
    zero2, zero4 = [["0"] * 2] * 2, [["0"] * 4] * 4
    alg = quadratic_to_obj(algebra_from_trivector(catalog("L3,1").trivector))
    corrupt = json.loads(json.dumps(alg))
    v = corrupt["brackets"][0]["v"]
    k = next(t for t, e in enumerate(v) if e != "0")
    v[k] = str(-int(v[k]))
    return {
        "alg.json": dumps(alg),
        "corrupt.json": dumps(corrupt),
        "abelian.json": dumps({"dim": 2, "brackets": [],
                               "form": [["0", "1"], ["1", "0"]]}),
        "noform.json": dumps({"dim": 3, "brackets": [
            {"i": 1, "j": 2, "v": ["0", "0", "1"]}]}),
        "bad.json": "{\"dim\": 2,\n",
        "cocycle.json": dumps(coeffs_to_obj(c)),
        "trivector.json": dumps(coeffs_to_obj(parse_coeffs("124+135+236"))),
        "fam.json": dumps(family_to_obj(coeffs_to_family(c))),
        "chain.json": dumps(chain_to_obj(build_chain(c))),
        "chain-not-skew.json": dumps({"n": 3, "derivs": [
            [], zero2, [["0", "0", "0", "0"], ["0", "0", "0", "0"],
                        ["0", "7", "0", "0"], ["5", "0", "0", "0"]]]}),
        "chain-not-two-step.json": dumps({"n": 3, "derivs": [
            [], [["1", "0"], ["0", "-1"]], zero4]}),
        "chain-zero.json": dumps({"n": 3, "derivs": [[], zero2, zero4]}),
        "split.json": dumps(general_cocycle_to_obj(GeneralCocycle(
            heisenberg(), {}))),
        "general.json": dumps(general_cocycle_to_obj(GeneralCocycle(
            _dense_direct_sum(heisenberg(), heisenberg()),
            {(1, 4): (0, 0, 1, 0, 0, 0), (1, 6): (0, 0, 0, -1, 0, 0),
             (3, 4): (1, 0, 0, 0, 0, 0)}))),
    }


def _regenerate():
    import tempfile
    files = _input_files()
    os.environ.pop("QUADLIE_FORMAT", None)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write_files(files, Path(tmp))
        os.chdir(tmp)
        try:
            commands = [_run(argv) for argv in COMMANDS]
        finally:
            os.chdir(here)
    # one command per line keeps the file small and its diffs readable
    lines = ",\n".join(json.dumps(c) for c in commands)
    GOLDEN.write_text(f'{{"files": {json.dumps(files, indent=1)},\n'
                      f'"commands": [\n{lines}\n]}}\n', encoding="utf-8")
    print(f"wrote {len(commands)} commands to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()

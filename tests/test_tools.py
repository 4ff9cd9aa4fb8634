"""tools/pairs.py's claim arithmetic on synthetic run results,
tools/layers.py's elimination counts on a tiny synthetic case list, and
one chain and one dense rung of tools/ladder.py at dim 40: each tool is
loaded from its file. No git runs; the two rungs are the only
subprocesses, each a fresh interpreter."""
import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _result(rate, p50=1.0, failed=0, correct=True):
    """A run.py result line with two metrics."""
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"cases_per_s": {"value": rate},
                        "case_p50_ms": {"value": p50}}}


def _runs(parent, change):
    return [("parent" if k % 2 == 0 else "change", _result(p), _result(c))
            for k, (p, c) in enumerate(zip(parent, change))]


def test_spread_is_median_and_quartiles():
    assert pairs.spread([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0}
    values = [1.0, 2.0, 4.0, 8.0, 16.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert pairs.spread(values) == {"median": 4.0, "q1": q1, "q3": q3}


def test_claim_counts_wins_and_gain():
    parent = [100.0, 110.0, 90.0, 100.0]
    change = [120.0, 110.0, 80.0, 130.0]  # a tie and a loss
    block = pairs.claim(_runs(parent, change), "catalog-verify", 7, "cmd")
    assert block["metric"] == "catalog-verify cases_per_s"
    assert block["command"] == "cmd"
    assert block["wins"] == 2  # the tie counts for neither side
    assert [(x["parent"], x["change"], x["first"]) for x in block["pairs"]] \
        == [(100.0, 120.0, "parent"), (110.0, 110.0, "change"),
            (90.0, 80.0, "parent"), (100.0, 130.0, "change")]
    assert all(x["seed"] == 7 and x["failed"] == [0, 0]
               and x["correct"] == [True, True] for x in block["pairs"])
    assert block["parent"]["median"] == 100.0
    assert block["change"]["median"] == 115.0
    assert block["gain"] == pytest.approx(0.15)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert block["parent_iqr"] == q3 - q1
    assert block["median_difference"] == 15.0
    others = block["other_metrics"]
    assert list(others) == ["case_p50_ms"]
    assert others["case_p50_ms"]["change"]["values"] == [1.0] * 4


_FLAT = [100.0, 100.0, 100.0, 100.0]
_WIDE = [60.0, 100.0, 140.0, 100.0]  # IQR 40% of the median


@pytest.mark.parametrize("par, chg, better, want", [
    (_FLAT, [96.0, 95.0, 97.0, 96.0], "higher", "within"),
    (_FLAT, [89.0, 91.0, 88.0, 89.0], "higher", "worse"),
    (_FLAT, [111.0, 109.0, 110.0, 112.0], "lower", "worse"),
    (_FLAT, [104.0, 109.0, 103.0, 101.0], "lower", "within"),
    (_FLAT, [80.0, 70.0, 90.0, 85.0], "lower", "within"),
    (_WIDE, [100.0, 100.0, 100.0, 100.0], "higher", "unresolved"),
    (_WIDE, [30.0, 35.0, 40.0, 50.0], "higher", "unresolved"),
    # every change run beats every parent run: no spread hides that
    (_WIDE, [150.0, 141.0, 160.0, 155.0], "higher", "within"),
    (_WIDE, [50.0, 55.0, 40.0, 59.0], "lower", "within"),
], ids=["higher-within", "higher-worse", "lower-worse", "lower-within",
        "lower-better", "wide-level", "wide-worse", "wide-all-beat",
        "wide-all-beat-lower"])
def test_verdict_against_the_bound(par, chg, better, want):
    assert pairs.verdict(par, chg, better, 0.1) == want


def test_claim_gives_each_end_to_end_metric_a_verdict():
    bounds = pairs.end_to_end()
    assert bounds["cases_per_s"] == ("higher", 0.1)
    assert bounds["case_p50_ms"] == ("lower", 0.15)
    runs = [(first, _result(r, p50=1.0), _result(r * 0.95, p50=p50))
            for first, r, p50 in (("parent", 100.0, 1.1),
                                  ("change", 102.0, 1.2),
                                  ("parent", 98.0, 1.2))]
    block = pairs.claim(runs, "w", 1, "cmd")
    assert block["verdict"] == "within"  # 5% slower against a 10% bound
    assert block["other_metrics"]["case_p50_ms"]["verdict"] == "worse"


def test_a_tie_in_every_pair_wins_nothing():
    block = pairs.claim(_runs([50.0] * 3, [50.0] * 3), "w", 1, "cmd")
    assert block["wins"] == 0 and block["gain"] == 0
    assert block["parent_iqr"] == 0 and block["median_difference"] == 0


@pytest.mark.parametrize("side", [1, 2])
@pytest.mark.parametrize("bad", [{"failed": 1}, {"correct": False},
                                 {"failed": 3, "correct": False}])
def test_a_failed_or_wrong_run_stops_the_claim(side, bad):
    runs = _runs([100.0, 100.0], [120.0, 120.0])
    first, p, c = runs[1]
    res = [first, p, c]
    res[side] = {**res[side], **bad}
    runs[1] = tuple(res)
    with pytest.raises(SystemExit) as e:
        pairs.claim(runs, "w", 1, "cmd")
    assert "no claim is made" in str(e.value)
    assert pairs.checked(_result(1.0), "x") == _result(1.0)


# ---- tools/layers.py on a tiny synthetic case list ----

_LAYERS = Path(__file__).resolve().parent.parent / "tools" / "layers.py"
_lspec = importlib.util.spec_from_file_location("layers", _LAYERS)
layers = importlib.util.module_from_spec(_lspec)
_lspec.loader.exec_module(layers)


def test_layers_counts_eliminations_by_caller_and_shape():
    from types import SimpleNamespace

    from quadlie import (Mat, QuadraticStructure, abelian, derivation_space,
                         forms, hyperbolic_form, kernel, linalg)
    aq = QuadraticStructure(abelian(4), hyperbolic_form(2))
    m = Mat([[1, 2, 3], [2, 4, 6]])
    cases = [SimpleNamespace(run=lambda: derivation_space(aq)),
             SimpleNamespace(run=lambda: kernel(m)),
             SimpleNamespace(run=lambda: linalg.rref(m)),
             SimpleNamespace(run=lambda: linalg.rank(m)),
             SimpleNamespace(run=lambda: linalg._eliminate(m))]
    orig = linalg._eliminate
    out = layers.record(cases)
    # every binding restored
    assert linalg._eliminate is orig and forms._eliminate is orig
    space = "doubleext.derivation_space"
    calls = {chain: row["calls"] for chain, row in out["by_caller"].items()}
    assert calls == {f"{space} > linalg.inverse": 1,
                     f"{space} > linalg._kernel_rows": 1,
                     f"{space} > linalg.Subspace._of > linalg.rref": 1,
                     "linalg.kernel > linalg._kernel_rows": 1,
                     "linalg.kernel > linalg.Subspace._of > linalg.rref": 1,
                     "linalg.rref": 1, "linalg.rank": 1,
                     "(outside quadlie)": 1}
    assert out["eliminate"]["calls"] == 8
    # the form is 4x4, inverted as [F | I]; no triple has a bracket, so
    # the law has no rows; the 6 unknowns map to 16 entries; m and its
    # two kernel rows are 2x3
    shapes = {k: row["calls"] for k, row in out["by_shape"].items()}
    assert shapes == {"4x8": 1, "0x6": 1, "6x16": 1, "2x3": 5}
    assert out["by_function"][space]["calls"] == 3
    assert out["by_function"]["linalg._kernel_rows"]["calls"] == 2
    assert out["by_function"]["linalg.kernel"]["calls"] == 2
    assert out["by_function"]["linalg.rref"]["calls"] == 3
    tables = [out["by_caller"], out["by_function"], out["by_shape"]]
    for table in tables:
        secs = [row["seconds"] for row in table.values()]
        assert secs == sorted(secs, reverse=True) and min(secs) >= 0
    assert sum(r["seconds"] for r in out["by_caller"].values()) == \
        pytest.approx(out["eliminate"]["seconds"])


# ---- tools/ladder.py: one rung of each kind, in a child interpreter ----

_LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"
_dspec = importlib.util.spec_from_file_location("ladder", _LADDER)
ladder = importlib.util.module_from_spec(_dspec)
_dspec.loader.exec_module(ladder)


@pytest.mark.parametrize("kind", ["chain", "dense"])
def test_ladder_rung_reports_every_timing_and_a_peak(kind):
    # the rung exits nonzero, and rung raises, on a wrong nilindex,
    # reducedness or rank
    src = str(Path(ladder.ROOT) / "src")
    out = ladder.rung(src, kind, 40)
    keys = ("tstar_extend_s", "nilindex_s", "is_reduced_s", "wall_s",
            "rank_s")
    assert set(out) == {*keys, "peak_rss_mb"}
    assert all(out[k] >= 0 for k in keys) and out["peak_rss_mb"] > 0

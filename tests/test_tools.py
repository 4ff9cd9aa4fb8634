"""tools/pairs.py's claim arithmetic on synthetic run results: the tool is
loaded from its file, and no subprocess or git runs."""
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

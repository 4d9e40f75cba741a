import importlib.util
import json
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairbench", Path(__file__).resolve().parents[1] / "tools" / "pairbench.py")
pairbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairbench)

METRIC = {"name": "iter_ms", "unit": "ms", "better": "lower", "bound": 0.2}


def test_quartiles_are_the_exclusive_quantiles_and_one_value_is_all_three():
    assert pairbench.quartiles([8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]) == (2.25, 4.5, 6.75)
    assert pairbench.quartiles([5.0, 1.0, 3.0]) == (1.0, 3.0, 5.0)
    assert pairbench.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_medians_and_quartiles_of_each_side():
    got = pairbench.compare([4.0, 1.0, 3.0, 2.0], [5.0, 6.0, 8.0, 7.0], "lower", 0.25)
    assert (got["parent"]["q1"], got["parent"]["median"], got["parent"]["q3"]) == (1.25, 2.5, 3.75)
    assert (got["change"]["q1"], got["change"]["median"], got["change"]["q3"]) == (5.25, 6.5, 7.75)
    assert got["parent"]["values"] == [4.0, 1.0, 3.0, 2.0]
    assert got["parent_spread"] == 1.0


@pytest.mark.parametrize("direction, wins", [("lower", (1, 2)), ("higher", (2, 1))])
def test_a_tie_counts_for_neither_side(direction, wins):
    got = pairbench.compare([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.5, 5.0], direction, 0.25)
    assert (got["change_wins"], got["parent_wins"], got["ties"]) == (*wins, 1)


def pairs(n_change_wins: int, gap: float) -> tuple[list[float], list[float]]:
    """Ten pairs around a parent of 10.0 +- 0.2 (quartile spread 0.2); the change
    reads `gap` lower in its first n_change_wins pairs and 0.05 higher in the rest."""
    parent = [10.0 + d for d in (-0.2, -0.1, -0.1, 0.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.2)]
    change = [p - gap if i < n_change_wins else p + 0.05 for i, p in enumerate(parent)]
    return parent, change


@pytest.mark.parametrize("n_change_wins, gap, gain", [
    (9, 0.5, True),    # nine in ten, medians 0.5 apart against a spread of 0.2
    (10, 0.5, True),
    (8, 0.5, False),   # eight in ten is not enough
    (10, 0.15, False),  # every pair, but the medians are within the parent's spread
])
def test_a_gain_needs_nine_wins_in_ten_and_medians_apart_by_more_than_the_spread(
        n_change_wins, gap, gain):
    parent, change = pairs(n_change_wins, gap)
    got = pairbench.compare(parent, change, "lower", 0.25)
    assert got["change_wins"] == n_change_wins
    assert math.isclose(got["parent"]["q3"] - got["parent"]["q1"], 0.2)
    assert got["gain"] is gain
    # the same numbers read the other way are a loss, never a gain
    flipped = pairbench.compare([-p for p in parent], [-c for c in change], "higher", 0.25)
    assert flipped["change_wins"] == n_change_wins and flipped["gain"] is gain
    assert not pairbench.compare(change, parent, "lower", 0.25)["gain"]


@pytest.mark.parametrize("direction, change, verdict", [
    ("lower", 12.6, "regressed"),   # 26 % higher, past the bound of 25 %
    ("lower", 12.4, "within"),
    ("lower", 5.0, "within"),
    ("higher", 7.4, "regressed"),   # 26 % lower
    ("higher", 7.6, "within"),
    ("higher", 20.0, "within"),
])
def test_the_bound_rule_follows_better(direction, change, verdict):
    got = pairbench.compare([10.0] * 5, [change] * 5, direction, 0.25)
    assert got["verdict"] == verdict
    assert got["parent_spread"] == 0.0


def test_a_parent_spread_wider_than_the_bound_is_unresolved_unless_every_run_reads_better():
    parent = [6.0, 8.0, 10.0, 12.0, 14.0]  # quartiles 7 and 13 around 10: a spread of 0.6

    def verdict(change, direction="lower", bound=0.25):
        return pairbench.compare(parent, change, direction, bound)["verdict"]

    assert verdict(parent) == "unresolved"
    assert verdict([5.0, 5.5, 4.0, 5.9, 3.0]) == "within"
    assert verdict([5.0, 5.5, 4.0, 6.0, 3.0]) == "unresolved"  # 6.0 ties the best parent run
    assert verdict([15.0, 16.0, 17.0, 18.0, 19.0], "higher") == "within"
    assert verdict(parent, bound=0.7) == "within"
    # a median worse by more than the bound is a regression, whatever the spread
    assert verdict([p * 1.3 for p in parent]) == "regressed"


def test_bit_equal_means_every_pair_read_the_same_value():
    assert pairbench.compare([0.1, 0.2], [0.1, 0.2], "lower", 0.25)["bit_equal"]
    assert not pairbench.compare([0.1, 0.2], [0.1, 0.2 + 2**-55], "lower", 0.25)["bit_equal"]


@pytest.mark.parametrize("drop", ["better", "bound"])
def test_a_manifest_metric_without_better_or_bound_is_refused(drop):
    metric = {k: v for k, v in METRIC.items() if k != drop}
    with pytest.raises(ValueError, match="iter_ms"):
        pairbench.manifest_metrics({"end_to_end": [METRIC, metric]})


@pytest.mark.parametrize("field, value", [
    ("better", "faster"), ("bound", -0.1), ("bound", math.inf), ("bound", True), ("bound", "0.2"),
    ("unit", None), ("name", 3)])
def test_a_manifest_metric_with_a_bad_field_is_refused(field, value):
    with pytest.raises(ValueError, match="needs a name"):
        pairbench.manifest_metrics({"end_to_end": [{**METRIC, field: value}]})


def test_the_repository_manifest_is_accepted():
    manifest = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"] for m in pairbench.manifest_metrics(manifest)]
    assert "t_err_med" in names and "r_err_med_deg" in names


def test_summarize_reads_each_runs_counts_environment_and_metrics():
    env = {"nproc": 2, "blas": "openblas 0.3", "python": "3.11.7", "numpy": "2.4.6",
           "blas_threads": "1"}

    def result(iter_ms, failed=1):
        return {"correct": True, "attempted": 467, "failed": failed, "environment": env,
                "end_to_end": {"iter_ms": iter_ms}}

    runs = [{"pair": 0, "first": "parent", "parent": result(20.0), "change": result(19.0)},
            {"pair": 1, "first": "change", "parent": result(21.0), "change": result(18.0, 2)}]
    got = pairbench.summarize(runs, [METRIC])
    assert got["runs"][1] == {"pair": 1, "first": "change",
                              "parent": {"correct": True, "attempted": 467, "failed": 1},
                              "change": {"correct": True, "attempted": 467, "failed": 2}}
    assert got["environment"]["change"] == [{k: env[k] for k in ("nproc", "blas", "python",
                                                                  "numpy")}]
    iter_ms = got["metrics"]["iter_ms"]
    assert (iter_ms["unit"], iter_ms["better"], iter_ms["bound"]) == ("ms", "lower", 0.2)
    assert iter_ms["parent"]["values"] == [20.0, 21.0] and iter_ms["change_wins"] == 2

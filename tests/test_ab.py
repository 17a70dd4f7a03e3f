"""The summary arithmetic of ``tools/ab.py``, the A/B protocol of the
benchmark, on fixed run records; no benchmark runs."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

END_TO_END = [{"name": "setup_s", "better": "lower", "bound": 0.25},
              {"name": "infer_ev_s", "better": "higher", "bound": 0.25}]


def result(setup_s, infer_ev_s, failed=0, exit=0, correct=True) -> dict:
    return {"correct": correct, "attempted": 10, "failed": failed, "exit": exit,
            "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                        "infer_ev_s": {"value": infer_ev_s, "unit": "ev/s"}}}


class TestSummarizeMetric:
    def test_higher_is_better(self):
        s = ab.summarize_metric([10.0, 11.0, 12.0, 13.0], [15.0, 16.0, 12.0, 18.0],
                                "higher", 0.25)
        assert s["parent"] == {"q1": 10.75, "median": 11.5, "q3": 12.25}
        assert s["change"] == {"q1": 14.25, "median": 15.5, "q3": 16.5}
        assert s["ratio_of_medians"] == pytest.approx(15.5 / 11.5)
        assert s["median_of_pair_ratios"] == pytest.approx((16 / 11 + 18 / 13) / 2)
        assert (s["min_pair_ratio"], s["max_pair_ratio"]) == (1.0, 1.5)
        assert s["change_wins"] == "3/4"  # the tie counts for neither side
        assert (s["median_gap"], s["parent_iqr"]) == (4.0, 1.5)
        assert not s["gain_clear"]  # 3 of 4 is below nine tenths
        assert s["change_worse_by_fraction_of_parent_median"] == pytest.approx(-4 / 11.5)
        assert s["within_bound"]
        assert s["parent_drift"]  # halves' medians 10.5 and 12.5, 2.0 apart

    def test_lower_is_better(self):
        parent = [1.0, 1.0, 1.2, 1.0, 1.1, 1.0, 1.1, 1.0, 1.0, 1.2]
        change = [0.8, 0.8, 0.9, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 1.3]
        s = ab.summarize_metric(parent, change, "lower", 0.25)
        assert s["change_wins"] == "9/10"
        assert s["median_gap"] == pytest.approx(0.2)
        assert s["parent_iqr"] == pytest.approx(0.1)
        assert s["gain_clear"] and s["within_bound"] and not s["parent_drift"]

    def test_worse_past_the_bound(self):
        s = ab.summarize_metric([1.0, 1.0], [1.3, 1.2], "lower", 0.25)
        assert s["change_worse_by_fraction_of_parent_median"] == pytest.approx(0.25)
        assert s["within_bound"]  # exactly at the bound
        s = ab.summarize_metric([100.0, 100.0], [70.0, 74.0], "higher", 0.25)
        assert s["change_worse_by_fraction_of_parent_median"] == pytest.approx(0.28)
        assert not s["within_bound"] and s["change_wins"] == "0/2"

    def test_one_pair_has_no_halves(self):
        s = ab.summarize_metric([2.0], [3.0], "higher", 0.25)
        assert not s["parent_drift"] and s["parent_iqr"] == 0.0 and s["gain_clear"]

    def test_pairs_left_out_count_as_not_won(self):
        parent, change = [1.0] * 9, [2.0] * 9
        assert ab.summarize_metric(parent, change, "higher", 0.25)["gain_clear"]
        s = ab.summarize_metric(parent, change, "higher", 0.25, pairs_run=11)
        assert s["change_wins"] == "9/9" and not s["gain_clear"]  # 9 of 11 run
        assert ab.summarize_metric(parent, change, "higher", 0.25, pairs_run=10)["gain_clear"]

    def test_spread_past_the_bound_unresolved(self):
        # setup_s spread wider than its bound: quartiles 0.216-0.279 s
        parent = [0.216, 0.216, 0.240, 0.279, 0.314]
        s = ab.summarize_metric(parent, [0.22, 0.23, 0.25, 0.26, 0.326], "lower", 0.25)
        assert s["parent_iqr"] == pytest.approx(0.063) and s["within_bound"]
        assert s["unresolved"]
        s = ab.summarize_metric(parent, [0.20, 0.21, 0.19, 0.20, 0.21], "lower", 0.25)
        assert not s["unresolved"]  # every change run beats every parent run
        s = ab.summarize_metric(parent, [0.20, 0.30, 0.19, 0.20, 0.21], "lower", 0.25)
        assert s["unresolved"]  # one change run reads worse than a parent run
        s = ab.summarize_metric(parent, [0.20, 0.21, 0.19, 0.20, 0.21], "lower", 0.30)
        assert not s["unresolved"]  # 0.063 is within 0.30 x 0.240
        s = ab.summarize_metric([10.0, 11.0, 12.0, 13.0], [9.0, 12.0, 11.0, 14.0],
                                "higher", 0.25)
        assert not s["unresolved"]  # 1.5 is within 0.25 x 11.5

    def test_direction_named(self):
        with pytest.raises(ValueError, match="better"):
            ab.summarize_metric([1.0], [1.0], "faster", 0.25)


class TestSummarizeSeries:
    def test_failed_runs_counted_and_left_out(self):
        runs = {
            "1": {"parent": result(0.20, 100.0), "change": result(0.21, 150.0)},
            "2": {"parent": result(0.22, 110.0, failed=1), "change": result(0.19, 160.0)},
            "3": {"parent": result(0.20, 90.0),
                  "change": {"correct": False, "exit": 1, "stderr_tail": "boom"}},
        }
        s = ab.summarize_series(runs, END_TO_END)
        assert (s["pairs"], s["complete_pairs"]) == (3, 2)
        assert s["failed_operations"] == {"parent": 1, "change": 0}
        assert s["attempted_operations"] == {"parent": 30, "change": 20}
        assert s["incorrect_runs"] == {"parent": 0, "change": 1}
        infer = s["end_to_end"]["infer_ev_s"]
        assert infer["parent"]["median"] == 105.0 and infer["change"]["median"] == 155.0
        assert infer["change_wins"] == "2/2"
        assert s["end_to_end"]["setup_s"]["change_wins"] == "1/2"

    def test_gain_clear_when_every_pair_completes(self):
        runs = {str(i): {"parent": result(0.2, 100.0 + i), "change": result(0.2, 150.0 + i)}
                for i in range(8)}
        infer = ab.summarize_series(runs, END_TO_END)["end_to_end"]["infer_ev_s"]
        assert infer["change_wins"] == "8/8" and infer["gain_clear"]
        runs["8"] = {"parent": result(0.2, 100.0), "change": result(0.2, 150.0, exit=1)}
        infer = ab.summarize_series(runs, END_TO_END)["end_to_end"]["infer_ev_s"]
        assert infer["change_wins"] == "8/8" and not infer["gain_clear"]  # 8 of 9 run

    def test_no_complete_pair(self):
        runs = {"1": {"parent": result(0.2, 1.0), "change": result(0.2, 1.0, exit=2)}}
        assert ab.summarize_series(runs, END_TO_END)["end_to_end"] == {}


# A stand-in for perfbench/run.py: prints a result line and, unless told
# not to by its tree's ``quiet`` file, writes the details file.
STUB_RUN = """\
import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
out = pathlib.Path("perfbench/out")
if not pathlib.Path("quiet").exists():
    name = f"{args['--workload']}-seed{args['--seed']}-trace0.json"
    (out / name).write_text(json.dumps({"accuracy": 0.65, "accuracy_floor": 0.75,
                                        "problems": ["accuracy 0.6500 below the floor 0.75"],
                                        "seed": int(args["--seed"])}))
print(json.dumps({"correct": False, "attempted": 3, "failed": 0, "metrics": {}}))
"""


class TestRunOnce:
    @pytest.fixture
    def tree(self, tmp_path):
        (tmp_path / "perfbench" / "out").mkdir(parents=True)
        (tmp_path / "perfbench" / "run.py").write_text(STUB_RUN)
        return tmp_path

    def test_details_of_the_run_recorded(self, tree):
        details = tree / "perfbench" / "out" / "w-seed7-trace0.json"
        details.write_text(json.dumps({"accuracy": 1.0}))  # an earlier run's
        os.utime(details, ns=(0, 0))
        run = ab.run_once(tree, "w", 7, 1.0)
        assert run == {"correct": False, "attempted": 3, "failed": 0, "metrics": {},
                       "accuracy": 0.65, "accuracy_floor": 0.75,
                       "problems": ["accuracy 0.6500 below the floor 0.75"], "exit": 0}

    def test_stale_details_ignored(self, tree):
        (tree / "quiet").touch()
        assert "accuracy" not in ab.run_once(tree, "w", 7, 1.0)  # no file at all
        details = tree / "perfbench" / "out" / "w-seed7-trace0.json"
        details.write_text(json.dumps({"accuracy": 1.0, "accuracy_floor": 0.75,
                                       "problems": []}))
        run = ab.run_once(tree, "w", 7, 1.0)
        assert run == {"correct": False, "attempted": 3, "failed": 0, "metrics": {},
                       "exit": 0}


def test_seed_ranges():
    assert ab.parse_seeds("2901-2903") == [2901, 2902, 2903]
    assert ab.parse_seeds("7") == [7]
    with pytest.raises(ValueError, match="empty"):
        ab.parse_seeds("5-4")

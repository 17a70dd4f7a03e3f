"""Alternating parent/change pairs of the benchmark, and their summary.

    python3 tools/ab.py --parent ../parent --change . --workload pooled-2l64 \\
        --seeds 2901-2910 --seconds 25 --out BENCH_29.json

Each seed is one pair: ``python3 perfbench/run.py --workload W --seed N
--seconds S`` run once in each checkout, one run at a time, the parent
first on even pair indices and the change first on odd ones. Each run's
last line of standard output is its result (correct, attempted, failed,
metrics). The series goes into ``--out`` under the key ``W (seeds
A-B)``, beside the series the file already holds, with every run and,
for each end-to-end metric of the change's ``BENCHMARK.json``:

- each side's quartiles and median (numpy's linear percentiles);
- the ratio of the medians, and the median, least and largest of the
  pair ratios, change over parent;
- the pairs the change won, ties counting for neither side;
- the gap between the medians in the better direction, against the
  parent's quartile distance;
- ``gain_clear``: whether the change won at least nine tenths of all
  pairs run, a pair with a failed run counting as not won, and the gap
  exceeds the parent's quartile distance;
- ``unresolved``: whether the parent's quartile distance exceeds the
  bound times the parent's median, so that the runs cannot tell a
  change within the bound from one past it, unless every run of the
  change beats every run of the parent;
- whether the change's median is worse than the parent's by more than
  the metric's bound;
- ``parent_drift``: whether the medians of the first and second halves of
  the parent's runs differ by more than the parent's quartile distance,
  a sign that the machine's load moved during the series.

The file is rewritten after every pair, so a series cut short keeps the
pairs it ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def summarize_metric(parent: list[float], change: list[float], better: str,
                     bound: float, pairs_run: int | None = None) -> dict:
    """The comparison of one metric over pairs: ``parent[i]`` and
    ``change[i]`` are the two runs of pair i. ``pairs_run`` counts these
    and the pairs left out for a failed run (default: none left out)."""
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    ratios = [b / a for a, b in zip(parent, change)]
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    half = len(parent) // 2
    iqr = p["q3"] - p["q1"]
    gap = sign * (c["median"] - p["median"])
    drift = half > 0 and abs(float(np.median(parent[:half]))
                             - float(np.median(parent[half:]))) > iqr
    apart = min(sign * b for b in change) > max(sign * a for a in parent)
    return {
        "better": better, "bound": bound, "parent": p, "change": c,
        "ratio_of_medians": c["median"] / p["median"],
        "median_of_pair_ratios": float(np.median(ratios)),
        "min_pair_ratio": min(ratios), "max_pair_ratio": max(ratios),
        "change_wins": f"{wins}/{len(parent)}",
        "median_gap": gap, "parent_iqr": iqr,
        "gain_clear": 10 * wins >= 9 * (pairs_run or len(parent)) and gap > iqr,
        "change_worse_by_fraction_of_parent_median": -gap / p["median"],
        "within_bound": -gap <= bound * p["median"],
        "parent_drift": drift,
        "unresolved": iqr > bound * p["median"] and not apart,
    }


def summarize_series(runs: dict, end_to_end: list[dict]) -> dict:
    """The summary of a series, ``runs`` mapping each seed to its
    ``{"parent": result, "change": result}``; only pairs whose two runs
    both exited 0 and reported every metric enter the comparisons."""
    done = [pair for pair in runs.values() if all(
        pair[side].get("exit") == 0
        and all(m["name"] in pair[side].get("metrics", {}) for m in end_to_end)
        for side in SIDES)]
    summary = {
        "pairs": len(runs), "complete_pairs": len(done),
        "failed_operations": {side: sum(pair[side].get("failed", 0) for pair in runs.values())
                              for side in SIDES},
        "attempted_operations": {side: sum(pair[side].get("attempted", 0)
                                           for pair in runs.values()) for side in SIDES},
        "incorrect_runs": {side: sum(not pair[side].get("correct", False)
                                     for pair in runs.values()) for side in SIDES},
        "end_to_end": {},
    }
    if done:
        for m in end_to_end:
            values = {side: [pair[side]["metrics"][m["name"]]["value"] for pair in done]
                      for side in SIDES}
            summary["end_to_end"][m["name"]] = summarize_metric(
                values["parent"], values["change"], m["better"], m["bound"], len(runs))
    return summary


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its result line, plus ``exit``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "stderr_tail": proc.stderr[-2000:]}
    return {**result, "exit": proc.returncode}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True,
                            text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        cc = "unknown"
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cc": cc}


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    with open(args.change / "BENCHMARK.json", encoding="utf-8") as f:
        end_to_end = json.load(f)["end_to_end"]
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("command", "python3 perfbench/run.py --workload W --seed N --seconds S")
    doc.setdefault("machine", machine())
    seeds = args.seeds
    key = f"{args.workload} (seeds {seeds[0]}-{seeds[-1]})"
    runs: dict = {}
    doc.setdefault("series", {})[key] = series = {"seconds": args.seconds, "runs": runs}
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = runs[str(seed)] = {}
        for side in order:
            tree = args.parent if side == "parent" else args.change
            pair[side] = {**run_once(tree, args.workload, seed, args.seconds),
                          "ran_first": side == order[0]}
        series["summary"] = summarize_series(runs, end_to_end)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        values = "; ".join(f"{m['name']} " + " -> ".join(
            f"{pair[side].get('metrics', {}).get(m['name'], {}).get('value', float('nan')):.4g}"
            for side in SIDES) for m in end_to_end)
        print(f"{key} pair {k + 1}/{len(seeds)} seed {seed}: {values}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark harness on tiny inputs; takes seconds.

    python3 perfbench/selftest.py

Runs both modes of the benchmark on a tiny workload and asserts that every
metric named in BENCHMARK.json is printed with its unit and that no clip
fails. Then plants faults in one clip's outputs (a flipped DBS decision, a
swapped prototype id, a dropped layer output, a wrong label) and asserts
that the clip checks catch each one. Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile

import run  # pins threads and puts the repository's src/ on the path

import numpy as np

from evgesture import pipeline
from evgesture.dbs import RetentionStats

import checks
from spans import Spans
from workloads import Workload, setup

# Two layers, DBS and clutter, so every check and metric has work to do.
TINY = Workload("tiny", "e05.cfg", train_per_class=1, test_per_class=1,
                clutter=1.0, accuracy_floor=0.0, size=32)


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def metrics_printed(workdir: str) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics, outcome, _ = run.measure(TINY, 0, 0.0, trace,
                                          os.path.join(workdir, f"run{int(trace)}"))
        printed = json.loads(json.dumps(run.result_of(metrics, outcome)))
        expect(printed["correct"] and printed["failed"] == 0
               and printed["attempted"] == 8, f"tiny run failed: {printed}")
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in printed["metrics"].items()}
        expect(got == wanted, f"trace {int(trace)} prints {got}, "
                              f"BENCHMARK.json names {wanted}")
        expect(all(isinstance(m["value"], (int, float))
                   for m in printed["metrics"].values()), "non-numeric value")


def planted_faults(workdir: str) -> None:
    inputs = setup(TINY, 0, os.path.join(run.ROOT, "configs", TINY.config_file),
                   os.path.join(workdir, "faults"), Spans(False))
    config = inputs.config
    trained = pipeline.train_pipeline(
        config, [inputs.records[k] for k in inputs.train_idx])
    network, model = trained.network, trained.model
    k = inputs.test_idx[0]
    [result] = run.encode_clips(config, network, model, [inputs.records[k].stream],
                                Spans(False), probe=lambda i: True)

    def caught(name: str, faulty: run.ClipResult, says: str) -> None:
        try:
            run.check_clip(config, network, model, inputs, k, faulty, sampled=True)
        except checks.CheckFailed as e:
            expect(says in str(e), f"a {name} was reported as: {e}")
            return
        raise SystemExit(f"selftest FAILED: the checks missed a {name}")

    run.check_clip(config, network, model, inputs, k, result, sampled=True)

    mask = result.stats.keep_mask.copy()
    mask[len(mask) // 2] ^= True
    caught("flipped DBS decision", dataclasses.replace(
        result, stats=RetentionStats(len(mask), int(mask.sum()), mask)),
        "DBS decision differs")

    layer1 = result.outs[0]
    expect(len(layer1) > 0, "layer 1 emitted nothing on the tiny clip")
    ids = layer1.p.copy()
    ids[len(ids) // 2] = (ids[len(ids) // 2] + 1) % network.layers[0].config.n_prototypes
    caught("swapped prototype id", dataclasses.replace(
        result, outs=[layer1.with_channels(ids, layer1.geometry.channels)]
        + result.outs[1:]), "nearest is")

    keep = np.ones(len(layer1), dtype=bool)
    keep[len(keep) // 2] = False
    caught("dropped layer output", dataclasses.replace(
        result, outs=[layer1.select(keep)] + result.outs[1:]), "no output")

    wrong = next(label for label in model.labels if label != result.label)
    caught("wrong label", dataclasses.replace(result, label=wrong), "k-NN label")


def main() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    try:
        metrics_printed(workdir)
        planted_faults(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

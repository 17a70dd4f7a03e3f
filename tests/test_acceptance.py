"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
NavGesture reproduction (criterion 8) needs locally prepared manifests and
is skipped unless NAVGESTURE_SIT_MANIFEST / NAVGESTURE_WALK_MANIFEST are
set (hours of runtime).
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from evgesture import cli
from evgesture.classify import PoolingConfig, split_by_class
from evgesture.config import LayerSpec, PipelineConfig, parse_config, parse_kv
from evgesture.dbs import DbsConfig, DbsFilter, filter_stream, update_activity
from evgesture.events import EventStream, SensorGeometry, write_binary_events
from evgesture.network import Layer, LayerConfig
from evgesture.oracles import dbs_decisions_eager, dbs_scalar, surfaces_bruteforce
from evgesture.pipeline import benchmark, evaluate_pipeline, train_pipeline
from evgesture.surfaces import (
    TimeSurface, TimeSurfaceConfig, TimestampMemory, extract, is_valid,
)
from evgesture.synth import CompositeSpec, gen_composite, gen_gesture_set

DEFAULT_DBS = DbsConfig(grid_rows=3, grid_cols=3, tau_b_us=300.0, alpha=2.0)


def report(number, description, passed):
    print(f"\nACCEPTANCE {number:>2} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"acceptance criterion {number} failed: {description}"


def test_01_dbs_oracle_equivalence():
    start = time.perf_counter()
    identical = True
    for seed in range(10):
        spec = CompositeSpec(
            geometry=SensorGeometry(36, 36, 2), duration_us=500_000,
            fg_region=(12, 12, 24, 24), fg_rate_hz=150_000.0, bg_rate_hz=50_000.0,
        )
        stream = gen_composite(spec, seed).stream
        assert len(stream) >= 90_000
        filt = DbsFilter(stream.geometry, DEFAULT_DBS)
        _, stats = filter_stream(filt, stream)
        # bit-equal to the scalar rule, mask and final state; equal to the
        # eager oracle, which sums the cells in another order, wherever the
        # decision is not within rounding of its threshold
        mask, state, margin = dbs_scalar(stream, DEFAULT_DBS)
        clear = np.abs(margin) > 2.0**-40
        eager = dbs_decisions_eager(stream, DEFAULT_DBS)
        if not (np.array_equal(stats.keep_mask, mask)
                and (list(filt.activity), filt.last_t.tolist()) == state
                and np.array_equal(stats.keep_mask[clear], eager[clear])):
            identical = False
    elapsed = time.perf_counter() - start
    report(1, f"DBS incremental == scalar and naive recompute oracles on 10x1e5 events "
              f"({elapsed:.1f}s)", identical and elapsed < 10.0)


def test_02_surface_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    total = 0
    equal = True
    while total < 100_000:
        n = 10_000
        w = int(rng.integers(8, 65))
        h = int(rng.integers(8, 65))
        radius = int(rng.integers(1, 4))
        g = SensorGeometry(w, h, 2)
        stream = EventStream(
            np.cumsum(rng.integers(0, 60, n)), rng.integers(0, w, n),
            rng.integers(0, h, n), rng.integers(0, 2, n), g,
        )
        cfg = TimeSurfaceConfig(radius=radius, tau_us=2000.0, channels=2)
        memory = TimestampMemory(g)
        ref = surfaces_bruteforce(stream, cfg)
        for i in range(n):
            t, x, y, p = (int(stream.t[i]), int(stream.x[i]),
                          int(stream.y[i]), int(stream.p[i]))
            memory.record(t, x, y, p)
            if not np.array_equal(extract(memory, t, x, y, p, cfg).values, ref[i]):
                equal = False
        total += n
    elapsed = time.perf_counter() - start
    report(2, f"memoized time-surfaces == full-history brute force on 1e5 "
              f"events ({elapsed:.1f}s)", equal and elapsed < 30.0)


def test_03_kernel_unit_checks():
    g = SensorGeometry(16, 16, 1)
    cfg = TimeSurfaceConfig(radius=2, tau_us=1000.0, channels=1)
    m = TimestampMemory(g)
    m.record(0, 7, 8, 0)
    m.record(500, 8, 8, 0)
    m.record(1500, 9, 8, 0)  # will be queried at delta >= tau
    m.record(2500, 8, 8, 0)
    s = extract(m, 2500, 8, 8, 0, cfg)
    checks = [
        s.values[0, 2, 2] == 1.0,                     # center
        abs(s.values[0, 2, 1] - 0.0) == 0.0,          # delta 2500 >= tau
        s.values[0, 2, 3] == 0.0,                     # delta 1000 == tau -> 0
    ]
    m2 = TimestampMemory(g)
    m2.record(0, 7, 8, 0)
    m2.record(500, 8, 8, 0)
    s2 = extract(m2, 500, 8, 8, 0, cfg)
    checks.append(s2.values[0, 2, 1] == 0.5)          # midpoint delta = tau/2

    half = np.zeros((1, 5, 5))
    half.ravel()[:4] = 1.0
    checks.append(is_valid(TimeSurface(half, 0, 0, 0, 0), 2))       # sum == 2R
    half.ravel()[3] = 0.999
    checks.append(not is_valid(TimeSurface(half, 0, 0, 0, 0), 2))   # just below

    checks.append(abs(update_activity(1.0, 0, 300, 300.0)
                      - (math.exp(-1) + 1)) < 1e-12)
    report(3, "kernel unit values (midpoint, cutoff, center, 2R gate, "
              "closed-form activity)", all(checks))


def test_04_learning_rule_properties():
    from evgesture.network import learn_update
    c = np.array([0.4, 0.6, 0.2])
    checks = [np.allclose(learn_update(c, 3, c.copy()), c)]
    checks.append(np.array_equal(
        learn_update(np.array([1.0, 0.0]), 1, np.array([0.0, 1.0])),
        np.array([1.0, 0.0])))
    out = learn_update(np.array([1.0, 0.0]), 1, np.array([1.0, 1.0]))
    checks.append(abs(out[1] - 0.35355339059327373) < 1e-9
                  and abs(out[0] - 1.0) < 1e-9)
    a = np.arange(0, 1_000_001, dtype=np.float64)
    rates = 1.0 / (1.0 + a)
    checks.append(bool((np.diff(rates) < 0).all()))
    report(4, "learning-rule fixed point, orthogonal no-op, hand-computed "
              "update, rate monotonicity over [0, 1e6]", all(checks))


def test_05_prototype_recovery():
    rng = np.random.default_rng(16)
    dim = 9
    truth = np.zeros((8, dim))
    for i in range(8):
        truth[i, i] = 1.0
        truth[i, (i + 1) % dim] = 1.0
    layer = Layer(LayerConfig(8, 1, 1000.0, 1), SensorGeometry(32, 32, 1))
    order = list(rng.permutation(8))
    for k in range(4000):
        i = order[k] if k < 8 else int(rng.integers(0, 8))
        layer.process_surface(np.clip(truth[i] + rng.normal(0, 0.01, dim), 0, 1))
    cost = np.linalg.norm(layer.bank[:, None, :] - truth[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    worst = cost[rows, cols].max()
    report(5, f"each learned prototype within 0.1 of a distinct generator "
              f"mean (worst {worst:.4f})", worst < 0.1)


def test_06_desk_scale_end_to_end():
    start = time.perf_counter()
    geometry = SensorGeometry(64, 64, 2)
    clips = gen_gesture_set(geometry, 50, seed=7)  # 200 clips
    config = PipelineConfig(
        layers=(LayerSpec(n=8, r=2, tau_us=10_000.0),),
        dbs=DEFAULT_DBS, pooling=PoolingConfig(3, 3), k=7, seed=7,
    )
    labels = [c.label for c in clips]
    train_idx, test_idx = split_by_class(labels, 25, np.random.default_rng(7))
    trained = train_pipeline(config, [clips[i] for i in train_idx])
    result = evaluate_pipeline(trained, [clips[i] for i in test_idx])
    elapsed = time.perf_counter() - start
    report(6, f"synthetic 4-class gestures, DBS + 1 layer + 7-NN, 50/50 "
              f"split: accuracy {result.accuracy:.3f} ({elapsed:.0f}s)",
           result.accuracy >= 0.95 and elapsed < 120.0)


def test_07_dbs_separation():
    # 20:1 foreground:background per-cell event density
    spec = CompositeSpec(
        geometry=SensorGeometry(30, 30, 2), duration_us=300_000,
        fg_region=(0, 0, 10, 10), fg_rate_hz=100_000.0, bg_rate_hz=45_000.0,
    )
    ls = gen_composite(spec, 5)
    _, stats = filter_stream(DbsFilter(ls.stream.geometry, DEFAULT_DBS), ls.stream)
    fg = np.array(ls.tags) == "foreground"
    fg_ret = stats.keep_mask[fg].mean()
    bg_ret = stats.keep_mask[~fg].mean()
    report(7, f"default-parameter DBS separates 20:1 composite "
              f"(fg {fg_ret:.3f} >= 0.9, bg {bg_ret:.3f} <= 0.1)",
           fg_ret >= 0.90 and bg_ret <= 0.10)


@pytest.mark.skipif(
    "NAVGESTURE_SIT_MANIFEST" not in os.environ
    or "NAVGESTURE_WALK_MANIFEST" not in os.environ,
    reason="NavGesture dataset not available; criteria 1-7 constitute "
           "acceptance (set NAVGESTURE_SIT_MANIFEST / NAVGESTURE_WALK_MANIFEST "
           "to EVS1 manifests to enable; hours of runtime)",
)
def test_08_navgesture_reproduction():
    from evgesture.events import load_manifest
    results = {}
    for key, cfg_name, target in (
        ("NAVGESTURE_SIT_MANIFEST", "e05.cfg", 0.959),
        ("NAVGESTURE_WALK_MANIFEST", "e09.cfg", 0.926),
    ):
        clips = load_manifest(os.environ[key])
        with open(os.path.join(os.path.dirname(__file__), "..", "configs",
                               cfg_name)) as f:
            config = parse_config(f.read())
        labels = [c.label for c in clips]
        per_class = min(labels.count(l) for l in set(labels)) // 2
        train_idx, test_idx = split_by_class(labels, per_class,
                                             np.random.default_rng(config.seed))
        trained = train_pipeline(config, [clips[i] for i in train_idx])
        result = evaluate_pipeline(trained, [clips[i] for i in test_idx])
        results[cfg_name] = (result.accuracy, target)
    ok = all(abs(acc - target) <= 0.03 for acc, target in results.values())
    report(8, f"NavGesture reproduction {results}", ok)


def test_09_cli_determinism(tmp_path):
    geometry = SensorGeometry(48, 48, 2)
    clips = gen_gesture_set(geometry, 3, seed=3)
    lines = []
    for i, clip in enumerate(clips):
        name = f"c{i:02d}.evs"
        (tmp_path / name).write_bytes(write_binary_events(clip.stream))
        lines.append(f"{name}\t{clip.label}\ts{i % 2}")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("".join(l + "\n" for l in lines))
    cfg = tmp_path / "p.cfg"
    cfg.write_text("seed = 4\ndbs.enabled = true\nlayers.1.n = 4\n"
                   "layers.1.r = 2\nlayers.1.tau_us = 10000\nknn.k = 3\n")
    models, reports = [], []
    for run in range(2):
        model = tmp_path / f"model{run}.bin"
        rpt = tmp_path / f"report{run}.txt"
        assert cli.main(["train", str(manifest), str(cfg), str(model)]) == 0
        assert cli.main(["eval", str(manifest), str(model),
                         "--report", str(rpt)]) == 0
        models.append(model.read_bytes())
        pairs = parse_kv(rpt.read_text())
        pairs.pop("wall_clock_s")
        reports.append(pairs)
    report(9, "repeated cli train/eval: byte-identical models, identical "
              "reports", models[0] == models[1] and reports[0] == reports[1])


def test_10_benchmark_consistency():
    geometry = SensorGeometry(48, 48, 2)
    clips = gen_gesture_set(geometry, 3, seed=11)
    config = PipelineConfig(
        layers=(LayerSpec(n=4, r=2, tau_us=10_000.0),), dbs=DEFAULT_DBS, k=3,
    )
    trained = train_pipeline(config, clips)
    bench = benchmark(trained, clips, runs=5)
    stages = bench.stages
    produced = all(s in stages and stages[s]["events_per_s"] > 0
                   for s in ("dbs", "layers", "full"))
    floor = min(stages["dbs"]["events_per_s"], stages["layers"]["events_per_s"])
    # full does strictly more work than any single stage; allow 15%
    # measurement noise
    consistent = stages["full"]["events_per_s"] <= floor * 1.15
    report(10, f"benchmark reports per-stage throughput and full <= min "
               f"stage (full {stages['full']['events_per_s']:.0f}, "
               f"min stage {floor:.0f} ev/s)", produced and consistent)

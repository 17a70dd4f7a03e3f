"""Benchmark of the evgesture pipeline on seeded synthetic gesture sets.

    python3 perfbench/run.py --workload gesture-2l --seed 1 --seconds 20 --trace 0

Run from the repository root. With ``--trace 0`` it times set-up,
``pipeline.train_pipeline`` and ``pipeline.evaluate_pipeline`` and prints
the end-to-end metrics; with ``--trace 1`` it rebuilds both phases from
the layers' public functions, times each call and prints the per-layer
metrics. Both check every clip's outputs against the oracles. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread: pin BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 3
MAX_LAYERS = 2  # layer metrics reported: layer1.*, layer2.*

if not os.path.isdir(os.path.join(ROOT, "src", "evgesture")):
    sys.exit(f"run.py: no src/evgesture under {ROOT}; run from a full checkout")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from evgesture import classify, dbs, network as net, pipeline  # noqa: E402
from evgesture.classify import Signature, TrainedModel  # noqa: E402
from evgesture.dbs import RetentionStats  # noqa: E402
from evgesture.events import EventStream  # noqa: E402

import checks  # noqa: E402
from spans import Spans  # noqa: E402
from workloads import WORKLOADS, Inputs, Workload, setup  # noqa: E402


@dataclass
class ClipResult:
    filtered: EventStream  # the cascade's input
    stats: RetentionStats | None  # None when DBS is off
    outs: list[EventStream]  # per layer when probed, else the end layer only
    sig: Signature
    label: str | None = None


def suppress(config, stream: EventStream, spans: Spans):
    if config.dbs is None:
        return stream, None
    with spans.span("dbs"):
        return dbs.filter_stream(dbs.DbsFilter(stream.geometry, config.dbs), stream)


def cascade(network: net.Network, filtered: EventStream, spans: Spans,
            probe: bool) -> list[EventStream]:
    """End-layer output; probed, also every earlier layer's output, each
    from ``forward_stream(learn_upto=i)``."""
    outs = []
    if probe:
        for i in range(len(network.layers) - 1):
            with spans.span(f"probe.{i + 1}"):
                outs.append(network.forward_stream(filtered, learn_upto=i))
    with spans.span("cascade"):
        outs.append(network.forward_stream(filtered))
    return outs


def signature_of(config, network: net.Network, stream: EventStream,
                 out: EventStream) -> Signature:
    return classify.normalize(classify.accumulate(
        out, stream.geometry, config.pooling, network.out_channels))


def encode_clips(config, network, model, streams, spans: Spans,
                 probe) -> list[ClipResult]:
    """DBS, cascade, signature and (given a model) k-NN label per clip;
    ``probe(i)`` says whether clip i also gets every layer's output."""
    results = []
    for i, stream in enumerate(streams):
        filtered, stats = suppress(config, stream, spans)
        outs = cascade(network, filtered, spans, probe(i))
        with spans.span("classify"):
            sig = signature_of(config, network, stream, outs[-1])
            label = None if model is None else classify.knn_classify(model, sig)[0]
        results.append(ClipResult(filtered, stats, outs, sig, label))
    return results


def train_traced(config, streams, labels, spans: Spans):
    """``train_pipeline`` rebuilt from its parts, one span per part."""
    with spans.span("train"):
        suppressed = [suppress(config, s, spans) for s in streams]
        network = pipeline.build_network(config, streams[0].geometry)
        with spans.span("learn"):
            net.train(network, [f for f, _ in suppressed], epochs=config.epochs,
                      mode=config.training_mode)
        results = []
        for stream, (filtered, stats) in zip(streams, suppressed):
            with spans.span("encode"):
                out = network.forward_stream(filtered)
                sig = signature_of(config, network, stream, out)
            results.append(ClipResult(filtered, stats, [out], sig))
        model = TrainedModel(signatures=np.stack([r.sig.values for r in results]),
                             labels=list(labels), k=min(config.k, len(streams)))
    return network, model, results


def check_clip(config, network, model, inputs: Inputs, k: int,
               result: ClipResult, sampled: bool) -> None:
    """Every check of one clip's outputs; raises CheckFailed or the
    program's own exception."""
    stream = inputs.records[k].stream
    checks.round_trip(inputs.generated[k].stream, stream)
    if config.dbs is not None:
        checks.dbs_mask(stream, config.dbs, result.stats.keep_mask)
    layers = network.layers
    if sampled and len(result.outs) < len(layers):
        result.outs = cascade(network, result.filtered, Spans(False), True)
    for layer, out in zip(layers[len(layers) - len(result.outs):], result.outs):
        checks.order_and_ids(out, layer.config.n_prototypes)
    if sampled:
        f = result.filtered
        layer_in = f.with_channels(np.zeros(len(f), dtype=np.int32), 1) \
            if config.merge_polarity else f
        for layer, out in zip(layers, result.outs):
            checks.layer_output(layer_in, out, layer)
            layer_in = out
    checks.signature(result.outs[-1], stream.geometry, config.pooling,
                     network.out_channels, result.sig)
    predicted = result.label
    if predicted is None:  # a training clip: its signature is a model row
        row = inputs.train_idx.index(k)
        checks.require(np.array_equal(model.signatures[row], result.sig.values),
                       "model row differs from the clip's signature")
        predicted = classify.knn_classify(model, result.sig)[0]
    checks.label(model, result.sig, predicted)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # run-level check failures

    def check_clips(self, config, network, model, inputs, indices, results,
                    sampled: set[int]) -> None:
        for k, result in zip(indices, results):
            self.attempted += 1
            try:
                check_clip(config, network, model, inputs, k, result, k in sampled)
            except Exception as e:  # a failed clip is counted, the run goes on
                self.failed += 1
                print(f"clip {k} FAILED: {type(e).__name__}: {e}", file=sys.stderr)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)
            print(f"FAILED: {message}", file=sys.stderr)


def same_model(a: pipeline.TrainedPipeline, b_network, b_model) -> bool:
    return (all(np.array_equal(x.bank, y.bank)
                for x, y in zip(a.network.layers, b_network.layers))
            and np.array_equal(a.model.signatures, b_model.signatures)
            and a.model.labels == b_model.labels and a.model.k == b_model.k)


def confusion_of(report: pipeline.RunReport, truths, predicted) -> np.ndarray:
    index = {label: i for i, label in enumerate(report.labels)}
    confusion = np.zeros_like(report.confusion)
    for truth, pred in zip(truths, predicted):
        confusion[index[truth], index[pred]] += 1
    return confusion


def event_count(streams) -> int:
    return sum(len(s) for s in streams)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: str) -> tuple[dict, Outcome, dict]:
    """One run; returns (metrics, outcome, details for the result file)."""
    config_path = os.path.join(ROOT, "configs", workload.config_file)
    spans = Spans(trace)
    setup_times = []
    for rep in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        inputs = setup(workload, seed, config_path,
                       os.path.join(workdir, f"setup{rep}"), spans)
        setup_times.append(time.perf_counter() - start)
    config = inputs.config
    train_clips = [inputs.records[k] for k in inputs.train_idx]
    test_clips = [inputs.records[k] for k in inputs.test_idx]
    train_streams = [c.stream for c in train_clips]
    test_streams = [c.stream for c in test_clips]
    truths = [c.label for c in test_clips]
    sampler = np.random.default_rng([seed, 3])
    sampled = {inputs.train_idx[int(sampler.integers(len(train_clips)))],
               inputs.test_idx[int(sampler.integers(len(test_clips)))]}
    outcome = Outcome()

    # Timed phases: whole rounds of training and then labelling the test
    # set, until `seconds` have passed (one round when tracing).
    train_time = infer_time = 0.0
    rounds = 0
    begin = time.perf_counter()
    while rounds == 0 or (not trace and time.perf_counter() - begin < seconds):
        start = time.perf_counter()
        trained = pipeline.train_pipeline(config, train_clips)
        train_time += time.perf_counter() - start
        start = time.perf_counter()
        report = pipeline.evaluate_pipeline(trained, test_clips)
        infer_time += time.perf_counter() - start
        rounds += 1
        if rounds == 1:
            first, first_report = trained, report
        outcome.require(same_model(first, trained.network, trained.model)
                        and np.array_equal(report.confusion, first_report.confusion),
                        f"round {rounds} gave another model or confusion matrix")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    trained = first

    if trace:
        network, model, train_results = train_traced(
            config, train_streams, [c.label for c in train_clips], spans)
        outcome.require(same_model(trained, network, model),
                        "traced training differs from train_pipeline")
        with spans.span("infer"):
            test_results = encode_clips(config, network, model, test_streams,
                                        spans, probe=lambda i: True)
    else:
        network, model = trained.network, trained.model
        quiet = Spans(False)
        train_results = encode_clips(
            config, network, None, train_streams, quiet,
            probe=lambda i: inputs.train_idx[i] in sampled)
        test_results = encode_clips(
            config, network, model, test_streams, quiet,
            probe=lambda i: inputs.test_idx[i] in sampled)

    checks_start = time.perf_counter()
    try:
        checks.banks(network)
    except checks.CheckFailed as e:
        outcome.require(False, str(e))
    outcome.check_clips(config, network, model, inputs, inputs.train_idx,
                        train_results, sampled)
    outcome.check_clips(config, network, model, inputs, inputs.test_idx,
                        test_results, sampled)
    predicted = [r.label for r in test_results]
    outcome.require(np.array_equal(first_report.confusion,
                                   confusion_of(first_report, truths, predicted)),
                    "evaluate_pipeline's confusion differs from the checked labels")
    accuracy = first_report.accuracy
    outcome.require(accuracy >= workload.accuracy_floor,
                    f"accuracy {accuracy:.4f} below the floor "
                    f"{workload.accuracy_floor}")
    checks_s = time.perf_counter() - checks_start

    n_train_ev = event_count(train_streams)
    n_test_ev = event_count(test_streams)
    details = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "rounds": rounds, "accuracy": accuracy,
        "accuracy_floor": workload.accuracy_floor,
        "train_clips": len(train_clips), "test_clips": len(test_clips),
        "train_events": n_train_ev, "test_events": n_test_ev,
        "test_sensor_s": sum(s.duration_us for s in test_streams) / 1e6,
        "setup_s": setup_times, "train_s": train_time / rounds,
        "infer_s": infer_time / rounds, "checks_s": checks_s,
    }
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "train_ev_s": (n_train_ev * rounds / train_time, "ev/s"),
            "infer_ev_s": (n_test_ev * rounds / infer_time, "ev/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        return metrics, outcome, details

    metrics = layer_metrics(config, network, spans, inputs, train_results,
                            test_results)
    overhead = (metrics["train.wall_s"][0] + metrics["infer.wall_s"][0]
                - details["train_s"] - details["infer_s"])
    metrics["trace.overhead_s"] = (overhead, "s")
    details["spans"] = spans.to_json()
    return metrics, outcome, details


def layer_metrics(config, network, spans: Spans, inputs: Inputs, train_results,
                  test_results) -> dict:
    """Per-layer counts, busy times and rates from the traced run. Layers a
    workload lacks report zeros."""
    busy = spans.busy

    def rate(events, seconds):
        return events / seconds if seconds > 0 else 0.0

    m = {
        "synth.busy_s": (busy("synth"), "s"),
        "events.busy_s": (busy("events.write") + busy("events.load")
                          + busy("events.decode"), "s"),
        "events.decode_ev_s": (rate(event_count(r.stream for r in inputs.records),
                                    busy("events.decode")), "ev/s"),
    }
    # Inference phase: DBS, then each layer on its own input.
    raw = event_count(inputs.records[k].stream for k in inputs.test_idx)
    kept = event_count(r.filtered for r in test_results)
    dbs_in, dbs_out = (raw, kept) if config.dbs is not None else (0, 0)
    dbs_s = busy("dbs", "infer")
    m.update({"dbs.in": (dbs_in, "count"), "dbs.out": (dbs_out, "count"),
              "dbs.busy_s": (dbs_s, "s"), "dbs.ev_s": (rate(dbs_in, dbs_s), "ev/s")})
    n_layers = len(network.layers)
    upto = [busy(f"probe.{i}", "infer") for i in range(1, n_layers)]
    cascade_s = busy("cascade", "infer")
    upto.append(cascade_s)  # upto[i]: layers 1..i+1 together
    layer_in, before = kept, 0.0
    for i in range(MAX_LAYERS):
        if i < n_layers:
            out = event_count(r.outs[i] for r in test_results)
            self_s, before = upto[i] - before, upto[i]
            values = (layer_in, out, self_s, rate(layer_in, self_s))
            layer_in = out
        else:
            values = (0, 0, 0.0, 0.0)
        for key, value, unit in zip(("in", "out", "busy_s", "ev_s"), values,
                                    ("count", "count", "s", "ev/s")):
            m[f"layer{i + 1}.{key}"] = (value, unit)
    classify_s = busy("classify", "infer")
    infer_wall = busy("infer") - sum(upto[:-1])  # probes are not pipeline work
    m.update({
        "classify.busy_s": (classify_s, "s"),
        "classify.us_per_clip": (classify_s / len(test_results) * 1e6, "us"),
        "infer.wall_s": (infer_wall, "s"),
        "infer.other_s": (infer_wall - dbs_s - cascade_s - classify_s, "s"),
    })
    # Training phase: DBS, the online learning pass, frozen re-encoding.
    learn_s, encode_s = busy("learn"), busy("encode")
    train_dbs_s, train_wall = busy("dbs", "train"), busy("train")
    learned = event_count(r.filtered for r in train_results) * config.epochs
    m.update({
        "train.dbs_busy_s": (train_dbs_s, "s"),
        "train.learn_busy_s": (learn_s, "s"),
        "train.learn_ev_s": (rate(learned, learn_s), "ev/s"),
        "train.encode_busy_s": (encode_s, "s"),
        "train.wall_s": (train_wall, "s"),
        "train.other_s": (train_wall - train_dbs_s - learn_s - encode_s, "s"),
    })
    return m


def result_of(metrics: dict, outcome: Outcome) -> dict:
    """The object printed as the last line of standard output."""
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        metrics, outcome, details = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = result_of(metrics, outcome)
    details.update(result=result, problems=outcome.problems)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as f:
        json.dump(details, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

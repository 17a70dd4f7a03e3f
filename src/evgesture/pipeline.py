"""End-to-end orchestration: train, evaluate, benchmark.

A pipeline is: optional background suppression -> polarity merge ->
layer cascade -> pooled histogram signature -> k-NN. All stages are
deterministic given the configuration seed and input ordering.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import classify, network as net
from .classify import Signature, TrainedModel
from .config import PipelineConfig, config_echo
from .dbs import DbsFilter, filter_stream
from .events import ClipRecord, EventStream, SensorGeometry
from .network import LayerConfig, Network, NetworkConfig


def build_network(config: PipelineConfig, geometry: SensorGeometry) -> Network:
    in_channels = 1 if config.merge_polarity else geometry.channels
    layer_configs = []
    for spec in config.layers:
        layer_configs.append(LayerConfig(
            n_prototypes=spec.n, radius=spec.r, tau_us=spec.tau_us,
            in_channels=in_channels, reinit_window=spec.reinit_window,
        ))
        in_channels = spec.n
    return Network(
        NetworkConfig(tuple(layer_configs), merge_polarity=config.merge_polarity),
        geometry,
    )


def suppress_background(config: PipelineConfig, stream: EventStream):
    """Apply DBS if configured; returns (stream, retention or None)."""
    if config.dbs is None:
        return stream, None
    filt = DbsFilter(stream.geometry, config.dbs)
    return filter_stream(filt, stream)


def clip_signature(config: PipelineConfig, network: Network,
                   stream: EventStream) -> Signature:
    filtered, _ = suppress_background(config, stream)
    out = network.forward_stream(filtered)
    sig = classify.accumulate(out, stream.geometry, config.pooling,
                              network.out_channels)
    return classify.normalize(sig)


@dataclass
class TrainedPipeline:
    config: PipelineConfig
    network: Network
    model: TrainedModel


def train_pipeline(config: PipelineConfig, clips: list[ClipRecord]) -> TrainedPipeline:
    """Train the layer cascade on the clips, then build the k-NN model
    from their signatures."""
    if not clips:
        raise ValueError("no training clips")
    geometry = clips[0].stream.geometry
    network = build_network(config, geometry)
    filtered = [suppress_background(config, c.stream)[0] for c in clips]
    net.train(network, filtered, epochs=config.epochs, mode=config.training_mode)
    signatures = []
    for s in filtered:
        out = network.forward_stream(s)
        sig = classify.accumulate(out, geometry, config.pooling, network.out_channels)
        signatures.append(classify.normalize(sig))
    model = TrainedModel(
        signatures=np.stack([s.values for s in signatures]),
        labels=[c.label for c in clips],
        k=min(config.k, len(clips)),
    )
    return TrainedPipeline(config=config, network=network, model=model)


@dataclass
class RunReport:
    accuracy: float
    labels: list[str]
    confusion: np.ndarray
    retention_per_class: dict[str, float]  # empty when DBS is off
    wall_clock_s: float
    config_pairs: dict[str, str]

    def to_pairs(self) -> dict[str, str]:
        pairs = dict(self.config_pairs)
        pairs["accuracy"] = f"{self.accuracy:.6f}"
        pairs["labels"] = ",".join(self.labels)
        for i, row_label in enumerate(self.labels):
            pairs[f"confusion.{row_label}"] = ",".join(
                str(int(v)) for v in self.confusion[i])
        for label, r in sorted(self.retention_per_class.items()):
            pairs[f"retention.{label}"] = f"{r:.4f}"
        pairs["wall_clock_s"] = f"{self.wall_clock_s:.3f}"
        return pairs

    def to_text(self) -> str:
        lines = [f"accuracy: {self.accuracy:.4f}", "confusion (rows = true label):"]
        width = max((len(l) for l in self.labels), default=1)
        header = " ".join(f"{l:>{width}}" for l in self.labels)
        lines.append(f"  {'':>{width}} {header}")
        for i, l in enumerate(self.labels):
            row = " ".join(f"{int(v):>{width}}" for v in self.confusion[i])
            lines.append(f"  {l:>{width}} {row}")
        for label, r in sorted(self.retention_per_class.items()):
            lines.append(f"retention[{label}]: {100 * r:.2f}%")
        lines.append(f"wall clock: {self.wall_clock_s:.3f} s")
        return "\n".join(lines) + "\n"


def evaluate_pipeline(pipeline: TrainedPipeline,
                      clips: list[ClipRecord]) -> RunReport:
    start = time.perf_counter()
    config = pipeline.config
    signatures, labels = [], []
    retained: dict[str, list[float]] = {}
    for clip in clips:
        stream = clip.stream
        filtered, stats = suppress_background(config, stream)
        if stats is not None:
            retained.setdefault(clip.label, []).append(stats.retention)
        out = pipeline.network.forward_stream(filtered)
        sig = classify.accumulate(out, stream.geometry, config.pooling,
                                  pipeline.network.out_channels)
        signatures.append(classify.normalize(sig))
        labels.append(clip.label)
    result = classify.evaluate(pipeline.model, signatures, labels)
    return RunReport(
        accuracy=result.accuracy,
        labels=result.labels,
        confusion=result.confusion,
        retention_per_class={l: float(np.mean(v)) for l, v in retained.items()},
        wall_clock_s=time.perf_counter() - start,
        config_pairs=config_echo(config),
    )


@dataclass
class BenchReport:
    # stage -> {events_per_s, spread, runs, events_in, events_out}
    stages: dict[str, dict[str, float]]
    total_events: int
    runs: int

    def to_pairs(self) -> dict[str, str]:
        pairs = {"bench.events": str(self.total_events),
                 "bench.runs": str(self.runs)}
        for stage, m in self.stages.items():
            pairs[f"bench.{stage}.events_in"] = str(int(m["events_in"]))
            pairs[f"bench.{stage}.events_out"] = str(int(m["events_out"]))
            pairs[f"bench.{stage}.events_per_s"] = f"{m['events_per_s']:.1f}"
            pairs[f"bench.{stage}.spread"] = f"{m['spread']:.1f}"
        return pairs


def benchmark(pipeline: TrainedPipeline, clips: list[ClipRecord],
              runs: int = 5) -> BenchReport:
    """Median per-stage throughput over repeated single-threaded runs.

    Stages: dbs (filter alone), layers (cascade alone, on filtered
    events), full (filter + cascade + signature). Each stage's rate is
    over the events that enter it: raw events for dbs and full, the
    DBS-kept events for layers. Stages also report events in and out
    (full's output is the end layer's events).
    """
    config = pipeline.config
    streams = [c.stream for c in clips]
    total = sum(len(s) for s in streams)
    if total == 0:
        return BenchReport(stages={}, total_events=0, runs=0)
    filtered = [suppress_background(config, s)[0] for s in streams]
    kept = sum(len(s) for s in filtered)
    emitted = sum(len(pipeline.network.forward_stream(s)) for s in filtered)

    def timed(fn) -> list[float]:
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return times

    def run_dbs():
        for s in streams:
            suppress_background(config, s)

    def run_layers():
        for s in filtered:
            pipeline.network.forward_stream(s)

    def run_full():
        for s in streams:
            clip_signature(config, pipeline.network, s)

    stages = {}
    for name, fn, n_in, n_out in (("dbs", run_dbs, total, kept),
                                  ("layers", run_layers, kept, emitted),
                                  ("full", run_full, total, emitted)):
        if name == "dbs" and config.dbs is None:
            continue
        times = timed(fn)
        med = float(np.median(times))
        stages[name] = {
            "events_per_s": n_in / med,
            "spread": n_in / min(times) - n_in / max(times),
            "runs": float(runs),
            "events_in": float(n_in),
            "events_out": float(n_out),
        }
    return BenchReport(stages=stages, total_events=total, runs=runs)

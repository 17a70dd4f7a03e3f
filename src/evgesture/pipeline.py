"""End-to-end orchestration: train, evaluate, benchmark.

A pipeline is: optional background suppression -> polarity merge ->
layer cascade -> pooled histogram signature -> k-NN. All stages are
deterministic given the configuration seed and input ordering.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import classify, network as net
from .classify import Signature, TrainedModel
from .config import PipelineConfig, config_echo, format_kv, parse_config
from .dbs import DbsFilter, filter_stream
from .events import ClipRecord, EventStream, SensorGeometry, StreamError
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


def stream_signature(config: PipelineConfig, network: Network,
                     filtered: EventStream) -> Signature:
    """The normalised pooled signature of a DBS-filtered stream."""
    out = network.forward_stream(filtered)
    return classify.normalize(classify.accumulate(
        out, network.geometry, config.pooling, network.out_channels))


def clip_signature(config: PipelineConfig, network: Network,
                   stream: EventStream) -> Signature:
    return stream_signature(config, network, suppress_background(config, stream)[0])


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
    network = build_network(config, clips[0].stream.geometry)
    filtered = [suppress_background(config, c.stream)[0] for c in clips]
    net.train(network, filtered, epochs=config.epochs, mode=config.training_mode)
    model = TrainedModel(
        signatures=np.stack([stream_signature(config, network, s).values
                             for s in filtered]),
        labels=[c.label for c in clips],
        k=min(config.k, len(clips)),
    )
    return TrainedPipeline(config=config, network=network, model=model)


# ---------------------------------------------------------------------------
# The model file, little-endian: magic "EVP1"; u32 CRC32 of all that
# follows it; u32 header length; a UTF-8 JSON header {config (the
# config_echo text), width, height, channels, k, labels}; then each
# layer's N x D bank (f64) and N match counts (u64); then the signature
# matrix (f64), one row per label. Every array's shape follows from the
# config and the geometry, so a file is either read exactly or rejected.

_MAGIC = b"EVP1"
# Each header integer's upper bound: an EVS1 stream's width and height
# are u16 and its channel count u8, so no stream matches a larger model.
_HEADER_INTS = {"width": 0xFFFF, "height": 0xFFFF, "channels": 0xFF, "k": float("inf")}


def save_pipeline(trained: TrainedPipeline) -> bytes:
    network, model = trained.network, trained.model
    if not network.frozen:
        raise ValueError("only frozen networks are saved")
    g = network.geometry
    header = json.dumps({
        "config": format_kv(config_echo(trained.config)),
        "width": g.width, "height": g.height, "channels": g.channels,
        "k": model.k, "labels": model.labels,
    }).encode("utf-8")
    parts = [len(header).to_bytes(4, "little"), header]
    for layer in network.layers:
        parts.append(layer.bank.astype("<f8").tobytes())
        parts.append(np.asarray(layer.match_counts, dtype="<u8").tobytes())
    parts.append(model.signatures.astype("<f8").tobytes())
    body = b"".join(parts)
    return _MAGIC + zlib.crc32(body).to_bytes(4, "little") + body


def _read_header(raw: bytes) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError:  # bad UTF-8 or bad JSON
        raise StreamError("model header is not UTF-8 JSON") from None
    if not (isinstance(header, dict)
            and set(header) == {"config", "labels", *_HEADER_INTS}
            and isinstance(header["config"], str)
            and all(type(header[key]) is int and 1 <= header[key] <= top
                    for key, top in _HEADER_INTS.items())
            and isinstance(header["labels"], list)
            and all(isinstance(label, str) for label in header["labels"])
            and header["k"] <= len(header["labels"])):
        raise StreamError("model header is malformed")
    return header


def load_pipeline(data: bytes) -> TrainedPipeline:
    """Read a ``save_pipeline`` file; raises StreamError on any byte
    string that is not one."""
    if data[:4] != _MAGIC:
        raise StreamError("bad magic: not a model file")
    if len(data) < 12:
        raise StreamError("truncated model file")
    if zlib.crc32(data[8:]) != int.from_bytes(data[4:8], "little"):
        raise StreamError("model file fails its CRC32 check")
    offset = 12 + int.from_bytes(data[8:12], "little")
    if offset > len(data):
        raise StreamError("truncated model file")
    header = _read_header(data[12:offset])
    try:  # ConfigError is a ValueError
        config = parse_config(header["config"])
        network = build_network(config, SensorGeometry(
            header["width"], header["height"], header["channels"]))
    except ValueError as e:
        raise StreamError(f"model header: {e}") from None

    def take(count: int, dtype: str) -> np.ndarray:  # 8-byte items
        nonlocal offset
        if offset + 8 * count > len(data):
            raise StreamError("truncated model file")
        values = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        offset += 8 * count
        return values

    for layer in network.layers:
        n, d = layer.bank.shape
        layer.bank = take(n * d, "<f8").reshape(n, d).astype(np.float64)
        layer.match_counts = take(n, "<u8").tolist()
        layer.n_filled = n
        layer.last_match_tick = [0] * n
        layer.freeze()
    labels = header["labels"]
    width = config.pooling.cells * network.out_channels
    signatures = take(len(labels) * width, "<f8").reshape(-1, width).astype(np.float64)
    if offset != len(data):
        raise StreamError(f"{len(data) - offset} trailing bytes after the model")
    return TrainedPipeline(config=config, network=network,
                           model=TrainedModel(signatures, labels, header["k"]))


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
    signatures = []
    retained: dict[str, list[float]] = {}
    for clip in clips:
        filtered, stats = suppress_background(config, clip.stream)
        if stats is not None:
            retained.setdefault(clip.label, []).append(stats.retention)
        signatures.append(stream_signature(config, pipeline.network, filtered))
    result = classify.evaluate(pipeline.model, signatures, [c.label for c in clips])
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

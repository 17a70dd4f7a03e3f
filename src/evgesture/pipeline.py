"""End-to-end orchestration: train, evaluate, benchmark.

A pipeline is: optional background suppression -> polarity merge ->
layer cascade -> pooled histogram signature -> k-NN. A clip to label
goes through suppression and the cascade in one compiled pass, which
counts the end layer's events into the pooled bins itself
(``clip_signature``), so no output stream is built. Training filters
each clip once, since every epoch and the signature pass read the same
filtered stream. All stages are deterministic given their inputs and
input ordering. No stage reads the config's ``seed``; it is there for
callers that draw their own train/test split from it.

Labelling, and training's filtering and signatures, use every core
available to the process (``map_clips``): each clip runs on a fresh
filter, reset memories and read-only banks, in one compiled call that
releases the interpreter lock, so clips run on threads at once. Every
pass of a trained network keeps the stream's state in a replica of its
own (``Network.replica``) and only reads the network, so one trained
pipeline may label from several threads at once. Outputs are
bit-identical to taking one clip after another; only learning, in which
every clip moves the banks, takes the clips in turn.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import classify, network as net
from .classify import EvalResult, Signature, TrainedModel
from .config import ConfigError, PipelineConfig, config_echo, format_kv, parse_config
from .dbs import DbsConfig, DbsFilter, filter_stream
from .events import (
    _HEADER_DTYPE, ClipRecord, EventStream, SensorGeometry, StreamError, check_grid,
)
from .network import LayerConfig, Network


def build_network(config: PipelineConfig, geometry: SensorGeometry) -> Network:
    """The untrained layer cascade for streams of ``geometry``; raises
    ConfigError, naming the layer, on a value out of its range or a
    radius as large as the array's smaller side (some field pixels would
    never lie on the array), and ValueError on a pooling grid finer than
    the array. Nothing is sized by the config yet."""
    check_grid(config.pooling.grid_rows, config.pooling.grid_cols, geometry,
               "pooling grid")
    in_channels = 1 if config.merge_polarity else geometry.channels
    span = min(geometry.width, geometry.height)
    layer_configs = []
    for i, spec in enumerate(config.layers, start=1):
        try:
            if spec.r >= span:
                raise ValueError(f"radius {spec.r} reaches past the {geometry.width}x"
                                 f"{geometry.height} array: at most {span - 1}")
            layer_configs.append(LayerConfig(
                n_prototypes=spec.n, radius=spec.r, tau_us=spec.tau_us,
                in_channels=in_channels, reinit_window=spec.reinit_window,
            ))
        except ValueError as e:
            raise ConfigError(f"layers.{i}: {e}") from None
        in_channels = spec.n
    return Network(tuple(layer_configs), geometry, config.merge_polarity)


def clip_workers(clips: int) -> int:
    """The threads ``map_clips`` runs ``clips`` clips on: one per CPU
    available to the process, at most one per clip, at least one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(clips, cpus))


def map_clips(call, clips: list, network: Network | None = None) -> list:
    """``[call(net, clip) for clip in clips]``, run on ``clip_workers``
    threads of a pool made for this call. Each thread takes the next clip
    in input order until none is left, with ``net`` the caller's
    ``network``, or None. Raises what the first clip in input order to
    fail raised, and ValueError if the network is still learning: then
    every clip would move the banks the others read.

    A pass of a trained network only reads it, so the threads, and
    several maps, may share it at once, and each result is bit-identical
    to taking the clips one after the other."""
    if network is not None and not network.frozen:
        raise ValueError("a learning network takes its clips in turn")
    results, failed = [None] * len(clips), []
    order = iter(range(len(clips)))  # next() is one call under the interpreter lock

    def drain() -> None:
        for i in order:
            try:
                results[i] = call(network, clips[i])
            except Exception as e:  # raised below, if no earlier clip failed
                failed.append((i, e))
                return

    workers = clip_workers(len(clips))
    with ThreadPoolExecutor(workers) as pool:
        for done in [pool.submit(drain) for _ in range(workers)]:
            done.result()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return results


def clip_signature(config: PipelineConfig, network: Network, stream: EventStream,
                   dbs: DbsConfig | None) -> tuple[Signature, int]:
    """The normalised pooled signature of a stream taken through DBS by
    ``dbs`` (None: none) and the cascade in one pass, which counts the
    end layer's events itself (``Network.pooled_counts``), and the number
    of events DBS kept."""
    counts, kept = network.pooled_counts(stream, dbs, config.pooling)
    return classify.normalize(Signature(counts)), kept


def stream_signature(config: PipelineConfig, network: Network,
                     filtered: EventStream) -> Signature:
    """The normalised pooled signature of a DBS-filtered stream."""
    return clip_signature(config, network, filtered, None)[0]


@dataclass(frozen=True)
class TrainedPipeline:
    """A frozen network and the k-NN model of its signatures: the one
    place that says what a trained pipeline is. Raises ValueError on a
    network still learning, whose every pass would move its banks, and on
    a signature matrix that is not one row per label of
    ``config.pooling.cells`` x ``network.out_channels`` bins with every
    value in [0, 1] (``classify.check_unit``)."""
    config: PipelineConfig
    network: Network
    model: TrainedModel

    def __post_init__(self):
        if not self.network.frozen:
            raise ValueError("a trained pipeline takes a frozen network, not a learning one")
        model, width = self.model, self.config.pooling.cells * self.network.out_channels
        if model.signatures.shape != (len(model.labels), width):
            raise ValueError(f"signatures {model.signatures.shape}: the network takes "
                             f"{len(model.labels)} rows, one per label, of {width} bins")
        classify.check_unit(model.signatures, "signature", "bin")


def train_pipeline(config: PipelineConfig, clips: list[ClipRecord]) -> TrainedPipeline:
    """Train the layer cascade on the clips, then build the k-NN model
    from their signatures."""
    if not clips:
        raise ValueError("no training clips")
    network = build_network(config, clips[0].stream.geometry)
    filtered = [c.stream for c in clips] if config.dbs is None else map_clips(
        lambda _, clip: filter_stream(DbsFilter(clip.stream.geometry, config.dbs),
                                      clip.stream)[0], clips)
    events = config.epochs * sum(len(s) for s in filtered)  # one surface each at most
    for i, spec in enumerate(config.layers, start=1):
        if spec.n > events:  # the bank could never fill: fail before sizing it
            raise net.UndertrainedLayerError(f"layer {i}: layer with N={spec.n} can "
                                             f"see at most {events} events")
    net.train(network, filtered, epochs=config.epochs, mode=config.training_mode)
    model = TrainedModel(
        signatures=np.stack(map_clips(
            lambda own, s: stream_signature(config, own, s).values, filtered, network)),
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
# Each header integer's upper bound: no EVS1 stream matches a model wider,
# taller or with more channels than the stream header can say.
_HEADER_INTS = {name: int(np.iinfo(_HEADER_DTYPE[name]).max)
                for name in _HEADER_DTYPE.names} | {"k": float("inf")}


def save_pipeline(trained: TrainedPipeline) -> bytes:
    """The model file of a trained pipeline. The pipeline checked itself
    when it was made (``TrainedPipeline``), so saving only writes bytes."""
    model, g = trained.model, trained.network.geometry
    header = json.dumps({
        "config": format_kv(config_echo(trained.config)),
        "width": g.width, "height": g.height, "channels": g.channels,
        "k": model.k, "labels": model.labels,
    }).encode("utf-8")
    parts = [len(header).to_bytes(4, "little"), header]
    for layer in trained.network.layers:
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
    string that is not one: bad magic, CRC, header or config, a length
    that does not fit them, or what ``Layer.install`` or
    ``TrainedPipeline`` refuses, a bank or signature value outside
    [0, 1] included."""
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
        n, d = layer.bank_shape
        bank, counts = take(n * d, "<f8").reshape(n, d), take(n, "<u8").tolist()
        try:
            layer.install(bank, counts)
        except ValueError as e:
            raise StreamError(f"model bank: {e}") from None
    labels = header["labels"]
    width = config.pooling.cells * network.out_channels
    signatures = take(len(labels) * width, "<f8").reshape(-1, width).astype(np.float64)
    if offset != len(data):
        raise StreamError(f"{len(data) - offset} trailing bytes after the model")
    try:
        return TrainedPipeline(config=config, network=network,
                               model=TrainedModel(signatures, labels, header["k"]))
    except ValueError as e:
        raise StreamError(f"model {e}") from None


@dataclass
class RunReport(EvalResult):
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
    if not clips:
        raise ValueError("no evaluation clips")
    start = time.perf_counter()
    config = pipeline.config
    labelled = map_clips(lambda own, clip: clip_signature(config, own, clip.stream, config.dbs),
                         clips, pipeline.network)
    retained: dict[str, list[float]] = {}
    for clip, (_, kept) in zip(clips, labelled):
        if config.dbs is not None:  # kept / total, and 0.0 for an empty clip
            retained.setdefault(clip.label, []).append(kept / max(len(clip.stream), 1))
    result = classify.evaluate(pipeline.model, [signature for signature, _ in labelled],
                               [c.label for c in clips])
    return RunReport(
        **vars(result),
        retention_per_class={l: float(np.mean(v)) for l, v in retained.items()},
        wall_clock_s=time.perf_counter() - start,
        config_pairs=config_echo(config),
    )


@dataclass
class BenchReport:
    """``benchmark``'s report: each stage's events in over the best of
    ``runs`` runs, one thread's CPU time."""
    # stage -> {events_per_s, spread, events_in, events_out}
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
    """Per-stage throughput, best of ``runs`` runs, one thread's CPU time.

    Stages: dbs (the filter alone, ``DbsFilter.process_block``), layers
    (the cascade on the DBS-kept events, counted into pooled bins,
    ``Network.pooled_counts`` without DBS) and full (filter and cascade,
    ``pooled_counts`` with DBS). Each is one call of the compiled pass per
    clip. A ``TrainedPipeline`` holds a frozen network, and a pass of a
    frozen network only reads it, so every benchmark only reads the
    pipeline it is given. Each stage's rate is over the events
    that enter it: raw events for dbs and full, the DBS-kept events for
    layers. Its events out are counted from its own calls' outputs,
    outside the timed region: the dbs masks' kept events, and the end
    layer's events in the pooled counts of layers and full.

    Each run times every stage in turn with ``time.thread_time``. The
    calls, the compiled pass included, run on the caller's thread, so
    another process's load moves a stage's time far less than it moves
    the wall clock.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    config = pipeline.config
    streams = [c.stream for c in clips]
    total = sum(len(s) for s in streams)
    if total == 0:
        return BenchReport(stages={}, total_events=0, runs=0)
    filtered = streams if config.dbs is None else [
        filter_stream(DbsFilter(s.geometry, config.dbs), s)[0] for s in streams]
    network = pipeline.network
    # each stage: its name, its inputs, one call per input
    plan = [("layers", filtered, lambda s: network.pooled_counts(s, None, config.pooling)[0]),
            ("full", streams, lambda s: network.pooled_counts(s, config.dbs, config.pooling)[0])]
    if config.dbs is not None:
        plan.insert(0, ("dbs", streams, lambda s: DbsFilter(s.geometry, config.dbs)
                        .process_block(s.t, s.x, s.y)))
    times, outputs = {name: [] for name, *_ in plan}, {}
    for _ in range(runs):
        for name, inputs, call in plan:
            t0 = time.thread_time()
            outputs[name] = [call(s) for s in inputs]
            times[name].append(time.thread_time() - t0)
    stages = {}
    for name, inputs, _ in plan:
        n_in, best, worst = sum(len(s) for s in inputs), min(times[name]), max(times[name])
        stages[name] = {
            "events_per_s": n_in / best,
            "spread": n_in / best - n_in / worst,
            "events_in": float(n_in),
            "events_out": float(sum(out.sum() for out in outputs[name])),
        }
    return BenchReport(stages=stages, total_events=total, runs=runs)

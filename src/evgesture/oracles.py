"""Independent reference implementations for verification.

These deliberately share no state or bookkeeping with the production code
paths: the background-suppression references derive every cell's activity
from the event history sum, decay every cell at every event, or take one
event at a time through the scalar rule (no block arrays); the
time-surface reference reconstructs each neighbor's latest timestamp from
per-pixel event histories instead of a rolling memory array, and the
learning reference takes one event at a time through every layer with the
rule written out plainly. The pipeline reference joins these stages with
plain loops, from background suppression to the k-NN label.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .classify import Signature, TrainedModel
from .dbs import DbsConfig, update_activity
from .events import EventStream, SensorGeometry
from .network import LayerConfig, learn_update
from .surfaces import TimeSurfaceConfig, TimestampMemory, extract


def _cell(x: int, y: int, geometry: SensorGeometry, rows: int, cols: int) -> int:
    """The row-major cell of pixel ``(x, y)`` on a ``rows`` x ``cols`` grid
    over the array, remainder pixels joining the last row and column:
    the references' own statement of the tiling rule, written apart from
    ``events.grid_cells``."""
    row = min(y * rows // geometry.height, rows - 1)
    col = min(x * cols // geometry.width, cols - 1)
    return row * cols + col


def dbs_decisions_history(stream: EventStream, config: DbsConfig) -> np.ndarray:
    """Literal history-sum reference for the background filter: O(N^2).

    A cell's activity at time t is the sum of exp(-(t - t_i)/tau) over all
    its events with t_i <= t. Every cell's activity is recomputed from its
    full event list at every decision. Only usable on small streams.
    """
    g = stream.geometry
    n_cells = config.grid_rows * config.grid_cols
    cell_events: list[list[int]] = [[] for _ in range(n_cells)]
    keep = np.zeros(len(stream), dtype=bool)
    for i in range(len(stream)):
        t, x, y = int(stream.t[i]), int(stream.x[i]), int(stream.y[i])
        idx = _cell(x, y, g, config.grid_rows, config.grid_cols)
        cell_events[idx].append(t)
        acts = [
            sum(math.exp(-(t - ti) / config.tau_b_us) for ti in ev)
            for ev in cell_events
        ]
        keep[i] = acts[idx] >= config.alpha * (sum(acts) / n_cells)
    return keep


def dbs_scalar(stream: EventStream, config: DbsConfig):
    """Scalar reference for ``DbsFilter``: one event at a time, the event's
    cell and then the whole array's counter, the sum of all cells, brought
    forward by ``update_activity``; keep iff A_c >= alpha * (sum / cells).
    These are the compiled filter's IEEE-754 operations in its order, so
    decisions and state are bit-equal to it.

    Returns the keep mask, the final state ``(activity, last_t)`` in the
    filter's layout (the whole array's counter last, every counter from
    0.0 at time 0), and each event's relative margin
    ``(A_c - alpha * mean) / A_c``: where it is within rounding of 0, a
    reference that sums in another order may decide the other way.
    """
    g = stream.geometry
    n_cells = config.grid_rows * config.grid_cols
    activity = [0.0] * (n_cells + 1)
    last_t = [0] * (n_cells + 1)
    keep = np.zeros(len(stream), dtype=bool)
    margin = np.zeros(len(stream))
    for i, (t, x, y) in enumerate(zip(stream.t.tolist(), stream.x.tolist(),
                                      stream.y.tolist())):
        idx = _cell(x, y, g, config.grid_rows, config.grid_cols)
        for c in (idx, n_cells):
            activity[c] = update_activity(activity[c], last_t[c], t, config.tau_b_us)
            last_t[c] = t
        a = activity[idx]
        threshold = config.alpha * (activity[n_cells] / n_cells)
        keep[i] = a >= threshold
        margin[i] = (a - threshold) / a
    return keep, (activity, last_t), margin


def dbs_decisions_eager(stream: EventStream, config: DbsConfig) -> np.ndarray:
    """Eager-decay reference: every cell is decayed and written back at
    every event, so there is no lazy bookkeeping to get wrong. Equal to the
    history sum by the exponential's additivity; near-linear, usable at
    10^5-10^6 events.
    """
    g = stream.geometry
    n_cells = config.grid_rows * config.grid_cols
    act = [0.0] * n_cells
    prev_t: int | None = None
    keep = np.zeros(len(stream), dtype=bool)
    tau = config.tau_b_us
    for i in range(len(stream)):
        t, x, y = int(stream.t[i]), int(stream.x[i]), int(stream.y[i])
        if prev_t is not None and t > prev_t:
            decay = math.exp(-(t - prev_t) / tau)
            for c in range(n_cells):
                act[c] *= decay
        prev_t = t
        idx = _cell(x, y, g, config.grid_rows, config.grid_cols)
        act[idx] += 1.0
        keep[i] = act[idx] >= config.alpha * (sum(act) / n_cells)
    return keep


def surfaces_bruteforce(stream: EventStream, config: TimeSurfaceConfig):
    """Reference time-surface extraction from full per-pixel histories.

    For each event, each neighbor's latest timestamp is found by searching
    that pixel's complete event history (binary search over the recorded
    arrival list), never a rolling last-timestamp array. Yields the same
    (channels, 2R+1, 2R+1) arrays as the production extractor, center
    event included.
    """
    g = stream.geometry
    R = config.radius
    side = config.side
    history: dict[tuple[int, int, int], list[int]] = {}
    out = []
    for i in range(len(stream)):
        t, x, y, p = (int(stream.t[i]), int(stream.x[i]), int(stream.y[i]),
                      int(stream.p[i]))
        history.setdefault((p, x, y), []).append(t)
        values = np.zeros((config.channels, side, side))
        for ch in range(config.channels):
            for dy in range(-R, R + 1):
                for dx in range(-R, R + 1):
                    nx, ny = x + dx, y + dy
                    if not (0 <= nx < g.width and 0 <= ny < g.height):
                        continue
                    times = history.get((ch, nx, ny))
                    if not times:
                        continue
                    j = bisect_right(times, t)
                    if j == 0:
                        continue
                    delta = t - times[j - 1]
                    if delta < config.tau_us:
                        values[ch, dy + R, dx + R] = 1.0 - delta / config.tau_us
        out.append(values)
    return out


def knn_bruteforce(model: TrainedModel, signature: Signature) -> str:
    """Full-sort k-NN reference with the same documented tie rules."""
    dist = [
        (float(np.linalg.norm(model.signatures[i] - signature.values)), i)
        for i in range(len(model.labels))
    ]
    dist.sort()  # distance, then training order
    top = [i for _, i in dist[: model.k]]
    counts: dict[str, int] = {}
    for i in top:
        counts[model.labels[i]] = counts.get(model.labels[i], 0) + 1
    best = max(counts.values())
    tied = {l for l, c in counts.items() if c == best}
    for i in top:
        if model.labels[i] in tied:
            return model.labels[i]
    raise AssertionError("unreachable")


class _LayerReference:
    """One layer's per-event state and rule for ``learn_bruteforce``."""

    def __init__(self, config, geometry: SensorGeometry):
        self.config = config
        self.memory = TimestampMemory(
            SensorGeometry(geometry.width, geometry.height, config.in_channels))
        self.bank = np.zeros((config.n_prototypes, config.surface_config.size))
        self.match_counts: list[int] = []
        self.last_match_tick: list[int] = []
        self.tick = 0
        self.learning = True

    @property
    def n_filled(self) -> int:
        return len(self.match_counts)

    def step(self, t: int, x: int, y: int, p: int) -> int | None:
        self.memory.record(t, x, y, p)
        flat = extract(self.memory, t, x, y, p, self.config.surface_config).values.ravel()
        if flat.sum() < 2 * self.config.radius:
            return None
        return self.process_surface(flat)

    def process_surface(self, flat: np.ndarray) -> int | None:
        """The rule on one valid surface: its prototype id, or None while
        the bank warms up."""
        self.tick += 1
        diff = self.bank - flat
        nearest = int(np.add.reduce(diff * diff, axis=1).argmin())
        if not self.learning:
            return nearest
        if self.n_filled < self.config.n_prototypes:
            self.bank[self.n_filled] = flat
            self.match_counts.append(1)
            self.last_match_tick.append(self.tick)
            return None
        stalest, worst_age = None, self.config.reinit_window
        for i, last in enumerate(self.last_match_tick):
            if self.tick - last > worst_age:
                stalest, worst_age = i, self.tick - last
        if stalest is not None:
            self.bank[stalest] = flat
            self.match_counts[stalest] = 1
            self.last_match_tick[stalest] = self.tick
            return stalest
        self.bank[nearest] = learn_update(self.bank[nearest],
                                          self.match_counts[nearest], flat)
        self.match_counts[nearest] += 1
        self.last_match_tick[nearest] = self.tick
        return nearest


def learn_bruteforce(configs, merge_polarity: bool, geometry: SensorGeometry,
                     streams, epochs: int = 1, mode: str = "joint"):
    """Reference online learning of a cascade of LayerConfigs, one event
    at a time; with ``merge_polarity`` all events enter on channel 0.

    Follows ``network.train``'s schedule: ``joint`` passes every stream
    through all layers, learning, ``epochs`` times; ``sequential`` trains
    layer i with layers before it frozen, freezes it, and stops after the
    first layer whose bank did not fill (where ``train`` raises). Each
    event goes through every layer before the next event; each layer
    records it, extracts its surface, gates on the sum >= 2R, and then
    fills an empty slot, reseeds the stalest prototype found by a scan of
    every row, or moves the nearest row by ``learn_update``. The nearest
    row is the first least ``np.add.reduce((bank - s)**2, axis=1)``, the
    pairwise order of the learning rule; a frozen layer labels with it.

    Returns the layers, each with ``bank``, ``n_filled``,
    ``match_counts``, ``last_match_tick`` and ``tick``, and the end
    layer's output events (t, x, y, id) of every pass, in pass order.
    """
    layers = [_LayerReference(c, geometry) for c in configs]
    outputs = []
    if mode == "joint":
        for _ in range(epochs):
            for stream in streams:
                outputs.append(_cascade(layers, merge_polarity, stream))
    else:
        for i, layer in enumerate(layers):
            for _ in range(epochs):
                for stream in streams:
                    outputs.append(_cascade(layers[: i + 1], merge_polarity, stream))
            if layer.n_filled < layer.config.n_prototypes:
                break
            layer.learning = False
    return layers, outputs


def _cascade(layers, merge_polarity: bool, stream: EventStream) -> list:
    """The end layer's output events (t, x, y, id) of ``stream`` taken
    through ``layers`` from fresh memories, each event through every
    layer before the next event."""
    for layer in layers:
        layer.memory.reset()
    out = []
    for i in range(len(stream)):
        event = (int(stream.t[i]), int(stream.x[i]), int(stream.y[i]),
                 0 if merge_polarity else int(stream.p[i]))
        for layer in layers:
            idx = layer.step(*event)
            if idx is None:
                break
            event = event[:3] + (idx,)
        else:
            out.append(event)
    return out


def pipeline_bruteforce(config, train_clips, test_clips):
    """Reference of ``pipeline.train_pipeline`` on ``train_clips``, then
    the k-NN label of each of ``test_clips``, one event at a time:
    ``dbs_scalar``'s mask where DBS is on, ``learn_bruteforce`` for the
    banks, its layer references frozen for the signature pass, a plain
    loop of pooled counts over the end layer's events, L1 normalisation
    and ``knn_bruteforce``.

    Returns ``(layers, model, test_signatures, test_labels)``: the layer
    references, and, where every bank filled, the TrainedModel, the test
    clips' signatures and their labels. Where a bank did not fill, and
    ``train_pipeline`` raises UndertrainedLayerError, the last three are
    None.
    """
    geometry = train_clips[0].stream.geometry
    rows, cols = config.pooling.grid_rows, config.pooling.grid_cols
    in_channels = 1 if config.merge_polarity else geometry.channels
    configs = []
    for spec in config.layers:
        configs.append(LayerConfig(spec.n, spec.r, spec.tau_us, in_channels, spec.reinit_window))
        in_channels = spec.n

    def suppress(stream):
        return stream if config.dbs is None else stream.select(dbs_scalar(stream, config.dbs)[0])

    def signature(filtered):
        n_out = configs[-1].n_prototypes
        values = np.zeros(rows * cols * n_out)
        for _, x, y, p in _cascade(layers, config.merge_polarity, filtered):
            values[_cell(x, y, geometry, rows, cols) * n_out + p] += 1.0
        total = values.sum()
        return values / total if total else values

    train = [suppress(c.stream) for c in train_clips]
    layers, _ = learn_bruteforce(configs, config.merge_polarity, geometry, train,
                                 config.epochs, config.training_mode)
    if any(layer.n_filled < layer.config.n_prototypes for layer in layers):
        return layers, None, None, None
    for layer in layers:
        layer.learning = False
    model = TrainedModel(np.stack([signature(s) for s in train]),
                         [c.label for c in train_clips], min(config.k, len(train_clips)))
    tests = [signature(suppress(c.stream)) for c in test_clips]
    return layers, model, tests, [knn_bruteforce(model, Signature(s)) for s in tests]

"""Hierarchical layers of time-surface prototypes.

Each layer holds a bank of N prototype surfaces learned by online
clustering: the first N valid surfaces seed the bank, then each valid
surface pulls its nearest prototype toward itself with a learning rate
that decays with the prototype's match count. A prototype that goes
unmatched for too long is reseeded from the next incoming surface.

After training the banks are frozen and the network re-encodes events:
an event's channel becomes the index of the nearest prototype to its
time-surface. Invalid surfaces emit nothing, so streams only shrink as
they pass through layers.

An event's surface depends only on the latest earlier event at each pixel
of its receptive field, never on the bank, and a layer reads nothing from
the layers after it. So every layer takes the whole stream in blocks of
arrays (``Layer.encode``), one layer after the other: the surfaces and the
validity gate of a block are computed at once, with the same arithmetic
as ``surfaces.extract``. Only the learning rule itself is sequential, one
valid surface after the other; a frozen layer matches a whole block at
once. Outputs equal the per-event semantics bit for bit, ties included.
``Layer.encode`` is the one block entry point; it carries the timestamp
memory from call to call, so events that arrive a few at a time are
encoded by calling it on each slice in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import Event, EventStream, SensorGeometry, StreamError
from .surfaces import TimeSurfaceConfig

DEFAULT_REINIT_WINDOW = 10_000  # valid surfaces without a match before reseed

# Transient working memory of one block, in bytes. A block holds about
# four (events x D) arrays of 8-byte values, so a layer with surface
# length D takes BLOCK_BYTES // (32 D) events per block.
BLOCK_BYTES = 512 * 1024

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class LayerConfig:
    n_prototypes: int
    radius: int
    tau_us: float
    in_channels: int
    reinit_window: int = DEFAULT_REINIT_WINDOW

    def __post_init__(self):
        if self.n_prototypes < 1:
            raise ValueError("prototype count must be >= 1")
        if not self.reinit_window >= 1:
            raise ValueError(f"reinit_window must be >= 1, got {self.reinit_window}")

    @property
    def surface_config(self) -> TimeSurfaceConfig:
        return TimeSurfaceConfig(
            radius=self.radius, tau_us=self.tau_us, channels=self.in_channels
        )


class UndertrainedLayerError(ValueError):
    """A layer saw fewer valid surfaces than it has prototype slots."""


def _screen_margin(d: int, sq_s, sq_b_max):
    """The gap between the two best screened squared distances of a
    surface at or below which its nearest row is recomputed exactly.

    A screened distance ``|b|^2 - 2 s.b`` (plus ``|s|^2`` or not) and the
    einsum form ``einsum((b - s)**2)`` of the same pair each lie within
    (D + 2) eps A of the exact value, whatever the summation order
    (A = |s|^2 + max |b|^2), so they differ by less than a quarter of
    ``bound = 8 (D + 2) eps A``. Where the two best screened distances are
    more than 2 ``bound`` apart, the screened argmin is the einsum argmin,
    strictly; elsewhere the caller recomputes the einsum against the whole
    bank. Callers test ``gap > margin``, so a NaN gap is recomputed too.
    """
    return 16 * (d + 2) * _EPS * (sq_s + sq_b_max)


def nearest_rows(bank: np.ndarray, surfaces: np.ndarray) -> np.ndarray:
    """Nearest bank row of every surface row; ties go to the lowest index.

    The ids equal ``argmin`` of the per-surface distance
    ``einsum((bank - s)**2)`` bit for bit. One GEMM screens all pairs as
    ``|s|^2 + |b|^2 - 2 s.b``; rows whose two best screened distances lie
    within ``_screen_margin`` are recomputed with the einsum.
    """
    ids = np.zeros(len(surfaces), dtype=np.int64)
    if len(bank) < 2 or len(surfaces) == 0:
        return ids
    sq_s = np.einsum("ij,ij->i", surfaces, surfaces)
    sq_b = np.einsum("ij,ij->i", bank, bank)
    d2 = sq_s[:, None] + sq_b - 2.0 * (surfaces @ bank.T)
    ids = d2.argmin(axis=1)
    best_two = np.partition(d2, 1, axis=1)
    margin = _screen_margin(bank.shape[1], sq_s, sq_b.max())
    for i in np.flatnonzero(~(best_two[:, 1] - best_two[:, 0] > margin)):
        diff = bank - surfaces[i]
        ids[i] = np.einsum("ij,ij->i", diff, diff).argmin()
    return ids


def learn_update(prototype: np.ndarray, match_count: int, flat_surface: np.ndarray) -> np.ndarray:
    """Pull a prototype toward a surface, weighted by cosine similarity.

    Learning rate is 1/(1 + match_count); the move is scaled by the cosine
    of the angle between surface and prototype, so orthogonal surfaces
    leave the prototype untouched. Returns the updated prototype array.
    """
    rate = 1.0 / (1.0 + match_count)
    ns2 = float(flat_surface.dot(flat_surface))
    nc2 = float(prototype.dot(prototype))
    if ns2 == 0.0 or nc2 == 0.0:  # cannot occur for valid surfaces; guarded anyway
        return prototype.copy()
    cos = float(flat_surface.dot(prototype)) / math.sqrt(ns2 * nc2)
    step = rate * cos
    # Surfaces and prototypes are componentwise non-negative, so cos >= 0;
    # clamp keeps the update a convex combination even if that ever breaks.
    step = min(max(step, 0.0), 1.0)
    return prototype + step * (flat_surface - prototype)


class Layer:
    """One stage of the hierarchy: timestamp memory plus a prototype bank.

    ``encode`` computes surfaces and validity a block at a time, then
    matches the valid surfaces (frozen) or takes them through the learning
    rule one after the other (learning); ``forward_event`` and
    ``process_surface`` are its one-event and one-surface calls.
    ``memory`` is per-stream state and must be reset between clips; the
    prototype bank persists.
    """

    def __init__(self, config: LayerConfig, geometry: SensorGeometry):
        self.config = config
        self.geometry = SensorGeometry(geometry.width, geometry.height, config.in_channels)
        self._surface_config = config.surface_config
        # The latest timestamp of every (channel, y, x), -inf where nothing
        # fired, inside an R-wide -inf border so that every receptive field
        # lies within the array; these are the flat offsets of the field
        # from its centre pixel on channel 0, in the channel-major
        # (p, dy, dx) order of surfaces.
        R = config.radius
        self.memory = np.full((config.in_channels, geometry.height + 2 * R,
                               geometry.width + 2 * R), -np.inf)
        c, dy, dx = np.meshgrid(np.arange(config.in_channels), np.arange(-R, R + 1),
                                np.arange(-R, R + 1), indexing="ij")
        height, width = self.memory.shape[1:]
        self._offsets = ((c * height + dy) * width + dx).ravel()
        self._min_sum = 2 * config.radius  # validity threshold
        # Bank rows are flattened channel-major surfaces; only the first
        # n_filled rows are live.
        self.bank = np.zeros((config.n_prototypes, self._surface_config.size))
        self.n_filled = 0
        self.match_counts: list[int] = []
        self.last_match_tick: list[int] = []
        self.tick = 0  # valid surfaces processed
        self.learning = True

    @property
    def bank_full(self) -> bool:
        return self.n_filled == self.config.n_prototypes

    def reset_memory(self) -> None:
        self.memory.fill(-np.inf)

    def freeze(self) -> None:
        if not self.bank_full:
            raise UndertrainedLayerError(
                f"layer with N={self.config.n_prototypes} saw only "
                f"{self.n_filled} valid surfaces"
            )
        self.learning = False

    def forward_event(self, t: int, x: int, y: int, p: int) -> Event | None:
        """Process one event; returns the re-encoded event or None.

        None means the event was consumed: its surface was invalid, or the
        bank is still warming up (unstable ids are never emitted).
        """
        keep, ids = self.encode(*(np.array([v]) for v in (t, x, y, p)))
        return Event(t, x, y, int(ids[0])) if keep[0] else None

    def process_surface(self, flat: np.ndarray) -> int | None:
        """Cluster one valid flattened surface; returns the assigned
        prototype id, or None while the bank is warming up.

        During learning the surface either seeds an empty slot, reseeds
        the stalest unmatched prototype, or pulls its nearest prototype
        toward itself. When frozen it is only matched.
        """
        if not self.learning:
            self.tick += 1
            return int(nearest_rows(self.bank, flat[None, :])[0])
        idx = int(self._learn(flat[None, :])[0])
        return None if idx < 0 else idx

    def _learn(self, surfaces: np.ndarray) -> np.ndarray:
        """The learning rule over valid surface rows, one after the other;
        returns each row's prototype id, -1 while the bank warms up.

        The stalest prototype is the first index of the least
        ``last_match_tick``, reseeded if its age exceeds ``reinit_window``:
        the first row of strictly largest age, ties included. The nearest
        row is screened with one GEMV against the squared row norms, which
        are refreshed whenever a row is written, and recomputed with the
        einsum under the rule of ``_screen_margin``, as in ``nearest_rows``.
        """
        ids = np.full(len(surfaces), -1, dtype=np.int64)
        bank, counts, last = self.bank, self.match_counts, self.last_match_tick
        n, d = bank.shape
        window = self.config.reinit_window
        # The screen ``|b|^2/2 - s.b`` is half of ``|b|^2 - 2 s.b`` exactly.
        # ``sq_b_max`` never falls, so it bounds every row's |b|^2.
        sq_b = np.einsum("ij,ij->i", bank, bank)
        half_sq_b = 0.5 * sq_b
        sq_b_max = float(sq_b.max())
        sq_s = np.einsum("ij,ij->i", surfaces, surfaces).tolist()
        for k, flat in enumerate(surfaces):
            self.tick += 1
            if self.n_filled < n:  # warm-up: no stable ids yet
                i = self.n_filled
                bank[i] = flat
                counts.append(1)
                last.append(self.tick)
                self.n_filled += 1
            else:
                oldest = min(last)
                if self.tick - oldest > window:  # reseed the stalest prototype
                    i = last.index(oldest)
                    bank[i] = flat
                    counts[i] = 1
                else:
                    i = 0
                    if n > 1:
                        screened = half_sq_b - bank.dot(flat)
                        i = int(screened.argmin())
                        screened.partition(1)
                        gap = 2.0 * float(screened[1] - screened[0])
                        if not gap > _screen_margin(d, sq_s[k], sq_b_max):
                            diff = bank - flat
                            i = int(np.einsum("ij,ij->i", diff, diff).argmin())
                    bank[i] = learn_update(bank[i], counts[i], flat)
                    counts[i] += 1
                last[i] = self.tick
                ids[k] = i
            sq = float(bank[i].dot(bank[i]))
            half_sq_b[i] = 0.5 * sq
            sq_b_max = max(sq_b_max, sq)
        return ids

    def encode(self, t, x, y, p) -> tuple[np.ndarray, np.ndarray]:
        """Re-encoding of an event sequence given as arrays, in blocks of
        BLOCK_BYTES working memory; continues from, and updates, the
        timestamp memory, so consecutive slices of a stream give the same
        output as the whole. A frozen layer matches each block's valid
        surfaces at once; a learning layer takes them through the learning
        rule in event order. Returns the mask of emitted events (valid,
        and past the bank's warm-up) and their prototype ids, equal to
        ``forward_event`` on each event in turn."""
        step = max(1, BLOCK_BYTES // (32 * self._surface_config.size))
        keep, ids = [np.zeros(0, dtype=bool)], [np.zeros(0, dtype=np.int64)]
        for a in range(0, len(t), step):
            surfaces = self.block_surfaces(t[a : a + step], x[a : a + step],
                                           y[a : a + step], p[a : a + step])
            valid = surfaces.sum(axis=1) >= self._min_sum
            if self.learning:
                found = self._learn(surfaces[valid])
                emitted = found >= 0
                valid[valid] = emitted
                found = found[emitted]
            else:
                self.tick += int(valid.sum())
                found = nearest_rows(self.bank, surfaces[valid])
            keep.append(valid)
            ids.append(found)
        return np.concatenate(keep), np.concatenate(ids)

    def block_surfaces(self, t, x, y, p) -> np.ndarray:
        """Flattened time-surfaces of one block of consecutive events, one
        row each, equal bit for bit to ``surfaces.extract`` after
        ``record``.

        Each surface reads, per receptive-field pixel, the latest event at
        or before its own within the block, else the timestamp memory,
        which is then updated to include the block.
        """
        memory = self.memory
        n = len(t)
        R = self.config.radius
        t = np.asarray(t, dtype=np.float64)
        width = memory.shape[2]
        centre = (np.asarray(y, dtype=np.int64) + R) * width + np.asarray(x) + R
        keys = np.asarray(p, dtype=np.int64) * (memory.shape[1] * width) + centre
        # Sorted (key, index) pairs, with a sentinel below every key.
        index = np.arange(n)
        ranked = np.concatenate(([-1], np.sort(keys * n + index)))
        ranked_t = np.concatenate(([0.0], t[ranked[1:] % n]))
        query = centre[:, None] + self._offsets  # (event, field pixel) keys
        query_lo = query * n
        at = np.searchsorted(ranked, query_lo + index[:, None], side="right") - 1
        inside = ranked[at] >= query_lo  # the latest event is in this block
        flat_memory = memory.reshape(-1)
        surfaces = np.where(inside, ranked_t[at], flat_memory[query])
        # extract's arithmetic: (last - t)/tau + 1, clamped at 0.
        surfaces -= t[:, None]
        surfaces /= self.config.tau_us
        surfaces += 1.0
        np.maximum(surfaces, 0.0, out=surfaces)
        # Carry each key's last event of the block.
        ranked_keys = ranked[1:] // n
        last = np.diff(ranked_keys, append=-1) != 0  # keys are >= 0
        flat_memory[ranked_keys[last]] = ranked_t[1:][last]
        return surfaces


@dataclass(frozen=True)
class NetworkConfig:
    layers: tuple[LayerConfig, ...]
    merge_polarity: bool = True

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if b.in_channels != a.n_prototypes:
                raise ValueError(
                    "layer chaining broken: next layer expects "
                    f"{b.in_channels} channels, previous emits {a.n_prototypes}"
                )


class Network:
    """Cascade of layers; each layer takes the whole stream emitted by the
    one before it."""

    def __init__(self, config: NetworkConfig, geometry: SensorGeometry):
        self.config = config
        self.geometry = geometry
        self.layers = [Layer(lc, geometry) for lc in config.layers]

    @property
    def out_channels(self) -> int:
        return self.config.layers[-1].n_prototypes

    @property
    def frozen(self) -> bool:
        return all(not layer.learning for layer in self.layers)

    def reset_memories(self) -> None:
        for layer in self.layers:
            layer.reset_memory()

    def forward_stream(self, stream: EventStream, learn_upto: int | None = None) -> EventStream:
        """Push a stream through the cascade; returns the end layer's output.

        ``learn_upto`` bounds the cascade during sequential training: only
        layers [0, learn_upto] see events. Memories are reset first; streams
        are always processed against fresh per-clip context. Each layer
        encodes the whole stream, learning from it if it is still
        learning, and hands the events it emits to the next. A layer's
        state depends only on its own input sequence, so this equals
        taking each event through every layer before the next event.

        Raises StreamError if the stream's array size differs from the
        network's, or, without polarity merge, if it has more channels
        than layer 1 takes.
        """
        g, own = stream.geometry, self.geometry
        if (g.width, g.height) != (own.width, own.height):
            raise StreamError(f"stream is {g.width}x{g.height}, the network "
                              f"takes {own.width}x{own.height}")
        if not self.config.merge_polarity and g.channels > self.layers[0].config.in_channels:
            raise StreamError(f"stream has {g.channels} channels, the network "
                              f"takes {self.layers[0].config.in_channels}")
        self.reset_memories()
        layers = self.layers if learn_upto is None else self.layers[: learn_upto + 1]
        t, x, y = stream.t, stream.x, stream.y
        p = np.zeros(len(stream), dtype=np.int64) if self.config.merge_polarity else stream.p
        for layer in layers:
            keep, p = layer.encode(t, x, y, p)
            t, x, y = t[keep], x[keep], y[keep]
        geom = SensorGeometry(
            self.geometry.width, self.geometry.height, layers[-1].config.n_prototypes
        )
        if len(t) == 0:
            return EventStream.empty(geom)
        return EventStream(t, x, y, p, geom, validate=False)


def train(network: Network, clips, epochs: int = 1, mode: str = "joint") -> Network:
    """Train the prototype banks online and freeze the network.

    ``joint`` (default): every clip runs through the full cascade with all
    layers learning, in one or more passes. ``sequential``: layer 1 trains
    to completion and freezes, then layer 2, and so on.

    Raises UndertrainedLayerError (naming the layer) if any bank never
    filled.
    """
    if mode not in ("joint", "sequential"):
        raise ValueError(f"unknown training mode: {mode!r}")
    if not epochs >= 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    streams = [c.stream if hasattr(c, "stream") else c for c in clips]
    if mode == "joint":
        for _ in range(epochs):
            for s in streams:
                network.forward_stream(s)
        for i, layer in enumerate(network.layers):
            try:
                layer.freeze()
            except UndertrainedLayerError as e:
                raise UndertrainedLayerError(f"layer {i + 1}: {e}") from None
    else:
        for i, layer in enumerate(network.layers):
            for _ in range(epochs):
                for s in streams:
                    network.forward_stream(s, learn_upto=i)
            try:
                layer.freeze()
            except UndertrainedLayerError as e:
                raise UndertrainedLayerError(f"layer {i + 1}: {e}") from None
    return network

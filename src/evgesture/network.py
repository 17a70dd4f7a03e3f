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
the layers after it. So a stream goes through the whole cascade, and
through background suppression before it (``Network.forward_clip``), in
one call of the compiled pass of ``_native`` (``evg_pass`` in
``_native.c``, built on first import), with no copy of the stream
between stages. The pass takes each event in turn through each layer:
the layer records it in its timestamp memory, reads its surface from it
with the arithmetic of ``surfaces.extract``, gates the surface on its
sum, and takes a valid one through the learning rule or matches it to
the frozen bank; the id it emits is the event's channel in the next
layer, and an event a layer drops goes no further. Outputs equal the
per-event semantics, and each layer taking the whole output of the one
before it, bit for bit, ties included. The pass writes the end layer's
output events itself (``forward_clip``), or only counts them into pooled
bins (``pooled_counts``, for a signature). Its surface reader reads in
two phases with no branch on an entry's value: it lists the entries
younger than tau, then divides only those, since an entry at least tau
old reads 0.0 under any rounding. ``Layer.encode`` is the pass over one
layer; it carries the timestamp memory from call to call, so events that
arrive a few at a time are encoded by calling it on each slice in turn.

Learning and frozen matching find the nearest prototype with one rule: a
screen over the surface's nonzero entries, then an exact recheck of near
ties. Every norm, dot product, surface sum and squared distance that
decides an output is summed in one order, numpy's pairwise
``np.add.reduce``, and nothing calls BLAS, so a trained bank and its ids
are the same bit for bit whatever BLAS kernel numpy loads.
``learn_update`` sums in that order too.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _native
from .classify import PoolingConfig
from .dbs import DbsConfig, DbsFilter
from .events import Event, EventStream, SensorGeometry, StreamError
from .surfaces import TimeSurfaceConfig

DEFAULT_REINIT_WINDOW = 10_000  # valid surfaces without a match before reseed
TRAINING_MODES = ("joint", "sequential")

_LIB = _native.load()


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
        self.surface_config  # checks radius, tau_us and in_channels

    @property
    def surface_config(self) -> TimeSurfaceConfig:
        return TimeSurfaceConfig(
            radius=self.radius, tau_us=self.tau_us, channels=self.in_channels
        )


class UndertrainedLayerError(ValueError):
    """A layer saw fewer valid surfaces than it has prototype slots."""


def nearest_rows(bank: np.ndarray, surfaces: np.ndarray) -> np.ndarray:
    """Nearest bank row of every surface row; ties go to the lowest index.

    The ids equal ``argmin`` of the per-surface distance
    ``np.add.reduce((bank - s)**2, axis=1)``, summed in numpy's pairwise
    order as in learning, bit for bit: they are a frozen layer's pass over
    the rows, which screens each surface over its nonzero entries and
    recomputes near ties in the pairwise order, the rule that learning
    uses. Raises ValueError unless the surfaces are rows of the bank's
    width.
    """
    frozen = Layer(LayerConfig(len(bank), 1, 1.0, 1), SensorGeometry(1, 1, 1))
    frozen.bank, frozen.learning = bank, False
    return _native.run(_LIB, None, [frozen], rows=surfaces)[1]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b`` in the one summation order of learning, numpy's pairwise
    ``np.add.reduce``, the order ``_native.c`` reproduces; no BLAS."""
    return float(np.add.reduce(a * b))


def learn_update(prototype: np.ndarray, match_count: int, flat_surface: np.ndarray) -> np.ndarray:
    """Pull a prototype toward a surface, weighted by cosine similarity.

    Learning rate is 1/(1 + match_count); the move is scaled by the cosine
    of the angle between surface and prototype, so orthogonal surfaces
    leave the prototype untouched. Returns the updated prototype array.
    |s|^2, s.p and |p|^2 are pairwise ``np.add.reduce`` sums, and the move
    is ``prototype + step * (flat_surface - prototype)``, the arithmetic
    of the compiled learning rule bit for bit.
    """
    moved = prototype.copy()
    ns2, nc2 = _dot(flat_surface, flat_surface), _dot(prototype, prototype)
    if ns2 == 0.0 or nc2 == 0.0:  # cannot occur for valid surfaces; guarded anyway
        return moved
    cos = _dot(flat_surface, prototype) / math.sqrt(ns2 * nc2)
    step = 1.0 / (1.0 + match_count) * cos
    # Surfaces and prototypes are componentwise non-negative, so cos >= 0;
    # clamp keeps the update a convex combination even if that ever breaks.
    step = min(max(step, 0.0), 1.0)
    move = flat_surface - prototype
    move *= step
    moved += move
    return moved


class Layer:
    """One stage of the hierarchy: timestamp memory plus a prototype bank.

    ``encode`` takes events through the layer in one compiled pass: each
    event's surface, its validity, and then the learning rule (learning)
    or a match against the bank (frozen); ``forward_event`` and
    ``process_surface`` are its one-event and one-surface calls.
    ``memory`` is per-stream state and must be reset between clips; the
    prototype bank persists. Building a layer sizes nothing by its config.
    """

    def __init__(self, config: LayerConfig, geometry: SensorGeometry):
        self.config = config
        self.geometry = SensorGeometry(geometry.width, geometry.height, config.in_channels)
        self.bank_shape = (config.n_prototypes, config.surface_config.size)
        self.since = 0  # the latest event time in memory
        self.match_counts: list[int] = []
        self.last_match_tick: list[int] = []
        self.tick = 0  # valid surfaces processed
        self.learning = True

    @property
    def n_filled(self) -> int:
        return len(self.match_counts)

    @property
    def bank_full(self) -> bool:
        return self.n_filled == self.config.n_prototypes

    @cached_property
    def bank(self) -> np.ndarray:
        """Prototype rows, flattened channel-major surfaces, of which the
        first n_filled are live. Allocated on first use, like ``memory``."""
        return np.zeros(self.bank_shape)

    @cached_property
    def memory(self) -> np.ndarray:
        """The latest timestamp of every (channel, y, x), -inf where nothing
        fired, inside an R-wide -inf border so that every receptive field
        lies within the array. Allocated on first use, then reused."""
        R = self.config.radius
        g = self.geometry
        return np.full((g.channels, g.height + 2 * R, g.width + 2 * R), -np.inf)

    def reset_memory(self) -> None:
        self.memory.fill(-np.inf)
        self.since = 0

    def replica(self) -> Layer:
        """A layer over this one's bank, shared by reference, with its own
        per-stream state: a memory of its own, allocated on first use,
        copies of the count and tick lists, and ``tick`` from 0."""
        twin = copy.copy(self)
        twin.__dict__.pop("memory", None)
        twin.match_counts, twin.last_match_tick = list(self.match_counts), \
            list(self.last_match_tick)
        twin.tick = 0
        return twin

    def freeze(self) -> None:
        if not self.bank_full:
            raise UndertrainedLayerError(
                f"layer with N={self.config.n_prototypes} saw only "
                f"{self.n_filled} valid surfaces"
            )
        self.learning = False

    def install(self, bank, match_counts) -> None:
        """Take a trained N x D bank and its N match counts, and freeze;
        raises ValueError, changing nothing, on any other shape, or at a
        count outside [0, 2**63), which the compiled pass cannot hold."""
        bank, counts = np.array(bank, dtype=np.float64), list(match_counts)
        if bank.shape != self.bank_shape or len(counts) != len(bank):
            raise ValueError(f"bank {bank.shape} with {len(counts)} counts; the layer "
                             f"takes {self.bank_shape}, one count per row")
        for i, count in enumerate(counts):
            if not 0 <= count < 2**63:
                raise ValueError(f"match count {count} of row {i} is outside [0, 2**63)")
        self.bank, self.match_counts = bank, counts
        self.last_match_tick = [0] * len(counts)
        self.freeze()

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
        keep, ids, _ = _native.run(_LIB, None, [self], rows=flat[None, :])
        return int(ids[0]) if keep[0] else None

    def _learn(self, surfaces: np.ndarray) -> np.ndarray:
        """The learning rule over valid surface rows, one after the other;
        returns each row's prototype id, -1 while the bank warms up.

        The stalest prototype is the first index of the least
        ``last_match_tick``, reseeded if its age exceeds ``reinit_window``:
        the first row of strictly largest age, ties included. The nearest
        row is found by the rule of ``nearest_rows``, against row norms
        and a transposed bank that are refreshed whenever a row is
        written; the pull is ``learn_update``. Every norm, dot product and
        squared distance is a pairwise ``np.add.reduce`` sum, with no
        BLAS, so the bank is the same on every machine.
        """
        keep, ids, _ = _native.run(_LIB, None, [self], rows=surfaces)
        found = np.full(len(keep), -1)
        found[keep] = ids
        return found

    def encode(self, t, x, y, p) -> tuple[np.ndarray, np.ndarray]:
        """Re-encoding of an event sequence given as arrays, in one pass;
        continues from, and updates, the timestamp memory, so consecutive
        slices of a stream give the same output as the whole. Returns the
        mask of emitted events (valid, and past the bank's warm-up) and
        their prototype ids, equal to ``forward_event`` on each event in
        turn.

        Raises StreamError, before the memory changes, if a value is not
        an integer, or an event is earlier than the one before it or than
        the memory's latest, or lies outside the layer's pixels or input
        channels."""
        return _native.run(_LIB, None, [self], t, x, y, p)[:2]

    def block_surfaces(self, t, x, y, p) -> np.ndarray:
        """Flattened time-surfaces of consecutive events, one row each,
        equal bit for bit to ``surfaces.extract`` after ``record``; the
        timestamp memory is updated to include them, and ``since`` to the
        last one's time.

        One compiled loop, ``evg_surfaces``, records each event in the
        memory and then reads its field, with the reader of ``evg_pass``.
        Raises StreamError, with the memory unchanged, where
        ``check_events`` refuses the events: at a value that is not a
        64-bit integer, if the event fields differ in length, at a negative
        first time or one earlier than the event before it or than the
        memory's latest, or at an event outside the layer's pixels or
        channels.
        """
        return _native.surfaces(_LIB, self, t, x, y, p)


class Network:
    """Cascade of layers, each taking the whole stream emitted by the one
    before it; with ``merge_polarity`` all events enter layer 1 on channel 0."""

    def __init__(self, layers: tuple[LayerConfig, ...], geometry: SensorGeometry,
                 merge_polarity: bool = True):
        for a, b in zip(layers, layers[1:]):
            if b.in_channels != a.n_prototypes:
                raise ValueError(f"layer chaining broken: next layer expects {b.in_channels} "
                                 f"channels, previous emits {a.n_prototypes}")
        self.geometry = geometry
        self.merge_polarity = merge_polarity
        self.layers = [Layer(lc, geometry) for lc in layers]

    @property
    def out_channels(self) -> int:
        return self.layers[-1].config.n_prototypes

    @property
    def frozen(self) -> bool:
        return all(not layer.learning for layer in self.layers)

    def reset_memories(self) -> None:
        for layer in self.layers:
            layer.reset_memory()

    def replica(self) -> Network:
        """A network of ``Layer.replica``s: the same banks, per-stream
        state of its own. A frozen network and its replicas only read the
        banks, so each can take a stream while the others take theirs."""
        twin = copy.copy(self)
        twin.layers = [layer.replica() for layer in self.layers]
        return twin

    def forward_stream(self, stream: EventStream, learn_upto: int | None = None) -> EventStream:
        """Push a stream through the cascade; returns the end layer's output.

        ``learn_upto`` bounds the cascade during sequential training: only
        layers [0, learn_upto] see events. See ``forward_clip``, which this
        is with no background suppression.
        """
        return self.forward_clip(stream, None, learn_upto)[0]

    def forward_clip(self, stream: EventStream, dbs: DbsConfig | None,
                     learn_upto: int | None = None) -> tuple[EventStream, int]:
        """Push a raw stream through background suppression by a fresh
        filter of ``dbs`` (None: none) and the cascade up to layer
        ``learn_upto`` (None: all), in one compiled pass; returns the end
        layer's output and the number of events the filter kept.

        Memories are reset first; streams are always processed against
        fresh per-clip context. Each event in turn goes through the filter
        and then every layer, learning where a layer is still learning,
        and stops at the first stage that drops it. A stage's state
        depends only on its own input sequence, so this equals each stage
        taking the whole stream the stage before it emits. The pass
        writes the kept events' times and pixels itself, so no mask
        selects them.

        Raises StreamError if the stream's array size differs from the
        network's, or, without polarity merge, if it has more channels
        than layer 1 takes.
        """
        _, ids, kept, t, x, y = self._pass(stream, dbs, learn_upto, events=True)
        last = self.layers[-1 if learn_upto is None else learn_upto]
        geom = SensorGeometry(self.geometry.width, self.geometry.height,
                              last.config.n_prototypes)
        return EventStream(t, x, y, ids, geom, validate=False), kept

    def pooled_counts(self, stream: EventStream, dbs: DbsConfig | None,
                      pooling: PoolingConfig) -> tuple[np.ndarray, int]:
        """``classify.accumulate`` of ``forward_clip``'s output, as float64
        counts per ``cell * out_channels + id`` bin, and the number of
        events the filter kept; the pass counts each emitted event itself,
        so no output stream is built."""
        *_, kept, counts = self._pass(stream, dbs, None,
                                      pool=(pooling.grid_rows, pooling.grid_cols))
        return counts, kept

    def _pass(self, stream: EventStream, dbs: DbsConfig | None, learn_upto: int | None,
              **outputs) -> tuple:
        """``_native.run`` of a fresh filter of ``dbs`` and the layers up
        to ``learn_upto``, their memories reset, on ``stream``, asking for
        ``outputs``; the checks of ``forward_clip``."""
        g, own = stream.geometry, self.geometry
        if (g.width, g.height) != (own.width, own.height):
            raise StreamError(f"stream is {g.width}x{g.height}, the network "
                              f"takes {own.width}x{own.height}")
        if not self.merge_polarity and g.channels > self.layers[0].config.in_channels:
            raise StreamError(f"stream has {g.channels} channels, the network "
                              f"takes {self.layers[0].config.in_channels}")
        self.reset_memories()
        layers = self.layers if learn_upto is None else self.layers[: learn_upto + 1]
        filt = None if dbs is None else DbsFilter(g, dbs)
        return _native.run(_LIB, filt, layers, stream.t, stream.x, stream.y,
                           None if self.merge_polarity else stream.p, **outputs)


def train(network: Network, clips, epochs: int = 1, mode: str = "joint") -> Network:
    """Train the prototype banks online on ``clips``, a list of event
    streams, and freeze the network.

    ``joint`` (default): every clip runs through the full cascade with all
    layers learning, in one or more passes. ``sequential``: layer 1 trains
    to completion and freezes, then layer 2, and so on.

    Raises UndertrainedLayerError (naming the layer) if any bank never
    filled.
    """
    if mode not in TRAINING_MODES:
        raise ValueError(f"unknown training mode: {mode!r}")
    if not epochs >= 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    layers = network.layers
    # Each stage learns in layers [0, last], then freezes them; freezing
    # a layer again is a no-op.
    stages = [len(layers) - 1] if mode == "joint" else range(len(layers))
    for last in stages:
        for _ in range(epochs):
            for s in clips:
                network.forward_stream(s, learn_upto=last)
        for i, layer in enumerate(layers[: last + 1], start=1):
            try:
                layer.freeze()
            except UndertrainedLayerError as e:
                raise UndertrainedLayerError(f"layer {i}: {e}") from None
    return network

"""Dynamic background suppression.

The pixel array is divided into a coarse grid of cells; each cell keeps an
exponentially decaying activity counter that gains +1 on every event inside
the cell. An event passes only if its cell's activity is at least ``alpha``
times the mean activity of all cells, decayed to the event's time.

Every cell decays with the same time constant, so the sum of all cells'
activities is itself one decaying counter that gains +1 per event; the
mean is that running sum over the cell count, O(1) per event whatever the
grid size. The filter takes events in blocks of arrays: cells, gaps, the
decays and the final compare are computed per block, and only the two
recurrences ``a = a * d + 1.0`` (the running sum over the block, and each
cell over its own events) run one event after the other, on plain Python
floats. Each decay is ``math.exp`` of the gap, evaluated once per distinct
gap, so every decision is bit-equal to taking the events one at a time.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .events import EventStream, SensorGeometry, check_events, check_grid, grid_cells

# Events per process_block call in filter_stream. A block's working arrays
# peak at about 140 bytes an event, so a long input is filtered in about
# 9 MB; a swipe clip fits in one block.
BLOCK_EVENTS = 1 << 16


@dataclass(frozen=True)
class DbsConfig:
    grid_rows: int = 3
    grid_cols: int = 3
    tau_b_us: float = 300.0
    alpha: float = 2.0

    def __post_init__(self):
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid must be at least 1x1")
        if not 0 < self.tau_b_us < math.inf:
            raise ValueError(f"tau_b_us must be finite and > 0, got {self.tau_b_us}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")


def update_activity(activity: float, last_t: int | None, t: int, tau_b_us: float) -> float:
    """Decay a cell's counter to time ``t`` and add the new event's +1."""
    if last_t is None:
        return 1.0
    if t < last_t:
        raise ValueError(f"time regression: {t} < {last_t}")
    return activity * math.exp(-(t - last_t) / tau_b_us) + 1.0


@dataclass
class RetentionStats:
    total: int
    kept: int
    keep_mask: np.ndarray

    @property
    def retention(self) -> float:
        return self.kept / self.total if self.total else 0.0


def _decays(gaps: np.ndarray, tau: float) -> np.ndarray:
    """``math.exp(-gap / tau)`` per gap, evaluated once per distinct gap.
    ``np.exp`` may differ from ``math.exp`` in the last bit."""
    distinct, inverse = np.unique(gaps, return_inverse=True)
    return np.array([math.exp(-g / tau) for g in distinct.tolist()])[inverse]


class DbsFilter:
    """Stateful filter over a time-ordered event sequence, taken in blocks.

    State is every cell's activity and time of its last event (``None``
    until the cell fires), plus the running sum of all cells' activities
    and the time it was last updated. Decay is lazy: a cell's stored
    activity is only brought forward on the cell's own events.
    """

    def __init__(self, geometry: SensorGeometry, config: DbsConfig = DbsConfig()):
        check_grid(config.grid_rows, config.grid_cols, geometry, "DBS grid")
        self.geometry = geometry
        self.config = config
        n = config.grid_rows * config.grid_cols
        self.activity = [0.0] * n
        self.last_t = [None] * n  # None = never fired
        self._sum = 0.0  # sum of all cells' activities at time _sum_t
        self._sum_t: int | None = None

    def process(self, t: int, x: int, y: int) -> bool:
        """One event: ``process_block`` of a block of one. Each call pays a
        block's fixed cost (about 135 us on a 2-core x86 machine, against
        0.3 us an event in large blocks), so streaming callers should batch."""
        return bool(self.process_block([t], [x], [y])[0])

    def process_block(self, t, x, y) -> np.ndarray:
        """Update state with a block of events and return their keep mask.

        Each event's own cell is updated first; the mean then includes the
        just-updated cell. Keep iff A_c >= alpha * mean. The block must not
        go back in time, within itself or behind the last event already
        taken, nor leave the array; otherwise ``StreamError`` is raised and
        no state changes.
        """
        t = np.asarray(t, dtype=np.int64)
        n = len(t)
        check_events(t, x, y, None, self.geometry, self._sum_t)
        if n == 0:
            return np.zeros(0, dtype=bool)
        cfg = self.config
        cells = grid_cells(x, y, self.geometry, cfg.grid_rows, cfg.grid_cols)
        # Group each cell's events, in time order, and find the group starts
        # (a stable sort of narrow keys is a radix sort).
        order = np.argsort(cells.astype(np.min_scalar_type(len(self.activity) - 1)),
                           kind="stable")
        cell_t = t[order]
        starts = np.flatnonzero(np.diff(cells[order], prepend=-1))
        group_cells = cells[order[starts]].tolist()
        # Gap of every event to the previous one, and to the previous one
        # in its cell; the first ones reach back to the carried times. A
        # first event ever has gap 0 onto 0.0, which gives exactly 1.0.
        gap = np.diff(t, prepend=t[0] if self._sum_t is None else self._sum_t)
        cell_gap = np.diff(cell_t, prepend=0)
        cell_gap[starts] = [
            0 if last is None else t0 - last
            for t0, last in zip(cell_t[starts].tolist(),
                                (self.last_t[c] for c in group_cells))
        ]
        # Both recurrences read the decays as Python floats through a
        # memoryview and store their values unboxed.
        decay = memoryview(_decays(np.concatenate([gap, cell_gap]), cfg.tau_b_us))
        total = self._sum
        sums = array("d")
        push = sums.append
        for d in decay[:n]:
            total = total * d + 1.0
            push(total)
        acts = array("d")
        push = acts.append
        ends = starts[1:].tolist() + [n]
        for c, lo, hi in zip(group_cells, starts.tolist(), ends):
            a = self.activity[c]
            for d in decay[n + lo:n + hi]:
                a = a * d + 1.0
                push(a)
            self.activity[c] = a
            self.last_t[c] = int(cell_t[hi - 1])
        self._sum = total
        self._sum_t = int(t[-1])
        cell_act = np.empty(n)
        cell_act[order] = np.frombuffer(acts)
        mean = np.frombuffer(sums) / len(self.activity)
        return cell_act >= cfg.alpha * mean


def filter_stream(filt: DbsFilter, stream: EventStream) -> tuple[EventStream, RetentionStats]:
    """Run a stream through the filter, ``BLOCK_EVENTS`` at a time; kept
    events preserve order and times. A block that goes back in time or
    leaves the array raises before the filter takes any of it."""
    n = len(stream)
    keep = np.zeros(n, dtype=bool)
    for lo in range(0, n, BLOCK_EVENTS):
        hi = lo + BLOCK_EVENTS
        keep[lo:hi] = filt.process_block(stream.t[lo:hi], stream.x[lo:hi],
                                         stream.y[lo:hi])
    kept = stream.select(keep)
    return kept, RetentionStats(total=n, kept=int(keep.sum()), keep_mask=keep)

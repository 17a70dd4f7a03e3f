"""Dynamic background suppression.

The pixel array is divided into a coarse grid of cells; each cell keeps an
exponentially decaying activity counter that gains +1 on every event inside
the cell. An event passes only if its cell's activity is at least ``alpha``
times the mean activity of all cells, decayed to the event's time.

Every cell decays with the same time constant, so the sum of all cells'
activities is itself one decaying counter that gains +1 per event; the
mean is that counter over the cell count, O(1) per event whatever the grid
size. The filter keeps it after the cells' counters, so every event hits
two counters, its cell's and the whole array's, and one rule updates both.
A stream is taken whole, in one call of the compiled pass of
``_native`` (``evg_pass`` in ``_native.c``), with no layers after the
filter, or with a network's layers after it (``Network.forward_clip``):
each event in turn finds its cell from two per-axis tables of
``grid_cells``, and runs the rule with libm's ``exp``, the function
``math.exp`` calls, so every decision and counter is bit-equal to
``update_activity``'s. The decay of each integer gap below
``DECAY_GAPS`` microseconds is read from ``decay_table``, built once per
tau with ``update_activity``'s own ``math.exp`` call and shared,
read-only, by every filter of that tau; the argument and the function
are the same, so the table moves no bit. Larger gaps call ``exp`` each
time. ``filter_stream`` takes the kept events' times and pixels from the
pass, already compacted.

Masks therefore depend on the platform's libm. glibc 2.36 rounds 1 of
the 1,611 distinct decay arguments of one cluttered test workload
differently from the correctly rounded value; another libm (musl,
Bionic, macOS) may round such an argument the other way, move a counter
by one ulp, and flip a keep decision that sits on an exact near-tie. So
the layers and k-NN compute the same bits from the same input on every
machine, but DBS masks at near-ties, and so the input of a layer behind
DBS, may differ.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _native
from .events import EventStream, SensorGeometry, check_grid, grid_tables

_LIB = _native.load()
DECAY_GAPS = 4096  # the gaps, in microseconds, below which a filter reads its decay


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


def update_activity(activity: float, last_t: int, t: int, tau_b_us: float) -> float:
    """Decay a cell's counter to time ``t`` and add the new event's +1."""
    if t < last_t:
        raise ValueError(f"time regression: {t} < {last_t}")
    return activity * math.exp(-(t - last_t) / tau_b_us) + 1.0


@functools.lru_cache(maxsize=32)  # a table is 32 KiB; a process uses a few taus
def decay_table(tau_b_us: float) -> np.ndarray:
    """The read-only table of ``update_activity``'s decay for each
    integer gap ``dt`` below ``DECAY_GAPS``: ``math.exp(-dt / tau_b_us)``,
    built once per tau and shared by every filter of that tau."""
    table = np.array([math.exp(-dt / tau_b_us) for dt in range(DECAY_GAPS)])
    table.flags.writeable = False
    return table


@dataclass
class RetentionStats:
    total: int
    kept: int
    keep_mask: np.ndarray

    @property
    def retention(self) -> float:
        return self.kept / self.total if self.total else 0.0


class DbsFilter:
    """Stateful filter over a time-ordered event sequence, taken whole or
    in consecutive slices.

    State is one decaying counter per cell and one for the whole array,
    the sum of all cells' activities: ``activity`` holds their values and
    ``last_t`` the time of each one's last event, the whole array's last.
    ``decay`` is the tau's ``decay_table``, which the filter only reads.
    Every counter starts at 0.0 at time 0, which the first event's decay
    and +1 take to exactly 1.0. Decay is lazy: a counter's stored value is
    only brought forward on its own events.

    A pixel's cell is ``row_cell[y] + col_cell[x]``: ``grid_cells`` at
    ``(0, y)``, its row's first cell, plus ``grid_cells`` at ``(x, 0)``,
    its column, which sum to ``grid_cells(x, y)``. The tables are int64,
    since a legal grid can have more than 2**31 cells, and hold one entry
    per pixel row and column; every filter of one geometry and grid
    shares them, read-only.
    """

    def __init__(self, geometry: SensorGeometry, config: DbsConfig = DbsConfig()):
        rows, cols = config.grid_rows, config.grid_cols
        check_grid(rows, cols, geometry, "DBS grid")
        self.geometry = geometry
        self.config = config
        n = rows * cols + 1
        self.activity = np.zeros(n)
        self.last_t = np.zeros(n, dtype=np.int64)
        self.row_cell, self.col_cell = grid_tables(geometry, rows, cols)
        self.decay = decay_table(float(config.tau_b_us))  # the pass's tau, a double

    def process_block(self, t, x, y) -> np.ndarray:
        """Update state with a sequence of events and return their keep
        mask, in one compiled pass.

        Each event's own cell is updated first; the mean then includes the
        just-updated cell. Keep iff A_c >= alpha * mean. The events must be
        integers, and must not go back in time, among themselves or behind
        the last event already taken, nor leave the array; otherwise
        ``StreamError`` is raised, naming the first bad event's index, and
        no state changes.
        """
        return _native.run(_LIB, self, [], t, x, y)[0]


def filter_stream(filt: DbsFilter, stream: EventStream) -> tuple[EventStream, RetentionStats]:
    """Run a stream through the filter in one compiled pass, the
    ``process_block`` rule, which also writes the kept events, compacted,
    so no mask selects them; kept events preserve order and times. A
    stream that goes back in time, leaves the array or has a channel
    outside the filter's anywhere raises, naming the event's index in the
    stream, before the filter takes any of it."""
    keep, p, kept, t, x, y = _native.run(_LIB, filt, [], stream.t, stream.x, stream.y,
                                         stream.p, events=True)
    return (EventStream(t, x, y, p, stream.geometry, validate=False),
            RetentionStats(total=len(stream), kept=kept, keep_mask=keep))

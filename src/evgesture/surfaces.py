"""Time-surfaces: per-pixel last-event memories and linear-decay descriptors.

A time-surface describes the spatio-temporal neighborhood of an event: for
every pixel offset within radius R and every channel, the time since that
pixel's most recent event is passed through a linear decay kernel, giving
values in [0, 1]. Surfaces whose values sum to less than 2R carry too
little information and are discarded by the validity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import SensorGeometry


@dataclass(frozen=True)
class TimeSurfaceConfig:
    radius: int  # receptive-field half-width R, in pixels
    tau_us: float  # decay constant
    channels: int

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if not 0 < self.tau_us < math.inf:
            raise ValueError(f"tau_us must be finite and > 0, got {self.tau_us}")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def size(self) -> int:
        """Flattened surface length; layout is channel-major (p, dy, dx)."""
        return self.channels * self.side * self.side


class TimestampMemory:
    """Last event timestamp per (channel, y, x); never-fired pixels hold -inf.

    Stored as float64 so the decay arithmetic vectorizes; integer
    microsecond timestamps are exact in float64 far beyond any realistic
    recording length.
    """

    def __init__(self, geometry: SensorGeometry):
        self.geometry = geometry
        self.last_t = np.full(
            (geometry.channels, geometry.height, geometry.width), -np.inf
        )

    def record(self, t: int, x: int, y: int, p: int) -> None:
        self.last_t[p, y, x] = t

    def reset(self) -> None:
        self.last_t.fill(-np.inf)


@dataclass
class TimeSurface:
    """Decayed local descriptor of one event.

    ``values`` has shape (channels, 2R+1, 2R+1); the center entry on the
    event's channel is 1 when the memory was updated with the event first.
    """

    values: np.ndarray
    t: int
    x: int
    y: int
    p: int


def extract(memory: TimestampMemory, t: int, x: int, y: int, p: int,
            config: TimeSurfaceConfig) -> TimeSurface:
    """Compute the event's time-surface from the memory.

    ``record`` must already have been applied for this event so the center
    value is exactly 1. Out-of-array neighbors and never-fired pixels
    contribute 0.
    """
    R = config.radius
    side = config.side
    g = memory.geometry
    x0, x1 = x - R, x + R + 1
    y0, y1 = y - R, y + R + 1
    sx0, sy0 = max(x0, 0), max(y0, 0)
    sx1, sy1 = min(x1, g.width), min(y1, g.height)
    values = np.zeros((config.channels, side, side))
    # 1 - (t - last)/tau, clamped to 0; -inf (never fired) clamps too.
    # Division (not reciprocal multiply) keeps bit-equality with any
    # straightforward reimplementation of the kernel.
    inner = (memory.last_t[:, sy0:sy1, sx0:sx1] - t) / config.tau_us
    inner += 1.0
    np.maximum(inner, 0.0, out=inner)
    values[:, sy0 - y0 : sy1 - y0, sx0 - x0 : sx1 - x0] = inner
    return TimeSurface(values=values, t=t, x=x, y=y, p=p)


def is_valid(surface: TimeSurface, radius: int) -> bool:
    """Information gate: the surface's values must sum to at least 2R."""
    return float(surface.values.sum()) >= 2 * radius

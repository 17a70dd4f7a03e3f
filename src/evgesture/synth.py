"""Synthetic event streams with known ground truth.

Everything here is a pure function of (spec, seed). Randomness comes from
numpy's PCG64 generator (``np.random.default_rng(seed)``) and Poisson gaps
are drawn by inversion (``-ln(1-U) / rate``), so streams are reproducible
bit-for-bit across platforms. ``gen_translating_blob`` (and so the gesture
generators) takes all its uniforms from one array draw, in the same order
as one scalar draw per value, and inverts the gaps with ``math.log``, so its
streams equal an event-by-event generator's bit for bit. ``gen_composite``
draws its gaps, pixels and polarities in bulk arrays by the same inversion,
through ``np.log``. ``gen_moving_bar`` draws its jitter as one array, which
on PCG64 equals one ``rng.integers`` call per event in the same order.

Moving stimuli emit events only along their contours, mimicking the
sensor's native contour response; blobs emit on an annulus, bars on their
leading and trailing edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .events import ClipRecord, EventStream, SensorGeometry

US = 1_000_000  # microseconds per second


@dataclass
class LabeledStream:
    stream: EventStream
    tags: list[str]  # one provenance tag per event, aligned with order
    label: str = ""


def _poisson_times_bulk(rate_hz: float, duration_us: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson arrival times in [0, duration), by gap inversion
    drawn in blocks.

    Each block holds the expected count plus a margin; a further block is
    drawn only while the running time has not yet passed ``duration_us``.
    """
    if rate_hz <= 0:
        return np.empty(0, dtype=np.int64)
    scale = US / rate_hz
    block = int(rate_hz * duration_us / US * 1.05) + 64
    times = np.cumsum(-np.log(1.0 - rng.random(block)) * scale)
    while times[-1] < duration_us:
        gaps = -np.log(1.0 - rng.random(block)) * scale
        gaps[0] += times[-1]
        times = np.concatenate([times, np.cumsum(gaps)])
    return times[times < duration_us].astype(np.int64)


@dataclass(frozen=True)
class MovingBarSpec:
    geometry: SensorGeometry
    velocity_px_s: float  # horizontal speed, positive = rightward
    bar_top: int
    bar_height: int
    start_x: int = 0
    travel_px: int | None = None  # default: to the array edge
    jitter_us: int = 100


def gen_moving_bar(spec: MovingBarSpec, seed: int) -> LabeledStream:
    """Vertical bar translating horizontally.

    Each row emits one ON event when the leading edge crosses a pixel
    column and one OFF event when the trailing edge does; crossings of one
    row are 1e6/v microseconds apart before the seeded jitter (<= 100 us).
    """
    if spec.velocity_px_s == 0:
        raise ValueError("degenerate trajectory: zero velocity")
    rng = np.random.default_rng(seed)
    g = spec.geometry
    direction = 1 if spec.velocity_px_s > 0 else -1
    travel = spec.travel_px
    if travel is None:
        travel = (g.width - 1 - spec.start_x) if direction > 0 else spec.start_x
    # Crossings in draw order: column step, row, leading ON before trailing OFF.
    rows = np.arange(spec.bar_top, min(spec.bar_top + spec.bar_height, g.height))
    i, y, p = (a.ravel() for a in np.meshgrid(np.arange(travel + 1), rows, [1, 0],
                                              indexing="ij"))
    x = spec.start_x + direction * (i - 1 + p)  # OFF one column behind ON
    on = (0 <= x) & (x < g.width)
    i, x, y, p = i[on], x[on], y[on], p[on]
    t = (i * US / abs(spec.velocity_px_s)).astype(np.int64)
    t += rng.integers(0, spec.jitter_us + 1, len(t))
    order = np.argsort(t, kind="stable")
    stream = EventStream(t[order], x[order], y[order], p[order], g)
    return LabeledStream(stream, ["bar"] * len(t), "bar")


@dataclass(frozen=True)
class BlobSpec:
    geometry: SensorGeometry
    duration_us: int
    start_x: float
    start_y: float
    velocity_x_px_s: float
    velocity_y_px_s: float
    radius_px: float
    rate_hz: float  # event rate of the whole contour


def gen_translating_blob(spec: BlobSpec, seed: int,
                         tag: str = "blob", label: str = "") -> LabeledStream:
    """Disk translating at constant velocity, emitting on its contour.

    Events appear on an annulus around the blob edge: ON on the leading
    half (motion direction), OFF on the trailing half. Positions falling
    outside the array are clipped away.
    """
    rng = np.random.default_rng(seed)
    g = spec.geometry
    t, u_angle, u_radius = _blob_draws(spec.rate_hz, spec.duration_us, rng)
    cx = spec.start_x + spec.velocity_x_px_s * t / US
    cy = spec.start_y + spec.velocity_y_px_s * t / US
    angle = u_angle * 2 * math.pi
    r = spec.radius_px * (0.9 + 0.2 * u_radius)
    # math.cos/sin, like math.log, keep the values independent of numpy's
    # vectorised transcendental kernels.
    cos = np.array(list(map(math.cos, angle.tolist())))
    sin = np.array(list(map(math.sin, angle.tolist())))
    x = np.rint(cx + r * cos).astype(np.int64)  # round half to even, as round()
    y = np.rint(cy + r * sin).astype(np.int64)
    inside = (0 <= x) & (x < g.width) & (0 <= y) & (y < g.height)
    if math.hypot(spec.velocity_x_px_s, spec.velocity_y_px_s) > 0:
        along = cos * spec.velocity_x_px_s + sin * spec.velocity_y_px_s
        p = (along >= 0).astype(np.int64)
    else:
        p = np.ones(len(t), dtype=np.int64)
    n = int(inside.sum())
    if n == 0:
        return LabeledStream(EventStream.empty(g), [], label)
    # Times are non-decreasing already, so no sort is needed.
    stream = EventStream(t[inside], x[inside], y[inside], p[inside], g)
    return LabeledStream(stream, [tag] * n, label)


def _blob_draws(rate_hz: float, duration_us: int, rng: np.random.Generator):
    """Event times and per-event angle and radius uniforms of a blob.

    The draw order is that of a scalar generator: k+1 gaps (the last one
    passes ``duration_us``), then one (angle, radius) pair per event. All
    of them come from one ``rng.random`` array; it is grown only while the
    gaps have not yet reached ``duration_us``.
    """
    if rate_hz <= 0:
        empty = np.empty(0)
        return empty.astype(np.int64), empty, empty
    scale = US / rate_hz
    n = int(rate_hz * duration_us / US * 1.05) + 64  # candidate event count
    u = rng.random(3 * n + 1)
    while True:
        # math.log, not np.log: the two differ in the last bit on some draws.
        logs = np.array(list(map(math.log, (1.0 - u[: n + 1]).tolist())))
        times = np.cumsum(-logs * scale)  # sequential, as t += gap
        k = int(np.searchsorted(times, duration_us))  # first time past the end
        if k <= n:
            break
        n *= 2
        u = np.concatenate([u, rng.random(3 * n + 1 - len(u))])
    return times[:k].astype(np.int64), u[k + 1 : 3 * k + 1 : 2], u[k + 2 : 3 * k + 2 : 2]


GESTURE_CLASSES = ("up", "down", "left", "right")

# A swipe's mean speed and blob radius, and its contour event rate.
SWIPE_SPEED_PX_S = 120.0
SWIPE_RADIUS_PX = 6.0
SWIPE_RATE_HZ = 12_000.0

# Coordinate maps taking a canonical rightward clip to each class; "left"
# is the exact x-mirror of "right" with identical parameters. They act on
# whole int64 coordinate arrays with integer (floor) arithmetic.
def _to_down(x, y, w, h):
    return ((y * (w - 1) // (h - 1)) if h > 1 else np.zeros_like(y),
            (x * (h - 1) // (w - 1)) if w > 1 else np.zeros_like(x))


def _to_up(x, y, w, h):
    x_down, y_down = _to_down(x, y, w, h)
    return x_down, h - 1 - y_down


_CLASS_TRANSFORM = {
    "right": lambda x, y, w, h: (x, y),
    "left": lambda x, y, w, h: (w - 1 - x, y),
    "down": _to_down,
    "up": _to_up,
}


def gen_gesture_clip(geometry: SensorGeometry, label: str, seed: int) -> LabeledStream:
    """One directional swipe clip: a blob crossing the array.

    Speed, start offset and blob size are randomized (+-30%) from the seed.
    The clip is generated in canonical rightward form and mapped to the
    class direction, so opposite classes with equal parameters are mirror
    images.
    """
    if label not in GESTURE_CLASSES:
        raise ValueError(f"unknown gesture class {label!r}")
    rng = np.random.default_rng(seed)
    w, h = geometry.width, geometry.height
    speed = SWIPE_SPEED_PX_S * (0.7 + 0.6 * rng.random())
    radius = SWIPE_RADIUS_PX * (0.7 + 0.6 * rng.random())
    y0 = h / 2 + (rng.random() - 0.5) * h * 0.3
    duration = int((w - 1) / speed * US)
    canonical = BlobSpec(
        geometry=geometry, duration_us=duration,
        start_x=0.0, start_y=y0,
        velocity_x_px_s=speed, velocity_y_px_s=0.0,
        radius_px=radius, rate_hz=SWIPE_RATE_HZ,
    )
    clip = gen_translating_blob(canonical, seed=int(rng.integers(2**32)),
                                tag="gesture", label=label)
    s = clip.stream
    xs, ys = _CLASS_TRANSFORM[label](s.x.astype(np.int64), s.y.astype(np.int64), w, h)
    return LabeledStream(
        EventStream(s.t, xs, ys, s.p, geometry, validate=False),
        clip.tags, label,
    )


def gesture_set_clips(geometry: SensorGeometry, clips_per_class: int,
                      seed: int, classes=GESTURE_CLASSES):
    """The clip-set rule: ``clips_per_class`` swipes per class in class
    order, each seeded by the next draw of one root generator, with the
    subject ``s{clip_seed % 7:02d}``. Returns an iterator of (ClipRecord,
    tags) that makes each clip when reached; an unknown class or a count
    below 1 raises ValueError at once."""
    if clips_per_class < 1:
        raise ValueError(f"clips per class must be >= 1, got {clips_per_class}")
    for label in classes:
        if label not in GESTURE_CLASSES:
            raise ValueError(f"unknown gesture class {label!r}")
    root = np.random.default_rng(seed)
    seeds = [(label, int(root.integers(2**32)))
             for label in classes for _ in range(clips_per_class)]
    clips = ((label, s, gen_gesture_clip(geometry, label, s)) for label, s in seeds)
    return ((ClipRecord(f"<synthetic:{label}:{s}>", label, f"s{s % 7:02d}", clip.stream),
             clip.tags) for label, s, clip in clips)


def gen_gesture_set(geometry: SensorGeometry, clips_per_class: int,
                    seed: int, classes=GESTURE_CLASSES) -> list[ClipRecord]:
    """Labeled clip set: the records of ``gesture_set_clips``."""
    return [record for record, _ in
            gesture_set_clips(geometry, clips_per_class, seed, classes)]


@dataclass(frozen=True)
class CompositeSpec:
    geometry: SensorGeometry
    duration_us: int
    fg_region: tuple[int, int, int, int]  # x0, y0, x1, y1 (exclusive)
    fg_rate_hz: float
    bg_rate_hz: float  # spatially uniform over the whole array


def gen_composite(spec: CompositeSpec, seed: int) -> LabeledStream:
    """Dense localized foreground plus sparse uniform background.

    Foreground events fall uniformly inside ``fg_region``; background
    events uniformly over the rest of the array (the foreground object
    occludes the background behind it). Tags record which is which; at
    equal timestamps foreground events come first.
    """
    g = spec.geometry
    x0, y0, x1, y1 = spec.fg_region
    if x0 < 0 or y0 < 0 or x1 > g.width or y1 > g.height:
        raise ValueError(f"fg_region {spec.fg_region} reaches outside the "
                         f"{g.width}x{g.height} array")
    if spec.fg_rate_hz > 0 and (x1 <= x0 or y1 <= y0):
        raise ValueError(f"fg_region {spec.fg_region} is empty but "
                         f"fg_rate_hz is {spec.fg_rate_hz:g}")
    if (spec.bg_rate_hz > 0 and x0 <= 0 and y0 <= 0
            and x1 >= g.width and y1 >= g.height):
        raise ValueError("fg_region covers the whole array: no pixel left "
                         "for background events")
    rng = np.random.default_rng(seed)
    t_fg = _poisson_times_bulk(spec.fg_rate_hz, spec.duration_us, rng)
    n_fg = len(t_fg)
    x_fg = rng.integers(x0, x1, n_fg)
    y_fg = rng.integers(y0, y1, n_fg)
    p_fg = rng.integers(0, 2, n_fg)
    t_bg = _poisson_times_bulk(spec.bg_rate_hz, spec.duration_us, rng)
    n_bg = len(t_bg)
    x_bg = rng.integers(0, g.width, n_bg)
    y_bg = rng.integers(0, g.height, n_bg)
    while (redraw := (x0 <= x_bg) & (x_bg < x1) & (y0 <= y_bg) & (y_bg < y1)).any():
        k = int(redraw.sum())
        x_bg[redraw] = rng.integers(0, g.width, k)
        y_bg[redraw] = rng.integers(0, g.height, k)
    p_bg = rng.integers(0, 2, n_bg)
    t = np.concatenate([t_fg, t_bg])
    order = np.argsort(t, kind="stable")
    stream = EventStream(
        t[order], np.concatenate([x_fg, x_bg])[order],
        np.concatenate([y_fg, y_bg])[order], np.concatenate([p_fg, p_bg])[order],
        g,
    )
    names = np.array(["background", "foreground"], dtype=object)
    tags = names[(order < n_fg).view(np.int8)].tolist()
    return LabeledStream(stream, tags, "composite")

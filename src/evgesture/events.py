"""Event data model, stream container, file codecs and dataset manifests.

Events carry integer microsecond timestamps throughout; no floating-point
time is used anywhere in the package. The channel field ``p`` holds the
camera polarity (0/1) at the sensor and a prototype id after a network
layer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np


class Event(NamedTuple):
    t: int  # microseconds
    x: int
    y: int
    p: int  # channel: polarity or prototype id


@dataclass(frozen=True)
class SensorGeometry:
    width: int
    height: int
    channels: int = 2

    def __post_init__(self):
        if self.width < 1 or self.height < 1 or self.channels < 1:
            raise ValueError(
                "geometry dimensions must be >= 1, got "
                f"{self.width}x{self.height}x{self.channels}"
            )


def grid_cells(x, y, geometry: SensorGeometry, rows: int, cols: int) -> np.ndarray:
    """Row-major cell id of each pixel on a ``rows`` x ``cols`` grid over
    the array: ``min(v * cells // size, cells - 1)`` per axis, so remainder
    pixels join the last row/col. The one tiling rule of the background
    filter and the pooled signatures."""
    row = np.minimum(np.asarray(y, dtype=np.int64) * rows // geometry.height, rows - 1)
    col = np.minimum(np.asarray(x, dtype=np.int64) * cols // geometry.width, cols - 1)
    return row * cols + col


class StreamError(ValueError):
    """Malformed event data: bad syntax, ordering or bounds violations."""


# Packed little-endian record layout of the EVS1 binary format: 13 bytes.
_RECORD_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1")])
_MAGIC = b"EVS1"
_HEADER_DTYPE = np.dtype([("width", "<u2"), ("height", "<u2"), ("channels", "u1")])


class EventStream:
    """An ordered sequence of events with a declared sensor geometry.

    Timestamps are monotonically non-decreasing. Instances are immutable
    after construction (the backing arrays are write-locked) and safe to
    share across threads.
    """

    def __init__(self, t, x, y, p, geometry: SensorGeometry, validate: bool = True):
        self.t = np.ascontiguousarray(t, dtype=np.int64)
        self.x = np.ascontiguousarray(x, dtype=np.int32)
        self.y = np.ascontiguousarray(y, dtype=np.int32)
        self.p = np.ascontiguousarray(p, dtype=np.int32)
        self.geometry = geometry
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.p) == n):
            raise ValueError("field arrays must have equal length")
        if validate:
            _check_stream(self.t, self.x, self.y, self.p, geometry)
        for a in (self.t, self.x, self.y, self.p):
            a.flags.writeable = False

    @classmethod
    def from_events(cls, events, geometry: SensorGeometry, validate: bool = True):
        if len(events) == 0:
            return cls.empty(geometry)
        t, x, y, p = zip(*events)
        return cls(t, x, y, p, geometry, validate=validate)

    @classmethod
    def empty(cls, geometry: SensorGeometry) -> "EventStream":
        z = np.empty(0, dtype=np.int64)
        return cls(z, z, z, z, geometry, validate=False)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> Event:
        return Event(int(self.t[i]), int(self.x[i]), int(self.y[i]), int(self.p[i]))

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.p, other.p)
        )

    def select(self, mask) -> "EventStream":
        """Subsequence of events where ``mask`` is true; order preserved."""
        mask = np.asarray(mask, dtype=bool)
        return EventStream(
            self.t[mask], self.x[mask], self.y[mask], self.p[mask],
            self.geometry, validate=False,
        )

    def with_channels(self, p, channels: int) -> "EventStream":
        """Same events with a replaced channel array and channel count."""
        geom = SensorGeometry(self.geometry.width, self.geometry.height, channels)
        return EventStream(self.t, self.x, self.y, p, geom)

    @property
    def duration_us(self) -> int:
        if len(self) == 0:
            return 0
        return int(self.t[-1] - self.t[0])


def _check_stream(t, x, y, p, geometry: SensorGeometry) -> None:
    if len(t) == 0:
        return
    bad = np.nonzero(np.diff(t) < 0)[0]
    if bad.size:
        i = int(bad[0]) + 1
        raise StreamError(
            f"non-monotonic timestamp at index {i}: {int(t[i])} < {int(t[i - 1])}"
        )
    if t[0] < 0:
        raise StreamError("negative timestamp at index 0")
    for name, arr, hi in (("x", x, geometry.width), ("y", y, geometry.height),
                          ("p", p, geometry.channels)):
        bad = np.nonzero((arr < 0) | (arr >= hi))[0]
        if bad.size:
            i = int(bad[0])
            raise StreamError(
                f"{name}={int(arr[i])} out of bounds [0, {hi}) at index {i}"
            )


# ---------------------------------------------------------------------------
# Text codec: one event per line, "t x y p" with single spaces.

def read_text_events(source: bytes | str, geometry: SensorGeometry) -> EventStream:
    if isinstance(source, bytes):
        source = source.decode("ascii")
    ts, xs, ys, ps = [], [], [], []
    for lineno, line in enumerate(source.splitlines(), start=1):
        parts = line.split(" ")
        if len(parts) != 4:
            raise StreamError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            t, x, y, p = (int(v) for v in parts)
        except ValueError as e:
            raise StreamError(f"line {lineno}: {e}") from None
        ts.append(t)
        xs.append(x)
        ys.append(y)
        ps.append(p)
    if not ts:
        return EventStream.empty(geometry)
    return EventStream(ts, xs, ys, ps, geometry)


def write_text_events(stream: EventStream) -> bytes:
    lines = [
        f"{int(t)} {int(x)} {int(y)} {int(p)}"
        for t, x, y, p in zip(stream.t, stream.x, stream.y, stream.p)
    ]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("ascii")


# ---------------------------------------------------------------------------
# Binary codec: "EVS1" magic, 5-byte header, packed 13-byte records.

def read_binary_events(source: bytes) -> EventStream:
    if len(source) < 9 or source[:4] != _MAGIC:
        raise StreamError("bad magic: not an EVS1 file")
    header = np.frombuffer(source, dtype=_HEADER_DTYPE, count=1, offset=4)[0]
    geometry = SensorGeometry(
        int(header["width"]), int(header["height"]), int(header["channels"])
    )
    body = source[9:]
    if len(body) % _RECORD_DTYPE.itemsize:
        raise StreamError(
            f"truncated record: {len(body)} trailing bytes are not a multiple of 13"
        )
    rec = np.frombuffer(body, dtype=_RECORD_DTYPE)
    return EventStream(
        rec["t"].astype(np.int64), rec["x"], rec["y"], rec["p"], geometry
    )


def write_binary_events(stream: EventStream) -> bytes:
    g = stream.geometry
    header = np.zeros(1, dtype=_HEADER_DTYPE)
    header["width"], header["height"], header["channels"] = g.width, g.height, g.channels
    rec = np.zeros(len(stream), dtype=_RECORD_DTYPE)
    rec["t"] = stream.t
    rec["x"] = stream.x
    rec["y"] = stream.y
    rec["p"] = stream.p
    return _MAGIC + header.tobytes() + rec.tobytes()


# ---------------------------------------------------------------------------
# Dataset manifests: one clip per line, "path<TAB>label<TAB>subject".

@dataclass
class ClipRecord:
    source: str
    label: str
    subject: str
    _stream: EventStream | None = field(default=None, repr=False)

    @property
    def stream(self) -> EventStream:
        if self._stream is None:
            with open(self.source, "rb") as f:
                self._stream = read_binary_events(f.read())
        return self._stream


def load_manifest(path: str) -> list[ClipRecord]:
    """Parse a manifest; clip streams load lazily on first access.

    Relative clip paths resolve against the manifest's directory.
    Duplicate paths are kept; records preserve manifest order.
    """
    base = os.path.dirname(os.path.abspath(path))
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise StreamError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
                )
            clip_path, label, subject = parts
            if not label or not subject:
                raise StreamError(f"{path}:{lineno}: empty label or subject")
            if not os.path.isabs(clip_path):
                clip_path = os.path.join(base, clip_path)
            if not os.path.exists(clip_path):
                raise StreamError(f"{path}:{lineno}: missing file {clip_path}")
            records.append(ClipRecord(source=clip_path, label=label, subject=subject))
    return records

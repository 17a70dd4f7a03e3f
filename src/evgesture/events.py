"""Event data model, stream container, file codecs and dataset manifests.

Events carry integer microsecond timestamps throughout; no floating-point
time is used anywhere in the package. The channel field ``p`` holds the
camera polarity (0/1) at the sensor and a prototype id after a network
layer.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np


class Event(NamedTuple):
    t: int  # microseconds
    x: int
    y: int
    p: int  # channel: polarity or prototype id


# The stream layout: the dtypes of t, x, y and p in an EventStream, and the
# arrays the compiled pass reads and writes.
LAYOUT = (np.int64, np.int32, np.int32, np.int32)


@dataclass(frozen=True)
class SensorGeometry:
    width: int
    height: int
    channels: int = 2

    def __post_init__(self):  # the EVS1 and model headers hold u16 sizes
        if not (0 < self.width < 2**16 and 0 < self.height < 2**16 and self.channels >= 1):
            raise ValueError("geometry sizes must be 1-65535 with >= 1 channels, got "
                             f"{self.width}x{self.height}x{self.channels}")


def grid_cells(x, y, geometry: SensorGeometry, rows: int, cols: int) -> np.ndarray:
    """Row-major cell id of each pixel on a ``rows`` x ``cols`` grid over
    the array: ``min(v * cells // size, cells - 1)`` per axis, so remainder
    pixels join the last row/col. The one tiling rule of the background
    filter and the pooled signatures."""
    row = np.minimum(np.asarray(y, dtype=np.int64) * rows // geometry.height, rows - 1)
    col = np.minimum(np.asarray(x, dtype=np.int64) * cols // geometry.width, cols - 1)
    return row * cols + col


@functools.cache
def grid_tables(geometry: SensorGeometry, rows: int,
                cols: int) -> tuple[np.ndarray, np.ndarray]:
    """``grid_cells`` at ``(0, y)`` for each pixel row and at ``(x, 0)``
    for each pixel column: int64 tables whose entries for ``y`` and ``x``
    sum to ``grid_cells(x, y)``, the cell a compiled loop reads. Built
    once per geometry and grid, and read-only, since every caller shares
    them."""
    tables = (grid_cells(0, np.arange(geometry.height), geometry, rows, cols),
              grid_cells(np.arange(geometry.width), 0, geometry, rows, cols))
    for table in tables:
        table.flags.writeable = False
    return tables


class StreamError(ValueError):
    """Malformed input data: bad syntax, ordering or bounds violations."""


def read_file(path: str, parse):
    """``parse`` of the bytes of the file at ``path``: the one reader of
    every input file. A ValueError of ``parse`` is raised again as a
    StreamError with the path in front; OSErrors name the path already."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return parse(data)
    except ValueError as e:
        raise StreamError(f"{path}: {e}") from None


def check_grid(rows: int, cols: int, geometry: SensorGeometry, what: str) -> None:
    """Reject a grid with more rows than the array has pixel rows, or more
    columns than pixel columns: some of its cells would hold no pixel.
    Callers check before they size anything by the grid."""
    if rows > geometry.height or cols > geometry.width:
        raise ValueError(f"{what} {rows}x{cols} is finer than the {geometry.width}x"
                         f"{geometry.height} array: at most {geometry.height} rows "
                         f"and {geometry.width} columns")


def check_events(t, x, y, p, geometry: SensorGeometry, since: int | None = None) -> None:
    """The one check of raw event arrays: raise StreamError at the first
    value that is not a signed 64-bit integer (NaN and unsigned values of
    2**63 or more included), at a negative first time, at the first event
    earlier than the one before it (``since``, the latest time already
    taken, before the first), or at the first coordinate outside
    ``geometry``; ``p`` None skips the channel bound."""
    t, x, y = np.asarray(t), np.asarray(x), np.asarray(y)
    fields = (("x", x, geometry.width), ("y", y, geometry.height))
    if p is not None:
        fields += (("p", np.asarray(p), geometry.channels),)
    if any(len(v) != len(t) for _, v, _ in fields):
        raise StreamError("event field arrays must have equal length")
    if len(t) == 0:
        return
    for name, v, _ in (("t", t, None), *fields):
        if v.dtype.kind == "i":
            continue
        if v.dtype.kind == "u":  # uint64 holds values that int64 does not
            off = np.flatnonzero(v > np.iinfo(np.int64).max)
        else:
            off = np.flatnonzero(~((np.floor(v) == v) & (np.abs(v) < 2.0**63)))
        if len(off):
            i = int(off[0])
            raise StreamError(f"{name}={v[i]} is not a 64-bit integer at index {i}")
    if t[0] < 0:
        raise StreamError(f"negative timestamp {int(t[0])} at index 0")
    if since is not None and t[0] < since:
        raise StreamError(f"time regression: {int(t[0])} < {since} at index 0")
    back = np.flatnonzero(t[1:] < t[:-1])
    if len(back):
        i = int(back[0]) + 1
        raise StreamError(f"time regression: {int(t[i])} < {int(t[i - 1])} at index {i}")
    for name, v, hi in fields:
        off = np.flatnonzero(~((v >= 0) & (v < hi)))
        if len(off):
            i = int(off[0])
            pixel = (f"pixel ({int(x[i])}, {int(y[i])}) outside "
                     f"{geometry.width}x{geometry.height}: " if name != "p" else "")
            raise StreamError(f"{pixel}{name}={int(v[i])} out of bounds [0, {hi}) "
                              f"at index {i}")


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
        if validate:  # before the casts, which would wrap values out of range
            check_events(t, x, y, p, geometry)
        self.t, self.x, self.y, self.p = (np.ascontiguousarray(v, dtype=dtype)
                                          for v, dtype in zip((t, x, y, p), LAYOUT))
        self.geometry = geometry
        for a in (self.t, self.x, self.y, self.p):
            a.flags.writeable = False

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


# ---------------------------------------------------------------------------
# Text codec: one event per line, "t x y p" with single spaces.

def read_text_events(source: bytes | str, geometry: SensorGeometry) -> EventStream:
    if isinstance(source, bytes):
        source = source.decode("ascii")
    rows = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        parts = line.split(" ")
        if len(parts) != 4:
            raise StreamError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            rows.append([int(v) for v in parts])
        except ValueError as e:
            raise StreamError(f"line {lineno}: {e}") from None
    try:
        t, x, y, p = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    except OverflowError:
        raise StreamError("a value does not fit in 64 bits") from None
    return EventStream(t, x, y, p, geometry)


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
    # Cast first, so that the check reads the contiguous arrays the stream keeps.
    return EventStream(*(rec[k].astype(dtype) for k, dtype in zip("txyp", LAYOUT)), geometry)


def write_binary_events(stream: EventStream) -> bytes:
    g = stream.geometry
    if g.channels > 255:
        raise StreamError(f"{g.channels} channels do not fit an EVS1 header: at most 255")
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
            self._stream = read_file(self.source, read_binary_events)
        return self._stream


def load_manifest(path: str) -> list[ClipRecord]:
    """Parse a manifest; clip streams load lazily on first access.

    Relative clip paths resolve against the manifest's directory.
    Duplicate paths are kept; records preserve manifest order.
    """
    base = os.path.dirname(os.path.abspath(path))

    def parse(data: bytes) -> list[ClipRecord]:
        records = []
        for lineno, line in enumerate(data.decode("utf-8").splitlines(), start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise StreamError(
                    f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
            clip_path, label, subject = parts
            if not label or not subject:
                raise StreamError(f"line {lineno}: empty label or subject")
            clip_path = os.path.join(base, clip_path)  # as is when absolute
            if not os.path.exists(clip_path):
                raise StreamError(f"line {lineno}: missing file {clip_path}")
            records.append(ClipRecord(source=clip_path, label=label, subject=subject))
        return records

    return read_file(path, parse)

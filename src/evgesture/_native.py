"""Build, load and call ``_native.c``, the compiled per-event loops.

``run`` is the one caller of ``evg_pass``, the one pass of every
per-event stage: it takes events through background suppression (a
``dbs.DbsFilter``) and then through a cascade of ``network.Layer``s,
each event in turn, in one call, or takes surface rows given from Python
through one layer. Each stage goes in as a record, ``Dbs`` or ``Layer``,
that points at the stage's own arrays, so the call updates the filter's
counters, the layers' memories and banks in place, and only reads the
filter's decay table. The pass writes what the callers read: the keep
mask, the end ids, and on request the kept events' ``t``, ``x`` and
``y``, compacted, or the end ids counted into pooled bins; each output
array is cut to the length of its contents in place, so no select runs
after the call and no raw-length buffer outlives it. ``surfaces`` calls
``evg_surfaces``, which reads time-surfaces alone, of events that
``check_events`` has checked, and ``evg_reduce`` is the one summation
order. The pass checks the events' order and bounds itself; ``run``
calls ``check_events`` first only on events that the cast to the stream
layout could wrap, and after a refusal, to name it.

The library is compiled on first import and kept in the package's
``__pycache__``, named by a hash of the source, the compiler and the
flags, so later imports load it without running the compiler. It is
built under a temporary name and renamed into place, so concurrent
imports cannot clash. A build then removes every other ``_native-*.so``
in its directory, the builds of older sources, but leaves the temporary
files of builds still running. ``-ffp-contract=off`` keeps every product
and sum a separately rounded IEEE-754 operation, and no flag lets the
compiler reorder a sum, so the library computes what its source says on
any machine, at any optimisation level; only the ``exp`` of background
suppression comes from the platform's libm.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import subprocess
from pathlib import Path

import numpy as np

from .events import LAYOUT, StreamError, check_events, grid_tables

SOURCE = Path(__file__).with_name("_native.c")
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

_ptr, _i64, _f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double


def _fields(pointers: str, ints: str, doubles: str) -> list:
    """A record's fields, in the order of its struct: pointers, int64s,
    doubles."""
    return [(name, kind) for names, kind in ((pointers, _ptr), (ints, _i64), (doubles, _f64))
            for name in names.split()]


class Dbs(ctypes.Structure):
    """``struct dbs``: a DBS stage, over a ``DbsFilter``'s arrays."""
    _fields_ = _fields("row_cell col_cell activity decay last",
                       "cells width height channels gaps kept", "tau alpha")


class Layer(ctypes.Structure):
    """``struct layer``: a layer stage, over a ``network.Layer``'s arrays."""
    _fields_ = _fields("bank memory scratch counts last nz", "n d filled tick since window "
                       "learning channels height width radius", "tau")


@functools.cache
def load(out_dir: str | os.PathLike = SOURCE.parent / "__pycache__",
         compiler: str = "cc") -> ctypes.CDLL:
    """The compiled ``_native.c``, built into ``out_dir`` unless already
    there; raises ImportError, naming the command, if the build fails."""
    key = hashlib.sha256(b"\0".join(
        [SOURCE.read_bytes(), compiler.encode(), *(f.encode() for f in FLAGS)]))
    target = Path(out_dir) / f"_native-{key.hexdigest()[:16]}.so"
    if not target.exists():
        tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        command = [compiler, *FLAGS, "-o", str(tmp), str(SOURCE), "-lm"]
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            subprocess.run(command, check=True, capture_output=True, text=True)
            os.replace(tmp, target)
        except (OSError, subprocess.CalledProcessError) as e:
            tmp.unlink(missing_ok=True)
            detail = (getattr(e, "stderr", None) or str(e)).strip()
            raise ImportError(f"evgesture builds its compiled loops with a C compiler; "
                              f"`{' '.join(command)}` failed: {detail}") from None
        for stale in target.parent.glob("_native-*.so"):
            if stale != target:
                with contextlib.suppress(OSError):
                    stale.unlink()
    lib = ctypes.CDLL(str(target))
    lib.evg_reduce.argtypes = [_ptr, _ptr, _i64, ctypes.c_int]
    lib.evg_reduce.restype = _f64
    lib.evg_surfaces.argtypes = [ctypes.POINTER(Layer), *[_ptr] * 4, _i64, _ptr]
    lib.evg_surfaces.restype = None
    lib.evg_pass.argtypes = [ctypes.POINTER(Dbs), ctypes.POINTER(Layer), _i64, *[_ptr] * 5,
                             _i64, *[_ptr] * 8]
    lib.evg_pass.restype = _i64
    return lib


def _data(a: np.ndarray | None) -> int | None:
    return None if a is None else a.ctypes.data


def _layer_record(layer) -> tuple[Layer, list[np.ndarray]]:
    """The record of a ``network.Layer``, and the arrays it points at
    besides the layer's own: the int64 match counts over ticks, then the
    scratch. The bank is made a writable C-order float64 array in place,
    if it is not one already."""
    bank = layer.bank = np.require(layer.bank, np.float64, "CW")
    (n, d), filled = bank.shape, len(layer.match_counts)
    state = np.zeros((2, n), dtype=np.int64)
    state[:, :filled] = layer.match_counts, layer.last_match_tick
    scratch, nz = np.empty(n * (d + 2) + 2 * d), np.empty(d, dtype=np.int64)
    g, c = layer.geometry, layer.config
    record = Layer(*map(_data, (bank, layer.memory, scratch, *state, nz)), n, d, filled,
                   layer.tick, layer.since, c.reinit_window, layer.learning, g.channels,
                   g.height, g.width, c.radius, c.tau_us)
    return record, [state, scratch, nz]


def _stream_layout(t, x, y, p) -> bool:
    """Whether the events are already arrays of the stream layout,
    ``events.LAYOUT``, one-dimensional and of one length: no cast can wrap
    them, so the pass checks them alone."""
    return all(isinstance(v, np.ndarray) and v.dtype == dtype and v.ndim == 1
               and len(v) == len(t) for v, dtype in zip((t, x, y, p), LAYOUT) if v is not None)


def run(lib: ctypes.CDLL, filt, layers, t=None, x=None, y=None, p=None, rows=None,
        events=False, pool=None) -> tuple:
    """One call of ``evg_pass``: the events ``(t, x, y, p)`` through the
    filter ``filt`` (None: no DBS), then through each of ``layers`` in
    turn, an emitted id becoming the next layer's channel; ``p`` None puts
    every event on channel 0. Or, given ``rows``, those surface rows
    through the one layer in ``layers``. Continues from, and updates,
    every stage's state.

    Returns the mask of the inputs that passed every stage, the end ids
    of those (with no layer, their channels), and the number of events
    the filter kept (all of them, with no filter); with ``events``, then
    the kept events' ``t``, ``x`` and ``y``. The ids and these are in the
    stream layout, ``events.LAYOUT``. With ``pool``, a ``(rows, cols)``
    grid, then the kept events' float64 counts per bin ``cell * n + id``,
    where ``cell`` is ``grid_cells`` of the event's pixel on that grid and
    ``n`` the last layer's bank rows. Each array is exactly as long as its
    contents.

    Raises StreamError, before any state changes, at an event that is not
    an integer, goes back in time (behind the latest time a stage has
    taken, too), or lies outside the first stage's pixels or channels;
    and ValueError if the rows are not of the bank's width. Events in the
    stream layout go to the pass unchecked, which refuses the same events
    and then leaves ``check_events`` to name the fault; others are
    checked first, since the casts to that layout could wrap them."""
    records, arrays = zip(*map(_layer_record, layers)) if layers else ((), ())
    records = (Layer * len(layers))(*records)
    g = None if filt is None else filt.geometry
    dbs = None if filt is None else Dbs(
        *map(_data, (filt.row_cell, filt.col_cell, filt.activity, filt.decay, filt.last_t)),
        len(filt.activity) - 1, g.width, g.height, g.channels, len(filt.decay), 0,
        filt.config.tau_b_us, filt.config.alpha)
    if rows is None:
        first = (layers[0] if layers else filt).geometry
        since = max([r.since for r in records] + ([int(filt.last_t[-1])] if filt else []))
        if not _stream_layout(t, x, y, p):  # before the casts, which could wrap values
            check_events(t, x, y, p, first, since)
        t, x, y, p = (None if v is None else np.ascontiguousarray(v, dtype=dtype)
                      for v, dtype in zip((t, x, y, p), LAYOUT))
    else:
        rows = np.require(rows, np.float64, "C")
        if rows.shape[1:] != layers[0].bank.shape[1:]:
            raise ValueError(f"surfaces {rows.shape} for a bank of {layers[0].bank.shape}")
    m = len(t if rows is None else rows)
    keep, ids = np.empty(m, dtype=bool), np.empty(m, dtype=LAYOUT[3])
    kept_events = [np.empty(m, dtype=dtype) for dtype in LAYOUT[:3]] if events else []
    pooling = [*grid_tables(first, *pool), np.zeros(pool[0] * pool[1] * records[-1].n)] \
        if pool else []
    kept = lib.evg_pass(dbs, records, len(layers), *map(_data, (t, x, y, p, rows)), m,
                        _data(keep), _data(ids),
                        *(map(_data, kept_events) if events else [None] * 3),
                        *(map(_data, pooling) if pool else [None] * 3))
    if kept < 0:  # no state has changed: check_events names the fault
        check_events(t, x, y, p, first, since)
        raise StreamError(f"event {-1 - kept} lies outside the first stage")
    for layer, record, (state, *_) in zip(layers, records, arrays):
        layer.tick, layer.since = record.tick, record.since
        layer.match_counts[:], layer.last_match_tick[:] = state[:, :record.filled].tolist()
    for a in (ids, *kept_events):  # in place, so that no raw-length buffer stays
        a.resize(kept, refcheck=False)
    return (keep, ids, m if dbs is None else dbs.kept, *kept_events, *pooling[2:])


def surfaces(lib: ctypes.CDLL, layer, t, x, y, p) -> np.ndarray:
    """``evg_surfaces``: the surfaces of the events ``(t, x, y, p)`` in
    ``layer``'s memory, one row each, recording each event first, and the
    last event's time as the layer's ``since``; raises StreamError, with
    the memory unchanged, where ``check_events`` refuses the events on the
    layer's pixels and channels and behind its ``since``."""
    # before the casts, which could wrap values
    check_events(t, x, y, p, layer.geometry, layer.since)
    t, x, y, p = events = [np.ascontiguousarray(v, dtype=np.int64) for v in (t, x, y, p)]
    record, _ = _layer_record(layer)
    out = np.empty((len(t), record.d))
    lib.evg_surfaces(record, *map(_data, events), len(t), _data(out))
    if len(t):
        layer.since = int(t[-1])
    return out

"""Build and load ``_native.c``, the compiled per-event loops: background
suppression (``evg_dbs``), and a layer as one pass over its events
(``evg_layer``): each event's time-surface read from the timestamp
memory, its validity gate, and the nearest-row rule, in the learning rule
or in frozen matching, with no blocks. ``evg_surfaces`` reads the
surfaces alone, and ``evg_reduce`` is the one summation order.

The library is compiled on first import and kept in the package's
``__pycache__``, named by a hash of the source, the compiler and the
flags, so later imports load it without running the compiler. It is
built under a temporary name and renamed into place, so concurrent
imports cannot clash. A build then removes every other ``_native-*.so``
in its directory, the builds of older sources, but leaves the temporary
files of builds still running. ``-ffp-contract=off`` keeps every product
and sum a separately rounded IEEE-754 operation, and no flag lets the
compiler reorder a sum, so the library computes what its source says on
any machine, at any optimisation level; only ``evg_dbs``'s ``exp`` comes
from the platform's libm.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import subprocess
from pathlib import Path

SOURCE = Path(__file__).with_name("_native.c")
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


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
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.evg_reduce.argtypes = [ptr, ptr, i64, ctypes.c_int]
    lib.evg_reduce.restype = f64
    lib.evg_layer.argtypes = [ptr, i64, i64, ptr, ptr, ptr, i64, ctypes.c_int, ptr, ptr, ptr,
                              ptr, i64, i64, i64, i64, f64, ptr, ptr, ptr, ptr, i64, ptr, ptr]
    lib.evg_layer.restype = i64
    lib.evg_surfaces.argtypes = [ptr, i64, i64, i64, i64, f64, ptr, ptr, ptr, ptr, i64, ptr]
    lib.evg_surfaces.restype = i64
    lib.evg_dbs.argtypes = [ptr, ptr, ptr, ptr, ptr, i64, ptr, ptr, i64, f64, f64, ptr]
    lib.evg_dbs.restype = None
    return lib

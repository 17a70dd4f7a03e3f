"""In-memory wall-clock spans around calls into the program's layers."""

from __future__ import annotations

import time
from contextlib import contextmanager


class Spans:
    """Records (name, parent, start, end) per span; disabled, it records nothing.

    The parent is the innermost span open when a span starts, so a
    layer's self time is its span minus the spans nested in it.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[tuple[str, str | None, float, float]] = []
        self._open: list[str] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((name, parent, start, time.perf_counter()))
            self._open.pop()

    def busy(self, name: str, parent: str | None = None) -> float:
        """Total wall time of the spans with this name (and this parent)."""
        return sum((end - start for n, p, start, end in self.records
                    if n == name and (parent is None or p == parent)), 0.0)

    def to_json(self) -> list[dict]:
        return [{"name": n, "parent": p, "start": s, "end": e}
                for n, p, s, e in self.records]

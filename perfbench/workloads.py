"""Benchmark workloads and their set-up.

A workload is a seeded synthetic gesture set, a committed pipeline config
and an accuracy floor. Set-up generates the clips, writes them as EVS1
files with a manifest, reads them back through ``load_manifest`` (as
``evgesture train`` and ``eval`` do) and parses the config.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from evgesture import classify, config as cfg, events, synth
from evgesture.events import ClipRecord, EventStream, SensorGeometry

from spans import Spans

SWIPE_RATE_HZ = 12_000.0  # contour event rate of synth.gen_gesture_clip


@dataclass(frozen=True)
class Workload:
    name: str
    config_file: str  # file name under the repository's configs/
    train_per_class: int
    test_per_class: int
    clutter: float  # uniform clutter rate as a multiple of SWIPE_RATE_HZ
    accuracy_floor: float
    size: int = 64  # square sensor side in pixels


# Floors: 0.95 is acceptance 6's floor for clean synthetic swipes. No
# committed criterion covers clutter; 0.75 asks that DBS keep recognition
# of a four-class set far above chance (0.25) when clutter outnumbers the
# swipe's events four to one.
WORKLOADS = {w.name: w for w in (
    Workload("cluttered-1l", "e04.cfg", 3, 5, 4.0, 0.75),
    Workload("pooled-2l64", "e10.cfg", 3, 4, 0.0, 0.95),
)}


@dataclass
class Inputs:
    generated: list[ClipRecord]  # in memory, as generated
    records: list[ClipRecord]  # read back from the EVS1 files
    config: cfg.PipelineConfig
    train_idx: list[int]
    test_idx: list[int]


def generate(workload: Workload, seed: int) -> list[ClipRecord]:
    """The workload's clips: swipes, each overlaid with its own clutter."""
    geometry = SensorGeometry(workload.size, workload.size, 2)
    per_class = workload.train_per_class + workload.test_per_class
    clips = synth.gen_gesture_set(geometry, per_class, seed)
    if not workload.clutter:
        return clips
    rng = np.random.default_rng([seed, 1])
    out = []
    for clip in clips:
        swipe = clip.stream
        spec = synth.CompositeSpec(
            geometry=geometry, duration_us=int(swipe.t[-1]) + 1,
            fg_region=(0, 0, 0, 0), fg_rate_hz=0.0,
            bg_rate_hz=workload.clutter * SWIPE_RATE_HZ,
        )
        clutter = synth.gen_composite(spec, int(rng.integers(2**32))).stream
        t = np.concatenate([swipe.t, clutter.t])
        order = np.argsort(t, kind="stable")  # swipe first on equal times
        merged = EventStream(
            t[order], np.concatenate([swipe.x, clutter.x])[order],
            np.concatenate([swipe.y, clutter.y])[order],
            np.concatenate([swipe.p, clutter.p])[order], geometry,
        )
        out.append(ClipRecord(source=clip.source, label=clip.label,
                              subject=clip.subject, _stream=merged))
    return out


def setup(workload: Workload, seed: int, config_path: str, workdir: str,
          spans: Spans) -> Inputs:
    """Generate, write, read back and parse everything training needs."""
    with spans.span("synth"):
        generated = generate(workload, seed)
    os.makedirs(workdir)
    manifest = os.path.join(workdir, "manifest.tsv")
    with spans.span("events.write"):
        lines = []
        for i, clip in enumerate(generated):
            name = f"clip{i:03d}.evs"
            with open(os.path.join(workdir, name), "wb") as f:
                f.write(events.write_binary_events(clip.stream))
            lines.append(f"{name}\t{clip.label}\t{clip.subject}\n")
        with open(manifest, "w", encoding="utf-8") as f:
            f.write("".join(lines))
    with spans.span("events.load"):
        records = events.load_manifest(manifest)
    with spans.span("events.decode"):
        for record in records:
            record.stream  # decodes the EVS1 file
    with spans.span("config"):
        with open(config_path, "r", encoding="utf-8") as f:
            config = cfg.parse_config(f.read())
    train_idx, test_idx = classify.split_by_class(
        [c.label for c in generated], workload.train_per_class,
        np.random.default_rng([seed, 2]))
    return Inputs(generated, records, config, train_idx, test_idx)

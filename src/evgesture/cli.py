"""Command-line interface.

Subcommands: convert, filter, train, eval, bench, synth.
Exit codes: 0 success, 1 usage error, 2 bad input (a file that cannot be
read or parsed, or a value out of range), 3 internal error.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from . import pipeline as pl
from .config import float_text, format_kv, parse_config, parse_grid
from .dbs import DbsConfig, DbsFilter, filter_stream
from .events import (
    SensorGeometry, StreamError, load_manifest, read_binary_events, read_file,
    read_text_events, write_binary_events, write_text_events,
)
from .synth import GESTURE_CLASSES, gesture_set_clips

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INTERNAL = 0, 1, 2, 3


def _read_events(path: str, geometry: str | None, channels: int):
    if not path.endswith(".txt"):
        return read_file(path, read_binary_events)
    if geometry is None:
        raise StreamError(f"{path}: text input needs --geometry WxH")
    geometry = SensorGeometry(*parse_grid("--geometry", geometry), channels)
    return read_file(path, lambda data: read_text_events(data, geometry))


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_convert(args) -> int:
    stream = _read_events(args.input, args.geometry, args.channels)
    Path(args.output).write_bytes(write_text_events(stream) if args.to == "text"
                                  else write_binary_events(stream))
    return EXIT_OK


def cmd_filter(args) -> int:
    stream = _read_events(args.input, args.geometry, args.channels)
    rows, cols = parse_grid("--grid", args.grid)
    config = DbsConfig(grid_rows=rows, grid_cols=cols,
                       tau_b_us=args.tau_b, alpha=args.alpha)
    kept, stats = filter_stream(DbsFilter(stream.geometry, config), stream)
    Path(args.output).write_bytes(write_binary_events(kept))
    report = {
        "filter.grid": f"{rows}x{cols}",
        "filter.tau_b_us": float_text(config.tau_b_us),
        "filter.alpha": float_text(config.alpha),
        "filter.total": str(stats.total),
        "filter.kept": str(stats.kept),
        "filter.retention": f"{stats.retention:.4f}",
    }
    sys.stdout.write(format_kv(report))
    return EXIT_OK


def cmd_train(args) -> int:
    config = read_file(args.config, parse_config)
    clips = load_manifest(args.manifest)
    trained = pl.train_pipeline(config, clips)
    Path(args.model).write_bytes(pl.save_pipeline(trained))
    print(f"trained {len(config.layers)}-layer network on {len(clips)} clips "
          f"-> {args.model}")
    return EXIT_OK


def cmd_eval(args) -> int:
    trained = read_file(args.model, pl.load_pipeline)
    report = pl.evaluate_pipeline(trained, load_manifest(args.manifest))
    sys.stdout.write(report.to_text())
    if args.report:
        Path(args.report).write_text(format_kv(report.to_pairs()), encoding="utf-8")
    return EXIT_OK


def cmd_bench(args) -> int:
    config = read_file(args.config, parse_config)
    clips = load_manifest(args.manifest)
    total = sum(len(c.stream) for c in clips)
    if total == 0:
        print("bench: n/a (no events)")
        return EXIT_OK
    trained = pl.train_pipeline(config, clips)
    bench = pl.benchmark(trained, clips, runs=args.runs)
    sys.stdout.write(format_kv(bench.to_pairs()))
    print(f"# best of {bench.runs} runs, one thread's CPU time, spread = max-min "
          "throughput; one stream at a time")
    return EXIT_OK


def cmd_synth(args) -> int:
    w, h = parse_grid("--geometry", args.geometry)
    clips = gesture_set_clips(SensorGeometry(w, h, 2), args.clips_per_class,
                              args.seed, args.classes)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_lines, made = [], Counter()  # made: each label's clips written so far
    for record, tags in clips:
        name = f"{record.label}_{made[record.label]:03d}.evs"
        made[record.label] += 1
        (out / name).write_bytes(write_binary_events(record.stream))
        (out / (name + ".tags")).write_text("".join(tag + "\n" for tag in tags))
        manifest_lines.append(f"{name}\t{record.label}\t{record.subject}")
    (out / "manifest.tsv").write_text("".join(line + "\n" for line in manifest_lines),
                                      encoding="utf-8")
    print(f"wrote {len(manifest_lines)} clips + manifest to {args.outdir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evgesture",
                                     description="Event-camera gesture recognition pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between text and EVS1 formats")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--to", choices=("text", "binary"), default="binary")
    p.add_argument("--geometry", help="WxH, required for .txt input")
    p.add_argument("--channels", type=int, default=2)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("filter", help="dynamic background suppression")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--grid", default=f"{DbsConfig.grid_rows}x{DbsConfig.grid_cols}")
    p.add_argument("--tau-b", type=float, default=DbsConfig.tau_b_us, help="microseconds")
    p.add_argument("--alpha", type=float, default=DbsConfig.alpha)
    p.add_argument("--geometry")
    p.add_argument("--channels", type=int, default=2)
    p.set_defaults(fn=cmd_filter)

    p = sub.add_parser("train", help="train a pipeline from a manifest")
    p.add_argument("manifest")
    p.add_argument("config")
    p.add_argument("model")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model on a manifest")
    p.add_argument("manifest")
    p.add_argument("model")
    p.add_argument("--report", help="write machine-readable key = value report")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="per-stage throughput benchmark")
    p.add_argument("manifest")
    p.add_argument("config")
    p.add_argument("--runs", type=int, default=5)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("synth", help="generate a synthetic gesture dataset")
    p.add_argument("outdir")
    p.add_argument("--classes", nargs="+", default=list(GESTURE_CLASSES))
    p.add_argument("--clips-per-class", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--geometry", default="64x64")
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help, 2 on bad usage
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        return args.fn(args)
    except (OSError, ValueError) as e:  # StreamError and ConfigError included
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # internal invariant violation
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Flat dotted-key configuration and report text formats.

Both configs and machine-readable reports are plain "key = value" lines:
trivially parseable anywhere, diff-friendly, no nested markup. Blank lines
and '#' comments are ignored. Unknown configuration keys are errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .classify import PoolingConfig
from .dbs import DbsConfig
from .network import DEFAULT_REINIT_WINDOW


class ConfigError(ValueError):
    pass


def parse_kv(text: str) -> dict[str, str]:
    """Parse "key = value" lines into an ordered dict of strings."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def format_kv(pairs: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def _parse_bool(key: str, value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def parse_grid(key: str, value: str) -> tuple[int, int]:
    """Two sizes written ``AxB`` (or ``AXB``), e.g. a grid or a geometry."""
    m = re.fullmatch(r"(\d+)[xX](\d+)", value)
    if not m:
        raise ConfigError(f"{key}: expected AxB like 3x3, got {value!r}")
    return int(m.group(1)), int(m.group(2))


@dataclass(frozen=True)
class LayerSpec:
    n: int
    r: int
    tau_us: float
    reinit_window: int = DEFAULT_REINIT_WINDOW


@dataclass(frozen=True)
class PipelineConfig:
    layers: tuple[LayerSpec, ...]
    dbs: DbsConfig | None = DbsConfig()
    merge_polarity: bool = True
    pooling: PoolingConfig = PoolingConfig()
    k: int = 7
    epochs: int = 1
    seed: int = 0
    training_mode: str = "joint"


_SCALAR_KEYS = {
    "seed", "epochs", "merge_polarity", "training.mode", "knn.k",
    "pooling.grid", "dbs.enabled", "dbs.grid", "dbs.tau_b_us", "dbs.alpha",
}
_LAYER_KEY = re.compile(r"layers\.(\d+)\.(n|r|tau_us|reinit_window)")


def parse_config(text: str) -> PipelineConfig:
    pairs = parse_kv(text)
    layer_fields: dict[int, dict[str, str]] = {}
    scalars: dict[str, str] = {}
    for key, value in pairs.items():
        m = _LAYER_KEY.fullmatch(key)
        if m:
            layer_fields.setdefault(int(m.group(1)), {})[m.group(2)] = value
        elif key in _SCALAR_KEYS:
            scalars[key] = value
        else:
            raise ConfigError(f"unknown key: {key}")

    if not layer_fields:
        raise ConfigError("no layers configured (need layers.1.n etc.)")
    indices = sorted(layer_fields)
    if indices != list(range(1, len(indices) + 1)):
        raise ConfigError(f"layer indices must be 1..L, got {indices}")
    layers = []
    for i in indices:
        f = layer_fields[i]
        for required in ("n", "r", "tau_us"):
            if required not in f:
                raise ConfigError(f"layers.{i}.{required} is missing")
        layers.append(LayerSpec(
            n=int(f["n"]), r=int(f["r"]), tau_us=float(f["tau_us"]),
            reinit_window=int(f.get("reinit_window", DEFAULT_REINIT_WINDOW)),
        ))

    dbs = None
    if _parse_bool("dbs.enabled", scalars.get("dbs.enabled", "false")):
        rows, cols = parse_grid("dbs.grid", scalars.get("dbs.grid", "3x3"))
        dbs = DbsConfig(
            grid_rows=rows, grid_cols=cols,
            tau_b_us=float(scalars.get("dbs.tau_b_us", "300")),
            alpha=float(scalars.get("dbs.alpha", "2.0")),
        )
    prow, pcol = parse_grid("pooling.grid", scalars.get("pooling.grid", "1x1"))
    mode = scalars.get("training.mode", "joint")
    if mode not in ("joint", "sequential"):
        raise ConfigError(f"training.mode: expected joint or sequential, got {mode!r}")
    return PipelineConfig(
        layers=tuple(layers),
        dbs=dbs,
        merge_polarity=_parse_bool(
            "merge_polarity", scalars.get("merge_polarity", "true")),
        pooling=PoolingConfig(grid_rows=prow, grid_cols=pcol),
        k=int(scalars.get("knn.k", "7")),
        epochs=int(scalars.get("epochs", "1")),
        seed=int(scalars.get("seed", "0")),
        training_mode=mode,
    )


def _float_text(value: float) -> str:
    """``:g`` text where it reads back exactly, else ``repr``."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def config_echo(config: PipelineConfig) -> dict[str, str]:
    """The config as flat key/value pairs, e.g. for report echoing; they
    parse back to an equal config."""
    pairs: dict[str, str] = {
        "seed": str(config.seed),
        "epochs": str(config.epochs),
        "merge_polarity": str(config.merge_polarity).lower(),
        "training.mode": config.training_mode,
        "dbs.enabled": str(config.dbs is not None).lower(),
    }
    if config.dbs is not None:
        pairs["dbs.grid"] = f"{config.dbs.grid_rows}x{config.dbs.grid_cols}"
        pairs["dbs.tau_b_us"] = _float_text(config.dbs.tau_b_us)
        pairs["dbs.alpha"] = _float_text(config.dbs.alpha)
    for i, layer in enumerate(config.layers, start=1):
        pairs[f"layers.{i}.n"] = str(layer.n)
        pairs[f"layers.{i}.r"] = str(layer.r)
        pairs[f"layers.{i}.tau_us"] = _float_text(layer.tau_us)
        pairs[f"layers.{i}.reinit_window"] = str(layer.reinit_window)
    pairs["pooling.grid"] = f"{config.pooling.grid_rows}x{config.pooling.grid_cols}"
    pairs["knn.k"] = str(config.k)
    return pairs

"""Flat dotted-key configuration and report text formats.

Both configs and machine-readable reports are plain "key = value" lines:
trivially parseable anywhere, diff-friendly, no nested markup. Blank lines
and '#' comments are ignored. Unknown configuration keys are errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .classify import PoolingConfig
from .dbs import DbsConfig
from .network import DEFAULT_REINIT_WINDOW, TRAINING_MODES


class ConfigError(ValueError):
    pass


def parse_kv(text: str) -> dict[str, str]:
    """Parse "key = value" lines into an ordered dict of strings; a key
    set twice is an error."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"line {lineno}: {key} is already set on line {lines[key]}")
        lines[key] = lineno
        out[key] = value.strip()
    return out


def format_kv(pairs: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


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
    dbs: DbsConfig | None = None
    merge_polarity: bool = True
    pooling: PoolingConfig = PoolingConfig()
    k: int = 7
    epochs: int = 1
    seed: int = 0
    training_mode: str = TRAINING_MODES[0]

    def __post_init__(self):
        if not self.k >= 1:
            raise ConfigError(f"knn.k must be >= 1, got {self.k}")
        if not self.epochs >= 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.training_mode not in TRAINING_MODES:
            raise ConfigError(f"training.mode: expected {' or '.join(TRAINING_MODES)}, "
                              f"got {self.training_mode!r}")


# Each scalar key's field and how its text reads: a "dbs."/"pooling." key
# sets a DbsConfig/PoolingConfig field, any other a PipelineConfig field.
# Absent keys take those classes' defaults, and layer keys LayerSpec's.
_SCALARS = {
    "seed": ("seed", int), "epochs": ("epochs", int),
    "merge_polarity": ("merge_polarity", bool),
    "training.mode": ("training_mode", str), "knn.k": ("k", int),
    "dbs.enabled": ("enabled", bool), "dbs.grid": (None, "grid"),
    "dbs.tau_b_us": ("tau_b_us", float), "dbs.alpha": ("alpha", float),
    "pooling.grid": (None, "grid"),
}
_LAYER_FIELDS = {"n": int, "r": int, "tau_us": float, "reinit_window": int}
_LAYER_KEY = re.compile(rf"layers\.(\d+)\.({'|'.join(_LAYER_FIELDS)})")
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _read(key: str, text: str, name: str, kind) -> dict:
    """``{name: value}`` of ``text`` read as ``kind``: int, float, str or
    bool; a "grid" (``AxB``) sets grid_rows and grid_cols. Bad text is a
    ConfigError naming the key."""
    if kind == "grid":
        return dict(zip(("grid_rows", "grid_cols"), parse_grid(key, text)))
    try:
        return {name: _BOOLS[text.lower()] if kind is bool else kind(text)}
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {kind.__name__}, got {text!r}") from None


def parse_config(text: bytes | str) -> PipelineConfig:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    layer_fields: dict[int, dict] = {}
    fields: dict[str, dict] = {"": {}, "dbs": {}, "pooling": {}}
    for key, value in parse_kv(text).items():
        m = _LAYER_KEY.fullmatch(key)
        if m:
            name = m.group(2)
            layer_fields.setdefault(int(m.group(1)), {}).update(
                _read(key, value, name, _LAYER_FIELDS[name]))
        elif key in _SCALARS:
            section = fields.get(key.partition(".")[0], fields[""])
            section.update(_read(key, value, *_SCALARS[key]))
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
        layers.append(LayerSpec(**f))

    top, dbs = fields[""], fields["dbs"]
    if "enabled" in dbs:  # other dbs.* keys are read but unused while disabled
        top["dbs"] = DbsConfig(**dbs) if dbs.pop("enabled") else None
    return PipelineConfig(layers=tuple(layers), pooling=PoolingConfig(**fields["pooling"]),
                          **top)


def float_text(value: float) -> str:
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
        pairs["dbs.tau_b_us"] = float_text(config.dbs.tau_b_us)
        pairs["dbs.alpha"] = float_text(config.dbs.alpha)
    for i, layer in enumerate(config.layers, start=1):
        pairs[f"layers.{i}.n"] = str(layer.n)
        pairs[f"layers.{i}.r"] = str(layer.r)
        pairs[f"layers.{i}.tau_us"] = float_text(layer.tau_us)
        pairs[f"layers.{i}.reinit_window"] = str(layer.reinit_window)
    pairs["pooling.grid"] = f"{config.pooling.grid_rows}x{config.pooling.grid_cols}"
    pairs["knn.k"] = str(config.k)
    return pairs

import json
import os
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from evgesture import cli
from evgesture.classify import PoolingConfig
from evgesture.config import (
    ConfigError, LayerSpec, PipelineConfig, config_echo, format_kv, parse_config,
    parse_grid, parse_kv,
)
from evgesture.dbs import DbsConfig
from evgesture.events import (
    SensorGeometry, read_binary_events, read_text_events, write_binary_events,
)
from evgesture.synth import gen_gesture_set

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


class TestConfigParsing:
    def test_e5_architecture(self):
        with open(os.path.join(CONFIG_DIR, "e05.cfg")) as f:
            config = parse_config(f.read())
        assert len(config.layers) == 2
        assert (config.layers[0].n, config.layers[0].r, config.layers[0].tau_us) == (8, 2, 10_000.0)
        assert (config.layers[1].n, config.layers[1].r, config.layers[1].tau_us) == (8, 2, 100_000.0)
        assert config.k == 7
        assert config.dbs is not None
        assert config.dbs.tau_b_us == 300.0
        assert config.dbs.alpha == 2.0
        assert (config.dbs.grid_rows, config.dbs.grid_cols) == (3, 3)

    @pytest.mark.parametrize("name,layers,k,dbs,pool", [
        ("e01.cfg", [(32, 6, 5000.0)], 1, False, (1, 1)),
        ("e02.cfg", [(48, 6, 5000.0)], 1, False, (1, 1)),
        ("e03.cfg", [(64, 6, 5000.0)], 1, False, (1, 1)),
        ("e04.cfg", [(8, 2, 10_000.0)], 7, True, (1, 1)),
        ("e06.cfg", [(8, 2, 10_000.0)], 7, False, (1, 1)),
        ("e07.cfg", [(8, 2, 10_000.0), (8, 2, 100_000.0)], 7, False, (1, 1)),
        ("e08.cfg", [(8, 2, 10_000.0)], 7, True, (1, 1)),
        ("e09.cfg", [(8, 2, 10_000.0), (8, 2, 100_000.0)], 7, True, (1, 1)),
        ("e10.cfg", [(8, 2, 10_000.0), (64, 2, 100_000.0)], 11, False, (3, 3)),
        ("e11.cfg", [(8, 2, 10_000.0), (64, 2, 100_000.0)], 11, False, (3, 3)),
    ])
    def test_all_experiment_rows_parse(self, name, layers, k, dbs, pool):
        with open(os.path.join(CONFIG_DIR, name)) as f:
            config = parse_config(f.read())
        assert [(l.n, l.r, l.tau_us) for l in config.layers] == layers
        assert config.k == k
        assert (config.dbs is not None) == dbs
        assert (config.pooling.grid_rows, config.pooling.grid_cols) == pool

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("layers.1.n = 8\nlayers.1.r = 2\n"
                         "layers.1.tau_us = 1\nbogus.key = 1\n")

    def test_missing_layer_field(self):
        with pytest.raises(ConfigError, match="layers.1.tau_us"):
            parse_config("layers.1.n = 8\nlayers.1.r = 2\n")

    def test_kv_round_trip(self):
        pairs = {"a.b": "1", "c": "x y", "d.e.f": "3.5"}
        assert parse_kv(format_kv(pairs)) == pairs

    def test_config_echo_reparses(self):
        with open(os.path.join(CONFIG_DIR, "e10.cfg")) as f:
            config = parse_config(f.read())
        again = parse_config(format_kv(config_echo(config)))
        assert again == config

    def test_echo_keeps_short_text_where_exact(self):
        config = parse_config("layers.1.n = 8\nlayers.1.r = 2\nlayers.1.tau_us = 10000\n"
                              "layers.2.n = 8\nlayers.2.r = 2\nlayers.2.tau_us = 1234567\n"
                              "dbs.enabled = true\ndbs.alpha = 0.1\n")
        echo = config_echo(config)
        assert echo["layers.1.tau_us"] == "10000"
        assert echo["layers.2.tau_us"] == "1234567.0"  # :g would say 1.23457e+06
        assert (echo["dbs.tau_b_us"], echo["dbs.alpha"]) == ("300", "0.1")

    @given(
        taus=st.lists(st.floats(allow_nan=False), min_size=1, max_size=3),
        dbs=st.none() | st.tuples(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
    )
    def test_echo_round_trips_any_float(self, taus, dbs):
        config = PipelineConfig(
            layers=tuple(LayerSpec(n=3, r=1, tau_us=tau) for tau in taus),
            dbs=None if dbs is None else DbsConfig(tau_b_us=dbs[0], alpha=dbs[1]),
            pooling=PoolingConfig(2, 3), k=5, seed=9, training_mode="sequential",
        )
        assert parse_config(format_kv(config_echo(config))) == config

    def test_grid_parser(self):
        assert parse_grid("g", "64x48") == (64, 48)
        assert parse_grid("g", "64X48") == (64, 48)
        for bad in ("64", "64x", "x64", "64*64", "-1x2", "1.5x2"):
            with pytest.raises(ConfigError, match="g: expected AxB"):
                parse_grid("g", bad)


def write_set(root, geometry, clips_per_class, manifest="manifest.tsv",
              prefix="clip", seed=123):
    """Swipes written as EVS1 clips under ``root``, plus a manifest;
    returns the manifest's path."""
    root.mkdir(exist_ok=True)
    lines = []
    for i, clip in enumerate(gen_gesture_set(geometry, clips_per_class, seed=seed)):
        name = f"{prefix}_{i:02d}.evs"
        (root / name).write_bytes(write_binary_events(clip.stream))
        lines.append(f"{name}\t{clip.label}\ts{i % 3}")
    (root / manifest).write_text("".join(l + "\n" for l in lines))
    return str(root / manifest)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    write_set(root, SensorGeometry(48, 48, 2), 4)
    (root / "train.cfg").write_text(
        "seed = 1\ndbs.enabled = true\nlayers.1.n = 4\nlayers.1.r = 2\n"
        "layers.1.tau_us = 10000\npooling.grid = 2x2\nknn.k = 3\n"
    )
    return root


@pytest.fixture(scope="module")
def swipes32(tmp_path_factory):
    """12 swipes on a 32x32 array, a one-layer config with DBS and a model
    trained on them."""
    root = tmp_path_factory.mktemp("swipes32")
    manifest = write_set(root, SensorGeometry(32, 32, 2), 3)
    config = root / "base.cfg"
    config.write_text("dbs.enabled = true\nlayers.1.n = 4\nlayers.1.r = 1\n"
                      "layers.1.tau_us = 10000\n")
    model = root / "model.bin"
    assert cli.main(["train", manifest, str(config), str(model)]) == 0
    return manifest, config, model


def with_header(model: bytes, **fields) -> bytes:
    """``model`` with header fields replaced and its CRC recomputed."""
    end = 12 + int.from_bytes(model[8:12], "little")
    header = json.dumps({**json.loads(model[12:end]), **fields}).encode()
    body = len(header).to_bytes(4, "little") + header + model[end:]
    return model[:4] + zlib.crc32(body).to_bytes(4, "little") + body


# Bad values in a config or a model header, each a data error (exit 2):
# the config line appended, or the header fields replaced; and a text
# the error message must hold.
BAD_INPUTS = {
    "epochs-0": ("epochs = 0", "epochs"),
    "epochs-negative": ("epochs = -1", "epochs"),
    "tau-nan": ("layers.1.tau_us = nan", "tau_us"),
    "tau-inf": ("layers.1.tau_us = inf", "tau_us"),
    "alpha-nan": ("dbs.alpha = nan", "alpha"),
    "tau-b-inf": ("dbs.tau_b_us = inf", "tau_b_us"),
    "reinit-window-negative": ("layers.1.reinit_window = -5", "reinit_window"),
    "bank-larger-than-training-set": ("layers.1.n = 100000", "saw only"),
    "header-huge-array": ({"width": 10**6, "height": 10**6}, "malformed"),
    "header-width-above-u16": ({"width": 65536}, "malformed"),
    "header-height-above-u16": ({"height": 65536}, "malformed"),
    "header-channels-above-u8": ({"channels": 256}, "malformed"),
}


@pytest.mark.parametrize("fault, named", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_value_exit_2(swipes32, tmp_path, capsys, fault, named):
    manifest, config, model = swipes32
    if isinstance(fault, dict):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(with_header(model.read_bytes(), **fault))
        code = cli.main(["eval", manifest, str(bad)])
    else:
        bad = tmp_path / "bad.cfg"
        bad.write_text(config.read_text() + fault + "\n")
        code = cli.main(["train", manifest, str(bad), str(tmp_path / "m.bin")])
    assert code == 2
    assert named in capsys.readouterr().err


class TestCli:
    def test_convert_round_trip(self, dataset, tmp_path):
        src = str(dataset / "clip_00.evs")
        txt = str(tmp_path / "a.txt")
        back = str(tmp_path / "b.evs")
        assert cli.main(["convert", src, txt, "--to", "text"]) == 0
        assert cli.main(["convert", txt, back, "--geometry", "48x48"]) == 0
        with open(src, "rb") as f:
            original = read_binary_events(f.read())
        with open(back, "rb") as f:
            restored = read_binary_events(f.read())
        # geometry differs (text has no header) but events must match
        assert np.array_equal(original.t, restored.t)
        assert np.array_equal(original.x, restored.x)

    def test_convert_bad_magic_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.evs"
        bad.write_bytes(b"not an event file")
        assert cli.main(["convert", str(bad), str(tmp_path / "o.txt"),
                         "--to", "text"]) == 2
        assert "bad.evs" in capsys.readouterr().err

    def test_usage_error_exit_1(self, capsys):
        assert cli.main(["no-such-command"]) == 1

    def test_filter_defaults_echoed(self, dataset, tmp_path, capsys):
        out = str(tmp_path / "f.evs")
        assert cli.main(["filter", str(dataset / "clip_00.evs"), out]) == 0
        report = parse_kv(capsys.readouterr().out)
        assert report["filter.grid"] == "3x3"
        assert report["filter.tau_b_us"] == "300"
        assert report["filter.alpha"] == "2"
        kept, total = int(report["filter.kept"]), int(report["filter.total"])
        assert float(report["filter.retention"]) == pytest.approx(
            kept / total, abs=1e-4)

    def test_filter_output_subsequence(self, dataset, tmp_path):
        out = tmp_path / "f.evs"
        cli.main(["filter", str(dataset / "clip_01.evs"), str(out)])
        with open(dataset / "clip_01.evs", "rb") as f:
            original = read_binary_events(f.read())
        filtered = read_binary_events(out.read_bytes())
        assert len(filtered) <= len(original)
        assert set(zip(filtered.t, filtered.x, filtered.y)) <= set(
            zip(original.t, original.x, original.y))

    def test_train_eval_and_determinism(self, dataset, tmp_path, capsys):
        manifest = str(dataset / "manifest.tsv")
        config = str(dataset / "train.cfg")
        m1, m2 = str(tmp_path / "m1.bin"), str(tmp_path / "m2.bin")
        assert cli.main(["train", manifest, config, m1]) == 0
        assert cli.main(["train", manifest, config, m2]) == 0
        with open(m1, "rb") as f1, open(m2, "rb") as f2:
            assert f1.read() == f2.read()  # byte-identical models

        r1, r2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
        assert cli.main(["eval", manifest, m1, "--report", r1]) == 0
        capsys.readouterr()
        assert cli.main(["eval", manifest, m2, "--report", r2]) == 0
        capsys.readouterr()
        p1, p2 = [parse_kv(open(p).read()) for p in (r1, r2)]
        for volatile in ("wall_clock_s",):
            p1.pop(volatile), p2.pop(volatile)
        assert p1 == p2
        assert 0.0 <= float(p1["accuracy"]) <= 1.0
        # confusion rows sum to per-class test counts (4 clips per class)
        for label in p1["labels"].split(","):
            assert sum(int(v) for v in p1[f"confusion.{label}"].split(",")) == 4

    def test_model_on_other_geometry_exit_2(self, dataset, tmp_path, capsys):
        small = write_set(tmp_path / "small", SensorGeometry(32, 32, 2), 1)
        large = write_set(tmp_path / "large", SensorGeometry(64, 64, 2), 1)
        model = str(tmp_path / "m.bin")
        assert cli.main(["train", small, str(dataset / "train.cfg"), model]) == 0
        assert cli.main(["eval", small, model]) == 0
        capsys.readouterr()
        assert cli.main(["eval", large, model]) == 2
        assert "64x64" in capsys.readouterr().err

    def test_train_mixed_geometries_exit_2(self, dataset, tmp_path, capsys):
        write_set(tmp_path, SensorGeometry(32, 32, 2), 1, "a.tsv", "a")
        write_set(tmp_path, SensorGeometry(40, 32, 2), 1, "b.tsv", "b")
        mixed = tmp_path / "mixed.tsv"
        mixed.write_text((tmp_path / "a.tsv").read_text()
                         + (tmp_path / "b.tsv").read_text())
        assert cli.main(["train", str(mixed), str(dataset / "train.cfg"),
                         str(tmp_path / "m.bin")]) == 2
        assert "40x32" in capsys.readouterr().err

    def test_geometry_option(self, dataset, tmp_path):
        txt = str(tmp_path / "a.txt")
        assert cli.main(["convert", str(dataset / "clip_00.evs"), txt, "--to", "text"]) == 0
        assert cli.main(["convert", txt, str(tmp_path / "b.evs"), "--geometry", "48X48"]) == 0
        assert cli.main(["convert", txt, str(tmp_path / "c.evs"), "--geometry", "48by48"]) == 2
        assert cli.main(["filter", str(dataset / "clip_00.evs"), str(tmp_path / "f.evs"),
                         "--grid", "3"]) == 2

    def test_train_missing_manifest_exit_2(self, dataset, tmp_path):
        assert cli.main(["train", str(tmp_path / "none.tsv"),
                         str(dataset / "train.cfg"), str(tmp_path / "m.bin")]) == 2

    def test_bench_reports_stages(self, dataset, tmp_path, capsys):
        manifest = str(dataset / "manifest.tsv")
        config = str(dataset / "train.cfg")
        assert cli.main(["bench", manifest, config, "--runs", "3"]) == 0
        out = capsys.readouterr().out
        pairs = parse_kv("\n".join(l for l in out.splitlines()
                                   if not l.startswith("#")))
        for stage in ("dbs", "layers", "full"):
            assert float(pairs[f"bench.{stage}.events_per_s"]) > 0

    def test_bench_stage_counts(self, dataset, capsys):
        # each stage's rate is over its own input: layers see what DBS keeps
        assert cli.main(["bench", str(dataset / "manifest.tsv"),
                         str(dataset / "train.cfg"), "--runs", "1"]) == 0
        out = capsys.readouterr().out
        pairs = parse_kv("\n".join(l for l in out.splitlines()
                                   if not l.startswith("#")))
        count = {k: int(v) for k, v in pairs.items()
                 if k.endswith((".events_in", ".events_out"))}
        assert count["bench.dbs.events_in"] == int(pairs["bench.events"])
        assert count["bench.full.events_in"] == int(pairs["bench.events"])
        assert count["bench.layers.events_in"] == count["bench.dbs.events_out"]
        assert count["bench.full.events_out"] == count["bench.layers.events_out"]
        assert 0 < count["bench.layers.events_out"] <= count["bench.layers.events_in"]
        assert count["bench.dbs.events_out"] <= count["bench.dbs.events_in"]

    def test_bench_empty_manifest(self, tmp_path, dataset, capsys):
        manifest = tmp_path / "empty.tsv"
        manifest.write_text("")
        assert cli.main(["bench", str(manifest), str(dataset / "train.cfg")]) == 0
        assert "n/a" in capsys.readouterr().out

    def test_synth_writes_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "synthset")
        assert cli.main(["synth", out, "--clips-per-class", "2",
                         "--seed", "9", "--geometry", "32x32"]) == 0
        lines = open(os.path.join(out, "manifest.tsv")).read().splitlines()
        assert len(lines) == 8
        for line in lines:
            path, label, subject = line.split("\t")
            full = os.path.join(out, path)
            assert os.path.exists(full)
            assert os.path.exists(full + ".tags")
            with open(full, "rb") as f:
                stream = read_binary_events(f.read())
            tags = open(full + ".tags").read().splitlines()
            assert len(tags) == len(stream)

    def test_synth_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            cli.main(["synth", out, "--clips-per-class", "1", "--seed", "5",
                      "--geometry", "32x32"])
        fa = sorted(os.listdir(a))
        assert fa == sorted(os.listdir(b))
        for name in fa:
            with open(os.path.join(a, name), "rb") as f1, \
                 open(os.path.join(b, name), "rb") as f2:
                assert f1.read() == f2.read()

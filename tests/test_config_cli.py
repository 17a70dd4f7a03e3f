import json
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from evgesture import cli, pipeline
from evgesture.classify import PoolingConfig
from evgesture.config import (
    ConfigError, LayerSpec, PipelineConfig, config_echo, format_kv, parse_config,
    parse_grid, parse_kv,
)
from evgesture.dbs import DbsConfig
from evgesture.events import (
    SensorGeometry, load_manifest, read_binary_events, read_file, read_text_events,
    write_binary_events,
)
from evgesture.synth import gen_gesture_set, gesture_set_clips

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


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


# Bad values in a config, a model header or a command line, each a data
# error (exit 2): the config lines that replace the lines setting the same
# keys (or are appended), the header fields replaced, or the arguments of
# a command, "{tmp}" standing for a scratch directory; and the text of the
# check's own message.
BAD_INPUTS = {
    "epochs-0": ("epochs = 0", "epochs must be >= 1, got 0"),
    "epochs-negative": ("epochs = -1", "epochs must be >= 1, got -1"),
    "tau-nan": ("layers.1.tau_us = nan", "layers.1: tau_us must be finite and > 0, got nan"),
    "tau-inf": ("layers.1.tau_us = inf", "layers.1: tau_us must be finite and > 0, got inf"),
    "alpha-nan": ("dbs.alpha = nan", "alpha must be finite and > 0, got nan"),
    "tau-b-inf": ("dbs.tau_b_us = inf", "tau_b_us must be finite and > 0, got inf"),
    "reinit-window-negative": ("layers.1.reinit_window = -5",
                               "layers.1: reinit_window must be >= 1, got -5"),
    "bank-larger-than-training-set": ("layers.1.n = 100000",
                                      "layer 1: layer with N=100000 can see at most"),
    "k-not-int": ("knn.k = seven", "knn.k: expected int, got 'seven'"),
    "n-not-int": ("layers.1.n = 2.5", "layers.1.n: expected int, got '2.5'"),
    "tau-not-float": ("layers.1.tau_us = abc", "layers.1.tau_us: expected float, got 'abc'"),
    "epochs-not-int": ("epochs = two", "epochs: expected int, got 'two'"),
    "seed-not-int": ("seed = x", "seed: expected int, got 'x'"),
    "merge-not-bool": ("merge_polarity = maybe", "merge_polarity: expected bool, got 'maybe'"),
    "radius-0": ("layers.1.r = 0", "layers.1: radius must be >= 1"),
    "key-repeated": ("knn.k = 3\nknn.k = 5", "line 6: knn.k is already set on line 5"),
    "k-0": ("knn.k = 0", "knn.k must be >= 1, got 0"),
    "dbs-grid-finer-than-array": ("dbs.grid = 64x64",
                                  "DBS grid 64x64 is finer than the 32x32 array"),
    "pooling-grid-finer-than-array": ("pooling.grid = 33x1",
                                      "pooling grid 33x1 is finer than the 32x32 array"),
    "header-huge-array": ({"width": 10**6, "height": 10**6}, "model header is malformed"),
    "header-width-above-u16": ({"width": 65536}, "model header is malformed"),
    "header-height-above-u16": ({"height": 65536}, "model header is malformed"),
    "header-channels-above-u8": ({"channels": 256}, "model header is malformed"),
    "radius-past-array": ("layers.1.r = 32",
                          "layers.1: radius 32 reaches past the 32x32 array: at most 31"),
    "radius-huge": ("layers.1.r = 1000000000000", "layers.1: radius 1000000000000 reaches"),
    "bank-beyond-any-training-set": ("layers.1.n = 1000000000000",
                                     "layer 1: layer with N=1000000000000 can see at most"),
    "header-bank-beyond-file": (
        {"config": "layers.1.n = 1000000000000\nlayers.1.r = 1\nlayers.1.tau_us = 10000\n"},
        "truncated model file"),
    "header-radius-huge": (
        {"width": 65535, "height": 65535,
         "config": "layers.1.n = 4\nlayers.1.r = 60000\nlayers.1.tau_us = 10000\n"},
        "truncated model file"),
    "header-pooling-finer-than-array": (
        {"width": 2, "height": 2, "config": "layers.1.n = 4\nlayers.1.r = 1\n"
         "layers.1.tau_us = 10000\npooling.grid = 3x3\nknn.k = 1\n"},
        "model header: pooling grid 3x3 is finer than the 2x2 array"),
    "layer-index-skipped": ("layers.3.n = 4\nlayers.3.r = 1\nlayers.3.tau_us = 10000",
                            "layer indices must be 1..L, got [1, 3]"),
    "header-no-layers": ({"config": "knn.k = 1\n"}, "no layers configured"),
    "convert-text-without-geometry": (["convert", "{tmp}/clip.txt", "{tmp}/clip.evs"],
                                      "clip.txt: text input needs --geometry WxH"),
}


def replace_lines(text: str, lines: str) -> str:
    """``text`` without the lines that set the keys ``lines`` sets, then
    ``lines``."""
    keys = {line.partition("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in text.splitlines() if line.partition("=")[0].strip() not in keys]
    return "".join(line + "\n" for line in kept + lines.splitlines())


@pytest.mark.parametrize("fault, named", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_value_exit_2(swipes32, tmp_path, capsys, fault, named):
    manifest, config, model = swipes32
    if isinstance(fault, list):
        code = cli.main([arg.format(tmp=tmp_path) for arg in fault])
    elif isinstance(fault, dict):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(with_header(model.read_bytes(), **fault))
        code = cli.main(["eval", manifest, str(bad)])
    else:
        bad = tmp_path / "bad.cfg"
        bad.write_text(replace_lines(config.read_text(), fault))
        code = cli.main(["train", manifest, str(bad), str(tmp_path / "m.bin")])
    assert code == 2
    assert named in capsys.readouterr().err


def test_header_geometry_allocates_nothing(swipes32, tmp_path):
    """A model header that claims a 65535x256 array costs ``eval`` no more
    memory than the true header: no layer memory is sized before the
    geometry check."""
    manifest, _, model = swipes32
    tampered = tmp_path / "tampered.bin"
    tampered.write_bytes(with_header(model.read_bytes(), width=65535, height=256))
    script = ("import resource, sys\n"
              "from evgesture import cli\n"
              "code = cli.main(['eval', sys.argv[1], sys.argv[2]])\n"
              "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    peak = {}
    for name, path in (("true", model), ("tampered", tampered)):
        done = subprocess.run([sys.executable, "-c", script, manifest, str(path)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": SRC_DIR})
        code, kib = done.stdout.split()[-2:]
        peak[name] = (int(code), int(kib) / 1024)
    assert peak["true"][0] == 0 and peak["tampered"][0] == 2
    assert peak["tampered"][1] <= peak["true"][1] + 4, peak


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

    @pytest.mark.parametrize("grid", ["49x3", "3x49", "64x64"])
    def test_filter_grid_finer_than_array_exit_2(self, dataset, tmp_path, capsys, grid):
        assert cli.main(["filter", str(dataset / "clip_00.evs"), str(tmp_path / "f.evs"),
                         "--grid", grid]) == 2
        assert f"DBS grid {grid} is finer than the 48x48 array" in capsys.readouterr().err

    def test_filter_report_reads_back(self, dataset, tmp_path, capsys):
        assert cli.main(["filter", str(dataset / "clip_00.evs"), str(tmp_path / "f.evs"),
                         "--tau-b", "1234567", "--alpha", "0.123456789"]) == 0
        report = parse_kv(capsys.readouterr().out)
        assert float(report["filter.tau_b_us"]) == 1234567
        assert float(report["filter.alpha"]) == 0.123456789

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

    def test_synth_equals_gen_gesture_set(self, tmp_path):
        out = str(tmp_path / "synthset")
        assert cli.main(["synth", out, "--classes", "right", "up", "--clips-per-class",
                         "3", "--seed", "4", "--geometry", "37x29"]) == 0
        records = gen_gesture_set(SensorGeometry(37, 29, 2), 3, 4, ("right", "up"))
        lines = open(os.path.join(out, "manifest.tsv")).read().splitlines()
        assert len(lines) == len(records)
        for line, record in zip(lines, records):
            path, label, subject = line.split("\t")
            assert (label, subject) == (record.label, record.subject)
            with open(os.path.join(out, path), "rb") as f:
                stream = read_binary_events(f.read())
            expected = record.stream
            assert stream.geometry == expected.geometry
            for a, b in zip((stream.t, stream.x, stream.y, stream.p),
                            (expected.t, expected.x, expected.y, expected.p)):
                assert np.array_equal(a, b)
            tags = open(os.path.join(out, path + ".tags")).read().splitlines()
            assert tags == ["gesture"] * len(stream)

    def test_synth_unknown_class_exit_2(self, tmp_path, capsys):
        out = tmp_path / "synthset"
        assert cli.main(["synth", str(out), "--classes", "up", "bogus",
                         "--clips-per-class", "2", "--geometry", "32x32"]) == 2
        assert "bogus" in capsys.readouterr().err
        assert not out.exists() or not list(out.glob("*.evs"))


# Paths that name a directory or an existing file where the CLI reads or
# writes a file, each an input error (exit 2) that names the path.
UNREADABLE_PATHS = {
    "eval-model-is-dir": lambda m, c, model, d, out: ["eval", m, d],
    "train-config-is-dir": lambda m, c, model, d, out: ["train", m, d, out],
    "train-manifest-is-dir": lambda m, c, model, d, out: ["train", d, c, out],
    "train-output-is-dir": lambda m, c, model, d, out: ["train", m, c, d],
    "filter-output-is-dir": lambda m, c, model, d, out: [
        "filter", os.path.join(os.path.dirname(m), "clip_00.evs"), d],
    "convert-input-is-dir": lambda m, c, model, d, out: ["convert", d, out + ".txt"],
    "synth-outdir-is-file": lambda m, c, model, d, out: ["synth", m, "--clips-per-class", "1"],
}


def with_row(manifest: str, clip) -> str:
    """The manifest's rows, with absolute paths, and one more naming ``clip``."""
    rows = [f"{r.source}\t{r.label}\t{r.subject}\n" for r in load_manifest(manifest)]
    return "".join(rows) + f"{clip}\tup\ts1\n"


class TestInputEdge:
    @pytest.mark.parametrize("argv", UNREADABLE_PATHS.values(), ids=UNREADABLE_PATHS.keys())
    def test_unreadable_path_exit_2(self, swipes32, tmp_path, capsys, argv):
        manifest, config, model = swipes32
        (tmp_path / "adir").mkdir()
        argv = argv(manifest, str(config), str(model), str(tmp_path / "adir"),
                    str(tmp_path / "out"))
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal" not in err
        named = manifest if argv[0] == "synth" else str(tmp_path / "adir")
        assert named in err

    def test_manifest_row_names_dir_exit_2(self, swipes32, tmp_path, capsys):
        manifest, _, model = swipes32
        (tmp_path / "adir").mkdir()
        rows = with_row(manifest, tmp_path / "adir")
        (tmp_path / "m.tsv").write_text(rows)
        assert cli.main(["eval", str(tmp_path / "m.tsv"), str(model)]) == 2
        assert f"Is a directory: '{tmp_path / 'adir'}'" in capsys.readouterr().err

    def test_corrupt_clip_named(self, swipes32, tmp_path, capsys):
        manifest, _, model = swipes32
        (tmp_path / "bad.evs").write_bytes(b"EVS0" + bytes(20))
        rows = with_row(manifest, tmp_path / "bad.evs")
        (tmp_path / "m.tsv").write_text(rows)
        assert cli.main(["eval", str(tmp_path / "m.tsv"), str(model)]) == 2
        assert (f"error: {tmp_path / 'bad.evs'}: bad magic: not an EVS1 file"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        assert cli.main(argv) == 0
        assert "usage: evgesture" in capsys.readouterr().out

    @pytest.mark.parametrize("text, named", [
        (b"99999999999999999999 0 0 0\n", "a value does not fit in 64 bits"),
        (b"0 4294967296 0 0\n", "x=4294967296 out of bounds [0, 32)"),
        (b"0 \xff 0 0\n", "can't decode byte 0xff"),
    ])
    def test_text_value_out_of_range_exit_2(self, tmp_path, capsys, text, named):
        (tmp_path / "a.txt").write_bytes(text)
        assert cli.main(["convert", str(tmp_path / "a.txt"), str(tmp_path / "b.evs"),
                         "--geometry", "32x32"]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'a.txt'}: " in err and named in err

    def test_geometry_beyond_evs1_exit_2(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_bytes(b"0 1 0 0\n")
        assert cli.main(["convert", str(tmp_path / "a.txt"), str(tmp_path / "b.evs"),
                         "--geometry", "70000x1"]) == 2
        assert "geometry sizes must be 1-65535" in capsys.readouterr().err
        assert cli.main(["convert", str(tmp_path / "a.txt"), str(tmp_path / "b.evs"),
                         "--geometry", "4x4", "--channels", "256"]) == 2
        assert "256 channels do not fit an EVS1 header" in capsys.readouterr().err
        assert cli.main(["synth", str(tmp_path / "s"), "--geometry", "70000x70000"]) == 2
        assert not (tmp_path / "s").exists()


class TestCountChecks:
    def test_bench_runs_below_1(self, swipes32, capsys):
        manifest, config, model = swipes32
        trained = read_file(str(model), pipeline.load_pipeline)
        with pytest.raises(ValueError, match="runs must be >= 1, got 0"):
            pipeline.benchmark(trained, load_manifest(manifest), runs=0)
        assert cli.main(["bench", manifest, str(config), "--runs", "0"]) == 2
        assert "runs must be >= 1, got 0" in capsys.readouterr().err

    def test_clips_per_class_below_1(self, tmp_path, capsys):
        for count in (0, -1):
            with pytest.raises(ValueError, match=f"clips per class must be >= 1, got {count}"):
                gesture_set_clips(SensorGeometry(32, 32, 2), count, seed=1)
        out = tmp_path / "synthset"
        assert cli.main(["synth", str(out), "--clips-per-class", "-1"]) == 2
        assert "clips per class must be >= 1, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_no_evaluation_clips(self, swipes32, tmp_path, capsys):
        _, _, model = swipes32
        trained = read_file(str(model), pipeline.load_pipeline)
        with pytest.raises(ValueError, match="no evaluation clips"):
            pipeline.evaluate_pipeline(trained, [])
        (tmp_path / "empty.tsv").write_text("")
        assert cli.main(["eval", str(tmp_path / "empty.tsv"), str(model)]) == 2
        assert "no evaluation clips" in capsys.readouterr().err

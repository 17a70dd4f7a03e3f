import ctypes
import hashlib
import json
import os
import subprocess
import sys
import threading
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evgesture import _native, cli, network, pipeline as pl
from evgesture.classify import PoolingConfig, TrainedModel, accumulate, knn_classify
from evgesture.config import LayerSpec, PipelineConfig, parse_config
from evgesture.dbs import DbsConfig, DbsFilter, filter_stream
from evgesture.events import (
    ClipRecord, EventStream, SensorGeometry, StreamError, write_binary_events,
)
from evgesture.network import (
    DEFAULT_REINIT_WINDOW, TRAINING_MODES, Layer, LayerConfig, Network,
    UndertrainedLayerError, learn_update, nearest_rows, train,
)
from evgesture.oracles import (
    _LayerReference, learn_bruteforce, pipeline_bruteforce, surfaces_bruteforce,
)
from evgesture.pipeline import (
    TrainedPipeline, build_network, clip_workers, evaluate_pipeline, load_pipeline,
    map_clips, save_pipeline, stream_signature, suppress_background, train_pipeline,
)
from evgesture.surfaces import TimestampMemory, extract, is_valid
from evgesture.synth import SWIPE_RATE_HZ, CompositeSpec, gen_composite, gen_gesture_set

import test_dbs

GEOM = SensorGeometry(32, 32, 2)


class TestNearestPrototype:
    """One surface against a hand-made bank."""

    def test_tie_goes_to_lowest_index(self):
        bank = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert nearest_rows(bank, np.array([[0.5, 0.5]])).tolist() == [0]


class TestLearnUpdate:
    def test_fixed_point(self):
        c = np.array([0.3, 0.7, 0.1])
        assert np.allclose(learn_update(c, 5, c.copy()), c)

    def test_orthogonal_no_op(self):
        c = np.array([1.0, 0.0])
        s = np.array([0.0, 1.0])
        assert np.array_equal(learn_update(c, 1, s), c)

    def test_hand_evaluated_update(self):
        # rate 1/2, cosine 1/sqrt(2): step 0.35355...
        c = np.array([1.0, 0.0])
        s = np.array([1.0, 1.0])
        out = learn_update(c, 1, s)
        assert out[0] == pytest.approx(1.0, abs=1e-9)
        assert out[1] == pytest.approx(0.35355339059327373, abs=1e-9)

    def test_moves_toward_surface(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = rng.random(10)
            s = rng.random(10)
            out = learn_update(c, int(rng.integers(0, 100)), s)
            assert np.linalg.norm(out - s) <= np.linalg.norm(c - s) + 1e-12

    def test_stays_in_unit_box(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            c, s = rng.random(10), rng.random(10)
            out = learn_update(c, 0, s)
            assert (out >= 0).all() and (out <= 1).all()

    def test_rate_is_strictly_decreasing_in_matches(self):
        rates = [1.0 / (1.0 + a) for a in range(0, 1000)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_zero_norm_guard(self):
        c = np.zeros(3)
        assert np.array_equal(learn_update(c, 1, np.ones(3)), c)


def make_layer(n=4, radius=1, tau=1000.0, channels=1, window=10_000):
    cfg = LayerConfig(n_prototypes=n, radius=radius, tau_us=tau,
                      in_channels=channels, reinit_window=window)
    return Layer(cfg, GEOM)


def valid_flat(rng, layer):
    # sum comfortably above the 2R validity bound
    v = rng.random(layer.config.surface_config.size)
    return v / v.sum() * (4 * layer.config.radius)


class TestReinitStale:
    def test_no_stale_no_change(self):
        rng = np.random.default_rng(2)
        layer = make_layer(n=2, window=100)
        for _ in range(10):
            layer.process_surface(valid_flat(rng, layer))
        before = layer.bank.copy()
        layer.process_surface(before[0].copy())  # matches prototype 0
        assert np.array_equal(layer.bank[1], before[1])

    def test_stale_prototype_replaced(self):
        # seed both, then feed only surfaces matching prototype 0 until
        # prototype 1's age first exceeds the window on the incoming one
        layer = make_layer(n=2, window=7)
        a = np.zeros(9); a[:3] = 1.0
        b = np.zeros(9); b[6:] = 1.0
        layer.process_surface(a)
        layer.process_surface(b)
        for _ in range(7):
            assert layer.process_surface(a.copy()) == 0
        incoming = np.zeros(9); incoming[3:6] = 1.0
        idx = layer.process_surface(incoming.copy())
        assert idx == 1  # the stale slot
        assert np.array_equal(layer.bank[1], incoming)
        assert layer.match_counts[1] == 1

    def test_one_reinit_per_surface(self):
        layer = make_layer(n=3, window=2)
        a = np.zeros(9); a[:3] = 1.0
        seeds = [a]
        for k in (1, 2):
            v = np.zeros(9); v[3 * k : 3 * k + 3] = 1.0
            seeds.append(v)
        for v in seeds:
            layer.process_surface(v.copy())
        for _ in range(5):
            layer.process_surface(a.copy())  # both 1 and 2 go stale
        incoming = np.full(9, 0.5)
        layer.process_surface(incoming.copy())
        replaced = [i for i in (1, 2) if np.array_equal(layer.bank[i], incoming)]
        assert len(replaced) == 1  # only the stalest

    def test_equally_stale_take_lowest_index(self):
        layer = make_layer(n=3, window=2)
        for k in range(3):
            v = np.zeros(9); v[3 * k : 3 * k + 3] = 1.0
            layer.process_surface(v)
        layer.last_match_tick = [0, 1, 0]
        incoming = np.full(9, 0.5)
        assert layer.process_surface(incoming.copy()) == 0
        assert np.array_equal(layer.bank[0], incoming)
        assert layer.last_match_tick == [4, 1, 0]


def simple_stream(n=3000, seed=0):
    rng = np.random.default_rng(seed)
    # clustered events so surfaces are frequently valid
    t = np.cumsum(rng.integers(10, 60, n))
    x = np.clip(rng.integers(8, 24) + rng.integers(-2, 3, n), 0, 31)
    y = np.clip(rng.integers(8, 24) + rng.integers(-2, 3, n), 0, 31)
    return EventStream(t, x, y, np.zeros(n, dtype=int), SensorGeometry(32, 32, 1))


def small_network(n_layers=1):
    layers = [LayerConfig(4, 1, 2000.0, 1)]
    if n_layers == 2:
        layers.append(LayerConfig(4, 1, 10_000.0, 4))
    return Network(tuple(layers), GEOM, merge_polarity=True)


class TestForward:
    def test_isolated_event_consumed(self):
        layer = make_layer()
        assert layer.forward_event(0, 10, 10, 0) is None

    def test_frozen_emits_nearest_id(self):
        rng = np.random.default_rng(4)
        layer = make_layer(n=2)
        layer.process_surface(np.array([1.0] * 4 + [0.0] * 5))
        layer.process_surface(np.array([0.0] * 5 + [1.0] * 4))
        layer.freeze()
        assert layer.process_surface(np.array([0.0] * 5 + [1.0] * 4)) == 1

    def test_output_not_longer_than_input(self):
        net = train(small_network(), [simple_stream(seed=5)])
        s = simple_stream(seed=6)
        out = net.forward_stream(s)
        assert len(out) <= len(s)

    def test_output_channels_in_range(self):
        net = train(small_network(), [simple_stream(seed=7)])
        out = net.forward_stream(simple_stream(seed=8))
        assert len(out) > 0
        assert int(out.p.max()) < 4

    def test_empty_input(self):
        net = train(small_network(), [simple_stream(seed=9)])
        out = net.forward_stream(EventStream.empty(SensorGeometry(32, 32, 1)))
        assert len(out) == 0

    def test_deterministic(self):
        net = train(small_network(), [simple_stream(seed=10)])
        s = simple_stream(seed=11)
        assert net.forward_stream(s) == net.forward_stream(s)

    def test_frozen_bank_untouched_by_forward(self):
        net = train(small_network(), [simple_stream(seed=12)])
        before = net.layers[0].bank.copy()
        net.forward_stream(simple_stream(seed=13))
        assert np.array_equal(net.layers[0].bank, before)


class TestTrain:
    def test_training_twice_identical(self):
        banks = []
        for _ in range(2):
            net = train(small_network(), [simple_stream(seed=14)])
            banks.append(net.layers[0].bank.copy())
        assert np.array_equal(*banks)

    def test_undertrained_layer_named(self):
        sparse = EventStream([0, 500_000], [5, 20], [5, 20], [0, 0],
                             SensorGeometry(32, 32, 1))
        with pytest.raises(UndertrainedLayerError, match="layer 1"):
            train(small_network(), [sparse])

    @pytest.mark.parametrize("kw, message", [
        ({"mode": "greedy"}, "unknown training mode: 'greedy'"),
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
    ], ids=["mode", "epochs"])
    def test_schedule_refused_before_learning(self, kw, message):
        net = small_network()
        with pytest.raises(ValueError, match=message):
            train(net, [simple_stream(seed=14)], **kw)
        assert net.layers[0].n_filled == 0 and net.layers[0].tick == 0

    def test_two_layer_joint(self):
        net = train(small_network(2), [simple_stream(seed=15, n=6000)])
        assert net.frozen

    def test_two_layer_sequential(self):
        net = train(small_network(2), [simple_stream(seed=15, n=6000)],
                    mode="sequential")
        assert net.frozen

    def test_prototype_recovery(self):
        # 8 well-separated patterns; online clustering should land within
        # 0.1 of each generator mean (optimal assignment)
        from scipy.optimize import linear_sum_assignment
        rng = np.random.default_rng(16)
        dim = 9
        truth = np.zeros((8, dim))
        for i in range(8):
            truth[i, i] = 1.0
            truth[i, (i + 1) % dim] = 1.0
        layer = make_layer(n=8, radius=1, channels=1)
        # balanced start (one surface per pattern, shuffled), then i.i.d.;
        # online clustering inherits k-means' sensitivity to duplicate seeds
        order = list(rng.permutation(8))
        for k in range(4000):
            i = order[k] if k < 8 else int(rng.integers(0, 8))
            s = np.clip(truth[i] + rng.normal(0, 0.01, dim), 0.0, 1.0)
            layer.process_surface(s)
        cost = np.linalg.norm(layer.bank[:, None, :] - truth[None, :, :], axis=2)
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 0.1


class TestGeometry:
    def test_rejects_other_array_size(self):
        net = train(small_network(), [simple_stream(seed=19)])
        s = simple_stream(seed=20)
        with pytest.raises(StreamError, match="64x32"):
            net.forward_stream(EventStream(s.t, s.x, s.y, s.p, SensorGeometry(64, 32, 1)))

    def test_merged_polarity_takes_any_channels(self):
        net = train(small_network(), [simple_stream(seed=19)])  # (32, 32, 2) network
        s = simple_stream(seed=20)
        for channels in (1, 2, 3):
            net.forward_stream(EventStream(s.t, s.x, s.y, s.p, SensorGeometry(32, 32, channels)))

    def test_unmerged_rejects_more_channels(self):
        layers = (LayerConfig(4, 1, 2000.0, 2),)
        net = Network(layers, GEOM, merge_polarity=False)
        s = simple_stream(seed=21)
        net.forward_stream(EventStream(s.t, s.x, s.y, s.p, SensorGeometry(32, 32, 1)))
        with pytest.raises(StreamError, match="3 channels"):
            net.forward_stream(EventStream(s.t, s.x, s.y, s.p, SensorGeometry(32, 32, 3)))

    def test_layers_must_chain(self):
        with pytest.raises(ValueError, match="expects 3 channels, previous emits 4"):
            Network((LayerConfig(4, 1, 2000.0, 1), LayerConfig(4, 1, 2000.0, 3)), GEOM)


class TestInstall:
    """``Layer.install``: the one writer of a trained bank."""

    def test_installs_and_freezes(self):
        layer = Layer(LayerConfig(3, 1, 1000.0, 2), GEOM)
        bank = np.random.default_rng(5).random(layer.bank.shape)
        layer.install(bank, [4, 1, 2])
        assert layer.bank.tobytes() == bank.tobytes()
        assert (layer.match_counts, layer.last_match_tick) == ([4, 1, 2], [0, 0, 0])
        assert layer.n_filled == 3 and not layer.learning

    @pytest.mark.parametrize("shape, counts", [((2, 18), [1, 1]), ((3, 9), [1, 1, 1]),
                                               ((3, 18), [1, 1]), ((3, 18), [1] * 4)])
    def test_rejects_other_shape_unchanged(self, shape, counts):
        layer = Layer(LayerConfig(3, 1, 1000.0, 2), GEOM)
        with pytest.raises(ValueError, match="the layer takes \\(3, 18\\)"):
            layer.install(np.ones(shape), counts)
        assert not layer.bank.any() and layer.learning and layer.n_filled == 0

    def test_building_sizes_nothing(self):
        # a trillion rows of 2 x 201 x 201 floats: built, not allocated
        layer = Layer(LayerConfig(10**12, 100, 1000.0, 2), SensorGeometry(65535, 65535, 2))
        assert layer.bank_shape == (10**12, 2 * 201 * 201)
        with pytest.raises(ValueError, match="the layer takes"):
            layer.install(np.ones((1, 3)), [1])


class TestEncodeChecks:
    """``encode`` rejects a bad event, as DBS does, before the layer's
    memory changes: an 8x8 one-channel layer that has taken t = 10."""

    @pytest.mark.parametrize("events, says", [
        ([(20, -1, 3, 0)], r"pixel \(-1, 3\) outside 8x8: x=-1"),
        ([(20, 9, 3, 0)], r"pixel \(9, 3\) outside 8x8: x=9"),
        ([(20, 3, 8, 0)], r"pixel \(3, 8\) outside 8x8: y=8"),
        ([(20, 3, 3, 1)], r"p=1 out of bounds \[0, 1\) at index 0"),
        ([(5, 3, 3, 0)], r"time regression: 5 < 10 at index 0"),
        ([(30, 3, 3, 0), (20, 4, 4, 0)], r"time regression: 20 < 30 at index 1"),
    ], ids=["x-negative", "x-past-width", "y-past-height", "channel", "behind-memory",
            "within-call"])
    @pytest.mark.parametrize("learning", [True, False])
    def test_bad_event_rejected(self, events, says, learning):
        layer = Layer(LayerConfig(n_prototypes=1, radius=1, tau_us=100.0, in_channels=1),
                      SensorGeometry(8, 8, 1))
        layer.encode(*(np.array([v]) for v in (10, 4, 4, 0)))
        layer.learning = learning
        before = layer.memory.copy()
        t, x, y, p = (np.array(v) for v in zip(*events))
        with pytest.raises(StreamError, match=says):
            layer.encode(t, x, y, p)
        assert np.array_equal(layer.memory, before)

    def test_negative_time_on_fresh_layer(self):
        layer = make_layer()
        with pytest.raises(StreamError, match="negative timestamp -5 at index 0"):
            layer.encode(*(np.array([v]) for v in (-5, 3, 3, 0)))

    def test_forward_event_channel(self):
        with pytest.raises(StreamError, match="p=1 out of bounds"):
            make_layer().forward_event(0, 3, 3, 1)

    def test_reset_forgets_latest_time(self):
        layer = make_layer()
        layer.forward_event(50, 3, 3, 0)
        layer.reset_memory()
        assert layer.forward_event(10, 3, 3, 0) is None


# Two of its floats are ones that ``:g`` text would round, so the round
# trip below also checks that the file keeps the config exactly.
MODEL_CONFIG = ("dbs.enabled = true\ndbs.tau_b_us = 1234.5678\n"
                "layers.1.n = 4\nlayers.1.r = 1\nlayers.1.tau_us = 10000\n"
                "layers.2.n = 3\nlayers.2.r = 1\nlayers.2.tau_us = 1234567\n"
                "pooling.grid = 2x2\nknn.k = 3\n")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A two-layer pipeline trained on 32x32 swipes, its model file, and an
    eval manifest of the same swipes."""
    clips = gen_gesture_set(SensorGeometry(32, 32, 2), 1, 5)
    trained = train_pipeline(parse_config(MODEL_CONFIG), clips)
    root = tmp_path_factory.mktemp("model")
    lines = []
    for i, clip in enumerate(clips):
        (root / f"{i}.evs").write_bytes(write_binary_events(clip.stream))
        lines.append(f"{i}.evs\t{clip.label}\ts0\n")
    (root / "manifest.tsv").write_text("".join(lines))
    return trained, save_pipeline(trained), clips, str(root / "manifest.tsv")


def with_crc(data: bytes) -> bytes:
    """``data`` with its CRC32 field recomputed, so that only the length
    and header checks can reject it."""
    return data[:4] + zlib.crc32(data[8:]).to_bytes(4, "little") + data[8:]


def variants(data: bytes):
    """Every truncation (also with the CRC recomputed), every single-byte
    flip, and trailing bytes (also with the CRC recomputed)."""
    for cut in range(len(data)):
        yield data[:cut]
        if cut >= 8:
            yield with_crc(data[:cut])
    for i in range(len(data)):
        flipped = bytearray(data)
        flipped[i] ^= 0xFF
        yield bytes(flipped)
    yield data + b"\x00junk"
    yield with_crc(data + b"\x00junk")


class TestSerialization:
    """``save_pipeline``/``load_pipeline``: the one model file."""

    def test_round_trip_bit_exact(self, saved):
        trained, data, clips, _ = saved
        loaded = load_pipeline(data)
        assert save_pipeline(loaded) == data
        assert loaded.config == trained.config
        assert loaded.network.geometry == trained.network.geometry
        for a, b in zip(loaded.network.layers, trained.network.layers):
            assert a.bank.tobytes() == b.bank.tobytes()
            assert a.match_counts == b.match_counts
        assert (loaded.model.labels, loaded.model.k) == (trained.model.labels, trained.model.k)
        assert loaded.model.signatures.tobytes() == trained.model.signatures.tobytes()
        stream = clips[0].stream
        assert loaded.network.forward_stream(stream) == trained.network.forward_stream(stream)
        reports = [evaluate_pipeline(p, clips).to_pairs() for p in (loaded, trained)]
        for r in reports:
            r.pop("wall_clock_s")
        assert reports[0] == reports[1]

    def test_rejects_unfrozen(self, saved):
        trained = saved[0]
        fresh = build_network(trained.config, trained.network.geometry)
        with pytest.raises(ValueError, match="frozen"):
            save_pipeline(TrainedPipeline(trained.config, fresh, trained.model))

    def test_rejects_bad_magic(self, saved):
        with pytest.raises(StreamError, match="magic"):
            load_pipeline(b"XXXX" + saved[1][4:])

    def test_every_malformed_variant_rejected(self, saved):
        for bad in variants(saved[1]):
            with pytest.raises(StreamError):
                load_pipeline(bad)

    def test_trailing_bytes_named(self, saved):
        with pytest.raises(StreamError, match="5 trailing bytes"):
            load_pipeline(with_crc(saved[1] + b"\x00junk"))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_flip_with_crc_recomputed(self, saved, data):
        # With the CRC made to agree, a flip either still reads as a model
        # (e.g. a changed bank value) or is a StreamError, never another
        # exception.
        model = saved[1]
        i = data.draw(st.integers(8, len(model) - 1))
        mask = data.draw(st.integers(1, 255))
        flipped = bytearray(model)
        flipped[i] ^= mask
        try:
            load_pipeline(with_crc(bytes(flipped)))
        except StreamError:
            pass

    @pytest.mark.parametrize("count", [2**63, 2**64 - 1])
    def test_count_past_int64_refused(self, saved, tmp_path, capsys, count):
        # a count that the compiled pass cannot hold as an int64, in a file
        # whose CRC agrees: refused by install, so by load and eval
        trained, data, _, manifest = saved
        layer = Layer(trained.network.layers[0].config, trained.network.geometry)
        n, d = layer.bank_shape
        with pytest.raises(ValueError, match=f"match count {count} of row 1 is outside"):
            layer.install(np.zeros((n, d)), [1, count] + [1] * (n - 2))
        with pytest.raises(ValueError, match="match count -1 of row 0"):
            layer.install(np.zeros((n, d)), [-1] + [1] * (n - 1))
        assert layer.learning and layer.match_counts == [] and not layer.bank.any()
        at = 12 + int.from_bytes(data[8:12], "little") + 8 * n * d + 8
        bad = with_crc(data[:at] + count.to_bytes(8, "little") + data[at + 8:])
        with pytest.raises(StreamError, match=f"model bank: match count {count} of row 1"):
            load_pipeline(bad)
        path = tmp_path / "model.bin"
        path.write_bytes(bad)
        assert cli.main(["eval", manifest, str(path)]) == 2
        assert "is outside [0, 2**63)" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1e200, -1e-300, 1.0000000000000002, np.inf, np.nan])
    def test_signature_outside_unit_refused(self, saved, tmp_path, capsys, value):
        # a signature value that normalize cannot produce, in a file whose
        # CRC agrees: 1e200 made k-NN's squared differences overflow
        trained, data, _, manifest = saved
        rows, width = trained.model.signatures.shape
        at = len(data) - 8 * rows * width + 8 * (width + 2)  # row 1, bin 2
        bad = with_crc(data[:at] + np.array([value], dtype="<f8").tobytes() + data[at + 8:])
        with pytest.raises(StreamError, match=r"model signature value .* at row 1, bin 2 is "
                                              r"outside \[0, 1\]"):
            load_pipeline(bad)
        signatures = trained.model.signatures.copy()
        signatures[1, 2] = value
        model = TrainedModel(signatures, trained.model.labels, trained.model.k)
        with pytest.raises(ValueError, match=r"at row 1, bin 2 is outside \[0, 1\]"):
            save_pipeline(TrainedPipeline(trained.config, trained.network, model))
        path = tmp_path / "model.bin"
        path.write_bytes(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["eval", manifest, str(path)]) == 2
        assert "is outside [0, 1]" in capsys.readouterr().err

    def test_cli_eval_exits_2(self, saved, tmp_path, capsys, monkeypatch):
        _, data, _, manifest = saved
        parser = cli.build_parser()  # built once: it is most of a call's cost
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        path = tmp_path / "model.bin"
        path.write_bytes(data)
        assert cli.main(["eval", manifest, str(path)]) == 0
        for bad in variants(data):
            path.write_bytes(bad)
            assert cli.main(["eval", manifest, str(path)]) == 2
        assert "model.bin" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# A frozen layer encodes a stream in one compiled pass; these tests hold that
# pass to the per-event path and to the brute-force surface oracle.

# The oracle's 1 - dt/tau and extract's (last - t)/tau + 1, and sums or
# distances over either, differ far below this.
ROUNDING = 1e-9


def frozen_network(geometry, specs, merge, seed, duplicate_rows=False):
    """A network whose banks are seeded random rows, then frozen.

    ``specs`` is one (n_prototypes, radius, tau_us) per layer."""
    rng = np.random.default_rng(seed)
    in_channels = 1 if merge else geometry.channels
    configs = []
    for n, radius, tau in specs:
        configs.append(LayerConfig(n, radius, tau, in_channels))
        in_channels = n
    net = Network(tuple(configs), geometry, merge_polarity=merge)
    for layer in net.layers:
        n, d = layer.bank.shape
        bank = rng.random((n, d)) * (rng.random((n, d)) < 0.6)
        if duplicate_rows and n > 1:
            bank[n - 1] = bank[0]
        layer.install(bank, [1] * n)
    return net


def per_event_output(net, stream, upto):
    """The cascade run one event at a time through ``forward_event``."""
    net.reset_memories()
    out = []
    for t, x, y, p in zip(stream.t.tolist(), stream.x.tolist(),
                          stream.y.tolist(), stream.p.tolist()):
        ev = (t, x, y, 0 if net.merge_polarity else p)
        for layer in net.layers[: upto + 1]:
            ev = layer.forward_event(*ev)
            if ev is None:
                break
        else:
            out.append(tuple(ev))
    return out


def oracle_accepts(layer_in, out, layer) -> bool:
    """Whether ``out`` is one frozen-layer output the oracle allows: an
    event is kept iff its brute-force surface sums to >= 2R and labelled
    with a nearest bank row; within ROUNDING of the threshold or of the
    nearest distance either choice is allowed. Outputs are aligned to
    inputs by a subsequence search, so repeated (t, x, y) stay unambiguous.
    """
    surfaces = surfaces_bruteforce(layer_in, layer.config.surface_config)
    threshold = 2 * layer.config.radius
    reachable = {0}  # output events consumed so far, over all alignments
    for i, surface in enumerate(surfaces):
        flat = surface.ravel()
        total = float(flat.sum())
        may_drop = total < threshold + ROUNDING
        may_keep = total >= threshold - ROUNDING
        diff = layer.bank - flat
        d2 = np.einsum("ij,ij->i", diff, diff)
        allowed = set(np.flatnonzero(d2 <= d2.min() + ROUNDING).tolist())
        here = (layer_in.t[i], layer_in.x[i], layer_in.y[i])
        nxt = set()
        for j in reachable:
            if may_drop:
                nxt.add(j)
            if (may_keep and j < len(out)
                    and (out.t[j], out.x[j], out.y[j]) == here
                    and int(out.p[j]) in allowed):
                nxt.add(j + 1)
        reachable = nxt
    return len(out) in reachable


@st.composite
def frozen_cases(draw):
    """A small stream with bursts of repeated timestamps and pixels, and a
    frozen 1- or 2-layer net with R in 1-3 on it; arrays may be smaller
    than the receptive field."""
    w, h = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    geometry = SensorGeometry(w, h, 2)
    n = draw(st.integers(0, 70))
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 3, 40, 700, 5000]),
                         min_size=n, max_size=n))
    xs = draw(st.lists(st.integers(0, w - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, h - 1), min_size=n, max_size=n))
    ps = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    stream = EventStream(np.cumsum(gaps, dtype=np.int64), xs, ys, ps, geometry)
    n_layers = draw(st.integers(1, 2))
    specs = [(draw(st.integers(1, 5)), draw(st.integers(1, 3)),
              draw(st.sampled_from([700.0, 3000.0, 20_000.0])))
             for _ in range(n_layers)]
    net = frozen_network(geometry, specs, draw(st.booleans()),
                         draw(st.integers(0, 2**16)), draw(st.booleans()))
    return net, stream


@st.composite
def burst_cases(draw):
    """A frozen one-layer net, clips made of bursts of equal timestamps on
    one pixel (or spread over a few), and cuts into ``encode`` calls."""
    w, h = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    geometry = SensorGeometry(w, h, 2)
    clips = []
    for _ in range(draw(st.integers(1, 3))):
        t, xs, ys, ps, now = [], [], [], [], 0
        for _ in range(draw(st.integers(0, 12))):
            now += draw(st.sampled_from([0, 0, 1, 3, 40, 700, 5000]))
            x, y = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
            p = draw(st.integers(0, 1))
            for _ in range(draw(st.integers(1, 5))):
                if draw(st.integers(0, 3)) == 0:  # leave the burst's pixel
                    x, y = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
                t.append(now)
                xs.append(x)
                ys.append(y)
                ps.append(p)
        clips.append(EventStream(np.array(t, dtype=np.int64), xs, ys, ps, geometry))
    net = frozen_network(geometry, [(draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                                     draw(st.sampled_from([700.0, 3000.0, 20_000.0])))],
                         False, draw(st.integers(0, 2**16)))
    cuts = draw(st.lists(st.integers(1, 12), min_size=1, max_size=10))
    return net.layers[0], clips, cuts


def layer_input(net, stream):
    if net.merge_polarity:
        return stream.with_channels(np.zeros(len(stream), dtype=np.int32), 1)
    return stream


class TestFrozenBlocks:
    @settings(max_examples=80, deadline=None)
    @given(frozen_cases())
    def test_equals_per_event_path(self, case):
        net, stream = case
        for upto in range(len(net.layers)):
            out = net.forward_stream(stream, learn_upto=upto)
            assert list(zip(out.t.tolist(), out.x.tolist(), out.y.tolist(),
                            out.p.tolist())) == per_event_output(net, stream, upto)

    @settings(max_examples=80, deadline=None)
    @given(frozen_cases())
    def test_equals_bruteforce_oracle(self, case):
        net, stream = case
        layer_in = layer_input(net, stream)
        for upto, layer in enumerate(net.layers):
            out = net.forward_stream(stream, learn_upto=upto)
            assert oracle_accepts(layer_in, out, layer)
            layer_in = out

    @settings(max_examples=60, deadline=None)
    @given(frozen_cases(), st.lists(st.integers(1, 12), min_size=1, max_size=30))
    def test_any_block_boundaries(self, case, cuts):
        net, stream = case
        layer = net.layers[0]
        s = layer_input(net, stream)
        layer.reset_memory()
        whole = layer.encode(s.t, s.x, s.y, s.p)
        layer.reset_memory()
        keep, ids, a, k = [], [], 0, 0
        while a < len(s):
            b = a + cuts[k % len(cuts)]
            kb, ib = layer.encode(s.t[a:b], s.x[a:b], s.y[a:b], s.p[a:b])
            keep.append(kb)
            ids.append(ib)
            a, k = b, k + 1
        if keep:
            assert np.array_equal(np.concatenate(keep), whole[0])
            assert np.array_equal(np.concatenate(ids), whole[1])

    def test_every_block_length(self):
        geometry = SensorGeometry(16, 12, 2)
        net = frozen_network(geometry, [(6, 2, 3000.0)], True, seed=3)
        rng = np.random.default_rng(4)
        n = 400
        stream = EventStream(np.cumsum(rng.integers(0, 60, n)),
                             np.clip(8 + rng.integers(-3, 4, n), 0, 15),
                             np.clip(6 + rng.integers(-3, 4, n), 0, 11),
                             rng.integers(0, 2, n), geometry)
        layer = net.layers[0]
        s = layer_input(net, stream)
        layer.reset_memory()
        whole_keep, whole_ids = layer.encode(s.t, s.x, s.y, s.p)
        assert 0 < whole_keep.sum() < n
        for step in range(1, n + 1):
            layer.reset_memory()
            pieces = [layer.encode(s.t[a:a + step], s.x[a:a + step],
                                   s.y[a:a + step], s.p[a:a + step])
                      for a in range(0, n, step)]
            assert np.array_equal(np.concatenate([k for k, _ in pieces]), whole_keep)
            assert np.array_equal(np.concatenate([i for _, i in pieces]), whole_ids)

    def test_blocks_and_events_share_the_memory(self):
        # encode reads what forward_event recorded and records its own
        # events for the next forward_event
        events = [(0, 3, 3), (10, 4, 3), (20, 3, 4), (30, 4, 4), (40, 4, 5), (50, 3, 3)]
        twin, net = (frozen_network(SensorGeometry(8, 8, 2), [(3, 1, 5000.0)],
                                    True, seed=5) for _ in range(2))
        expected = [twin.layers[0].forward_event(t, x, y, 0) for t, x, y in events]
        layer = net.layers[0]
        got = [layer.forward_event(t, x, y, 0) for t, x, y in events[:2]]
        t, x, y = (np.array(v) for v in zip(*events[2:4]))
        keep, ids = layer.encode(t, x, y, np.zeros(2, dtype=np.int64))
        got += [None] * 2
        for k, i in zip(np.flatnonzero(keep), ids):
            got[2 + k] = (t[k], x[k], y[k], i)
        got += [layer.forward_event(t, x, y, 0) for t, x, y in events[4:]]
        assert [None if e is None else tuple(int(v) for v in e) for e in got] == \
            [None if e is None else tuple(e) for e in expected]
        assert sum(e is not None for e in expected) >= 4

    @settings(max_examples=60, deadline=None)
    @given(frozen_cases())
    def test_surfaces_equal_extract(self, case):
        # bit for bit, and so are the row sums the validity gate reads
        net, stream = case
        layer = net.layers[0]
        s = layer_input(net, stream)
        layer.reset_memory()
        rows = layer.block_surfaces(s.t, s.x, s.y, s.p)
        memory = TimestampMemory(layer.geometry)
        expected = []
        for t, x, y, p in zip(s.t.tolist(), s.x.tolist(), s.y.tolist(), s.p.tolist()):
            memory.record(t, x, y, p)
            expected.append(extract(memory, t, x, y, p, layer.config.surface_config)
                            .values.ravel())
        if expected:
            assert np.array_equal(rows, np.array(expected))
            assert np.array_equal(rows.sum(axis=1), [e.sum() for e in expected])

    @settings(max_examples=60, deadline=None)
    @given(burst_cases())
    def test_surfaces_across_calls_and_clips(self, case):
        # earlier calls and clips never hide an event from a later event's
        # surface: each event, however the clip is cut into calls, is kept
        # iff its surface from extract sums to >= 2R, with the pairwise
        # argmin over the frozen bank, and after each clip the memory
        # holds a replay of the clip inside its -inf border
        layer, clips, cuts = case
        R = layer.config.radius
        for s in clips:
            layer.reset_memory()
            keep, ids, a, k = [], [], 0, 0
            while a < len(s):
                b = a + cuts[k % len(cuts)]
                kb, ib = layer.encode(s.t[a:b], s.x[a:b], s.y[a:b], s.p[a:b])
                keep += kb.tolist()
                ids += ib.tolist()
                a, k = b, k + 1
            memory = TimestampMemory(layer.geometry)
            expected_keep, expected_ids = [], []
            for t, x, y, p in events_of(s):
                memory.record(t, x, y, p)
                flat = extract(memory, t, x, y, p, layer.config.surface_config).values.ravel()
                expected_keep.append(bool(flat.sum() >= 2 * R))
                if expected_keep[-1]:
                    expected_ids.append(int(np.add.reduce((layer.bank - flat) ** 2, axis=1)
                                            .argmin()))
            assert keep == expected_keep
            assert ids == expected_ids
            assert np.array_equal(layer.memory, np.pad(memory.last_t, ((0, 0), (R, R), (R, R)),
                                                       constant_values=-np.inf))

class TestNearestRows:
    def test_exact_match(self):
        bank = np.eye(5)
        assert nearest_rows(bank, bank[[3]]).tolist() == [3]

    def test_duplicate_rows_take_lowest_index(self):
        rng = np.random.default_rng(6)
        bank = rng.random((6, 50))
        bank[4] = bank[1]
        surfaces = bank[[1, 4, 1]] + rng.normal(0, 1e-3, (3, 50))
        assert nearest_rows(bank, surfaces).tolist() == [1, 1, 1]

    def test_equidistant_surface_takes_lowest_index(self):
        rng = np.random.default_rng(7)
        s = rng.random(40)
        bank = rng.random((8, 40)) + 2.0  # far rows
        bank[2] = s
        bank[2][5] += 0.25
        bank[6] = s
        bank[6][9] -= 0.25  # both exactly 0.0625 away
        assert nearest_rows(bank, s[None, :]).tolist() == [2]
        bank[[2, 6]] = bank[[6, 2]]
        assert nearest_rows(bank, s[None, :]).tolist() == [2]

    def test_process_surface_ties(self):
        layer = make_layer(n=3)
        for v in ([1.0] * 4 + [0.0] * 5, [0.0] * 5 + [1.0] * 4, [1.0] * 4 + [0.0] * 5):
            layer.process_surface(np.array(v))
        layer.freeze()
        assert layer.process_surface(np.array([1.0] * 4 + [0.0] * 5)) == 0
        assert layer.process_surface(np.array([0.5] * 9)) == 0  # all three equidistant

    def test_frozen_stream_with_duplicate_rows(self):
        net = frozen_network(SensorGeometry(32, 32, 2), [(4, 1, 5000.0)], True, seed=8)
        layer = net.layers[0]
        layer.bank[2] = layer.bank[0]
        layer.bank[3] = layer.bank[1]
        stream = simple_stream(n=500, seed=9)
        out = net.forward_stream(stream)
        assert len(out) > 0
        assert set(out.p.tolist()) <= {0, 1}
        assert list(zip(out.t.tolist(), out.x.tolist(), out.y.tolist(),
                        out.p.tolist())) == per_event_output(net, stream, 0)

    def test_matches_einsum_argmin_near_ties(self):
        rng = np.random.default_rng(10)
        for d, n in ((25, 8), (200, 64), (9, 2)):
            bank = rng.random((n, d))
            surfaces = np.concatenate([
                rng.random((50, d)),
                # rows a rounding error from a bank row
                bank[rng.integers(0, n, 50)] * (1 + rng.normal(0, 1e-15, (50, d))),
            ])
            expected = [np.einsum("ij,ij->i", bank - s, bank - s).argmin() for s in surfaces]
            assert nearest_rows(bank, surfaces).tolist() == expected

    def test_single_row_bank(self):
        assert nearest_rows(np.ones((1, 4)), np.zeros((3, 4))).tolist() == [0, 0, 0]


@st.composite
def sparse_match_cases(draw):
    """A bank and surfaces as sparse as layer surfaces are, or sparser:
    rows that are all or mostly zero, zero and duplicate bank rows,
    surfaces equal to a bank row, a rounding error from one, or halfway
    between two, at widths through the summation regimes."""
    n, d = draw(st.sampled_from([1, 2, 3, 8, 64])), draw(st.sampled_from([1, 9, 25, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sparse(rows, density):
        return rng.random((rows, d)) * (rng.random((rows, d)) < density)

    bank = sparse(n, draw(st.sampled_from([0.05, 0.2, 0.6, 1.0])))
    for _ in range(draw(st.integers(0, 2))):
        bank[rng.integers(n)] = 0.0
    for _ in range(draw(st.integers(0, 2))):
        bank[rng.integers(n)] = bank[rng.integers(n)]
    kinds = draw(st.lists(st.sampled_from(["zero", "sparse", "dense", "row", "near", "half"]),
                          max_size=30))
    surfaces = np.zeros((len(kinds), d))
    for k, kind in enumerate(kinds):
        a, b = bank[rng.integers(n)], bank[rng.integers(n)]
        if kind == "sparse":
            surfaces[k] = sparse(1, 0.1)[0]
        elif kind == "dense":
            surfaces[k] = rng.random(d)
        elif kind == "row":
            surfaces[k] = a
        elif kind == "near":
            surfaces[k] = a * (1 + rng.normal(0, 1e-15, d))
        elif kind == "half":
            surfaces[k] = (a + b) / 2
    return bank, surfaces


# Clips of (t, x, y) on a 5x5 array, one channel, whose last event, at
# (2, 2), has a radius-1 surface at the edge of the validity gate: the
# surface's tau, its events, and whether the last one is valid.
GATE_EDGE_CLIPS = {
    # a same-time neighbour: 1.0 + 1.0 is exactly 2R
    "exactly-2R": (3000.0, [(5, 2, 1), (5, 2, 2)], True),
    # a neighbour one microsecond earlier at tau 2**52: 1.0 + (1 - 2**-52)
    "one-ulp-below": (2.0**52, [(4, 2, 1), (5, 2, 2)], False),
    # 0.6 + 0.2 + 1.0 + 0.2 in row order: 2.0 in numpy's pairwise order,
    # 2 - 2**-52 left to right
    "pairwise-2.0": (5.0, [(6, 2, 1), (6, 3, 2), (8, 1, 1), (10, 2, 2)], True),
    # 0.6 + 1.0 + 0.2 + 0.2: 2 - 2**-52 pairwise, 2.0 left to right
    "pairwise-below": (5.0, [(6, 3, 2), (6, 3, 3), (8, 1, 1), (10, 2, 2)], False),
}


class TestCompiledLayer:
    """The compiled surface and matching loops: their inputs and bounds."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_match_cases())
    def test_sparse_matching_equals_pairwise_argmin(self, case):
        bank, surfaces = case
        expected = [int(np.add.reduce((bank - s) ** 2, axis=1).argmin()) for s in surfaces]
        assert nearest_rows(bank, surfaces).tolist() == expected

    @pytest.mark.parametrize("shape", [(3, 8), (3,), (3, 10), (0, 10)])
    def test_nearest_rows_rejects_width(self, shape):
        with pytest.raises(ValueError, match="for a bank of"):
            nearest_rows(np.ones((4, 9)), np.zeros(shape))

    @pytest.mark.parametrize("bad", [(-1, 3, 0), (8, 3, 0), (3, -1, 0), (3, 8, 0),
                                     (3, 3, -1), (3, 3, 2)],
                             ids=["x-negative", "x-past-width", "y-negative",
                                  "y-past-height", "p-negative", "p-past-channels"])
    def test_block_surfaces_rejects_bad_event(self, bad):
        # called directly, with no check by encode first; the good event
        # before the bad one must not reach the memory either
        layer = Layer(LayerConfig(n_prototypes=2, radius=2, tau_us=100.0, in_channels=2),
                      SensorGeometry(8, 8, 2))
        layer.block_surfaces(*(np.array([v]) for v in (10, 4, 4, 1)))
        before = layer.memory.copy()
        t, x, y, p = (np.array(v) for v in zip((20, 5, 5, 0), (30, *bad)))
        with pytest.raises(StreamError, match=r"[xyp]=-?\d+ out of bounds \[0, [28]\) at index 1"):
            layer.block_surfaces(t, x, y, p)
        assert np.array_equal(layer.memory, before)

    def test_block_surfaces_keeps_since(self):
        # a later call behind the memory's latest time is refused, as by
        # encode: it would read an age below -tau, a value above 1
        layer = Layer(LayerConfig(n_prototypes=2, radius=1, tau_us=100.0, in_channels=1),
                      SensorGeometry(8, 8, 1))
        layer.block_surfaces((1000,), (4,), (4,), (0,))
        assert layer.since == 1000
        before = layer.memory.copy()
        with pytest.raises(StreamError, match=r"time regression: 10 < 1000 at index 0$"):
            layer.block_surfaces((10,), (4,), (5,), (0,))
        assert np.array_equal(layer.memory, before) and layer.since == 1000
        with pytest.raises(StreamError, match=r"time regression: 10 < 1000 at index 0$"):
            layer.encode((10,), (4,), (5,), (0,))
        rows = layer.block_surfaces((1050, 1060), (4, 4), (5, 4), (0, 0))
        assert layer.since == 1060 and rows.max() <= 1.0

    def test_block_surfaces_rejects_unequal_lengths(self):
        layer = Layer(LayerConfig(n_prototypes=2, radius=1, tau_us=100.0, in_channels=1),
                      SensorGeometry(8, 8, 1))
        with pytest.raises(StreamError, match="equal length"):
            layer.block_surfaces(np.array([1, 2]), np.array([3, 3]), np.array([3]),
                                 np.array([0, 0]))
        assert np.isneginf(layer.memory).all()

    @pytest.mark.parametrize("learning", [True, False])
    def test_int32_and_strided_inputs(self, learning):
        # every other entry of each buffer is the stream's; the entries
        # between are far off in time and off the array, so reading a view
        # as if it were contiguous could not give the same output
        stream = simple_stream(n=2000, seed=30)
        views = []
        for v, junk in ((stream.t, -7), (stream.x, 99), (stream.y, -3), (stream.p, 5)):
            buf = np.full(2 * len(v), junk, dtype=np.int64)
            buf[::2] = v
            views.append(buf[::2])
        narrow = [v.astype(np.int32) for v in (stream.t, stream.x, stream.y, stream.p)]
        copies = [np.array(v, dtype=np.int64) for v in (stream.t, stream.x, stream.y, stream.p)]
        layers = []
        for inputs in (views, narrow, copies):
            net = frozen_network(stream.geometry, [(4, 2, 3000.0)], False, seed=31)
            layer = net.layers[0]
            layer.learning = learning
            keep, ids = layer.encode(*inputs)
            layers.append((layer, keep, ids))
        *others, (reference, keep, ids) = layers
        assert 0 < keep.sum() < len(stream)
        for layer, other_keep, other_ids in others:
            assert np.array_equal(other_keep, keep)
            assert np.array_equal(other_ids, ids)
            assert np.array_equal(layer.memory, reference.memory)
            assert layer.bank.tobytes() == reference.bank.tobytes()
            assert layer.match_counts == reference.match_counts

    @pytest.mark.parametrize("tau", [3.0, 2.5, 0.5])
    @pytest.mark.parametrize("t0", [0, 2**53 - 6, 2**62], ids=["small", "2**53", "2**62"])
    def test_reader_at_the_decay_edge(self, tau, t0):
        # the ring fires 0-7 us apart and then the centre, up to 3 us after
        # the last of it, so entries lie tau old, 1 us either side of it
        # and long expired; past 2**53 the times round to even as doubles
        geometry = SensorGeometry(3, 3, 1)
        ring = [(x, y) for y in range(3) for x in range(3) if (x, y) != (1, 1)]
        events = []
        for group, lag in enumerate((0, 1, 3)):
            base = t0 + group * 1000
            events += [(base + i, x, y, 0) for i, (x, y) in enumerate(ring)]
            events.append((base + 7 + lag, 1, 1, 0))
        t, x, y, p = (np.array(v) for v in zip(*events))
        config = LayerConfig(2, 1, tau, 1, reinit_window=3)
        rows = Layer(config, geometry).block_surfaces(t, x, y, p)
        memory = TimestampMemory(geometry)
        for row, event in zip(rows, events):
            memory.record(*event)
            assert row.tobytes() == extract(memory, *event, config.surface_config).values.tobytes()
        stream = EventStream(t, x, y, p, geometry)
        net = Network((config,), geometry, merge_polarity=True)
        outputs = train_recording(net, [stream], 1, "joint")
        reference, expected = learn_bruteforce((config,), True, geometry, [stream])
        assert_same_state(net.layers, reference)
        assert outputs == expected

    @pytest.mark.parametrize("learning", [True, False], ids=["learning", "frozen"])
    @pytest.mark.parametrize("case", GATE_EDGE_CLIPS)
    def test_gate_edge(self, case, learning):
        # the last event of each clip sums to 2R exactly, or one ulp from
        # it, or to either side of it by the order of summation alone;
        # with a full bank, every valid surface is emitted
        tau, events, last_valid = GATE_EDGE_CLIPS[case]
        layer = Layer(LayerConfig(2, 1, tau, 1), SensorGeometry(5, 5, 1))
        layer.install(np.eye(2, 9, 3), [1, 1])
        layer.learning = learning
        t, x, y = (np.array(v) for v in zip(*events))
        keep, _ = layer.encode(t, x, y, np.zeros(len(t), dtype=np.int64))
        memory = TimestampMemory(layer.geometry)
        expected = []
        for event in events:
            memory.record(*event, 0)
            expected.append(is_valid(extract(memory, *event, 0, layer.config.surface_config), 1))
        assert keep.tolist() == expected
        assert expected[-1] is last_valid


# ---------------------------------------------------------------------------
# A learning layer takes a stream in the same compiled pass, one valid
# surface after the other. These tests hold that learner to the per-event
# reference, which takes each event through every layer before the next.

@st.composite
def learning_cases(draw):
    """One or two small streams, a learning 1- or 2-layer net and a
    training schedule. A stream may repeat its events after they have
    decayed away, which repeats surfaces exactly and so ties bank rows."""
    w, h = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    geometry = SensorGeometry(w, h, 2)
    streams = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(0, 60))
        gaps = draw(st.lists(st.sampled_from([0, 1, 3, 40, 700]), min_size=n, max_size=n))
        t = np.cumsum(gaps, dtype=np.int64)
        period = (int(t[-1]) if n else 0) + 100_000  # beyond every tau below
        copies = draw(st.integers(1, 3))
        xs, ys, ps = (np.tile(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)),
                              copies) for top in (w - 1, h - 1, 1))
        times = np.concatenate([t + k * period for k in range(copies)])
        streams.append(EventStream(times, xs, ys, ps, geometry))
    merge = draw(st.booleans())
    in_channels = 1 if merge else 2
    configs = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 8))
        configs.append(LayerConfig(
            n, draw(st.integers(1, 3)), draw(st.sampled_from([700.0, 3000.0, 20_000.0])),
            in_channels, draw(st.sampled_from([1, 2, 5, 20, DEFAULT_REINIT_WINDOW]))))
        in_channels = n
    net = Network(tuple(configs), geometry, merge_polarity=merge)
    return net, streams, draw(st.integers(1, 2)), draw(st.sampled_from(["joint", "sequential"]))


def events_of(stream):
    return list(zip(stream.t.tolist(), stream.x.tolist(), stream.y.tolist(),
                    stream.p.tolist()))


def assert_same_state(layers, reference):
    for layer, ref in zip(layers, reference, strict=True):
        assert layer.bank.tobytes() == ref.bank.tobytes()
        assert layer.n_filled == ref.n_filled
        assert layer.match_counts == ref.match_counts
        assert layer.last_match_tick == ref.last_match_tick
        assert layer.tick == ref.tick


def train_recording(net, streams, epochs, mode):
    """``train``, returning the end layer's output of every pass."""
    outputs = []
    forward = net.forward_stream

    def recording(stream, learn_upto=None):
        out = forward(stream, learn_upto)
        outputs.append(events_of(out))
        return out

    net.forward_stream = recording
    try:
        train(net, streams, epochs=epochs, mode=mode)
    except UndertrainedLayerError:
        pass  # the reference stops where train raises
    return outputs


class TestLearnBlocks:
    @settings(max_examples=100, deadline=None)
    @given(learning_cases())
    def test_train_equals_bruteforce(self, case):
        net, streams, epochs, mode = case
        outputs = train_recording(net, streams, epochs, mode)
        reference, expected = learn_bruteforce(
            [layer.config for layer in net.layers], net.merge_polarity, net.geometry,
            streams, epochs=epochs, mode=mode)
        assert_same_state(net.layers, reference)
        assert outputs == expected

    @settings(max_examples=80, deadline=None)
    @given(learning_cases(), st.lists(st.integers(1, 200), min_size=1, max_size=20))
    def test_any_block_boundaries(self, case, cuts):
        net, streams, epochs, _ = case
        layer = net.layers[0]
        outputs = []
        for _ in range(epochs):
            for stream in streams:
                s = layer_input(net, stream)
                layer.reset_memory()
                a, k, out = 0, 0, []
                while a < len(s):
                    b = a + cuts[k % len(cuts)]
                    keep, ids = layer.encode(s.t[a:b], s.x[a:b], s.y[a:b], s.p[a:b])
                    out += [(int(s.t[a + j]), int(s.x[a + j]), int(s.y[a + j]), int(i))
                            for j, i in zip(np.flatnonzero(keep), ids)]
                    a, k = b, k + 1
                outputs.append(out)
        reference, expected = learn_bruteforce((layer.config,), net.merge_polarity,
                                               net.geometry, streams, epochs=epochs)
        assert_same_state([layer], reference)
        assert outputs == expected

    @settings(max_examples=80, deadline=None)
    @given(learning_cases(), st.data())
    def test_state_written_between_calls(self, case, data):
        # bank rows and ticks written between two encode calls reach the
        # rule's norm and stalest-row caches
        net, streams, _, _ = case
        layer = net.layers[0]
        reference = _LayerReference(layer.config, net.geometry)
        s = layer_input(net, streams[0])
        cut = data.draw(st.integers(0, len(s)))
        layer.reset_memory()
        outputs, expected = [], []
        for a, b in ((0, cut), (cut, len(s))):
            if a == cut and layer.n_filled:
                order = data.draw(st.permutations(range(layer.n_filled)))
                row = data.draw(st.integers(0, layer.n_filled - 1))
                factor = data.draw(st.sampled_from([0.5, 1.0, 1.5]))
                row_tick = data.draw(st.integers(0, layer.tick))
                for state in (layer, reference):
                    state.bank[: len(order)] = state.bank[list(order)]
                    state.bank[row] *= factor
                    state.match_counts[:] = [state.match_counts[j] for j in order]
                    state.last_match_tick = [state.last_match_tick[j] for j in order]
                    state.last_match_tick[row] = row_tick
            keep, ids = layer.encode(s.t[a:b], s.x[a:b], s.y[a:b], s.p[a:b])
            outputs += [(int(s.t[a + j]), int(s.x[a + j]), int(s.y[a + j]), int(i))
                        for j, i in zip(np.flatnonzero(keep), ids)]
            for event in events_of(s)[a:b]:
                idx = reference.step(*event)
                if idx is not None:
                    expected.append(event[:3] + (idx,))
        assert_same_state([layer], [reference])
        assert outputs == expected

    def test_forward_event_learns(self):
        # every event a block of its own, through both layers in turn
        net = small_network(2)
        stream = simple_stream(n=1500, seed=20)
        out = per_event_output(net, stream, 1)
        reference, expected = learn_bruteforce(
            [layer.config for layer in net.layers], net.merge_polarity, GEOM, [stream])
        assert_same_state(net.layers, reference)
        assert out == expected[0]
        assert len(out) > 0 and all(layer.bank_full for layer in net.layers)

    def test_nearest_row_near_ties(self):
        # surfaces a rounding error from a bank row, so the screen alone
        # may misorder the two best rows
        rng = np.random.default_rng(21)
        for channels, n in ((3, 8), (22, 64), (1, 2)):
            layer = Layer(LayerConfig(n, 1, 1000.0, channels), GEOM)
            layer.bank = rng.random((n, layer.bank.shape[1]))
            layer.bank[n - 1] = layer.bank[0]
            layer.match_counts = [1] * n
            layer.last_match_tick = list(range(n))
            for j in rng.integers(0, n, 200):
                s = layer.bank[j] * (1 + rng.normal(0, 1e-15, layer.bank.shape[1]))
                expected = np.einsum("ij,ij->i", layer.bank - s, layer.bank - s).argmin()
                assert layer.process_surface(s) == expected

    @pytest.mark.parametrize("channels, radius", [(1, 1), (8, 2), (1, 16)],
                             ids=["D9", "D200", "D1089"])
    def test_summation_regimes(self, channels, radius):
        # D = 9: eight accumulators and a tail; 200: one split past 128;
        # 1089: splits four deep. Surfaces a rounding error from a few
        # base rows fill the bank with near-tie rows, and a short window
        # reseeds, in blocks of any length.
        rng = np.random.default_rng(radius)
        config = LayerConfig(6, radius, 1000.0, channels, reinit_window=9)
        layer, reference = Layer(config, GEOM), _LayerReference(config, GEOM)
        d = layer.bank.shape[1]
        base = rng.random((3, d)) * (rng.random((3, d)) < 0.7)
        surfaces = base[rng.integers(0, 3, 600)] * (1 + rng.normal(0, 1e-15, (600, d)))
        surfaces[::7] = rng.random((86, d))
        expected, reseeds = [], 0
        for flat in surfaces:
            full = reference.n_filled == config.n_prototypes
            idx = reference.process_surface(flat)
            expected.append(-1 if idx is None else idx)
            reseeds += full and reference.match_counts[idx] == 1
        ids, a = [], 0
        for size in (1, 5, 2, 60, 1, 300, 600):
            ids += layer._learn(surfaces[a : a + size]).tolist()
            a += size
        assert ids == expected
        assert_same_state([layer], [reference])
        assert reseeds > 10

    @pytest.mark.parametrize("channels, radius", [(1, 1), (8, 2), (1, 16)],
                             ids=["D9", "D200", "D1089"])
    def test_stream_at_summation_regimes(self, channels, radius):
        # a clip repeated after it has decayed away repeats surfaces
        # exactly, so bank rows tie; the short window reseeds
        geometry = SensorGeometry(40, 40, channels)
        rng = np.random.default_rng(channels + radius)
        n = 500
        t = np.cumsum(rng.integers(0, 30, n))
        x = np.clip(20 + np.cumsum(rng.integers(-1, 2, n)), 0, 39)
        y = np.clip(20 + np.cumsum(rng.integers(-1, 2, n)), 0, 39)
        p = rng.integers(0, channels, n)
        period = int(t[-1]) + 200_000
        stream = EventStream(np.concatenate([t, t + period]), np.tile(x, 2),
                             np.tile(y, 2), np.tile(p, 2), geometry)
        config = LayerConfig(5, radius, 20_000.0, channels, reinit_window=6)
        net = Network((config,), geometry, merge_polarity=False)
        outputs = train_recording(net, [stream], 1, "joint")
        reference, expected = learn_bruteforce((config,), False, geometry, [stream])
        assert_same_state(net.layers, reference)
        assert outputs == expected
        assert len(outputs[0]) > 100


# ---------------------------------------------------------------------------
# The one compiled pass takes raw events through DBS and every layer, each
# event in turn. These tests hold it to the stages run one after the other,
# each on the whole output of the one before it.

@st.composite
def chain_cases(draw):
    """Twin stage sets (``build()`` makes each): DBS on or off, then 1-3
    layers, each learning from scratch or frozen on seeded random rows;
    a wandering blob with uniform clutter on an 8-12 px array, cut into
    consecutive calls; and one bad event to plant in one call, if the
    stream reaches it: (call, index in the call, what is wrong with it)."""
    geometry = SensorGeometry(draw(st.integers(8, 12)), draw(st.integers(8, 12)), 2)
    w, h = geometry.width, geometry.height
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n = draw(st.integers(0, 400))
    clutter = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.8]))
    walk = [np.clip(size // 2 + np.cumsum(rng.integers(-1, 2, n)), 0, size - 1)
            for size in (w, h)]
    x, y = (np.where(clutter, rng.integers(0, size, n), v) for size, v in zip((w, h), walk))
    stream = EventStream(np.cumsum(rng.integers(0, 40, n)), x, y, rng.integers(0, 2, n),
                         geometry)
    dbs = draw(st.none() | st.builds(
        DbsConfig, st.integers(1, 3), st.integers(1, 3),
        st.sampled_from([50.0, 300.0, 3000.0]), st.sampled_from([0.5, 1.0, 2.0])))
    merge = draw(st.booleans())
    specs, in_channels = [], 1 if merge else 2
    for _ in range(draw(st.integers(1, 3))):
        specs.append((LayerConfig(draw(st.integers(1, 5)), draw(st.integers(1, 2)),
                                  draw(st.sampled_from([700.0, 3000.0, 20_000.0])),
                                  in_channels, draw(st.sampled_from([3, 40, 10_000]))),
                      draw(st.booleans())))
        in_channels = specs[-1][0].n_prototypes
    bank_seed = draw(st.integers(0, 2**16))

    def build():
        filt = None if dbs is None else DbsFilter(geometry, dbs)
        layers, bank_rng = [], np.random.default_rng(bank_seed)
        for config, learning in specs:
            layer = Layer(config, geometry)
            if not learning:
                n, d = layer.bank_shape
                layer.install(bank_rng.random((n, d)) * (bank_rng.random((n, d)) < 0.6),
                              bank_rng.integers(1, 50, n).tolist())
            layers.append(layer)
        return filt, layers

    cuts = draw(st.lists(st.integers(1, 120), min_size=1, max_size=8))
    kinds = ["x", "y", "t-back", "t-nan"] + ([] if merge else ["p"])
    bad = draw(st.tuples(st.integers(0, 3), st.just(0) | st.integers(0, 119),
                         st.sampled_from(kinds)))
    return build, stream, merge, cuts, bad


def stage_state(filt, layers) -> list:
    """Every stage's state, as bytes and lists: copies, since a call
    rewrites the layers' count and tick lists in place."""
    state = [] if filt is None else [filt.activity.tobytes(), filt.last_t.tolist()]
    for layer in layers:
        state += [layer.memory.tobytes(), layer.bank.tobytes(), list(layer.match_counts),
                  list(layer.last_match_tick), layer.tick, layer.since]
    return state


def stage_by_stage(filt, layers, stream, merge):
    """The reference of one call: ``filter_stream``, then each layer's
    ``encode`` on the events the stage before it kept. Returns the end
    mask over the input, the end ids and the DBS-kept count."""
    mask = np.ones(len(stream), dtype=bool)
    kept = len(stream)
    if filt is not None:
        stream, stats = filter_stream(filt, stream)
        mask, kept = stats.keep_mask.copy(), stats.kept
    t, x, y = stream.t, stream.x, stream.y
    p = np.zeros(len(t), dtype=np.int64) if merge else stream.p
    for layer in layers:
        keep, p = layer.encode(t, x, y, p)
        mask[np.flatnonzero(mask)[~keep]] = False
        t, x, y = t[keep], x[keep], y[keep]
    return mask, p, kept


def plant(t, x, y, p, at, kind, geometry, taken):
    """Copies of the call's event arrays, with event ``at`` made bad;
    ``taken`` is the time of the event before the call (-1 if none)."""
    t, x, y, p = (np.array(v, dtype=np.float64 if kind == "t-nan" else np.int64)
                  for v in (t, x, y, p))
    if kind == "x":
        x[at] = geometry.width
    elif kind == "y":
        y[at] = -1
    elif kind == "p":
        p[at] = 2
    elif kind == "t-nan":
        t[at] = np.nan
    else:  # behind the event before it: negative, if it is the stream's first
        t[at] = (t[at - 1] if at else taken) - 1
    return t, x, y, p


class TestOnePass:
    @settings(max_examples=100, deadline=None)
    @given(chain_cases())
    def test_equals_stage_by_stage(self, case):
        build, stream, merge, cuts, bad = case
        (filt, layers), (ref_filt, ref_layers) = build(), build()
        a = call = 0
        while a < len(stream):
            b = min(a + cuts[call % len(cuts)], len(stream))
            t, x, y, p = (v[a:b] for v in (stream.t, stream.x, stream.y, stream.p))
            if bad[0] == call and a + bad[1] < b:
                at, before = bad[1], stage_state(filt, layers)
                bad_t, bad_x, bad_y, bad_p = plant(t, x, y, p, at, bad[2], stream.geometry,
                                                   stream.t[a - 1] if a else -1)
                with pytest.raises(StreamError, match=rf"at index {at}$"):
                    _native.run(network._LIB, filt, layers, bad_t, bad_x, bad_y,
                                None if merge else bad_p)
                assert stage_state(filt, layers) == before
            keep, ids, kept = _native.run(network._LIB, filt, layers, t, x, y,
                                          None if merge else p)
            ref_keep, ref_ids, ref_kept = stage_by_stage(
                ref_filt, ref_layers, EventStream(t, x, y, p, stream.geometry), merge)
            assert keep.tolist() == ref_keep.tolist()
            assert ids.tolist() == ref_ids.tolist()
            assert kept == ref_kept
            assert stage_state(filt, layers) == stage_state(ref_filt, ref_layers)
            a, call = b, call + 1

    @settings(max_examples=40, deadline=None)
    @given(frozen_cases(), st.builds(DbsConfig, st.integers(1, 3), st.integers(1, 3),
                                     st.sampled_from([50.0, 300.0]),
                                     st.sampled_from([0.5, 2.0])))
    def test_forward_clip_equals_filter_then_forward(self, case, dbs):
        net, stream = case
        if dbs.grid_rows > stream.geometry.height or dbs.grid_cols > stream.geometry.width:
            dbs = DbsConfig(1, 1, dbs.tau_b_us, dbs.alpha)
        out, kept = net.forward_clip(stream, dbs)
        filtered, stats = filter_stream(DbsFilter(stream.geometry, dbs), stream)
        assert out == net.forward_stream(filtered)
        assert kept == stats.kept


    @settings(max_examples=60, deadline=None)
    @given(chain_cases(), st.one_of(st.just(1), st.integers(1, 12), st.just(99)),
           st.one_of(st.just(1), st.integers(1, 12), st.just(99)))
    def test_pooled_counts_equal_accumulate(self, case, rows, cols):
        # grids of 1x1, of any size up to the array's, which need not
        # divide it, and (99, clamped) of one cell per pixel row or column
        build, stream, merge, _, _ = case
        g = stream.geometry
        pooling = PoolingConfig(min(rows, g.height), min(cols, g.width))
        nets = []
        for _ in range(2):  # twins: learning layers learn from the one pass
            filt, layers = build()
            net = Network(tuple(layer.config for layer in layers), g, merge)
            net.layers = layers
            nets.append(net)
        dbs = None if filt is None else filt.config
        out, kept = nets[0].forward_clip(stream, dbs)
        counts, pooled_kept = nets[1].pooled_counts(stream, dbs, pooling)
        expected = accumulate(out, g, pooling, nets[0].out_channels).values
        assert counts.dtype == expected.dtype and counts.tobytes() == expected.tobytes()
        assert pooled_kept == kept
        assert stage_state(None, nets[0].layers) == stage_state(None, nets[1].layers)

    @settings(max_examples=60, deadline=None)
    @given(chain_cases(), st.builds(DbsConfig, st.integers(1, 3), st.integers(1, 3),
                                    st.sampled_from([50.0, 300.0]),
                                    st.sampled_from([0.5, 2.0])))
    def test_filter_stream_equals_select(self, case, dbs):
        # one filter, in the case's consecutive calls; each output owns its
        # arrays, so none holds on to a buffer of the input's length
        _, stream, _, cuts, _ = case
        filt = DbsFilter(stream.geometry, dbs)
        a = call = 0
        while a < len(stream):
            b = min(a + cuts[call % len(cuts)], len(stream))
            piece = EventStream(*(v[a:b] for v in (stream.t, stream.x, stream.y, stream.p)),
                                stream.geometry)
            out, stats = filter_stream(filt, piece)
            assert out == piece.select(stats.keep_mask)
            assert stats.kept == stats.keep_mask.sum() == len(out)
            assert all(v.flags.owndata for v in (out.t, out.x, out.y, out.p))
            a, call = b, call + 1


# ---------------------------------------------------------------------------
# The surface reader lists each entry younger than tau, then divides only
# those. These tests hold it to ``extract`` and the per-event oracle at the
# edges of that list: entries tau old and 1 us to either side of it, -inf
# entries, equal times, times past 2**53, and a field with every entry live.

@st.composite
def reader_cases(draw):
    """A layer of 1-8 channels and radius 1-3, learning, and a frozen twin
    of it on seeded random rows, and a clip on an array up to one pixel
    wider than the field. Gaps of 0-8 us against taus of 1-7 us put
    entries exactly tau old and 1 us either side of it; the clip may
    start with every pixel on every channel at one time, so that a field
    can have every entry live, and may start near 2**53 or at 2**62,
    where times round as doubles."""
    channels, radius = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    side = 2 * radius + 1
    geometry = SensorGeometry(draw(st.integers(1, side + 1)), draw(st.integers(1, side + 1)),
                              channels)
    config = LayerConfig(draw(st.integers(1, 4)), radius,
                         draw(st.sampled_from([1.0, 2.0, 2.5, 3.0, 7.0])), channels,
                         draw(st.sampled_from([1, 3, DEFAULT_REINIT_WINDOW])))
    now = draw(st.sampled_from([0, 2**53 - 8, 2**62]))
    events = []
    if draw(st.booleans()):
        events += [(now, x, y, p) for p in range(channels) for y in range(geometry.height)
                   for x in range(geometry.width)]
    for _ in range(draw(st.integers(0 if events else 1, 40))):
        now += draw(st.sampled_from([0, 0, 1, 2, 3, 4, 8, 100]))
        events.append((now, draw(st.integers(0, geometry.width - 1)),
                       draw(st.integers(0, geometry.height - 1)),
                       draw(st.integers(0, channels - 1))))
    return config, geometry, events, draw(st.integers(0, 2**16))


def reader_oracles(config, geometry, events, memory=None):
    """The layer's rows of ``block_surfaces`` and the rows of ``extract``
    after ``record``, on ``events`` from ``memory`` (fresh where None,
    else the last times of every channel and pixel)."""
    layer, reference = Layer(config, geometry), TimestampMemory(geometry)
    if memory is not None:
        R = config.radius
        layer.memory[:, R:R + geometry.height, R:R + geometry.width] = memory
        reference.last_t[:] = memory
    rows = layer.block_surfaces(*(np.array(v, dtype=np.int64) for v in zip(*events)))
    expected = []
    for event in events:
        reference.record(*event)
        expected.append(extract(reference, *event, config.surface_config).values.ravel())
    return rows, expected


def assert_encode_equals_reference(config, geometry, events, bank_seed, memory=None):
    """``encode`` of ``events`` through a learning layer and a frozen one
    on seeded random rows, each against the oracle's layer, from the
    same memory: the same mask, ids and state."""
    t, x, y, p = (np.array(v, dtype=np.int64) for v in zip(*events))
    rng = np.random.default_rng(bank_seed)
    n, d = config.n_prototypes, config.surface_config.size
    for learning in (True, False):
        layer, reference = Layer(config, geometry), _LayerReference(config, geometry)
        if not learning:
            bank, counts = rng.random((n, d)) * (rng.random((n, d)) < 0.6), [1] * n
            layer.install(bank, counts)
            reference.bank, reference.match_counts = bank.copy(), list(counts)
            reference.last_match_tick, reference.learning = [0] * n, False
        if memory is not None:
            R = config.radius
            layer.memory[:, R:R + geometry.height, R:R + geometry.width] = memory
            reference.memory.last_t[:] = memory
        keep, ids = layer.encode(t, x, y, p)
        expected = [reference.step(*event) for event in events]
        assert keep.tolist() == [i is not None for i in expected]
        assert ids.tolist() == [i for i in expected if i is not None]
        assert_same_state([layer], [reference])


class TestReader:
    @settings(max_examples=150, deadline=None)
    @given(reader_cases())
    def test_rows_and_encode_equal_the_oracles(self, case):
        config, geometry, events, bank_seed = case
        rows, expected = reader_oracles(config, geometry, events)
        assert [row.tobytes() for row in rows] == [row.tobytes() for row in expected]
        assert_encode_equals_reference(config, geometry, events, bank_seed)

    def test_every_entry_live_at_d_7688(self):
        # 8 channels of radius 15 on a 31x31 array, every pixel fired on
        # every channel within tau: the centre's field lists all 7,688
        # entries as candidates, the whole of the reader's scratch
        config = LayerConfig(3, 15, 1000.0, 8)
        geometry = SensorGeometry(31, 31, 8)
        now = 2**40
        rng = np.random.default_rng(41)
        memory = now - rng.integers(0, 1000, (8, 31, 31)).astype(np.float64)
        events = [(now, 15, 15, 0), (now, 15, 15, 5), (now + 1, 14, 16, 7),
                  (now + 1, 15, 15, 2), (now + 3, 16, 14, 0), (now + 999, 15, 15, 1)]
        rows, expected = reader_oracles(config, geometry, events, memory)
        assert rows.shape == (6, 7688) and (rows[0] > 0.0).all()
        assert [row.tobytes() for row in rows] == [row.tobytes() for row in expected]
        assert_encode_equals_reference(config, geometry, events, 42, memory)


# ---------------------------------------------------------------------------
# Events in the stream layout (int64 t, int32 x, y and p) go to the pass
# unchecked; the pass refuses what ``check_events`` refuses, and the caller
# then raises ``check_events``'s own message, with no state changed.

READER_GEOMETRY = SensorGeometry(8, 8, 2)
PRIOR = [(10, 4, 4, 0)]  # taken first, except on a fresh stage
REFUSALS = {
    "negative-first": ([(-5, 3, 3, 0)], "negative timestamp -5 at index 0"),
    "behind-taken": ([(5, 3, 3, 0)], "time regression: 5 < 10 at index 0"),
    "regression": ([(30, 3, 3, 0), (20, 4, 4, 1)], "time regression: 20 < 30 at index 1"),
    "pixel": ([(30, 3, 3, 0), (40, 8, 3, 0)],
              "pixel (8, 3) outside 8x8: x=8 out of bounds [0, 8) at index 1"),
    "channel": ([(30, 3, 3, 0), (40, 3, 3, 2)], "p=2 out of bounds [0, 2) at index 1"),
}


def refusal_stage(entry):
    """A fresh stage of ``entry``, the call of it on event arrays, and its
    state: a learning 8x8 two-channel layer, a 3x3 DBS filter, or a
    network of such a layer behind DBS."""
    config = LayerConfig(2, 1, 100.0, 2)
    if entry == "encode":
        stage = Layer(config, READER_GEOMETRY)
        return stage, stage.encode, lambda: stage_state(None, [stage])
    if entry == "forward_clip":
        stage = Network((config,), READER_GEOMETRY, merge_polarity=False)

        def call(t, x, y, p):
            stream = EventStream(t, x, y, p, READER_GEOMETRY, validate=False)
            return stage.forward_clip(stream, DbsConfig())
        # the clip's fresh memories are the call's; the bank and counts stay
        return stage, call, lambda: stage_state(None, stage.layers)[1:]
    stage = DbsFilter(READER_GEOMETRY)
    state = lambda: [stage.activity.tobytes(), stage.last_t.tolist(), stage.decay.tobytes()]
    if entry == "process_block":
        return stage, lambda t, x, y, p: stage.process_block(t, x, y), state
    return stage, lambda t, x, y, p: filter_stream(
        stage, EventStream(t, x, y, p, READER_GEOMETRY, validate=False)), state


class TestPassChecks:
    # the filter alone takes no channel, and a clip starts from fresh stages
    @pytest.mark.parametrize("entry, fault", [
        (entry, fault) for entry in ("encode", "process_block", "filter_stream", "forward_clip")
        for fault in REFUSALS
        if (entry, fault) not in {("process_block", "channel"), ("forward_clip", "behind-taken")}])
    def test_stream_layout_refused_as_checked(self, entry, fault):
        events, says = REFUSALS[fault]
        stage, call, state = refusal_stage(entry)
        if fault != "negative-first" and entry != "forward_clip":
            call(*(np.array(v, dtype=np.int64) for v in zip(*PRIOR)))
        before = state()
        fields = [np.array(v, dtype=np.int64) for v in zip(*events)]
        layout = [fields[0], *(v.astype(np.int32) for v in fields[1:])]
        messages = []
        for arrays in (layout, fields) if entry in ("encode", "process_block") else (layout,):
            with pytest.raises(StreamError) as raised:
                call(*arrays)
            messages.append(str(raised.value))
            assert state() == before
        assert messages[0].endswith(says)
        assert len(set(messages)) == 1


class TestRecords:
    def test_records_match_the_c_structs(self, tmp_path):
        # a ctypes record that drifts from its struct would hand the pass
        # one field for another; the compiler's own layout is the reference
        records = {"dbs": _native.Dbs, "layer": _native.Layer}
        lines = [f'#include "{_native.SOURCE}"', "#include <stddef.h>", "#include <stdio.h>",
                 "int main(void)", "{"]
        for name, record in records.items():
            lines.append(f'    printf("%zu\\n", sizeof(struct {name}));')
            lines += [f'    printf("%zu\\n", offsetof(struct {name}, {field}));'
                      for field, _ in record._fields_]
        (tmp_path / "layout.c").write_text("\n".join(lines + ["}", ""]))
        subprocess.run(["cc", "-o", str(tmp_path / "layout"), str(tmp_path / "layout.c"),
                        "-lm"], check=True, capture_output=True)
        printed = subprocess.run([str(tmp_path / "layout")], check=True, capture_output=True,
                                 text=True).stdout.split()
        expected = []
        for record in records.values():
            expected.append(ctypes.sizeof(record))
            expected += [getattr(record, field).offset for field, _ in record._fields_]
        assert [int(v) for v in printed] == expected


class TestCompiledRule:
    """The compiled learning rule: its one summation order, and its build."""

    def test_reduce_is_numpy_pairwise_order(self):
        # bit for bit, at every length through the 8-term and 128-term
        # boundaries and at lengths that recurse deeper, row-wise too
        rng = np.random.default_rng(23)
        for n in [*range(300), 480, 1000, 1089, 4097, 10_000, 20_000]:
            a = rng.random((2, n)) * 10.0 ** rng.integers(-8, 9, (2, n))
            b = rng.random(n)
            for mode, terms in ((0, a * b), (1, (a - b) * (a - b)), (2, a)):
                got = [network._LIB.evg_reduce(row.ctypes.data, b.ctypes.data, n, mode)
                       for row in a]
                assert got == [float(np.add.reduce(row)) for row in terms]
                assert got == np.add.reduce(terms, axis=1).tolist()

    def test_second_import_runs_no_compiler(self):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=src, PATH="")  # no compiler to find
        subprocess.run([sys.executable, "-c", "import evgesture"], env=env, check=True)

    def test_missing_compiler_named(self, tmp_path):
        with pytest.raises(ImportError, match="evgesture-no-such-cc .*-ffp-contract=off"):
            _native.load(tmp_path, compiler="evgesture-no-such-cc")
        assert list(tmp_path.iterdir()) == []

    def test_build_removes_stale_libraries(self, tmp_path):
        # a build of an older source goes; a build still being written stays
        (tmp_path / "_native-0000000000000000.so").write_bytes(b"stale")
        (tmp_path / "_native-0000000000000000.so.1.tmp").write_bytes(b"building")
        lib = _native.load.__wrapped__(tmp_path)
        built = os.path.basename(lib._name)
        assert built.startswith("_native-") and built != "_native-0000000000000000.so"
        assert {f.name for f in tmp_path.iterdir()} == {
            "_native-0000000000000000.so.1.tmp", built}

    def test_source_compiles_without_warnings(self):
        command = ["cc", "-fsyntax-only", "-Wall", "-Wextra", "-Werror", str(_native.SOURCE)]
        done = subprocess.run(command, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SMALL_WINDOWS = ("training.mode = sequential\nepochs = 2\n"
                 "layers.1.reinit_window = 150\nlayers.2.reinit_window = 300\n")
GOLDEN_MODELS = {
    "e04": ("e04", "", "c63b5fe5342ca2b08bdb0d39f75161c63ad56a5f32c87cfbe75bb1ebdadd3737"),
    "e10": ("e10", "", "e6d51549ab2df7a5ef33f44e7313940895d17d5d7e86d06a3922dc023cb096b0"),
    "e10-sequential-small-windows": (
        "e10", SMALL_WINDOWS,
        "bad8680b804fe1f6867a52c69b6568920c5a1108fbf54f1be210723e80949516"),
}


def model_digest(name, extra) -> str:
    """sha256 of the learned state trained from ``configs/<name>.cfg``
    plus ``extra`` on a small seeded swipe set: each layer's bank as <f8
    and match counts as <u8, then the k-NN signature matrix as <f8."""
    with open(os.path.join(CONFIG_DIR, f"{name}.cfg"), encoding="utf-8") as f:
        config = parse_config(f.read() + extra)
    clips = gen_gesture_set(SensorGeometry(32, 32, 2), 2, 7)
    trained = train_pipeline(config, clips)
    h = hashlib.sha256()
    for layer in trained.network.layers:
        h.update(layer.bank.astype("<f8").tobytes())
        h.update(np.asarray(layer.match_counts, dtype="<u8").tobytes())
    h.update(trained.model.signatures.astype("<f8").tobytes())
    return h.hexdigest()


class TestGoldenModels:
    """Pinned digests (``model_digest``) of models trained on a small
    seeded swipe set, so that no change to the learning path alters
    trained models silently. The last case trains sequentially, twice
    over, with windows small enough to reseed thousands of times."""

    @pytest.mark.parametrize("case", GOLDEN_MODELS)
    def test_trained_model(self, case):
        name, extra, digest = GOLDEN_MODELS[case]
        assert model_digest(name, extra) == digest

    @pytest.mark.parametrize("coretype", ["Prescott", "Haswell", "SkylakeX"])
    def test_same_under_blas_kernels(self, coretype):
        # learning sums in one order and uses no BLAS, and frozen matching
        # rechecks near ties in that order, so OpenBLAS's choice of kernel
        # moves no model
        code = ("import json, test_network as t\n"
                "print(json.dumps({c: t.model_digest(n, e) "
                "for c, (n, e, _) in t.GOLDEN_MODELS.items()}))")
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=os.pathsep.join(
            [here, os.path.join(here, "..", "src")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert json.loads(out.splitlines()[-1]) == {
            case: digest for case, (_, _, digest) in GOLDEN_MODELS.items()}

    @pytest.mark.parametrize("flags", [("-O0",), ("-O2", "-march=native")],
                             ids=["O0", "O2-march-native"])
    def test_same_under_optimisation_levels(self, flags, tmp_path):
        # the compiled loops built at another optimisation level, and for
        # this machine's widest vectors, train the same models and keep the
        # same DBS masks: no flag lets the compiler contract or reorder a sum
        if "-march=native" in flags and subprocess.run(
                ["cc", *flags, "-fsyntax-only", "-x", "c", os.devnull]).returncode:
            pytest.skip("cc rejects -march=native")
        code = ("import json, test_dbs as d, test_network as t\n"
                "from evgesture import _native, dbs, network\n"
                f"_native.FLAGS = {(*flags, '-ffp-contract=off', '-fPIC', '-shared')!r}\n"
                f"network._LIB = dbs._LIB = _native.load.__wrapped__({str(tmp_path)!r})\n"
                "print(json.dumps([network._LIB._name, {c: t.model_digest(n, e) "
                "for c, (n, e, _) in t.GOLDEN_MODELS.items()}, "
                "[d.composite_mask(s) for s, *_ in d.GOLDEN_COMPOSITE_MASKS] + "
                "[d.cluttered_masks(s, c) for s, c, *_ in d.GOLDEN_CLUTTERED_MASKS]]))")
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([here, os.path.join(here, "..", "src")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        library, digests, masks = json.loads(out.splitlines()[-1])
        assert os.path.dirname(library) == str(tmp_path)
        assert digests == {case: digest for case, (_, _, digest) in GOLDEN_MODELS.items()}
        assert masks == ([list(case[1:]) for case in test_dbs.GOLDEN_COMPOSITE_MASKS]
                         + [list(case[2:]) for case in test_dbs.GOLDEN_CLUTTERED_MASKS])


# ---------------------------------------------------------------------------
# The whole pipeline, from raw clips to test labels, against the per-event
# reference of every stage and every join between them.

@st.composite
def pipeline_cases(draw):
    """A small random config (1-3 layers, DBS on or off, merge on or off,
    a pooling grid, k, 1-2 epochs, joint or sequential training) with
    training and test swipes on an 8-16 px array, each clip cut to its
    first 100-500 events and, if drawn, merged with uniform clutter."""
    geometry = SensorGeometry(draw(st.integers(8, 16)), draw(st.integers(8, 16)), 2)
    specs = tuple(LayerSpec(draw(st.integers(1, 5)), draw(st.integers(1, 2)),
                            draw(st.sampled_from([5e3, 2e4, 8e4])),
                            draw(st.sampled_from([3, 40, DEFAULT_REINIT_WINDOW])))
                  for _ in range(draw(st.integers(1, 3))))
    dbs = draw(st.none() | st.builds(
        DbsConfig, st.integers(1, 4), st.integers(1, 4),
        st.sampled_from([50.0, 300.0, 3000.0]), st.sampled_from([0.5, 1.0, 2.0])))
    config = PipelineConfig(
        layers=specs, dbs=dbs, merge_polarity=draw(st.booleans()),
        pooling=PoolingConfig(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
        k=draw(st.integers(1, 4)), epochs=draw(st.integers(1, 2)),
        training_mode=draw(st.sampled_from(TRAINING_MODES)))
    classes = draw(st.sampled_from([("left", "right"), ("up", "down", "right")]))
    clutter = draw(st.sampled_from([0.0, 0.5, 1.0]))
    seed = draw(st.integers(0, 2**16))

    def clips(per_class, seed):
        out = []
        for i, clip in enumerate(gen_gesture_set(geometry, per_class, seed, classes)):
            stream = clip.stream
            if clutter:
                spec = CompositeSpec(geometry, int(stream.t[-1]) + 1, (0, 0, 0, 0), 0.0,
                                     clutter * SWIPE_RATE_HZ)
                bg = gen_composite(spec, seed + i).stream
                order = np.argsort(np.concatenate([stream.t, bg.t]), kind="stable")
                stream = EventStream(*(np.concatenate([a, b])[order] for a, b in (
                    (stream.t, bg.t), (stream.x, bg.x), (stream.y, bg.y), (stream.p, bg.p))),
                    geometry)
            head = np.arange(len(stream)) < draw(st.integers(100, 500))
            out.append(ClipRecord(clip.source, clip.label, clip.subject, stream.select(head)))
        return out

    return config, clips(draw(st.integers(1, 2)), seed), clips(1, seed + 1)


def decided(model, values) -> bool:
    """Whether k-NN on ``values`` has one answer under any rounding of
    the distances: no run of distances within 1e-9 of each other that
    reaches into the k nearest holds two labels."""
    dist = np.sqrt(np.add.reduce((model.signatures - values) ** 2, axis=1))
    order = np.argsort(dist, kind="stable")
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or dist[order[i]] - dist[order[i - 1]] > 1e-9:
            if start < model.k and len({model.labels[j] for j in order[start:i]}) > 1:
                return False
            start = i
    return True


class TestPipelineOracle:
    """``train_pipeline`` and labelling, from raw clips to labels, against
    ``oracles.pipeline_bruteforce``: bit-equal banks, match counts and
    signatures, and the same labels, also after a model-file round trip."""

    @settings(max_examples=60, deadline=None)
    @given(pipeline_cases())
    def test_equals_reference(self, case):
        config, train, test = case
        layers, model, signatures, labels = pipeline_bruteforce(config, train, test)
        try:
            trained = train_pipeline(config, train)
        except UndertrainedLayerError:
            assert model is None
            return
        assert model is not None
        for layer, ref in zip(trained.network.layers, layers, strict=True):
            assert layer.bank.tobytes() == ref.bank.tobytes()
            assert layer.match_counts == ref.match_counts
        assert trained.model.signatures.tobytes() == model.signatures.tobytes()
        assert (trained.model.labels, trained.model.k) == (model.labels, model.k)
        for pipeline in (trained, load_pipeline(save_pipeline(trained))):
            for clip, values, label in zip(test, signatures, labels, strict=True):
                filtered = suppress_background(config, clip.stream)[0]
                signature = stream_signature(config, pipeline.network, filtered)
                assert signature.values.tobytes() == values.tobytes()
                if decided(model, values):
                    assert knn_classify(pipeline.model, signature)[0] == label


def serial_loop(call, clips, network=None):
    """The loop that ``map_clips`` replaces: each clip in turn on one
    replica of the caller's network, which the loop only reads."""
    net = network and network.replica()
    return [call(net, clip) for clip in clips]


MAP_CONFIGS = {
    "dbs-2l": MODEL_CONFIG,
    "dbs-1l": "dbs.enabled = true\nlayers.1.n = 4\nlayers.1.r = 2\nlayers.1.tau_us = 20000\n"
              "pooling.grid = 3x3\n",
    "2l": MODEL_CONFIG.replace("dbs.enabled = true", "dbs.enabled = false"),
    "1l": "layers.1.n = 6\nlayers.1.r = 1\nlayers.1.tau_us = 50000\nknn.k = 1\n",
}
WORKERS = {"one": lambda n: 1, "two": lambda n: 2, "more-than-clips": lambda n: n + 3}


@pytest.fixture(scope="module")
def map_clips_set():
    """Training and test swipes of unequal lengths, and a clip of another
    array size, for the clip map."""
    geometry = SensorGeometry(32, 32, 2)
    clips = gen_gesture_set(geometry, 2, 29)
    other = gen_gesture_set(SensorGeometry(24, 32, 2), 1, 30)[0]
    return clips[::2], clips[1::2], other


def run_both(config, train, test):
    """The trained pipeline, the ``eval`` report without its wall clock,
    and every layer's state after each of the two calls."""
    trained = train_pipeline(config, train)
    trained_state = stage_state(None, trained.network.layers)
    pairs = evaluate_pipeline(trained, test).to_pairs()
    pairs.pop("wall_clock_s")
    return trained, trained_state, pairs, stage_state(None, trained.network.layers)


def shared_pipeline_reports(threads: int = 3, calls: int = 10) -> dict:
    """Label the test swipes of ``map_clips_set`` with ``calls``
    ``evaluate_pipeline`` calls on each of ``threads`` threads at once, all
    on one pipeline trained on its training swipes. Returns one call's
    report alone, each thread's reports (an exception's type and message
    where one ended it), and whether every layer's state after the
    threads equals its state before any call; reports lack the wall
    clock."""
    clips = gen_gesture_set(SensorGeometry(32, 32, 2), 2, 29)
    trained = train_pipeline(parse_config(MAP_CONFIGS["dbs-2l"]), clips[::2])
    before = stage_state(None, trained.network.layers)

    def report() -> dict:
        pairs = evaluate_pipeline(trained, clips[1::2]).to_pairs()
        pairs.pop("wall_clock_s")
        return pairs

    def label(got: list) -> None:
        try:
            for _ in range(calls):
                got.append(report())
        except Exception as e:
            got.append(f"{type(e).__name__}: {e}")

    single = report()
    reports = [[] for _ in range(threads)]
    workers = [threading.Thread(target=label, args=(got,)) for got in reports]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return {"single": single, "reports": reports,
            "state_kept": stage_state(None, trained.network.layers) == before}


class TestClipMap:
    """``map_clips``: training and labelling on every core give the
    outputs and the network state of the loop over the clips, whatever
    the number of threads."""

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("name", MAP_CONFIGS)
    def test_equals_serial_loop(self, map_clips_set, monkeypatch, name, workers):
        train, test, _ = map_clips_set
        config = parse_config(MAP_CONFIGS[name])
        monkeypatch.setattr(pl, "map_clips", serial_loop)
        ref, ref_trained, ref_pairs, ref_labelled = run_both(config, train, test)
        monkeypatch.setattr(pl, "map_clips", map_clips)
        monkeypatch.setattr(pl, "clip_workers", WORKERS[workers])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            got, got_trained, got_pairs, got_labelled = run_both(config, train, test)
        finally:
            sys.setswitchinterval(interval)
        assert got.model.signatures.tobytes() == ref.model.signatures.tobytes()
        assert got_trained == ref_trained
        assert got_pairs == ref_pairs
        assert got_labelled == ref_labelled
        assert got_labelled == got_trained

    @pytest.mark.parametrize("workers", WORKERS)
    def test_each_clip_once_in_order(self, monkeypatch, workers):
        monkeypatch.setattr(pl, "clip_workers", WORKERS[workers])
        seen = []
        assert map_clips(lambda net, clip: seen.append(clip) or clip * 2, list(range(40))) == \
            list(range(0, 80, 2))
        assert sorted(seen) == list(range(40))
        assert map_clips(lambda net, clip: clip, []) == []

    @pytest.mark.parametrize("workers", WORKERS)
    def test_first_failing_clip_raises(self, map_clips_set, monkeypatch, workers):
        train, test, other = map_clips_set
        trained = train_pipeline(parse_config(MAP_CONFIGS["dbs-2l"]), train)
        far = ClipRecord("far", "up", "s0", EventStream(
            np.array([0]), np.array([0]), np.array([0]), np.array([0]),
            SensorGeometry(40, 40, 2)))
        clips = [test[0], other, test[1], far, test[2]]  # index 1 of 5, then index 3
        monkeypatch.setattr(pl, "map_clips", serial_loop)
        with pytest.raises(StreamError) as expected:
            evaluate_pipeline(trained, clips)
        assert str(expected.value) == "stream is 24x32, the network takes 32x32"
        monkeypatch.setattr(pl, "map_clips", map_clips)
        monkeypatch.setattr(pl, "clip_workers", WORKERS[workers])
        threads = threading.active_count()
        for _ in range(5):
            with pytest.raises(StreamError) as got:
                evaluate_pipeline(trained, clips)
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)
        assert threading.active_count() == threads

    def test_cli_eval_exits_2(self, saved, map_clips_set, tmp_path, capsys):
        _, data, clips, _ = saved
        other = map_clips_set[2]
        (tmp_path / "model.bin").write_bytes(data)
        lines = []
        for i, clip in enumerate([clips[0], other, *clips[1:4]]):
            (tmp_path / f"{i}.evs").write_bytes(write_binary_events(clip.stream))
            lines.append(f"{i}.evs\t{clip.label}\ts0\n")
        (tmp_path / "manifest.tsv").write_text("".join(lines))
        assert cli.main(["eval", str(tmp_path / "manifest.tsv"),
                         str(tmp_path / "model.bin")]) == 2
        assert "stream is 24x32, the network takes 32x32" in capsys.readouterr().err

    def test_no_thread_left(self, map_clips_set, monkeypatch):
        train, test, _ = map_clips_set
        monkeypatch.setattr(pl, "clip_workers", WORKERS["more-than-clips"])
        threads = threading.active_count()
        trained = train_pipeline(parse_config(MAP_CONFIGS["dbs-2l"]), train)
        evaluate_pipeline(trained, test)
        assert threading.active_count() == threads

    def test_threads_share_one_pipeline(self):
        # in a child process, so that a crash fails this test, not the run
        code = ("import json, test_network as t\n"
                "print(json.dumps(t.shared_pipeline_reports()))")
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([here, os.path.join(here, "..", "src")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=600)
        assert done.returncode == 0, done.stderr[-2000:]
        got = json.loads(done.stdout.splitlines()[-1])
        assert got["reports"] == [[got["single"]] * 10] * 3
        assert got["state_kept"]

    @pytest.mark.parametrize("name, pools", [("2l", 1), ("dbs-2l", 2)])
    def test_pools_per_training(self, map_clips_set, monkeypatch, name, pools):
        # without DBS, training filters nothing, so it maps only the signatures
        made = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pl, "ThreadPoolExecutor", Counted)
        train_pipeline(parse_config(MAP_CONFIGS[name]), map_clips_set[0])
        assert len(made) == pools

    def test_learning_network_refused(self, map_clips_set):
        train = map_clips_set[0]
        fresh = build_network(parse_config(MAP_CONFIGS["1l"]), train[0].stream.geometry)
        with pytest.raises(ValueError, match="learning network"):
            map_clips(lambda net, clip: None, train, fresh)

    def test_replica_shares_banks_only(self, saved):
        network = saved[0].network
        twin = network.replica()
        for layer, copy in zip(network.layers, twin.layers, strict=True):
            assert copy.bank is layer.bank and copy.config is layer.config
            assert copy.memory is not layer.memory and copy.tick == 0
            assert copy.match_counts == layer.match_counts
            assert copy.match_counts is not layer.match_counts
            assert copy.last_match_tick is not layer.last_match_tick

    def test_worker_count(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        assert [clip_workers(n) for n in (0, 1, cpus, cpus + 5)] == [1, 1, cpus, cpus]
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert [clip_workers(n) for n in (2, 9)] == [2, 3]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert clip_workers(9) == 1

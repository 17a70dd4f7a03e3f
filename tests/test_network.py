import hashlib
import os
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evgesture import cli
from evgesture.config import parse_config
from evgesture.events import EventStream, SensorGeometry, StreamError, write_binary_events
from evgesture.network import (
    DEFAULT_REINIT_WINDOW, Layer, LayerConfig, Network, NetworkConfig,
    UndertrainedLayerError, learn_update, nearest_rows, train,
)
from evgesture.oracles import learn_bruteforce, surfaces_bruteforce
from evgesture.pipeline import (
    TrainedPipeline, build_network, evaluate_pipeline, load_pipeline,
    save_pipeline, train_pipeline,
)
from evgesture.surfaces import TimestampMemory, extract
from evgesture.synth import gen_gesture_set

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
    return Network(NetworkConfig(tuple(layers), merge_polarity=True), GEOM)


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
        net = Network(NetworkConfig(layers, merge_polarity=False), GEOM)
        s = simple_stream(seed=21)
        net.forward_stream(EventStream(s.t, s.x, s.y, s.p, SensorGeometry(32, 32, 1)))
        with pytest.raises(StreamError, match="3 channels"):
            net.forward_stream(EventStream(s.t, s.x, s.y, s.p, SensorGeometry(32, 32, 3)))


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
# Frozen layers encode streams in blocks; these tests hold the block path to
# the per-event path and to the brute-force surface oracle.

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
    net = Network(NetworkConfig(tuple(configs), merge_polarity=merge), geometry)
    for layer in net.layers:
        n, d = layer.bank.shape
        layer.bank = rng.random((n, d)) * (rng.random((n, d)) < 0.6)
        if duplicate_rows and n > 1:
            layer.bank[n - 1] = layer.bank[0]
        layer.n_filled = n
        layer.match_counts = [1] * n
        layer.last_match_tick = [0] * n
        layer.freeze()
    return net


def per_event_output(net, stream, upto):
    """The cascade run one event at a time through ``forward_event``."""
    net.reset_memories()
    out = []
    for t, x, y, p in zip(stream.t.tolist(), stream.x.tolist(),
                          stream.y.tolist(), stream.p.tolist()):
        ev = (t, x, y, 0 if net.config.merge_polarity else p)
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


def layer_input(net, stream):
    if net.config.merge_polarity:
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


# ---------------------------------------------------------------------------
# Learning layers take streams in blocks too; only the learning rule runs
# one valid surface after the other. These tests hold the block learner to
# the per-event reference, which takes each event through every layer
# before the next.

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
            in_channels, draw(st.sampled_from([2, 5, 20, DEFAULT_REINIT_WINDOW]))))
        in_channels = n
    net = Network(NetworkConfig(tuple(configs), merge_polarity=merge), geometry)
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
        reference, expected = learn_bruteforce(net.config, net.geometry, streams,
                                               epochs=epochs, mode=mode)
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
        one_layer = NetworkConfig((layer.config,), net.config.merge_polarity)
        reference, expected = learn_bruteforce(one_layer, net.geometry, streams, epochs=epochs)
        assert_same_state([layer], reference)
        assert outputs == expected

    def test_forward_event_learns(self):
        # every event a block of its own, through both layers in turn
        net = small_network(2)
        stream = simple_stream(n=1500, seed=20)
        out = per_event_output(net, stream, 1)
        reference, expected = learn_bruteforce(net.config, GEOM, [stream])
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
            layer.n_filled = n
            layer.match_counts = [1] * n
            layer.last_match_tick = list(range(n))
            for j in rng.integers(0, n, 200):
                s = layer.bank[j] * (1 + rng.normal(0, 1e-15, layer.bank.shape[1]))
                expected = np.einsum("ij,ij->i", layer.bank - s, layer.bank - s).argmin()
                assert layer.process_surface(s) == expected


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SMALL_WINDOWS = ("training.mode = sequential\nepochs = 2\n"
                 "layers.1.reinit_window = 150\nlayers.2.reinit_window = 300\n")


class TestGoldenModels:
    """Pinned sha256 of the learned state (each layer's bank as <f8 and
    match counts as <u8, then the k-NN signature matrix as <f8) trained on
    a small seeded swipe set, so that no change to the learning path
    alters trained models silently. The last case trains sequentially,
    twice over, with windows small enough to reseed thousands of times."""

    @pytest.mark.parametrize("name, extra, digest", [
        ("e04", "", "087c37954c93ea1dabe1ad65daecb675058157c29da18448cba9c8209f5153bc"),
        ("e10", "", "844528ef86728546bd95b81928864fba7bdccfba10943b49ddadc6d5b7360b7a"),
        ("e10", SMALL_WINDOWS,
         "47177e121e7995660af43e2bb69b174a06b858927f9dedfcd81296cd94d643ff"),
    ], ids=["e04", "e10", "e10-sequential-small-windows"])
    def test_trained_model(self, name, extra, digest):
        with open(os.path.join(CONFIG_DIR, f"{name}.cfg"), encoding="utf-8") as f:
            config = parse_config(f.read() + extra)
        clips = gen_gesture_set(SensorGeometry(32, 32, 2), 2, 7)
        trained = train_pipeline(config, clips)
        h = hashlib.sha256()
        for layer in trained.network.layers:
            h.update(layer.bank.astype("<f8").tobytes())
            h.update(np.asarray(layer.match_counts, dtype="<u8").tobytes())
        h.update(trained.model.signatures.astype("<f8").tobytes())
        assert h.hexdigest() == digest

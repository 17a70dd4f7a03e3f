import numpy as np
import pytest

from evgesture.classify import (
    PoolingConfig, Signature, TrainedModel, accumulate,
    evaluate, knn_classify, normalize, split_by_class,
)
from evgesture.config import parse_config
from evgesture.events import EventStream, SensorGeometry, StreamError
from evgesture.oracles import knn_bruteforce
from evgesture.pipeline import (
    TrainedPipeline, build_network, load_pipeline, save_pipeline,
)

GEOM = SensorGeometry(30, 30, 2)


def stream_of(events, geometry=GEOM):
    return EventStream.from_events(events, geometry)


class TestAccumulate:
    def test_pooled_length(self):
        g = SensorGeometry(128, 128, 64)
        s = EventStream.empty(g)
        sig = accumulate(s, g, PoolingConfig(3, 3), 64)
        assert len(sig.values) == 576  # 3 * 3 * 64

    def test_empty_stream_zero(self):
        sig = accumulate(EventStream.empty(GEOM), GEOM, PoolingConfig(), 8)
        assert not sig.values.any()

    def test_single_event_bin(self):
        g = SensorGeometry(30, 30, 8)
        s = stream_of([(0, 1, 1, 2)], g)  # cell (0,0) of any grid
        sig = accumulate(s, g, PoolingConfig(3, 3), 8)
        assert sig.values[2] == 1
        assert sig.values.sum() == 1

    def test_channel_out_of_range(self):
        g = SensorGeometry(30, 30, 8)
        s = stream_of([(0, 0, 0, 7)], g)
        with pytest.raises(ValueError, match="out of range"):
            accumulate(s, g, PoolingConfig(), 4)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        n = 500
        t = np.cumsum(rng.integers(0, 10, n))
        x, y = rng.integers(0, 30, n), rng.integers(0, 30, n)
        p = rng.integers(0, 2, n)
        s1 = EventStream(t, x, y, p, GEOM)
        perm = rng.permutation(n)
        s2 = EventStream(np.sort(t[perm]), x[perm], y[perm], p[perm], GEOM,
                         validate=False)
        # counting ignores time entirely, so any reordering of (x, y, p)
        # multiset gives the same histogram
        a = accumulate(s1, GEOM, PoolingConfig(3, 3), 2)
        s3 = EventStream(t, x[perm], y[perm], p[perm], GEOM, validate=False)
        b = accumulate(s3, GEOM, PoolingConfig(3, 3), 2)
        assert np.array_equal(a.values, b.values)

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(1)
        def rand_stream(n, t0):
            t = t0 + np.cumsum(rng.integers(0, 10, n))
            return EventStream(t, rng.integers(0, 30, n), rng.integers(0, 30, n),
                               rng.integers(0, 2, n), GEOM)
        s1, s2 = rand_stream(200, 0), rand_stream(300, 10_000)
        cat = EventStream(np.concatenate([s1.t, s2.t]), np.concatenate([s1.x, s2.x]),
                          np.concatenate([s1.y, s2.y]), np.concatenate([s1.p, s2.p]),
                          GEOM)
        pool = PoolingConfig(3, 3)
        assert np.array_equal(
            accumulate(cat, GEOM, pool, 2).values,
            accumulate(s1, GEOM, pool, 2).values + accumulate(s2, GEOM, pool, 2).values,
        )


class TestNormalize:
    def test_basic(self):
        sig = normalize(Signature(np.array([2.0, 2.0])))
        assert np.array_equal(sig.values, [0.5, 0.5])

    def test_all_zero_passthrough(self):
        sig = normalize(Signature(np.zeros(4)))
        assert not sig.values.any()

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        sig = normalize(Signature(rng.integers(0, 50, 30).astype(float)))
        assert sig.values.sum() == pytest.approx(1.0, abs=1e-9)


def model_of(sigs, labels, k):
    return TrainedModel(signatures=np.asarray(sigs, dtype=float),
                        labels=labels, k=k)


class TestKnn:
    def test_exact_match_k1(self):
        m = model_of(np.eye(3), ["a", "b", "c"], 1)
        label, _ = knn_classify(m, Signature(np.array([0.0, 1.0, 0.0])))
        assert label == "b"

    def test_majority(self):
        m = model_of([[0.0], [0.1], [1.0]], ["A", "A", "B"], 3)
        label, _ = knn_classify(m, Signature(np.array([0.0])))
        assert label == "A"

    def test_vote_tie_breaks_by_nearest(self):
        m = model_of([[0.0], [0.2], [0.3], [0.5]], ["B", "A", "A", "B"], 4)
        label, _ = knn_classify(m, Signature(np.array([0.01])))
        assert label == "B"  # 2-2 tie, nearest neighbor is B

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        sigs = rng.random((20, 6))
        labels = [f"c{i % 4}" for i in range(20)]
        q = rng.random(6)
        m1 = model_of(sigs, labels, 5)
        m2 = model_of(sigs * 3.5, labels, 5)
        l1, _ = knn_classify(m1, Signature(q))
        l2, _ = knn_classify(m2, Signature(q * 3.5))
        assert l1 == l2

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(4)
        sigs = rng.random((60, 8))
        labels = [f"c{i}" for i in rng.integers(0, 5, 60)]
        m = model_of(sigs, labels, 7)
        for _ in range(1000):
            q = Signature(rng.random(8))
            assert knn_classify(m, q)[0] == knn_bruteforce(m, q)

    def test_empty_model(self):
        with pytest.raises(ValueError):
            model_of(np.empty((0, 2)), [], 1)


class TestEvaluate:
    def test_self_classification(self):
        sig = Signature(np.array([0.2, 0.8]))
        m = model_of([sig.values], ["left"], 1)
        result = evaluate(m, [sig], ["left"])
        assert result.accuracy == 1.0

    def test_confusion_row_sums(self):
        rng = np.random.default_rng(5)
        sigs = [Signature(rng.random(4)) for _ in range(30)]
        labels = [f"c{i % 3}" for i in range(30)]
        m = model_of([s.values for s in sigs[:15]], labels[:15], 3)
        result = evaluate(m, sigs[15:], labels[15:])
        for i, label in enumerate(result.labels):
            assert result.confusion[i].sum() == labels[15:].count(label)


class TestCrossValidate:
    """Repeated random splits: ``split_by_class``, then ``evaluate``."""

    def _data(self, per_class=24, classes=4, dim=6, seed=6):
        rng = np.random.default_rng(seed)
        sigs, labels = [], []
        for c in range(classes):
            center = rng.random(dim)
            for _ in range(per_class):
                sigs.append(Signature(center + rng.normal(0, 0.01, dim)))
                labels.append(f"c{c}")
        return sigs, labels

    def test_faces_protocol_split(self):
        # 5 training clips per class, the rest tested, over 10 shuffles
        sigs, labels = self._data()
        rng = np.random.default_rng(0)
        for _ in range(10):
            train, test = split_by_class(labels, 5, rng)
            assert sorted(labels[i] for i in train) == sorted([*set(labels)] * 5)
            m = model_of([sigs[i].values for i in train], [labels[i] for i in train], 1)
            result = evaluate(m, [sigs[i] for i in test], [labels[i] for i in test])
            assert result.accuracy > 0.95  # trivially separable clusters

    def test_same_seed_same_result(self):
        _, labels = self._data()
        a = split_by_class(labels, 5, np.random.default_rng(7))
        b = split_by_class(labels, 5, np.random.default_rng(7))
        assert a == b

    def test_split_disjoint_and_covering(self):
        _, labels = self._data()
        rng = np.random.default_rng(8)
        train, test = split_by_class(labels, 5, rng)
        assert set(train).isdisjoint(test)
        assert sorted(train + test) == list(range(len(labels)))

    def test_insufficient_clips(self):
        with pytest.raises(ValueError, match="only"):
            split_by_class(["a"] * 3, 5, np.random.default_rng(9))


def pipeline_of(model, config_text="layers.1.n = 7\nlayers.1.r = 1\nlayers.1.tau_us = 10000\n"
                                  "pooling.grid = 1x1\n"):
    """``model`` behind a one-layer frozen network whose signature width
    (1 pooling cell x 7 prototypes) is the width of ``model``'s rows, so
    that it can be written to a model file."""
    config = parse_config(config_text)
    network = build_network(config, GEOM)
    layer = network.layers[0]
    layer.bank = np.random.default_rng(11).random(layer.bank.shape)
    layer.n_filled = layer.config.n_prototypes
    layer.match_counts = [1] * layer.n_filled
    layer.freeze()
    return TrainedPipeline(config=config, network=network, model=model)


class TestSerialization:
    """The k-NN model (labels, k, signatures) through the model file."""

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        m = model_of(rng.random((5, 7)), ["up", "down", "left", "right", "up"], 3)
        data = save_pipeline(pipeline_of(m))
        m2 = load_pipeline(data).model
        assert m2.k == 3
        assert m2.labels == m.labels
        assert np.array_equal(m2.signatures, m.signatures)
        assert save_pipeline(pipeline_of(m2)) == data

    def test_bad_magic(self):
        with pytest.raises(StreamError, match="magic"):
            load_pipeline(b"ZZZZ" + b"\x00" * 12)

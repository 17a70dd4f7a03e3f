import hashlib
import math

import numpy as np
import pytest

from evgesture.events import EventStream, SensorGeometry
from evgesture.synth import (
    BlobSpec, CompositeSpec, MovingBarSpec, gen_composite, gen_gesture_clip,
    _blob_draws, _poisson_times_bulk, gen_gesture_set, gen_moving_bar, gen_translating_blob,
)

GEOM = SensorGeometry(64, 64, 2)


def assert_valid(stream):
    """Rebuild ``stream`` with validation, which raises StreamError on
    any fault of order or bounds (swipes are built unvalidated)."""
    EventStream(stream.t, stream.x, stream.y, stream.p, stream.geometry, validate=True)


class TestMovingBar:
    def spec(self, **kw):
        base = dict(geometry=GEOM, velocity_px_s=200.0, bar_top=20,
                    bar_height=10, start_x=5, jitter_us=100)
        base.update(kw)
        return MovingBarSpec(**base)

    def test_crossing_interval(self):
        # jitter off: one row's ON events are exactly 1e6/v apart
        clip = gen_moving_bar(self.spec(jitter_us=0), seed=0)
        s = clip.stream
        row = (s.y == 22) & (s.p == 1)
        t = np.sort(s.t[row])
        assert np.all(np.diff(t) == 1_000_000 / 200.0)

    def test_zero_velocity_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            gen_moving_bar(self.spec(velocity_px_s=0.0), seed=0)

    def test_seeded_determinism(self):
        a = gen_moving_bar(self.spec(), seed=3)
        b = gen_moving_bar(self.spec(), seed=3)
        assert a.stream == b.stream

    def test_polarities_on_both_edges(self):
        clip = gen_moving_bar(self.spec(), seed=4)
        assert set(np.unique(clip.stream.p)) == {0, 1}

    def test_stream_is_valid(self):
        assert_valid(gen_moving_bar(self.spec(), seed=5).stream)


class TestGestureSet:
    def test_counts(self):
        clips = gen_gesture_set(GEOM, 5, seed=0)
        assert len(clips) == 20
        for label in ("up", "down", "left", "right"):
            assert sum(c.label == label for c in clips) == 5

    def test_left_right_mirror(self):
        a = gen_gesture_clip(GEOM, "right", seed=11)
        b = gen_gesture_clip(GEOM, "left", seed=11)
        assert np.array_equal(a.stream.t, b.stream.t)
        assert np.array_equal(GEOM.width - 1 - a.stream.x, b.stream.x)
        assert np.array_equal(a.stream.y, b.stream.y)

    def test_seeded_determinism(self):
        a = gen_gesture_set(GEOM, 3, seed=2)
        b = gen_gesture_set(GEOM, 3, seed=2)
        assert all(x.stream == y.stream for x, y in zip(a, b))

    def test_streams_validate(self):
        for clip in gen_gesture_set(GEOM, 2, seed=3):
            assert_valid(clip.stream)
            assert len(clip.stream) > 0


class TestBlob:
    def test_zero_rate_empty(self):
        spec = BlobSpec(GEOM, 100_000, 10.0, 10.0, 50.0, 0.0, 5.0, 0.0)
        assert len(gen_translating_blob(spec, seed=0).stream) == 0

    def test_tags_align(self):
        spec = BlobSpec(GEOM, 100_000, 10.0, 32.0, 100.0, 0.0, 5.0, 5000.0)
        clip = gen_translating_blob(spec, seed=1, tag="fg")
        assert len(clip.tags) == len(clip.stream)
        assert set(clip.tags) == {"fg"}


class TestComposite:
    SPEC = CompositeSpec(SensorGeometry(30, 30, 2), 100_000,
                         (0, 0, 10, 10), 50_000.0, 20_000.0)

    def test_zero_background(self):
        spec = CompositeSpec(SensorGeometry(30, 30, 2), 100_000,
                             (0, 0, 10, 10), 50_000.0, 0.0)
        clip = gen_composite(spec, seed=0)
        assert set(clip.tags) == {"foreground"}

    def test_tag_partition(self):
        clip = gen_composite(self.SPEC, seed=1)
        tags = np.array(clip.tags)
        assert len(tags) == len(clip.stream)
        assert ((tags == "foreground") | (tags == "background")).all()

    def test_determinism(self):
        a = gen_composite(self.SPEC, seed=2)
        b = gen_composite(self.SPEC, seed=2)
        assert a.stream == b.stream and a.tags == b.tags

    def test_validates(self):
        assert_valid(gen_composite(self.SPEC, seed=3).stream)

    def test_regions(self):
        clip = gen_composite(self.SPEC, seed=4)
        s = clip.stream
        inside = (s.x < 10) & (s.y < 10)
        fg = np.array(clip.tags) == "foreground"
        assert fg.any() and (~fg).any()
        assert np.array_equal(inside, fg)

    def test_times_in_range(self):
        t = gen_composite(self.SPEC, seed=5).stream.t
        assert (np.diff(t) >= 0).all()
        assert t[0] >= 0 and t[-1] < self.SPEC.duration_us

    def test_zero_foreground(self):
        spec = CompositeSpec(SensorGeometry(30, 30, 2), 100_000,
                             (0, 0, 10, 10), 0.0, 20_000.0)
        clip = gen_composite(spec, seed=6)
        assert set(clip.tags) == {"background"}

    def test_full_region_with_background_rejected(self):
        # no pixel is left outside fg_region for the background to use
        spec = CompositeSpec(SensorGeometry(30, 30, 2), 100_000,
                             (0, 0, 30, 30), 50_000.0, 20_000.0)
        with pytest.raises(ValueError, match="whole array"):
            gen_composite(spec, seed=7)
        quiet = CompositeSpec(SensorGeometry(30, 30, 2), 100_000,
                              (0, 0, 30, 30), 50_000.0, 0.0)
        assert set(gen_composite(quiet, seed=7).tags) == {"foreground"}

    @pytest.mark.parametrize("region", [(25, 25, 40, 40), (-1, 0, 10, 10),
                                        (0, 0, 31, 5), (0, 20, 5, 31)])
    def test_region_outside_array_rejected(self, region):
        spec = CompositeSpec(SensorGeometry(30, 30, 2), 100_000, region,
                             50_000.0, 20_000.0)
        with pytest.raises(ValueError, match=r"fg_region .* outside the 30x30"):
            gen_composite(spec, seed=8)

    @pytest.mark.parametrize("region", [(5, 5, 5, 10), (5, 9, 10, 3)])
    def test_empty_region_with_foreground_rejected(self, region):
        spec = CompositeSpec(SensorGeometry(30, 30, 2), 100_000, region,
                             50_000.0, 20_000.0)
        with pytest.raises(ValueError, match=r"fg_region .* is empty"):
            gen_composite(spec, seed=9)
        quiet = CompositeSpec(SensorGeometry(30, 30, 2), 100_000, region,
                              0.0, 20_000.0)
        assert set(gen_composite(quiet, seed=9).tags) == {"background"}


def _digest(items) -> str:
    """sha256 over each stream's (t, x, y, p) as little-endian int64 and its
    text fields, one newline-joined block per stream."""
    h = hashlib.sha256()
    for stream, text in items:
        for a in (stream.t, stream.x, stream.y, stream.p):
            h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
        h.update("\n".join(text).encode())
    return h.hexdigest()


class FixedUniforms:
    """Stands in for ``np.random.Generator``: ``random(n)`` serves the next
    n entries of one fixed array, and the calls are counted."""

    def __init__(self, u):
        self.u, self.at, self.calls = u, 0, 0

    def random(self, n):
        out = self.u[self.at:self.at + n]
        assert len(out) == n, "drew past the fixed uniforms"
        self.at, self.calls = self.at + n, self.calls + 1
        return out


class TestDrawRefills:
    """The draws past the first block, which a real seed almost never
    needs: uniforms below 0.5 make gaps about a third of the mean, so
    the first block, 1.05 times the expected count plus 64, ends before
    the duration. Each result equals one long draw of the same uniforms."""

    RATE, DURATION = 5_000.0, 200_000  # 1,000 events expected; these uniforms give 3,304
    U = np.random.default_rng(5).random(20_000) * 0.5

    def test_poisson_times_refill(self):
        rng = FixedUniforms(self.U)
        times = _poisson_times_bulk(self.RATE, self.DURATION, rng)
        assert rng.calls >= 3
        ref = np.cumsum(-np.log(1.0 - self.U) * (1_000_000 / self.RATE))
        assert ref[-1] >= self.DURATION
        assert times.tolist() == ref[ref < self.DURATION].astype(np.int64).tolist()

    def test_blob_draws_doubling(self):
        rng = FixedUniforms(self.U)
        times, angles, radii = _blob_draws(self.RATE, self.DURATION, rng)
        assert rng.calls >= 3
        # the scalar order: gaps until one passes the duration, then one
        # (angle, radius) pair per event
        scale, t, k, ref = 1_000_000 / self.RATE, 0.0, 0, []
        while True:
            t += -math.log(1.0 - self.U[k]) * scale
            k += 1
            if t >= self.DURATION:
                break
            ref.append(t)
        n = len(ref)
        assert times.tolist() == np.array(ref).astype(np.int64).tolist()
        assert angles.tolist() == self.U[k:k + 2 * n:2].tolist()
        assert radii.tolist() == self.U[k + 1:k + 2 * n + 1:2].tolist()


class TestGoldenStreams:
    """Pinned digests of the generators' streams. Acceptance 6 and the
    benchmark inputs are built from these streams, so any change to them
    must be deliberate and show up here."""

    @pytest.mark.parametrize("size, per_class, seed, events, digest", [
        ((64, 64), 2, 0, 49381,
         "6c349436952115aaae03970556d3e3273441fba6c9767c492dea83f9383326af"),
        ((48, 48), 2, 1, 35911,
         "cedaed3f4692c75675ed9d47140bee0db110a0987346884a426e9c6fc8084683"),
        ((32, 20), 2, 2, 20846,
         "6210a2644036321747a23f5af53b455254bd4290011481097dcf4a37c9c9ff17"),
        ((1, 7), 3, 3, 0,
         "422dfbdbd3aaeea5a5e87ce73b28ca451eb0bde0ab0ff17e42003b04e66175ec"),
        ((9, 1), 3, 4, 168,
         "5e83809c8dd59e0ba96b131f873f22b634cac69cb351154bf5fda465e517e164"),
    ])
    def test_gesture_set(self, size, per_class, seed, events, digest):
        clips = gen_gesture_set(SensorGeometry(*size, 2), per_class, seed)
        assert sum(len(c.stream) for c in clips) == events
        assert _digest((c.stream, [c.source, c.label, c.subject])
                       for c in clips) == digest

    G = SensorGeometry(40, 30, 2)

    @pytest.mark.parametrize("spec, seed, events, digest", [
        (BlobSpec(G, 200_000, 5.0, 15.0, 150.0, 0.0, 4.0, 8000.0), 0, 1567,
         "8529aaecca0613795c0a00df680ff9de90bbbb7988a8576f46ac30d2e220e7bf"),
        (BlobSpec(G, 150_000, 35.0, 2.0, -90.0, 60.0, 6.5, 15000.0), 1, 1969,
         "545c2e1eeed223fda047e8533c2c411da579a74c2b2adf5d1c1ec79e4db8ec87"),
        (BlobSpec(G, 100_000, 20.0, 15.0, 0.0, 0.0, 3.0, 5000.0), 2, 504,
         "55ecd979e24e77aecba777cc82dcb2f8ae38ab2faf389acbaf0d44d2970d0d21"),
        (BlobSpec(G, 300_000, -5.0, 28.0, 40.0, -70.0, 9.0, 20000.0), 3, 3096,
         "8ff5b94cf5a140090d4e98d0d79d142d70bea6fe4d56809404f6c75fd754c17f"),
        (BlobSpec(SensorGeometry(1, 9, 2), 80_000, 0.0, 4.0, 0.0, 30.0, 2.0,
                  4000.0), 4, 43,
         "10b9a485c523d1c02c7d7a7f1fedd2cbe434ac888450294f66b82fee76228482"),
    ])
    def test_translating_blob(self, spec, seed, events, digest):
        clip = gen_translating_blob(spec, seed, tag="t", label="l")
        assert len(clip.stream) == events
        assert _digest([(clip.stream, clip.tags + [clip.label])]) == digest

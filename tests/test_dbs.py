import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evgesture.dbs import (
    DECAY_GAPS, DbsConfig, DbsFilter, RetentionStats, filter_stream, update_activity,
)
from evgesture.events import EventStream, SensorGeometry, StreamError, grid_cells, grid_tables
from evgesture.oracles import dbs_decisions_eager, dbs_decisions_history, dbs_scalar
from evgesture.synth import CompositeSpec, gen_composite, gen_gesture_set

DEFAULT_PARAMS = DbsConfig(grid_rows=3, grid_cols=3, tau_b_us=300.0, alpha=2.0)


class TestCellIndex:
    """``grid_cells``, the filter's tiling rule: row-major cell ids on a
    3x3 grid. Off-array pixels are rejected by the filter
    (``TestPixelBounds``)."""

    def test_origin(self):
        assert grid_cells(0, 0, SensorGeometry(304, 240, 2), 3, 3) == 0

    def test_far_corner(self):
        assert grid_cells(303, 239, SensorGeometry(304, 240, 2), 3, 3) == 8

    def test_center(self):
        assert grid_cells(4, 4, SensorGeometry(9, 9, 2), 3, 3) == 4

    def test_cells_tile_the_array(self):
        g = SensorGeometry(10, 7, 2)
        x, y = np.meshgrid(np.arange(g.width), np.arange(g.height))
        assert set(grid_cells(x.ravel(), y.ravel(), g, 3, 3).tolist()) == set(range(9))

    def test_tables_shared_and_read_only(self):
        # built once per geometry and grid: every filter reads the same
        # arrays, which no caller can write
        g = SensorGeometry(10, 7, 2)
        row_cell, col_cell = grid_tables(g, 3, 3)
        again = grid_tables(SensorGeometry(10, 7, 2), 3, 3)
        assert again[0] is row_cell and again[1] is col_cell
        assert DbsFilter(g, DbsConfig(3, 3)).row_cell is row_cell
        assert grid_tables(g, 3, 2)[1] is not col_cell
        x, y = np.meshgrid(np.arange(g.width), np.arange(g.height))
        assert np.array_equal(row_cell[y] + col_cell[x], grid_cells(x, y, g, 3, 3))
        for table in (row_cell, col_cell):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1


class TestUpdateActivity:
    def test_fresh_cell(self):
        # a fresh counter, 0.0 at time 0: any decay of 0.0, plus 1, is 1.0
        assert update_activity(0.0, 0, 12345, 300.0) == 1.0

    def test_closed_form_at_delta_tau(self):
        # one decay interval: e^-1 + 1
        assert update_activity(1.0, 0, 300, 300.0) == pytest.approx(
            math.exp(-1) + 1, abs=1e-12)

    def test_simultaneous_events(self):
        a = update_activity(0.0, 0, 50, 300.0)
        assert a == 1.0
        assert update_activity(a, 50, 50, 300.0) == 2.0

    def test_time_regression(self):
        with pytest.raises(ValueError, match="regression"):
            update_activity(1.0, 100, 50, 300.0)


class TestProcess:
    def test_first_event_kept(self):
        # A_c = 1, mean = 1/9, 1 >= 2/9
        f = DbsFilter(SensorGeometry(9, 9, 2), DEFAULT_PARAMS)
        assert f.process_block([0], [4], [4])[0]

    def test_concentrated_activity_kept(self):
        f = DbsFilter(SensorGeometry(9, 9, 2), DEFAULT_PARAMS)
        for i in range(20):
            assert f.process_block([i], [1], [1])[0]  # all activity in cell (0,0)

    def test_equal_activity_dropped(self):
        # all 9 cells at identical activity: A_c = mean < 2*mean
        f = DbsFilter(SensorGeometry(9, 9, 2), DEFAULT_PARAMS)
        centers = [(x, y) for y in (1, 4, 7) for x in (1, 4, 7)]
        for x, y in centers:
            f.process_block([0], [x], [y])
        decisions = [f.process_block([0], [x], [y])[0] for x, y in centers]
        assert decisions == [False] * 9


class TestFilterStream:
    def test_empty(self):
        s = EventStream.empty(SensorGeometry(9, 9, 2))
        kept, stats = filter_stream(DbsFilter(s.geometry, DEFAULT_PARAMS), s)
        assert len(kept) == 0
        assert stats.total == 0
        assert stats.retention == 0.0

    def test_deterministic(self):
        stream = _composite(seed=11)
        masks = []
        for _ in range(2):
            _, stats = filter_stream(DbsFilter(stream.geometry, DEFAULT_PARAMS), stream)
            masks.append(stats.keep_mask)
        assert np.array_equal(*masks)

    def test_output_is_subsequence(self):
        stream = _composite(seed=12)
        kept, stats = filter_stream(DbsFilter(stream.geometry, DEFAULT_PARAMS), stream)
        assert kept == stream.select(stats.keep_mask)

    def test_foreground_background_separation(self):
        ls = _labeled_composite(seed=13)
        _, stats = filter_stream(DbsFilter(ls.stream.geometry, DEFAULT_PARAMS), ls.stream)
        fg = np.array(ls.tags) == "foreground"
        assert stats.keep_mask[fg].mean() >= 0.90
        assert stats.keep_mask[~fg].mean() <= 0.10


def _labeled_composite(seed, n_target=20_000):
    spec = CompositeSpec(
        geometry=SensorGeometry(30, 30, 2), duration_us=200_000,
        fg_region=(0, 0, 10, 10), fg_rate_hz=80_000.0, bg_rate_hz=36_000.0,
    )
    return gen_composite(spec, seed)


def _head(stream, n):
    return stream.select(np.arange(len(stream)) < n)


def _slice(stream, a, b):
    return EventStream(stream.t[a:b], stream.x[a:b], stream.y[a:b], stream.p[a:b],
                       stream.geometry)


def _composite(seed):
    return _labeled_composite(seed).stream


class TestAgainstOracles:
    def test_incremental_matches_history_sum(self):
        # literal O(N^2) reference, small stream
        stream = _head(_composite(seed=20), 2000)
        _, stats = filter_stream(DbsFilter(stream.geometry, DEFAULT_PARAMS), stream)
        assert np.array_equal(stats.keep_mask,
                              dbs_decisions_history(stream, DEFAULT_PARAMS))

    def test_eager_oracle_matches_history_sum(self):
        stream = _head(_composite(seed=21), 2000)
        assert np.array_equal(dbs_decisions_eager(stream, DEFAULT_PARAMS),
                              dbs_decisions_history(stream, DEFAULT_PARAMS))

    def test_incremental_matches_eager_at_scale(self):
        stream = _composite(seed=22)
        _, stats = filter_stream(DbsFilter(stream.geometry, DEFAULT_PARAMS), stream)
        assert np.array_equal(stats.keep_mask,
                              dbs_decisions_eager(stream, DEFAULT_PARAMS))

    # The running-sum mean rounds differently from per-cell decay; more
    # cells and a shorter tau_b widen that gap relative to the default.
    @pytest.mark.parametrize("config", [
        DbsConfig(5, 5, 300.0, 2.0), DbsConfig(3, 3, 50.0, 2.0),
        DbsConfig(5, 5, 50.0, 2.0),
    ], ids=["5x5-300us", "3x3-50us", "5x5-50us"])
    def test_incremental_matches_eager_at_scale_grid_tau(self, config):
        stream = _composite(seed=22)
        _, stats = filter_stream(DbsFilter(stream.geometry, config), stream)
        assert np.array_equal(stats.keep_mask, dbs_decisions_eager(stream, config))


class TestInvariants:
    def test_activity_gains_exactly_one_per_event(self):
        f = DbsFilter(SensorGeometry(9, 9, 2), DEFAULT_PARAMS)
        prev = 0.0
        t = 0
        rng = np.random.default_rng(30)
        for _ in range(100):
            t += int(rng.integers(0, 400))
            f.process_block([t], [1], [1])
            a = f.activity[0]
            # decayed-from-prev plus the +1 jump
            assert a <= prev + 1.0 + 1e-12
            assert a >= 1.0
            prev = a

    def test_time_scale_invariance(self):
        # decisions depend only on dt/tau
        stream = _head(_composite(seed=31), 3000)
        scaled = EventStream(stream.t * 7, stream.x, stream.y, stream.p,
                             stream.geometry)
        base = DbsConfig(3, 3, 300.0, 2.0)
        big = DbsConfig(3, 3, 2100.0, 2.0)
        _, s1 = filter_stream(DbsFilter(stream.geometry, base), stream)
        _, s2 = filter_stream(DbsFilter(scaled.geometry, big), scaled)
        assert np.array_equal(s1.keep_mask, s2.keep_mask)

    @pytest.mark.parametrize("alpha,expect", [(1.0, True), (0.5, True), (1.5, False)])
    def test_single_cell_grid(self, alpha, expect):
        # 1x1 grid: mean equals the cell, so keep iff alpha <= 1
        config = DbsConfig(1, 1, 300.0, alpha)
        stream = _head(_composite(seed=32), 500)
        _, stats = filter_stream(DbsFilter(stream.geometry, config), stream)
        assert bool(stats.keep_mask.all()) is expect
        if not expect:
            assert not stats.keep_mask.any()


def _state(f: DbsFilter):
    """A copy of the filter's state, in ``dbs_scalar``'s layout."""
    return list(f.activity), f.last_t.tolist()


class TestTimeRegression:
    """A block that goes back in time is refused before any state is
    written: cells (0, 0) and (2, 2) of a 3x3 grid on 9x9 pixels."""

    G = SensorGeometry(9, 9, 2)

    def test_process_leaves_state(self):
        f = DbsFilter(self.G, DEFAULT_PARAMS)
        f.process_block([100], [0], [0])
        f.process_block([200], [8], [8])
        before = _state(f)
        # cell (0, 0) alone would accept t=150; the whole array's counter
        # must not
        with pytest.raises(ValueError, match="time regression: 150 < 200"):
            f.process_block([150], [0], [0])
        assert _state(f) == before

    def test_filter_stream_leaves_state(self):
        stream = EventStream([100, 200, 150], [0, 8, 0], [0, 8, 0], [0, 0, 0],
                             self.G, validate=False)
        f = DbsFilter(self.G, DEFAULT_PARAMS)
        with pytest.raises(ValueError, match="time regression: 150 < 200"):
            filter_stream(f, stream)
        assert _state(f) == ([0.0] * 10, [0] * 10)

    def test_behind_carried_state(self):
        f = DbsFilter(self.G, DEFAULT_PARAMS)
        filter_stream(f, EventStream([5, 300], [4, 4], [4, 4], [0, 0], self.G))
        before = _state(f)
        with pytest.raises(ValueError, match="time regression: 299 < 300"):
            filter_stream(f, EventStream([299], [8], [0], [0], self.G))
        assert _state(f) == before

    @pytest.mark.parametrize("field, at, value, message", [
        ("t", 66_000, 5, "time regression: 5 < 65999 at index 66000"),
        ("x", 67_000, 9, r"pixel \(9, 4\) outside 9x9: x=9 out of bounds \[0, 9\) at index 67000"),
    ], ids=["time-regression", "off-array"])
    def test_filter_stream_is_all_or_nothing(self, field, at, value, message):
        # a bad event far into a long stream is reported at its index in
        # the stream, and none of the events before it are taken
        n = 70_000
        fields = {"t": np.arange(n), "x": np.full(n, 4), "y": np.full(n, 4)}
        fields[field][at] = value
        stream = EventStream(fields["t"], fields["x"], fields["y"], np.zeros(n), self.G,
                             validate=False)
        f = DbsFilter(self.G, DEFAULT_PARAMS)
        with pytest.raises(StreamError, match=message):
            filter_stream(f, stream)
        assert _state(f) == ([0.0] * 10, [0] * 10)

    def test_negative_first_time_on_fresh_filter(self):
        # a fresh filter's counters start at time 0; a negative time is
        # reported as such, not as a regression behind that start
        f = DbsFilter(self.G, DEFAULT_PARAMS)
        with pytest.raises(ValueError, match="negative timestamp -5 at index 0"):
            f.process_block([-5], [0], [0])
        assert _state(f) == ([0.0] * 10, [0] * 10)


class TestPixelBounds:
    @pytest.mark.parametrize("x, y", [(-1, 0), (9, 0), (0, 12)])
    def test_off_array_rejected(self, x, y):
        f = DbsFilter(SensorGeometry(9, 9, 2), DEFAULT_PARAMS)
        f.process_block([0], [4], [4])
        before = _state(f)
        with pytest.raises(ValueError, match=rf"pixel \({x}, {y}\) outside 9x9"):
            f.process_block([1], [x], [y])
        assert _state(f) == before


# Gaps in microseconds: runs of equal timestamps, gaps from a small part of
# tau to many tau, and 2e6, past 745 tau for every tau below, where the
# decay underflows to 0.
GAPS = st.one_of(st.sampled_from([0, 0, 0, 1, 7, 40, 260, 1500, 2_000_000]),
                 st.integers(0, 2_500_000))


@st.composite
def dbs_cases(draw):
    """A short stream, a grid of 1x1, 3x3, 5x5 or 1x7 cells on an array
    with at least one pixel per cell row and column, and tau of 50, 300 or
    2100 us. Pixels may keep to one corner, so some cells never fire."""
    rows, cols = draw(st.sampled_from([(1, 1), (3, 3), (5, 5), (1, 7)]))
    config = DbsConfig(rows, cols, draw(st.sampled_from([50.0, 300.0, 2100.0])),
                       draw(st.sampled_from([0.5, 1.0, 2.0, 3.5])))
    geometry = SensorGeometry(draw(st.integers(cols, 12)), draw(st.integers(rows, 12)), 2)
    span_x = draw(st.integers(1, geometry.width))
    span_y = draw(st.integers(1, geometry.height))
    n = draw(st.integers(0, 150))
    t = draw(st.integers(0, 10**6)) + np.cumsum(
        draw(st.lists(GAPS, min_size=n, max_size=n)), dtype=np.int64)
    xs = draw(st.lists(st.integers(0, span_x - 1), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, span_y - 1), min_size=n, max_size=n))
    return config, EventStream(t, xs, ys, np.zeros(n, dtype=np.int64), geometry)


class TestScalarReference:
    """The compiled filter against ``oracles.dbs_scalar``, compared with ==."""

    @settings(max_examples=150, deadline=None)
    @given(dbs_cases(), st.lists(st.integers(1, 160), min_size=1, max_size=12))
    def test_bit_equal_under_any_cuts(self, case, pieces):
        # ``pieces`` cuts the stream into calls that carry the filter's state
        config, stream = case
        f = DbsFilter(stream.geometry, config)
        idx = np.arange(len(stream))
        masks, a, k = [], 0, 0
        while a < len(stream):
            b = a + pieces[k % len(pieces)]
            piece = stream.select((idx >= a) & (idx < b))
            masks.append(filter_stream(f, piece)[1].keep_mask)
            a, k = b, k + 1
        mask = np.concatenate(masks) if masks else np.zeros(0, dtype=bool)
        ref_mask, ref_state, _ = dbs_scalar(stream, config)
        assert mask.tolist() == ref_mask.tolist()
        assert _state(f) == ref_state

    @settings(max_examples=100, deadline=None)
    @given(dbs_cases())
    def test_equals_eager_oracle(self, case):
        # The eager oracle sums the cells in another order, so a decision
        # within rounding of its threshold may go either way: e.g. two
        # cells at 11 + O(e^-30) on a 1x7 grid with alpha 3.5. 2^-40 is far
        # above 150 events' worth of float64 rounding.
        config, stream = case
        _, stats = filter_stream(DbsFilter(stream.geometry, config), stream)
        clear = np.abs(dbs_scalar(stream, config)[2]) > 2.0**-40
        eager = dbs_decisions_eager(stream, config)
        assert stats.keep_mask[clear].tolist() == eager[clear].tolist()

    @settings(max_examples=40, deadline=None)
    @given(dbs_cases())
    def test_process_is_one_event_block(self, case):
        config, stream = case
        f = DbsFilter(stream.geometry, config)
        decisions = [f.process_block(stream.t[i:i + 1], stream.x[i:i + 1],
                                     stream.y[i:i + 1])[0] for i in range(len(stream))]
        ref_mask, ref_state, _ = dbs_scalar(stream, config)
        assert decisions == ref_mask.tolist()
        assert _state(f) == ref_state

    @pytest.mark.parametrize("t", [
        [2**62, 2**62, 2**62 + 1, 2**62 + 900],
        [0, 5, 2**62, 2**62, 2**62 + 40],
    ], ids=["first-event", "first-in-cell"])
    def test_first_event_at_2_62(self, t):
        # A counter's first event reaches back to time 0, and at 2**62 its
        # decay underflows to 0.0; 0.0 * 0.0 + 1.0 is still exactly 1.0.
        g = SensorGeometry(9, 9, 2)
        xy = [0, 0, 8, 4, 0][:len(t)]  # cells 0, 0, 8, 4, 0 of a 3x3 grid
        stream = EventStream(t, xy, xy, [0] * len(t), g)
        ref_mask, ref_state, _ = dbs_scalar(stream, DEFAULT_PARAMS)
        whole = DbsFilter(g, DEFAULT_PARAMS)
        assert filter_stream(whole, stream)[1].keep_mask.tolist() == ref_mask.tolist()
        assert _state(whole) == ref_state
        one = DbsFilter(g, DEFAULT_PARAMS)
        mask = [one.process_block([v], [c], [c])[0] for v, c in zip(t, xy)]
        assert mask == ref_mask.tolist()
        assert _state(one) == ref_state

    def test_strided_views(self):
        # every other entry of each buffer is the stream's; the entries
        # between are far off in time and off the array, so reading a view
        # as if it were contiguous could not give the same mask and state
        stream = _head(_composite(seed=24), 5000)
        views = []
        for v, junk in ((stream.t, -7), (stream.x, 99), (stream.y, -3)):
            buf = np.full(2 * len(v), junk, dtype=np.int64)
            buf[::2] = v
            views.append(buf[::2])
        assert not any(v.flags.c_contiguous for v in views)
        strided, copied = (DbsFilter(stream.geometry, DEFAULT_PARAMS) for _ in range(2))
        mask = strided.process_block(*views)
        assert mask.dtype == bool
        assert mask.tolist() == copied.process_block(stream.t, stream.x, stream.y).tolist()
        assert _state(strided) == _state(copied)
        ref_mask, ref_state, _ = dbs_scalar(stream, DEFAULT_PARAMS)
        assert mask.tolist() == ref_mask.tolist()
        assert _state(strided) == ref_state

    @pytest.mark.parametrize("tau", [3.0, 0.5, 300.0, 5000.0])
    def test_decay_memo_edges(self, tau):
        # gaps at the memo's first and last entries and either side of its
        # end, runs of equal times, and gaps past 745 tau, where exp
        # underflows to 0.0: inside the memo for tau 3.0 and 0.5, past it
        # for the others. The pixels cycle over the cells, so each cell's
        # own gaps differ from the whole array's.
        geometry, config = SensorGeometry(9, 9, 2), DbsConfig(3, 3, tau, 0.5)
        gaps = np.tile([0, 0, 1, DECAY_GAPS - 1, DECAY_GAPS, 0, 0, DECAY_GAPS + 1, 2,
                        int(746 * tau) + 1, DECAY_GAPS - 1, 0, 3, DECAY_GAPS, 1], 3)
        xy = np.resize([0, 4, 8, 0, 0, 4], len(gaps))
        stream = EventStream(7 + np.cumsum(gaps), xy, xy[::-1], np.zeros(len(gaps)), geometry)
        ref_mask, ref_state, _ = dbs_scalar(stream, config)
        for cuts in ([len(gaps)], [1, 5, 2, 20], [1]):  # one filter, in consecutive calls
            f = DbsFilter(geometry, config)
            masks, a, k = [], 0, 0
            while a < len(gaps):
                b = a + cuts[k % len(cuts)]
                masks += filter_stream(f, _slice(stream, a, b))[1].keep_mask.tolist()
                a, k = b, k + 1
            assert masks == ref_mask.tolist()
            assert _state(f) == ref_state
            # the memo holds the unmemoised decay of every gap it was asked
            # for, the whole array's gaps among them, and -1.0 elsewhere
            filled = np.flatnonzero(f.decay != -1.0)
            assert set(gaps[gaps < DECAY_GAPS].tolist()) <= set(filled.tolist())
            assert f.decay[filled].tolist() == [math.exp(-int(dt) / tau) for dt in filled]

    def test_decay_table_shared_per_tau(self):
        # the table depends on tau alone: filters of one tau share one
        # read-only array whatever their geometry and grid, a pass only
        # reads it, and another tau gets another array
        tau = 250.0
        small = DbsFilter(SensorGeometry(9, 9, 2), DbsConfig(3, 3, tau, 0.5))
        large = DbsFilter(SensorGeometry(40, 30, 2), DbsConfig(1, 7, tau, 2.0))
        assert small.decay is large.decay and not small.decay.flags.writeable
        before = small.decay.tobytes()
        rng = np.random.default_rng(4)
        n = 2000
        stream = EventStream(np.cumsum(rng.integers(0, DECAY_GAPS + 50, n)),
                             rng.integers(0, 9, n), rng.integers(0, 9, n), np.zeros(n),
                             small.geometry)
        filter_stream(small, stream)
        large.process_block(stream.t, stream.x, stream.y)
        assert small.decay.tobytes() == before
        assert len(small.decay) == DECAY_GAPS
        assert small.decay.tolist() == [math.exp(-dt / tau) for dt in range(DECAY_GAPS)]
        other = DbsFilter(small.geometry, DbsConfig(3, 3, 2 * tau, 0.5)).decay
        assert other is not small.decay and other[1] != small.decay[1]

    def test_composite_at_scale(self):
        stream = _composite(seed=23)
        for config in (DEFAULT_PARAMS, DbsConfig(1, 7, 2100.0, 1.5)):
            f = DbsFilter(stream.geometry, config)
            _, stats = filter_stream(f, stream)
            ref_mask, ref_state, _ = dbs_scalar(stream, config)
            assert np.array_equal(stats.keep_mask, ref_mask)
            assert _state(f) == ref_state


def _mask_digest(masks) -> str:
    h = hashlib.sha256()
    for mask in masks:
        h.update(np.asarray(mask, dtype=np.uint8).tobytes())
        h.update(b"\n")
    return h.hexdigest()


def _cluttered_swipes(seed, clutter=4.0):
    """One 64x64 swipe per class, each merged with uniform clutter at
    ``clutter`` times the swipe's 12 kHz rate (swipe first on equal
    times), as the ``cluttered-1l`` benchmark workload builds its clips."""
    geometry = SensorGeometry(64, 64, 2)
    rng = np.random.default_rng([seed, 1])
    out = []
    for clip in gen_gesture_set(geometry, 1, seed):
        swipe = clip.stream
        spec = CompositeSpec(geometry=geometry, duration_us=int(swipe.t[-1]) + 1,
                             fg_region=(0, 0, 0, 0), fg_rate_hz=0.0,
                             bg_rate_hz=clutter * 12_000.0)
        bg = gen_composite(spec, int(rng.integers(2**32))).stream
        t = np.concatenate([swipe.t, bg.t])
        order = np.argsort(t, kind="stable")
        out.append(EventStream(
            t[order], np.concatenate([swipe.x, bg.x])[order],
            np.concatenate([swipe.y, bg.y])[order],
            np.concatenate([swipe.p, bg.p])[order], geometry))
    return out


# Acceptance 1's streams: (seed, events, kept, digest) of each one's mask.
GOLDEN_COMPOSITE_MASKS = [
    (0, 100074, 75029, "87ca6d61a3386f89228e85459e7f33aa6708f562877c33d41b32f047a43e4ecf"),
    (1, 100129, 74961, "4c57256b546f05f6dd67081e6e3ca71ce21052968b3fe3b375da6f5955045b4d"),
    (2, 100207, 75005, "4f51bf6f64b57d1532ca44dd334a655a9cd941eebfc91a92ca433590ca17fdd8"),
    (3, 100023, 75126, "917ef0f81d467a18b93b48035ae7c72ff9005c2dc809036ae0b141e5b8b18eac"),
    (4, 100099, 74907, "31453131e8acab00af0bdb86717c8073c592f36a0db44d56a6660fdf620ebc70"),
    (5, 99852, 74880, "db289e2a2c3689288b17f4f30f398ef5bd286479c0a33d8c1ce472d8d6a3fcf5"),
    (6, 99961, 74953, "02ca252768e6c16ccfae204753e717989b6a4c271050d620a4df6726b2080e1f"),
    (7, 100029, 74977, "5287fbf1e9cea1eb30c2d1f03a6f64805ea127948d0b393e439020167eeaacef"),
    (8, 100281, 74874, "be86c1a4a95123f603432ff04fb0e4f0efe48f8a79aab2a9b84c3f07deb01e12"),
    (9, 100225, 75190, "98514cb34a60483c955f06a663a7b38496542e6943f927ad5c4d99467b48325d"),
]

# ``_cluttered_swipes(seed)`` under ``config``: (seed, config, events,
# kept, digest) of the masks of its clips.
GOLDEN_CLUTTERED_MASKS = [
    (0, DEFAULT_PARAMS, 118126, 27165,
     "d6b0a5f5fed1aef624bbe295e42d63e96abd1b5dc07972155a3dff51e92f6031"),
    (1, DEFAULT_PARAMS, 133304, 31894,
     "30f95941b356d1dcc8318a5b4a06d88e31b04fb27df0f7153b193fbc43f73346"),
    (2, DEFAULT_PARAMS, 110859, 27913,
     "d9483ab67d08d3566d30c24518e755a001ef0bffe530faf58834f2af1ff01326"),
    (5, DbsConfig(1, 7, 2100.0, 1.5), 116192, 26816,
     "ec9322fca812b52e85c5df714f1a3400c7c59a1f8d9f3e16855905e08ad22c7b"),
    (5, DbsConfig(5, 5, 300.0, 3.0), 116192, 33514,
     "33bcf81a25dfabd95a5a49e042aa6eb9ba46ffff69e41cf7079adbbf782d160e"),
]


def composite_mask(seed):
    """(events, kept, digest) of the mask of acceptance 1's stream ``seed``."""
    spec = CompositeSpec(
        geometry=SensorGeometry(36, 36, 2), duration_us=500_000,
        fg_region=(12, 12, 24, 24), fg_rate_hz=150_000.0, bg_rate_hz=50_000.0,
    )
    stream = gen_composite(spec, seed).stream
    _, stats = filter_stream(DbsFilter(stream.geometry, DEFAULT_PARAMS), stream)
    return stats.total, stats.kept, _mask_digest([stats.keep_mask])


def cluttered_masks(seed, config):
    """(events, kept, digest) of the masks of ``_cluttered_swipes(seed)``."""
    masks = [filter_stream(DbsFilter(s.geometry, config), s)[1].keep_mask
             for s in _cluttered_swipes(seed)]
    return sum(map(len, masks)), int(sum(m.sum() for m in masks)), _mask_digest(masks)


class TestGoldenMasks:
    """Pinned digests of keep masks (one uint8 per event, a newline after
    each stream). Any change to a DBS decision must be deliberate and
    show up here."""

    @pytest.mark.parametrize("seed, events, kept, digest", GOLDEN_COMPOSITE_MASKS)
    def test_acceptance_composites(self, seed, events, kept, digest):
        assert composite_mask(seed) == (events, kept, digest)

    @pytest.mark.parametrize("seed, config, events, kept, digest", GOLDEN_CLUTTERED_MASKS)
    def test_cluttered_swipes(self, seed, config, events, kept, digest):
        assert cluttered_masks(seed, config) == (events, kept, digest)

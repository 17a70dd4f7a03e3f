import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evgesture.dbs import DbsFilter
from evgesture.events import (
    ClipRecord, EventStream, SensorGeometry, StreamError, load_manifest,
    read_binary_events, read_text_events,
    write_binary_events, write_text_events,
)
from evgesture.network import Layer, LayerConfig

GEOM = SensorGeometry(16, 12, 2)


def random_stream(rng, n, geometry=GEOM):
    t = np.cumsum(rng.integers(0, 100, n))
    return EventStream(
        t, rng.integers(0, geometry.width, n), rng.integers(0, geometry.height, n),
        rng.integers(0, geometry.channels, n), geometry,
    )


class TestWrapAround:
    def test_checked_before_the_cast(self):
        # 2**32 + 1 would wrap to pixel 1 in the int32 field array
        with pytest.raises(StreamError, match="x=4294967297 out of bounds"):
            EventStream(np.array([0]), np.array([2**32 + 1]), np.array([0]),
                        np.array([0]), GEOM)


    @pytest.mark.parametrize("entry", ["process_block", "encode", "block_surfaces",
                                       "EventStream"])
    def test_unsigned_past_int64(self, entry):
        # 2**63 is a uint64 but no int64: the cast to the stream layout
        # would wrap it to -2**63, a stream that goes back in time. 2**63 - 1
        # fits, though as a double it rounds to 2**63.
        geometry = SensorGeometry(9, 9, 2)
        x = y = np.array([1, 1], dtype=np.uint64)
        p = np.array([0, 0], dtype=np.uint64)

        def call(last):
            t = np.array([0, last], dtype=np.uint64)
            if entry == "process_block":
                return DbsFilter(geometry).process_block(t, x, y)
            if entry == "encode":
                return Layer(LayerConfig(2, 1, 100.0, 2), geometry).encode(t, x, y, p)
            if entry == "block_surfaces":
                return Layer(LayerConfig(2, 1, 100.0, 2), geometry).block_surfaces(t, x, y, p)
            return EventStream(t, x, y, p, geometry)

        with pytest.raises(StreamError, match=f"t={2**63} is not a 64-bit integer at index 1"):
            call(2**63)
        call(2**63 - 1)

    @pytest.mark.parametrize("entry, field, value", [
        (entry, field, value)
        for field, value in (("t", np.nan), ("t", 2.5), ("t", np.inf), ("t", 1e19),
                             ("x", np.nan), ("x", 1.5), ("y", -np.inf), ("p", np.nan),
                             ("p", 0.5))
        for entry in ("process_block", "encode", "block_surfaces", "EventStream")
        if not (entry == "process_block" and field == "p")  # the filter reads no p
    ])
    def test_not_an_integer(self, entry, field, value):
        # NaN compares false with every bound, and a cast of NaN or of a
        # fraction to the int fields would make some other pixel of it
        events = {"t": [0.0, 10.0], "x": [4.0, 4.0], "y": [4.0, 4.0], "p": [0.0, 0.0]}
        events[field][1] = value
        t, x, y, p = (np.array(events[k]) for k in "txyp")
        geometry = SensorGeometry(9, 9, 2)
        with pytest.raises(StreamError, match=rf"{field}=.* is not a 64-bit integer at index 1"):
            if entry == "process_block":
                DbsFilter(geometry).process_block(t, x, y)
            elif entry == "encode":
                Layer(LayerConfig(2, 1, 100.0, 2), geometry).encode(t, x, y, p)
            elif entry == "block_surfaces":
                Layer(LayerConfig(2, 1, 100.0, 2), geometry).block_surfaces(t, x, y, p)
            else:
                EventStream(t, x, y, p, geometry)


class TestTextCodec:
    def test_single_line(self):
        s = read_text_events(b"0 3 4 1", GEOM)
        assert len(s) == 1
        assert s[0] == (0, 3, 4, 1)

    def test_empty_source(self):
        assert len(read_text_events(b"", GEOM)) == 0

    def test_non_monotonic_reports_index(self):
        with pytest.raises(StreamError, match="index 1"):
            read_text_events(b"10 0 0 0\n5 0 0 0", GEOM)

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(StreamError, match="line 2"):
            read_text_events(b"0 0 0 0\n1 2 3", GEOM)

    def test_out_of_bounds(self):
        with pytest.raises(StreamError, match="x=16"):
            read_text_events(b"0 16 0 0", GEOM)

    def test_write_single_event(self):
        s = EventStream([0], [0], [0], [0], GEOM)
        assert write_text_events(s) == b"0 0 0 0\n"

    def test_round_trip(self):
        s = random_stream(np.random.default_rng(0), 500)
        assert read_text_events(write_text_events(s), GEOM) == s


class TestBinaryCodec:
    def test_bad_magic(self):
        with pytest.raises(StreamError, match="magic"):
            read_binary_events(b"NOPE" + b"\x00" * 20)

    def test_header_only(self):
        s = EventStream.empty(GEOM)
        out = read_binary_events(write_binary_events(s))
        assert len(out) == 0
        assert out.geometry == GEOM

    def test_record_size_is_13(self):
        s = random_stream(np.random.default_rng(1), 7)
        assert len(write_binary_events(s)) == 9 + 13 * 7

    def test_single_record_decodes_t(self):
        s = EventStream([7], [1], [2], [0], GEOM)
        data = write_binary_events(s)
        assert len(data) == 9 + 13
        assert read_binary_events(data)[0].t == 7

    def test_truncated_record(self):
        data = write_binary_events(random_stream(np.random.default_rng(2), 3))
        with pytest.raises(StreamError, match="truncated"):
            read_binary_events(data[:-5])

    def test_round_trip_large(self):
        s = random_stream(np.random.default_rng(3), 100_000)
        assert read_binary_events(write_binary_events(s)) == s

    @given(st.integers(0, 2**31), st.integers(0, 15), st.integers(0, 11),
           st.integers(0, 1))
    def test_round_trip_any_event(self, t, x, y, p):
        s = EventStream([t], [x], [y], [p], GEOM)
        assert read_binary_events(write_binary_events(s)) == s


class TestValidate:
    """The checks every ``EventStream(..., validate=True)`` runs."""

    def test_valid_stream(self):
        # equal times and the last pixel and channel are in bounds
        s = EventStream([0, 5, 5], [0, GEOM.width - 1, 3], [0, GEOM.height - 1, 2],
                        [0, GEOM.channels - 1, 0], GEOM)
        assert len(s) == 3

    def test_bounds_violation(self):
        with pytest.raises(StreamError, match=r"y=-1 out of bounds \[0, 12\) at index 1"):
            EventStream([0, 1], [0, 0], [0, -1], [0, 0], GEOM)

    def test_duration(self):
        s = EventStream([0, 40, 100], [0] * 3, [0] * 3, [0] * 3, GEOM)
        assert s.duration_us == 100
        assert EventStream.empty(GEOM).duration_us == 0


class TestManifest:
    def test_load(self, tmp_path):
        clip = tmp_path / "a.evs"
        clip.write_bytes(write_binary_events(random_stream(np.random.default_rng(6), 10)))
        manifest = tmp_path / "m.tsv"
        manifest.write_text("a.evs\tleft\ts01\n")
        records = load_manifest(str(manifest))
        assert len(records) == 1
        assert records[0].label == "left"
        assert records[0].subject == "s01"
        assert len(records[0].stream) == 10

    def test_empty(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("")
        assert load_manifest(str(manifest)) == []

    def test_duplicates_kept(self, tmp_path):
        clip = tmp_path / "a.evs"
        clip.write_bytes(write_binary_events(EventStream.empty(GEOM)))
        manifest = tmp_path / "m.tsv"
        manifest.write_text("a.evs\tleft\ts01\na.evs\tright\ts02\n")
        assert len(load_manifest(str(manifest))) == 2

    def test_missing_file(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("gone.evs\tleft\ts01\n")
        with pytest.raises(StreamError, match="missing file"):
            load_manifest(str(manifest))

    def test_malformed_line(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("a.evs\tleft\n")
        with pytest.raises(StreamError, match="3 tab-separated"):
            load_manifest(str(manifest))


def test_streams_are_immutable():
    s = random_stream(np.random.default_rng(7), 10)
    with pytest.raises(ValueError):
        s.t[0] = 99

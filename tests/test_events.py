import copy
import io
import os
import pickle
import re
import struct
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_depth_pair, make_random_stream
from evdepth import events, imgio
from evdepth.cli import main
from evdepth.errors import BoundsError, FormatError, OrderingError, ParameterError
from evdepth.events import (
    Event,
    EventSlice,
    EventStream,
    SliceMode,
    SliceSpec,
    read_events,
    slice_events,
    slice_sbn,
    slice_sbt,
    write_events,
)
from evdepth.fusion import make_model_params, save_model_params
from evdepth.imgio import save_depth_pgm16, save_mask_pgm, write_pfm, write_pgm, write_ppm
from evdepth.metrics import aggregate, evaluate, write_reports_csv, write_reports_json
from evdepth.pipeline import DatasetManifest, EncoderSpec, Provenance, SampleRecord, save_manifest
from evdepth.stacks import StackLayout, encode


def small_stream():
    return EventStream(8, 8, [1, 2, 3], [4, 5, 6], [1, -1, 1], [10, 60, 100])


class TestSliceSbt:
    def test_boundary_inclusion(self):
        sl = slice_sbt(small_stream(), 100, 50)
        assert list(sl.ts) == [60, 100]  # t in [50, 100], both ends inclusive
        assert (sl.t_start_us, sl.t_end_us) == (50, 100)

    def test_tie_at_lower_boundary_included(self):
        s = EventStream(8, 8, [0, 0], [0, 0], [1, 1], [50, 100])
        sl = slice_sbt(s, 100, 50)
        assert list(sl.ts) == [50, 100]

    def test_empty_stream(self):
        sl = slice_sbt(EventStream.empty(8, 8), 1000, 10)
        assert len(sl) == 0

    def test_slice_is_a_view(self):
        s = small_stream()
        sl = slice_sbt(s, 100, 50)
        assert np.shares_memory(sl.ts, s.ts)
        assert np.shares_memory(sl.xs, s.xs)

    def test_bad_window(self):
        with pytest.raises(ParameterError):
            slice_sbt(small_stream(), 100, 0)
        with pytest.raises(ParameterError):
            slice_sbt(small_stream(), -1, 10)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), td=st.integers(0, 1_000_000), dt=st.integers(1, 600_000))
    def test_matches_linear_scan_oracle(self, seed, td, dt):
        stream = make_random_stream(np.random.default_rng(seed), n_events=500)
        sl = slice_sbt(stream, td, dt)
        expected = [e for e in stream if td - dt <= e.timestamp <= td]
        assert list(sl) == expected

    def test_ten_thousand_events_over_one_second(self):
        stream = make_random_stream(np.random.default_rng(42), n_events=10_000, t_max=1_000_000)
        sl = slice_sbt(stream, 500_000, 50_000)
        expected = [e for e in stream if 450_000 <= e.timestamp <= 500_000]
        assert list(sl) == expected
        assert len(sl) > 0


class TestSliceSbn:
    def test_take_last(self):
        sl = slice_sbn(small_stream(), 100, 2)
        assert list(sl.ts) == [60, 100]
        assert (sl.t_start_us, sl.t_end_us) == (60, 100)

    def test_count_exceeds_stream(self):
        sl = slice_sbn(small_stream(), 60, 10)
        assert list(sl.ts) == [10, 60]

    def test_full_stream(self):
        s = small_stream()
        sl = slice_sbn(s, int(s.ts[-1]), len(s))
        assert list(sl) == list(s)

    def test_bad_count(self):
        with pytest.raises(ParameterError):
            slice_sbn(small_stream(), 100, 0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), td=st.integers(0, 1_000_000), k=st.integers(1, 600))
    def test_matches_scan_and_take_last_oracle(self, seed, td, k):
        stream = make_random_stream(np.random.default_rng(seed), n_events=500)
        sl = slice_sbn(stream, td, k)
        expected = [e for e in stream if e.timestamp <= td][-k:]
        assert list(sl) == expected


class TestSliceSpec:
    def test_dispatch(self):
        s = small_stream()
        spec = SliceSpec(SliceMode.SBT, window_us=50)
        assert list(slice_events(s, 100, spec).ts) == [60, 100]
        spec = SliceSpec(SliceMode.SBN, count=1)
        assert list(slice_events(s, 100, spec).ts) == [100]

    def test_exactly_one_active_parameter(self):
        with pytest.raises(ParameterError):
            SliceSpec(SliceMode.SBT, window_us=50, count=3)
        with pytest.raises(ParameterError):
            SliceSpec(SliceMode.SBN)
        with pytest.raises(ParameterError):
            SliceSpec(SliceMode.SBT, window_us=0)

    # every public slice goes through SliceSpec and one t_d check, so none of
    # these reaches interval arithmetic (a float window gave t_start 27.5)
    BAD_ARGS = {
        "float_window": (slice_sbt, 30, 2.5),
        "bool_window": (slice_sbt, 30, True),
        "float_count": (slice_sbn, 30, 2.0),
        "bool_count": (slice_sbn, 30, True),
        "float_t_d_sbt": (slice_sbt, 30.5, 10),
        "bool_t_d_sbn": (slice_sbn, True, 2),
        "float_t_d_spec": (slice_events, 30.0, SliceSpec(SliceMode.SBT, window_us=10)),
    }

    @pytest.mark.parametrize("on_file", [False, True], ids=["stream", "evb_source"])
    @pytest.mark.parametrize("case", BAD_ARGS, ids=list(BAD_ARGS))
    def test_non_integer_window_count_or_t_d_is_parameter_error(self, tmp_path, on_file, case):
        cut, t_d, arg = self.BAD_ARGS[case]
        path = tmp_path / "ev.evb"
        write_events(small_stream(), path)
        with events._EvbSource(path) as source:
            with pytest.raises(ParameterError):
                cut(source if on_file else small_stream(), t_d, arg)

    # past 2**63 - 1 an interval no longer fits the int64 columns it is
    # compared with, and the encoders overflowed converting it
    TOO_LARGE = {
        "window": (slice_sbt, 30, 2**63),
        "count": (slice_sbn, 30, 2**63),
        "t_d_sbt": (slice_sbt, 2**63, 10),
        "t_d_sbn": (slice_sbn, 10**20, 2),
        "uint64_window": (slice_sbt, 30, np.uint64(2**64 - 1)),
    }

    @pytest.mark.parametrize("on_file", [False, True], ids=["stream", "evb_source"])
    @pytest.mark.parametrize("case", TOO_LARGE, ids=list(TOO_LARGE))
    def test_window_count_or_t_d_past_int64_is_parameter_error(self, tmp_path, on_file, case):
        cut, t_d, arg = self.TOO_LARGE[case]
        path = tmp_path / "ev.evb"
        write_events(small_stream(), path)
        with events._EvbSource(path) as source:
            with pytest.raises(ParameterError, match=rf"in \[[01], {2**63 - 1}\], got "):
                cut(source if on_file else small_stream(), t_d, arg)

    @pytest.mark.parametrize("layout", ["voxel", "imagelike", "tencode"])
    @pytest.mark.parametrize("cut, t_d, arg", [
        (slice_sbt, 2**63 - 1, 2**63 - 1),
        (slice_sbt, 0, 2**63 - 1),
        (slice_sbt, 100, 2**63 - 1),
        (slice_sbn, 2**63 - 1, 2**63 - 1),
    ], ids=["sbt-both", "sbt-t_d-0", "sbt-window", "sbn-both"])
    def test_int64_max_still_slices_and_encodes(self, layout, cut, t_d, arg):
        sl = cut(small_stream(), t_d, arg)
        assert sl.t_end_us == t_d and type(sl.t_start_us) is int
        stack = encode(sl, StackLayout(layout))
        assert np.isfinite(stack.values).all()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16, np.uint64])
    def test_numpy_integers_slice_as_python_ints(self, dtype):
        # unsigned numpy scalars would wrap in t_d - window and hi - count
        s = small_stream()
        for cut, t_d, arg in ((slice_sbt, 100, 50), (slice_sbt, 5, 10),
                              (slice_sbn, 100, 2), (slice_sbn, 100, 5)):
            want = cut(s, t_d, arg)
            got = cut(s, dtype(t_d), dtype(arg))
            assert list(got.ts) == list(want.ts)
            assert (got.t_start_us, got.t_end_us) == (want.t_start_us, want.t_end_us)
            assert type(got.t_start_us) is int and type(got.t_end_us) is int


class TestStreamInvariants:
    def test_polarity_zero_rejected(self):
        with pytest.raises(FormatError, match="polarity"):
            EventStream(8, 8, [1], [1], [0], [10])

    def test_out_of_order_rejected_with_index(self):
        with pytest.raises(OrderingError, match="record 2"):
            EventStream(8, 8, [1, 1, 1], [1, 1, 1], [1, 1, 1], [10, 60, 50])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(BoundsError):
            EventStream(8, 8, [8], [0], [1], [10])
        with pytest.raises(BoundsError):
            EventStream(8, 8, [0], [9], [1], [10])

    def test_negative_timestamp_rejected(self):
        with pytest.raises(FormatError):
            EventStream(8, 8, [1], [1], [1], [-5])

    @pytest.mark.parametrize("dims", [(8.5, 8), (8, True), (0, 8), (8, 65536)])
    def test_sensor_dims_that_are_not_integers_in_range_rejected(self, dims):
        with pytest.raises(ParameterError, match=r"^sensor (width|height) must be an integer in "):
            EventStream(*dims, [0], [0], [1], [10])

    @pytest.mark.parametrize("short", ["xs", "ys", "ps", "ts"])
    def test_columns_of_different_lengths_rejected(self, short):
        cols = {"xs": [1, 2], "ys": [4, 5], "ps": [1, -1], "ts": [10, 60]}
        cols[short] = cols[short][:1]
        with pytest.raises(FormatError, match="mismatched lengths"):
            EventStream(8, 8, **cols)

    def test_stream_arrays_immutable(self):
        s = small_stream()
        with pytest.raises(ValueError):
            s.ts[0] = 0
        with pytest.raises(AttributeError):
            s.width = 12


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


class TestSliceIsAStream:
    def test_a_slice_is_a_stream_with_an_interval(self):
        sl = slice_sbt(small_stream(), 100, 50)
        assert isinstance(sl, EventStream)
        assert (sl.t_start_us, sl.t_end_us, sl.duration_us) == (50, 100, 50)
        assert list(sl) == [Event(2, 5, -1, 60), Event(3, 6, 1, 100)]

    def test_slices_compare_by_sensor_events_and_interval(self):
        s = small_stream()
        sl = slice_sbt(s, 100, 50)
        assert sl == slice_sbt(s, 100, 50)
        wider = slice_sbt(s, 100, 45)
        assert list(wider.ts) == list(sl.ts) and sl != wider
        assert sl != slice_sbt(EventStream(9, 8, s.xs, s.ys, s.ps, s.ts), 100, 50)
        whole = slice_sbt(s, 100, 100)
        assert whole == s and s == whole  # a stream and a slice: sensor and events
        assert sl != s and s != sl

    @pytest.mark.parametrize("make", [small_stream, lambda: slice_sbt(small_stream(), 100, 50)],
                             ids=["stream", "slice"])
    @pytest.mark.parametrize("twin_of", [_pickled, copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_pickle_and_copy_rebuild_a_checked_twin(self, make, twin_of):
        obj = make()
        twin = twin_of(obj)
        assert type(twin) is type(obj) and twin == obj
        if isinstance(obj, EventSlice):
            assert (twin.t_start_us, twin.t_end_us) == (obj.t_start_us, obj.t_end_us)
        assert not np.shares_memory(twin.ts, obj.ts) and not twin.ts.flags.writeable
        with pytest.raises(AttributeError):
            twin.width = 12

    @pytest.mark.parametrize("cols", [
        ([1, 2, 3], [4, 5, 6], [1, -1, 1], [10, 60, 50]),
        ([1, 8, 3], [4, 5, 6], [1, -1, 1], [10, 60, 100]),
        ([1, 2, 3], [4, 5, 6], [1, 0, 1], [10, 60, 100]),
        ([1, 2, 3], [4, 5], [1, -1, 1], [10, 60, 100]),
    ], ids=["regressing-timestamp", "off-sensor-pixel", "zero-polarity", "short-column"])
    def test_constructor_checks_as_the_stream_constructor_does(self, cols):
        with pytest.raises(Exception) as expected:
            EventStream(8, 8, *cols)
        with pytest.raises(type(expected.value)) as info:
            EventSlice(8, 8, *cols, 0, 100)
        assert str(info.value) == str(expected.value)

    def test_constructor_copies_its_columns(self):
        ts = np.array([10, 60, 100])
        sl = EventSlice(8, 8, [1, 2, 3], [4, 5, 6], [1, -1, 1], ts, t_start_us=0, t_end_us=100)
        assert ts.flags.writeable and not np.shares_memory(sl.ts, ts)
        assert sl.ts.dtype == np.int64 and not sl.ts.flags.writeable

    @pytest.mark.parametrize("fmt", ["evb", "csv"])
    def test_a_written_slice_reads_back_equal(self, tmp_path, fmt):
        stream = make_random_stream(np.random.default_rng(5), width=16, height=12, n_events=300)
        sl = slice_sbt(stream, int(stream.ts[-40]), int(stream.ts[-40] - stream.ts[100]))
        path = tmp_path / f"slice.{fmt}"
        write_events(sl, path)
        back = read_events(path)
        assert back == sl and len(back) == len(sl) > 0


def long_columns(n=20_000):
    """Valid columns of a 32x24 stream, t = 10 * index."""
    rng = np.random.default_rng(21)
    xs = rng.integers(0, 32, n)
    ys = rng.integers(0, 24, n)
    ps = rng.choice(np.array([-1, 1]), n)
    return xs, ys, ps, np.arange(n, dtype=np.int64) * 10


# (column edits, error, message): the first bad record wins, and the checks run
# in the order polarity, pixel bounds, first timestamp, timestamp order
BAD_RECORDS = {
    "polarity-0": (
        {"ps": {7321: 0, 15000: 2}}, FormatError, "record 7321: polarity must be -1 or +1, got 0"
    ),
    "x-equals-width": (
        {"xs": {7321: 32, 15000: 40}, "ys": {7321: 5}}, BoundsError,
        "record 7321: pixel (32, 5) outside 32x24 sensor",
    ),
    "x-minus-one": (
        {"xs": {7321: -1, 15000: -9}, "ys": {7321: 5}}, BoundsError,
        "record 7321: pixel (-1, 5) outside 32x24 sensor",
    ),
    "y-equals-height": (
        {"xs": {7321: 3}, "ys": {7321: 24, 15000: 30}}, BoundsError,
        "record 7321: pixel (3, 24) outside 32x24 sensor",
    ),
    "y-minus-one": (
        {"xs": {7321: 3}, "ys": {7321: -1, 15000: -7}}, BoundsError,
        "record 7321: pixel (3, -1) outside 32x24 sensor",
    ),
    "negative-first-timestamp": ({"ts": {0: -5}}, FormatError, "record 0: negative timestamp -5"),
    "regressing-timestamp": (
        {"ts": {7321: 73199, 15000: 0}}, OrderingError,
        "record 7321: timestamp 73199 < previous 73200",
    ),
    "polarity-before-bounds": (
        {"ps": {9000: 0}, "xs": {7321: 32}}, FormatError,
        "record 9000: polarity must be -1 or +1, got 0",
    ),
    "bounds-before-order": (
        {"xs": {9000: 40}, "ys": {9000: 2}, "ts": {7321: 0}}, BoundsError,
        "record 9000: pixel (40, 2) outside 32x24 sensor",
    ),
}


class TestValidationDiagnostics:
    @pytest.mark.parametrize("case", BAD_RECORDS, ids=list(BAD_RECORDS))
    def test_first_bad_record_is_reported(self, case):
        edits, error, message = BAD_RECORDS[case]
        cols = dict(zip(("xs", "ys", "ps", "ts"), long_columns()))
        for name, changes in edits.items():
            for i, value in changes.items():
                cols[name][i] = value
        with pytest.raises(error) as info:
            EventStream(32, 24, **cols)
        assert str(info.value) == message

    def test_evb_polarity_minus_128(self, tmp_path):
        path = tmp_path / "ev.evb"
        write_events(EventStream(32, 24, *long_columns()), path)
        raw = bytearray(path.read_bytes())
        for i in (7321, 15000):
            raw[16 + 13 * i + 4] = 0x80  # the i8 polarity of record i
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as info:
            read_events(path)
        assert str(info.value) == f"{path}: record 7321: polarity must be -1 or +1, got -128"


class TestCsvFormat:
    def test_example_record(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("# evcsv v1 width=346 height=260\n3,4,1,1000\n")
        s = read_events(p)
        assert (s.width, s.height) == (346, 260)
        assert s[0] == Event(3, 4, 1, 1000)

    @pytest.mark.parametrize("dims, error", [
        ("width=" + "9" * 5000 + " height=6", FormatError),
        ("width=000000000000000000008 height=123456", FormatError),
        ("width=000000000000000000008 height=70000", ParameterError),
    ], ids=["5000-digits", "six-digits", "past-u16"])
    def test_header_dims_past_u16_are_rejected(self, tmp_path, dims, error):
        p = tmp_path / "ev.csv"
        p.write_text(f"# evcsv v1 {dims}\n3,4,1,1000\n")
        with pytest.raises(error):
            read_events(p)
        p.write_text("# evcsv v1 width=0008 height=06\n3,4,1,1000\n")
        assert (read_events(p).width, read_events(p).height) == (8, 6)

    def test_polarity_zero_is_parse_error(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("# evcsv v1 width=8 height=8\n1,1,0,10\n")
        with pytest.raises(FormatError, match="polarity"):
            read_events(p)

    def test_malformed_record_reports_index(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("# evcsv v1 width=8 height=8\n1,1,1,10\n1,1,x,20\n")
        with pytest.raises(FormatError, match="record 1"):
            read_events(p)

    def test_wrong_field_count_reports_index(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("# evcsv v1 width=8 height=8\n1,1,1,10\n1,1,1\n")
        with pytest.raises(FormatError, match="record 1"):
            read_events(p)
        # every record short: np.loadtxt reads them, as three columns
        p.write_text("# evcsv v1 width=8 height=8\n1,1,1\n2,2,-1\n")
        with pytest.raises(FormatError, match="expected 4 columns x,y,p,t, got 3"):
            read_events(p)

    @pytest.mark.parametrize(
        "body, message",
        [("1,1,1,10\n1,1,1,99999999999999999999\n", "field out of int64 range"),
         ("1,1,1,10\n-9223372036854775809,1,1,20\n", "field out of int64 range"),
         ("1,1,1,10\n   \n", "expected 4 fields, got 1"),
         ("1,1,1,10\n  # note\n", "expected 4 fields, got 1"),
         ("1,1,1,10\n1_0,1,1,20\n", "non-integer field"),
         ("1,1,1,10\n1,1,1," + "9" * 5000 + "\n", "field out of int64 range"),
         ("1,1,1,10\n1,1,1,-" + "0" * 4990 + "1" * 20 + "\n", "field out of int64 range"),
         ("1,1,1,+" + "0" * 4990 + "7\n1,1,1\n", "expected 4 fields, got 3")],
        ids=["past-int64", "below-int64", "blank-line", "indented-comment", "underscore",
             "5000-digits", "zeros-then-20-digits", "after-5000-digit-zero-padded-time"],
    )
    def test_rejected_body_names_record_and_line(self, tmp_path, body, message):
        p = tmp_path / "ev.csv"
        p.write_bytes(b"# evcsv v1 width=8 height=8\n" + body.encode("ascii"))
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: record 1 \\(line 3\\): "
                                               f"{re.escape(message)}"):
            read_events(p)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["1", "-2", "+3", "0", "9223372036854775808", ",", ", ",
                                     "\t", " ", "#", "\n", "x"]),
                    min_size=1, max_size=24))
    def test_rescan_parses_as_loadtxt_does(self, tokens):
        # the rescan runs on bodies np.loadtxt rejected; it must reject each of
        # them too, and read a body loadtxt takes to the same records (bodies
        # hold no CR: the text is read with universal newlines)
        body = "".join(tokens)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a body of comments only
                expected = np.loadtxt(io.StringIO(body), dtype=np.int64, delimiter=",", ndmin=2)
        except ValueError:
            with pytest.raises(FormatError, match=r"^ev\.csv: record \d+ \(line \d+\): "):
                events._rescan_csv_body("ev.csv", body)
        else:
            if expected.size and expected.shape[1] == 4:
                assert np.array_equal(events._rescan_csv_body("ev.csv", body), expected)

    def test_out_of_order_rejected_not_sorted(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("# evcsv v1 width=8 height=8\n1,1,1,100\n1,1,1,50\n")
        with pytest.raises(OrderingError):
            read_events(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("x,y,p,t\n1,1,1,10\n")
        with pytest.raises(FormatError, match="header"):
            read_events(p)

    def test_header_only_is_empty_stream(self, tmp_path):
        p = tmp_path / "ev.csv"
        p.write_text("# evcsv v1 width=8 height=8\n")
        assert len(read_events(p)) == 0

    @pytest.mark.parametrize("body", ["# just a note\n", "\n# a\n  # indented\n\n   \n"],
                             ids=["comment", "comments_and_blank_lines"])
    def test_comments_only_body_is_empty_stream(self, tmp_path, body):
        p = tmp_path / "ev.csv"
        p.write_text("# evcsv v1 width=8 height=8\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns "input contained no data"
            assert read_events(p) == EventStream.empty(8, 8)

    @pytest.mark.parametrize(
        "raw",
        [b"# evcsv v1 width=8 height=8\xe9\n1,1,1,10\n",
         b"# evcsv v1 width=8 height=8\n1,1,1,10\n2,2,1,\xb520\n"],
        ids=["header", "body"],
    )
    def test_non_ascii_byte_is_format_error(self, tmp_path, raw):
        p = tmp_path / "ev.csv"
        p.write_bytes(raw)
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: not an ASCII evcsv file"):
            read_events(p)


class TestEvbFormat:
    def test_single_event_record_is_13_bytes(self, tmp_path):
        p = tmp_path / "ev.evb"
        write_events(EventStream(8, 8, [1], [2], [-1], [77]), p)
        raw = p.read_bytes()
        assert len(raw) == 16 + 13  # header + one record
        assert raw[:4] == b"EVB1"

    def test_empty_stream_is_header_only(self, tmp_path):
        p = tmp_path / "ev.evb"
        write_events(EventStream.empty(346, 260), p)
        assert len(p.read_bytes()) == 16
        assert len(read_events(p)) == 0

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "ev.evb"
        p.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(FormatError, match="magic"):
            read_events(p)

    def test_timestamp_range_edge(self, tmp_path):
        p = tmp_path / "ev.evb"
        write_events(EventStream(8, 8, [1, 2], [2, 3], [-1, 1], [77, 2**63 - 1]), p)
        assert read_events(p).ts.tolist() == [77, 2**63 - 1]
        raw = bytearray(p.read_bytes())
        raw[16 + 13 + 5 :] = (2**63).to_bytes(8, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="exceeds signed 64-bit range"):
            read_events(p)

    @pytest.mark.parametrize("size", [0, 4, 15])
    def test_file_shorter_than_the_header(self, tmp_path, size):
        p = tmp_path / "ev.evb"
        write_events(small_stream(), p)
        p.write_bytes(p.read_bytes()[:size])
        for read in (read_events, events._EvbSource):
            with pytest.raises(FormatError, match="truncated EVB header"):
                read(p)
        assert main(["encode", "--events", str(p), "--td-us", "100", "--dt-us", "50",
                     "--out", str(tmp_path / "s.pfm")]) == 2

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "ev.evb"
        write_events(EventStream(8, 8, [1], [2], [-1], [77]), p)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(FormatError, match="size mismatch"):
            read_events(p)


@pytest.mark.parametrize("fmt", ["csv", "evb"])
def test_round_trip_random_stream(tmp_path, fmt):
    stream = make_random_stream(np.random.default_rng(7), n_events=2000)
    path = tmp_path / f"ev.{fmt}"
    write_events(stream, path)
    assert read_events(path) == stream


@pytest.mark.parametrize("fmt", ["csv", "evb"])
def test_round_trip_empty_stream(tmp_path, fmt):
    stream = EventStream.empty(32, 24)
    path = tmp_path / f"ev.{fmt}"
    write_events(stream, path)
    assert read_events(path) == stream


# Records per chunk of the EVB reader and writer: files of 0, 1, CHUNK - 1,
# CHUNK, CHUNK + 1 and 2 * CHUNK + 3 records end inside, at and past a chunk.
CHUNK = events._EVB_CHUNK
CHUNK_LENGTHS = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]
REFERENCE_RECORD = np.dtype([("x", "<u2"), ("y", "<u2"), ("p", "i1"), ("t", "<u8")])


def reference_evb_bytes(width, height, xs, ys, ps, ts):
    """EVB bytes as one whole-stream record array copied out by tobytes()."""
    rec = np.empty(len(ts), dtype=REFERENCE_RECORD)
    rec["x"] = xs
    rec["y"] = ys
    rec["p"] = ps
    rec["t"] = ts
    return struct.pack("<4sHHQ", b"EVB1", width, height, len(ts)) + rec.tobytes()


def chunk_columns(n, seed=0):
    """Valid columns of a 40x30 stream with repeated timestamps."""
    rng = np.random.default_rng([seed, n])
    xs = rng.integers(0, 40, n).astype(np.int32)
    ys = rng.integers(0, 30, n).astype(np.int32)
    ps = rng.choice(np.array([-1, 1], dtype=np.int8), n)
    ts = np.cumsum(rng.integers(0, 3, n)).astype(np.int64) + 2**40
    return xs, ys, ps, ts


class TestEvbChunks:
    @pytest.mark.parametrize("n", CHUNK_LENGTHS)
    def test_round_trip_matches_reference_bytes(self, tmp_path, n):
        cols = chunk_columns(n)
        stream = EventStream(40, 30, *cols)
        path = tmp_path / "ev.evb"
        write_events(stream, path)
        assert path.read_bytes() == reference_evb_bytes(40, 30, *cols)
        back = read_events(path)
        assert back == stream
        for name, dtype in (("xs", np.int32), ("ys", np.int32), ("ps", np.int8), ("ts", np.int64)):
            a = getattr(back, name)
            assert a.dtype == dtype
            assert a.flags.c_contiguous and not a.flags.writeable

    def _read_edited(self, tmp_path, n, edits):
        cols = dict(zip(("xs", "ys", "ps", "ts"), chunk_columns(n)))
        cols["ts"] = cols["ts"].astype(np.uint64)
        for name, changes in edits.items():
            for i, value in changes.items():
                cols[name][i] = value
        path = tmp_path / "ev.evb"
        path.write_bytes(reference_evb_bytes(40, 30, **cols))
        with pytest.raises((FormatError, OrderingError)) as info:
            read_events(path)
        return path, cols, info

    def test_bad_polarity_past_the_first_chunk(self, tmp_path):
        path, _, info = self._read_edited(
            tmp_path, 2 * CHUNK + 3, {"ps": {CHUNK + 5: 0, 2 * CHUNK + 1: 3}})
        assert type(info.value) is FormatError
        assert str(info.value) == f"{path}: record {CHUNK + 5}: polarity must be -1 or +1, got 0"

    def test_regressing_timestamp_at_a_chunk_start(self, tmp_path):
        n = 2 * CHUNK + 3
        t_prev = int(chunk_columns(n)[3][CHUNK - 1])
        path, _, info = self._read_edited(tmp_path, n, {"ts": {CHUNK: t_prev - 1}})
        assert type(info.value) is OrderingError
        assert str(info.value) == (
            f"{path}: record {CHUNK}: timestamp {t_prev - 1} < previous {t_prev}")

    def test_timestamp_past_int64_in_the_last_chunk(self, tmp_path):
        # as int64, 2**63 would be a regressing timestamp; the range check
        # runs first, before the polarity check too
        path, _, info = self._read_edited(
            tmp_path, 2 * CHUNK + 3, {"ps": {3: 0}, "ts": {2 * CHUNK + 2: 2**63}})
        assert type(info.value) is FormatError
        assert str(info.value) == f"{path}: timestamp exceeds signed 64-bit range"

    def test_oversized_header_is_a_size_mismatch_without_allocation(self, tmp_path):
        path = tmp_path / "ev.evb"
        one = reference_evb_bytes(8, 8, [1], [2], [1], [5])
        path.write_bytes(struct.pack("<4sHHQ", b"EVB1", 8, 8, 2**60) + one[16:])
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as info:
                read_events(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            f"{path}: size mismatch, header declares {2**60} records "
            f"({16 + 13 * 2**60} bytes) but file has 29 bytes")
        assert peak < 1 << 20


# The EVB source keeps one index timestamp per STEP records; files of more
# than 2 * STEP records have index windows on both sides of an interior one.
STEP = events._INDEX_STEP


def _fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def tied_columns(seed, n, tie):
    """Columns of a 40x30 stream whose timestamps repeat with probability
    ``tie``, plus one run of equal timestamps across two index entries."""
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 40, n).astype(np.int32)
    ys = rng.integers(0, 30, n).astype(np.int32)
    ps = rng.choice(np.array([-1, 1], dtype=np.int8), n)
    gaps = np.where(rng.random(n) < tie, 0, rng.integers(1, 50, n))
    gaps[STEP - 7 : 2 * STEP + 9] = 0
    return xs, ys, ps, np.cumsum(gaps).astype(np.int64) + 100


class TestEvbSource:
    @pytest.mark.parametrize("case", BAD_RECORDS, ids=list(BAD_RECORDS))
    def test_scan_raises_what_read_events_raises(self, tmp_path, case):
        # on disk, a pixel of -1 reads as 65535 and a timestamp of -5 as 2**64 - 5
        edits, _, _ = BAD_RECORDS[case]
        cols = dict(zip(("xs", "ys", "ps", "ts"), long_columns()))
        for name, changes in edits.items():
            for i, value in changes.items():
                cols[name][i] = value
        path = tmp_path / "ev.evb"
        path.write_bytes(reference_evb_bytes(32, 24, **cols))
        with pytest.raises(Exception) as expected:
            read_events(path)
        with pytest.raises(type(expected.value)) as info:
            events._EvbSource(path)
        assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize("edits", [
        {"ps": {CHUNK + 5: 0, 2 * CHUNK + 1: 3}},
        {"ts": {CHUNK: 2**40 - 1}},
        {"ps": {3: 0}, "ts": {2 * CHUNK + 2: 2**63}},
        {"xs": {2 * CHUNK: 40}, "ps": {CHUNK + 1: 2}, "ts": {5: 0}},
        {"xs": {2 * CHUNK: 40}, "ts": {5: 0}},
    ], ids=["polarity", "order-at-chunk-start", "u64-range-first", "polarity-first", "bounds-first"])
    def test_scan_raises_the_first_fault_by_kind_across_chunks(self, tmp_path, edits):
        cols = dict(zip(("xs", "ys", "ps", "ts"), chunk_columns(2 * CHUNK + 3)))
        cols["ts"] = cols["ts"].astype(np.uint64)
        for name, changes in edits.items():
            for i, value in changes.items():
                cols[name][i] = value
        path = tmp_path / "ev.evb"
        path.write_bytes(reference_evb_bytes(40, 30, **cols))
        with pytest.raises(Exception) as expected:
            read_events(path)
        with pytest.raises(type(expected.value)) as info:
            events._EvbSource(path)
        assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize("dims", [(0, 30), (40, 0)])
    def test_bad_dims_after_the_range_check(self, tmp_path, dims):
        cols = list(chunk_columns(10))
        path = tmp_path / "ev.evb"
        path.write_bytes(reference_evb_bytes(*dims, *cols))
        with pytest.raises(ParameterError,
                           match=r"sensor (width|height) must be an integer in \[1, 65535\]"):
            events._EvbSource(path)
        cols[3] = cols[3].astype(np.uint64)
        cols[3][4] = 2**63
        path.write_bytes(reference_evb_bytes(*dims, *cols))
        with pytest.raises(FormatError, match="exceeds signed 64-bit range"):
            events._EvbSource(path)

    @pytest.mark.parametrize("name", ["wide.csv", "narrow.evb"])
    def test_bad_header_dims_name_the_file(self, tmp_path, name, capsys):
        path = tmp_path / name
        if name.endswith(".csv"):
            path.write_text("# evcsv v1 width=8 height=70000\n1,1,1,10\n")
            fault = "sensor height must be an integer in [1, 65535], got 70000"
            readers = (read_events,)
        else:
            path.write_bytes(reference_evb_bytes(0, 30, *chunk_columns(10)))
            fault = "sensor width must be an integer in [1, 65535], got 0"
            readers = (read_events, events._EvbSource)
        for read in readers:
            with pytest.raises(ParameterError, match=f"^{re.escape(f'{path}: {fault}')}$"):
                read(path)
        assert main(["slice", "--events", str(path), "--td-us", "10", "--dt-us", "5",
                     "--out", str(tmp_path / "out.evb")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {fault}\n"

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), extra=st.integers(1, STEP + 1),
           tie=st.sampled_from([0.0, 0.5, 0.99]), data=st.data())
    def test_slices_equal_in_memory_slices(self, seed, extra, tie, data):
        stream = EventStream(40, 30, *tied_columns(seed, 2 * STEP + extra, tie))
        ts = stream.ts
        # at and next to the first, two index-entry and the last timestamps,
        # and anywhere up to past the end
        t_ds = {max(0, int(ts[i]) + d) for i in (0, STEP, 2 * STEP, -1) for d in (-1, 0, 1)}
        t_ds.update(data.draw(st.lists(st.integers(0, int(ts[-1]) + 100), max_size=5)))
        window = data.draw(st.integers(1, int(ts[-1]) + 200))
        count = data.draw(st.integers(1, len(stream) + 10))
        cases = ((slice_sbt, window, SliceSpec(SliceMode.SBT, window_us=window)),
                 (slice_sbn, count, SliceSpec(SliceMode.SBN, count=count)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ev.evb")
            write_events(stream, path)
            with events._EvbSource(path) as source:
                for t_d, (cut, arg, spec) in ((t, c) for t in sorted(t_ds) for c in cases):
                    want = cut(stream, t_d, arg)
                    got = cut(source, t_d, arg)
                    assert events._slice_bounds(source, t_d, spec) == (
                        events._slice_bounds(stream, t_d, spec))
                    assert (got.t_start_us, got.t_end_us) == (want.t_start_us, want.t_end_us)
                    for name in ("xs", "ys", "ps", "ts"):
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.dtype == b.dtype and np.array_equal(a, b)
                        assert not a.flags.writeable

    @pytest.mark.parametrize("edit", ["shifted-timestamps", "bad-polarity", "truncated"])
    def test_file_changed_in_place_after_the_scan_is_a_format_error(self, tmp_path, edit):
        stream = EventStream(40, 30, *tied_columns(1, 3 * STEP, 0.3))
        path = tmp_path / "ev.evb"
        write_events(stream, path)
        t_d = int(stream.ts[2 * STEP + 10])
        fds = _fds()
        with events._EvbSource(path) as source:
            assert _fds() == fds + 1
            if edit == "truncated":
                os.truncate(path, 16 + 13 * (2 * STEP))
            else:
                xs, ys, ps, ts = (np.array(a) for a in (stream.xs, stream.ys, stream.ps, stream.ts))
                if edit == "shifted-timestamps":
                    ts += 1
                else:
                    ps[2 * STEP + 5] = 0
                with open(path, "r+b") as fh:  # same size, same inode
                    fh.write(reference_evb_bytes(40, 30, xs, ys, ps, ts))
            with pytest.raises(FormatError) as info:
                slice_sbt(source, t_d, 50)
            assert str(info.value).startswith(f"{path}: ")
        assert _fds() == fds

    def test_failed_scan_closes_the_file(self, tmp_path):
        path = tmp_path / "ev.evb"
        cols = dict(zip(("xs", "ys", "ps", "ts"), chunk_columns(CHUNK + 3)))
        cols["ps"][CHUNK + 1] = 0
        path.write_bytes(reference_evb_bytes(40, 30, **cols))
        fds = _fds()
        with pytest.raises(FormatError):
            events._EvbSource(path)
        assert _fds() == fds

    def test_empty_file_gives_empty_slices(self, tmp_path):
        path = tmp_path / "ev.evb"
        write_events(EventStream.empty(8, 8), path)
        with events._EvbSource(path) as source:
            sl = slice_sbn(source, 10, 3)
            assert (len(sl), sl.t_start_us, sl.t_end_us) == (0, 10, 10)
            assert len(slice_sbt(source, 10, 3)) == 0


class _FailPastFirstChunk:
    """A stream's column whose slices past the first chunk raise ``error``."""

    def __init__(self, column, error):
        self.column, self.error = column, error

    def __getitem__(self, key):
        if key.start >= CHUNK:
            raise self.error
        return self.column[key]


class _StreamFailingMidWrite:
    def __init__(self, stream, error):
        self.width, self.height, self._n = stream.width, stream.height, len(stream)
        self.xs, self.ys, self.ps = stream.xs, stream.ys, stream.ps
        self.ts = _FailPastFirstChunk(stream.ts, error)

    def __len__(self):
        return self._n


def _values(k, shape):
    return np.random.default_rng(k).random(shape)


def _manifest(k):
    t_d = 50_000 * (k + 1)
    record = SampleRecord(t_d_us=t_d, events_path="/data/e.evb", t_start_us=0, t_end_us=t_d,
                          proxy_path="/data/p.pfm", gt_path=None, mask_path=None, width=32,
                          height=24, empty_slice=False)
    encoder = EncoderSpec(StackLayout.TENCODE, SliceSpec(SliceMode.SBT, window_us=50_000))
    return DatasetManifest(encoder, Provenance("unspecified", 0.25, 4), (record,))


def _reports(k):
    rng = np.random.default_rng(k)
    frames = [(f"f{i}", evaluate(*make_depth_pair(rng))) for i in range(2)]
    return frames, aggregate([r for _, r in frames])


def _bench_out(path, k):
    events_path = path.parent.parent / "bench-in.evb"  # outside the directory under test
    if not events_path.exists():
        write_events(make_random_stream(np.random.default_rng(0)), events_path)
    code = main(["bench", "--events", str(events_path), "--layouts", "tencode",
                 "--repetitions", str(k + 1), "--out", str(path)])
    if code == 3:  # the CLI reports an OSError as exit 3
        raise OSError(f"bench --out {path} failed")
    assert code == 0


# Every file writer: (file name, write(path, k)); k = 0 and k = 1 write
# different contents, and each write makes at least two write calls.
WRITERS = {
    "pfm-grey": ("d.pfm", lambda p, k: write_pfm(p, _values(k, (6, 5)))),
    "pfm-colour": ("c.pfm", lambda p, k: write_pfm(p, _values(k, (6, 5, 3)))),
    "pgm8": ("g.pgm", lambda p, k: write_pgm(p, np.full((6, 5), 10 + k))),
    "pgm16": ("d.pgm", lambda p, k: save_depth_pgm16(p, 1.0 + _values(k, (6, 5)))),
    "ppm": ("s.ppm", lambda p, k: write_ppm(p, _values(k, (6, 5, 3)))),
    "mask": ("m.pgm", lambda p, k: save_mask_pgm(p, _values(k, (6, 5)) > 0.5)),
    "manifest": ("m.json", lambda p, k: save_manifest(_manifest(k), p)),
    "params": ("p.bin", lambda p, k: save_model_params(make_model_params(seed=k), p)),
    "reports-json": ("r.json", lambda p, k: write_reports_json(p, *_reports(k))),
    "reports-csv": ("r.csv", lambda p, k: write_reports_csv(p, *_reports(k))),
    "evcsv": ("e.csv", lambda p, k: write_events(make_random_stream(np.random.default_rng(k)), p)),
    "evb": ("e.evb", lambda p, k: write_events(make_random_stream(np.random.default_rng(k)), p)),
    "bench-out": ("b.json", _bench_out),
}


class _DiskFullOnSecondWrite:
    """A file whose second and later writes fail as if the disk had filled up."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError(28, "No space left on device")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


class TestAtomicWrite:
    @pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                             ids=["disk-full", "interrupt"])
    def test_failed_evb_write_keeps_the_old_file(self, tmp_path, error):
        path = tmp_path / "ev.evb"
        write_events(small_stream(), path)
        old = path.read_bytes()
        stream = _StreamFailingMidWrite(EventStream(40, 30, *chunk_columns(2 * CHUNK + 3)), error)
        with pytest.raises(type(error)):
            write_events(stream, path)
        assert path.read_bytes() == old
        assert sorted(tmp_path.iterdir()) == [path]

    def test_failed_csv_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ev.csv"
        write_events(small_stream(), path)
        old = path.read_bytes()

        def savetxt_then_fail(fh, *args, **kwargs):
            fh.write("1,2,")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(events.np, "savetxt", savetxt_then_fail)
        with pytest.raises(OSError):
            write_events(make_random_stream(np.random.default_rng(3)), path)
        assert path.read_bytes() == old
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("fmt", ["csv", "evb"])
    def test_replaces_the_target_and_leaves_nothing_else(self, tmp_path, fmt):
        path = tmp_path / f"ev.{fmt}"
        write_events(small_stream(), path)
        stream = make_random_stream(np.random.default_rng(4))
        write_events(stream, path)
        assert read_events(path) == stream
        assert sorted(tmp_path.iterdir()) == [path]

    def test_writes_through_a_symlink(self, tmp_path):
        (tmp_path / "data").mkdir()
        real = tmp_path / "data" / "ev.evb"
        write_events(small_stream(), real)
        link = tmp_path / "link.evb"
        link.symlink_to(real)
        stream = make_random_stream(np.random.default_rng(5))
        write_events(stream, link)
        assert link.is_symlink()
        assert read_events(real) == stream
        assert sorted((tmp_path / "data").iterdir()) == [real]

    def test_missing_directory_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_events(small_stream(), tmp_path / "nowhere" / "ev.evb")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("writer", WRITERS)
    def test_every_writer_keeps_the_old_files_when_a_write_fails(self, tmp_path, monkeypatch,
                                                                  writer):
        name, write = WRITERS[writer]
        out = tmp_path / "out"
        out.mkdir()
        write(out / name, 0)
        old = {p: p.read_bytes() for p in out.iterdir()}
        # every writer opens its file in imgio._atomic_write
        monkeypatch.setattr(imgio, "open", lambda *a, **kw: _DiskFullOnSecondWrite(open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError):
            write(out / name, 1)
        monkeypatch.undo()
        assert {p: p.read_bytes() for p in out.iterdir()} == old

    @pytest.mark.parametrize("writer", WRITERS)
    def test_every_writer_writes_through_a_symlink(self, tmp_path, writer):
        name, write = WRITERS[writer]
        data, links = tmp_path / "data", tmp_path / "links"
        data.mkdir()
        links.mkdir()
        write(data / name, 0)
        old = {p.name: p.read_bytes() for p in data.iterdir()}
        for file in old:
            (links / file).symlink_to(data / file)
        write(links / name, 1)
        assert all((links / file).is_symlink() for file in old)
        assert sorted(p.name for p in data.iterdir()) == sorted(old)
        assert (data / name).read_bytes() != old[name]

    @pytest.mark.parametrize("writer", WRITERS)
    def test_every_writer_reports_a_missing_directory(self, tmp_path, writer):
        name, write = WRITERS[writer]
        with pytest.raises(OSError):
            write(tmp_path / "nowhere" / name, 1)
        assert not (tmp_path / "nowhere").exists()

    @pytest.mark.parametrize("writer", [w for w in WRITERS if w != "bench-out"])  # timings vary
    def test_every_writer_writes_an_existing_fifo_in_place(self, tmp_path, writer):
        name, write = WRITERS[writer]
        (tmp_path / "ref").mkdir()
        write(tmp_path / "ref" / name, 1)
        fifo = tmp_path / name
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write(fifo, 1)
        reader.join(timeout=60)
        assert fifo.is_fifo()
        assert received == [(tmp_path / "ref" / name).read_bytes()]

    # writers of one file whose format does not follow from the suffix
    @pytest.mark.parametrize("writer", ["pfm-grey", "pfm-colour", "pgm8", "ppm", "mask",
                                        "manifest", "reports-json", "reports-csv"])
    def test_writes_a_pipe_through_its_dev_fd_path(self, tmp_path, writer):
        # /dev/fd/<n> of a pipe is what /dev/stdout is under `| jq`: a path
        # whose real path does not exist
        name, write = WRITERS[writer]
        write(tmp_path / name, 1)
        r, w = os.pipe()
        received = []
        with os.fdopen(r, "rb") as rfh:
            reader = threading.Thread(target=lambda: received.append(rfh.read()), daemon=True)
            reader.start()
            try:
                write(f"/dev/fd/{w}", 1)
            finally:
                os.close(w)
            reader.join(timeout=60)
        assert received == [(tmp_path / name).read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def test_format_inference_requires_known_suffix(tmp_path):
    with pytest.raises(ParameterError):
        read_events(tmp_path / "events.dat")
    stream = EventStream.empty(8, 8)
    write_events(stream, tmp_path / "events.dat", fmt="evb")
    assert read_events(tmp_path / "events.dat", fmt="evb") == stream


def test_format_that_contradicts_the_suffix_is_refused(tmp_path):
    stream = make_random_stream(np.random.default_rng(0), n_events=10)
    write_events(stream, tmp_path / "x.csv")
    with pytest.raises(ParameterError, match="'csv' contradicts the suffix of 'x.EVB'"):
        write_events(stream, tmp_path / "x.EVB", fmt="csv")
    with pytest.raises(ParameterError, match="'evb' contradicts the suffix of 'x.csv'"):
        read_events(tmp_path / "x.csv", fmt="evb")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def test_format_that_agrees_with_the_suffix_or_names_a_pipe(tmp_path):
    stream = make_random_stream(np.random.default_rng(0), n_events=10)
    write_events(stream, tmp_path / "x.evb", fmt="EVB")
    assert read_events(tmp_path / "x.evb") == stream
    write_events(stream, tmp_path / "x.csv")
    r, w = os.pipe()
    received = []
    with os.fdopen(r, "rb") as rfh:
        reader = threading.Thread(target=lambda: received.append(rfh.read()), daemon=True)
        reader.start()
        try:
            write_events(stream, f"/dev/fd/{w}", fmt="csv")
        finally:
            os.close(w)
        reader.join(timeout=60)
    assert received == [(tmp_path / "x.csv").read_bytes()]

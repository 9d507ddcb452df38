import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from evdepth.errors import (
    ContractError,
    DomainError,
    FormatError,
    InsufficientInputError,
    OrderingError,
    ParameterError,
)
from evdepth.events import EventStream
from evdepth.imgio import write_pgm
from evdepth.simulator import (
    MAX_FRAME_TIME_US,
    IntensityFrame,
    SimConfig,
    frame_from_pgm,
    frames_from_dir,
    simulate,
)


def ramp_frames(log_deltas, t_step=1000, base_log=0.0):
    """Per-pixel log-intensity ramp: frame k sits at base + k * delta."""
    deltas = np.asarray(log_deltas, dtype=np.float64)
    n_frames = 2 if deltas.ndim == 2 else deltas.shape[0] + 1
    frames = []
    level = np.full(deltas.shape[-2:], base_log)
    frames.append(IntensityFrame(0, np.exp(level)))
    steps = [deltas] if deltas.ndim == 2 else list(deltas)
    for k, d in enumerate(steps, start=1):
        level = level + d
        frames.append(IntensityFrame(k * t_step, np.exp(level)))
    return frames


def crossing_count_oracle(total_log_change, c):
    return math.floor(abs(total_log_change) / c)


def reference_simulate(frames, c):
    """Rows (x, y, p, t, frame-pair index) of the crossing model, emitted in
    frame-pair order and then sorted by one global stable argsort on t."""
    width = frames[0].width
    ref = np.log(frames[0].values).ravel()
    log_prev = ref.copy()
    chunks = []
    for k, (prev, cur) in enumerate(zip(frames, frames[1:])):
        log_cur = np.log(cur.values).ravel()
        t_a, t_b = prev.timestamp_us, cur.timestamp_us
        n_pos = np.maximum(np.floor((log_cur - ref) / c).astype(np.int64), 0)
        n_neg = np.maximum(np.floor((ref - log_cur) / c).astype(np.int64), 0)
        for counts, sign in ((n_pos, 1), (n_neg, -1)):
            for pix in np.flatnonzero(counts):
                for j in range(1, counts[pix] + 1):
                    level = ref[pix] + sign * j * c
                    with np.errstate(divide="ignore", invalid="ignore"):
                        frac = (level - log_prev[pix]) / (log_cur[pix] - log_prev[pix])
                    frac = np.clip(np.nan_to_num(frac, nan=1.0, posinf=1.0, neginf=1.0), 0.0, 1.0)
                    t = int(np.rint(t_a + (t_b - t_a) * frac))
                    chunks.append((pix % width, pix // width, sign, t, k))
        ref = ref + (n_pos - n_neg) * c
        log_prev = log_cur
    cols = np.array(chunks, dtype=np.int64).reshape(-1, 5)
    order = np.argsort(cols[:, 3], kind="stable")
    return cols[order]


class TestThresholdModel:
    def test_three_positive_crossings(self):
        frames = ramp_frames(np.full((1, 1), 0.35))
        stream = simulate(frames, SimConfig(0.1))
        assert len(stream) == 3
        assert set(stream.ps.tolist()) == {1}

    def test_two_negative_crossings(self):
        frames = ramp_frames(np.full((1, 1), -0.25))
        stream = simulate(frames, SimConfig(0.1))
        assert len(stream) == 2
        assert set(stream.ps.tolist()) == {-1}

    def test_constant_frames_emit_nothing(self):
        frames = [
            IntensityFrame(0, np.full((3, 3), 0.5)),
            IntensityFrame(1000, np.full((3, 3), 0.5)),
            IntensityFrame(2000, np.full((3, 3), 0.5)),
        ]
        stream = simulate(frames, SimConfig(0.1))
        assert stream == EventStream.empty(3, 3)
        assert stream.xs.dtype == np.int32 and stream.ps.dtype == np.int8

    def test_interpolated_timestamps(self):
        # crossings of 0 -> 0.35 at 0.1/0.2/0.3 over [0, 1000] us
        frames = ramp_frames(np.full((1, 1), 0.35))
        stream = simulate(frames, SimConfig(0.1))
        expected = [round(1000 * k * 0.1 / 0.35) for k in (1, 2, 3)]
        assert stream.ts.tolist() == expected

    def test_counts_match_floor_oracle_per_pixel(self):
        rng = np.random.default_rng(11)
        c = 0.1
        deltas = rng.uniform(-0.97, 0.97, (6, 5))
        # keep |delta|/C away from integers so float floor is unambiguous
        deltas = np.where(np.abs(np.abs(deltas / c) - np.round(deltas / c)) < 1e-3,
                          deltas + 0.004, deltas)
        stream = simulate(ramp_frames(deltas), SimConfig(c))
        counts = np.zeros((6, 5), dtype=int)
        np.add.at(counts, (stream.ys, stream.xs), 1)
        for y in range(6):
            for x in range(5):
                assert counts[y, x] == crossing_count_oracle(deltas[y, x], c)

    def test_reference_residual_carries_across_frame_pairs(self):
        # 0.07 + 0.07 crosses 0.1 only once, on the second pair
        frames = ramp_frames(np.array([np.full((1, 1), 0.07), np.full((1, 1), 0.07)]))
        stream = simulate(frames, SimConfig(0.1))
        assert len(stream) == 1
        assert 1000 <= stream.ts[0] <= 2000

    def test_direction_reversal_inside_band_is_silent(self):
        frames = ramp_frames(np.array([np.full((1, 1), 0.06), np.full((1, 1), -0.06)]))
        assert len(simulate(frames, SimConfig(0.1))) == 0

    def test_sign_symmetry_under_ramp_reversal(self):
        rng = np.random.default_rng(12)
        deltas = rng.uniform(0.05, 0.9, (4, 4))
        up = simulate(ramp_frames(deltas), SimConfig(0.1))
        down = simulate(ramp_frames(-deltas), SimConfig(0.1))
        assert np.array_equal(up.xs, down.xs)
        assert np.array_equal(up.ys, down.ys)
        assert np.array_equal(up.ts, down.ts)
        assert np.array_equal(up.ps, -down.ps)

    def test_timestamps_within_producing_interval(self):
        rng = np.random.default_rng(13)
        deltas = rng.uniform(-0.5, 0.5, (3, 8, 8))
        frames = ramp_frames(deltas)
        stream = simulate(frames, SimConfig(0.07))
        assert len(stream) > 0
        assert stream.ts.min() >= 0
        assert stream.ts.max() <= frames[-1].timestamp_us

    def test_doubling_c_never_increases_counts(self):
        rng = np.random.default_rng(14)
        deltas = rng.uniform(-1.0, 1.0, (2, 6, 6))
        frames = ramp_frames(deltas)
        for c in (0.05, 0.11, 0.23):
            a = simulate(frames, SimConfig(c))
            b = simulate(frames, SimConfig(2 * c))
            counts_a = np.zeros((6, 6), dtype=int)
            counts_b = np.zeros((6, 6), dtype=int)
            np.add.at(counts_a, (a.ys, a.xs), 1)
            np.add.at(counts_b, (b.ys, b.xs), 1)
            assert (counts_b <= counts_a).all()

    def test_output_is_globally_sorted_and_deterministic(self):
        rng = np.random.default_rng(15)
        deltas = rng.uniform(-0.8, 0.8, (4, 10, 10))
        frames = ramp_frames(deltas)
        a = simulate(frames, SimConfig(0.06))
        b = simulate(frames, SimConfig(0.06))
        assert (np.diff(a.ts) >= 0).all()
        assert a == b

    def test_output_arrays_are_frozen_contiguous_columns(self):
        rng = np.random.default_rng(16)
        stream = simulate(ramp_frames(rng.uniform(-0.8, 0.8, (3, 10, 10))), SimConfig(0.06))
        assert len(stream) > 0
        for name, dtype in (("xs", np.int32), ("ys", np.int32), ("ps", np.int8), ("ts", np.int64)):
            a = getattr(stream, name)
            assert a.dtype == dtype
            assert a.flags.c_contiguous and not a.flags.writeable


class TestSimulatorErrors:
    def test_single_frame(self):
        with pytest.raises(InsufficientInputError):
            simulate([IntensityFrame(0, np.ones((2, 2)))], SimConfig(0.1))

    def test_non_positive_intensity(self):
        with pytest.raises(DomainError):
            IntensityFrame(0, np.array([[1.0, 0.0]]))
        with pytest.raises(DomainError):
            IntensityFrame(0, np.array([[1.0, -2.0]]))

    def test_non_increasing_timestamps(self):
        frames = [IntensityFrame(10, np.ones((2, 2))), IntensityFrame(10, np.ones((2, 2)))]
        with pytest.raises(OrderingError):
            simulate(frames, SimConfig(0.1))

    def test_shape_drift(self):
        frames = [IntensityFrame(0, np.ones((2, 2))), IntensityFrame(10, np.ones((3, 2)))]
        with pytest.raises(ContractError):
            simulate(frames, SimConfig(0.1))

    def test_bad_threshold(self):
        # an infinite threshold would make the level step 0 * inf, a NaN
        for c in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ParameterError,
                               match=r"contrast threshold must be a real number in \(0, inf\)"):
                SimConfig(c)


class TestFrameTimes:
    @pytest.mark.parametrize(
        "t", [0.0, 50000.0, True, -1, MAX_FRAME_TIME_US + 1, 2**64, "5"],
        ids=["float-zero", "float", "bool", "negative", "past-bound", "2**64", "text"],
    )
    def test_rejected_naming_the_time(self, t):
        bounds = re.escape(f"in [0, {MAX_FRAME_TIME_US}], got {t!r}")
        with pytest.raises(ParameterError, match=f"frame timestamp must be an integer {bounds}"):
            IntensityFrame(t, np.ones((2, 2)))

    def test_numpy_integer_time_is_stored_as_int(self):
        frame = IntensityFrame(np.uint64(7), np.ones((2, 2)))
        assert frame.timestamp_us == 7 and type(frame.timestamp_us) is int

    @pytest.mark.parametrize("t_a", [0, 2**62 + 1, MAX_FRAME_TIME_US - 1, MAX_FRAME_TIME_US - 3000])
    def test_largest_time_simulates_without_overflow(self, t_a):
        rng = np.random.default_rng(t_a % 1000)
        frames = [
            IntensityFrame(t_a, np.full((6, 7), 0.05)),
            IntensityFrame(MAX_FRAME_TIME_US, np.exp(rng.uniform(-3, 3, (6, 7)))),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream = simulate(frames, SimConfig(0.01))
        assert len(stream) > 1000
        # float64 rounding may move an event up to one spacing (2**10) off its pair
        assert stream.ts.min() >= t_a - 2**10 and stream.ts.max() <= MAX_FRAME_TIME_US + 2**10


class TestPgmInput:
    def test_value_mapping_keeps_positivity(self, tmp_path):
        p = tmp_path / "000000000.pgm"
        write_pgm(p, np.array([[0, 255]], dtype=np.uint8))
        frame = frame_from_pgm(p, 0)
        assert frame.values[0, 0] == pytest.approx(1 / 256)
        assert frame.values[0, 1] == pytest.approx(1.0)

    def test_sixteen_bit_rejected(self, tmp_path):
        p = tmp_path / "f.pgm"
        write_pgm(p, np.array([[1000]], dtype=np.uint16), maxval=65535)
        with pytest.raises(FormatError):
            frame_from_pgm(p, 0)

    def test_directory_loading_by_stem(self, tmp_path):
        for t, v in ((2000, 10), (1000, 20)):
            write_pgm(tmp_path / f"{t:09d}.pgm", np.full((2, 2), v, dtype=np.uint8))
        frames = frames_from_dir(tmp_path)
        assert [f.timestamp_us for f in frames] == [1000, 2000]
        assert frames[0].values[0, 0] == pytest.approx(21 / 256)

    def test_directory_loading_by_index_file(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", np.full((2, 2), 3, dtype=np.uint8))
        write_pgm(tmp_path / "b.pgm", np.full((2, 2), 4, dtype=np.uint8))
        (tmp_path / "timestamps.txt").write_text("b.pgm,500\na.pgm,1500\n")
        frames = frames_from_dir(tmp_path)
        assert [f.timestamp_us for f in frames] == [500, 1500]
        assert frames[0].values[0, 0] == pytest.approx(5 / 256)

    def test_simulation_from_pgm_ramp(self, tmp_path):
        # PGM gray 49 -> 135: log((136)/(50)) ~ 1.0006 -> 10 events at C=0.1
        write_pgm(tmp_path / "000000000.pgm", np.full((2, 2), 49, dtype=np.uint8))
        write_pgm(tmp_path / "000001000.pgm", np.full((2, 2), 135, dtype=np.uint8))
        frames = frames_from_dir(tmp_path)
        stream = simulate(frames, SimConfig(0.1))
        per_pixel = math.floor(math.log(136 / 50) / 0.1)
        assert len(stream) == 4 * per_pixel


def pair_frames(gaps, t0=1000, seed=16, static=()):
    """Frames ``gaps`` apart whose log intensity moves by up to 0.9 per pair,
    except over the ``static`` pairs, whose two frames are equal."""
    rng = np.random.default_rng(seed)
    deltas = rng.uniform(-0.9, 0.9, (len(gaps), 6, 7))
    deltas[list(static)] = 0.0
    times = [t0] + [t0 + int(g) for g in np.cumsum(gaps)]
    level = np.cumsum(np.concatenate([np.zeros((1, 6, 7)), deltas]), axis=0)
    return [IntensityFrame(t, np.exp(v)) for t, v in zip(times, level)]


def assert_matches_reference(stream, expected):
    assert stream.xs.tolist() == expected[:, 0].tolist()
    assert stream.ys.tolist() == expected[:, 1].tolist()
    assert stream.ps.tolist() == expected[:, 2].tolist()
    assert stream.ts.tolist() == expected[:, 3].tolist()


class TestEventOrder:
    @pytest.mark.parametrize(
        "gaps",
        [
            [3, 3, 200, 3, 255],  # uint8 offsets
            [3, 3, 50_000, 3, 50_000],  # uint16 offsets
            [3, 3, 65_536, 3, 250_000],  # wider offsets
        ],
        ids=["uint8", "uint16", "wide"],
    )
    def test_matches_one_global_stable_sort(self, gaps):
        frames = pair_frames(gaps)
        expected = reference_simulate(frames, 0.05)
        assert_matches_reference(simulate(frames, SimConfig(0.05)), expected)
        # the 3 us gaps round many crossings onto the shared frame time, so
        # events of two frame pairs tie there
        t_shared = frames[1].timestamp_us
        assert set(expected[expected[:, 3] == t_shared, 4].tolist()) == {0, 1}

    def test_matches_one_global_stable_sort_past_2_pow_53_us(self):
        # float64 interpolation rounds events out of their frame pair here
        frames = pair_frames([1000, 3, 1000], t0=2**62 + 12345, seed=3)
        expected = reference_simulate(frames, 0.05)
        t_a = np.array([f.timestamp_us for f in frames])[expected[:, 4]]
        assert (expected[:, 3] < t_a).any()  # an event before its own pair
        assert_matches_reference(simulate(frames, SimConfig(0.05)), expected)


class TestPairLayout:
    """Each frame pair's events land in their own exact-size span of the
    output columns; pairs without events leave no gap."""

    @pytest.mark.parametrize("gaps", [[200, 255, 7], [50_000, 3, 9_000], [65_536, 3, 250_000]],
                             ids=["uint8", "uint16", "wide"])
    @pytest.mark.parametrize("static", [(1,), (0,), (2,), (0, 1)],
                             ids=["middle", "first", "last", "all-but-last"])
    def test_static_pairs_match_the_reference(self, gaps, static):
        frames = pair_frames(gaps, seed=21, static=static)
        expected = reference_simulate(frames, 0.05)
        assert len(expected) > 0
        assert not set(expected[:, 4].tolist()) & set(static)
        assert_matches_reference(simulate(frames, SimConfig(0.05)), expected)

    def test_single_event(self):
        level = np.zeros((3, 4))
        moved = level.copy()
        moved[2, 1] = -0.15
        frames = [IntensityFrame(t, np.exp(v)) for t, v in ((0, level), (100, level), (300, moved))]
        stream = simulate(frames, SimConfig(0.1))
        assert stream.xs.tolist() == [1] and stream.ys.tolist() == [2]
        assert stream.ps.tolist() == [-1] and stream.ts.tolist() == [round(100 + 200 / 1.5)]
        assert_matches_reference(stream, reference_simulate(frames, 0.1))

    @pytest.mark.parametrize(
        "c, a, b",
        [
            (0.10949625377634516, 0.3265868077751034, 0.40654242686286385),
            (0.37018589558540355, 0.11058632443463207, 1.47600988407796),
            (0.3334169775664898, 0.3458320964712478, 0.9403050272127711),
        ],
        ids=["nan", "-inf", "inf"],
    )
    def test_crossing_on_a_pixel_that_did_not_move(self, c, a, b):
        # after the first pair the reference sits a rounding error more than
        # C from b, so the second, static pair fires once at that pixel: its
        # crossing fraction is a division by a zero span and means the pair's end
        rng = np.random.default_rng(22)
        first, second = rng.uniform(0.2, 1.0, (2, 3, 4))
        first[1, 2], second[1, 2] = a, b
        third = second * rng.uniform(0.5, 1.5, (3, 4))
        third[1, 2] = b
        frames = [IntensityFrame(t, v) for t, v in zip((0, 1000, 2000), (first, second, third))]
        expected = reference_simulate(frames, c)
        at_pixel = (expected[:, 0] == 2) & (expected[:, 1] == 1)
        assert expected[at_pixel & (expected[:, 4] == 1), 3].tolist() == [2000]
        assert_matches_reference(simulate(frames, SimConfig(c)), expected)

    def test_too_small_threshold_is_a_parameter_error(self):
        frames = [IntensityFrame(0, np.full((2, 2), 1e-300)),
                  IntensityFrame(10, np.full((2, 2), 1e300))]
        with pytest.raises(ParameterError, match="contrast threshold 1e-17 is too small"):
            simulate(frames, SimConfig(1e-17))
        # a log change over a subnormal threshold is past float range: no
        # overflow warning, the same error
        frames = [IntensityFrame(0, np.full((2, 2), 0.5)), IntensityFrame(10, np.ones((2, 2)))]
        with pytest.raises(ParameterError, match="contrast threshold 1e-320 is too small"):
            simulate(frames, SimConfig(1e-320))

    @pytest.mark.parametrize("c, events", [(5e-18, "1.774e+19"), (1e-14, "8.872e+15")],
                             ids=["past-int64", "past-memory"])
    def test_more_events_than_fit_in_memory_is_a_parameter_error(self, c, events):
        # 16 pixels each crossing log(256) / C levels: the first total would
        # wrap an int64 sum; the second needs a 35 PB int32 column, more than
        # any address space holds, so nothing is allocated either way
        frames = [IntensityFrame(0, np.full((4, 4), 1 / 256)), IntensityFrame(10, np.ones((4, 4)))]
        with pytest.raises(ParameterError, match=f"gives {re.escape(events)} events, more than fit"):
            simulate(frames, SimConfig(c))


def test_traced_peak_stays_near_the_output_size():
    """The columns are allocated once; per-pair scratch is small against them."""
    rng = np.random.default_rng(23)
    frames = ramp_frames(rng.uniform(-0.6, 0.6, (40, 48, 64)))
    tracemalloc.start()
    try:
        stream = simulate(frames, SimConfig(0.05))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(getattr(stream, name).nbytes for name in ("xs", "ys", "ps", "ts"))
    assert len(stream) > 100_000
    assert peak <= 1.5 * nbytes

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_stream
from evdepth.errors import BuildError, DegenerateIntervalError, FormatError, ParameterError
from evdepth.events import EventStream, slice_sbt
from evdepth.imgio import read_pfm, read_ppm, write_pfm
from evdepth.stacks import (
    StackLayout,
    encode,
    encode_image_like,
    encode_tencode,
    encode_voxel,
    load_stack_pfms,
    save_stack_pfm,
    save_stack_ppm,
)

# --- scalar reference implementations (kept independent of the encoders) ---


def voxel_oracle(sl, bins):
    grid = np.zeros((sl.height, sl.width, bins))
    duration = sl.t_end_us - sl.t_start_us
    for x, y, p, t in zip(sl.xs, sl.ys, sl.ps, sl.ts):
        b_star = (int(t) - sl.t_start_us) / duration * (bins - 1)
        left = math.floor(b_star)
        frac = b_star - left
        grid[y, x, left] += p * (1.0 - frac)
        if frac > 0:
            grid[y, x, left + 1] += p * frac
    return grid


def image_like_oracle(sl):
    stack = np.zeros((sl.height, sl.width, 3))
    for x, y, p, _ in zip(sl.xs, sl.ys, sl.ps, sl.ts):
        stack[y, x, 0 if p > 0 else 2] = 1.0
    return stack


def tencode_oracle(sl):
    stack = np.zeros((sl.height, sl.width, 3))
    last = {}
    for x, y, p, t in zip(sl.xs, sl.ys, sl.ps, sl.ts):
        last[(int(y), int(x))] = (int(p), int(t))
    if last:
        duration = sl.t_end_us - sl.t_start_us
        for (y, x), (p, t) in last.items():
            g = (sl.t_end_us - t) / duration
            stack[y, x] = (1.0, g, 0.0) if p > 0 else (0.0, g, 1.0)
    return stack


def one_event_slice(x, y, p, t, t_start, t_end, width=8, height=8):
    stream = EventStream(width, height, [x], [y], [p], [t])
    return slice_sbt(stream, t_end, t_end - t_start)


class TestVoxel:
    def test_event_at_t_start_fills_bin_zero(self):
        sl = one_event_slice(1, 2, 1, 100, 100, 200)
        stack = encode_voxel(sl, 5)
        assert stack.values[2, 1, 0] == 1.0
        assert stack.values.sum() == 1.0

    def test_event_at_midpoint_lands_on_bin_two(self):
        # b* = 0.5 * (5 - 1) = 2.0 exactly: bin 2 gets full weight
        sl = one_event_slice(1, 1, 1, 150, 100, 200)
        stack = encode_voxel(sl, 5)
        assert stack.values[1, 1, 2] == 1.0
        assert np.count_nonzero(stack.values) == 1

    def test_fractional_position_splits_between_adjacent_bins(self):
        # b* = 0.3 * 4 = 1.2: bin 1 gets 0.8, bin 2 gets 0.2
        sl = one_event_slice(0, 0, 1, 130, 100, 200)
        stack = encode_voxel(sl, 5)
        assert stack.values[0, 0, 1] == pytest.approx(0.8)
        assert stack.values[0, 0, 2] == pytest.approx(0.2)

    def test_event_at_t_end_fills_last_bin(self):
        sl = one_event_slice(0, 0, -1, 200, 100, 200)
        stack = encode_voxel(sl, 5)
        assert stack.values[0, 0, 4] == -1.0

    def test_single_bin_accumulates_everything(self):
        stream = make_random_stream(np.random.default_rng(0), n_events=200)
        sl = slice_sbt(stream, 1_000_000, 1_000_000)
        stack = encode_voxel(sl, 1)
        assert stack.values.shape[2] == 1
        assert stack.values.sum() == pytest.approx(sl.ps.sum(), abs=1e-9)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        stream = make_random_stream(rng, n_events=10_000)
        sl = slice_sbt(stream, 700_000, 400_000)
        stack = encode_voxel(sl, 5)
        assert np.abs(stack.values - voxel_oracle(sl, 5)).max() <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bins=st.integers(1, 9))
    def test_conservation_and_locality(self, seed, bins):
        rng = np.random.default_rng(seed)
        stream = make_random_stream(rng, n_events=300)
        sl = slice_sbt(stream, 1_000_000, 1_000_000)
        stack = encode_voxel(sl, bins)
        assert abs(stack.values.sum() - sl.ps.sum()) <= 1e-9
        # locality: any single event touches at most 2 adjacent bins
        if len(sl):
            single = one_event_slice(
                int(sl.xs[0]),
                int(sl.ys[0]),
                int(sl.ps[0]),
                int(sl.ts[0]),
                sl.t_start_us,
                sl.t_end_us,
                width=sl.width,
                height=sl.height,
            )
            lit = np.flatnonzero(encode_voxel(single, bins).values[int(sl.ys[0]), int(sl.xs[0])])
            assert 1 <= len(lit) <= 2
            if len(lit) == 2:
                assert lit[1] == lit[0] + 1

    def test_empty_slice_is_zero_stack(self):
        sl = slice_sbt(EventStream.empty(4, 4), 100, 50)
        stack = encode_voxel(sl, 5)
        assert stack.values.shape == (4, 4, 5)
        assert not stack.values.any()

    def test_zero_bins_rejected(self):
        sl = one_event_slice(0, 0, 1, 100, 50, 100)
        with pytest.raises(ParameterError):
            encode_voxel(sl, 0)

    @pytest.mark.parametrize("bins", [True, 2.5, "5"])
    def test_non_integer_bins_rejected(self, bins):
        sl = one_event_slice(0, 0, 1, 100, 50, 100)
        message = f"bin count must be an integer >= 1, got {bins!r}"
        with pytest.raises(ParameterError, match=message):
            encode_voxel(sl, bins)

    def test_degenerate_interval_rejected(self):
        stream = EventStream(8, 8, [0], [0], [1], [100])
        sl = slice_sbt(stream, 100, 50)
        degenerate = type(sl)(8, 8, sl.xs, sl.ys, sl.ps, sl.ts, 100, 100)
        with pytest.raises(DegenerateIntervalError):
            encode_voxel(degenerate, 5)


class TestImageLike:
    def test_empty_slice(self):
        sl = slice_sbt(EventStream.empty(4, 4), 100, 50)
        assert not encode_image_like(sl).values.any()

    def test_single_positive_event(self):
        sl = one_event_slice(2, 3, 1, 80, 50, 100)
        stack = encode_image_like(sl)
        assert stack.values[3, 2].tolist() == [1.0, 0.0, 0.0]
        assert stack.values.sum() == 1.0

    def test_both_polarities_on_one_pixel(self):
        stream = EventStream(4, 4, [2, 2], [1, 1], [1, -1], [60, 70])
        stack = encode_image_like(slice_sbt(stream, 100, 50))
        assert stack.values[1, 2].tolist() == [1.0, 0.0, 1.0]

    def test_matches_presence_oracle(self):
        stream = make_random_stream(np.random.default_rng(2), n_events=5000)
        sl = slice_sbt(stream, 900_000, 850_000)
        assert np.array_equal(encode_image_like(sl).values, image_like_oracle(sl))

    def test_permutation_invariance_via_green_channel(self):
        stack = encode_image_like(
            slice_sbt(make_random_stream(np.random.default_rng(3)), 1_000_000, 1_000_000)
        )
        assert not stack.values[:, :, 1].any()
        assert set(np.unique(stack.values)) <= {0.0, 1.0}

    def test_event_order_within_slice_is_irrelevant(self):
        # same event set, different insertion order for equal timestamps
        rng = np.random.default_rng(9)
        n = 500
        xs = rng.integers(0, 8, n)
        ys = rng.integers(0, 8, n)
        ps = rng.choice(np.array([-1, 1], dtype=np.int8), n)
        ts = np.full(n, 777)
        perm = rng.permutation(n)
        a = EventStream(8, 8, xs, ys, ps, ts)
        b = EventStream(8, 8, xs[perm], ys[perm], ps[perm], ts)
        stack_a = encode_image_like(slice_sbt(a, 1000, 1000))
        stack_b = encode_image_like(slice_sbt(b, 1000, 1000))
        assert np.array_equal(stack_a.values, stack_b.values)


class TestTencode:
    def test_event_at_reference_time(self):
        sl = one_event_slice(1, 1, 1, 100, 50, 100)
        assert encode_tencode(sl).values[1, 1].tolist() == [1.0, 0.0, 0.0]

    def test_negative_event_at_window_start(self):
        sl = one_event_slice(2, 3, -1, 50, 50, 100)
        assert encode_tencode(sl).values[3, 2].tolist() == [0.0, 1.0, 1.0]

    def test_later_event_overwrites(self):
        stream = EventStream(4, 4, [1, 1], [1, 1], [1, -1], [60, 80])
        stack = encode_tencode(slice_sbt(stream, 100, 50))
        assert stack.values[1, 1].tolist() == [0.0, (100 - 80) / 50, 1.0]

    def test_same_timestamp_tie_later_record_wins(self):
        stream = EventStream(4, 4, [1, 1], [1, 1], [1, -1], [80, 80])
        stack = encode_tencode(slice_sbt(stream, 100, 50))
        assert stack.values[1, 1, 2] == 1.0 and stack.values[1, 1, 0] == 0.0

    def test_matches_last_event_oracle(self):
        stream = make_random_stream(np.random.default_rng(4), n_events=8000)
        sl = slice_sbt(stream, 800_000, 700_000)
        assert np.array_equal(encode_tencode(sl).values, tencode_oracle(sl))

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 2), st.sampled_from([-1, 1]), st.integers(0, 12)
            ),
            min_size=1,
            max_size=120,
        ),
        window=st.integers(1, 14),
    )
    def test_matches_oracle_with_repeats_and_equal_timestamps(self, data, window):
        # 12 pixels and 13 timestamps: most pixels fire many times, often at one timestamp
        data.sort(key=lambda e: e[3])  # stable: equal timestamps keep their drawn order
        xs, ys, ps, ts = zip(*data)
        sl = slice_sbt(EventStream(4, 3, xs, ys, ps, ts), 12, window)
        assert np.array_equal(encode_tencode(sl).values, tencode_oracle(sl))

    def test_channel_scheme_invariant(self):
        sl = slice_sbt(make_random_stream(np.random.default_rng(5)), 1_000_000, 1_000_000)
        v = encode_tencode(sl).values
        r, g, b = v[:, :, 0], v[:, :, 1], v[:, :, 2]
        lit = (r + b) > 0
        assert set(np.unique(r)) <= {0.0, 1.0} and set(np.unique(b)) <= {0.0, 1.0}
        assert not (r.astype(bool) & b.astype(bool)).any()
        assert (g >= 0).all() and (g <= 1).all()
        assert not g[~lit].any()

    def test_timestamp_recoverable_from_green(self):
        rng = np.random.default_rng(6)
        stream = make_random_stream(rng, n_events=3000)
        sl = slice_sbt(stream, 1_000_000, 900_000)
        stack = encode_tencode(sl)
        last = {}
        for x, y, _, t in zip(sl.xs, sl.ys, sl.ps, sl.ts):
            last[(int(y), int(x))] = int(t)
        for (y, x), t_true in last.items():
            g = stack.values[y, x, 1]
            t_rec = sl.t_end_us - g * (sl.t_end_us - sl.t_start_us)
            assert abs(t_rec - t_true) <= 1.0

    def test_empty_slice_is_zero_stack(self):
        sl = slice_sbt(EventStream.empty(4, 4), 100, 50)
        assert not encode_tencode(sl).values.any()

    def test_purity_bit_identical(self):
        sl = slice_sbt(make_random_stream(np.random.default_rng(7)), 1_000_000, 500_000)
        for fn in (encode_tencode, encode_image_like, lambda s: encode_voxel(s, 5)):
            a, b = fn(sl), fn(sl)
            assert np.array_equal(a.values, b.values)


class TestExport:
    def test_ppm_rejects_voxel(self, tmp_path):
        sl = one_event_slice(0, 0, 1, 80, 50, 100)
        with pytest.raises(ParameterError):
            save_stack_ppm(encode_voxel(sl, 5), tmp_path / "v.ppm")

    def test_tencode_ppm_quantization(self, tmp_path):
        sl = one_event_slice(1, 1, 1, 75, 50, 100)
        save_stack_ppm(encode_tencode(sl), tmp_path / "t.ppm")
        img = read_ppm(tmp_path / "t.ppm")
        assert img[1, 1].tolist() == [255, 128, 0]  # G = 0.5 -> 128 half-up

    def test_three_channel_pfm_single_file(self, tmp_path):
        sl = one_event_slice(1, 1, 1, 75, 50, 100)
        stack = encode_tencode(sl)
        paths = save_stack_pfm(stack, tmp_path / "t.pfm")
        assert [p.name for p in paths] == ["t.pfm"]
        assert np.array_equal(read_pfm(paths[0]), stack.values)

    def test_voxel_pfm_one_file_per_channel(self, tmp_path):
        stream = make_random_stream(np.random.default_rng(8), n_events=50)
        stack = encode_voxel(slice_sbt(stream, 1_000_000, 1_000_000), 5)
        paths = save_stack_pfm(stack, tmp_path / "v.pfm")
        assert [p.name for p in paths] == [f"v.c{k}.pfm" for k in range(5)]
        for k, p in enumerate(paths):
            got = read_pfm(p)
            want = stack.values[:, :, k].astype(np.float32).astype(np.float64)
            assert np.array_equal(got, want)

    def test_load_stack_pfms_inverts_save(self, tmp_path):
        stream = make_random_stream(np.random.default_rng(9), n_events=200)
        sl = slice_sbt(stream, 1_000_000, 1_000_000)
        voxel, tencode = encode_voxel(sl, 5), encode_tencode(sl)
        save_stack_pfm(voxel, tmp_path / "b.pfm")
        save_stack_pfm(tencode, tmp_path / "a.pfm")
        write_pfm(tmp_path / "c.pfm", tencode.values[:, :, 1])
        loaded = load_stack_pfms(tmp_path)
        assert [stem for stem, _ in loaded] == ["a", "b", "c"]
        wants = (tencode.values, voxel.values, tencode.values[:, :, 1:2])
        for (_, got), want in zip(loaded, wants):
            assert np.array_equal(got, want.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda d: (d / "v.c2.pfm").unlink(),
            lambda d: write_pfm(d / "v.pfm", np.zeros((24, 32, 3))),
            lambda d: write_pfm(d / "v.c4.pfm", np.zeros((24, 16))),
            lambda d: write_pfm(d / "v.c4.pfm", np.zeros((24, 32, 3))),
        ],
        ids=["missing-channel", "whole-and-split", "size-mismatch", "color-channel"],
    )
    def test_load_stack_pfms_rejects_broken_channel_sets(self, tmp_path, damage):
        stream = make_random_stream(np.random.default_rng(10), n_events=50)
        save_stack_pfm(encode_voxel(slice_sbt(stream, 1_000_000, 1_000_000), 5), tmp_path / "v.pfm")
        damage(tmp_path)
        with pytest.raises(FormatError):
            load_stack_pfms(tmp_path)

    @pytest.mark.parametrize("stem, shape", [("000", (4, 4, 3)), ("000.c0", (4, 4))])
    def test_load_stack_pfms_rejects_a_stem_in_two_suffix_cases(self, tmp_path, stem, shape):
        write_pfm(tmp_path / f"{stem}.pfm", np.zeros(shape))
        write_pfm(tmp_path / f"{stem}.PFM", np.ones(shape))
        with pytest.raises(BuildError, match=f"ambiguous stack files for '{stem}'"):
            load_stack_pfms(tmp_path)

    def test_dispatcher(self):
        sl = one_event_slice(0, 0, 1, 80, 50, 100)
        assert encode(sl, StackLayout.VOXEL, bins=3).channels == 3
        assert encode(sl, StackLayout.IMAGE_LIKE).layout is StackLayout.IMAGE_LIKE
        assert encode(sl, StackLayout.TENCODE).layout is StackLayout.TENCODE

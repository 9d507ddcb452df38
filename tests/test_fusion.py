import hashlib
import math
import weakref

import numpy as np
import pytest

from evdepth import fusion
from evdepth.errors import ContractError, DomainError, ParameterError
from evdepth.fusion import (
    FeaturePyramid,
    ModelParams,
    bilinear_up2,
    conv2d_same,
    convlstm_step,
    depth_head,
    fuse,
    load_model_params,
    make_model_params,
    run_sequence,
    save_model_params,
    toy_extractor,
)


def sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def zero_params(scales=(4, 8, 16), channels=(16, 32, 64)) -> ModelParams:
    kernels = {s: np.zeros((3, 3, 2 * c, 4 * c)) for s, c in zip(scales, channels)}
    biases = {s: np.zeros(4 * c) for s, c in zip(scales, channels)}
    projections = {s: np.zeros((c, cf)) for s, c, cf in zip(scales[1:], channels[1:], channels)}
    return ModelParams(
        tuple(scales), tuple(channels), kernels, biases, projections, np.zeros(channels[0]), 0.0
    )


def naive_conv(x, kernel):
    """Scalar oracle: zero-padded 'same' convolution, one tap at a time."""
    kh, kw, c_in, c_out = kernel.shape
    h, w = x.shape[:2]
    padded = np.pad(x, ((kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    out = np.zeros((h, w, c_out))
    for y in range(h):
        for xx in range(w):
            for i in range(kh):
                for j in range(kw):
                    for c in range(c_in):
                        out[y, xx] += padded[y + i, xx + j, c] * kernel[i, j, c]
    return out


def naive_convlstm_step(features, hidden, cell, kernel, bias):
    """Scalar oracle: the ConvLSTM update, pixel by pixel and channel by channel."""
    h, w, c = features.shape
    gates = naive_conv(np.concatenate([features, hidden], axis=2), kernel) + bias
    new_hidden, new_cell = np.empty((h, w, c)), np.empty((h, w, c))
    for y in range(h):
        for x in range(w):
            for k in range(c):
                i, f, o = (sigmoid_two_branch(gates[y, x, n * c + k]) for n in range(3))
                g = math.tanh(gates[y, x, 3 * c + k])
                new_cell[y, x, k] = f * cell[y, x, k] + i * g
                new_hidden[y, x, k] = o * math.tanh(new_cell[y, x, k])
    return new_hidden, new_cell


def sigmoid_two_branch(v):
    """Scalar oracle: the overflow-free form on each side of zero."""
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


class TestSigmoid:
    def test_matches_scalar_oracle_without_warnings(self):
        special = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0, math.nan]
        x = np.concatenate([special, np.random.default_rng(12).normal(0.0, 20.0, 2000)])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = fusion._sigmoid_inplace(x.copy())
        assert math.isnan(out[len(special) - 1])
        for v, got in zip(x, out):
            if not math.isnan(v):
                want = sigmoid_two_branch(v)
                assert abs(got - want) <= 1e-15 * want, v


class TestConvLstmStep:
    def test_zero_everything_gives_zero_state(self):
        h, c = np.zeros((2, 2, 1)), np.zeros((2, 2, 1))
        h2, c2 = convlstm_step(np.zeros((2, 2, 1)), h, c, np.zeros((3, 3, 2, 4)), np.zeros(4))
        assert not h2.any() and not c2.any()

    def test_scalar_case_matches_hand_evaluation(self):
        # 1x1 spatial, 1 channel: zero padding leaves only the center tap
        kernel = np.zeros((3, 3, 2, 4))
        kernel[1, 1, 0] = [0.3, -0.2, 0.5, 0.8]  # input-feature taps per gate
        kernel[1, 1, 1] = [-0.4, 0.6, 0.1, -0.7]  # hidden taps per gate
        bias = np.array([0.05, 1.0, -0.3, 0.2])
        f_val, h_val, c_val = 0.9, -0.4, 0.25
        features = np.full((1, 1, 1), f_val)
        hidden = np.full((1, 1, 1), h_val)
        cell = np.full((1, 1, 1), c_val)
        h2, c2 = convlstm_step(features, hidden, cell, kernel, bias)

        def gate(k):
            return kernel[1, 1, 0, k] * f_val + kernel[1, 1, 1, k] * h_val + bias[k]

        i = sigmoid(gate(0))
        f = sigmoid(gate(1))
        o = sigmoid(gate(2))
        g = math.tanh(gate(3))
        c_expected = f * c_val + i * g
        h_expected = o * math.tanh(c_expected)
        assert abs(c2[0, 0, 0] - c_expected) <= 1e-12
        assert abs(h2[0, 0, 0] - h_expected) <= 1e-12

    def test_hidden_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        c_ch = 3
        kernel = rng.standard_normal((3, 3, 2 * c_ch, 4 * c_ch))
        bias = rng.standard_normal(4 * c_ch) * 3
        h = np.zeros((5, 5, c_ch))
        c = np.zeros((5, 5, c_ch))
        for _ in range(100):
            features = rng.standard_normal((5, 5, c_ch)) * 10
            h, c = convlstm_step(features, h, c, kernel, bias)
            assert (np.abs(h) < 1.0).all()

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1), (3, 5)])
    def test_matches_naive_loop(self, shape):
        rng = np.random.default_rng(18)
        c = 2
        features = rng.standard_normal(shape + (c,))
        hidden, cell = rng.uniform(-1, 1, shape + (c,)), rng.standard_normal(shape + (c,))
        kernel = rng.standard_normal((3, 3, 2 * c, 4 * c))
        bias = rng.standard_normal(4 * c)
        got = convlstm_step(features, hidden, cell, kernel, bias)
        want = naive_convlstm_step(features, hidden, cell, kernel, bias)
        for g, wt in zip(got, want):
            assert np.allclose(g, wt, rtol=0, atol=1e-12)

    def test_read_only_inputs_are_left_unchanged(self):
        rng = np.random.default_rng(19)
        c = 3
        inputs = [rng.standard_normal((4, 6, c)) for _ in range(3)]
        kernel = rng.standard_normal((3, 3, 2 * c, 4 * c))
        bias = rng.standard_normal(4 * c)
        kept = [a.copy() for a in inputs]
        for a in inputs + [kernel, bias]:
            a.flags.writeable = False
        h2, c2 = convlstm_step(*inputs, kernel, bias)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, kept))
        assert h2.flags.writeable and c2.flags.writeable

    @pytest.mark.parametrize("channel_major_state", [False, True])
    def test_state_is_channel_major_and_owns_only_its_values(self, channel_major_state):
        # hidden and cell are (H, W, C) views of fresh (C, H*W) arrays, never
        # of the (4C, H*W) gate buffer, which would stay alive with them
        rng = np.random.default_rng(20)
        h, w, c = 5, 7, 4
        features, hidden, cell = (rng.standard_normal((h, w, c)) for _ in range(3))
        if channel_major_state:
            hidden, cell = (np.ascontiguousarray(a.transpose(2, 0, 1)).transpose(1, 2, 0)
                            for a in (hidden, cell))
        kernel = rng.standard_normal((3, 3, 2 * c, 4 * c))
        for out in convlstm_step(features, hidden, cell, kernel, np.zeros(4 * c)):
            assert out.shape == (h, w, c) and out.dtype == np.float64
            assert out.strides == (8 * w, 8, 8 * h * w)
            assert out.base is not None and out.base.nbytes == 8 * c * h * w

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            convlstm_step(
                np.zeros((2, 2, 1)), np.zeros((2, 3, 1)), np.zeros((2, 2, 1)),
                np.zeros((3, 3, 2, 4)), np.zeros(4),
            )
        with pytest.raises(ContractError):
            convlstm_step(
                np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
                np.zeros((3, 3, 2, 4)), np.zeros(4),
            )
        with pytest.raises(ContractError):  # an even kernel has no centre tap
            convlstm_step(
                np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), np.zeros((2, 2, 1)),
                np.zeros((2, 2, 2, 4)), np.zeros(4),
            )


class TestConv2dSame:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5, 2))
        kernel = np.zeros((3, 3, 2, 2))
        kernel[1, 1, 0, 0] = 1.0
        kernel[1, 1, 1, 1] = 1.0
        assert np.allclose(conv2d_same(x, kernel), x, atol=1e-15)

    def test_box_kernel_matches_manual_sum(self):
        x = np.arange(9, dtype=np.float64).reshape(3, 3, 1)
        kernel = np.ones((3, 3, 1, 1))
        out = conv2d_same(x, kernel)
        assert out[1, 1, 0] == x.sum()
        assert out[0, 0, 0] == x[0:2, 0:2].sum()

    @pytest.mark.parametrize("k", [3, 5])
    def test_matches_naive_loop(self, k):
        rng = np.random.default_rng(14 + k)
        h, w, c_in, c_out = 6, 7, 3, 5
        x = rng.standard_normal((h, w, c_in))
        kernel = rng.standard_normal((k, k, c_in, c_out))
        got = conv2d_same(x, kernel)
        assert got.shape == (h, w, c_out)
        assert np.allclose(got, naive_conv(x, kernel), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1)])
    def test_single_row_or_column_matches_naive_loop(self, shape):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(shape + (3,))
        kernel = rng.standard_normal((3, 3, 3, 4))
        assert np.allclose(conv2d_same(x, kernel), naive_conv(x, kernel), rtol=0, atol=1e-12)


class TestBilinearUp2:
    def test_hand_case_two_by_two(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
        out = bilinear_up2(x)[:, :, 0]
        expected = np.array(
            [
                [1.0, 1.25, 1.75, 2.0],
                [1.5, 1.75, 2.25, 2.5],
                [2.5, 2.75, 3.25, 3.5],
                [3.0, 3.25, 3.75, 4.0],
            ]
        )
        assert np.allclose(out, expected, atol=1e-15)

    def test_constant_preserved(self):
        out = bilinear_up2(np.full((3, 5, 2), 7.0))
        assert out.shape == (6, 10, 2)
        assert np.allclose(out, 7.0)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (3, 5), (4, 4)])
    def test_matches_scalar_oracle(self, shape):
        x = np.random.default_rng(15).standard_normal(shape + (2,))

        def taps(dst, n):
            u = min(max((dst + 0.5) / 2.0 - 0.5, 0.0), n - 1.0)
            lo = math.floor(u)
            return lo, min(lo + 1, n - 1), u - lo

        h, w = shape
        want = np.empty((2 * h, 2 * w, 2))
        for y in range(2 * h):
            r0, r1, fr = taps(y, h)
            for xx in range(2 * w):
                c0, c1, fc = taps(xx, w)
                for ch in range(2):
                    top = x[r0, c0, ch] * (1 - fc) + x[r0, c1, ch] * fc
                    bottom = x[r1, c0, ch] * (1 - fc) + x[r1, c1, ch] * fc
                    want[y, xx, ch] = top * (1 - fr) + bottom * fr
        # same products and sums in the same order: equal to the last bit
        assert np.array_equal(bilinear_up2(x), want)


class TestFuse:
    def test_single_scale_passthrough(self):
        m = np.random.default_rng(2).standard_normal((4, 4, 3))
        pyramid = FeaturePyramid((4,), (m,))
        assert np.array_equal(fuse(pyramid, {}), m)

    def test_zero_coarse_contributes_nothing(self):
        rng = np.random.default_rng(3)
        fine = rng.standard_normal((4, 4, 2))
        pyramid = FeaturePyramid((2, 4), (fine, np.zeros((2, 2, 3))))
        assert np.array_equal(fuse(pyramid, {4: rng.standard_normal((3, 2))}), fine)

    def test_two_scale_hand_case(self):
        fine = np.zeros((4, 4, 1))
        coarse = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
        projection = np.array([[2.0]])
        pyramid = FeaturePyramid((1, 2), (fine, coarse))
        fused = fuse(pyramid, {2: projection})[:, :, 0]
        assert np.allclose(fused, 2.0 * bilinear_up2(coarse)[:, :, 0], atol=1e-15)

    def test_non_contiguous_scales_rejected(self):
        pyramid = FeaturePyramid((2, 8), (np.zeros((8, 8, 1)), np.zeros((2, 2, 1))))
        with pytest.raises(ContractError):
            fuse(pyramid, {8: np.zeros((1, 1))})

    def test_wrong_projection_or_head_shape_rejected(self):
        pyramid = FeaturePyramid((2, 4), (np.zeros((4, 4, 2)), np.zeros((2, 2, 3))))
        with pytest.raises(ContractError):
            fuse(pyramid, {4: np.zeros((3, 1))})
        with pytest.raises(ContractError):
            depth_head(np.zeros((4, 4, 2)), np.zeros((2, 1)), 0.0)

    def test_head_is_linear_projection(self):
        fused = np.array([[[1.0, 2.0]]])
        assert depth_head(fused, np.array([0.5, 0.25]), 1.0)[0, 0] == pytest.approx(0.5 + 0.5 + 1.0)


class TestToyExtractor:
    def test_same_seed_same_stack_bit_identical(self):
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((64, 64, 3))
        a = toy_extractor(stack, seed=5)
        b = toy_extractor(stack, seed=5)
        for ma, mb in zip(a.maps, b.maps):
            assert np.array_equal(ma, mb)

    def test_cached_embedding_gives_identical_bits(self):
        rng = np.random.default_rng(16)
        stacks = [rng.standard_normal((64, 48, 3)), rng.standard_normal((32, 64, 3))]
        calls = [(stack, seed) for seed in (1, 2) for stack in stacks]
        fusion._toy_embedding.cache_clear()
        first = [toy_extractor(stack, seed=seed).maps for stack, seed in calls]
        for _ in range(2):  # cache hits, interleaved over seeds and shapes
            for (stack, seed), maps in zip(calls[::-1], first[::-1]):
                again = toy_extractor(stack, seed=seed).maps
                assert all(a.tobytes() == b.tobytes() for a, b in zip(again, maps))
        projection, positional = fusion._toy_embedding(1, 4, 3, 16, 16, 12)
        assert not projection.flags.writeable and not positional.flags.writeable

    def test_different_seed_differs(self):
        stack = np.random.default_rng(5).standard_normal((64, 64, 3))
        a = toy_extractor(stack, seed=1)
        b = toy_extractor(stack, seed=2)
        assert not np.array_equal(a.maps[0], b.maps[0])

    def test_shapes_follow_scale_contract(self):
        stack = np.zeros((64, 48, 3))
        pyramid = toy_extractor(stack, seed=0)
        assert pyramid.scales == (4, 8, 16)
        assert [m.shape for m in pyramid.maps] == [(16, 12, 16), (8, 6, 32), (4, 3, 64)]

    def test_zero_stack_yields_positional_term_only(self):
        zero = toy_extractor(np.zeros((32, 32, 3)), seed=3)
        assert all(m.any() for m in zero.maps)  # positional term is non-zero
        # embedding is linear around the positional term
        rng = np.random.default_rng(6)
        a = rng.standard_normal((32, 32, 3))
        b = rng.standard_normal((32, 32, 3))
        ea = toy_extractor(a, seed=3)
        eb = toy_extractor(b, seed=3)
        eab = toy_extractor(a + b, seed=3)
        for ma, mb, mab, mz in zip(ea.maps, eb.maps, eab.maps, zero.maps):
            assert np.allclose(mab, ma + mb - mz, atol=1e-10)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ContractError):
            toy_extractor(np.zeros((60, 64, 3)), seed=0)

    @pytest.mark.parametrize("kwargs, named", [
        ({"scales": (0,), "channels": (4,)}, "scale"),
        ({"scales": (4.0,), "channels": (4,)}, "scale"),
        ({"channels": (16, True, 64)}, "channel count"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
    ], ids=["zero-scale", "float-scale", "bool-channels", "negative-seed", "float-seed"])
    def test_bad_integer_argument_is_parameter_error(self, kwargs, named):
        for fn in (lambda: toy_extractor(np.zeros((32, 32, 3)), **kwargs),
                   lambda: make_model_params(**kwargs)):
            with pytest.raises(ParameterError, match=f"^{named} must be an integer >= "):
                fn()

    def test_seed_has_no_upper_bound(self):
        stack = np.random.default_rng(17).standard_normal((32, 32, 3))
        depths = run_sequence([stack], lambda a: toy_extractor(a, seed=10**30),
                              make_model_params(seed=10**30))
        assert np.isfinite(depths[0]).all()


class TestRunSequence:
    def test_zero_params_give_zero_outputs(self):
        rng = np.random.default_rng(7)
        stacks = [rng.standard_normal((64, 64, 3))] * 3
        outs = run_sequence(stacks, lambda a: toy_extractor(a, seed=0), zero_params())
        assert len(outs) == 3
        for out in outs:
            assert out.shape == (16, 16)
            assert not out.any()

    def test_bit_reproducible(self):
        rng = np.random.default_rng(8)
        stacks = [rng.standard_normal((32, 32, 3)) for _ in range(5)]
        params = make_model_params(seed=1)
        extractor = lambda a: toy_extractor(a, seed=1)
        a = run_sequence(stacks, extractor, params)
        b = run_sequence(stacks, extractor, params)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_state_dependence_on_order(self):
        rng = np.random.default_rng(9)
        stack_a = rng.standard_normal((32, 32, 3))
        stack_b = rng.standard_normal((32, 32, 3))
        params = make_model_params(seed=2)
        extractor = lambda a: toy_extractor(a, seed=2)
        ab = run_sequence([stack_a, stack_b], extractor, params)
        ba = run_sequence([stack_b, stack_a], extractor, params)
        assert not np.allclose(ab[1], ba[1])
        # and a fresh-state run on the same stack differs from the warmed one
        fresh_b = run_sequence([stack_b], extractor, params)
        assert not np.allclose(ab[1], fresh_b[0])

    def test_twenty_step_desk_run_shapes_and_state_bounds(self):
        rng = np.random.default_rng(10)
        stacks = [rng.standard_normal((64, 64, 3)) for _ in range(20)]
        params = make_model_params(seed=3)
        outs = run_sequence(stacks, lambda a: toy_extractor(a, seed=3), params)
        assert len(outs) == 20
        assert all(o.shape == (16, 16) for o in outs)
        assert all(np.isfinite(o).all() for o in outs)

    def test_golden_depth_digest(self):
        # Pins every output bit of the kernels behind a seed-0 run; a rewrite
        # of any kernel must leave this digest unchanged.
        rng = np.random.default_rng(2024)
        shape = (64, 96)
        stacks = []
        for _ in range(4):  # tencode-like: R/B exclusive polarity, G recency
            lit = rng.random(shape) < 0.25
            positive = rng.random(shape) < 0.5
            values = np.zeros(shape + (3,), dtype=np.float32)
            values[:, :, 0] = lit & positive
            values[:, :, 1] = np.where(lit, rng.random(shape), 0.0)
            values[:, :, 2] = lit & ~positive
            stacks.append(values)
        depths = run_sequence(stacks, toy_extractor, make_model_params(seed=0))
        digest = hashlib.sha256(b"".join(d.astype("<f4").tobytes() for d in depths))
        assert [d.shape for d in depths] == [(16, 24)] * 4
        assert digest.hexdigest() == (
            "b1cc97e47e10f2d53df58d99afa0a1a68b85b508e2cda707983bc381259f16b7"
        )

    @pytest.mark.parametrize("case", ["nan-stack", "huge-head", "huge-kernel"])
    def test_step_whose_depth_is_not_finite_is_domain_error(self, case):
        # an overflow or a nan used to come out as an inf or nan depth map,
        # with a RuntimeWarning at most
        rng = np.random.default_rng(13)
        stacks = [rng.standard_normal((32, 32, 3)) for _ in range(2)]
        params = make_model_params(seed=0)
        if case == "nan-stack":
            stacks[1][5, 7, 0] = math.nan
        elif case == "huge-head":
            params.head_weight[:] = 1e308
        else:
            params.kernels[8][:] = 1e308
        steps = fusion._steps(iter(stacks), lambda a: toy_extractor(a, seed=0), params)
        if case == "nan-stack":
            assert np.isfinite(next(steps)).all()
        with pytest.raises(DomainError, match=f"step {int(case == 'nan-stack')}: depth is not "
                                              "finite"):
            next(steps)

    def test_shape_drift_rejected(self):
        rng = np.random.default_rng(11)
        stacks = [rng.standard_normal((32, 32, 3)), rng.standard_normal((64, 64, 3))]
        params = make_model_params(seed=0)
        with pytest.raises(ContractError, match="drift"):
            run_sequence(stacks, lambda a: toy_extractor(a, seed=0), params)


    def test_steps_take_each_stack_only_after_the_previous_depth(self):
        # the generator behind run_sequence: one stack in, one depth out, and
        # no stack is kept once its step has run
        rng = np.random.default_rng(12)
        stacks = [rng.standard_normal((32, 32, 3)) for _ in range(4)]
        params = make_model_params(seed=4)
        extractor = lambda a: toy_extractor(a, seed=4)
        alive = []  # a weak reference to each stack taken so far

        def fresh(stack):
            copy = stack.copy()
            alive.append(weakref.ref(copy))
            return copy

        depths = []
        for k, depth in enumerate(fusion._steps((fresh(s) for s in stacks), extractor, params)):
            assert len(alive) == k + 1
            assert alive[k]() is None  # freed once the extractor has run
            depths.append(depth)
        want = run_sequence(stacks, extractor, params)
        assert all(np.array_equal(a, b) for a, b in zip(depths, want, strict=True))


class TestParamsArchive:
    def test_round_trip(self, tmp_path):
        params = make_model_params(seed=9)
        save_model_params(params, tmp_path / "model.bin")
        loaded = load_model_params(tmp_path / "model.bin")
        assert loaded.scales == params.scales
        assert loaded.channels == params.channels
        for s in params.scales:
            assert np.array_equal(loaded.kernels[s], params.kernels[s])
            assert np.array_equal(loaded.biases[s], params.biases[s])
        for s in params.scales[1:]:
            assert np.array_equal(loaded.projections[s], params.projections[s])
        assert np.array_equal(loaded.head_weight, params.head_weight)
        assert loaded.head_bias == params.head_bias

    def test_loaded_params_reproduce_outputs(self, tmp_path):
        rng = np.random.default_rng(12)
        stacks = [rng.standard_normal((32, 32, 3)) for _ in range(3)]
        params = make_model_params(seed=4)
        save_model_params(params, tmp_path / "m.bin")
        loaded = load_model_params(tmp_path / "m.bin")
        extractor = lambda a: toy_extractor(a, seed=4)
        for x, y in zip(run_sequence(stacks, extractor, params), run_sequence(stacks, extractor, loaded)):
            assert np.array_equal(x, y)

    def test_numpy_integer_arguments_are_saved_as_ints(self, tmp_path):
        params = make_model_params(np.int64(3), np.array([4, 8]), (np.uint8(2), np.int32(3)))
        assert params.scales == (4, 8) and params.channels == (2, 3)
        assert all(type(n) is int for n in params.scales + params.channels)
        save_model_params(params, tmp_path / "m.bin")
        loaded = load_model_params(tmp_path / "m.bin")
        assert loaded.scales == (4, 8) and loaded.channels == (2, 3)
        assert np.array_equal(loaded.head_weight, make_model_params(3, (4, 8), (2, 3)).head_weight)

    def test_manifest_lists_names_shapes_offsets(self, tmp_path):
        import json

        params = make_model_params(seed=0)
        save_model_params(params, tmp_path / "m.bin")
        manifest = json.loads((tmp_path / "m.json").read_text())
        names = [t["name"] for t in manifest["tensors"]]
        assert "lstm.4.kernel" in names and "head.weight" in names
        offsets = [t["offset"] for t in manifest["tensors"]]
        assert offsets == sorted(offsets)
        size = sum(int(np.prod(t["shape"])) * 8 for t in manifest["tensors"])
        assert (tmp_path / "m.bin").stat().st_size == size

    def test_forget_bias_initialized_to_one(self):
        params = make_model_params(seed=0)
        for s, c in zip(params.scales, params.channels):
            bias = params.biases[s]
            assert (bias[c : 2 * c] == 1.0).all()
            assert not bias[:c].any() and not bias[2 * c :].any()

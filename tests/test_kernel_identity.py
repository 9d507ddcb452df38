"""Byte-for-byte pins of the supervision kernels, and of what they leave alone.

The reference functions below copy the kernel bodies as they stood before
``losses`` and ``metrics.evaluate`` were rewritten to work in place (argument
checks dropped, off-mask warnings silenced). Every value and gradient of the
library must match them in its float64 bytes, signed zeros included:
``np.array_equal`` would accept -0.0 for +0.0, ``tobytes`` does not.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdepth import losses, metrics, pipeline
from evdepth.errors import InsufficientSupportError
from evdepth.imgio import save_depth_pfm, save_depth_pgm16, save_mask_pgm
from evdepth.losses import AffineParams, loss_reg, loss_si, loss_total, lstsq_align
from evdepth.metrics import evaluate
from evdepth.pipeline import SampleRecord, training_step

# --- references: the kernel bodies before the rewrite -----------------------


def ref_lstsq_align(pred, target, mask):
    m = int(mask.sum())
    p = pred[mask]
    g = target[mask]
    sp = p.sum()
    spp = (p * p).sum()
    sg = g.sum()
    spg = (p * g).sum()
    det = m * spp - sp * sp
    if det <= losses._DEGENERATE_REL_TOL * m * spp:
        return AffineParams(1.0, float((g - p).mean()), degenerate=True)
    s = (m * spg - sp * sg) / det
    t = (spp * sg - sp * spg) / det
    return AffineParams(float(s), float(t))


def ref_loss_si(pred, target, mask, aff):
    m = int(mask.sum())
    residual = aff.scale * pred[mask] + aff.shift - target[mask]
    value = float((residual * residual).sum() / (2.0 * m))
    grad = np.zeros(pred.shape, dtype=np.float64)
    grad[mask] = (aff.scale / m) * residual
    return value, grad


def ref_downsample_masked(values, mask):
    h, w = values.shape
    h2, w2 = (h + 1) // 2, (w + 1) // 2
    vals = np.zeros((h2 * 2, w2 * 2), dtype=np.float64)
    vals[:h, :w] = np.where(mask, values, 0.0)
    msk = np.zeros((h2 * 2, w2 * 2), dtype=bool)
    msk[:h, :w] = mask
    blocks = vals.reshape(h2, 2, w2, 2)
    counts = msk.reshape(h2, 2, w2, 2).sum(axis=(1, 3))
    total = blocks.sum(axis=(1, 3))
    coarse_mask = counts > 0
    coarse = np.where(coarse_mask, total / np.maximum(counts, 1), 0.0)
    return coarse, coarse_mask, counts


def ref_upsample_adjoint(grad_coarse, counts, fine_mask):
    h, w = fine_mask.shape
    share = grad_coarse / np.maximum(counts, 1)
    fine = np.repeat(np.repeat(share, 2, axis=0), 2, axis=1)[:h, :w]
    return np.where(fine_mask, fine, 0.0)


def ref_tv_term(values, mask):
    n_valid = int(mask.sum())
    if n_valid == 0:
        return 0.0, np.zeros_like(values), 0
    gx = values[:, 1:] - values[:, :-1]
    vx = mask[:, 1:] & mask[:, :-1]
    gy = values[1:, :] - values[:-1, :]
    vy = mask[1:, :] & mask[:-1, :]
    term = (np.abs(gx[vx]).sum() + np.abs(gy[vy]).sum()) / n_valid
    grad = np.zeros_like(values)
    sx = np.where(vx, np.sign(gx), 0.0) / n_valid
    grad[:, 1:] += sx
    grad[:, :-1] -= sx
    sy = np.where(vy, np.sign(gy), 0.0) / n_valid
    grad[1:, :] += sy
    grad[:-1, :] -= sy
    return float(term), grad, n_valid


def ref_loss_reg(pred, target, mask, k_scales, aff):
    with np.errstate(invalid="ignore", over="ignore"):  # off-mask inf - inf
        residual = np.where(mask, aff.scale * pred + aff.shift - target, 0.0)

    levels = [(residual, mask)]
    counts = []
    for _ in range(k_scales - 1):
        coarse, coarse_mask, cnt = ref_downsample_masked(*levels[-1])
        levels.append((coarse, coarse_mask))
        counts.append(cnt)

    value = 0.0
    empty = []
    level_grads = []
    for k, (vals, msk) in enumerate(levels):
        term, grad_k, n_valid = ref_tv_term(vals, msk)
        if n_valid == 0:
            empty.append(k + 1)
        value += term
        level_grads.append(grad_k)

    grad_residual = level_grads[-1]
    for k in range(k_scales - 2, -1, -1):
        grad_residual = (
            ref_upsample_adjoint(grad_residual, counts[k], levels[k][1]) + level_grads[k]
        )
    grad = np.where(mask, aff.scale * grad_residual, 0.0)
    return float(value), grad, tuple(empty)


def ref_evaluate_pool(pred, gt, mask, align, clamp):
    n = int(mask.sum())
    g = gt[mask]
    lo, hi = clamp
    if align:
        aff = ref_lstsq_align(pred, gt, mask)
        p = aff.scale * pred[mask] + aff.shift
    else:
        p = pred[mask].copy()
    p = np.clip(p, lo, hi)

    err = p - g
    d = np.log(p) - np.log(g)
    ratio = np.maximum(p / g, g / p)
    return metrics.PixelPool(
        n=n,
        sum_abs_rel=float((np.abs(err) / g).sum()),
        sum_sq_rel=float((err * err / g).sum()),
        sum_sq_err=float((err * err).sum()),
        sum_log_diff=float(d.sum()),
        sum_sq_log_diff=float((d * d).sum()),
        n_delta1=int((ratio < 1.25).sum()),
        n_delta2=int((ratio < 1.25**2).sum()),
        n_delta3=int((ratio < 1.25**3).sum()),
    )


# --- inputs ------------------------------------------------------------------


def _bits(x):
    """float64 bytes of a scalar or an array."""
    return np.asarray(x, dtype=np.float64).tobytes()


def _mask(rng, shape, kind):
    if kind == "empty":
        return np.zeros(shape, dtype=bool)
    if kind == "full":
        return np.ones(shape, dtype=bool)
    return rng.random(shape) < rng.uniform(0.05, 0.95)


def _with_zeros(rng, values):
    """Sprinkle exact +0.0 and -0.0 over ``values``."""
    out = values.copy()
    out[rng.random(values.shape) < 0.15] = 0.0
    out[rng.random(values.shape) < 0.15] = -0.0
    return out


def _poison_off_mask(rng, values, mask):
    """Non-finite values (and zeros) where the mask is off: they must not count."""
    out = values.copy()
    off = np.flatnonzero(~mask)
    out.flat[off] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300], size=off.size)
    return out


dims = st.integers(1, 33)
mask_kinds = st.sampled_from(["empty", "full", "random", "random"])
seeds = st.integers(0, 2**32 - 1)
fixed_affines = st.sampled_from(
    [None, AffineParams(1.0, 0.0), AffineParams(1.0, -0.0), AffineParams(-0.5, 0.25),
     AffineParams(2.0, -0.0)]
)


def _pyramid_input(h, w, kind, seed):
    """A residual-like level: finite, with signed zeros, +0.0 off the mask."""
    rng = np.random.default_rng(seed)
    mask = _mask(rng, (h, w), kind)
    values = _with_zeros(rng, rng.standard_normal((h, w)))
    values[~mask] = 0.0
    return values, mask


def _pair(h, w, kind, seed, *, constant=False):
    """(pred, target, mask) with exact-zero residuals under the identity map
    and a constant prediction on request, poisoned off the mask."""
    rng = np.random.default_rng(seed)
    mask = _mask(rng, (h, w), kind)
    pred = np.full((h, w), 3.0) if constant else _with_zeros(rng, rng.uniform(-2, 8, (h, w)))
    target = np.where(rng.random((h, w)) < 0.3, pred, rng.uniform(-2, 8, (h, w)))
    return _poison_off_mask(rng, pred, mask), _poison_off_mask(rng, target, mask), mask


# --- pyramid helpers ---------------------------------------------------------


class TestPyramidHelpers:
    @settings(max_examples=200, deadline=None)
    @given(h=dims, w=dims, kind=mask_kinds, seed=seeds)
    def test_downsample_masked(self, h, w, kind, seed):
        values, mask = _pyramid_input(h, w, kind, seed)
        coarse, coarse_mask, counts = losses._downsample_masked(values, mask)
        ref, ref_mask, ref_counts = ref_downsample_masked(values, mask)
        assert coarse.tobytes() == ref.tobytes()
        assert np.array_equal(coarse_mask, ref_mask)
        assert np.array_equal(np.maximum(counts, 1), np.maximum(ref_counts, 1))

    @settings(max_examples=200, deadline=None)
    @given(h=dims, w=dims, kind=mask_kinds, seed=seeds)
    def test_upsample_adjoint(self, h, w, kind, seed):
        values, mask = _pyramid_input(h, w, kind, seed)
        rng = np.random.default_rng(seed + 1)
        _, _, counts = losses._downsample_masked(values, mask)
        _, _, ref_counts = ref_downsample_masked(values, mask)
        grad_coarse = _with_zeros(rng, rng.standard_normal(ref_counts.shape))
        grad_fine = _with_zeros(rng, rng.standard_normal((h, w)))
        grad_fine[~mask] = 0.0  # a level gradient, as _tv_term returns it
        out = grad_fine.copy()
        losses._add_upsample_adjoint(out, grad_coarse.copy(), counts)
        ref = ref_upsample_adjoint(grad_coarse, ref_counts, mask) + grad_fine
        # off the mask the sum is left for loss_reg to zero
        assert np.where(mask, out, 0.0).tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(h=dims, w=dims, kind=mask_kinds, seed=seeds)
    def test_tv_term(self, h, w, kind, seed):
        values, mask = _pyramid_input(h, w, kind, seed)
        term, grad, n_valid = losses._tv_term(values, mask)
        ref_term, ref_grad, ref_n = ref_tv_term(values, mask)
        assert _bits(term) == _bits(ref_term)
        assert grad.tobytes() == ref_grad.tobytes()
        assert n_valid == ref_n


# Block values for the order pins: 1e16 + 1 rounds back to 1e16, so sums of
# mixed magnitudes tell the grouping of the four adds apart; the zeros pin the
# sign of an all-zero block.
ORDER_VALUES = np.array([1e16, -1e16, 1.0, -1.0, 3.0, 1e-3, 0.0, -0.0])


def _order_input(h, w, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((h, w)) < 0.9
    values = rng.choice(ORDER_VALUES, size=(h, w))
    values[~mask] = 0.0
    return values, mask


class TestBlockSumOrder:
    """``_downsample_masked`` adds each 2x2 block from four strided views in
    the order numpy's ``reshape(h2, 2, w2, 2).sum(axis=(1, 3))`` uses: that
    order is numpy's, not a documented rule, so this pins it on every numpy
    the suite runs with. Odd fine dimensions take the padded path."""

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("w2", [1, 2, 3, 7, 8, 9, 320])
    @pytest.mark.parametrize("h2", [1, 2, 3, 17, 240])
    def test_matches_reshape_sum(self, h2, w2, parity):
        trim = 1 if parity == "odd" else 0
        values, mask = _order_input(2 * h2 - trim, 2 * w2 - trim, 1000 * h2 + w2 + trim)
        coarse, coarse_mask, counts = losses._downsample_masked(values, mask)
        ref, ref_mask, ref_counts = ref_downsample_masked(values, mask)
        assert coarse.tobytes() == ref.tobytes()
        assert np.array_equal(coarse_mask, ref_mask)
        assert np.array_equal(np.maximum(counts, 1), np.maximum(ref_counts, 1))

    @pytest.mark.parametrize("w2", [1, 320])
    def test_inputs_tell_the_orders_apart(self, w2):
        """The pins have power: on the 240-row inputs above, the pairwise and
        the sequential order give different bits, so either one taken for the
        other fails them."""
        values, _ = _order_input(480, 2 * w2, 1000 * 240 + w2)
        a, b = values[0::2, 0::2], values[0::2, 1::2]
        c, d = values[1::2, 0::2], values[1::2, 1::2]
        assert ((a + b) + (c + d)).tobytes() != (((a + b) + c) + d).tobytes()


# --- public kernels ----------------------------------------------------------


def _support(mask):
    return int(mask.sum())


class TestLossKernels:
    @settings(max_examples=200, deadline=None)
    @given(h=dims, w=dims, kind=mask_kinds, seed=seeds, constant=st.booleans())
    def test_lstsq_align(self, h, w, kind, seed, constant):
        pred, target, mask = _pair(h, w, kind, seed, constant=constant)
        if _support(mask) < 2:
            with pytest.raises(InsufficientSupportError):
                lstsq_align(pred, target, mask)
            return
        assert lstsq_align(pred, target, mask) == ref_lstsq_align(pred, target, mask)

    @settings(max_examples=150, deadline=None)
    @given(h=dims, w=dims, kind=mask_kinds, seed=seeds, affine=fixed_affines)
    def test_loss_si(self, h, w, kind, seed, affine):
        pred, target, mask = _pair(h, w, kind, seed)
        if _support(mask) < 2:
            with pytest.raises(InsufficientSupportError):
                loss_si(pred, target, mask, affine=affine)
            return
        aff = affine or ref_lstsq_align(pred, target, mask)
        si = loss_si(pred, target, mask, affine=affine)
        value, grad = ref_loss_si(pred, target, mask, aff)
        assert si.affine == aff
        assert _bits(si.value) == _bits(value)
        assert si.grad.tobytes() == grad.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(h=dims, w=dims, kind=mask_kinds, seed=seeds, affine=fixed_affines,
           k_scales=st.integers(1, 6))
    def test_loss_reg(self, h, w, kind, seed, affine, k_scales):
        pred, target, mask = _pair(h, w, kind, seed)
        if _support(mask) < 2:
            with pytest.raises(InsufficientSupportError):
                loss_reg(pred, target, mask, k_scales, affine=affine)
            return
        aff = affine or ref_lstsq_align(pred, target, mask)
        reg = loss_reg(pred, target, mask, k_scales, affine=affine)
        value, grad, empty = ref_loss_reg(pred, target, mask, k_scales, aff)
        assert reg.affine == aff
        assert _bits(reg.value) == _bits(value)
        assert reg.grad.tobytes() == grad.tobytes()
        assert reg.empty_scales == empty

    @settings(max_examples=150, deadline=None)
    @given(h=dims, w=dims, kind=mask_kinds, seed=seeds, affine=fixed_affines,
           k_scales=st.integers(1, 6), lam=st.sampled_from([0.0, 0.25, 1.0, -0.0]))
    def test_loss_total(self, h, w, kind, seed, affine, k_scales, lam):
        pred, target, mask = _pair(h, w, kind, seed)
        if _support(mask) < 2:
            with pytest.raises(InsufficientSupportError):
                loss_total(pred, target, mask, lam, k_scales, affine=affine)
            return
        aff = affine or ref_lstsq_align(pred, target, mask)
        report, grad = loss_total(pred, target, mask, lam, k_scales, affine=affine)
        si_value, si_grad = ref_loss_si(pred, target, mask, aff)
        reg_value, reg_grad, empty = ref_loss_reg(pred, target, mask, k_scales, aff)
        assert report.affine == aff
        assert _bits(report.l_si) == _bits(si_value)
        assert _bits(report.l_reg) == _bits(reg_value)
        assert _bits(report.total) == _bits(si_value + lam * reg_value)
        assert grad.tobytes() == (si_grad + lam * reg_grad).tobytes()
        assert report.empty_scales == empty


class TestOffMaskWarnings:
    """Non-finite values off the mask never count, so they must not make
    numpy warn either (an ``inf - inf`` in the residual used to)."""

    @pytest.mark.parametrize("shape", [(20, 27), (48, 64)])
    @pytest.mark.parametrize("affine", [None, AffineParams(-0.5, 0.25)])
    def test_loss_reg_and_loss_total_stay_silent(self, shape, affine):
        pred, target, mask = _pair(*shape, "random", 13)
        assert not np.isfinite(pred[~mask]).all() and not np.isfinite(target[~mask]).all()
        aff = affine or ref_lstsq_align(pred, target, mask)
        ref_value, ref_grad, _ = ref_loss_reg(pred, target, mask, 4, aff)
        _, si_grad = ref_loss_si(pred, target, mask, aff)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reg = loss_reg(pred, target, mask, 4, affine=affine)
            report, grad = loss_total(pred, target, mask, 0.25, 4, affine=affine)
        assert _bits(reg.value) == _bits(ref_value)
        assert reg.grad.tobytes() == ref_grad.tobytes()
        assert _bits(report.l_reg) == _bits(ref_value)
        assert grad.tobytes() == (si_grad + 0.25 * ref_grad).tobytes()


class TestEvaluateKernel:
    @settings(max_examples=200, deadline=None)
    @given(h=dims, w=dims, kind=mask_kinds, seed=seeds, align=st.booleans(),
           clamp=st.sampled_from([(1e-3, math.inf), (-math.inf, math.inf), (0.5, 4.0)]))
    def test_evaluate_pool(self, h, w, kind, seed, align, clamp):
        rng = np.random.default_rng(seed)
        mask = _mask(rng, (h, w), kind)
        gt = _poison_off_mask(rng, rng.uniform(0.5, 9.0, (h, w)), mask)
        pred = np.where(rng.random((h, w)) < 0.2, gt, rng.uniform(-1.0, 10.0, (h, w)))
        pred = _poison_off_mask(rng, _with_zeros(rng, pred), mask)
        if _support(mask) < (2 if align else 1):
            with pytest.raises(InsufficientSupportError):
                evaluate(pred, gt, mask, align=align, clamp=clamp)
            return
        with np.errstate(divide="ignore", invalid="ignore"):
            pool = evaluate(pred, gt, mask, align=align, clamp=clamp).pool
            ref = ref_evaluate_pool(pred, gt, mask, align, clamp)
        for field in ("sum_abs_rel", "sum_sq_rel", "sum_sq_err", "sum_log_diff",
                      "sum_sq_log_diff"):
            assert _bits(getattr(pool, field)) == _bits(getattr(ref, field)), field
        for field in ("n", "n_delta1", "n_delta2", "n_delta3"):
            assert getattr(pool, field) == getattr(ref, field), field


class TestMemoryLayout:
    """Fortran-ordered and strided inputs give the bytes C-ordered ones do:
    the in-place kernels must not update a copy made by ravel or reshape."""

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    @pytest.mark.parametrize("shape", [(16, 22), (15, 21)])
    def test_kernels(self, layout, shape):
        pred, target, mask = _pair(*shape, "random", 11)
        gt = np.abs(target) + 0.5
        if layout == "fortran":
            moved = [np.asfortranarray(a) for a in (pred, target, mask, gt)]
        else:
            moved = []
            for a in (pred, target, mask, gt):
                wide = np.zeros((shape[0], 2 * shape[1]), dtype=a.dtype)
                wide[:, ::2] = a
                moved.append(wide[:, ::2])
        p, t, m, g = moved
        assert not p.flags.c_contiguous
        aff = ref_lstsq_align(pred, target, mask)
        assert lstsq_align(p, t, m) == aff
        si = loss_si(p, t, m)
        assert si.grad.tobytes() == ref_loss_si(pred, target, mask, aff)[1].tobytes()
        reg = loss_reg(p, t, m)
        _, ref_grad, _ = ref_loss_reg(pred, target, mask, losses.LOSS_DEFAULTS.k_scales, aff)
        assert reg.grad.tobytes() == ref_grad.tobytes()
        _, grad = loss_total(p, t, m)
        assert grad.tobytes() == loss_total(pred, target, mask)[1].tobytes()
        with np.errstate(divide="ignore", invalid="ignore"):
            assert evaluate(p, g, m).pool == ref_evaluate_pool(pred, gt, mask, True,
                                                               (1e-3, math.inf))


# --- the caller's arrays stay the caller's ------------------------------------


def _frozen(*arrays):
    return [a.tobytes() for a in arrays]


def _assert_no_alias(grads, inputs):
    for i, g in enumerate(grads):
        for a in inputs:
            assert not np.shares_memory(g, a)
        for other in grads[i + 1:]:
            assert not np.shares_memory(g, other)


class TestInputsUntouched:
    """In-place arithmetic inside the kernels must never reach an argument:
    float64 C-contiguous inputs and bool masks pass ``np.asarray`` uncopied."""

    def _inputs(self, shape=(20, 27)):
        rng = np.random.default_rng(5)
        pred = rng.uniform(1.0, 10.0, shape)
        target = rng.uniform(1.0, 10.0, shape)
        mask = rng.random(shape) < 0.8
        pred[~mask] = np.nan  # poisoned off the mask, as real predictions may be
        assert pred.flags.c_contiguous and pred.dtype == np.float64
        return pred, target, mask

    def test_losses_and_alignment(self):
        pred, target, mask = self._inputs()
        before = _frozen(pred, target, mask)
        lstsq_align(pred, target, mask)
        si = loss_si(pred, target, mask)
        reg = loss_reg(pred, target, mask)
        reg_fixed = loss_reg(pred, target, mask, affine=AffineParams(2.0, -1.0))
        _, total_grad = loss_total(pred, target, mask)
        _, again = loss_total(pred, target, mask)
        assert _frozen(pred, target, mask) == before
        _assert_no_alias([si.grad, reg.grad, reg_fixed.grad, total_grad, again],
                         [pred, target, mask])

    @pytest.mark.parametrize("align", [True, False])
    def test_evaluate(self, align):
        pred, gt, mask = self._inputs()
        before = _frozen(pred, gt, mask)
        evaluate(pred, gt, mask, align=align)
        evaluate(pred, gt, mask, align=align, clamp=(-math.inf, math.inf))
        assert _frozen(pred, gt, mask) == before

    def test_training_step(self, tmp_path):
        pred, target, mask = self._inputs()
        pred[~mask] = 5.0
        record = _record(tmp_path, target, mask)
        before = _frozen(pred)
        step = training_step(record, pred, mode="combined")
        again = training_step(record, pred, mode="combined")
        assert _frozen(pred) == before
        assert step.grad.tobytes() == again.grad.tobytes()
        _assert_no_alias([step.grad, again.grad], [pred])


def _record(tmp_path, target, mask):
    """A record whose proxy is ``target`` and whose ground truth is ``target``
    on ``mask`` (0, invalid, elsewhere)."""
    save_depth_pfm(tmp_path / "p.pfm", target)
    save_depth_pgm16(tmp_path / "g.pgm", np.where(mask, target, 0.0))
    save_mask_pgm(tmp_path / "m.pgm", mask)
    return SampleRecord(
        t_d_us=1, events_path="", t_start_us=0, t_end_us=1,
        proxy_path=str(tmp_path / "p.pfm"), gt_path=str(tmp_path / "g.pgm"),
        mask_path=str(tmp_path / "m.pgm"), width=target.shape[1], height=target.shape[0],
        empty_slice=False,
    )


class TestTrainingStepSum:
    @pytest.mark.parametrize("mode", ["proxy", "gt", "combined"])
    def test_gradient_is_the_sum_from_zero(self, tmp_path, monkeypatch, mode):
        """The step gradient is 0.0 + g_proxy (+ g_gt) in float64 bytes: a
        -0.0 in a term's gradient comes out as +0.0, as it did when the sum
        was accumulated into a zero-filled array."""
        rng = np.random.default_rng(9)
        target = rng.uniform(1.0, 10.0, (12, 14))
        mask = rng.random(target.shape) < 0.8
        record = _record(tmp_path, target, mask)
        pred = rng.uniform(1.0, 10.0, target.shape)
        loss = pipeline.loss_total
        terms = []

        def signed_zeros(*args, **kwargs):
            report, grad = loss(*args, **kwargs)
            grad[::3, ::2] = -0.0
            terms.append(grad.copy())
            return report, grad

        monkeypatch.setattr(pipeline, "loss_total", signed_zeros)
        step = training_step(record, pred, mode=mode)
        expected = np.zeros(target.shape)
        for g in terms:
            expected += g
        assert len(terms) == (2 if mode == "combined" else 1)
        assert step.grad.tobytes() == expected.tobytes()

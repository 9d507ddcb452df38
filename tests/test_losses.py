import tracemalloc

import numpy as np
import pytest

from conftest import make_depth_pair
from evdepth import losses
from evdepth.errors import ContractError, DomainError, InsufficientSupportError, ParameterError
from evdepth.losses import (
    IDENTITY_AFFINE,
    loss_reg,
    loss_si,
    loss_total,
    lstsq_align,
)
from evdepth.metrics import evaluate

# --- independent reference implementations ---------------------------------


def lstsq_oracle(pred, target, mask):
    p = pred[mask]
    g = target[mask]
    design = np.column_stack([p, np.ones_like(p)])
    (s, t), *_ = np.linalg.lstsq(design, g, rcond=None)
    return float(s), float(t)


def si_oracle(pred, target, mask, s, t):
    total = 0.0
    m = 0
    for y in range(pred.shape[0]):
        for x in range(pred.shape[1]):
            if mask[y, x]:
                total += (s * pred[y, x] + t - target[y, x]) ** 2
                m += 1
    return total / (2 * m)


def downsample_oracle(values, mask):
    h, w = values.shape
    h2, w2 = (h + 1) // 2, (w + 1) // 2
    out = np.zeros((h2, w2))
    out_mask = np.zeros((h2, w2), dtype=bool)
    for i in range(h2):
        for j in range(w2):
            vals = [
                values[y, x]
                for y in (2 * i, 2 * i + 1)
                for x in (2 * j, 2 * j + 1)
                if y < h and x < w and mask[y, x]
            ]
            if vals:
                out[i, j] = sum(vals) / len(vals)
                out_mask[i, j] = True
    return out, out_mask


def reg_oracle(pred, target, mask, k_scales, s, t):
    values = np.where(mask, s * pred + t - target, 0.0)
    m = mask.copy()
    total = 0.0
    for k in range(k_scales):
        n_valid = int(m.sum())
        if n_valid:
            term = 0.0
            h, w = values.shape
            for y in range(h):
                for x in range(w):
                    if x + 1 < w and m[y, x] and m[y, x + 1]:
                        term += abs(values[y, x + 1] - values[y, x])
                    if y + 1 < h and m[y, x] and m[y + 1, x]:
                        term += abs(values[y + 1, x] - values[y, x])
            total += term / n_valid
        if k < k_scales - 1:
            values, m = downsample_oracle(values, m)
    return total


def fd_gradient(loss_fn, pred, step=1e-5):
    grad = np.zeros_like(pred)
    for idx in np.ndindex(pred.shape):
        bump = np.zeros_like(pred)
        bump[idx] = step
        grad[idx] = (loss_fn(pred + bump) - loss_fn(pred - bump)) / (2 * step)
    return grad


def reg_kink_exclusion(pred, target, mask, k_scales, affine, tol=1e-3):
    """Full-resolution pixels whose perturbation may cross an |.| kink at any
    pyramid level; finite differences are unreliable there."""
    values = np.where(mask, affine.scale * pred + affine.shift - target, 0.0)
    m = mask.copy()
    excluded = np.zeros(pred.shape, dtype=bool)
    block = 1
    for k in range(k_scales):
        near = np.zeros(values.shape, dtype=bool)
        gx = values[:, 1:] - values[:, :-1]
        vx = m[:, 1:] & m[:, :-1]
        nx = vx & (np.abs(gx) < tol)
        near[:, 1:] |= nx
        near[:, :-1] |= nx
        gy = values[1:, :] - values[:-1, :]
        vy = m[1:, :] & m[:-1, :]
        ny = vy & (np.abs(gy) < tol)
        near[1:, :] |= ny
        near[:-1, :] |= ny
        up = np.repeat(np.repeat(near, block, axis=0), block, axis=1)
        excluded |= up[: pred.shape[0], : pred.shape[1]]
        if k < k_scales - 1:
            values, m = downsample_oracle(values, m)
            block *= 2
    return excluded


def max_rel_error(a, b, abs_floor=1e-8):
    """Max elementwise relative error, ignoring differences below abs_floor.

    Central-difference roundoff noise sits near 1e-10 for these losses, well
    under the floor; genuine gradient defects land orders of magnitude above.
    """
    diff = np.abs(a - b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    rel = np.where(diff > abs_floor, diff / denom, 0.0)
    return float(rel.max()) if rel.size else 0.0


# --- alignment --------------------------------------------------------------


class TestLstsqAlign:
    def test_exact_fit_gives_identity(self):
        rng = np.random.default_rng(0)
        pred = rng.uniform(1, 5, (8, 8))
        aff = lstsq_align(pred, pred)
        assert aff.scale == 1.0 and aff.shift == 0.0 and not aff.degenerate

    def test_affine_recovery(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(1, 5, (16, 16))
        aff = lstsq_align(pred, 2.0 * pred + 3.0)
        assert aff.scale == pytest.approx(2.0, abs=1e-9)
        assert aff.shift == pytest.approx(3.0, abs=1e-9)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pred, target, mask = make_depth_pair(rng, (32, 32))
            aff = lstsq_align(pred, target, mask)
            s, t = lstsq_oracle(pred, target, mask)
            assert aff.scale == pytest.approx(s, abs=1e-9)
            assert aff.shift == pytest.approx(t, abs=1e-9)

    def test_constant_prediction_falls_back(self):
        target = np.arange(16.0).reshape(4, 4)
        pred = np.full((4, 4), 3.0)
        aff = lstsq_align(pred, target)
        assert aff.degenerate
        assert aff.scale == 1.0
        assert aff.shift == pytest.approx((target - pred).mean())

    def test_all_zero_prediction_falls_back(self):
        target = np.arange(16.0).reshape(4, 4)
        aff = lstsq_align(np.zeros((4, 4)), target)
        assert aff.degenerate and aff.scale == 1.0

    def test_optimality_against_perturbations(self):
        rng = np.random.default_rng(3)
        pred, target, mask = make_depth_pair(rng, (16, 16))
        aff = lstsq_align(pred, target, mask)

        def objective(s, t):
            r = s * pred[mask] + t - target[mask]
            return (r * r).sum()

        base = objective(aff.scale, aff.shift)
        for ds in (-1e-3, 0.0, 1e-3):
            for dt in (-1e-3, 0.0, 1e-3):
                assert objective(aff.scale + ds, aff.shift + dt) >= base

    def test_insufficient_support(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(InsufficientSupportError):
            lstsq_align(np.ones((4, 4)), np.ones((4, 4)), mask)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            lstsq_align(np.ones((4, 4)), np.ones((4, 5)))


# --- scale-invariant loss ----------------------------------------------------


class TestLossSi:
    def test_zero_at_affine_relation(self):
        rng = np.random.default_rng(4)
        pred = rng.uniform(1, 5, (12, 12))
        out = loss_si(pred, 3.0 * pred - 1.0)
        assert out.value <= 1e-18
        assert np.abs(out.grad).max() <= 1e-9

    def test_constant_shift_absorbed(self):
        rng = np.random.default_rng(5)
        pred = rng.uniform(1, 5, (12, 12))
        out = loss_si(pred, pred + 7.0)
        assert out.value <= 1e-18

    def test_identity_on_itself_is_exactly_zero(self):
        rng = np.random.default_rng(6)
        pred = rng.uniform(1, 5, (12, 12))
        out = loss_si(pred, pred)
        assert out.value == 0.0
        assert not out.grad.any()

    def test_value_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        pred, target, mask = make_depth_pair(rng, (16, 16))
        aff = lstsq_align(pred, target, mask)
        out = loss_si(pred, target, mask)
        assert out.value == pytest.approx(
            si_oracle(pred, target, mask, aff.scale, aff.shift), rel=1e-12
        )

    def test_align_off_uses_identity(self):
        rng = np.random.default_rng(8)
        pred, target, mask = make_depth_pair(rng, (8, 8))
        out = loss_si(pred, target, mask, affine=losses.IDENTITY_AFFINE)
        assert out.affine.scale == 1.0 and out.affine.shift == 0.0
        assert out.value == pytest.approx(si_oracle(pred, target, mask, 1.0, 0.0), rel=1e-12)

    def test_gradient_matches_fd_with_fixed_affine(self):
        rng = np.random.default_rng(9)
        pred, target, mask = make_depth_pair(rng, (8, 8))
        aff = lstsq_align(pred, target, mask)
        out = loss_si(pred, target, mask, affine=aff)
        fd = fd_gradient(lambda p: loss_si(p, target, mask, affine=aff).value, pred)
        assert max_rel_error(out.grad, fd) < 1e-4

    def test_envelope_fd_with_resolved_affine_also_matches(self):
        # the solve sits at its own optimum, so differentiating through it
        # changes nothing for this loss
        rng = np.random.default_rng(10)
        pred, target, mask = make_depth_pair(rng, (8, 8))
        out = loss_si(pred, target, mask)
        fd = fd_gradient(lambda p: loss_si(p, target, mask).value, pred)
        assert max_rel_error(out.grad, fd) < 1e-4

    def test_masked_pixels_have_no_influence(self):
        rng = np.random.default_rng(11)
        pred, target, mask = make_depth_pair(rng, (12, 12))
        out_a = loss_si(pred, target, mask)
        tampered = pred.copy()
        tampered[~mask] = rng.uniform(100, 200, (~mask).sum())
        out_b = loss_si(tampered, target, mask)
        assert out_a.value == out_b.value
        assert np.array_equal(out_a.grad, out_b.grad)
        assert out_a.affine == out_b.affine


# --- multi-scale gradient regularization -------------------------------------


class TestLossReg:
    def test_zero_at_affine_relation(self):
        rng = np.random.default_rng(12)
        pred = rng.uniform(1, 5, (16, 16))
        out = loss_reg(pred, 2.0 * pred + 1.0, k_scales=4)
        assert out.value <= 1e-12

    def test_constant_residual_is_exactly_zero(self):
        # small integers keep target + 5 exact, so R really is constant
        rng = np.random.default_rng(13)
        target = rng.integers(1, 9, (16, 16)).astype(np.float64)
        out = loss_reg(target + 5.0, target, k_scales=4, affine=losses.IDENTITY_AFFINE)
        assert out.value == 0.0
        assert not out.grad.any()

    def test_value_matches_scalar_oracle(self):
        rng = np.random.default_rng(14)
        pred, target, mask = make_depth_pair(rng, (32, 32))
        aff = lstsq_align(pred, target, mask)
        out = loss_reg(pred, target, mask, k_scales=4)
        oracle = reg_oracle(pred, target, mask, 4, aff.scale, aff.shift)
        assert out.value == pytest.approx(oracle, rel=1e-12)

    def test_value_matches_oracle_on_odd_dims(self):
        rng = np.random.default_rng(15)
        pred, target, mask = make_depth_pair(rng, (13, 11))
        aff = lstsq_align(pred, target, mask)
        out = loss_reg(pred, target, mask, k_scales=3)
        oracle = reg_oracle(pred, target, mask, 3, aff.scale, aff.shift)
        assert out.value == pytest.approx(oracle, rel=1e-12)

    def test_single_scale_is_plain_tv(self):
        rng = np.random.default_rng(16)
        pred, target, mask = make_depth_pair(rng, (8, 8))
        aff = lstsq_align(pred, target, mask)
        out = loss_reg(pred, target, mask, k_scales=1)
        assert out.value == pytest.approx(
            reg_oracle(pred, target, mask, 1, aff.scale, aff.shift), rel=1e-12
        )

    def test_gradient_matches_fd_away_from_kinks(self):
        rng = np.random.default_rng(17)
        pred, target, mask = make_depth_pair(rng, (16, 16))
        aff = lstsq_align(pred, target, mask)
        out = loss_reg(pred, target, mask, k_scales=4, affine=aff)
        fd = fd_gradient(lambda p: loss_reg(p, target, mask, k_scales=4, affine=aff).value, pred)
        keep = ~reg_kink_exclusion(pred, target, mask, 4, aff)
        assert keep.sum() > keep.size // 2
        assert max_rel_error(out.grad[keep], fd[keep]) < 1e-4

    def test_k_scales_validation(self):
        with pytest.raises(ParameterError):
            loss_reg(np.ones((4, 4)), np.zeros((4, 4)), k_scales=0)

    def test_masked_pixels_have_no_influence(self):
        rng = np.random.default_rng(18)
        pred, target, mask = make_depth_pair(rng, (16, 16))
        out_a = loss_reg(pred, target, mask)
        tampered = pred.copy()
        tampered[~mask] = -999.0
        out_b = loss_reg(tampered, target, mask)
        assert out_a.value == out_b.value
        assert np.array_equal(out_a.grad, out_b.grad)


# --- combined loss ------------------------------------------------------------


class TestLossTotal:
    def test_lambda_zero_equals_si_exactly(self):
        rng = np.random.default_rng(19)
        pred, target, mask = make_depth_pair(rng, (16, 16))
        report, grad = loss_total(pred, target, mask, lam=0.0)
        si = loss_si(pred, target, mask, affine=report.affine)
        assert report.total == si.value
        # lam = 0 scales the reg gradient away exactly
        assert np.array_equal(grad, si.grad)

    def test_perfect_affine_fit_is_zero(self):
        rng = np.random.default_rng(20)
        pred = rng.uniform(1, 5, (16, 16))
        report, _ = loss_total(pred, 0.5 * pred + 2.0)
        assert report.total <= 1e-12

    def test_composition_is_bit_exact(self):
        rng = np.random.default_rng(21)
        pred, target, mask = make_depth_pair(rng, (16, 16))
        report, grad = loss_total(pred, target, mask, lam=0.25, k_scales=4)
        si = loss_si(pred, target, mask, affine=report.affine)
        reg = loss_reg(pred, target, mask, k_scales=4, affine=report.affine)
        assert report.l_si == si.value
        assert report.l_reg == reg.value
        assert report.total == si.value + 0.25 * reg.value
        assert np.array_equal(grad, si.grad + 0.25 * reg.grad)

    def test_report_total_identity(self):
        rng = np.random.default_rng(22)
        pred, target, mask = make_depth_pair(rng, (8, 8))
        report, _ = loss_total(pred, target, mask, lam=0.7, k_scales=2)
        assert report.total == report.l_si + report.lam * report.l_reg

    def test_affine_invariance(self):
        rng = np.random.default_rng(23)
        pred, target, mask = make_depth_pair(rng, (16, 16))
        base, _ = loss_total(pred, target, mask)
        for a in (0.5, 2.0, 10.0):
            for b in (-5.0, 0.0, 7.0):
                report, _ = loss_total(a * pred + b, target, mask)
                assert report.total == pytest.approx(base.total, rel=1e-9)

    def test_total_gradient_matches_fd(self):
        rng = np.random.default_rng(24)
        pred, target, mask = make_depth_pair(rng, (16, 16))
        aff = lstsq_align(pred, target, mask)
        report, grad = loss_total(pred, target, mask, lam=0.25, k_scales=4, affine=aff)
        fd = fd_gradient(
            lambda p: loss_total(p, target, mask, lam=0.25, k_scales=4, affine=aff)[0].total, pred
        )
        keep = ~reg_kink_exclusion(pred, target, mask, 4, aff)
        assert max_rel_error(grad[keep], fd[keep]) < 1e-4

    def test_insufficient_support_propagates(self):
        mask = np.zeros((4, 4), dtype=bool)
        with pytest.raises(InsufficientSupportError):
            loss_total(np.ones((4, 4)), np.ones((4, 4)), mask)

    def test_k_scales_is_checked_first(self):
        # an integer parameter is checked before the pair: a bad k_scales is
        # reported where the pair has too few valid pixels, or where its
        # residuals of 1e200 are finite but their squares are not
        pred = np.ones((4, 4))
        one_pixel = np.zeros((4, 4), dtype=bool)
        one_pixel[1, 2] = True
        for p, target, mask in ((pred, pred, one_pixel), (1e200 * pred, 0 * pred, None),
                                (pred, 2 * pred, None)):
            with pytest.raises(ParameterError, match="k_scales"):
                loss_total(p, target, mask, k_scales=0, affine=IDENTITY_AFFINE)

    @pytest.mark.parametrize("k_scales", [2.0, True, "2", None])
    def test_non_integer_k_scales_is_parameter_error(self, k_scales):
        pred, target, mask = make_depth_pair(np.random.default_rng(27), (8, 8))
        message = f"k_scales must be an integer >= 1, got {k_scales!r}"
        for fn in (loss_total, loss_reg):
            with pytest.raises(ParameterError, match=message):
                fn(pred, target, mask, k_scales=k_scales)

    def test_numpy_integer_k_scales_is_reported_as_int(self):
        pred, target, mask = make_depth_pair(np.random.default_rng(28), (8, 8))
        report, grad = loss_total(pred, target, mask, k_scales=np.uint8(3))
        assert type(report.k_scales) is int
        assert report == loss_total(pred, target, mask, k_scales=3)[0]

    def test_no_level_is_built_past_1x1(self, monkeypatch):
        """An 8x8 pyramid is 1x1 at level 3, so 10**18 scales build the same
        three coarse levels as 64 scales do, give their bits, and return at
        once; the count of scales is reported as given."""
        pred, target, mask = make_depth_pair(np.random.default_rng(29), (8, 8))
        ref, ref_grad = loss_total(pred, target, mask, k_scales=64)
        built = []
        downsample = losses._downsample_masked

        def counted(values, level_mask):
            built.append(values.shape)
            assert len(built) <= 3, "a level past 1x1 was built"
            return downsample(values, level_mask)

        monkeypatch.setattr(losses, "_downsample_masked", counted)
        report, grad = loss_total(pred, target, mask, k_scales=10**18)
        assert built == [(8, 8), (4, 4), (2, 2)]
        assert report.k_scales == 10**18
        bits = [np.float64([r.l_si, r.l_reg, r.total]).tobytes() for r in (report, ref)]
        assert bits[0] == bits[1] and grad.tobytes() == ref_grad.tobytes()

    def test_peak_stays_under_four_and_a_half_frames(self):
        # the regularization term runs before the SI term, so its level-0
        # peak never has the SI gradient beside it
        pred, target, mask = make_depth_pair(np.random.default_rng(26), (480, 640), 0.9)
        loss_total(pred, target, mask)
        tracemalloc.start()
        try:
            loss_total(pred, target, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * pred.nbytes, peak / pred.nbytes


# --- non-finite inputs --------------------------------------------------------


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["prediction", "target"])
    @pytest.mark.parametrize(
        "fn",
        [
            lambda p, t, m: loss_total(p, t, m),
            lambda p, t, m: loss_total(p, t, m, affine=losses.IDENTITY_AFFINE),
            lambda p, t, m: loss_si(p, t, m, affine=losses.IDENTITY_AFFINE),
            lambda p, t, m: loss_reg(p, t, m),
            lambda p, t, m: lstsq_align(p, t, m),
        ],
        ids=["total", "total-fixed-affine", "si", "reg", "align"],
    )
    def test_non_finite_on_mask_is_domain_error(self, fn, which, bad):
        pred, target, mask = make_depth_pair(np.random.default_rng(30), (8, 8))
        y, x = np.argwhere(mask)[3]
        (pred if which == "prediction" else target)[y, x] = bad
        with pytest.raises(DomainError, match=f"{which} must be finite on the valid mask"):
            fn(pred, target, mask)

    def test_non_finite_off_mask_has_no_influence(self):
        pred, target, mask = make_depth_pair(np.random.default_rng(31), (8, 8))
        report, grad = loss_total(pred, target, mask)
        y, x = np.argwhere(~mask)[0]
        pred[y, x], target[y, x] = np.nan, np.inf
        tampered, tampered_grad = loss_total(pred, target, mask)
        assert tampered == report
        assert np.array_equal(tampered_grad, grad)

    @pytest.mark.parametrize("name", ["total", "reg", "si"])
    def test_overflow_once_scaled(self, name):
        # 1e308 is finite, 10 * 1e308 is not: off the mask it is ignored like
        # any other value there (no RuntimeWarning, which fails this suite),
        # on the mask the loss is a DomainError rather than inf
        scaled = losses.AffineParams(10.0, 0.0)

        def value_and_grad(p, t, m):
            if name == "total":
                report, grad = loss_total(p, t, m, affine=scaled)
                return report.total, grad
            out = (loss_reg if name == "reg" else loss_si)(p, t, m, affine=scaled)
            return out.value, out.grad

        pred, target, mask = make_depth_pair(np.random.default_rng(33), (8, 8))
        value, grad = value_and_grad(pred, target, mask)
        (y_off, x_off), (y_on, x_on) = np.argwhere(~mask)[0], np.argwhere(mask)[3]
        pred[y_off, x_off] = 1e308
        tampered_value, tampered_grad = value_and_grad(pred, target, mask)
        assert tampered_value == value
        assert np.array_equal(tampered_grad, grad)
        pred[y_on, x_on] = 1e308
        with pytest.raises(DomainError) as info:
            value_and_grad(pred, target, mask)
        assert str(info.value) == "aligned residual overflows float64 on the valid mask"

    def test_total_overflow_is_domain_error(self):
        pred, target, mask = make_depth_pair(np.random.default_rng(34), (8, 8))
        report, _ = loss_total(pred, target, mask, lam=1.0)
        assert report.l_reg > 1.0
        with pytest.raises(DomainError, match="total loss overflows float64"):
            loss_total(pred, target, mask, lam=1e308)

    def test_loss_total_checks_once(self, monkeypatch):
        finite_flags = []
        check = losses._check_pair

        def spy(*args, finite=True):
            finite_flags.append(finite)
            return check(*args, finite)

        monkeypatch.setattr(losses, "_check_pair", spy)
        loss_total(*make_depth_pair(np.random.default_rng(32), (8, 8)))
        # loss_total itself, then lstsq_align, loss_si and loss_reg unchecked
        assert finite_flags == [True, False, False, False]

    @pytest.mark.parametrize(
        "fn", [lstsq_align, loss_total, loss_si, loss_reg], ids=["align", "total", "si", "reg"]
    )
    def test_alignment_overflow_is_domain_error(self, fn):
        # 1e200 is finite, its square is not: the normal-equation sums and so
        # the solved (s, t) are not finite, without a RuntimeWarning on the way
        pred, target, mask = make_depth_pair(np.random.default_rng(35), (8, 8))
        y, x = np.argwhere(mask)[3]
        pred[y, x] = 1e200
        with pytest.raises(DomainError) as info:
            fn(pred, target, mask)
        assert str(info.value) == "alignment overflows float64 on the valid mask"

    @pytest.mark.parametrize("case", ["scale", "degenerate"])
    def test_one_overflowing_solve_is_domain_error(self, case):
        # tiny predictions against huge targets overflow the scale alone (the
        # shift stays finite); a constant prediction takes the fallback, whose
        # mean difference overflows
        rng = np.random.default_rng(36)
        if case == "scale":
            pred, target = 1e-20 * rng.uniform(1, 2, (8, 8)), 1e290 * rng.uniform(1, 2, (8, 8))
        else:
            pred, target = np.ones((8, 8)), np.full((8, 8), 1e308)
        with pytest.raises(DomainError, match="alignment overflows float64"):
            lstsq_align(pred, target)


# --- one order of checks ------------------------------------------------------

ENTRY_POINTS = {
    "align": lambda p, t, m, k: lstsq_align(p, t, m),
    "si": lambda p, t, m, k: loss_si(p, t, m),
    "reg": lambda p, t, m, k: loss_reg(p, t, m, k),
    "total": lambda p, t, m, k: loss_total(p, t, m, k_scales=k),
    "evaluate": lambda p, t, m, k: evaluate(p, t, m),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_checks_run_in_one_order(name):
    # integer parameters, then shapes, then the valid count, then finiteness:
    # each case also fails every check after the one it expects
    fn = ENTRY_POINTS[name]
    pred = np.ones((4, 4))
    pred[0, 0] = np.nan
    one_pixel = np.zeros((4, 4), dtype=bool)
    one_pixel[0, 0] = True
    if name in ("reg", "total"):
        with pytest.raises(ParameterError, match="k_scales"):
            fn(pred, np.ones((4, 5)), one_pixel, 0)
    with pytest.raises(ContractError):
        fn(pred, np.ones((4, 5)), one_pixel, 2)
    with pytest.raises(InsufficientSupportError):
        fn(pred, np.ones((4, 4)), one_pixel, 2)
    with pytest.raises(DomainError, match="prediction must be finite"):
        fn(pred, np.ones((4, 4)), None, 2)

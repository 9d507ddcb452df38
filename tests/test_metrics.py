import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_depth_pair
from evdepth import losses
from evdepth.errors import ContractError, DomainError, InsufficientSupportError, ParameterError
from evdepth.metrics import (
    MetricsReport,
    aggregate,
    evaluate,
    write_reports_csv,
    write_reports_json,
)


class TestEvaluate:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        gt = rng.uniform(1, 10, (8, 8))
        r = evaluate(gt.copy(), gt)
        assert (r.abs_rel, r.sq_rel, r.rmse, r.rmse_log, r.si_log) == (0, 0, 0, 0, 0)
        assert (r.delta1, r.delta2, r.delta3) == (1.0, 1.0, 1.0)
        assert r.n_valid == 64 and r.aligned

    def test_ratio_at_threshold_fails_delta1_strictly(self):
        # powers of two keep 1.25 * gt and the ratio exact in binary
        gt = np.array([[1.0, 2.0], [4.0, 8.0]])
        r = evaluate(1.25 * gt, gt, align=False)
        assert r.delta1 == 0.0
        assert r.delta2 == 1.0 and r.delta3 == 1.0
        assert r.abs_rel == pytest.approx(0.25, abs=1e-15)

    def test_si_log_two_pixel_hand_case(self):
        gt = np.array([[1.0, math.e]])
        pred = np.array([[math.e, math.e]])
        r = evaluate(pred, gt, align=False)
        assert r.si_log == pytest.approx(0.5, abs=1e-12)
        assert r.rmse_log == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_alignment_makes_scaled_prediction_perfect(self):
        rng = np.random.default_rng(1)
        gt = rng.uniform(1, 10, (16, 16))
        r = evaluate(0.1 * gt + 4.0, gt, align=True)
        assert r.abs_rel == pytest.approx(0.0, abs=1e-9)
        assert r.delta1 == 1.0

    def test_affine_invariance_when_aligned(self):
        rng = np.random.default_rng(2)
        pred, gt, mask = make_depth_pair(rng, (16, 16))
        base = evaluate(pred, gt, mask, align=True)
        for a in (0.5, 2.0, 10.0):
            for b in (-5.0, 0.0, 7.0):
                r = evaluate(a * pred + b, gt, mask, align=True)
                for field in ("abs_rel", "sq_rel", "rmse", "rmse_log", "si_log"):
                    assert getattr(r, field) == pytest.approx(getattr(base, field), rel=1e-6)
                for field in ("delta1", "delta2", "delta3"):
                    assert getattr(r, field) == getattr(base, field)

    def test_clamp_guards_log_metrics(self):
        gt = np.array([[1.0, 2.0, 1.0, 2.0]])
        pred = np.array([[-3.0, 2.0, 1.0, 2.0]])
        r = evaluate(pred, gt, align=False)  # default clamp floors at 1e-3
        assert math.isfinite(r.rmse_log) and math.isfinite(r.si_log)

    @pytest.mark.parametrize("clamp", [(-math.inf, math.inf), (0.0, math.inf)],
                             ids=["no-floor", "zero-floor"])
    @pytest.mark.parametrize("bad", [-3.0, 0.0])
    def test_non_positive_clamped_prediction_is_domain_error(self, bad, clamp):
        gt = np.array([[1.0, 2.0, 1.0, 2.0]])
        pred = np.array([[bad, 2.0, 1.0, 2.0]])
        with pytest.raises(DomainError, match="clamped prediction must be > 0 on the valid mask"):
            evaluate(pred, gt, align=False, clamp=clamp)
        off_mask = np.array([[False, True, True, True]])
        r = evaluate(pred, gt, off_mask, align=False, clamp=clamp)
        assert r.delta1 == 1.0 and r.rmse_log == 0.0

    def test_mask_restricts_support(self):
        gt = np.array([[1.0, 1.0], [1.0, 1.0]])
        pred = np.array([[1.0, 1.0], [50.0, 50.0]])
        mask = np.array([[True, True], [False, False]])
        r = evaluate(pred, gt, mask)
        assert r.abs_rel == pytest.approx(0.0, abs=1e-12)
        assert r.n_valid == 2

    def test_non_positive_gt_rejected(self):
        gt = np.array([[1.0, 0.0], [2.0, 3.0]])
        with pytest.raises(DomainError):
            evaluate(np.ones((2, 2)), gt)

    @pytest.mark.parametrize("align", [True, False])
    @pytest.mark.parametrize("bad", [0.0, -2.0, -np.inf, np.nan, np.inf])
    def test_bad_ground_truth_is_domain_error_only_on_mask(self, align, bad):
        pred, gt, mask = make_depth_pair(np.random.default_rng(42), (8, 8))
        base = evaluate(pred, gt, mask, align=align)
        (y_off, x_off), (y_on, x_on) = np.argwhere(~mask)[0], np.argwhere(mask)[2]
        gt[y_off, x_off] = bad
        r = evaluate(pred, gt, mask, align=align)
        assert r == base
        assert all(math.isfinite(v) for v in r.to_dict().values())
        gt[y_on, x_on] = bad
        with pytest.raises(DomainError):
            evaluate(pred, gt, mask, align=align)

    def test_overflowing_alignment_is_domain_error(self):
        # finite, but squared past float64: the solve is not finite
        pred, gt, mask = make_depth_pair(np.random.default_rng(43), (8, 8))
        y, x = np.argwhere(mask)[2]
        pred[y, x] = 1e200
        with pytest.raises(DomainError, match="alignment overflows float64"):
            evaluate(pred, gt, mask, align=True)

    def test_overflowing_error_is_domain_error(self):
        # the alignment is skipped, the squared error of one pixel is not finite
        pred, gt, mask = make_depth_pair(np.random.default_rng(43), (8, 8))
        y, x = np.argwhere(mask)[2]
        pred[y, x] = 1e200
        with pytest.raises(DomainError, match="prediction error overflows float64"):
            evaluate(pred, gt, mask, align=False)

    def test_overflowing_aligned_error_is_domain_error(self):
        # ground truth near 1e300: the alignment is finite, its error squared is not
        pred, gt, mask = make_depth_pair(np.random.default_rng(44), (8, 8))
        gt *= 1e299
        aff = losses.lstsq_align(pred, gt, mask)
        assert math.isfinite(aff.scale) and math.isfinite(aff.shift)
        with pytest.raises(DomainError, match="prediction error overflows float64"):
            evaluate(pred, gt, mask, align=True)

    @pytest.mark.parametrize("align", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prediction_on_mask_is_domain_error(self, align, bad):
        pred, gt, mask = make_depth_pair(np.random.default_rng(40), (8, 8))
        y, x = np.argwhere(mask)[2]
        pred[y, x] = bad
        with pytest.raises(DomainError, match="prediction must be finite on the valid mask"):
            evaluate(pred, gt, mask, align=align)

    def test_non_finite_prediction_off_mask_has_no_influence(self, monkeypatch):
        pred, gt, mask = make_depth_pair(np.random.default_rng(41), (8, 8))
        base = evaluate(pred, gt, mask)
        y, x = np.argwhere(~mask)[0]
        pred[y, x] = np.nan
        finite_flags = []
        check = losses._check_pair

        def spy(*args, finite=True):
            finite_flags.append(finite)
            return check(*args, finite)

        monkeypatch.setattr(losses, "_check_pair", spy)
        assert evaluate(pred, gt, mask) == base
        assert finite_flags == [False]  # evaluate checked pred itself; alignment does not again

    def test_insufficient_support_with_align(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(InsufficientSupportError):
            evaluate(np.ones((2, 2)), np.ones((2, 2)), mask, align=True)
        # a single pixel is fine without alignment
        r = evaluate(np.ones((2, 2)), np.ones((2, 2)), mask, align=False)
        assert r.n_valid == 1

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            evaluate(np.ones((2, 2)), np.ones((2, 3)))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_delta_chain_ordering(self, seed):
        rng = np.random.default_rng(seed)
        gt = rng.uniform(0.5, 20, (8, 8))
        pred = gt * rng.uniform(0.3, 3.0, (8, 8))
        r = evaluate(pred, gt, align=False)
        assert r.delta1 <= r.delta2 <= r.delta3
        assert 0.0 <= r.delta1 and r.delta3 <= 1.0

    def test_rmse_monotone_under_added_noise(self):
        rng = np.random.default_rng(3)
        gt = rng.uniform(1, 10, (16, 16))
        noise = rng.uniform(0.1, 0.5, (16, 16))
        base = evaluate(gt.copy(), gt, align=False)
        bumped = evaluate(gt + noise, gt, align=False)
        more = evaluate(gt + 2 * noise, gt, align=False)
        assert base.rmse <= bumped.rmse <= more.rmse


class TestAggregate:
    def test_single_report_unchanged(self):
        rng = np.random.default_rng(4)
        pred, gt, mask = make_depth_pair(rng, (8, 8))
        r = evaluate(pred, gt, mask)
        for mode in ("uniform", "per-pixel"):
            agg = aggregate([r], weights=mode)
            for field in ("abs_rel", "sq_rel", "rmse", "rmse_log", "si_log", "delta1"):
                assert getattr(agg, field) == pytest.approx(getattr(r, field), rel=1e-12)
            assert agg.n_valid == r.n_valid

    def test_two_identical_reports(self):
        rng = np.random.default_rng(5)
        pred, gt, mask = make_depth_pair(rng, (8, 8))
        r = evaluate(pred, gt, mask)
        agg = aggregate([r, r], weights="uniform")
        assert agg.abs_rel == pytest.approx(r.abs_rel, rel=1e-12)
        assert agg.n_valid == 2 * r.n_valid

    def test_per_pixel_matches_concatenated_evaluation(self):
        rng = np.random.default_rng(6)
        frames = [make_depth_pair(rng, (6, 9), mask_fill=0.7) for _ in range(3)]
        reports = [evaluate(p, g, m, align=False) for p, g, m in frames]
        agg = aggregate(reports, weights="per-pixel")
        stitched = evaluate(
            np.hstack([p for p, _, _ in frames]),
            np.hstack([g for _, g, _ in frames]),
            np.hstack([m for _, _, m in frames]),
            align=False,
        )
        for field in ("abs_rel", "sq_rel", "rmse", "rmse_log", "si_log", "delta1", "delta2", "delta3"):
            assert getattr(agg, field) == pytest.approx(getattr(stitched, field), rel=1e-12)
        assert agg.n_valid == stitched.n_valid

    def test_uniform_and_per_pixel_differ_on_unbalanced_frames(self):
        g1 = np.full((1, 2), 2.0)
        g2 = np.full((4, 4), 2.0)
        r1 = evaluate(np.full((1, 2), 4.0), g1, align=False)  # abs_rel 1.0, 2 px
        r2 = evaluate(np.full((4, 4), 2.0), g2, align=False)  # abs_rel 0.0, 16 px
        uniform = aggregate([r1, r2], weights="uniform")
        pooled = aggregate([r1, r2], weights="per-pixel")
        assert uniform.abs_rel == pytest.approx(0.5)
        assert pooled.abs_rel == pytest.approx(2 / 18)

    def test_empty_input_rejected(self):
        with pytest.raises(ParameterError):
            aggregate([])

    def test_per_pixel_requires_pools(self):
        r = MetricsReport(0, 0, 0, 0, 0, 1, 1, 1, 4, True, pool=None)
        with pytest.raises(ParameterError):
            aggregate([r], weights="per-pixel")


class TestReportFiles:
    def test_json_layout(self, tmp_path):
        rng = np.random.default_rng(7)
        pred, gt, mask = make_depth_pair(rng, (8, 8))
        r = evaluate(pred, gt, mask)
        agg = aggregate([r])
        out = tmp_path / "report.json"
        write_reports_json(out, [("frame_a", r)], agg)
        payload = json.loads(out.read_text())
        assert payload["frames"][0]["frame"] == "frame_a"
        assert set(payload["aggregate"]) == {
            "abs_rel", "sq_rel", "rmse", "rmse_log", "si_log",
            "delta1", "delta2", "delta3", "n_valid", "aligned",
        }
        assert payload["frames"][0]["abs_rel"] == r.abs_rel

    def test_csv_layout(self, tmp_path):
        rng = np.random.default_rng(8)
        pred, gt, mask = make_depth_pair(rng, (8, 8))
        r = evaluate(pred, gt, mask)
        out = tmp_path / "report.csv"
        write_reports_csv(out, [("f0", r)], aggregate([r]))
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][:3] == ["frame", "abs_rel", "sq_rel"]
        assert rows[1][0] == "f0"
        assert rows[-1][0] == "aggregate"
        assert float(rows[1][1]) == pytest.approx(r.abs_rel)

"""Depth evaluation protocol: optional scale/shift pre-alignment, then the
eight standard metrics (Abs Rel, Sq Rel, RMSE, RMSE log, SI log, delta<1.25^n).

Conventions fixed here because the usual write-ups leave them open:
  - SI log is the variance form sqrt(mean d^2 - (mean d)^2), d = ln p - ln g,
    with no x100 factor.
  - Predictions are clamped (default [1e-3, inf)) before the log-domain
    metrics; alignment can push values non-positive.
  - Delta thresholds compare the symmetric ratio strictly: max(p/g, g/p) < 1.25^n.
  - A prediction that is not finite on the valid mask is a DomainError, as
    is ground truth that is not finite and positive there; the shape, count
    and finiteness checks are those of ``losses._check_pair``. So is a finite
    prediction whose error overflows float64 there.

Each report can carry its pixel-level accumulators so a set of frames can be
re-aggregated exactly as if all pixels had been evaluated at once.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .config import DEFAULT_CLAMP_MIN
from .errors import DomainError, ParameterError, _bool_param, _choice_param, _real_param
from .imgio import _atomic_write, _write_json
from .losses import _check_pair, lstsq_align

@dataclass(frozen=True)
class PixelPool:
    """Sufficient statistics for exact per-pixel re-aggregation."""

    n: int
    sum_abs_rel: float
    sum_sq_rel: float
    sum_sq_err: float
    sum_log_diff: float
    sum_sq_log_diff: float
    n_delta1: int
    n_delta2: int
    n_delta3: int


@dataclass(frozen=True)
class MetricsReport:
    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    si_log: float
    delta1: float
    delta2: float
    delta3: float
    n_valid: int
    aligned: bool
    pool: PixelPool | None = None

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_FIELDS}


REPORT_FIELDS = tuple(f.name for f in fields(MetricsReport) if f.name != "pool")


def _report_from_pool(pool: PixelPool, aligned: bool) -> MetricsReport:
    n = pool.n
    mean_d = pool.sum_log_diff / n
    var_d = max(pool.sum_sq_log_diff / n - mean_d * mean_d, 0.0)
    return MetricsReport(
        abs_rel=pool.sum_abs_rel / n,
        sq_rel=pool.sum_sq_rel / n,
        rmse=math.sqrt(pool.sum_sq_err / n),
        rmse_log=math.sqrt(pool.sum_sq_log_diff / n),
        si_log=math.sqrt(var_d),
        delta1=pool.n_delta1 / n,
        delta2=pool.n_delta2 / n,
        delta3=pool.n_delta3 / n,
        n_valid=n,
        aligned=aligned,
        pool=pool,
    )


def _clamp_bounds(clamp) -> tuple[float, float]:
    """The (lo, hi) clamp of ``evaluate``: two reals, each may be infinite, lo <= hi."""
    lo, hi = (_real_param("clamp bound", b, -math.inf, math.inf, closed=True) for b in clamp)
    if not lo <= hi:
        raise ParameterError(f"clamp bounds out of order: {clamp}")
    return lo, hi


def evaluate(
    pred, gt, mask=None, align=True, clamp=(DEFAULT_CLAMP_MIN, math.inf)
) -> MetricsReport:
    """Evaluate a prediction against ground truth over the valid pixels.

    With ``align`` the prediction is least-squares scale/shift aligned to the
    ground truth first. The clamp is applied to the (aligned) prediction
    before any metric. The log and ratio metrics need a positive prediction:
    with a lower bound <= 0 (``-inf`` leaves the floor off) a clamped
    prediction <= 0 on the mask raises ``DomainError``.
    """
    lo, hi = _clamp_bounds(clamp)
    align = _bool_param("align", align)
    pred, gt, mask, n = _check_pair(pred, gt, mask, 2 if align else 1)
    ok = np.greater(gt, 0.0)
    if not np.less_equal(mask, ok, out=ok).all():  # valid implies > 0
        raise DomainError("ground truth must be > 0 on the valid mask")
    aff = lstsq_align(pred, gt, mask, _checked=True) if align else None
    p = pred[mask]
    g = gt[mask]
    if aff is not None:
        p *= aff.scale
        p += aff.shift
    np.clip(p, lo, hi, out=p)
    if lo <= 0 and not (p > 0).all():
        raise DomainError("clamped prediction must be > 0 on the valid mask")

    # One scratch vector serves every per-pixel term (err is recomputed rather
    # than kept); each sum is still over the gathered valid pixels, in order.
    with np.errstate(over="ignore"):  # an inf sum is tested next; an inf ratio counts in no delta
        buf = np.subtract(p, g)
        np.abs(buf, out=buf)
        sum_abs_rel = float(np.divide(buf, g, out=buf).sum())
        np.subtract(p, g, out=buf)
        sum_sq_err = float(np.multiply(buf, buf, out=buf).sum())
        sum_sq_rel = float(np.divide(buf, g, out=buf).sum())
        ratio = np.maximum(np.divide(p, g, out=buf), g / p, out=buf)
    if not all(map(math.isfinite, (sum_abs_rel, sum_sq_err, sum_sq_rel))):
        raise DomainError("prediction error overflows float64 on the valid mask")
    n_delta = [int(np.count_nonzero(ratio < 1.25**k)) for k in (1, 2, 3)]
    np.log(g, out=buf)
    d = np.subtract(np.log(p, out=p), buf, out=p)
    sum_log_diff = float(d.sum())
    sum_sq_log_diff = float(np.multiply(d, d, out=buf).sum())
    pool = PixelPool(
        n=n,
        sum_abs_rel=sum_abs_rel,
        sum_sq_rel=sum_sq_rel,
        sum_sq_err=sum_sq_err,
        sum_log_diff=sum_log_diff,
        sum_sq_log_diff=sum_sq_log_diff,
        n_delta1=n_delta[0],
        n_delta2=n_delta[1],
        n_delta3=n_delta[2],
    )
    return _report_from_pool(pool, aligned=align)


def aggregate(reports, weights: str = "uniform") -> MetricsReport:
    """Fold per-frame reports into one.

    ``uniform`` averages each metric over frames; ``per-pixel`` pools the
    accumulators, reproducing a single evaluation over all pixels at once
    (requires reports that still carry their pools).
    """
    weights = _choice_param("weights", weights, ("uniform", "per-pixel"))
    reports = list(reports)
    if not reports:
        raise ParameterError("cannot aggregate zero reports")
    aligned = all(r.aligned for r in reports)
    if weights == "uniform":
        n = len(reports)
        means = {
            name: sum(getattr(r, name) for r in reports) / n
            for name in REPORT_FIELDS
            if name not in ("n_valid", "aligned")
        }
        return MetricsReport(
            n_valid=sum(r.n_valid for r in reports), aligned=aligned, pool=None, **means
        )
    if any(r.pool is None for r in reports):
        raise ParameterError("per-pixel aggregation needs reports carrying accumulators")
    pools = [r.pool for r in reports]
    merged = PixelPool(**{f.name: sum(getattr(p, f.name) for p in pools) for f in fields(PixelPool)})
    return _report_from_pool(merged, aligned=aligned)


# ---------------------------------------------------------------------------
# Report files


def reports_payload(frames, aggregate_report) -> dict:
    """The JSON report: ``frames`` is a sequence of (name, MetricsReport) pairs."""
    return {
        "frames": [{"frame": name, **r.to_dict()} for name, r in frames],
        "aggregate": aggregate_report.to_dict(),
    }


def write_reports_json(path, frames, aggregate_report) -> None:
    _write_json(path, reports_payload(frames, aggregate_report))


def write_reports_csv(path, frames, aggregate_report) -> None:
    with _atomic_write(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("frame",) + REPORT_FIELDS)
        for name, r in frames:
            writer.writerow([name] + [getattr(r, f) for f in REPORT_FIELDS])
        writer.writerow(["aggregate"] + [getattr(aggregate_report, f) for f in REPORT_FIELDS])

"""Affine-invariant depth supervision: alignment, losses, analytic gradients.

Depth maps are (H, W) float64 arrays; a validity mask is a matching bool
array (None means fully valid). The alignment solves

    (s, t) = argmin sum_M (s * pred + t - target)^2

through the 2x2 normal equations. The scale-invariant loss averages the
squared aligned residual with a 1/2 factor; the regularization term sums,
over a dyadic pyramid of the aligned residual, the mean absolute forward
differences over valid pixel pairs.

Gradients are taken with (s, t) frozen at their solved values. For the
scale-invariant term that is exact (the solve is at its own optimum); for
the regularization term it is a deliberate approximation, so finite
difference checks must also hold (s, t) fixed — pass ``affine=`` for that.
The |.| subgradient at 0 is taken as 0. Masked-out pixels never influence
values or gradients. A prediction or target that is not finite on the mask
is a DomainError, since it would turn every value and gradient into nan.
Each public call checks that once: calls made inside this module (and by
``metrics.evaluate``) on arrays already checked pass ``_checked=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LOSS_DEFAULTS
from .errors import ContractError, DomainError, InsufficientSupportError, ParameterError

_DEGENERATE_REL_TOL = 1e-12


@dataclass(frozen=True)
class AffineParams:
    """Scale/shift pair; ``degenerate`` marks the constant-prediction fallback."""

    scale: float
    shift: float
    degenerate: bool = False


IDENTITY_AFFINE = AffineParams(1.0, 0.0)


@dataclass(frozen=True)
class SiLoss:
    value: float
    grad: np.ndarray
    affine: AffineParams


@dataclass(frozen=True)
class RegLoss:
    value: float
    grad: np.ndarray
    affine: AffineParams
    empty_scales: tuple[int, ...]  # 1-based scale indices with no valid pixels


@dataclass(frozen=True)
class LossReport:
    l_si: float
    l_reg: float
    total: float
    lam: float
    k_scales: int
    affine: AffineParams
    empty_scales: tuple[int, ...] = ()


def _check_pair(pred, target, mask, finite=True):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.ndim != 2:
        raise ContractError(f"depth maps must be 2-D, got {pred.shape}")
    if pred.shape != target.shape:
        raise ContractError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    if mask is None:
        mask = np.ones(pred.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != pred.shape:
            raise ContractError(f"mask shape {mask.shape} does not match {pred.shape}")
    if finite:
        for name, values in (("prediction", pred), ("target", target)):
            if (mask & ~np.isfinite(values)).any():
                raise DomainError(f"{name} must be finite on the valid mask")
    return pred, target, mask


def lstsq_align(pred, target, mask=None, *, _checked=False) -> AffineParams:
    """Least-squares scale/shift of pred onto target over the valid pixels.

    A (numerically) constant prediction has no usable scale; the fallback is
    s = 1 with t the mean valid difference, flagged as degenerate.
    """
    pred, target, mask = _check_pair(pred, target, mask, finite=not _checked)
    m = int(mask.sum())
    if m < 2:
        raise InsufficientSupportError(f"alignment needs >= 2 valid pixels, got {m}")
    p = pred[mask]
    g = target[mask]
    sp = p.sum()
    spp = (p * p).sum()
    sg = g.sum()
    spg = (p * g).sum()
    det = m * spp - sp * sp
    if det <= _DEGENERATE_REL_TOL * m * spp:
        return AffineParams(1.0, float((g - p).mean()), degenerate=True)
    s = (m * spg - sp * sg) / det
    t = (spp * sg - sp * spg) / det
    return AffineParams(float(s), float(t))


def _resolve_affine(pred, target, mask, align, affine) -> AffineParams:
    if affine is not None:
        return affine
    if align:
        return lstsq_align(pred, target, mask, _checked=True)
    return IDENTITY_AFFINE


def loss_si(pred, target, mask=None, *, align=True, affine=None, _checked=False) -> SiLoss:
    """Scale-invariant loss: 1/(2|M|) * sum_M (s*pred + t - target)^2.

    ``align=False`` evaluates at s=1, t=0 (metric-depth use); an explicit
    ``affine`` overrides both.
    """
    pred, target, mask = _check_pair(pred, target, mask, finite=not _checked)
    m = int(mask.sum())
    if m < 2:
        raise InsufficientSupportError(f"loss needs >= 2 valid pixels, got {m}")
    aff = _resolve_affine(pred, target, mask, align, affine)
    residual = aff.scale * pred[mask] + aff.shift - target[mask]
    value = float((residual * residual).sum() / (2.0 * m))
    grad = np.zeros(pred.shape, dtype=np.float64)
    grad[mask] = (aff.scale / m) * residual
    return SiLoss(value, grad, aff)


def _downsample_masked(values, mask):
    """Mean over valid pixels of each 2x2 block; a coarse pixel is valid iff
    at least one contributing fine pixel is. Returns (coarse, coarse_mask,
    counts) with counts kept for the adjoint pass."""
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


def _upsample_adjoint(grad_coarse, counts, fine_mask):
    """Adjoint of the masked 2x2 averaging: each valid fine pixel receives
    grad/count of its block."""
    h, w = fine_mask.shape
    share = grad_coarse / np.maximum(counts, 1)
    fine = np.repeat(np.repeat(share, 2, axis=0), 2, axis=1)[:h, :w]
    return np.where(fine_mask, fine, 0.0)


def _tv_term(values, mask):
    """Mean absolute forward differences over valid pairs, plus the gradient
    of that term with respect to ``values``. Returns (term, grad, n_valid)."""
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


def loss_reg(
    pred,
    target,
    mask=None,
    k_scales=LOSS_DEFAULTS.k_scales,
    *,
    align=True,
    affine=None,
    _checked=False,
) -> RegLoss:
    """Multi-scale gradient regularization of the aligned residual.

    The residual R = s*pred + t - target is taken through ``k_scales`` dyadic
    levels (masked 2x2 averaging); each level contributes the mean |forward
    difference| over pairs of valid pixels, normalized by that level's valid
    pixel count. Levels with no valid pixels contribute 0 and are reported
    in ``empty_scales``.
    """
    pred, target, mask = _check_pair(pred, target, mask, finite=not _checked)
    if k_scales < 1:
        raise ParameterError(f"k_scales must be >= 1, got {k_scales}")
    m = int(mask.sum())
    if m < 2:
        raise InsufficientSupportError(f"loss needs >= 2 valid pixels, got {m}")
    aff = _resolve_affine(pred, target, mask, align, affine)
    residual = np.where(mask, aff.scale * pred + aff.shift - target, 0.0)

    levels = [(residual, mask)]
    counts = []
    for _ in range(k_scales - 1):
        coarse, coarse_mask, cnt = _downsample_masked(*levels[-1])
        levels.append((coarse, coarse_mask))
        counts.append(cnt)

    value = 0.0
    empty = []
    level_grads = []
    for k, (vals, msk) in enumerate(levels):
        term, grad_k, n_valid = _tv_term(vals, msk)
        if n_valid == 0:
            empty.append(k + 1)
        value += term
        level_grads.append(grad_k)

    grad_residual = level_grads[-1]
    for k in range(k_scales - 2, -1, -1):
        grad_residual = _upsample_adjoint(grad_residual, counts[k], levels[k][1]) + level_grads[k]
    grad = np.where(mask, aff.scale * grad_residual, 0.0)
    return RegLoss(float(value), grad, aff, tuple(empty))


def loss_total(
    pred,
    target,
    mask=None,
    lam: float = LOSS_DEFAULTS.lam,
    k_scales: int = LOSS_DEFAULTS.k_scales,
    *,
    align=True,
    affine=None,
) -> tuple[LossReport, np.ndarray]:
    """Combined loss l_si + lam * l_reg with a single shared alignment."""
    pred, target, mask = _check_pair(pred, target, mask)
    aff = _resolve_affine(pred, target, mask, align, affine)
    si = loss_si(pred, target, mask, affine=aff, _checked=True)
    reg = loss_reg(pred, target, mask, k_scales, affine=aff, _checked=True)
    total = si.value + lam * reg.value
    grad = si.grad + lam * reg.grad
    report = LossReport(
        l_si=si.value,
        l_reg=reg.value,
        total=total,
        lam=lam,
        k_scales=k_scales,
        affine=aff,
        empty_scales=reg.empty_scales,
    )
    return report, grad

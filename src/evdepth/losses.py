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

The kernels work in place on arrays they allocate, never on an argument,
and keep nothing between calls. Each sum runs over the gathered valid pixels
in row-major order, so values and gradients are bit for bit those of the
plain expressions of the definitions (``tests/test_kernel_identity.py``
keeps reference copies). The pyramid helpers (``_downsample_masked``,
``_add_upsample_adjoint``, ``_tv_term``) expect level values that are finite
and +0.0 off the level's mask; ``loss_reg`` builds its residual so.

A 2x2 block with values a, b (top row) and c, d (bottom row) sums as
(a + b) + (c + d) when the coarse level is at least 2 wide and as
((a + b) + c) + d when it is 1 wide, from a +0.0 start either way (so four
-0.0 give +0.0). The pyramid was defined by numpy's
``reshape(h2, 2, w2, 2).sum(axis=(1, 3))``, and this is the order that
reduction adds in: with one coarse column its two reduced axes are one
contiguous run of four, summed left to right. Four strided views added in
that order give the same bits in a fraction of the time. numpy does not
document the order, so ``tests/test_kernel_identity.py`` pins it against the
reduction on the numpy in use, with values where 1e16 + 1 rounds back to 1e16.
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
        ok = np.empty(pred.shape, dtype=bool)
        for name, values in (("prediction", pred), ("target", target)):
            np.isfinite(values, out=ok)
            if not np.less_equal(mask, ok, out=ok).all():  # valid implies finite
                raise DomainError(f"{name} must be finite on the valid mask")
    return pred, target, mask


def lstsq_align(pred, target, mask=None, *, _checked=False) -> AffineParams:
    """Least-squares scale/shift of pred onto target over the valid pixels.

    A (numerically) constant prediction has no usable scale; the fallback is
    s = 1 with t the mean valid difference, flagged as degenerate.
    """
    pred, target, mask = _check_pair(pred, target, mask, finite=not _checked)
    m = int(np.count_nonzero(mask))
    if m < 2:
        raise InsufficientSupportError(f"alignment needs >= 2 valid pixels, got {m}")
    p = pred[mask]
    g = target[mask]
    sp = p.sum()
    sg = g.sum()
    spg = np.multiply(g, p, out=g).sum()
    spp = np.multiply(p, p, out=p).sum()
    det = m * spp - sp * sp
    if det <= _DEGENERATE_REL_TOL * m * spp:
        # p and g now hold products: gather the differences afresh (rare path)
        return AffineParams(1.0, float((target[mask] - pred[mask]).mean()), degenerate=True)
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
    m = int(np.count_nonzero(mask))
    if m < 2:
        raise InsufficientSupportError(f"loss needs >= 2 valid pixels, got {m}")
    aff = _resolve_affine(pred, target, mask, align, affine)
    residual = pred[mask]
    residual *= aff.scale
    residual += aff.shift
    residual -= target[mask]
    value = float((residual * residual).sum() / (2.0 * m))
    residual *= aff.scale / m
    grad = np.zeros(pred.shape, dtype=np.float64)
    grad[mask] = residual
    return SiLoss(value, grad, aff)


def _pad_even(a):
    """``a`` zero-padded to even dimensions; ``a`` itself when they already are."""
    h, w = a.shape
    if h % 2 == 0 and w % 2 == 0:
        return a
    out = np.zeros((h + h % 2, w + w % 2), dtype=a.dtype)
    out[:h, :w] = a
    return out


def _downsample_masked(values, mask):
    """Mean over valid pixels of each 2x2 block; a coarse pixel is valid iff
    at least one contributing fine pixel is. Returns (coarse, coarse_mask,
    counts), counts clamped to >= 1 for the adjoint pass.

    ``values`` must be +0.0 wherever ``mask`` is off, so no masking pass is
    needed; the coarse level is +0.0 off its mask in turn.
    """
    values = _pad_even(values)
    m = _pad_even(mask).view(np.uint8)
    h2, w2 = values.shape[0] // 2, values.shape[1] // 2
    counts = m[0::2, 0::2] + m[0::2, 1::2]
    counts += m[1::2, 0::2]
    counts += m[1::2, 1::2]
    coarse_mask = counts > 0
    np.maximum(counts, 1, out=counts)
    if w2 > 1:  # block sums in the reduction's order (module docstring)
        coarse = np.add(values[0::2, 0::2], values[0::2, 1::2])
        coarse += np.add(values[1::2, 0::2], values[1::2, 1::2])
        coarse += 0.0  # the +0.0 start: four -0.0 sum to +0.0
    else:
        coarse = values.reshape(h2, 2, w2, 2).sum(axis=(1, 3))
    coarse /= counts
    return coarse, coarse_mask, counts


def _add_upsample_adjoint(grad_fine, grad_coarse, counts):
    """Add the adjoint of the masked 2x2 averaging to ``grad_fine`` in place:
    each fine pixel receives grad/count of its block (``grad_coarse`` is
    overwritten with those shares). Only pixels on the fine mask carry
    meaning: a coarse pixel off its mask feeds only fine pixels off theirs,
    and ``loss_reg`` zeroes the finest level off its mask at the end."""
    h, w = grad_fine.shape
    share = np.divide(grad_coarse, counts, out=grad_coarse)
    if h % 2 or w % 2:
        grad_fine += np.repeat(np.repeat(share, 2, axis=0), 2, axis=1)[:h, :w]
    else:
        # one add per fine pixel: the left, then the right column of every
        # block, each over both of the block's rows
        fine = grad_fine.reshape(h // 2, 2, w // 2, 2)
        for col in (0, 1):
            fine[:, :, :, col] += share[:, None, :]


def _tv_term(values, mask):
    """Mean absolute forward differences over valid pairs, plus the gradient
    of that term with respect to ``values``. Returns (term, grad, n_valid).

    ``values`` must be finite; the pyramid levels of ``loss_reg`` are, being
    +0.0 off their masks.
    """
    n_valid = int(np.count_nonzero(mask))
    if n_valid == 0:
        return 0.0, np.zeros_like(values, order="C"), 0
    n, w = values.size, values.shape[1]
    flat, valid_px = values.ravel(), mask.ravel()
    buf = np.empty(n, dtype=np.float64)
    sums, signs = [], []
    # Forward differences along the flattened image: step 1 pairs each pixel
    # with its right neighbour (the pair across a row end is never valid),
    # step w with the one below. Pairs come out in the row-major order of the
    # 2-D pair grid, so the gathered sums add in the same order as a 2-D
    # gather would.
    for step, row_wrap in ((1, True), (w, False)):
        diff = np.subtract(flat[step:], flat[:-step], out=buf[: n - step])
        valid = valid_px[step:] & valid_px[:-step]
        if row_wrap:
            valid[w - 1 :: w] = False
        # sign of each valid pair's difference as an int8, 0 elsewhere, with
        # `step` zeros on either side: sign[step + j] is pair (j, j + step)
        sign = np.zeros(n + step, dtype=np.int8)
        inner = sign[step:n]
        np.subtract((diff > 0.0).view(np.int8), (diff < 0.0).view(np.int8), out=inner)
        inner *= valid.view(np.int8)
        signs.append(sign)
        pairs = diff[valid]
        sums.append(np.abs(pairs, out=pairs).sum())
        del pairs
    term = (sums[0] + sums[1]) / n_valid

    # The gradient at pixel i is the sum, from +0.0 and in this order, of
    #   +sign(i-1, i) - sign(i, i+1) + sign(i-w, i) - sign(i, i+w),
    # each sign times u = 1/n_valid. The first three terms add up to k3 * u
    # with |k3| <= 3, exactly after two of them and with one rounding after
    # the third: the one rounding of k3 * u. The fourth is subtracted as a
    # float, so each pixel gets the bits of the term-by-term sum.
    right, down = signs
    k3 = np.subtract(right[:n], right[1:])
    k3 += down[:n]
    u = 1.0 / n_valid
    grad = np.multiply(k3, u, dtype=np.float64)
    grad -= np.multiply(down[w:], u, out=buf, dtype=np.float64)
    return float(term), grad.reshape(values.shape), n_valid


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
    m = int(np.count_nonzero(mask))
    if m < 2:
        raise InsufficientSupportError(f"loss needs >= 2 valid pixels, got {m}")
    aff = _resolve_affine(pred, target, mask, align, affine)
    off_mask = ~mask
    # On the mask both operands are checked finite, so an invalid operation
    # (inf - inf, 0 * inf) can only come from pixels off the mask, zeroed next.
    with np.errstate(invalid="ignore"):
        residual = np.multiply(pred, aff.scale, order="C")  # the helpers ravel and reshape it
        residual += aff.shift
        residual -= target
    np.copyto(residual, 0.0, where=off_mask)

    values, masks, counts = [residual], [mask], []
    for _ in range(k_scales - 1):
        coarse, coarse_mask, cnt = _downsample_masked(values[-1], masks[-1])
        values.append(coarse)
        masks.append(coarse_mask)
        counts.append(cnt)
    del residual

    value = 0.0
    empty = []
    level_grads = []
    for k in range(k_scales):
        term, grad_k, n_valid = _tv_term(values[k], masks[k])
        values[k] = None  # free each level once its term is taken
        if n_valid == 0:
            empty.append(k + 1)
        value += term
        level_grads.append(grad_k)

    # coarse to fine: level k's gradient plus the adjoint of level k+1's
    grad = level_grads.pop()
    while level_grads:
        fine = level_grads.pop()
        _add_upsample_adjoint(fine, grad, counts.pop())
        grad = fine
    grad *= aff.scale
    np.copyto(grad, 0.0, where=off_mask)
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
    grad = reg.grad
    grad *= lam
    grad += si.grad
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

"""Desk-scale recurrent multi-scale fusion runner.

Forward-only numpy reference of the mechanism: a pluggable extractor turns an
event stack into a feature pyramid at strides {4, 8, 16}, each twice the one
before; a ConvLSTM per scale folds the new features into per-scale hidden/cell
state; the enhanced maps are fused coarse-to-fine (bilinear x2 upsample, 1x1
projection, add) and a linear head produces a depth map at the finest stride.

There is no training here: state starts at zero and carries across the
whole sequence. Default scales, channels and seed come from
``config.FUSION_DEFAULTS``.

Working set: a step holds the per-scale state, one stack and its pyramid.
Each convolution frees its padded buffer before its GEMM, and no stack,
pyramid or fused map is carried into the next step. ``run_sequence`` keeps
every depth map it returns; ``evdepth fusion run`` drives the same step
generator one stack at a time, so its memory is flat in sequence length.

Parameters serialize to a flat float64 binary archive plus a JSON manifest
listing (name, shape, offset) per tensor, in the one layout ``_archive_layout``
gives; the reader takes exactly what the writer writes, all else is a FormatError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .config import FUSION_DEFAULTS
from .errors import ContractError, DomainError, FormatError, ParameterError, _int_param
from .imgio import _atomic_write, _read_json, _write_json


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-scale feature maps, finest scale first; maps[i] is (H/s, W/s, C_s)."""

    scales: tuple[int, ...]
    maps: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.scales) != len(self.maps):
            raise ContractError("pyramid needs one map per scale")
        _check_scales(self.scales, ContractError)


def _check_scales(scales, error) -> None:
    """The model's one scale rule: one or more scales, each twice the one before (x2 upsample)."""
    if not scales or any(coarse != 2 * fine for fine, coarse in zip(scales, scales[1:])):
        raise error(f"need one or more scales, each twice the one before, got {scales}")


@dataclass(frozen=True)
class ModelParams:
    """Every model tensor, of the shapes ``_archive_layout`` gives; gates ordered input,
    forget, output, candidate; projections keyed by the coarser scale of their pair."""

    scales: tuple[int, ...]
    channels: tuple[int, ...]
    kernels: dict[int, np.ndarray]
    biases: dict[int, np.ndarray]
    projections: dict[int, np.ndarray]
    head_weight: np.ndarray  # (C_finest,)
    head_bias: float


def _sigmoid_inplace(x):
    """Overwrite ``x`` with its logistic sigmoid and return it.

    Branch-free 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below zero:
    both sides divide by one plus the same exp(-|x|), which never overflows.
    min(x, -x) is -|x| that also keeps the sign bit of a NaN input. The
    numerator max(e, x >= 0) is 1 where x >= 0 (there e <= 1) and e
    elsewhere, NaN included: the bits of a select, without its branches.
    """
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    np.maximum(e, x >= 0, out=x)
    e += 1.0
    x /= e
    return x


def _padded(parts, ph: int, pw: int) -> np.ndarray:
    """The (H, W, C_i) maps of ``parts`` side by side along channels, in one
    zero-filled buffer padded by ``ph`` rows and ``pw`` columns on each side."""
    h, w = parts[0].shape[:2]
    n_ch = sum(part.shape[2] for part in parts)
    out = np.zeros((h + 2 * ph, w + 2 * pw, n_ch), dtype=np.result_type(*parts))
    start = 0
    for part in parts:
        out[ph : ph + h, pw : pw + w, start : start + part.shape[2]] = part
        start += part.shape[2]
    return out


def _conv_rows(parts, kernel: np.ndarray) -> np.ndarray:
    """The zero-padded 'same' convolution of the (H, W, C_i) maps of
    ``parts``, side by side along channels, as (Cout, H*W) rows.

    im2col with taps in the kernel's own (kh, kw, Cin) order, then one GEMM
    run as (Cout, K) @ (K, H*W): the GEMM numpy's einsum reduces this
    convolution to, so its sums and its Cout-major result layout are kept.
    Another tap or operand order sums differently and moves the last bits.
    The columns are one C-order copy of a read-only window view into the
    padded buffer, which is freed before the GEMM runs.
    """
    kh, kw, _, c_out = kernel.shape
    h, w = parts[0].shape[:2]
    padded = _padded(parts, kh // 2, kw // 2)
    s_row, s_col, s_ch = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded, (h, w, kh, kw, padded.shape[2]), (s_row, s_col, s_row, s_col, s_ch),
        writeable=False,
    )
    cols = windows.reshape(h * w, -1)
    del padded, windows
    return kernel.reshape(-1, c_out).T @ cols.T


def conv2d_same(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Zero-padded 'same' 2-D convolution; x (H, W, Cin), kernel (k, k, Cin, Cout)."""
    h, w = x.shape[:2]
    return _conv_rows([x], kernel).T.reshape(h, w, kernel.shape[3])


def _fits(dims, pattern) -> bool:
    """Whether ``dims`` are ints (not bools) matching ``pattern``; "odd" is 1, 3, 5..."""
    return len(dims) == len(pattern) and all(
        type(n) is int and (n == p or p == "odd" and n > 0 and n % 2 == 1)
        for n, p in zip(dims, pattern))


def convlstm_step(features, hidden, cell, kernel, bias):
    """One ConvLSTM update; returns (new_hidden, new_cell).

    The enhanced feature map is the new hidden state: every entry is a
    sigmoid times a tanh, hence strictly inside (-1, 1). Both returned maps
    are (H, W, C) views of fresh channel-major (C, H*W) arrays.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3:
        raise ContractError(f"features must be (H, W, C), got {features.shape}")
    if hidden.shape != features.shape or cell.shape != features.shape:
        raise ContractError(
            f"state shape {hidden.shape}/{cell.shape} does not match features {features.shape}"
        )
    h, w, c = features.shape
    if not (_fits(kernel.shape, ("odd", "odd", 2 * c, 4 * c)) and bias.shape == (4 * c,)):
        raise ContractError(f"kernel {kernel.shape} or bias {bias.shape} does not fit {c} channels")
    # Gates stay in the GEMM's (4C, H*W) rows, so each gate block is
    # contiguous and every step below runs in place on it.
    gates = _conv_rows([features, hidden], kernel)
    gates += bias[:, None]
    _sigmoid_inplace(gates[: 3 * c])
    np.tanh(gates[3 * c :], out=gates[3 * c :])
    i, f, o, g = gates.reshape(4, c, h * w)
    i *= g
    new_cell = np.multiply(f, cell.reshape(h * w, c).T, order="C")
    new_cell += i
    new_hidden = np.tanh(new_cell)
    new_hidden *= o
    return new_hidden.T.reshape(h, w, c), new_cell.T.reshape(h, w, c)


def bilinear_up2(x: np.ndarray) -> np.ndarray:
    """Bilinear x2 upsampling, align-corners-off (dst pixel centers map to
    (dst + 0.5)/2 - 0.5 in source coordinates, borders replicated)."""

    def axis_weights(n):
        u = np.clip((np.arange(2 * n) + 0.5) / 2.0 - 0.5, 0, n - 1)
        lo = np.floor(u).astype(np.int64)
        frac = u - lo
        hi = np.minimum(lo + 1, n - 1)
        return lo, hi, frac

    r0, r1, fr = axis_weights(x.shape[0])
    c0, c1, fc = axis_weights(x.shape[1])
    # Columns first, on the input rows only; then rows. Each output element
    # sees the same products and sums as a full-size lerp in both axes, here
    # formed in place in one gathered buffer and one scratch buffer per pass.
    fc = np.ascontiguousarray(np.broadcast_to(fc[:, None], (fc.size, x.shape[2])))
    cols = np.take(x, c0, axis=1)
    cols *= 1 - fc
    scratch = np.take(x, c1, axis=1)
    scratch *= fc
    cols += scratch
    fr = fr[:, None, None]
    out = np.take(cols, r0, axis=0)
    out *= 1 - fr
    scratch = np.take(cols, r1, axis=0)
    scratch *= fr
    out += scratch
    return out


def fuse(pyramid: FeaturePyramid, projections: dict[int, np.ndarray]) -> np.ndarray:
    """Coarse-to-fine fusion: upsample x2, project 1x1 (``projections`` keyed
    by the coarser scale), add to the next finer map. Returns the fused
    finest-scale feature map."""
    scales = pyramid.scales
    acc = pyramid.maps[-1]
    for idx in range(len(scales) - 2, -1, -1):
        proj = projections.get(scales[idx + 1])
        fine_map = pyramid.maps[idx]
        if proj is None or proj.shape != (acc.shape[2], fine_map.shape[2]):
            raise ContractError(
                f"scale {scales[idx + 1]} needs a ({acc.shape[2]}, {fine_map.shape[2]}) projection"
            )
        up = bilinear_up2(acc)
        if up.shape[:2] != fine_map.shape[:2]:
            raise ContractError(
                f"upsampled {up.shape[:2]} does not match finer map {fine_map.shape[:2]}"
            )
        acc = fine_map + up @ proj
    return acc


def depth_head(fused: np.ndarray, weight: np.ndarray, bias: float) -> np.ndarray:
    """Linear projection of fused features to a single depth channel."""
    if weight.shape != (fused.shape[2],):
        raise ContractError(f"head weight shape {weight.shape}, expected ({fused.shape[2]},)")
    return fused @ weight + bias


def _model_shape(scales, channels) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The scales (each at least 1, as ``_check_scales`` has them) and channel counts (each
    at least 1, one per scale) as Python ints; a non-iterable argument is a TypeError."""
    scales = tuple(_int_param("scale", s, 1) for s in scales)
    channels = tuple(_int_param("channel count", c, 1) for c in channels)
    _check_scales(scales, ParameterError)
    if len(scales) != len(channels):
        raise ParameterError("need one channel count per scale")
    return scales, channels


@functools.lru_cache(maxsize=16)
def _toy_embedding(seed: int, s: int, c_in: int, c_s: int, hs: int, ws: int):
    """The seeded (projection, positional) pair of one scale, read-only."""
    rng = np.random.default_rng([seed, s])
    projection = rng.standard_normal((s * s * c_in, c_s)) / np.sqrt(s * s * c_in)
    positional = 0.1 * rng.standard_normal((hs, ws, c_s))
    projection.flags.writeable = False
    positional.flags.writeable = False
    return projection, positional


def toy_extractor(
    stack,
    seed: int = FUSION_DEFAULTS.seed,
    scales: tuple[int, ...] = FUSION_DEFAULTS.scales,
    channels: tuple[int, ...] = FUSION_DEFAULTS.channels,
) -> FeaturePyramid:
    """Seeded random-projection patch embedding standing in for a real
    backbone: non-overlapping s x s patches, a fixed Gaussian projection per
    scale, plus a fixed positional term. Same seed, same stack: identical
    pyramid bits.
    """
    seed = _int_param("seed", seed, 0)
    scales, channels = _model_shape(scales, channels)
    values = np.asarray(stack, dtype=np.float64)
    if values.ndim != 3:
        raise ContractError(f"stack values must be (H, W, C), got {values.shape}")
    h, w, c_in = values.shape
    maps = []
    for s, c_s in zip(scales, channels):
        if h % s or w % s:
            raise ContractError(f"stack dims {h}x{w} not divisible by scale {s}")
        hs, ws = h // s, w // s
        patches = values.reshape(hs, s, ws, s, c_in).transpose(0, 2, 1, 3, 4)
        patches = patches.reshape(hs, ws, s * s * c_in)
        projection, positional = _toy_embedding(seed, s, c_in, c_s, hs, ws)
        maps.append(patches @ projection + positional)
    return FeaturePyramid(scales, tuple(maps))


def make_model_params(
    seed: int = FUSION_DEFAULTS.seed,
    scales: tuple[int, ...] = FUSION_DEFAULTS.scales,
    channels: tuple[int, ...] = FUSION_DEFAULTS.channels,
) -> ModelParams:
    """Seeded parameters with 3x3 gate kernels."""
    seed = _int_param("seed", seed, 0)
    scales, channels = _model_shape(scales, channels)
    kernels = {}
    biases = {}
    for s, c in zip(scales, channels):
        rng = np.random.default_rng([seed, 7, s])
        kernels[s] = rng.standard_normal((3, 3, 2 * c, 4 * c)) / np.sqrt(3 * 3 * 2 * c)
        b = np.zeros(4 * c)
        b[c : 2 * c] = 1.0  # forget gate bias: retain state by default
        biases[s] = b
    projections = {}
    for f_ch, c_scale, c_ch in zip(channels, scales[1:], channels[1:]):
        rng = np.random.default_rng([seed, 11, c_scale])
        projections[c_scale] = rng.standard_normal((c_ch, f_ch)) / np.sqrt(c_ch)
    rng = np.random.default_rng([seed, 13])
    head_weight = rng.standard_normal(channels[0]) / np.sqrt(channels[0])
    return ModelParams(scales, channels, kernels, biases, projections, head_weight, 0.0)


def _steps(
    stacks: Iterable,
    extractor: Callable[[object], FeaturePyramid],
    params: ModelParams,
) -> Iterator[np.ndarray]:
    """The recurrence of ``run_sequence``, yielding each step's depth map as
    soon as it is computed and taking the next stack from ``stacks`` only
    then. Between steps it keeps the per-scale state and nothing frame-sized
    besides: each step's stack, pyramid and fused map are freed before the
    next stack is taken."""
    hidden, cell = [], []  # per scale, finest first
    step = 0  # not enumerate(): its reused result tuple would keep the last stack
    for stack in stacks:
        # an overflow or a non-finite input reaches the depth, tested below
        with np.errstate(over="ignore", invalid="ignore"):
            pyramid = extractor(stack)
            del stack  # a generator keeps its locals across the yield
            if pyramid.scales != params.scales:
                raise ContractError(
                    f"extractor scales {pyramid.scales} do not match params {params.scales}"
                )
            if not hidden:
                hidden = [np.zeros_like(f) for f in pyramid.maps]
                cell = [np.zeros_like(f) for f in pyramid.maps]
            for i, s in enumerate(params.scales):
                if pyramid.maps[i].shape != hidden[i].shape:
                    raise ContractError(
                        f"step {step}: shape drift at scale {s}: "
                        f"{pyramid.maps[i].shape} vs {hidden[i].shape}"
                    )
                hidden[i], cell[i] = convlstm_step(
                    pyramid.maps[i], hidden[i], cell[i], params.kernels[s], params.biases[s]
                )
            del pyramid
            fused = fuse(FeaturePyramid(params.scales, tuple(hidden)), params.projections)
            depth = depth_head(fused, params.head_weight, params.head_bias)
            del fused
        if not np.isfinite(depth).all():
            raise DomainError(f"step {step}: depth is not finite (non-finite input or overflow)")
        yield depth
        step += 1


def run_sequence(
    stacks: Sequence,
    extractor: Callable[[object], FeaturePyramid],
    params: ModelParams,
) -> list[np.ndarray]:
    """Run the recurrent model over a stack sequence; one depth map per step.

    State starts at zero and carries across the whole sequence. Output maps
    live at the finest stride; a step whose depth is not finite is a DomainError.
    """
    return list(_steps(stacks, extractor, params))


# ---------------------------------------------------------------------------
# Parameter archive


def _archive_layout(scales, channels):
    """The archive's tensors in file order: name, ``ModelParams`` field, scale (None
    for the head's) and shape, where "odd" is a kernel side, as ``convlstm_step`` takes it."""
    for s, c in zip(scales, channels):
        yield f"lstm.{s}.kernel", "kernels", s, ("odd", "odd", 2 * c, 4 * c)
        yield f"lstm.{s}.bias", "biases", s, (4 * c,)
    for c_fine, s, c in zip(channels, scales[1:], channels[1:]):
        yield f"fuse.{s}.projection", "projections", s, (c, c_fine)
    yield "head.weight", "head_weight", None, (channels[0],)
    yield "head.bias", "head_bias", None, (1,)


def save_model_params(params: ModelParams, bin_path) -> None:
    """Write the tensors to ``bin_path`` and their manifest to ``<bin stem>.json``; scales that
    do not double or a tensor not of its layout shape is a ContractError, and no file is written."""
    _check_scales(params.scales, ContractError)
    bin_path = Path(bin_path)
    tensors = []
    offset = 0
    with _atomic_write(bin_path, "wb") as fh:
        for name, field, scale, pattern in _archive_layout(params.scales, params.channels):
            value = getattr(params, field)
            # at least one dimension: the float head bias is written as (1,)
            data = np.ascontiguousarray(value if scale is None else value[scale], dtype="<f8")
            if not _fits(data.shape, pattern):
                raise ContractError(f"{name} shape {data.shape}, expected {pattern}")
            fh.write(data.tobytes())
            tensors.append({"name": name, "shape": list(data.shape), "offset": offset})
            offset += data.nbytes
    manifest = {"version": 1, "dtype": "<f8", "scales": list(params.scales),
                "channels": list(params.channels), "tensors": tensors}
    _write_json(bin_path.with_suffix(".json"), manifest)


def load_model_params(bin_path) -> ModelParams:
    """Read an archive as save_model_params writes it and nothing else: the tensors
    the manifest's scales and channels give, in archive order, each of its shape at the
    offset where the one before ends, no bytes past the last; else a FormatError."""
    bin_path = Path(bin_path)
    json_path = bin_path.with_suffix(".json")
    manifest = _read_json(json_path, "parameter manifest")
    offset = 0
    try:
        scales, channels = _model_shape(manifest["scales"], manifest["channels"])
        layout = list(_archive_layout(scales, channels))
        entries = manifest["tensors"]
        header = {"version": 1, "dtype": "<f8", "scales": list(scales), "channels": list(channels)}
        if manifest != {**header, "tensors": entries} or len(entries) != len(layout):
            raise FormatError(f"{json_path}: not a version 1 '<f8' manifest of the {len(layout)} "
                              f"tensors of scales {scales} and channels {channels}")
        for (name, _, _, pattern), entry in zip(layout, entries):
            # the offset is matched as a pattern too, as 8.0 and true equal ints
            if (entry != {"name": name, "shape": entry["shape"], "offset": offset}
                    or not _fits([entry["offset"], *entry["shape"]], (offset, *pattern))):
                raise FormatError(f"{json_path}: expected {name} of shape {pattern} at offset "
                                  f"{offset}, got {entry!r}")
            offset += 8 * math.prod(entry["shape"])
    except (KeyError, ParameterError, TypeError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise FormatError(f"{json_path}: not a parameter manifest: {what}") from None
    raw = bin_path.read_bytes()
    if len(raw) != offset:
        raise FormatError(f"{bin_path}: {len(raw)} bytes, its manifest lists {offset}")
    fields = {"projections": {}}  # a one-scale model has none
    for (_, field, scale, _), entry in zip(layout, entries):
        tensor = np.frombuffer(raw, "<f8", math.prod(entry["shape"]), entry["offset"])
        fields.setdefault(field, {})[scale] = tensor.reshape(entry["shape"]).astype(np.float64)
    return ModelParams(scales, channels, fields["kernels"], fields["biases"], fields["projections"],
                       fields["head_weight"][None], float(fields["head_bias"][None][0]))

"""Desk-scale recurrent multi-scale fusion runner.

Forward-only numpy reference of the mechanism: a pluggable extractor turns an
event stack into a feature pyramid at strides {4, 8, 16}; a ConvLSTM per
scale folds the new features into per-scale hidden/cell state; the enhanced
maps are fused coarse-to-fine (bilinear x2 upsample, 1x1 projection, add) and
a linear head produces a depth map at the finest stride.

There is no training here: state starts at zero and carries across the
whole sequence. Default scales, channels and seed come from
``config.FUSION_DEFAULTS``.

Parameters serialize to a flat float64 binary archive plus a JSON manifest
listing (name, shape, offset) per tensor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .config import FUSION_DEFAULTS
from .errors import ContractError, FormatError, ParameterError
from .stacks import EventStack


@dataclass(frozen=True)
class FeaturePyramid:
    """Per-scale feature maps, finest scale first; maps[i] is (H/s, W/s, C_s)."""

    scales: tuple[int, ...]
    maps: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.scales) != len(self.maps) or not self.scales:
            raise ContractError("pyramid needs one map per scale")
        if list(self.scales) != sorted(self.scales):
            raise ContractError(f"scales must ascend, got {self.scales}")


@dataclass
class RecurrentState:
    """Hidden and cell maps per scale; zero-initialized at sequence start."""

    hidden: dict[int, np.ndarray]
    cell: dict[int, np.ndarray]

    @classmethod
    def zeros_like(cls, pyramid: FeaturePyramid) -> "RecurrentState":
        hidden = {s: np.zeros_like(f) for s, f in zip(pyramid.scales, pyramid.maps)}
        cell = {s: np.zeros_like(f) for s, f in zip(pyramid.scales, pyramid.maps)}
        return cls(hidden, cell)


@dataclass(frozen=True)
class ConvLSTMParams:
    """Per scale: gate kernel (k, k, 2*C_s, 4*C_s) and bias (4*C_s,).

    Gate order along the last axis is input, forget, output, candidate;
    the forget block is initialized to 1 for state retention.
    """

    kernels: dict[int, np.ndarray]
    biases: dict[int, np.ndarray]


@dataclass(frozen=True)
class FusionParams:
    """1x1 projections keyed by the coarse scale of each adjacent pair, plus
    the linear depth head over the finest-scale fused features."""

    projections: dict[int, np.ndarray]  # (C_coarse, C_fine)
    head_weight: np.ndarray  # (C_finest,)
    head_bias: float


@dataclass(frozen=True)
class ModelParams:
    convlstm: ConvLSTMParams
    fusion: FusionParams
    scales: tuple[int, ...]
    channels: tuple[int, ...]


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def conv2d_same(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Zero-padded 'same' 2-D convolution; x (H, W, Cin), kernel (k, k, Cin, Cout)."""
    kh, kw = kernel.shape[:2]
    ph, pw = kh // 2, kw // 2
    padded = np.pad(x, ((ph, ph), (pw, pw), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(0, 1))
    # windows: (H, W, Cin, kh, kw)
    return np.einsum("hwcij,ijco->hwo", windows, kernel, optimize=True)


def convlstm_step(features, hidden, cell, kernel, bias):
    """One ConvLSTM update; returns (new_hidden, new_cell).

    The enhanced feature map is the new hidden state: every entry is a
    sigmoid times a tanh, hence strictly inside (-1, 1).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3:
        raise ContractError(f"features must be (H, W, C), got {features.shape}")
    if hidden.shape != features.shape or cell.shape != features.shape:
        raise ContractError(
            f"state shape {hidden.shape}/{cell.shape} does not match features {features.shape}"
        )
    c = features.shape[2]
    if kernel.ndim != 4 or kernel.shape[2] != 2 * c or kernel.shape[3] != 4 * c:
        raise ContractError(f"kernel shape {kernel.shape} incompatible with {c} channels")
    if bias.shape != (4 * c,):
        raise ContractError(f"bias shape {bias.shape}, expected ({4 * c},)")
    gates = conv2d_same(np.concatenate([features, hidden], axis=2), kernel) + bias
    i = _sigmoid(gates[:, :, :c])
    f = _sigmoid(gates[:, :, c : 2 * c])
    o = _sigmoid(gates[:, :, 2 * c : 3 * c])
    g = np.tanh(gates[:, :, 3 * c :])
    new_cell = f * cell + i * g
    new_hidden = o * np.tanh(new_cell)
    return new_hidden, new_cell


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
    fr = fr[:, None, None]
    fc = fc[None, :, None]
    top = x[r0][:, c0] * (1 - fc) + x[r0][:, c1] * fc
    bottom = x[r1][:, c0] * (1 - fc) + x[r1][:, c1] * fc
    return top * (1 - fr) + bottom * fr


def fuse(pyramid: FeaturePyramid, params: FusionParams) -> np.ndarray:
    """Coarse-to-fine fusion: upsample x2, project 1x1, add to the next finer
    map. Returns the fused finest-scale feature map."""
    scales = pyramid.scales
    for fine, coarse in zip(scales, scales[1:]):
        if coarse != 2 * fine:
            raise ContractError(f"scales must be contiguous (factor 2), got {scales}")
    acc = pyramid.maps[-1]
    for idx in range(len(scales) - 2, -1, -1):
        proj = params.projections.get(scales[idx + 1])
        if proj is None:
            raise ContractError(f"missing projection for scale {scales[idx + 1]}")
        up = bilinear_up2(acc)
        fine_map = pyramid.maps[idx]
        if up.shape[:2] != fine_map.shape[:2]:
            raise ContractError(
                f"upsampled {up.shape[:2]} does not match finer map {fine_map.shape[:2]}"
            )
        acc = fine_map + up @ proj
    return acc


def depth_head(fused: np.ndarray, params: FusionParams) -> np.ndarray:
    """Linear projection of fused features to a single depth channel."""
    if fused.shape[2] != params.head_weight.shape[0]:
        raise ContractError(
            f"head expects {params.head_weight.shape[0]} channels, got {fused.shape[2]}"
        )
    return fused @ params.head_weight + params.head_bias


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
    values = stack.values if isinstance(stack, EventStack) else np.asarray(stack, dtype=np.float64)
    if values.ndim != 3:
        raise ContractError(f"stack values must be (H, W, C), got {values.shape}")
    h, w, c_in = values.shape
    maps = []
    for s, c_s in zip(scales, channels):
        if h % s or w % s:
            raise ContractError(f"stack dims {h}x{w} not divisible by scale {s}")
        rng = np.random.default_rng([seed, s])
        hs, ws = h // s, w // s
        patches = values.reshape(hs, s, ws, s, c_in).transpose(0, 2, 1, 3, 4)
        patches = patches.reshape(hs, ws, s * s * c_in)
        projection = rng.standard_normal((s * s * c_in, c_s)) / np.sqrt(s * s * c_in)
        positional = 0.1 * rng.standard_normal((hs, ws, c_s))
        maps.append(patches @ projection + positional)
    return FeaturePyramid(tuple(scales), tuple(maps))


def make_model_params(
    seed: int = FUSION_DEFAULTS.seed,
    scales: tuple[int, ...] = FUSION_DEFAULTS.scales,
    channels: tuple[int, ...] = FUSION_DEFAULTS.channels,
    kernel_size: int = 3,
) -> ModelParams:
    if len(scales) != len(channels) or not scales:
        raise ParameterError("need one channel count per scale")
    kernels = {}
    biases = {}
    for s, c in zip(scales, channels):
        rng = np.random.default_rng([seed, 7, s])
        fan_in = kernel_size * kernel_size * 2 * c
        kernels[s] = rng.standard_normal((kernel_size, kernel_size, 2 * c, 4 * c)) / np.sqrt(fan_in)
        b = np.zeros(4 * c)
        b[c : 2 * c] = 1.0  # forget gate bias: retain state by default
        biases[s] = b
    projections = {}
    for (f_scale, f_ch), (c_scale, c_ch) in zip(
        zip(scales, channels), zip(scales[1:], channels[1:])
    ):
        rng = np.random.default_rng([seed, 11, c_scale])
        projections[c_scale] = rng.standard_normal((c_ch, f_ch)) / np.sqrt(c_ch)
    rng = np.random.default_rng([seed, 13])
    head_weight = rng.standard_normal(channels[0]) / np.sqrt(channels[0])
    return ModelParams(
        convlstm=ConvLSTMParams(kernels, biases),
        fusion=FusionParams(projections, head_weight, 0.0),
        scales=tuple(scales),
        channels=tuple(channels),
    )


def run_sequence(
    stacks: Sequence,
    extractor: Callable[[object], FeaturePyramid],
    params: ModelParams,
) -> list[np.ndarray]:
    """Run the recurrent model over a stack sequence; one depth map per step.

    State starts at zero and carries across the whole sequence. Output maps
    live at the finest stride.
    """
    state = None
    outputs = []
    for step, stack in enumerate(stacks):
        pyramid = extractor(stack)
        if pyramid.scales != params.scales:
            raise ContractError(
                f"extractor scales {pyramid.scales} do not match params {params.scales}"
            )
        if state is None:
            state = RecurrentState.zeros_like(pyramid)
        enhanced = []
        for s, feature_map in zip(pyramid.scales, pyramid.maps):
            if feature_map.shape != state.hidden[s].shape:
                raise ContractError(
                    f"step {step}: shape drift at scale {s}: "
                    f"{feature_map.shape} vs {state.hidden[s].shape}"
                )
            h_new, c_new = convlstm_step(
                feature_map,
                state.hidden[s],
                state.cell[s],
                params.convlstm.kernels[s],
                params.convlstm.biases[s],
            )
            state.hidden[s] = h_new
            state.cell[s] = c_new
            enhanced.append(h_new)
        fused = fuse(FeaturePyramid(pyramid.scales, tuple(enhanced)), params.fusion)
        outputs.append(depth_head(fused, params.fusion))
    return outputs


# ---------------------------------------------------------------------------
# Parameter archive


def _named_tensors(params: ModelParams):
    for s in params.scales:
        yield f"lstm.{s}.kernel", params.convlstm.kernels[s]
        yield f"lstm.{s}.bias", params.convlstm.biases[s]
    for s in params.scales[1:]:
        yield f"fuse.{s}.projection", params.fusion.projections[s]
    yield "head.weight", params.fusion.head_weight
    yield "head.bias", np.asarray([params.fusion.head_bias])


def save_model_params(params: ModelParams, bin_path, manifest_path=None) -> None:
    bin_path = Path(bin_path)
    manifest_path = Path(manifest_path) if manifest_path else bin_path.with_suffix(".json")
    tensors = []
    offset = 0
    with open(bin_path, "wb") as fh:
        for name, arr in _named_tensors(params):
            data = np.ascontiguousarray(arr, dtype="<f8")
            fh.write(data.tobytes())
            tensors.append({"name": name, "shape": list(data.shape), "offset": offset})
            offset += data.nbytes
    manifest = {
        "version": 1,
        "dtype": "<f8",
        "scales": list(params.scales),
        "channels": list(params.channels),
        "tensors": tensors,
    }
    with open(manifest_path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model_params(bin_path, manifest_path=None) -> ModelParams:
    bin_path = Path(bin_path)
    manifest_path = Path(manifest_path) if manifest_path else bin_path.with_suffix(".json")
    with open(manifest_path, "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    if manifest.get("version") != 1 or manifest.get("dtype") != "<f8":
        raise FormatError(f"{manifest_path}: unsupported parameter manifest")
    raw = bin_path.read_bytes()
    tensors = {}
    for spec in manifest["tensors"]:
        shape = tuple(spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = spec["offset"]
        end = start + count * 8
        if end > len(raw):
            raise FormatError(f"{bin_path}: archive truncated at tensor {spec['name']}")
        tensors[spec["name"]] = (
            np.frombuffer(raw[start:end], dtype="<f8").reshape(shape).astype(np.float64)
        )
    scales = tuple(manifest["scales"])
    channels = tuple(manifest["channels"])
    try:
        kernels = {s: tensors[f"lstm.{s}.kernel"] for s in scales}
        biases = {s: tensors[f"lstm.{s}.bias"] for s in scales}
        projections = {s: tensors[f"fuse.{s}.projection"] for s in scales[1:]}
        head_weight = tensors["head.weight"]
        head_bias = float(tensors["head.bias"][0])
    except KeyError as exc:
        raise FormatError(f"{manifest_path}: missing tensor {exc}") from None
    return ModelParams(
        convlstm=ConvLSTMParams(kernels, biases),
        fusion=FusionParams(projections, head_weight, head_bias),
        scales=scales,
        channels=channels,
    )

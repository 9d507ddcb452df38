"""Dense stacked representations of an event slice.

Three encoders share the same contract: an EventSlice goes in, a (H, W, C)
float64 raster comes out, tagged with the slice interval.

  voxel      C = B temporal bins; polarity accumulated with linear
             interpolation at bin coordinate (t - t_start)/(t_end - t_start)
             * (B - 1), so an event touches at most two adjacent bins and the
             grid total equals the polarity sum.
  imagelike  C = 3; R/B flag the presence of positive/negative events per
             pixel, G stays 0. No temporal information.
  tencode    C = 3; per pixel the most recent event wins: R/B carry its
             polarity and G = (t_end - t_k)/duration carries its recency.

Empty slices encode to all-zero stacks: a static scene is a valid input,
not an error. All encoders are pure functions of the slice.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ENCODER_DEFAULTS
from .errors import DegenerateIntervalError, FormatError, ParameterError, _choice_param, _int_param
from .events import EventSlice, _allocate
from .imgio import _raster_shape, read_pfm, write_pfm, write_ppm
from .naming import files_by_stem


class StackLayout(enum.Enum):
    VOXEL = "voxel"
    IMAGE_LIKE = "imagelike"
    TENCODE = "tencode"


@dataclass(frozen=True)
class EventStack:
    layout: StackLayout
    values: np.ndarray  # (H, W, C) float64
    t_start_us: int
    t_end_us: int

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


def _check_interval(sl: EventSlice) -> int:
    duration = sl.duration_us
    if len(sl) and duration <= 0:
        raise DegenerateIntervalError(
            f"slice holds {len(sl)} events but covers a zero-length interval at t={sl.t_end_us}"
        )
    return duration


def _zeros(sl: EventSlice, layout: StackLayout, channels: int) -> np.ndarray:
    """The zero-filled (H, W, C) float64 raster of one stack."""
    what = f"a {sl.width}x{sl.height}x{channels} {layout.value} stack"
    return _allocate(what, (sl.height, sl.width, channels), np.float64)


def _bin_count(bins) -> int:
    """``bins`` checked, or the default voxel bin count when it is None."""
    return _int_param("bin count", ENCODER_DEFAULTS.voxel_bins if bins is None else bins, 1)


def encode_voxel(sl: EventSlice, bins: int) -> EventStack:
    bins = _bin_count(bins)
    duration = _check_interval(sl)
    grid = _zeros(sl, StackLayout.VOXEL, bins)
    if len(sl):
        b_star = (sl.ts - sl.t_start_us).astype(np.float64) / duration * (bins - 1)
        left = np.floor(b_star).astype(np.int64)
        frac = b_star - left
        pol = sl.ps.astype(np.float64)
        flat = grid.ravel()
        base = (sl.ys.astype(np.int64) * sl.width + sl.xs) * bins
        np.add.at(flat, base + left, pol * (1.0 - frac))
        spill = frac > 0  # when frac == 0 the right neighbor gets weight 0
        if spill.any():
            np.add.at(flat, base[spill] + left[spill] + 1, pol[spill] * frac[spill])
    return EventStack(StackLayout.VOXEL, grid, sl.t_start_us, sl.t_end_us)


def encode_image_like(sl: EventSlice) -> EventStack:
    values = _zeros(sl, StackLayout.IMAGE_LIKE, 3)
    values[sl.ys, sl.xs, np.where(sl.ps > 0, 0, 2)] = 1.0
    return EventStack(StackLayout.IMAGE_LIKE, values, sl.t_start_us, sl.t_end_us)


def encode_tencode(sl: EventSlice) -> EventStack:
    values = _zeros(sl, StackLayout.TENCODE, 3)
    if len(sl):
        duration = _check_interval(sl)
        flat = sl.ys.astype(np.intp) * sl.width + sl.xs
        # index of the last event per pixel, -1 where none fired. ufunc.at
        # applies every update; with fancy assignment numpy leaves undefined
        # which of several writes to one pixel wins.
        last_of = np.full(sl.height * sl.width, -1, dtype=np.intp)
        np.maximum.at(last_of, flat, np.arange(len(sl)))
        lit = np.flatnonzero(last_of >= 0)
        last = last_of[lit]
        recency = (sl.t_end_us - sl.ts[last]).astype(np.float64) / duration
        pixels = values.reshape(-1, 3)
        pixels[lit, np.where(sl.ps[last] > 0, 0, 2)] = 1.0
        pixels[lit, 1] = recency
    return EventStack(StackLayout.TENCODE, values, sl.t_start_us, sl.t_end_us)


def encode(sl: EventSlice, layout: StackLayout, bins: int | None = None) -> EventStack:
    layout = _choice_param("layout", layout, StackLayout)
    if layout is StackLayout.VOXEL:
        return encode_voxel(sl, bins)
    if bins is not None:
        raise ParameterError("bins applies to the voxel layout only")
    if layout is StackLayout.IMAGE_LIKE:
        return encode_image_like(sl)
    return encode_tencode(sl)


def _check_format(layout: StackLayout, fmt: str) -> None:
    """A ParameterError unless stacks of ``layout`` can be written as ``fmt``
    ("pfm" or "ppm"): an 8-bit PPM cannot hold a voxel stack's signed sums."""
    if fmt == "ppm" and layout is StackLayout.VOXEL:
        raise ParameterError("voxel stacks carry signed accumulations; export them as PFM")


def save_stack_ppm(stack: EventStack, path) -> Path:
    """8-bit PPM export; only meaningful for the [0, 1]-valued 3-channel layouts."""
    _check_format(stack.layout, "ppm")
    write_ppm(path, stack.values)
    return Path(path)


def save_stack_pfm(stack: EventStack, path) -> list[Path]:
    """PFM export. 3-channel stacks become one color PFM; any other channel
    count is written as one grayscale PFM per channel (``name.c<k>.pfm``)."""
    path = Path(path)
    if stack.channels == 3:
        write_pfm(path, stack.values)
        return [path]
    written = []
    for k in range(stack.channels):
        p = path.with_name(f"{path.stem}.c{k}{path.suffix}")
        write_pfm(p, stack.values[:, :, k])
        written.append(p)
    return written


_CHANNEL_STEM = re.compile(r"(.+)\.c(0|[1-9][0-9]*)")


def _stack_files(directory) -> list[tuple[str, list[Path], tuple[int, int, int]]]:
    """The stacks of a directory of PFM files, from their headers alone: one
    (stem, files, (H, W, C) shape) per stack, in stem order. The
    ``<stem>.c<k>.pfm`` files of one stem are its channels, in channel order;
    any other PFM is a whole stack. Every file's header and size is checked
    here, and so is the channel grouping, so reading the files afterwards
    cannot find a malformed one. Two files whose names differ only in the
    suffix's case are ambiguous (BuildError)."""
    whole: dict[str, tuple[list[Path], tuple[int, int, int]]] = {}
    split: dict[str, dict[int, tuple[Path, tuple[int, int, int]]]] = {}
    for path in files_by_stem(directory, (".pfm",), "stack").values():
        shape = _raster_shape(path)
        match = _CHANNEL_STEM.fullmatch(path.stem)
        if match is None:
            whole[path.stem] = ([path], shape)
        elif shape[2] != 1:
            raise FormatError(f"{path}: a channel file must be a grayscale PFM")
        else:
            split.setdefault(match[1], {})[int(match[2])] = (path, shape)
    for stem, planes in split.items():
        if stem in whole:
            raise FormatError(f"{directory}: stack {stem} has a whole-stack file and channel files")
        missing = set(range(max(planes) + 1)) - set(planes)
        if missing:
            raise FormatError(f"{directory}: stack {stem} has no channel file .c{min(missing)}")
        if len({shape for _, shape in planes.values()}) > 1:
            raise FormatError(f"{directory}: stack {stem} has channel files of different sizes")
        whole[stem] = ([planes[k][0] for k in range(len(planes))], planes[0][1][:2] + (len(planes),))
    return [(stem, *whole[stem]) for stem in sorted(whole)]


def _read_stack(files: list[Path], shape: tuple[int, int, int]) -> np.ndarray:
    """The (H, W, C) values of one stack of ``_stack_files``."""
    if len(files) == 1:  # a whole stack, or a stack of one channel file
        return read_pfm(files[0]).reshape(shape)
    values = np.empty(shape)
    for k, path in enumerate(files):
        values[:, :, k] = read_pfm(path)
    return values


def load_stack_pfms(directory) -> list[tuple[str, np.ndarray]]:
    """Inverse of save_stack_pfm over a directory: one (stem, (H, W, C)
    array) per stack, in stem order, grouped as by ``_stack_files``."""
    return [(stem, _read_stack(files, shape)) for stem, files, shape in _stack_files(directory)]

"""Ideal event-camera simulator: intensity frames in, event stream out.

Each pixel tracks a log-intensity reference level, initialized from the
first frame. Between consecutive frames the log intensity is assumed to move
linearly; every time it gets a full contrast threshold C away from the
reference, one event fires (polarity = sign of the change) and the reference
steps by +/-C. Event timestamps are interpolated at the crossing points.

There is no noise model and no refractory period: the output is the exact
threshold-crossing oracle that the encoder and pipeline tests check against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ContractError,
    DomainError,
    FormatError,
    InsufficientInputError,
    OrderingError,
    ParameterError,
)
from .events import EventStream
from .imgio import read_pgm
from .naming import timestamped_files


# simulate interpolates event times in float64, whose spacing just below 2**63
# is 2**10: an event time can round up to one spacing past its frame pair's
# end, and from the last frame time allowed here it still fits an int64.
MAX_FRAME_TIME_US = 2**63 - 2**11


@dataclass(frozen=True)
class IntensityFrame:
    """Linear-intensity raster (strictly positive) at an integer time in
    [0, MAX_FRAME_TIME_US] microseconds."""

    timestamp_us: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ContractError(f"frame values must be (H, W), got {values.shape}")
        t = self.timestamp_us
        is_int = isinstance(t, (int, np.integer)) and not isinstance(t, bool)
        if not (is_int and 0 <= t <= MAX_FRAME_TIME_US):
            raise ParameterError(
                f"frame timestamp {t!r} is not an integer in [0, {MAX_FRAME_TIME_US}] us"
            )
        if not np.all(np.isfinite(values)) or (values <= 0).any():
            raise DomainError("frame intensities must be finite and strictly positive")
        object.__setattr__(self, "timestamp_us", int(t))
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SimConfig:
    """Contrast threshold C in log-intensity units."""

    contrast_threshold: float

    def __post_init__(self) -> None:
        if not (self.contrast_threshold > 0):
            raise ParameterError(
                f"contrast threshold must be > 0, got {self.contrast_threshold}"
            )


def frame_from_pgm(path, timestamp_us: int) -> IntensityFrame:
    """Load an 8-bit PGM, mapping value v to intensity (v + 1) / 256."""
    raster, maxval = read_pgm(path)
    if maxval > 255:
        raise FormatError(f"{path}: simulator frames must be 8-bit PGM, maxval {maxval}")
    try:
        return IntensityFrame(timestamp_us, (raster.astype(np.float64) + 1.0) / 256.0)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def frames_from_dir(dirpath) -> list[IntensityFrame]:
    """Load every .pgm in a directory, timestamped by filename or index file."""
    pairs = timestamped_files(dirpath, suffixes=(".pgm",))
    return [frame_from_pgm(path, t) for t, path in pairs]


def simulate(frames: Sequence[IntensityFrame], config: SimConfig) -> EventStream:
    """Run the threshold-crossing model over a frame sequence.

    Returns a time-sorted stream on the frames' sensor grid. Per pixel and
    frame pair, the number of emitted events is floor(|log change relative to
    the reference| / C), timestamps linearly interpolated in crossing order.
    """
    if len(frames) < 2:
        raise InsufficientInputError(f"simulation needs >= 2 frames, got {len(frames)}")
    height, width = frames[0].values.shape
    for f in frames[1:]:
        if f.values.shape != (height, width):
            raise ContractError(
                f"frame shape drift: {f.values.shape} after ({height}, {width})"
            )
    times = [f.timestamp_us for f in frames]
    for a, b in zip(times, times[1:]):
        if b <= a:
            raise OrderingError(f"frame timestamps must strictly increase: {a} then {b}")

    # Below 2**53 us float64 holds every integer, so each interpolated time
    # lies in its own frame pair's [t_a, t_b]; past it an event can round out
    # of its pair, and only one global sort orders the stream.
    sort_per_pair = times[-1] <= 2**53
    c = float(config.contrast_threshold)
    ref = np.log(frames[0].values).ravel()
    log_prev = ref.copy()
    chunks_x, chunks_y, chunks_p, chunks_t = [], [], [], []

    for prev, cur in zip(frames, frames[1:]):
        log_cur = np.log(cur.values).ravel()
        t_a, t_b = prev.timestamp_us, cur.timestamp_us
        pair_pix, pair_p, pair_t = [], [], []

        n_pos = np.floor((log_cur - ref) / c).astype(np.int64)
        np.maximum(n_pos, 0, out=n_pos)
        n_neg = np.floor((ref - log_cur) / c).astype(np.int64)
        np.maximum(n_neg, 0, out=n_neg)

        for counts, sign in ((n_pos, 1), (n_neg, -1)):
            pixels = np.flatnonzero(counts)
            if pixels.size == 0:
                continue
            per_pixel = counts[pixels]
            total = int(per_pixel.sum())
            pix = np.repeat(pixels, per_pixel)
            stops = np.cumsum(per_pixel)
            j = np.arange(1, total + 1) - np.repeat(stops - per_pixel, per_pixel)
            levels = ref[pix] + sign * j * c
            denom = log_cur[pix] - log_prev[pix]
            with np.errstate(divide="ignore", invalid="ignore"):
                frac = (levels - log_prev[pix]) / denom
            # roundoff guard: a crossing can sit within eps of a frame value
            frac = np.clip(np.nan_to_num(frac, nan=1.0, posinf=1.0, neginf=1.0), 0.0, 1.0)
            pair_pix.append(pix)
            pair_p.append(np.full(total, sign, dtype=np.int8))
            pair_t.append(np.rint(t_a + (t_b - t_a) * frac).astype(np.int64))

        if pair_t:
            pix = np.concatenate(pair_pix)
            ps = np.concatenate(pair_p)
            t_ev = np.concatenate(pair_t)
            if sort_per_pair:
                # earlier pairs win ties at t_b, so stable-sorting each pair
                # on its own gives one global stable sort's order; the offset
                # from t_a fits the smallest unsigned type holding t_b - t_a,
                # and at <= 16 bits numpy's stable sort is a radix sort
                key = (t_ev - t_a).astype(np.min_scalar_type(t_b - t_a))
                order = np.argsort(key, kind="stable")
                pix, ps, t_ev = pix[order], ps[order], t_ev[order]
            chunks_x.append((pix % width).astype(np.int32))
            chunks_y.append((pix // width).astype(np.int32))
            chunks_p.append(ps)
            chunks_t.append(t_ev)

        ref = ref + (n_pos - n_neg) * c
        log_prev = log_cur

    if not chunks_t:
        return EventStream.empty(width, height)
    xs = np.concatenate(chunks_x)
    ys = np.concatenate(chunks_y)
    ps = np.concatenate(chunks_p)
    ts = np.concatenate(chunks_t)
    if not sort_per_pair:
        order = np.argsort(ts, kind="stable")
        xs, ys, ps, ts = xs[order], ys[order], ps[order], ts[order]
    return EventStream._adopt(width, height, xs, ys, ps, ts)  # fresh arrays, no copy

"""Ideal event-camera simulator: intensity frames in, event stream out.

Each pixel tracks a log-intensity reference level, initialized from the
first frame. Between consecutive frames the log intensity is assumed to move
linearly; every time it gets a full contrast threshold C away from the
reference, one event fires (polarity = sign of the change) and the reference
steps by +/-C. Event timestamps are interpolated at the crossing points.

There is no noise model and no refractory period: the output is the exact
threshold-crossing oracle that the encoder and pipeline tests check against.

Working set: apart from the event columns, which are allocated once at their
exact size, both passes hold one frame pair's arrays at a time. Each pass
drops a pair before the recurrence computes the next, and ``_write_pair``
frees its per-pixel and float per-event arrays once it has gathered or keyed
them. The frames themselves are all held, by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ContractError, DomainError, FormatError, InsufficientInputError,
                     OrderingError, ParameterError, _int_param, _real_param)
from .events import EventStream, _allocate, _validate_arrays
from .imgio import read_pgm
from .naming import timestamped_files


# simulate interpolates event times in float64, whose spacing just below 2**63
# is 2**10: an event time can round up to one spacing past its frame pair's
# end, and from the last frame time allowed here it still fits an int64.
MAX_FRAME_TIME_US = 2**63 - 2**11


def _frame_time(t) -> int:
    return _int_param("frame timestamp", t, 0, MAX_FRAME_TIME_US)


@dataclass(frozen=True)
class IntensityFrame:
    """Linear-intensity raster (strictly positive) at an integer time in
    [0, MAX_FRAME_TIME_US] microseconds."""

    timestamp_us: int
    values: np.ndarray

    def __post_init__(self) -> None:
        t = _frame_time(self.timestamp_us)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ContractError(f"frame values must be (H, W), got {values.shape}")
        if not np.all(np.isfinite(values)) or (values <= 0).any():
            raise DomainError("frame intensities must be finite and strictly positive")
        object.__setattr__(self, "timestamp_us", t)
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

    def __post_init__(self) -> None:  # an infinite C would make 0 * C a NaN level
        c = _real_param("contrast threshold", self.contrast_threshold, 0, np.inf)
        object.__setattr__(self, "contrast_threshold", c)


def frame_from_pgm(path, timestamp_us: int) -> IntensityFrame:
    """Load an 8-bit PGM, mapping value v to intensity (v + 1) / 256."""
    try:
        timestamp_us = _frame_time(timestamp_us)  # before the file is read
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None
    raster, maxval = read_pgm(path)
    if maxval > 255:
        raise FormatError(f"{path}: simulator frames must be 8-bit PGM, maxval {maxval}")
    return IntensityFrame(timestamp_us, (raster.astype(np.float64) + 1.0) / 256.0)


def frames_from_dir(dirpath) -> list[IntensityFrame]:
    """Load every .pgm in a directory, timestamped by filename or index file."""
    pairs = timestamped_files(dirpath, suffixes=(".pgm",))
    return [frame_from_pgm(path, t) for t, path in pairs]


def _crossings(frames: Sequence[IntensityFrame], c: float):
    """The threshold recurrence, one frame pair at a time.

    Yields ``(t_a, t_b, ref, log_prev, log_cur, steps)`` per pair: the two
    frame times, the reference levels entering the pair, both frames' log
    intensities (raveled) and, per pixel, the signed crossing count
    n_pos - n_neg, where n_pos = max(floor(y), 0), n_neg = max(floor(-y), 0)
    and y = (log_cur - ref) / C. Both passes of ``simulate`` read this one
    recurrence, so they cannot disagree.
    """
    ref = np.log(frames[0].values).ravel()
    log_prev = ref
    for prev, cur in zip(frames, frames[1:]):
        log_cur = np.log(cur.values).ravel()
        y = log_cur - ref
        # (ref - log_cur) / C is exactly -y, so n_pos and n_neg are never
        # both positive, and n_pos - n_neg is y truncated toward zero; a y
        # past float range is inf, which the conversion refuses
        try:
            with np.errstate(over="ignore", invalid="raise"):
                y /= c
                steps = y.astype(np.int64)
        except FloatingPointError:
            raise ParameterError(
                f"contrast threshold {c} is too small: a pixel crosses 2**63 levels or more"
            ) from None
        del y  # a generator keeps its locals across the yield
        yield prev.timestamp_us, cur.timestamp_us, ref, log_prev, log_cur, steps
        ref = ref + steps * c
        log_prev = log_cur


def _write_pair(cols, at, n, width, c, sort, t_a, t_b, ref, log_prev, log_cur, steps):
    """Write one frame pair's ``n`` events into ``cols[at:at + n]``.

    Events come in the crossing model's order: the pixels with positive
    crossings, then those with negative ones, each group in pixel order and
    each pixel's crossings in level order. With ``sort`` they are then stably
    sorted by time. Per-pixel values are computed once per active pixel and
    gathered per event.
    """
    xs, ys, ps, ts = (col[at : at + n] for col in cols)
    up = np.flatnonzero(steps > 0)
    n_up = up.size
    pixels = np.concatenate((up, np.flatnonzero(steps < 0)))
    counts = np.abs(steps[pixels])

    # per active pixel
    y = pixels // width
    x = (pixels - y * width).astype(np.int32)
    y = y.astype(np.int32)
    sign = np.full(pixels.size, -1, dtype=np.int8)
    sign[:n_up] = 1
    ref, log_prev = ref[pixels], log_prev[pixels]
    span = log_cur[pixels] - log_prev
    stops = np.cumsum(counts)

    # per event: its pixel's position in ``pixels`` and its signed crossing
    # index j (1, 2, ... within the pixel; negated for negative crossings)
    index = np.repeat(np.arange(pixels.size), counts)
    j = np.arange(1.0, n + 1.0)
    j -= (stops - counts).astype(np.float64)[index]
    n_up_events = int(stops[n_up - 1]) if n_up else 0
    np.negative(j[n_up_events:], out=j[n_up_events:])
    # where the crossing level sits between the pair's two log intensities,
    # formed in j's storage
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        frac = np.multiply(j, c, out=j)
        frac += ref[index]
        frac -= log_prev[index]
        frac /= span[index]
    del ref, log_prev, span, j  # gathered: only x, y and sign are gathered again
    # roundoff can put a crossing on a pixel whose log intensity did not
    # move: a zero span, whose NaN or +-inf fraction means the pair's end
    if not np.isfinite(frac).all():
        np.nan_to_num(frac, copy=False, nan=1.0, posinf=1.0, neginf=1.0)
    np.clip(frac, 0.0, 1.0, out=frac)
    frac *= t_b - t_a
    frac += t_a
    t = np.rint(frac, out=frac)

    if sort:
        # earlier pairs win ties at t_b, so stable-sorting each pair on its
        # own gives one global stable sort's order; the offset from t_a is
        # exact in float64 here and fits the smallest unsigned type holding
        # t_b - t_a, and at <= 16 bits numpy's stable sort is a radix sort
        t -= t_a
        key = t.astype(np.min_scalar_type(t_b - t_a))
        del t, frac
        order = np.argsort(key, kind="stable")
        index = index[order]
        ts[...] = key[order]
        ts += t_a
    else:
        ts[...] = t
    # every index is in range; "raise" would buffer the output, "wrap" is
    # the fastest mode that writes it in place
    np.take(x, index, out=xs, mode="wrap")
    np.take(y, index, out=ys, mode="wrap")
    np.take(sign, index, out=ps, mode="wrap")


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
    c = config.contrast_threshold
    # count, then fill: the columns are allocated once at their exact size;
    # float64 counts are exact below 2**53, where an int64 sum could wrap
    totals = []
    for pair in _crossings(frames, c):
        totals.append(np.abs(pair[-1]).sum(dtype=np.float64))
        del pair  # freed before the recurrence computes the next pair
    n = sum(totals)
    if n == 0:
        return EventStream.empty(width, height)
    # from 2**53 events on, where the count may be inexact, the columns take
    # more than 2**57 bytes, which no address space serves
    what = f"contrast threshold {c} gives {n:.4g} events"
    cols = tuple(_allocate(what, (int(n),), dtype, zeros=False)
                 for dtype in (np.int32, np.int32, np.int8, np.int64))
    # a loop over zip() would keep the last pair in zip's reused result tuple
    totals = iter([int(total) for total in totals])
    at = 0
    for pair in _crossings(frames, c):
        total = next(totals)
        if total:
            _write_pair(cols, at, total, width, c, sort_per_pair, *pair)
            at += total
        del pair
    xs, ys, ps, ts = cols
    if not sort_per_pair:
        order = np.argsort(ts, kind="stable")
        xs, ys, ps, ts = xs[order], ys[order], ps[order], ts[order]
    # the columns are fresh, so they are checked and frozen in place, not copied
    return EventStream._of(*_validate_arrays(width, height, xs, ys, ps, ts), xs, ys, ps, ts)

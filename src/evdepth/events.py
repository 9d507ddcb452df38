"""Event data model, time-sorted streams, SBT/SBN slicing, CSV/EVB files.

An event stream is stored as four parallel numpy arrays (x, y, polarity,
timestamp) sorted by timestamp. Timestamps are integer microseconds; all
interval arithmetic stays in integers. Slices are numpy views plus the
recorded interval, so slicing costs O(log N) search and O(1) extra memory.

On-disk formats:
  CSV  header ``# evcsv v1 width=<W> height=<H>`` then ``x,y,p,t`` lines.
  EVB  little-endian: magic ``EVB1``, u16 W, u16 H, u64 count, then
       13-byte records (u16 x, u16 y, i8 p, u64 t).

Out-of-order input files are rejected, never silently sorted. EVB files
are read and written through one chunk-sized record buffer, so no
whole-file byte copy is made; files are written through
``imgio._atomic_write``.
"""

from __future__ import annotations

import enum
import io
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    BoundsError,
    FormatError,
    OrderingError,
    ParameterError,
)
from .imgio import _atomic_write

EVB_MAGIC = b"EVB1"
_EVB_HEADER = struct.Struct("<4sHHQ")
_EVB_RECORD_DTYPE = np.dtype([("x", "<u2"), ("y", "<u2"), ("p", "i1"), ("t", "<u8")])
_EVB_CHUNK = 1 << 16  # records per read/write buffer: 832 KiB, about an L2 cache
_CSV_HEADER_RE = re.compile(r"#\s*evcsv\s+v1\s+width=(\d+)\s+height=(\d+)\s*$")

MAX_SENSOR_DIM = 65535  # u16 on disk


@dataclass(frozen=True)
class Event:
    """A single brightness-change record."""

    x: int
    y: int
    polarity: int
    timestamp: int


class SliceMode(enum.Enum):
    SBT = "sbt"  # fixed time window
    SBN = "sbn"  # fixed number of most recent events


@dataclass(frozen=True)
class SliceSpec:
    """How to cut a slice ending at a reference time.

    Exactly one of ``window_us`` (SBT) / ``count`` (SBN) is active,
    selected by ``mode``; the active value must be a positive integer.
    """

    mode: SliceMode
    window_us: int | None = None
    count: int | None = None

    def __post_init__(self) -> None:
        if self.mode is SliceMode.SBT:
            if self.window_us is None or self.count is not None:
                raise ParameterError("SBT spec takes window_us and no count")
            _check_positive_int("window", self.window_us)
        else:
            if self.count is None or self.window_us is not None:
                raise ParameterError("SBN spec takes count and no window_us")
            _check_positive_int("count", self.count)


def _check_positive_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value <= 0:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")


def _validate_arrays(width, height, xs, ys, ps, ts):
    if not (1 <= width <= MAX_SENSOR_DIM and 1 <= height <= MAX_SENSOR_DIM):
        raise ParameterError(f"sensor dims {width}x{height} outside [1, {MAX_SENSOR_DIM}]")
    n = len(ts)
    if not (len(xs) == len(ys) == len(ps) == n):
        raise FormatError("event arrays have mismatched lengths")
    if n == 0:
        return
    # each check is one reduction; only a failing one locates its first bad record
    if not (np.abs(ps) == 1).all():  # abs(-128) is -128 in int8
        i = np.flatnonzero((ps != 1) & (ps != -1))[0]
        raise FormatError(f"record {i}: polarity must be -1 or +1, got {ps[i]}")
    if xs.min() < 0 or xs.max() >= width or ys.min() < 0 or ys.max() >= height:
        i = np.flatnonzero((xs < 0) | (xs >= width) | (ys < 0) | (ys >= height))[0]
        raise BoundsError(f"record {i}: pixel ({xs[i]}, {ys[i]}) outside {width}x{height} sensor")
    if ts[0] < 0:
        raise FormatError(f"record 0: negative timestamp {ts[0]}")
    if (ts[1:] < ts[:-1]).any():
        i = int(np.flatnonzero(ts[1:] < ts[:-1])[0]) + 1
        raise OrderingError(f"record {i}: timestamp {ts[i]} < previous {ts[i - 1]}")


class EventStream:
    """Immutable time-sorted event sequence bound to a sensor size."""

    __slots__ = ("width", "height", "xs", "ys", "ps", "ts")

    def __init__(self, width, height, xs, ys, ps, ts):
        # always copy: the arrays get frozen, and freezing a caller's array
        # (or a buffer-backed view) in place would be a surprising side effect
        self._bind(
            width,
            height,
            np.array(xs, dtype=np.int32, order="C", copy=True),
            np.array(ys, dtype=np.int32, order="C", copy=True),
            np.array(ps, dtype=np.int8, order="C", copy=True),
            np.array(ts, dtype=np.int64, order="C", copy=True),
        )

    @classmethod
    def _adopt(cls, width, height, xs, ys, ps, ts) -> "EventStream":
        """Validate and freeze, without copying, C-contiguous int32/int32/int8/
        int64 columns that the caller has just built and holds no other
        reference to."""
        stream = cls.__new__(cls)
        stream._bind(width, height, xs, ys, ps, ts)
        return stream

    def _bind(self, width, height, xs, ys, ps, ts):
        _validate_arrays(width, height, xs, ys, ps, ts)
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "height", int(height))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "ps", ps)
        object.__setattr__(self, "ts", ts)
        for a in (xs, ys, ps, ts):
            a.flags.writeable = False

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("EventStream is immutable")

    @classmethod
    def empty(cls, width: int, height: int) -> "EventStream":
        z = np.zeros(0)
        return cls(width, height, z, z, z, z)

    def __len__(self) -> int:
        return len(self.ts)

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, i: int) -> Event:
        return Event(int(self.xs[i]), int(self.ys[i]), int(self.ps[i]), int(self.ts[i]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.ys, other.ys)
            and np.array_equal(self.ps, other.ps)
            and np.array_equal(self.ts, other.ts)
        )

    def __repr__(self) -> str:
        return f"EventStream({self.width}x{self.height}, {len(self)} events)"


@dataclass(frozen=True)
class EventSlice:
    """View into a stream plus the interval [t_start_us, t_end_us] it covers.

    Arrays are numpy views into the parent stream (no payload copies).
    """

    width: int
    height: int
    xs: np.ndarray
    ys: np.ndarray
    ps: np.ndarray
    ts: np.ndarray
    t_start_us: int
    t_end_us: int

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def duration_us(self) -> int:
        return self.t_end_us - self.t_start_us

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield Event(int(self.xs[i]), int(self.ys[i]), int(self.ps[i]), int(self.ts[i]))

    def to_stream(self) -> EventStream:
        return EventStream(self.width, self.height, self.xs, self.ys, self.ps, self.ts)


def slice_sbt(stream: EventStream, t_d: int, window_us: int) -> EventSlice:
    """Events with t_d - window <= t <= t_d (both endpoints inclusive)."""
    if window_us <= 0:
        raise ParameterError(f"window must be > 0, got {window_us}")
    if t_d < 0:
        raise ParameterError(f"t_d must be >= 0, got {t_d}")
    t0 = t_d - window_us
    lo = int(np.searchsorted(stream.ts, t0, side="left"))
    hi = int(np.searchsorted(stream.ts, t_d, side="right"))
    return EventSlice(
        stream.width,
        stream.height,
        stream.xs[lo:hi],
        stream.ys[lo:hi],
        stream.ps[lo:hi],
        stream.ts[lo:hi],
        t0,
        t_d,
    )


def slice_sbn(stream: EventStream, t_d: int, count: int) -> EventSlice:
    """The last ``count`` events with t <= t_d (fewer if the stream is shorter).

    The recorded interval is [t_first, t_d] with t_first the timestamp of the
    earliest selected event (t_d itself when the slice comes out empty).
    """
    if count <= 0:
        raise ParameterError(f"count must be > 0, got {count}")
    if t_d < 0:
        raise ParameterError(f"t_d must be >= 0, got {t_d}")
    hi = int(np.searchsorted(stream.ts, t_d, side="right"))
    lo = max(0, hi - count)
    t_start = int(stream.ts[lo]) if hi > lo else t_d
    return EventSlice(
        stream.width,
        stream.height,
        stream.xs[lo:hi],
        stream.ys[lo:hi],
        stream.ps[lo:hi],
        stream.ts[lo:hi],
        t_start,
        t_d,
    )


def slice_events(stream: EventStream, t_d: int, spec: SliceSpec) -> EventSlice:
    """The slice ``spec`` describes, ending at reference time ``t_d``."""
    if spec.mode is SliceMode.SBT:
        return slice_sbt(stream, t_d, spec.window_us)
    return slice_sbn(stream, t_d, spec.count)


# ---------------------------------------------------------------------------
# File formats


def _infer_format(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        f = fmt.lower()
        if f not in ("csv", "evb"):
            raise ParameterError(f"unknown event format {fmt!r}")
        return f
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".evb":
        return "evb"
    raise ParameterError(f"cannot infer event format from {path.name!r}; pass fmt=")


def read_events(path, fmt: str | None = None) -> EventStream:
    """Parse a CSV or EVB event file into a validated stream."""
    path = Path(path)
    f = _infer_format(path, fmt)
    if f == "csv":
        return _read_csv(path)
    return _read_evb(path)


def write_events(stream: EventStream, path, fmt: str | None = None) -> None:
    """Write a stream so that read_events round-trips bit-exactly."""
    path = Path(path)
    if _infer_format(path, fmt) == "csv":
        with _atomic_write(path, "w", encoding="ascii", newline="\n") as fh:
            _write_csv(stream, fh)
    else:
        with _atomic_write(path, "wb") as fh:
            _write_evb(stream, fh)


def _read_csv(path: Path) -> EventStream:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        m = _CSV_HEADER_RE.match(header)
        if not m:
            raise FormatError(f"{path}: bad evcsv header {header!r}")
        width, height = int(m.group(1)), int(m.group(2))
        body = fh.read()
    if body.strip():
        try:
            data = np.loadtxt(io.StringIO(body), dtype=np.int64, delimiter=",", ndmin=2)
        except ValueError:
            _rescan_csv_body(path, body)  # locates the record and raises
            raise FormatError(f"{path}: malformed CSV body")  # pragma: no cover
        if data.shape[1] != 4:
            raise FormatError(f"{path}: expected 4 columns x,y,p,t, got {data.shape[1]}")
    else:
        data = np.zeros((0, 4), dtype=np.int64)
    try:
        return EventStream(width, height, data[:, 0], data[:, 1], data[:, 2], data[:, 3])
    except (FormatError, OrderingError, BoundsError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _rescan_csv_body(path: Path, body: str) -> None:
    """Slow path: find the first malformed record for a precise diagnostic."""
    for i, line in enumerate(body.splitlines()):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(f"{path}: record {i} (line {i + 2}): expected 4 fields, got {len(parts)}")
        try:
            [int(p) for p in parts]
        except ValueError:
            raise FormatError(f"{path}: record {i} (line {i + 2}): non-integer field in {line!r}") from None


def _write_csv(stream: EventStream, fh) -> None:
    fh.write(f"# evcsv v1 width={stream.width} height={stream.height}\n")
    if len(stream):
        cols = np.column_stack(
            (
                stream.xs.astype(np.int64),
                stream.ys.astype(np.int64),
                stream.ps.astype(np.int64),
                stream.ts,
            )
        )
        np.savetxt(fh, cols, fmt="%d", delimiter=",")


def _read_evb(path: Path) -> EventStream:
    with open(path, "rb") as fh:
        head = fh.read(_EVB_HEADER.size)
        if len(head) < _EVB_HEADER.size:
            raise FormatError(f"{path}: truncated EVB header")
        magic, width, height, count = _EVB_HEADER.unpack(head)
        if magic != EVB_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {EVB_MAGIC!r}")
        expected = _EVB_HEADER.size + count * _EVB_RECORD_DTYPE.itemsize
        size = os.fstat(fh.fileno()).st_size
        if size != expected:  # before anything sized by count is allocated
            raise FormatError(
                f"{path}: size mismatch, header declares {count} records "
                f"({expected} bytes) but file has {size} bytes"
            )
        xs = np.empty(count, dtype=np.int32)
        ys = np.empty(count, dtype=np.int32)
        ps = np.empty(count, dtype=np.int8)
        ts = np.empty(count, dtype=np.int64)
        buf = np.empty(min(count, _EVB_CHUNK), dtype=_EVB_RECORD_DTYPE)
        for lo in range(0, count, _EVB_CHUNK):
            hi = min(lo + _EVB_CHUNK, count)
            rec = buf[: hi - lo]
            got = fh.readinto(rec)
            if got != rec.nbytes:  # the file shrank after the size check
                raise FormatError(
                    f"{path}: EVB payload ended at record {lo + got // rec.itemsize} of {count}"
                )
            xs[lo:hi] = rec["x"]
            ys[lo:hi] = rec["y"]
            ps[lo:hi] = rec["p"]
            ts[lo:hi] = rec["t"]  # u64 -> i64 wraps past 2**63 - 1 to a negative value
    if count and ts.min() < 0:
        raise FormatError(f"{path}: timestamp exceeds signed 64-bit range")
    try:
        return EventStream._adopt(width, height, xs, ys, ps, ts)
    except (FormatError, OrderingError, BoundsError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _write_evb(stream: EventStream, fh) -> None:
    n = len(stream)
    buf = np.empty(min(n, _EVB_CHUNK), dtype=_EVB_RECORD_DTYPE)
    fh.write(_EVB_HEADER.pack(EVB_MAGIC, stream.width, stream.height, n))
    for lo in range(0, n, _EVB_CHUNK):
        hi = min(lo + _EVB_CHUNK, n)
        rec = buf[: hi - lo]
        rec["x"] = stream.xs[lo:hi]
        rec["y"] = stream.ys[lo:hi]
        rec["p"] = stream.ps[lo:hi]
        rec["t"] = stream.ts[lo:hi]
        fh.write(rec.data)

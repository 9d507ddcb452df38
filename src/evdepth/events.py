"""Event data model, time-sorted streams, SBT/SBN slicing, CSV/EVB files.

An event stream is stored as four parallel numpy arrays (x, y, polarity,
timestamp) sorted by timestamp. Timestamps are integer microseconds; all
interval arithmetic stays in integers. A slice is itself a stream
(``EventSlice``) that also records the interval it covers. A slice of an
in-memory stream is numpy views, so it costs O(log N) search and O(1) extra
memory.

An EVB file can also be sliced without loading it (``_EvbSource``): one
chunked pass validates every record and keeps the timestamp of every
4,096th record, then each slice reads only its own records. Such a slice
owns its arrays, so it costs memory in proportion to the slice, not to the
file. ``read_events`` runs the same pass on an EVB file, reading each chunk
into the stream's full-length columns, so one validator covers both.

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
import math
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import ENCODER_DEFAULTS
from .errors import (BoundsError, EvDepthError, FormatError, OrderingError, ParameterError,
                     _choice_param, _int_param)
from .imgio import _atomic_write, _read_text

EVB_MAGIC = b"EVB1"
_EVB_HEADER = struct.Struct("<4sHHQ")
_EVB_RECORD_DTYPE = np.dtype([("x", "<u2"), ("y", "<u2"), ("p", "i1"), ("t", "<u8")])
_EVB_CHUNK = 1 << 16  # records per read/write buffer: 832 KiB, about an L2 cache
# sensor dims of at most 5 significant digits: int() refuses 4,301 digits
_CSV_HEADER_RE = re.compile(r"#\s*evcsv\s+v1\s+width=0*(\d{1,5})\s+height=0*(\d{1,5})\s*$")
# a line whose first non-blank character starts a record, not a ``#`` comment
_CSV_RECORD_RE = re.compile(r"^[^\S\n]*[^#\s]", re.MULTILINE)

MAX_SENSOR_DIM = 65535  # u16 on disk
MAX_TIME_US = 2**63 - 1  # times, windows and counts: every slice interval fits int64


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
    selected by ``mode``: it must be an integer in [1, ``MAX_TIME_US``],
    kept as a Python int, and the other must be None.
    """

    mode: SliceMode
    window_us: int | None = None
    count: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", _choice_param("slice mode", self.mode, SliceMode))
        sbt = self.mode is SliceMode.SBT
        field, unused = ("window_us", "count") if sbt else ("count", "window_us")
        if getattr(self, unused) is not None:
            raise ParameterError(f"{unused} does not apply to {self.mode.name} slicing")
        value = _int_param(field.removesuffix("_us"), getattr(self, field), 1, MAX_TIME_US)
        object.__setattr__(self, field, value)


def _slicing(mode, window_us=None, count=None) -> SliceSpec:
    """The SliceSpec of these fields; an SBT spec with no window takes the default one."""
    if window_us is None and _choice_param("slice mode", mode, SliceMode) is SliceMode.SBT:
        window_us = ENCODER_DEFAULTS.window_us
    return SliceSpec(mode, window_us, count)


def _allocate(what: str, shape: tuple[int, ...], dtype, *, zeros: bool = True) -> np.ndarray:
    """A new array sized by input (a header, a flag, a count): zero-filled, or
    uninitialised with ``zeros=False``. A size numpy refuses (ValueError) or
    cannot allocate (MemoryError) is a ParameterError naming ``what`` and the
    byte count, which is figured in Python integers, so it cannot wrap."""
    try:
        return (np.zeros if zeros else np.empty)(shape, dtype)
    except (MemoryError, ValueError):
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        raise ParameterError(f"{what}, more than fit in memory ({nbytes:,} bytes)") from None


def _check_dims(width, height) -> tuple[int, int]:
    return (_int_param("sensor width", width, 1, MAX_SENSOR_DIM),
            _int_param("sensor height", height, 1, MAX_SENSOR_DIM))


def _record_faults(width, height, xs, ys, ps, ts, base=0, t_prev=None) -> list:
    """The first bad polarity, pixel and timestamp among records ``base``,
    ``base + 1``, ... (at least one), each as an error or None when its check
    passes. ``t_prev`` is the timestamp of the record before ``base``, if any."""
    # each check is one reduction; only a failing one locates its first bad record
    faults = [None, None, None]
    if not (np.abs(ps) == 1).all():  # abs(-128) is -128 in int8
        i = np.flatnonzero((ps != 1) & (ps != -1))[0]
        faults[0] = FormatError(f"record {base + i}: polarity must be -1 or +1, got {ps[i]}")
    if xs.min() < 0 or xs.max() >= width or ys.min() < 0 or ys.max() >= height:
        i = np.flatnonzero((xs < 0) | (xs >= width) | (ys < 0) | (ys >= height))[0]
        faults[1] = BoundsError(
            f"record {base + i}: pixel ({xs[i]}, {ys[i]}) outside {width}x{height} sensor")
    if t_prev is None and ts[0] < 0:
        faults[2] = FormatError(f"record {base}: negative timestamp {ts[0]}")
    elif t_prev is not None and ts[0] < t_prev:
        faults[2] = OrderingError(f"record {base}: timestamp {ts[0]} < previous {t_prev}")
    elif (ts[1:] < ts[:-1]).any():
        i = int(np.flatnonzero(ts[1:] < ts[:-1])[0]) + 1
        faults[2] = OrderingError(f"record {base + i}: timestamp {ts[i]} < previous {ts[i - 1]}")
    return faults


def _validate_arrays(width, height, xs, ys, ps, ts) -> tuple[int, int]:
    """The sensor dims as ints, or the error of the first failing check: sensor
    dims, column lengths, then the first bad polarity, pixel and timestamp."""
    width, height = _check_dims(width, height)
    if not (len(xs) == len(ys) == len(ps) == len(ts)):
        raise FormatError("event arrays have mismatched lengths")
    if len(ts):
        for fault in _record_faults(width, height, xs, ys, ps, ts):
            if fault is not None:
                raise fault
    return width, height


class EventStream:
    """Immutable time-sorted event sequence bound to a sensor size.

    Pickling and copying rebuild through the checking constructor."""

    __slots__ = ("width", "height", "xs", "ys", "ps", "ts")
    _FIELDS = __slots__  # what __init__ takes, in its order

    def __init__(self, width, height, xs, ys, ps, ts):
        # always copy: the arrays get frozen, and freezing a caller's array
        # (or a buffer-backed view) in place would be a surprising side effect
        cols = (
            np.array(xs, dtype=np.int32, order="C", copy=True),
            np.array(ys, dtype=np.int32, order="C", copy=True),
            np.array(ps, dtype=np.int8, order="C", copy=True),
            np.array(ts, dtype=np.int64, order="C", copy=True),
        )
        self._set((*_validate_arrays(width, height, *cols), *cols))

    @classmethod
    def _adopt(cls, width, height, xs, ys, ps, ts) -> "EventStream":
        """Validate and freeze, without copying, C-contiguous int32/int32/int8/
        int64 columns that the caller has just built and holds no other
        reference to."""
        return cls._of(*_validate_arrays(width, height, xs, ys, ps, ts), xs, ys, ps, ts)

    @classmethod
    def _of(cls, *fields):
        """An instance of ``fields``, in ``_FIELDS`` order, whose columns are
        already checked: no copy and no second check."""
        obj = cls.__new__(cls)
        obj._set(fields)
        return obj

    def _set(self, fields):
        """Bind ``fields``, in ``_FIELDS`` order, and freeze the columns."""
        for name, value in zip(self._FIELDS, fields):
            object.__setattr__(self, name, value)
        for a in (self.xs, self.ys, self.ps, self.ts):
            a.flags.writeable = False

    def __setattr__(self, name, value):  # immutability
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._FIELDS)

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
        """Sensor and events match; two slices also need the same interval."""
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
        return f"{type(self).__name__}({self.width}x{self.height}, {len(self)} events)"

    # the slicing interface _EvbSource shares: search, one timestamp, a slice

    def _search(self, t: int, side: str) -> int:
        return int(np.searchsorted(self.ts, t, side=side))

    def _timestamp(self, i: int) -> int:
        return int(self.ts[i])

    def _slice(self, lo: int, hi: int, t_start: int, t_end: int) -> "EventSlice":
        return EventSlice._of(self.width, self.height, self.xs[lo:hi], self.ys[lo:hi],
                              self.ps[lo:hi], self.ts[lo:hi], t_start, t_end)


class EventSlice(EventStream):
    """A stream of one slice's events, plus the interval [t_start_us, t_end_us]
    it covers.

    Built by hand, it copies and checks its columns as ``EventStream`` does.
    A slice of an ``EventStream`` holds numpy views into the stream (no
    payload copies); a slice read from an ``_EvbSource`` owns its read-only
    arrays, which are not views of anything.
    """

    __slots__ = ("t_start_us", "t_end_us")
    _FIELDS = EventStream._FIELDS + __slots__

    def __init__(self, width, height, xs, ys, ps, ts, t_start_us, t_end_us):
        super().__init__(width, height, xs, ys, ps, ts)
        object.__setattr__(self, "t_start_us", t_start_us)
        object.__setattr__(self, "t_end_us", t_end_us)

    @property
    def duration_us(self) -> int:
        return self.t_end_us - self.t_start_us

    def __eq__(self, other) -> bool:
        if isinstance(other, EventSlice) and (
                (self.t_start_us, self.t_end_us) != (other.t_start_us, other.t_end_us)):
            return False
        return super().__eq__(other)


def _ref_time(t_d) -> int:
    return _int_param("t_d", t_d, 0, MAX_TIME_US)


def _slice_bounds(stream, t_d: int, spec: SliceSpec) -> tuple[int, int, int]:
    """(lo, hi, t_start) of the slice ``spec`` describes, ending at ``t_d``,
    for an ``EventStream`` or an ``_EvbSource``: SBT takes the records with
    t_d - window <= t <= t_d and starts at t_d - window; SBN takes the last
    ``count`` records with t <= t_d and starts at the first one's timestamp,
    or at t_d when it is empty."""
    t_d = _ref_time(t_d)
    hi = stream._search(t_d, "right")
    if spec.mode is SliceMode.SBT:
        t0 = t_d - spec.window_us
        return stream._search(t0, "left"), hi, t0
    lo = max(0, hi - spec.count)
    return lo, hi, stream._timestamp(lo) if hi > lo else t_d


def slice_sbt(stream, t_d: int, window_us: int) -> EventSlice:
    """Events with t_d - window <= t <= t_d (both endpoints inclusive), from
    an ``EventStream`` or an ``_EvbSource``."""
    return slice_events(stream, t_d, SliceSpec(SliceMode.SBT, window_us=window_us))


def slice_sbn(stream, t_d: int, count: int) -> EventSlice:
    """The last ``count`` events with t <= t_d (fewer if the stream is shorter),
    from an ``EventStream`` or an ``_EvbSource``.

    The recorded interval is [t_first, t_d] with t_first the timestamp of the
    earliest selected event (t_d itself when the slice comes out empty).
    """
    return slice_events(stream, t_d, SliceSpec(SliceMode.SBN, count=count))


def slice_events(stream, t_d: int, spec: SliceSpec) -> EventSlice:
    """The slice ``spec`` describes, ending at reference time ``t_d``."""
    return stream._slice(*_slice_bounds(stream, t_d, spec), int(t_d))


# ---------------------------------------------------------------------------
# File formats


def _infer_format(path: Path, fmt: str | None) -> str:
    """The format a ``.csv`` or ``.evb`` suffix names (in any case), which
    ``fmt``, if given, must agree with; ``fmt`` names the format of a path
    with neither suffix, such as ``/dev/stdout``."""
    suffix = path.suffix.lower()[1:]
    if fmt is None and suffix not in ("csv", "evb"):
        raise ParameterError(f"cannot infer event format from {path.name!r}; pass fmt=")
    fmt = suffix if fmt is None else fmt
    fmt = _choice_param("event format", fmt.lower() if isinstance(fmt, str) else fmt,
                        ("csv", "evb"))
    if suffix in ("csv", "evb") and fmt != suffix:
        raise ParameterError(f"event format {fmt!r} contradicts the suffix of {path.name!r}")
    return fmt


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
    header, _, body = _read_text(path, "evcsv file").partition("\n")
    m = _CSV_HEADER_RE.match(header)
    if not m:
        raise FormatError(f"{path}: bad evcsv header {header!r}")
    width, height = int(m.group(1)), int(m.group(2))
    if _CSV_RECORD_RE.search(body):
        try:
            data = np.loadtxt(io.StringIO(body), dtype=np.int64, delimiter=",", ndmin=2)
        except ValueError:
            data = _rescan_csv_body(path, body)  # raises at the first malformed record
        if data.shape[1] != 4:
            raise FormatError(f"{path}: expected 4 columns x,y,p,t, got {data.shape[1]}")
    else:
        data = np.zeros((0, 4), dtype=np.int64)
    try:
        return EventStream(width, height, data[:, 0], data[:, 1], data[:, 2], data[:, 3])
    except EvDepthError as exc:
        raise type(exc)(f"{path}: {exc}") from None


_CSV_FIELD_RE = re.compile(r"([+-]?)0*([0-9]+)")  # the sign, then the digits past leading zeros
_INT64 = np.iinfo(np.int64)


def _rescan_csv_body(path: Path, body: str) -> np.ndarray:
    """Slow path, for a body ``np.loadtxt`` rejected: parse it record by
    record and raise a FormatError naming the first malformed one. Lines
    (read with universal newlines, so each ends in LF) are taken as loadtxt
    takes them: ``#`` starts a comment, a line empty but for one is skipped
    (a line of blanks is not), and each of the four fields is an int64 in
    decimal, with blanks around it allowed. A body that parses here is
    returned as its (N, 4) records."""
    rows = []
    for i, line in enumerate(body.split("\n")):
        content = line.partition("#")[0]
        if not content:
            continue
        where = f"{path}: record {i} (line {i + 2})"
        parts = [p.strip() for p in content.split(",")]
        if len(parts) != 4:
            raise FormatError(f"{where}: expected 4 fields, got {len(parts)}")
        fields = [_CSV_FIELD_RE.fullmatch(p) for p in parts]
        if not all(fields):
            raise FormatError(f"{where}: non-integer field in {line!r}")
        # int() refuses 4,301 digits, leading zeros too: at most 19 significant ones
        row = [int(f[1] + f[2]) if len(f[2]) <= 19 else math.inf for f in fields]
        if not all(_INT64.min <= v <= _INT64.max for v in row):
            raise FormatError(f"{where}: field out of int64 range in {line!r}")
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


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


def _read_evb_header(fh, path: Path) -> tuple[int, int, int]:
    """(width, height, count) of an open EVB file whose size matches its count."""
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
    return width, height, count


def _evb_columns(n: int):
    """Uninitialised int32 x, int32 y, int8 p and int64 t columns of ``n`` records."""
    return (np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32),
            np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int64))


def _read_evb_records(fh, path: Path, buf: np.ndarray, count: int, lo: int, cols) -> None:
    """Read records [lo, lo + len(cols[0])) of an EVB file of ``count``
    records, through ``buf``, into the columns ``cols``; unchecked."""
    xs, ys, ps, ts = cols
    n = len(ts)
    fh.seek(_EVB_HEADER.size + lo * _EVB_RECORD_DTYPE.itemsize)
    for start in range(0, n, _EVB_CHUNK):
        stop = min(start + _EVB_CHUNK, n)
        rec = buf[: stop - start]
        got = fh.readinto(rec)
        if got != rec.nbytes:  # the file shrank after the size check
            raise FormatError(
                f"{path}: EVB payload ended at record {lo + start + got // rec.itemsize} of {count}"
            )
        xs[start:stop] = rec["x"]
        ys[start:stop] = rec["y"]
        ps[start:stop] = rec["p"]
        ts[start:stop] = rec["t"]  # u64 -> i64 wraps past 2**63 - 1 to a negative value


def _evb_buffer(count: int) -> np.ndarray:
    return np.empty(min(count, _EVB_CHUNK), dtype=_EVB_RECORD_DTYPE)


# records per index entry: 8 B of index per 53 KiB of file; it divides
# _EVB_CHUNK, so every chunk of the pass starts at an index entry
_INDEX_STEP = 1 << 12


def _scan_evb(fh, path: Path, buf: np.ndarray, width: int, height: int, count: int,
              cols) -> np.ndarray:
    """Validate every record of an open EVB file, a chunk at a time, reading
    the chunks into ``cols``: columns of all ``count`` records, or of one
    chunk, reused. Returns the timestamp of every ``_INDEX_STEP``-th record.

    Keeps the first fault of each kind and raises, after the pass, the first
    of: a timestamp past the int64 range, bad sensor dims, then the first bad
    polarity, pixel and timestamp order."""
    index = np.empty(-(-count // _INDEX_STEP), dtype=np.int64)
    out_of_range = False
    faults = [None, None, None]
    t_prev = None
    for lo in range(0, count, _EVB_CHUNK):
        at = lo if len(cols[3]) == count else 0
        chunk = [c[at : at + min(_EVB_CHUNK, count - lo)] for c in cols]
        _read_evb_records(fh, path, buf, count, lo, chunk)
        ts = chunk[3]
        out_of_range = out_of_range or ts.min() < 0
        found = _record_faults(width, height, *chunk, lo, t_prev)
        faults = [old or new for old, new in zip(faults, found)]
        marks = ts[::_INDEX_STEP]
        index[lo // _INDEX_STEP : lo // _INDEX_STEP + len(marks)] = marks
        t_prev = ts[-1]
    try:
        if out_of_range:
            raise FormatError("timestamp exceeds signed 64-bit range")
        _check_dims(width, height)
        for fault in faults:
            if fault is not None:
                raise fault
    except EvDepthError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return index


def _read_evb(path: Path) -> EventStream:
    with open(path, "rb") as fh:
        width, height, count = _read_evb_header(fh, path)
        cols = _evb_columns(count)
        _scan_evb(fh, path, _evb_buffer(count), width, height, count, cols)
    return EventStream._of(width, height, *cols)


class _EvbSource:
    """An EVB file checked by one chunked pass, then read slice by slice.

    The pass is the one ``read_events`` runs on an EVB file, so it raises
    the error ``read_events`` would; besides the header it keeps only the
    timestamp of every ``_INDEX_STEP``-th record. ``slice_sbt``/``slice_sbn``/
    ``slice_events`` accept the source in place of an ``EventStream``: a
    slice reads its own records plus at most one index window at each end,
    from the file opened for the pass. Every read re-validates its records
    and checks the index timestamps it covers, so a file changed in place
    after the pass is a ``FormatError``. Use as a context manager; the file
    closes on exit.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        try:
            self.width, self.height, self.count = _read_evb_header(self._fh, self.path)
            self._buf = _evb_buffer(self.count)
            self._index = _scan_evb(self._fh, self.path, self._buf, self.width, self.height,
                                    self.count, _evb_columns(len(self._buf)))
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "_EvbSource":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def _read(self, lo: int, hi: int):
        """The checked columns of records [lo, hi)."""
        cols = _evb_columns(hi - lo)
        _read_evb_records(self._fh, self.path, self._buf, self.count, lo, cols)
        ts = cols[3]
        first = -(-lo // _INDEX_STEP)  # the first index entry at or past lo
        marks = ts[first * _INDEX_STEP - lo :: _INDEX_STEP]
        try:
            if not np.array_equal(marks, self._index[first : first + len(marks)]):
                raise FormatError(f"timestamps differ from the index in records [{lo}, {hi})")
            _validate_arrays(self.width, self.height, *cols)
        except (FormatError, OrderingError, BoundsError) as exc:
            raise FormatError(f"{self.path}: changed after it was checked: {exc}") from None
        return cols

    def _search(self, t: int, side: str) -> int:
        # the index entries before j lie before t (as searchsorted ``side``
        # counts), the ones from j on do not: the answer is in the window
        # between entries j - 1 and j, both ends included in the read
        j = int(np.searchsorted(self._index, t, side=side))
        if j == 0:
            return 0
        lo = (j - 1) * _INDEX_STEP
        ts = self._read(lo, min(lo + _INDEX_STEP + 1, self.count))[3]
        return lo + int(np.searchsorted(ts, t, side=side))

    def _timestamp(self, i: int) -> int:
        return int(self._read(i, i + 1)[3][0])

    def _slice(self, lo: int, hi: int, t_start: int, t_end: int) -> EventSlice:
        return EventSlice._of(self.width, self.height, *self._read(lo, hi), t_start, t_end)


def _write_evb(stream: EventStream, fh) -> None:
    n = len(stream)
    buf = _evb_buffer(n)
    fh.write(_EVB_HEADER.pack(EVB_MAGIC, stream.width, stream.height, n))
    for lo in range(0, n, _EVB_CHUNK):
        hi = min(lo + _EVB_CHUNK, n)
        rec = buf[: hi - lo]
        rec["x"] = stream.xs[lo:hi]
        rec["y"] = stream.ys[lo:hi]
        rec["p"] = stream.ps[lo:hi]
        rec["t"] = stream.ts[lo:hi]
        fh.write(rec.data)

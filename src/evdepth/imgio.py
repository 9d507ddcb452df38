"""Raster file I/O: PFM, binary PGM (8/16-bit), binary PPM.

PFM follows the usual convention: float32 samples, scanlines bottom-to-top,
and a negative scale field marking little-endian data (we always write
scale -1.0). 16-bit PGM samples are big-endian per the PNM spec; a JSON
sidecar ``<file>.json`` with ``{"scale_m_per_unit": ...}`` turns the raster
back into metric depth. Masks are 8-bit PGM with 0 = invalid. Every file
evdepth writes goes through ``_atomic_write``; every raster it reads goes
through ``_read_raster``, and every text file through ``_read_text``, which
takes ASCII only: any other byte makes the file malformed (exit 2).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import stat
import sys
import uuid
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError, ParameterError, _int_param, _real_param


def _next_token(fh, path) -> bytes:
    """Next whitespace-delimited PNM header token, honoring # comments.

    Consumes exactly one whitespace byte after the token so binary rasters
    start at the right offset.
    """
    c = fh.read(1)
    while c.isspace() or c == b"#":
        if c == b"#":
            fh.readline()
        c = fh.read(1)
    if not c:
        raise FormatError(f"{path}: unexpected end of file in raster header")
    tok = b""
    while c and not c.isspace():
        tok += c
        c = fh.read(1)
    return tok


def _finite(x) -> bool:
    """Whether the number ``x`` is finite as a float: not NaN or +-inf, nor an
    int past float range (math.isfinite raises OverflowError on one)."""
    return abs(x) <= sys.float_info.max


def _header_field(fh, path, what: str, parse=int):
    """Next header token parsed by ``parse``: a width, height or maxval must
    be a non-negative integer, a PFM scale (``parse=float``) finite and
    non-zero. Anything else is a FormatError."""
    token = _next_token(fh, path)
    try:
        value = parse(token)
    except ValueError:
        value = None
    if value is None or (value < 0 if parse is int else (not _finite(value) or value == 0)):
        raise FormatError(f"{path}: bad {what} {token!r} in raster header")
    return value


def _descriptor(path) -> int | None:
    """The open file descriptor ``path`` names as given (/dev/stdout,
    /dev/stderr, /dev/fd/<n>, /proc/self/fd/<n>), or None."""
    given = os.path.abspath(path)
    m = re.fullmatch(r"/(?:dev|proc/self)/fd/(\d+)", given)
    return int(m.group(1)) if m else {"/dev/stdout": 1, "/dev/stderr": 2}.get(given)


@contextlib.contextmanager
def _atomic_write(path, mode: str, **open_kwargs):
    """Open ``path`` for writing (``mode`` "w" or "wb"). The bytes go to a
    temporary sibling of the target (through symlinks), renamed over it when
    the block ends and removed if the block raises, so a write that fails or
    is killed leaves the old bytes; nothing is fsynced, so an OS crash may
    not. A path under /dev/ or /proc/, or an existing FIFO, pipe or device,
    is written in place; one that names an open descriptor (/dev/stdout, say)
    is written through a duplicate of it, which shares its offset, so a
    redirected stdout keeps what the process prints around the write."""
    fd = _descriptor(path)
    if fd is not None:
        for stream in (sys.stdout, sys.stderr):  # what they hold comes first
            if stream is not None:
                stream.flush()
        with os.fdopen(os.dup(fd), mode, **open_kwargs) as fh:
            yield fh
        return
    if os.path.abspath(path).startswith(("/dev/", "/proc/")) or (
            os.path.exists(path) and not os.path.isfile(path)):
        with open(path, mode, **open_kwargs) as fh:
            yield fh
        return
    target = Path(os.path.realpath(path))
    tmp = target.with_name(f".{target.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_kwargs) as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path, payload, indent: int | None = 2) -> None:
    with _atomic_write(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def _write_raster(path, header: str, data) -> None:
    with _atomic_write(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(data)


def _read_text(path, what: str) -> str:
    """The text of ``path``; a byte outside ASCII makes it a malformed ``what``."""
    try:
        return Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not an ASCII {what}: {exc}") from None


def _read_json(path, what: str):
    try:
        return json.loads(_read_text(path, what))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise FormatError(f"{path}: not a {what}: {exc}") from None


def _truncated(path, wanted: int, got: int) -> FormatError:
    return FormatError(f"{path}: truncated raster, wanted {wanted} bytes, got {got}")


def _raster_header(fh, path, channels: dict[bytes, int], third: str, sample_dtype):
    """Parse the header of an open PFM or binary PNM file, leaving ``fh`` at
    its first sample. Returns the (H, W, C) shape, the value of the ``third``
    header field, the stored sample type and the byte count of the samples.
    ``channels`` maps each identifier the format takes to its channel count;
    ``sample_dtype(value, path)`` is the stored sample type that value gives,
    or raises FormatError. So is a regular file shorter than its header
    declares (a header can claim more bytes than memory holds: this is found
    before anything that size is read), and an empty raster whose side is
    longer than any array's."""
    ident = _next_token(fh, path)
    if ident not in channels:
        raise FormatError(f"{path}: bad identifier {ident!r}, expected one of {[*channels]}")
    w = _header_field(fh, path, "width")
    h = _header_field(fh, path, "height")
    value = _header_field(fh, path, third, float if third == "scale" else int)
    dt = sample_dtype(value, path)
    shape = (h, w, channels[ident])
    nbytes = w * h * channels[ident] * dt.itemsize
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode) and st.st_size - fh.tell() < nbytes:
        raise _truncated(path, nbytes, st.st_size - fh.tell())
    if nbytes == 0:
        try:
            np.empty(shape, dt)  # numpy's own limits on the sides of an array
        except ValueError:
            raise FormatError(f"{path}: raster dimensions {w}x{h} out of range") from None
    return shape, value, dt, nbytes


def _read_raster(path, channels: dict[bytes, int], third: str, sample_dtype):
    """A PFM or binary PNM file's samples, a read-only (H, W, C) view in file
    row order, and the value of its ``third`` header field (arguments as for
    ``_raster_header``)."""
    with open(path, "rb") as fh:
        shape, value, dt, nbytes = _raster_header(fh, path, channels, third, sample_dtype)
        raw = fh.read(nbytes)
    if len(raw) != nbytes:  # a pipe or device that ended early
        raise _truncated(path, nbytes, len(raw))
    return np.frombuffer(raw, dtype=dt).reshape(shape), value


# ---------------------------------------------------------------------------
# PFM


def write_pfm(path, values: np.ndarray) -> None:
    """Write (H, W) as grayscale 'Pf' or (H, W, 3) as color 'PF', float32; a
    finite value past float32 range (it would be stored as inf) is a DomainError."""
    values = np.asarray(values)
    if values.ndim == 2:
        ident = "Pf"
    elif values.ndim == 3 and values.shape[2] == 3:
        ident = "PF"
    else:
        raise ParameterError(f"PFM writer takes (H, W) or (H, W, 3), got {values.shape}")
    h, w = values.shape[:2]
    # PFM scanlines run bottom-to-top; a C-order copy is written as it is
    with np.errstate(over="raise"):
        try:
            data = np.flipud(values).astype("<f4", order="C")
        except FloatingPointError:
            raise DomainError(f"{path}: a finite value past float32 range") from None
    _write_raster(path, f"{ident}\n{w} {h}\n-1.0\n", data.data)


def _pfm_dtype(scale, path) -> np.dtype:
    return np.dtype("<f4" if scale < 0 else ">f4")  # a negative scale marks little-endian


_PFM = ({b"PF": 3, b"Pf": 1}, "scale", _pfm_dtype)


def read_pfm(path) -> np.ndarray:
    """Read a PFM file into float64, shape (H, W) or (H, W, 3)."""
    arr, scale = _read_raster(path, *_PFM)
    # rows run bottom-to-top; a signaling NaN reads as NaN, a sample scaled past float64 as inf
    with np.errstate(invalid="ignore", over="ignore"):
        arr = np.flipud(arr).astype(np.float64)
        if abs(scale) != 1.0:
            arr = arr * abs(scale)
    return arr[:, :, 0] if arr.shape[2] == 1 else arr


# ---------------------------------------------------------------------------
# PGM / PPM


def write_pgm(path, values: np.ndarray, maxval: int = 255) -> None:
    """Write binary (P5) PGM; 16-bit samples are big-endian."""
    _write_raster(path, *_pgm(values, maxval))


def _pgm(values, maxval: int) -> tuple[str, bytes]:
    """The header and raster bytes of a binary PGM."""
    maxval = _int_param("maxval", maxval, 1, 65535)
    values = np.asarray(values)
    if values.ndim != 2:
        raise ParameterError(f"PGM writer takes (H, W), got {values.shape}")
    if values.min() < 0 or values.max() > maxval:
        raise ParameterError("PGM sample outside [0, maxval]")
    h, w = values.shape
    dt = np.uint8 if maxval < 256 else ">u2"
    return f"P5\n{w} {h}\n{maxval}\n", values.astype(dt).tobytes()


def _pnm_dtype(maxval, path) -> np.dtype:
    if not 1 <= maxval <= 65535:
        raise FormatError(f"{path}: bad maxval {maxval}")
    return np.dtype(np.uint8 if maxval < 256 else ">u2")


_PGM = ({b"P5": 1}, "maxval", _pnm_dtype)
_PPM = ({b"P6": 3}, "maxval", _pnm_dtype)


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary (P5) PGM. Returns (values, maxval); dtype follows depth."""
    arr, maxval = _read_raster(path, *_PGM)
    return arr[:, :, 0].astype(np.uint16 if maxval >= 256 else np.uint8), maxval


def write_ppm(path, values: np.ndarray) -> None:
    """Write (H, W, 3) values in [0, 1] as 8-bit binary PPM (P6).

    Quantization is value*255 rounded half-up.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3 or values.shape[2] != 3:
        raise ParameterError(f"PPM writer takes (H, W, 3), got {values.shape}")
    q = np.floor(values * 255.0 + 0.5)
    q = np.clip(q, 0, 255).astype(np.uint8)
    h, w = values.shape[:2]
    _write_raster(path, f"P6\n{w} {h}\n255\n", q.tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary (P6) 8-bit PPM into uint8 (H, W, 3)."""
    arr, maxval = _read_raster(path, *_PPM)
    if maxval != 255:
        raise FormatError(f"{path}: only 8-bit PPM supported, maxval {maxval}")
    return arr.copy()


# the header of each raster suffix (in any case) evdepth reads
_RASTER_SUFFIXES = {".pfm": _PFM, ".pgm": _PGM, ".ppm": _PPM}


def _raster_shape(path) -> tuple[int, int, int]:
    """The (H, W, C) shape of the PFM, PGM or PPM file ``path`` (by its
    suffix) from its header and size alone: a header or a size that its
    reader would reject is a FormatError."""
    with open(path, "rb") as fh:
        return _raster_header(fh, path, *_RASTER_SUFFIXES[Path(path).suffix.lower()])[0]


# ---------------------------------------------------------------------------
# Depth map and mask conventions


def save_depth_pfm(path, depth: np.ndarray) -> None:
    write_pfm(path, np.asarray(depth, dtype=np.float64))


def load_depth_pfm(path) -> np.ndarray:
    arr = read_pfm(path)
    if arr.ndim != 2:
        raise FormatError(f"{path}: depth PFM must be single-channel")
    return arr


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def save_depth_pgm16(path, depth: np.ndarray, scale_m_per_unit: float | None = None) -> None:
    """Quantize depth to 16-bit PGM plus a JSON scale sidecar.

    Default scale maps the depth maximum to 65535. Zero raster values are the
    invalid-pixel convention, so non-finite or non-positive depths encode as 0.
    A scale at which a valid depth needs more than 65535 units is a
    ParameterError: the raster could not store that depth.
    """
    depth = np.asarray(depth, dtype=np.float64)
    valid = np.isfinite(depth) & (depth > 0)
    values = depth[valid]
    top = float(values.max()) if values.size else 1.0
    if scale_m_per_unit is None:
        scale_m_per_unit = top / 65535.0
    scale_m_per_unit = _real_param("scale_m_per_unit", scale_m_per_unit, 0, np.inf)
    with np.errstate(over="ignore"):  # an overflow is a unit count past 65535, raised next
        q = np.floor(values / scale_m_per_unit + 0.5)
    if values.size and q.max() > 65535:
        raise ParameterError(
            f"scale_m_per_unit {scale_m_per_unit} stores depths up to "
            f"{65535 * scale_m_per_unit:.6g} m, but the largest valid depth is {top:.6g} m")
    raster = np.zeros(depth.shape, dtype=np.uint16)
    raster[valid] = q.astype(np.uint16)
    path = Path(path)
    header, data = _pgm(raster, 65535)
    with _atomic_write(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(data)
        # the old scale goes before the new raster replaces the old one: a
        # save cut off before the new sidecar is written leaves no sidecar
        # (an error on load), never the new raster beside the old scale
        Path(os.path.realpath(_sidecar(path))).unlink(missing_ok=True)  # a link stays
    _write_json(_sidecar(path), {"scale_m_per_unit": scale_m_per_unit}, indent=None)


def load_depth_pgm16(path) -> np.ndarray:
    path = Path(path)
    raster, maxval = read_pgm(path)
    if maxval < 256:
        raise FormatError(f"{path}: expected 16-bit depth PGM, maxval {maxval}")
    sidecar = _sidecar(path)
    meta = _read_json(sidecar, "depth sidecar")
    scale = meta.get("scale_m_per_unit") if isinstance(meta, dict) else None
    if type(scale) not in (int, float) or not (scale > 0 and _finite(scale * 65535)):
        raise FormatError(f"{sidecar}: scale_m_per_unit must be a number > 0, finite times 65535")
    return raster.astype(np.float64) * scale


# the loader of each depth-map suffix (in any case)
DEPTH_SUFFIXES = {".pfm": load_depth_pfm, ".pgm": load_depth_pgm16}


def load_depth(path) -> np.ndarray:
    path = Path(path)
    load = DEPTH_SUFFIXES.get(path.suffix.lower())
    if load is None:
        raise ParameterError(f"unsupported depth format {path.suffix!r}")
    return load(path)


def depth_valid_mask(depth: np.ndarray) -> np.ndarray:
    """Validity convention for stored depth: finite and strictly positive."""
    return np.isfinite(depth) & (depth > 0)


def save_mask_pgm(path, mask: np.ndarray) -> None:
    mask = np.asarray(mask, dtype=bool)
    write_pgm(path, mask.astype(np.uint8) * 255, maxval=255)


def load_mask_pgm(path) -> np.ndarray:
    raster, _ = read_pgm(path)
    return raster != 0

"""Distillation dataset building: time-aligned (event slice, proxy label)
pairs, manifest files, per-sample training-step computation, stack export.

A manifest is a pure function of the input directories: frames give the
reference timestamps (each slice ends exactly at its frame's time), proxies
pair with frames by filename stem, and records are ordered by timestamp no
matter how the filesystem lists them. Proxy labels are consumed as files;
producing them (running a teacher model) is out of scope, so the teacher is
recorded as provenance only. Frames whose slice is empty stay in the
manifest, flagged, because static intervals are exactly what the recurrent
runner is for; ``drop_empty`` removes them.

Working set: a loop over records frees each record's frame-sized arrays
before the next record's are made. ``export_stacks`` drops a record's slice
and stack before it reads the next slice, so it holds one slice and one stack
whatever the manifest's length; ``training_step`` frees each target before
the next loss runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import LOSS_DEFAULTS
from .errors import (BuildError, ContractError, FormatError, ParameterError, _bool_param,
                     _choice_param, _int_param, _real_param, _shown)
from .events import (MAX_SENSOR_DIM, MAX_TIME_US, EventSlice, SliceMode, SliceSpec, _EvbSource,
                     _infer_format, _slice_bounds, _slicing, read_events, slice_sbn, slice_sbt)
from .imgio import (_RASTER_SUFFIXES, DEPTH_SUFFIXES, _raster_shape, _read_json, _write_json,
                    depth_valid_mask, load_depth, load_mask_pgm)
from .losses import LossReport, _loss_params, loss_total
from .naming import files_by_stem, timestamped_files
from .stacks import StackLayout, _bin_count, _check_format, encode, save_stack_pfm, save_stack_ppm

MANIFEST_VERSION = 1
FRAME_SUFFIXES = (".pgm", ".ppm", ".pfm", ".png", ".jpg")
MASK_SUFFIXES = (".pgm",)


@dataclass(frozen=True)
class SampleRecord:
    """One manifest record, whose fields are checked as it is made; their names
    are its JSON keys in the file."""

    t_d_us: int
    events_path: str
    t_start_us: int
    t_end_us: int
    proxy_path: str
    gt_path: str | None
    mask_path: str | None  # None = fully valid proxy mask
    width: int
    height: int
    empty_slice: bool

    def __post_init__(self) -> None:
        # an SBT slice starts at t_d - window, which may lie before time 0
        for name, lo in (("t_d_us", 0), ("t_start_us", -MAX_TIME_US), ("t_end_us", 0)):
            object.__setattr__(self, name, _int_param(name, getattr(self, name), lo, MAX_TIME_US))
        for name in ("width", "height"):
            object.__setattr__(self, name, _int_param(name, getattr(self, name), 1, MAX_SENSOR_DIM))
        for name, optional in (("events_path", False), ("proxy_path", False),
                               ("gt_path", True), ("mask_path", True)):
            value = getattr(self, name)
            if not (isinstance(value, str) or (optional and value is None)):
                kinds = "a string or None" if optional else "a string"
                raise ParameterError(f"{name} must be {kinds}, got {_shown(value)}")
        object.__setattr__(self, "empty_slice", _bool_param("empty_slice", self.empty_slice))


@dataclass(frozen=True)
class EncoderSpec:
    """How every record of a manifest is sliced and encoded.

    ``bins`` is the voxel bin count: set (and positive) exactly when the
    layout is voxel.
    """

    layout: StackLayout
    slicing: SliceSpec
    bins: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "layout", _choice_param("layout", self.layout, StackLayout))
        if (self.layout is StackLayout.VOXEL) != (self.bins is not None):
            raise ParameterError("bins applies to the voxel layout only, and voxel needs it")
        if self.bins is not None:
            object.__setattr__(self, "bins", _bin_count(self.bins))


@dataclass(frozen=True)
class Provenance:
    teacher: str
    lam: float
    k_scales: int

    def __post_init__(self) -> None:
        if not isinstance(self.teacher, str):
            raise ParameterError(f"teacher must be a string, got {self.teacher!r}")
        object.__setattr__(self, "lam", _real_param("lambda", self.lam, -np.inf, np.inf))
        object.__setattr__(self, "k_scales", _int_param("k_scales", self.k_scales, 1))


@dataclass(frozen=True)
class DatasetManifest:
    encoder: EncoderSpec
    provenance: Provenance
    records: tuple[SampleRecord, ...]


@contextlib.contextmanager
def _open_recording(path):
    """The events of ``path``, ready to slice. An EVB file is validated in one
    chunked pass and then read slice by slice, from the file held open until
    the block ends; an evcsv file has no fixed-size records, so it is read
    whole into memory."""
    if _infer_format(Path(path), None) == "csv":
        yield read_events(path)
    else:
        with _EvbSource(path) as source:
            yield source


def _slice_record(events, record: SampleRecord, slicing: SliceSpec) -> EventSlice:
    """The slice of ``record``; a ContractError naming the record unless its
    sensor size, interval and empty flag are the ones the record holds."""
    # this module's slice_sbt/slice_sbn, not slice_events: evbench/tracing.py wraps these names
    if slicing.mode is SliceMode.SBT:
        sl = slice_sbt(events, record.t_d_us, slicing.window_us)
    else:
        sl = slice_sbn(events, record.t_d_us, slicing.count)
    held = (record.width, record.height, record.t_start_us, record.t_end_us, record.empty_slice)
    found = (sl.width, sl.height, sl.t_start_us, sl.t_end_us, len(sl) == 0)
    if found != held:
        raise ContractError(
            f"record t_d={record.t_d_us}: events file no longer matches manifest record "
            f"(width, height, t_start_us, t_end_us, empty_slice): {held} in the manifest, "
            f"{found} from the events")
    return sl


def _check_raster_size(path, events) -> None:
    """A ContractError naming ``path`` unless the raster it names (PFM, PGM
    or PPM; any other file, or None, passes unread) is the recording's size;
    only its header is read."""
    if path is None or Path(path).suffix.lower() not in _RASTER_SUFFIXES:
        return
    h, w = _raster_shape(path)[:2]
    if (w, h) != (events.width, events.height):
        raise ContractError(f"{path}: size {w}x{h}, but the events are from "
                            f"a {events.width}x{events.height} sensor")


def build_manifest(
    events_path,
    frames_dir,
    proxy_dir,
    *,
    window_us: int | None = None,
    mode: str = "sbt",
    count: int | None = None,
    layout: str = "tencode",
    bins: int | None = None,
    gt_dir=None,
    mask_dir=None,
    teacher: str = "unspecified",
    lam: float = LOSS_DEFAULTS.lam,
    k_scales: int = LOSS_DEFAULTS.k_scales,
    drop_empty: bool = False,
) -> DatasetManifest:
    """One record per frame, slices ending at the frame timestamps.

    SBT takes ``window_us`` and SBN ``count``, voxel ``bins`` (unset, a window or
    bin count takes its default); a value the mode or layout does not use is a
    ParameterError. A directory given that is not one is a FileNotFoundError,
    before the recording is opened. Each frame needs a proxy, and a mask if
    ``mask_dir`` is given (BuildError, also before the open); with no ground
    truth, ``gt_path`` is None. Each frame, proxy, ground-truth and mask
    raster must be the recording's size (ContractError); a PNG or JPG frame
    is paired by name only.
    """
    layout = _choice_param("layout", layout, StackLayout)
    bins = _bin_count(bins) if layout is StackLayout.VOXEL else bins
    encoder = EncoderSpec(layout, _slicing(mode, window_us, count), bins)
    provenance = Provenance(teacher=teacher, lam=lam, k_scales=k_scales)
    drop_empty = _bool_param("drop_empty", drop_empty)

    # each directory is listed once, and each frame paired with its partner
    # files, before the recording is opened
    frames = timestamped_files(frames_dir, suffixes=FRAME_SUFFIXES)
    proxies = files_by_stem(proxy_dir, DEPTH_SUFFIXES, "depth")
    gts = files_by_stem(gt_dir, DEPTH_SUFFIXES, "depth") if gt_dir else {}
    masks = files_by_stem(mask_dir, MASK_SUFFIXES, "mask") if mask_dir else None
    paired = []
    missing = []
    for t_d, frame_path in frames:
        stem = frame_path.stem
        proxy = proxies.get(stem)
        if proxy is None:
            missing.append(f"{stem} (t_d={t_d})")
            continue
        mask_path = None
        if masks is not None:
            mask = masks.get(stem)
            if mask is None:
                missing.append(f"{stem} (t_d={t_d}, mask)")
                continue
            mask_path = str(mask.resolve())
        paired.append((t_d, frame_path, proxy, gts.get(stem), mask_path))
    if missing:
        raise BuildError("missing proxy/mask files for frames: " + ", ".join(missing))
    events_path = Path(events_path).resolve()
    with _open_recording(events_path) as events:
        if not frames:  # a bad recording is named first, even with no frames
            raise BuildError(f"no frames found under {frames_dir}")
        records = []
        for t_d, frame_path, proxy, gt, mask_path in paired:
            for path in (frame_path, proxy, gt, mask_path):
                _check_raster_size(path, events)
            # the record needs the slice's bounds only, not its events
            lo, hi, t_start = _slice_bounds(events, t_d, encoder.slicing)
            records.append(SampleRecord(
                t_d_us=t_d, events_path=str(events_path), t_start_us=t_start, t_end_us=t_d,
                proxy_path=str(proxy.resolve()), gt_path=str(gt.resolve()) if gt else None,
                mask_path=mask_path, width=events.width, height=events.height,
                empty_slice=hi == lo))
    if drop_empty:
        records = [r for r in records if not r.empty_slice]
    return DatasetManifest(encoder=encoder, provenance=provenance, records=tuple(records))


# ---------------------------------------------------------------------------
# Manifest file format (versioned JSON)


def save_manifest(manifest: DatasetManifest, path) -> None:
    payload = {
        "version": MANIFEST_VERSION,
        "encoder": {
            "layout": manifest.encoder.layout.value,
            "mode": manifest.encoder.slicing.mode.value,
            "window_us": manifest.encoder.slicing.window_us,
            "count": manifest.encoder.slicing.count,
            "bins": manifest.encoder.bins,
        },
        "provenance": {
            "teacher": manifest.provenance.teacher,
            "lambda": manifest.provenance.lam,
            "k_scales": manifest.provenance.k_scales,
        },
        "records": [dataclasses.asdict(r) for r in manifest.records],
    }
    _write_json(path, payload)


def load_manifest(path) -> DatasetManifest:
    """Parse a manifest file; any malformed content is a FormatError."""
    payload = _read_json(path, "manifest")
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != MANIFEST_VERSION:
        raise FormatError(f"{path}: unsupported manifest version {version!r}")
    try:
        enc, prov = payload["encoder"], payload["provenance"]
        slicing = SliceSpec(enc["mode"], enc["window_us"], enc["count"])
        encoder = EncoderSpec(enc["layout"], slicing, enc["bins"])
        provenance = Provenance(prov["teacher"], lam=prov["lambda"], k_scales=prov["k_scales"])
        records = tuple(SampleRecord(**r) for r in payload["records"])
        for prev, r in zip(records, records[1:]):
            if r.t_d_us <= prev.t_d_us:
                raise FormatError(f"{path}: record timestamps must strictly increase at {r.t_d_us}")
    except KeyError as exc:
        raise FormatError(f"{path}: missing key {exc}") from None
    except (ParameterError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from None
    return DatasetManifest(encoder=encoder, provenance=provenance, records=records)


# ---------------------------------------------------------------------------
# Per-sample supervision


@dataclass(frozen=True)
class TrainingStep:
    proxy_report: LossReport | None
    gt_report: LossReport | None
    total: float
    grad: np.ndarray


def _load_mask(path, shape) -> np.ndarray:
    """The mask PGM at ``path``, which must match the depth maps' ``shape``."""
    mask = load_mask_pgm(path)
    if mask.shape != shape:
        raise ContractError(f"mask {path} shape {mask.shape}, expected {shape}")
    return mask


def _load_target(path_str: str, record: SampleRecord, kind: str) -> np.ndarray:
    path = Path(path_str)
    if not path.is_file():
        raise FileNotFoundError(f"record t_d={record.t_d_us}: missing {kind} file {path}")
    target = load_depth(path)
    if target.shape != (record.height, record.width):
        raise ContractError(f"record t_d={record.t_d_us}: {kind} shape {target.shape}, "
                            f"expected {(record.height, record.width)}")
    return target


def training_step(
    record: SampleRecord,
    pred: np.ndarray,
    lam: float = LOSS_DEFAULTS.lam,
    k_scales: int = LOSS_DEFAULTS.k_scales,
    mode: str = "proxy",
) -> TrainingStep:
    """Loss and gradient of a prediction against a record's targets.

    ``proxy`` supervises on the distilled label under the record mask;
    ``gt`` on the ground-truth depth under its own validity; ``combined``
    adds both. A target the record lacks is an error before any file is read.
    """
    mode = _choice_param("mode", mode, ("proxy", "gt", "combined"))
    lam, k_scales = _loss_params(lam, k_scales)  # before any file is read
    pred = np.asarray(pred, dtype=np.float64)
    if pred.shape != (record.height, record.width):
        raise ContractError(
            f"prediction shape {pred.shape}, sensor is {(record.height, record.width)}")
    kinds = {"proxy": ["proxy"], "gt": ["ground-truth"], "combined": ["proxy", "ground-truth"]}
    paths = {"proxy": record.proxy_path, "ground-truth": record.gt_path}
    if any(paths[kind] is None for kind in kinds[mode]):
        raise ParameterError(f"record t_d={record.t_d_us} has no ground-truth target")
    mask = (np.ones(pred.shape, dtype=bool) if record.mask_path is None
            else _load_mask(record.mask_path, pred.shape))
    reports, total, grad = {}, 0.0, 0.0
    for kind in kinds[mode]:
        target = _load_target(paths[kind], record, kind)
        target_mask = mask if kind == "proxy" else depth_valid_mask(target) & mask
        reports[kind], target_grad = loss_total(pred, target, target_mask, lam, k_scales)
        del target, target_mask  # freed before the next target is read
        total += reports[kind].total
        # (0.0 + g1) + g2, each sum in the new term's array: as from a zero-filled
        # start, a -0.0 in g1 comes out +0.0
        grad = np.add(grad, target_grad, out=target_grad)
    return TrainingStep(reports.get("proxy"), reports.get("ground-truth"), total, grad)


# ---------------------------------------------------------------------------
# Stack export


def _write_stack(stack, path: Path, fmt: str) -> list[Path]:
    """Write ``stack`` to ``path`` as "pfm" or "ppm"; the paths written."""
    # this module's save_stack_pfm/ppm: evbench/tracing.py wraps save_stack_pfm here
    if fmt == "pfm":
        return save_stack_pfm(stack, path)
    return [save_stack_ppm(stack, path)]


def export_stacks(manifest: DatasetManifest, out_dir, fmt: str = "pfm") -> list[Path]:
    """Encode every record to ``<t_d:012>.pfm/.ppm``; reruns are byte-identical.
    ``out_dir`` is made with the first stack (or at once, with no records)."""
    fmt = _choice_param("format", fmt, ("pfm", "ppm"))
    encoder = manifest.encoder
    _check_format(encoder.layout, fmt)  # before a directory or recording is touched
    out_dir = Path(out_dir)
    if not manifest.records:
        out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    with contextlib.ExitStack() as opened:
        recordings = {}
        for record in manifest.records:
            events = recordings.get(record.events_path)
            if events is None:
                events = opened.enter_context(_open_recording(record.events_path))
                recordings[record.events_path] = events
            sl = _slice_record(events, record, encoder.slicing)
            stack = encode(sl, encoder.layout, bins=encoder.bins)
            if not written:
                out_dir.mkdir(parents=True, exist_ok=True)
            written.extend(_write_stack(stack, out_dir / f"{record.t_d_us:012d}.{fmt}", fmt))
            del sl, stack  # freed before the next record's slice is read
    return written

"""The three benchmark workloads.

Each workload generates its inputs from the seed in ``setup`` (files under
its work directory plus in-memory arrays), runs one untimed ``warm_up``
item, then runs timed passes. A pass times only the calls into evdepth; the
correctness checks that follow it are untimed. Items run one after another
on one thread.

Files are written and checked with the small PFM/PGM codecs below rather
than with ``evdepth.imgio``, so input generation and the checks do not
depend on the code being measured.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

from evdepth.events import write_events
from evdepth.fusion import make_model_params, run_sequence, toy_extractor
from evdepth.imgio import depth_valid_mask, load_depth, load_mask_pgm, read_pfm, save_depth_pfm
from evdepth.metrics import aggregate, evaluate, write_reports_csv, write_reports_json
from evdepth.pipeline import SampleRecord, build_manifest, export_stacks, training_step
from evdepth.simulator import IntensityFrame, SimConfig, simulate

FRAME_STEP_US = 50_000  # 20 Hz frames


@dataclasses.dataclass
class PassResult:
    items: int
    failed: int
    seconds: float
    latencies_ms: list[float]
    digests: dict[str, str]
    raised: bool = False  # the pass stopped at an exception


# ---------------------------------------------------------------------------
# Raster codecs owned by the benchmark


def _write_pfm(path, values) -> None:
    values = np.asarray(values)
    ident = b"PF" if values.ndim == 3 else b"Pf"
    h, w = values.shape[:2]
    with open(path, "wb") as fh:
        fh.write(ident + f"\n{w} {h}\n-1.0\n".encode("ascii"))
        fh.write(np.flipud(values).astype("<f4").tobytes())


def _read_pfm(path) -> np.ndarray:
    """Little-endian PFM as written by evdepth; float32, top row first."""
    raw = Path(path).read_bytes()
    ident, dims, scale, data = raw.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    if float(scale) != -1.0:
        raise ValueError(f"{path}: unexpected PFM scale {scale!r}")
    shape = (h, w, 3) if ident == b"PF" else (h, w)
    return np.flipud(np.frombuffer(data, dtype="<f4").reshape(shape))


def _write_pgm(path, values, maxval: int) -> None:
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(values.astype(np.uint8 if maxval < 256 else ">u2").tobytes())


def _sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for p in paths:
        digest.update(Path(p).read_bytes())
    return digest.hexdigest()


def _same_stack(values, sha256: str) -> bool:
    """``values`` is exactly representable in float32 and its float32 bytes
    hash to ``sha256``."""
    as_f4 = np.ascontiguousarray(values, dtype="<f4")
    return (np.array_equal(as_f4, values)
            and hashlib.sha256(as_f4.tobytes()).hexdigest() == sha256)


def _smooth_field(rng, shape, cells) -> np.ndarray:
    """Bilinear upsampling of a coarse uniform random grid to ``shape``."""
    h, w = shape
    coarse = rng.random((cells[0] + 1, cells[1] + 1))
    ry = np.linspace(0, cells[0], h)
    rx = np.linspace(0, cells[1], w)
    rows = np.stack([np.interp(ry, np.arange(cells[0] + 1), coarse[:, j])
                     for j in range(cells[1] + 1)], axis=1)
    return np.stack([np.interp(rx, np.arange(cells[1] + 1), row) for row in rows])


class Workload:
    """Subclasses provide ``setup()``, ``warm_up()``, ``run_pass(index) ->
    PassResult`` and ``sizes() -> dict`` (the measured input sizes)."""

    name = ""
    items_per_pass = 0
    latency_sample = ""  # what one item_ms_* sample times

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.cold_step_ms = 0.0


# ---------------------------------------------------------------------------
# prep-davis346: simulate -> EVB -> manifest + export (tencode SBT, voxel SBN)


class PrepDavis346(Workload):
    name = "prep-davis346"
    width, height = 346, 260
    n_frames = 40
    items_per_pass = n_frames
    # export_stacks is a batch call, so one latency sample per pass
    latency_sample = "pass time / frames in the pass"
    contrast = 0.15
    pan_px_per_frame = 2.0
    # Log-intensity texture amplitude, in units of its mean horizontal
    # gradient: ~91k events per 50 ms frame, within 1% across seeds.
    log_amplitude = 0.1
    window_us = 50_000
    sbn_count = 50_000
    voxel_bins = 5
    warm_frames = 3

    def _frames(self) -> list[np.ndarray]:
        """8-bit frames of a seeded blurred-noise texture panning left to right."""
        rng = np.random.default_rng([self.seed, 1])
        h, w = self.height, self.width
        tw = w + math.ceil(self.pan_px_per_frame * self.n_frames) + 2
        spectrum = np.fft.rfft2(rng.standard_normal((h, tw)))
        fy = np.fft.fftfreq(h)[:, None]
        fx = np.fft.rfftfreq(tw)[None, :]
        spectrum *= np.exp(-(fx**2 + fy**2) / (2 * 0.04**2))
        tex = np.fft.irfft2(spectrum, s=(h, tw))
        tex = (tex - tex.mean()) / np.abs(np.diff(tex, axis=1)).mean()
        texture = np.clip(np.rint(256 * 0.4 * np.exp(self.log_amplitude * tex) - 1), 0, 255)
        frames = []
        for k in range(self.n_frames):
            offset = self.pan_px_per_frame * k
            i0 = int(offset)
            a = offset - i0
            img = (1 - a) * texture[:, i0 : i0 + w] + a * texture[:, i0 + 1 : i0 + 1 + w]
            frames.append(np.rint(img).astype(np.uint8))
        return frames

    def _write_dataset(self, root: Path, frames) -> tuple[Path, Path]:
        frames_dir, proxy_dir = root / "frames", root / "proxy"
        frames_dir.mkdir(parents=True)
        proxy_dir.mkdir()
        # the proxy labels are only paired by name here; a tilted plane will do
        proxy = np.linspace(2.0, 20.0, self.height)[:, None].repeat(self.width, axis=1)
        for k, img in enumerate(frames):
            stem = f"{k * FRAME_STEP_US:09d}"
            _write_pgm(frames_dir / f"{stem}.pgm", img, 255)
            _write_pfm(proxy_dir / f"{stem}.pfm", proxy)
        return frames_dir, proxy_dir

    def setup(self) -> None:
        images = self._frames()
        self.frames_dir, self.proxy_dir = self._write_dataset(self.workdir / "data", images)
        warm = images[: self.warm_frames]
        self.warm_dirs = self._write_dataset(self.workdir / "warm", warm)
        # same mapping as evdepth.simulator.frame_from_pgm
        self.frames = [
            IntensityFrame(k * FRAME_STEP_US, (img.astype(np.float64) + 1.0) / 256.0)
            for k, img in enumerate(images)
        ]
        self.evb = self.workdir / "events.evb"
        self.n_events = None
        self.out_tencode = self.workdir / "tencode"
        self.out_voxel = self.workdir / "voxel"

    def _chain(self, frames, frames_dir, proxy_dir, evb, out_tencode, out_voxel):
        span = self.tracer.span
        with span("simulator.simulate"):
            stream = simulate(frames, SimConfig(self.contrast))
        self.tracer.count("events.n_events", len(stream))
        with span("events.write"):
            write_events(stream, evb)
        with span("pipeline.build_manifest"):
            manifest = build_manifest(evb, frames_dir, proxy_dir, layout="tencode",
                                      mode="sbt", window_us=self.window_us)
        with span("pipeline.export_stacks"):
            tencode = export_stacks(manifest, out_tencode)
        with span("pipeline.build_manifest"):
            manifest = build_manifest(evb, frames_dir, proxy_dir, layout="voxel", mode="sbn",
                                      count=self.sbn_count, bins=self.voxel_bins)
        with span("pipeline.export_stacks"):
            voxel = export_stacks(manifest, out_voxel)
        return stream, tencode, voxel

    def warm_up(self) -> None:
        warm = self.workdir / "warm"
        self._chain(self.frames[: self.warm_frames], *self.warm_dirs, warm / "events.evb",
                    warm / "tencode", warm / "voxel")

    def _expected_files(self) -> tuple[list[Path], list[Path]]:
        stems = [f"{k * FRAME_STEP_US:012d}" for k in range(self.n_frames)]
        tencode = [self.out_tencode / f"{s}.pfm" for s in stems]
        voxel = [self.out_voxel / f"{s}.c{c}.pfm" for s in stems for c in range(self.voxel_bins)]
        return sorted(tencode), sorted(voxel)

    def run_pass(self, index: int) -> PassResult:
        # every pass writes into fresh paths, so no check can read an earlier pass's files
        self.evb.unlink(missing_ok=True)
        shutil.rmtree(self.out_tencode, ignore_errors=True)
        shutil.rmtree(self.out_voxel, ignore_errors=True)
        self.tracer.item = index
        t0 = time.perf_counter()
        stream, tencode_out, voxel_out = self._chain(
            self.frames, self.frames_dir, self.proxy_dir, self.evb,
            self.out_tencode, self.out_voxel)
        seconds = time.perf_counter() - t0
        self.n_events = len(stream)
        tencode, voxel = self._expected_files()
        files_ok = (
            sorted(map(Path, tencode_out)) == tencode
            and sorted(map(Path, voxel_out)) == voxel
            and sorted(self.out_tencode.iterdir()) == tencode
            and sorted(self.out_voxel.iterdir()) == voxel
        )
        failed = (self.n_frames if not files_ok else
                  sum(not self._frame_ok(k, stream) for k in range(self.n_frames)))
        return PassResult(
            items=self.n_frames,
            failed=failed,
            seconds=seconds,
            latencies_ms=[seconds * 1e3 / self.n_frames],
            digests={
                "events": _sha256_files([self.evb]),
                "tencode": _sha256_files(tencode),
                "voxel": _sha256_files(voxel),
            },
        )

    def _frame_ok(self, k: int, stream) -> bool:
        """Tencode R/B exclusive, G in [0, 1], lit pixels = pixels with an event
        in the SBT window; voxel grid sum = polarity sum of the SBN slice."""
        t_d = k * FRAME_STEP_US
        stem = f"{t_d:012d}"
        ts = stream.ts
        lo = np.searchsorted(ts, t_d - self.window_us, side="left")
        hi = np.searchsorted(ts, t_d, side="right")
        touched = np.zeros(self.height * self.width, dtype=bool)
        touched[stream.ys[lo:hi].astype(np.int64) * self.width + stream.xs[lo:hi]] = True
        tenc = _read_pfm(self.out_tencode / f"{stem}.pfm")
        r, g, b = tenc[:, :, 0], tenc[:, :, 1], tenc[:, :, 2]
        ok = (
            tenc.shape == (self.height, self.width, 3)
            and bool(np.isin(r, (0, 1)).all() and np.isin(b, (0, 1)).all())
            and not bool((r * b).any())
            and bool(((g >= 0) & (g <= 1)).all())
            and np.array_equal((r + b).ravel() > 0, touched)
        )
        lo = max(0, hi - self.sbn_count)
        pol_sum = int(stream.ps[lo:hi].sum(dtype=np.int64))
        grid_sum = sum(
            float(_read_pfm(self.out_voxel / f"{stem}.c{c}.pfm").sum(dtype=np.float64))
            for c in range(self.voxel_bins)
        )
        return ok and abs(grid_sum - pol_sum) <= 2e-7 * (hi - lo) + 1e-6

    def sizes(self) -> dict:
        return {
            "sensor": f"{self.width}x{self.height}",
            "frames_per_pass": self.n_frames,
            "events_per_pass": self.n_events,
            "pixels_per_frame": self.width * self.height,
        }


# ---------------------------------------------------------------------------
# fusion-davis346: read_pfm -> run_sequence(toy extractor) -> save_depth_pfm


class FusionDavis346(Workload):
    name = "fusion-davis346"
    # DAVIS346 padded to the stride-16 grid: toy_extractor rejects 346x260
    width, height = 352, 256
    n_steps = 48
    items_per_pass = n_steps
    latency_sample = "one recurrent step, extractor call to next extractor call"
    occupancy = 0.25

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        stacks_dir = self.workdir / "stacks"
        stacks_dir.mkdir(parents=True)
        self.out_dir = self.workdir / "depth"
        self.out_dir.mkdir()
        self.paths = []
        self.expected = []  # sha256 of each stack's float32 bytes, top row first
        shape = (self.height, self.width)
        for k in range(self.n_steps):
            # a valid tencode stack: R/B exclusive polarity flags, G recency
            lit = rng.random(shape) < self.occupancy
            positive = rng.random(shape) < 0.5
            values = np.zeros(shape + (3,), dtype=np.float32)
            values[:, :, 0] = lit & positive
            values[:, :, 1] = np.where(lit, rng.random(shape), 0.0)
            values[:, :, 2] = lit & ~positive
            path = stacks_dir / f"{(k + 1) * FRAME_STEP_US:012d}.pfm"
            _write_pfm(path, values)
            self.paths.append(path)
            self.expected.append(hashlib.sha256(values.astype("<f4").tobytes()).hexdigest())
        self.params = make_model_params(seed=self.seed)

    def _extractor(self, stamps):
        params, seed, span = self.params, self.seed, self.tracer.span

        def extract(stack):
            stamps.append(time.perf_counter())
            self.tracer.item = len(stamps) - 1
            with span("fusion.extractor"):
                return toy_extractor(stack, seed=seed, scales=params.scales,
                                     channels=params.channels)

        return extract

    def warm_up(self) -> None:
        t0 = time.perf_counter()
        stack = read_pfm(self.paths[0])
        (depth,) = run_sequence([stack], self._extractor([]), self.params)
        save_depth_pfm(self.workdir / "warm.depth.pfm", depth)
        self.cold_step_ms = (time.perf_counter() - t0) * 1e3

    def run_pass(self, index: int) -> PassResult:
        span = self.tracer.span
        stamps: list[float] = []
        t0 = time.perf_counter()
        arrays = []
        for p in self.paths:
            with span("imgio.read_pfm"):
                arrays.append(read_pfm(p))
            if self.tracer.enabled:
                self.tracer.count("imgio.bytes_read", p.stat().st_size)
        with span("fusion.run_sequence"):
            depths = run_sequence(arrays, self._extractor(stamps), self.params)
        steps_end = time.perf_counter()
        outputs = []
        for p, depth in zip(self.paths, depths):
            out = self.out_dir / f"{p.stem}.depth.pfm"
            with span("imgio.save_depth"):
                save_depth_pfm(out, depth)
            outputs.append(out)
        seconds = time.perf_counter() - t0
        self.tracer.item = None
        bounds = stamps + [steps_end]
        shape = (self.height // 4, self.width // 4)
        failed = sum(
            not (
                _same_stack(a, e)
                and d.shape == shape
                and bool(np.isfinite(d).all())
            )
            for a, e, d in zip(arrays, self.expected, depths)
        )
        return PassResult(
            items=self.n_steps,
            failed=failed + self.n_steps - len(depths),
            seconds=seconds,
            latencies_ms=[(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])],
            digests={"depth": _sha256_files(outputs)},
        )

    def sizes(self) -> dict:
        return {
            "stack": f"{self.width}x{self.height}x3",
            "steps_per_sequence": self.n_steps,
            "pixels_per_frame": self.width * self.height,
        }


# ---------------------------------------------------------------------------
# supervise-dsec640: training_step(combined) + evaluate per frame, then
# aggregate(per-pixel) and JSON/CSV reports


class SuperviseDsec640(Workload):
    name = "supervise-dsec640"
    width, height = 640, 480
    n_frames = 16
    items_per_pass = n_frames
    latency_sample = "one frame: training_step + ground-truth/mask loads + evaluate"
    gt_hole_frac = 0.05

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        data = self.workdir / "data"
        data.mkdir(parents=True)
        self.out_dir = self.workdir / "reports"
        self.out_dir.mkdir()
        shape = (self.height, self.width)
        self.records, self.preds, self.masks, self.n_valid = [], [], [], []
        for k in range(self.n_frames):
            depth = 2.0 + 38.0 * _smooth_field(rng, shape, (6, 8))
            gt = np.where(rng.random(shape) < self.gt_hole_frac, 0.0, depth)
            mask = _smooth_field(rng, shape, (12, 16)) > 0.1
            proxy = 0.05 * depth + 0.2 + 0.01 * rng.standard_normal(shape)
            pred = 0.8 * depth + 0.3 + 0.3 * rng.standard_normal(shape)
            stem = f"{(k + 1) * FRAME_STEP_US:09d}"
            scale = float(gt.max()) / 65535.0
            _write_pgm(data / f"{stem}.gt.pgm", np.floor(gt / scale + 0.5), 65535)
            (data / f"{stem}.gt.pgm.json").write_text(
                json.dumps({"scale_m_per_unit": scale}) + "\n", encoding="ascii")
            _write_pgm(data / f"{stem}.mask.pgm", mask * 255, 255)
            _write_pfm(data / f"{stem}.proxy.pfm", proxy)
            self.records.append(SampleRecord(
                t_d_us=(k + 1) * FRAME_STEP_US,
                events_path="",
                t_start_us=k * FRAME_STEP_US,
                t_end_us=(k + 1) * FRAME_STEP_US,
                proxy_path=str(data / f"{stem}.proxy.pfm"),
                gt_path=str(data / f"{stem}.gt.pgm"),
                mask_path=str(data / f"{stem}.mask.pgm"),
                width=self.width,
                height=self.height,
                empty_slice=False,
            ))
            self.preds.append(pred)
            self.masks.append(mask)
            self.n_valid.append(int(((gt > 0) & mask).sum()))

    def _item(self, k: int):
        span = self.tracer.span
        record = self.records[k]
        with span("pipeline.training_step"):
            step = training_step(record, self.preds[k], mode="combined")
        with span("imgio.load_depth"):
            gt = load_depth(record.gt_path)
        with span("imgio.load_mask"):
            mask = load_mask_pgm(record.mask_path)
        if self.tracer.enabled:
            for path in (record.gt_path, record.mask_path):
                self.tracer.count("imgio.bytes_read", Path(path).stat().st_size)
        with span("metrics.evaluate"):
            report = evaluate(self.preds[k], gt, depth_valid_mask(gt) & mask)
        return step, report

    def warm_up(self) -> None:
        self._item(0)

    def _item_ok(self, k: int, step, report) -> bool:
        values = [step.total] + [getattr(report, f) for f in
                                 ("abs_rel", "sq_rel", "rmse", "rmse_log", "si_log")]
        return (
            all(math.isfinite(v) for v in values)
            and bool(np.isfinite(step.grad).all())
            and not bool(step.grad[~self.masks[k]].any())
            and report.n_valid == self.n_valid[k]
        )

    def run_pass(self, index: int) -> PassResult:
        span = self.tracer.span
        frames, latencies, failed = [], [], 0
        for k in range(self.n_frames):
            self.tracer.item = k
            t0 = time.perf_counter()
            step, report = self._item(k)
            latencies.append((time.perf_counter() - t0) * 1e3)
            failed += not self._item_ok(k, step, report)
            frames.append((f"{self.records[k].t_d_us:09d}", report))
        self.tracer.item = None
        t0 = time.perf_counter()
        with span("metrics.aggregate"):
            agg = aggregate([r for _, r in frames], weights="per-pixel")
        with span("metrics.write_reports"):
            write_reports_json(self.out_dir / "report.json", frames, agg)
            write_reports_csv(self.out_dir / "report.csv", frames, agg)
        seconds = sum(latencies) / 1e3 + time.perf_counter() - t0
        canonical = {f: (f"{v:.10g}" if isinstance(v, float) else v)
                     for f, v in agg.to_dict().items()}
        if agg.n_valid != sum(self.n_valid):
            failed = self.n_frames
        return PassResult(
            items=self.n_frames,
            failed=failed,
            seconds=seconds,
            latencies_ms=latencies,
            digests={"aggregate": hashlib.sha256(
                json.dumps(canonical, sort_keys=True).encode("ascii")).hexdigest()},
        )

    def sizes(self) -> dict:
        return {
            "sensor": f"{self.width}x{self.height}",
            "frames_per_pass": self.n_frames,
            "pixels_per_frame": self.width * self.height,
        }


WORKLOADS = {w.name: w for w in (PrepDavis346, FusionDavis346, SuperviseDsec640)}

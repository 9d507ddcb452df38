#!/usr/bin/env python3
"""Compare, probe by probe, the exact bytes two versions of evdepth produce.

    python3 scripts/identity.py <tree-a> <tree-b>

A tree is a git revision of this repository or a source checkout directory;
each runs the same probes, defined in this file, in a child process of its
own (see ``trees.py``). A probe hashes the float64 (and integer) bytes of
what it computes, over every seed, so a last-bit change anywhere shows: the
gated seed-0 digests of the benchmark hash float32 and cannot see one.

Prints one JSON object: per probe the two hashes and whether they are equal,
and for a probe that differs the first seed and item index (the position in
the list the probe returns) whose bytes differ; per tree, the OpenBLAS kernel
its probes ran on. Exits 0 when every probe is equal, 1 when any differs, 2 on
a bad argument or a tree that cannot be exported or run. GEMM and SIMD
reductions may sum differently on another CPU or BLAS build, so compare two
trees on one machine; the hashes themselves are not portable. numpy's bundled
OpenBLAS picks its GEMM kernel by CPU, and ``OPENBLAS_CORETYPE=Haswell`` (say)
forces another: run the comparison under each kernel a change must hold on,
never one whose instructions the CPU lacks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from trees import export, import_evdepth, openblas_core, run_child, run_evdepth

SEEDS = (0, 1, 2)
PROBE_TIMEOUT_S = 600

# Sizes of the benchmark workloads: prep and the fusion stacks at DAVIS346,
# supervision at 640x480 (and a crop with odd dimensions).
PREP_SHAPE = (260, 346)
PREP_FRAMES = 6
FRAME_STEP_US = 50_000
FUSION_SHAPE = (256, 352)
FUSION_STEPS = 4
SUPERVISE_SHAPE = (480, 640)
ODD_CROP = (479, 637)
NARROW_CROP = (479, 5)  # widths 5, 3, 2, 1: the pyramid's width-1 block sums
# Frame times for the simulate probe besides the prep cadence, whose per-pair
# sort keys are uint16: gaps whose keys are uint8 and uint32, and times past
# 2**53 us, where one global sort orders the stream.
SIM_TIMES = {
    "uint8": np.cumsum([0, 200, 3, 255, 3, 100]),
    "uint32": np.cumsum([0, 70_000, 3, 300_000, 3, 65_536]),
    "past-2**53": 2**62 + np.cumsum([0, 1000, 3, 1000, 3, 1000]),
}


# ---------------------------------------------------------------------------
# Probes (run inside the tree's subprocess)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        a = np.ascontiguousarray(item)
        h.update(f"{a.dtype.str}{a.shape};".encode("ascii"))
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _smooth(rng, shape, cells):
    """Bilinear interpolation of a random (cells + 1) grid onto ``shape``."""
    grid = rng.random((cells[0] + 1, cells[1] + 1))
    ry = np.linspace(0, cells[0], shape[0])
    rx = np.linspace(0, cells[1], shape[1])
    rows = np.stack([np.interp(rx, np.arange(cells[1] + 1), row) for row in grid])
    return np.stack([np.interp(ry, np.arange(cells[0] + 1), col) for col in rows.T], axis=1)


def _supervision_inputs(seed):
    rng = np.random.default_rng([seed, 3])
    depth = 2.0 + 38.0 * _smooth(rng, SUPERVISE_SHAPE, (6, 8))
    gt = np.where(rng.random(SUPERVISE_SHAPE) < 0.05, 0.0, depth)
    mask = _smooth(rng, SUPERVISE_SHAPE, (12, 16)) > 0.1
    proxy = 0.05 * depth + 0.2 + 0.01 * rng.standard_normal(SUPERVISE_SHAPE)
    pred = 0.8 * depth + 0.3 + 0.3 * rng.standard_normal(SUPERVISE_SHAPE)
    pred[~mask & (rng.random(SUPERVISE_SHAPE) < 0.5)] = np.nan  # never read
    return pred, proxy, gt, mask, (gt > 0) & mask


def _pairs(seed):
    """(name, pred, target, mask) cases: proxy and ground-truth supervision
    at the bench size, and the ground-truth case cropped to odd dims."""
    pred, proxy, gt, mask, gt_mask = _supervision_inputs(seed)
    h, w = ODD_CROP
    return [
        ("proxy", pred, proxy, mask),
        ("gt", pred, gt, gt_mask),
        ("gt-odd", pred[:h, :w], gt[:h, :w], gt_mask[:h, :w]),
    ]


def probe_lstsq_align(seed):
    from evdepth.losses import lstsq_align

    out = []
    for _, pred, target, mask in _pairs(seed):
        aff = lstsq_align(pred, target, mask)
        out += [aff.scale, aff.shift, aff.degenerate]
    constant = np.full(SUPERVISE_SHAPE, 3.0)
    aff = lstsq_align(constant, _pairs(seed)[0][2], None)
    return out + [aff.scale, aff.shift, aff.degenerate]


def probe_loss_total(seed):
    from evdepth.losses import loss_total

    out = []
    for _, pred, target, mask in _pairs(seed):
        for k_scales in (4, 6):  # 6 levels reach odd level sizes at 640x480
            report, grad = loss_total(pred, target, mask, 0.25, k_scales)
            out += [report.l_si, report.l_reg, report.total, report.affine.scale,
                    report.affine.shift, grad]
    return out


def probe_loss_deep_pyramid(seed):
    """Mixed-magnitude residuals through pyramids that reach coarse width 2
    (640x480, 10 scales), width 1 (a narrow odd crop, 4 and 9 scales) and 1x1
    (that crop at 12 scales: 1x1 at level 9, where the pyramid stops), so the
    order of each block sum's four adds, and the level count, show in the
    bits: aligned residuals spanning twelve decades, and, under the identity
    map, residuals drawn from {+-1e16, +-1, 3, 1e-3} (1e16 + 1 rounds back to
    1e16)."""
    from evdepth.losses import AffineParams, loss_total

    rng = np.random.default_rng([seed, 7])
    decades = 10.0 ** rng.integers(-6, 7, SUPERVISE_SHAPE)
    pred = rng.uniform(1.0, 2.0, SUPERVISE_SHAPE)
    target = pred + decades * rng.standard_normal(SUPERVISE_SHAPE)
    mask = rng.random(SUPERVISE_SHAPE) < 0.9
    blocks = rng.choice([1e16, -1e16, 1.0, -1.0, 3.0, 1e-3], size=SUPERVISE_SHAPE)
    zeros = np.zeros(SUPERVISE_SHAPE)
    out = []
    for p, t, affine in ((pred, target, None), (blocks, zeros, AffineParams(1.0, 0.0))):
        for crop, k_scales in ((SUPERVISE_SHAPE, 10), (NARROW_CROP, 4), (NARROW_CROP, 9),
                               (NARROW_CROP, 12)):
            h, w = crop
            report, grad = loss_total(p[:h, :w], t[:h, :w], mask[:h, :w], 0.25, k_scales,
                                      affine=affine)
            out += [report.l_si, report.l_reg, report.affine.scale, report.affine.shift, grad]
    return out


def probe_training_step(seed):
    from evdepth.imgio import save_depth_pfm, save_depth_pgm16, save_mask_pgm
    from evdepth.pipeline import SampleRecord, training_step

    pred, proxy, gt, mask, _ = _supervision_inputs(seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_depth_pfm(root / "p.pfm", proxy)
        save_depth_pgm16(root / "g.pgm", gt)
        save_mask_pgm(root / "m.pgm", mask)
        record = SampleRecord(
            t_d_us=FRAME_STEP_US, events_path="", t_start_us=0, t_end_us=FRAME_STEP_US,
            proxy_path=str(root / "p.pfm"), gt_path=str(root / "g.pgm"),
            mask_path=str(root / "m.pgm"), width=SUPERVISE_SHAPE[1],
            height=SUPERVISE_SHAPE[0], empty_slice=False,
        )
        step = training_step(record, pred, mode="combined")
    return [step.total, step.proxy_report.total, step.gt_report.total, step.grad]


def probe_evaluate(seed):
    """The pools of three aligned or clamped evaluations, then unaligned ones
    of predictions placed on each delta threshold, ``g * 1.25**k`` and
    ``g / 1.25**k``, and one ulp either side of it."""
    from evdepth.metrics import evaluate

    pred, _, gt, _, gt_mask = _supervision_inputs(seed)
    cases = [(pred, align, clamp) for align, clamp in (
        (True, (1e-3, math.inf)), (False, (1e-3, math.inf)), (True, (-math.inf, math.inf)))]
    for k in (1, 2, 3):
        for placed in (gt * 1.25**k, gt / 1.25**k):
            cases += [(np.nextafter(placed, 0.0), False, (1e-3, math.inf)),
                      (placed, False, (1e-3, math.inf)),
                      (np.nextafter(placed, math.inf), False, (1e-3, math.inf))]
    out = []
    for p, align, clamp in cases:
        pool = evaluate(p, gt, gt_mask, align=align, clamp=clamp).pool
        out += [pool.n, pool.sum_abs_rel, pool.sum_sq_rel, pool.sum_sq_err, pool.sum_log_diff,
                pool.sum_sq_log_diff, pool.n_delta1, pool.n_delta2, pool.n_delta3]
    return out


def _frames(seed):
    """8-bit frames of a blurred-noise texture panning right to left."""
    from evdepth.simulator import IntensityFrame

    rng = np.random.default_rng([seed, 1])
    h, w = PREP_SHAPE
    texture = _smooth(rng, (h, w + 2 * PREP_FRAMES), (26, 36))
    texture = np.rint(40 + 180 * texture)
    return [
        IntensityFrame(k * FRAME_STEP_US, (texture[:, 2 * k : 2 * k + w] + 1.0) / 256.0)
        for k in range(PREP_FRAMES)
    ]


def _stream(seed):
    from evdepth.simulator import SimConfig, simulate

    return simulate(_frames(seed), SimConfig(0.15))


def probe_simulate(seed):
    """The prep-cadence stream, then the same frames at each of ``SIM_TIMES``
    and at the prep cadence with a static pair (frame 3 repeats frame 2)."""
    from evdepth.simulator import IntensityFrame, SimConfig, simulate

    frames = _frames(seed)
    cases = [frames]
    cases += [[IntensityFrame(t, f.values) for t, f in zip(times, frames)]
              for times in SIM_TIMES.values()]
    cases.append(frames[:3] + [IntensityFrame(frames[3].timestamp_us, frames[2].values)]
                 + frames[4:])
    out = []
    for case in cases:
        s = simulate(case, SimConfig(0.15))
        out += [s.xs, s.ys, s.ps, s.ts]
    return out


def probe_evb_roundtrip(seed):
    """The columns read back and the file's bytes, so a writer change that
    alters the bytes but still round-trips shows too."""
    from evdepth.events import read_events, write_events

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.evb"
        write_events(_stream(seed), path)
        s = read_events(path)
        raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    return [s.xs, s.ys, s.ps, s.ts, raw]


def probe_encode(seed):
    """Every layout of the prep-cadence slices, then of a dense slice of an
    8x6 sensor whose pixel (0, 0) fires both polarities at its first
    timestamp and whose other pixels mostly fire both, with timestamps tied
    in runs."""
    from evdepth.events import EventStream, slice_sbn, slice_sbt
    from evdepth.stacks import StackLayout, encode

    stream = _stream(seed)
    slices = []
    for k in range(1, PREP_FRAMES):
        t_d = k * FRAME_STEP_US
        slices += [slice_sbt(stream, t_d, FRAME_STEP_US), slice_sbn(stream, t_d, 50_000)]
    rng = np.random.default_rng([seed, 11])
    n = 400
    xs, ys, ps = rng.integers(0, 8, n), rng.integers(0, 6, n), rng.choice(np.array([-1, 1]), n)
    xs[:2], ys[:2], ps[:2] = 0, 0, (1, -1)
    ts = 10 + np.cumsum(rng.integers(0, 3, n))
    ts[1] = ts[0]
    slices.append(slice_sbt(EventStream(8, 6, xs, ys, ps, ts), int(ts[-1]), int(ts[-1])))
    out = []
    for sl in slices:
        for layout in StackLayout:
            bins = 5 if layout is StackLayout.VOXEL else None  # the others take no bins
            out.append(encode(sl, layout, bins=bins).values)
    return out


def _tied_stream(seed):
    """3 * 4,096 + 123 events on a 64x48 sensor: timestamps tied in runs
    across records 4,096 and 8,192 and often elsewhere, and a 30 ms gap."""
    from evdepth.events import EventStream

    rng = np.random.default_rng([seed, 9])
    n = 3 * 4096 + 123
    gaps = np.where(rng.random(n) < 0.6, 0, rng.integers(1, 40, n))
    gaps[4096 - 50 : 4096 + 60] = 0
    gaps[8192 - 3000 : 8192 + 10] = 0
    gaps[6000] = 30_000
    ts = 1_000 + np.cumsum(gaps)
    return EventStream(64, 48, rng.integers(0, 64, n), rng.integers(0, 48, n),
                       rng.choice(np.array([-1, 1]), n), ts)


def probe_export(seed):
    """``build_manifest`` records (times, dims, empty flags) and the bytes
    ``export_stacks`` writes, for tencode SBT, voxel SBN with a count inside
    the stream and voxel SBN with a count past its length, then tencode with
    every default and voxel SBN with the default bin count; from an EVB file
    and from its evcsv twin. Frames fall before the first event, on tied
    timestamps, in the gap and after the last event. Last, whether each record
    of a manifest built with a ground-truth directory (missing the first
    frame's file) and a mask directory has a ground-truth and a mask path; the
    paths themselves are temporary."""
    from evdepth.events import write_events
    from evdepth.imgio import write_pfm, write_pgm
    from evdepth.pipeline import build_manifest, export_stacks

    stream = _tied_stream(seed)
    ts = stream.ts
    frame_times = sorted({500, int(ts[4096]), int(ts[8192]), int(ts[6000]) - 1,
                          int(ts[6000]) - 20_000, int(ts[-1]), int(ts[-1]) + 7_000})
    manifests = (
        {"layout": "tencode", "mode": "sbt", "window_us": 2_000},
        {"layout": "voxel", "mode": "sbn", "count": 5_000, "bins": 4},
        {"layout": "voxel", "mode": "sbn", "count": len(stream) + 9, "bins": 3},
        {"layout": "tencode"},
        {"layout": "voxel", "mode": "sbn", "count": 5_000},
    )
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "frames").mkdir()
        (root / "proxy").mkdir()
        sensor = (stream.height, stream.width)
        for t in frame_times:
            write_pgm(root / "frames" / f"{t:09d}.pgm", np.zeros(sensor, dtype=np.uint8))
            write_pfm(root / "proxy" / f"{t:09d}.pfm", np.ones(sensor))
        for fmt in ("evb", "csv"):
            events = root / f"events.{fmt}"
            write_events(stream, events)
            for k, kwargs in enumerate(manifests):
                manifest = build_manifest(events, root / "frames", root / "proxy", **kwargs)
                out.append(np.array([(r.t_d_us, r.t_start_us, r.t_end_us, r.width, r.height,
                                      r.empty_slice) for r in manifest.records], dtype=np.int64))
                written = export_stacks(manifest, root / f"{fmt}{k}")
                out += [np.frombuffer(path.read_bytes(), dtype=np.uint8) for path in written]
        (root / "gt").mkdir()
        (root / "mask").mkdir()
        for t in frame_times:
            if t != frame_times[0]:
                write_pfm(root / "gt" / f"{t:09d}.pfm", np.ones(sensor))
            write_pgm(root / "mask" / f"{t:09d}.pgm", np.ones(sensor, dtype=np.uint8))
        manifest = build_manifest(root / "events.evb", root / "frames", root / "proxy",
                                  gt_dir=root / "gt", mask_dir=root / "mask")
        out.append(np.array([(r.gt_path is not None, r.mask_path is not None)
                             for r in manifest.records], dtype=np.int64))
    return out


def probe_slice_cli(seed):
    """The bytes ``evdepth slice`` writes, to .evb and to .csv, for SBT and
    SBN slices of ``_tied_stream``, from an EVB recording and from its evcsv
    twin. Reference times fall before the first event, on tied timestamps at
    index entries, in the gap and after the last event; the last count takes
    the whole stream."""
    from evdepth.events import write_events

    stream = _tied_stream(seed)
    ts = stream.ts
    t_ds = (500, int(ts[4096]), int(ts[8192]), int(ts[6000]) - 1, int(ts[-1]) + 7_000)
    cuts = (("--dt-us", "2000"), ("--dt-us", "40000"), ("--count", "5000"),
            ("--count", str(len(stream) + 9)))
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for source in ("evb", "csv"):
            events = root / f"events.{source}"
            write_events(stream, events)
            for t_d in t_ds:
                for flag, value in cuts:
                    for fmt in ("evb", "csv"):
                        path = root / f"slice.{fmt}"
                        run_evdepth("slice", "--events", str(events), "--td-us", str(t_d),
                                    flag, value, "--out", str(path))
                        out.append(np.frombuffer(path.read_bytes(), dtype=np.uint8))
    return out


def _fusion_setup(seed):
    from evdepth.fusion import make_model_params

    rng = np.random.default_rng([seed, 2])
    stacks = []
    for _ in range(FUSION_STEPS):
        lit = rng.random(FUSION_SHAPE) < 0.25
        positive = rng.random(FUSION_SHAPE) < 0.5
        values = np.zeros(FUSION_SHAPE + (3,), dtype=np.float32)
        values[:, :, 0] = lit & positive
        values[:, :, 1] = np.where(lit, rng.random(FUSION_SHAPE), 0.0)
        values[:, :, 2] = lit & ~positive
        stacks.append(values)
    return stacks, make_model_params(seed=seed)


def probe_conv2d_same(seed):
    from evdepth.fusion import conv2d_same

    _, params = _fusion_setup(seed)
    rng = np.random.default_rng([seed, 5])
    out = []
    for s, c in zip(params.scales, params.channels):
        x = rng.standard_normal((FUSION_SHAPE[0] // s, FUSION_SHAPE[1] // s, 2 * c))
        out.append(conv2d_same(x, params.kernels[s]))
    return out


def probe_convlstm_step(seed):
    from evdepth.fusion import convlstm_step

    _, params = _fusion_setup(seed)
    rng = np.random.default_rng([seed, 6])
    out = []
    for s, c in zip(params.scales, params.channels):
        shape = (FUSION_SHAPE[0] // s, FUSION_SHAPE[1] // s, c)
        hidden, cell = rng.uniform(-1, 1, shape), rng.standard_normal(shape)
        out += convlstm_step(rng.standard_normal(shape), hidden, cell, params.kernels[s],
                             params.biases[s])
    return out


def probe_fuse(seed):
    """``bilinear_up2`` and ``fuse`` on the pyramid ``run_sequence`` fuses
    (its s16 -> s8 and s8 -> s4 steps) and on two-scale pyramids whose coarse
    map is 1xN, Nx1 or 3x5. Every input comes in two layouts with the same
    values: C-order and channel-major, the layout ``convlstm_step`` returns."""
    from evdepth.fusion import FeaturePyramid, bilinear_up2, fuse

    _, params = _fusion_setup(seed)
    rng = np.random.default_rng([seed, 8])
    shapes = [[(FUSION_SHAPE[0] // s, FUSION_SHAPE[1] // s) for s in params.scales]]
    shapes += [[(2 * h, 2 * w), (h, w)] for h, w in ((1, 7), (7, 1), (3, 5))]
    out = []
    for dims in shapes:
        maps = [rng.uniform(-1, 1, dim + (c,)) for dim, c in zip(dims, params.channels)]
        channel_major = [np.ascontiguousarray(m.transpose(2, 0, 1)).transpose(1, 2, 0)
                         for m in maps]
        scales = params.scales[: len(maps)]
        for layout in (maps, channel_major):
            out += [bilinear_up2(m) for m in layout[1:]]
            out.append(fuse(FeaturePyramid(scales, tuple(layout)), params.projections))
    return out


def probe_run_sequence(seed):
    from evdepth import fusion

    stacks, params = _fusion_setup(seed)
    states = []
    step = fusion.convlstm_step

    def recording_step(*args):
        new = step(*args)
        states.extend(new)
        return new

    fusion.convlstm_step = recording_step  # run_sequence calls it by module name
    try:
        depths = fusion.run_sequence(
            stacks,
            lambda st: fusion.toy_extractor(st, seed=seed, scales=params.scales,
                                            channels=params.channels),
            params,
        )
    finally:
        fusion.convlstm_step = step
    return states + depths


def probe_fusion_run_cli(seed):
    """The depth files ``evdepth fusion run`` writes, in name order: over the
    tencode stacks of ``run_sequence``'s probe (one colour PFM each) and over
    voxel stacks of five bins (one grey ``<stem>.c<k>.pfm`` per bin)."""
    from evdepth.imgio import write_pfm
    from evdepth.stacks import EventStack, StackLayout, save_stack_pfm

    stacks, _ = _fusion_setup(seed)
    rng = np.random.default_rng([seed, 11])
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for layout in ("tencode", "voxel"):
            stacks_dir = root / layout
            stacks_dir.mkdir()
            for k, values in enumerate(stacks):
                path = stacks_dir / f"{(k + 1) * FRAME_STEP_US:012d}.pfm"
                if layout == "tencode":
                    write_pfm(path, values)
                else:
                    bins = rng.normal(0.0, 0.5, FUSION_SHAPE + (5,)).astype(np.float32)
                    save_stack_pfm(EventStack(StackLayout.VOXEL, bins, 0, 1), path)
            run_evdepth("fusion", "run", "--stacks", str(stacks_dir),
                        "--out", str(root / f"{layout}-depth"), "--seed", str(seed))
            out += [np.frombuffer(path.read_bytes(), dtype=np.uint8)
                    for path in sorted((root / f"{layout}-depth").iterdir())]
    return out


def _raster_writers(seed):
    """Per file name, a writer of a raster both files and imgio.read probe."""
    from evdepth.imgio import save_depth_pgm16, save_mask_pgm, write_pfm, write_pgm, write_ppm

    _, proxy, gt, mask, _ = _supervision_inputs(seed)
    stacks, _ = _fusion_setup(seed)
    frame = np.rint(255 * _frames(seed)[0].values).astype(np.uint8)
    return {
        "grey.pfm": lambda path: write_pfm(path, proxy),
        "colour.pfm": lambda path: write_pfm(path, stacks[0]),
        "frame.pgm": lambda path: write_pgm(path, frame),
        "depth.pgm": lambda path: save_depth_pgm16(path, gt),  # and depth.pgm.json
        "stack.ppm": lambda path: write_ppm(path, stacks[1]),
        "mask.pgm": lambda path: save_mask_pgm(path, mask),
    }


def probe_files(seed):
    """The bytes of every file evdepth writes, in file name order: grey and
    colour PFM, 8-bit PGM, 16-bit depth PGM and its sidecar, PPM, mask, an SBT
    and an SBN manifest, the parameter archive and its manifest, the JSON and
    CSV reports, evcsv and EVB."""
    from evdepth.events import EventStream, SliceMode, SliceSpec, write_events
    from evdepth.fusion import save_model_params
    from evdepth.metrics import aggregate, evaluate, write_reports_csv, write_reports_json
    from evdepth.pipeline import (DatasetManifest, EncoderSpec, Provenance, SampleRecord,
                                  save_manifest)
    from evdepth.stacks import StackLayout

    _, params = _fusion_setup(seed)
    s = _stream(seed)
    head = EventStream(s.width, s.height, s.xs[:20_000], s.ys[:20_000], s.ps[:20_000],
                       s.ts[:20_000])
    records = tuple(
        SampleRecord(t_d_us=k * FRAME_STEP_US, events_path="/data/e.evb",
                     t_start_us=(k - 1) * FRAME_STEP_US, t_end_us=k * FRAME_STEP_US,
                     proxy_path=f"/data/proxy/{k}.pfm",
                     gt_path=f"/data/gt/{k}.pgm" if k % 2 else None,
                     mask_path=f"/data/mask/{k}.pgm" if k == 2 else None,
                     width=PREP_SHAPE[1], height=PREP_SHAPE[0], empty_slice=k == 3)
        for k in range(1, PREP_FRAMES)
    )
    provenance = Provenance("probe", 0.25 * (seed + 1), 4)
    sbt = EncoderSpec(StackLayout.TENCODE, SliceSpec(SliceMode.SBT, window_us=FRAME_STEP_US))
    sbn = EncoderSpec(StackLayout.VOXEL, SliceSpec(SliceMode.SBN, count=50_000), 5)
    frames = [(name, evaluate(p, t, m)) for name, p, t, m in _pairs(seed)]
    agg = aggregate([r for _, r in frames])
    writers = {
        **_raster_writers(seed),
        "sbt.json": lambda path: save_manifest(DatasetManifest(sbt, provenance, records), path),
        "sbn.json": lambda path: save_manifest(DatasetManifest(sbn, provenance, records), path),
        "params.bin": lambda path: save_model_params(params, path),  # and params.json
        "report.json": lambda path: write_reports_json(path, frames, agg),
        "report.csv": lambda path: write_reports_csv(path, frames, agg),
        "events.csv": lambda path: write_events(head, path),
        "events.evb": lambda path: write_events(head, path),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in writers.items():
            write(Path(tmp) / name)
        return [np.frombuffer(path.read_bytes(), dtype=np.uint8)
                for path in sorted(Path(tmp).iterdir())]


def _with_layout(arrays):
    """Each array, then its C-contiguous, writeable and owns-its-data flags,
    which the digest (over C-order bytes) does not see."""
    out = []
    for a in arrays:
        out += [a, np.array([a.flags.c_contiguous, a.flags.writeable, a.flags.owndata])]
    return out


def probe_imgio_read(seed):
    """What ``read_pfm``, ``read_pgm``, ``read_ppm``, ``load_depth`` and
    ``load_mask_pgm`` return, with the layout of each array: for the rasters
    the files probe writes; for hand-made headers with comments between the
    fields; for colour and grey PFMs stored big-endian (scale 2.5) and
    little-endian (scale -0.5) holding NaN (one of them signaling), +-inf and
    -0; for PGM maxvals 255, 256 and 65535; and for a grey PFM read as depth."""
    from evdepth.imgio import load_depth, load_mask_pgm, read_pfm, read_pgm, read_ppm

    rng = np.random.default_rng([seed, 10])
    h, w = 7, 5
    special = np.array([0x7FC00000, 0x7F800001, 0x7F800000, 0xFF800000, 0x80000000], "<u4")
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, write in _raster_writers(seed).items():
            write(root / name)
        hand = {}
        for ident, channels in ((b"Pf", 1), (b"PF", 3)):
            samples = rng.uniform(-4.0, 40.0, h * w * channels).astype("<f4")
            samples[: len(special)] = special.view("<f4")
            for order, scale in ((">", b"2.5"), ("<", b"-0.5")):
                name = f"{ident.decode()}{order == '>'}{scale.decode()}.pfm"
                hand[name] = (b"%s\n# w h\n%d %d #\n#scale\n%s\n" % (ident, w, h, scale)
                              + samples.astype(order + "f4").tobytes())
        for maxval in (255, 256, 65535):
            samples = rng.integers(0, maxval + 1, (h, w)).astype("u1" if maxval < 256 else ">u2")
            hand[f"m{maxval}.pgm"] = (b"P5 #\n%d\n#\n %d\t%d\n" % (w, h, maxval)
                                      + samples.tobytes())
        hand["hand.ppm"] = b"P6\n#c\n%d %d\n255\n" % (w, h) + rng.bytes(h * w * 3)
        for name, raw in hand.items():
            (root / name).write_bytes(raw)
        arrays = [read_pfm(root / "grey.pfm"), read_pfm(root / "colour.pfm"),
                  load_depth(root / "grey.pfm"), load_depth(root / "depth.pgm"),
                  read_pgm(root / "depth.pgm")[0], read_pgm(root / "frame.pgm")[0],
                  load_mask_pgm(root / "mask.pgm"), read_ppm(root / "stack.ppm"),
                  read_ppm(root / "hand.ppm")]
        for name in sorted(hand):
            if name.endswith(".pfm"):
                arrays.append(read_pfm(root / name))
                if name.startswith("Pf"):
                    arrays.append(load_depth(root / name))
            elif name.endswith(".pgm"):
                values, maxval = read_pgm(root / name)
                arrays += [values, load_mask_pgm(root / name)]
                out.append(np.array([maxval]))
    return out + _with_layout(arrays)


# Upstream first: a change to a kernel moves its probe and those after it
# that use it (training_step runs loss_total; loss_total and evaluate run
# lstsq_align; encode reads simulate's events; export slices and encodes;
# the slice CLI slices and writes events; the fusion CLI runs the recurrence).
PROBES = {
    "simulator.simulate": probe_simulate,
    "events.evb_roundtrip": probe_evb_roundtrip,
    "stacks.encode": probe_encode,
    "pipeline.export": probe_export,
    "cli.slice": probe_slice_cli,
    "fusion.conv2d_same": probe_conv2d_same,
    "fusion.convlstm_step": probe_convlstm_step,
    "fusion.fuse": probe_fuse,
    "fusion.run_sequence": probe_run_sequence,
    "cli.fusion_run": probe_fusion_run_cli,
    "losses.lstsq_align": probe_lstsq_align,
    "losses.loss_total": probe_loss_total,
    "losses.loss_deep_pyramid": probe_loss_deep_pyramid,
    "pipeline.training_step": probe_training_step,
    "metrics.evaluate": probe_evaluate,
    "files": probe_files,
    "imgio.read": probe_imgio_read,
}


def run_probes(tree: Path) -> dict[str, dict | str]:
    """Per probe: the digest over every seed's items, and one digest per item
    of each seed (so a difference can be traced to a seed and an item); or
    the error the probe raised."""
    import_evdepth(tree / "src")
    results = {}
    for name, probe in PROBES.items():
        per_seed = []
        try:
            with np.errstate(all="ignore"):
                for seed in SEEDS:
                    per_seed.append([np.asarray(x) for x in probe(seed)])
        except Exception as exc:  # a tree without the probed API still reports the rest
            results[name] = f"error: {type(exc).__name__}: {exc}"
            continue
        results[name] = {
            "digest": _digest([item for items in per_seed for item in items]),
            "items": [[_digest([item]) for item in items] for items in per_seed],
        }
    return results


def _digest_of(result):
    return result["digest"] if isinstance(result, dict) else result


def _first_difference(a: dict, b: dict) -> dict | None:
    """The first seed and item index whose bytes differ between two probe
    results (an item present in one tree only counts as different)."""
    for seed, items_a, items_b in zip(SEEDS, a["items"], b["items"]):
        for index in range(max(len(items_a), len(items_b))):
            if index >= min(len(items_a), len(items_b)) or items_a[index] != items_b[index]:
                return {"seed": seed, "item": index}
    return None


# ---------------------------------------------------------------------------
# Driver


def compare(spec_a: str, spec_b: str) -> dict:
    with tempfile.TemporaryDirectory(prefix="evdepth-identity-") as tmp:
        trees = [export(spec, Path(tmp)) for spec in (spec_a, spec_b)]
        runs = [run_child(__file__, "--probe-tree", str(tree), timeout=PROBE_TIMEOUT_S)
                for tree, _ in trees]
    for (_, info), run in zip(trees, runs):
        info["openblas_core"] = run["openblas_core"]
    probes = {}
    for name in PROBES:
        a, b = (run["probes"].get(name) for run in runs)
        if isinstance(a, dict) and isinstance(b, dict):
            first = _first_difference(a, b)
            probes[name] = {"a": a["digest"], "b": b["digest"], "equal": first is None}
            if first is not None:
                probes[name]["first_difference"] = first
        else:  # the probe raised (or is missing) in either tree
            probes[name] = {"a": _digest_of(a), "b": _digest_of(b), "equal": False}
    different = [name for name, p in probes.items() if not p["equal"]]
    return {
        "a": trees[0][1],
        "b": trees[1][1],
        "seeds": list(SEEDS),
        "probes": probes,
        "different": different,
        "all_equal": not different,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE",
                        help="two git revisions or source checkout directories")
    parser.add_argument("--probe-tree", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_tree:
        probes = run_probes(Path(args.probe_tree))
        print(json.dumps({"openblas_core": openblas_core(), "probes": probes}))
        return 0
    if len(args.trees) != 2:
        parser.print_usage(sys.stderr)
        print("identity.py: give exactly two trees", file=sys.stderr)
        return 2
    try:
        result = compare(args.trees[0], args.trees[1])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"identity.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, indent=2))
    return 0 if result["all_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())

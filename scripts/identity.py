#!/usr/bin/env python3
"""Compare, probe by probe, the exact bytes two versions of evdepth produce.

    python3 scripts/identity.py <tree-a> <tree-b>

A tree is a git revision of this repository (exported with ``git archive``
into a temporary directory) or a directory holding a source checkout. Each
tree runs the same probes, defined in this file, in its own subprocess that
imports evdepth from that tree's ``src/`` with BLAS threads pinned to 1. A
probe hashes the float64 (and integer) bytes of what it computes, over every
seed, so a last-bit change anywhere shows: the gated seed-0 digests of the
benchmark hash float32 and cannot see one.

Prints one JSON object: per probe the two hashes and whether they are equal,
and for a probe that differs the first seed and item index (the position in
the list the probe returns) whose bytes differ. Exits 0 when every probe is
equal, 1 when any differs, 2 on a bad argument or a tree that cannot be
exported or run. GEMM and SIMD reductions may sum differently on another CPU
or BLAS build, so compare two trees on one machine; the hashes themselves are
not portable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EVDEPTH_THREADS")
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
                    report.affine.shift, np.array(report.empty_scales, dtype=np.int64), grad]
    return out


def probe_loss_deep_pyramid(seed):
    """Mixed-magnitude residuals through pyramids that reach coarse width 2
    (640x480, 10 scales) and width 1 (a narrow odd crop, 4 and 9 scales), so
    the order of each block sum's four adds shows in the bits: aligned
    residuals spanning twelve decades, and, under the identity map, residuals
    drawn from {+-1e16, +-1, 3, 1e-3} (1e16 + 1 rounds back to 1e16)."""
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
        for crop, k_scales in ((SUPERVISE_SHAPE, 10), (NARROW_CROP, 4), (NARROW_CROP, 9)):
            h, w = crop
            report, grad = loss_total(p[:h, :w], t[:h, :w], mask[:h, :w], 0.25, k_scales,
                                      affine=affine)
            out += [report.l_si, report.l_reg, report.affine.scale, report.affine.shift,
                    np.array(report.empty_scales, dtype=np.int64), grad]
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
    from evdepth.metrics import evaluate

    pred, _, gt, _, gt_mask = _supervision_inputs(seed)
    out = []
    for align, clamp in ((True, (1e-3, math.inf)), (False, (1e-3, math.inf)),
                         (True, (-math.inf, math.inf))):
        pool = evaluate(pred, gt, gt_mask, align=align, clamp=clamp).pool
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
    s = _stream(seed)
    return [s.xs, s.ys, s.ps, s.ts]


def probe_evb_roundtrip(seed):
    from evdepth.events import read_events, write_events

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.evb"
        write_events(_stream(seed), path)
        s = read_events(path)
    return [s.xs, s.ys, s.ps, s.ts]


def probe_encode(seed):
    from evdepth.events import slice_sbn, slice_sbt
    from evdepth.stacks import StackLayout, encode

    stream = _stream(seed)
    out = []
    for k in range(1, PREP_FRAMES):
        t_d = k * FRAME_STEP_US
        for sl in (slice_sbt(stream, t_d, FRAME_STEP_US), slice_sbn(stream, t_d, 50_000)):
            for layout in StackLayout:
                out.append(encode(sl, layout, bins=5).values)
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


# Upstream first: a change to a kernel moves its probe and those after it
# that use it (training_step runs loss_total; loss_total and evaluate run
# lstsq_align; encode reads simulate's events).
PROBES = {
    "simulator.simulate": probe_simulate,
    "events.evb_roundtrip": probe_evb_roundtrip,
    "stacks.encode": probe_encode,
    "fusion.conv2d_same": probe_conv2d_same,
    "fusion.convlstm_step": probe_convlstm_step,
    "fusion.run_sequence": probe_run_sequence,
    "losses.lstsq_align": probe_lstsq_align,
    "losses.loss_total": probe_loss_total,
    "losses.loss_deep_pyramid": probe_loss_deep_pyramid,
    "pipeline.training_step": probe_training_step,
    "metrics.evaluate": probe_evaluate,
}


def run_probes(tree: Path) -> dict[str, dict | str]:
    """Per probe: the digest over every seed's items, and one digest per item
    of each seed (so a difference can be traced to a seed and an item); or
    the error the probe raised."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import evdepth

    if Path(evdepth.__file__).resolve().parent != src / "evdepth":
        raise ImportError(f"imported evdepth from {evdepth.__file__}, not from {src}")
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


def _git(*args) -> str:
    proc = subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def _export(spec: str, workdir: Path) -> tuple[Path, dict]:
    """The source tree for ``spec``: a checkout directory as it is, or a
    revision exported with ``git archive``."""
    path = Path(spec)
    if path.is_dir():
        if not (path / "src" / "evdepth" / "__init__.py").is_file():
            raise RuntimeError(f"{spec}: no evdepth sources under {path / 'src'}")
        return path.resolve(), {"tree": spec, "directory": str(path.resolve())}
    commit = _git("rev-parse", "--verify", f"{spec}^{{commit}}")
    tree = workdir / commit
    if not tree.is_dir():
        archive = workdir / f"{commit}.tar"
        _git("archive", "--format=tar", "-o", str(archive), commit)
        with tarfile.open(archive) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tree, filter="data")
            else:
                tar.extractall(tree)
    return tree, {"tree": spec, "commit": commit}


def _probe_tree(tree: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-tree", str(tree)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probes failed on {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(spec_a: str, spec_b: str) -> dict:
    with tempfile.TemporaryDirectory(prefix="evdepth-identity-") as tmp:
        trees = [_export(spec, Path(tmp)) for spec in (spec_a, spec_b)]
        hashes = [_probe_tree(tree) for tree, _ in trees]
    probes = {}
    for name in PROBES:
        a, b = hashes[0].get(name), hashes[1].get(name)
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
        print(json.dumps(run_probes(Path(args.probe_tree))))
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

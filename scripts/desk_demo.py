#!/usr/bin/env python3
"""End-to-end desk-scale walkthrough of the toolkit.

Synthesizes a moving-square scene with an analytic depth map per frame (the
stand-in teacher), then drives the whole chain through the CLI and library:

  frames -> simulate -> dataset build -> dataset export -> fusion run

and finishes with two library-level demonstrations: a few gradient-descent
steps on one sample (the analytic loss gradient actually descends) and the
evaluation protocol comparing noisy predictions against the proxy labels.

Usage: python scripts/desk_demo.py [--workdir DIR] [--seed N]
"""

import argparse
import shutil
import sys
from pathlib import Path

import numpy as np

from evdepth.cli import main as evdepth_main
from evdepth.config import LOSS_DEFAULTS
from evdepth.imgio import load_depth, save_depth_pfm, write_pgm
from evdepth.metrics import aggregate, evaluate
from evdepth.pipeline import load_manifest, training_step

WIDTH, HEIGHT = 64, 64
N_FRAMES = 12
FRAME_STEP_US = 50_000
SQUARE_SIZE = 18
BACKGROUND_DEPTH = 10.0
SQUARE_DEPTH = 3.0


def synthesize_scene(workdir: Path, rng) -> tuple[Path, Path]:
    frames_dir = workdir / "frames"
    proxy_dir = workdir / "proxy"
    frames_dir.mkdir(parents=True)
    proxy_dir.mkdir(parents=True)
    for k in range(N_FRAMES):
        t_us = (k + 1) * FRAME_STEP_US
        x0 = int(round(k * (WIDTH - SQUARE_SIZE) / (N_FRAMES - 1)))
        y0 = (HEIGHT - SQUARE_SIZE) // 2
        image = np.full((HEIGHT, WIDTH), 60, dtype=np.uint8)
        image[y0 : y0 + SQUARE_SIZE, x0 : x0 + SQUARE_SIZE] = 200
        depth = np.full((HEIGHT, WIDTH), BACKGROUND_DEPTH)
        depth[y0 : y0 + SQUARE_SIZE, x0 : x0 + SQUARE_SIZE] = SQUARE_DEPTH
        stem = f"{t_us:09d}"
        write_pgm(frames_dir / f"{stem}.pgm", image)
        save_depth_pfm(proxy_dir / f"{stem}.pfm", depth)
    return frames_dir, proxy_dir


def run_cli(args: list[str]) -> None:
    print(f"$ evdepth {' '.join(args)}")
    code = evdepth_main(args)
    if code != 0:
        sys.exit(f"evdepth {args[0]} failed with exit code {code}")


def gradient_descent_demo(manifest_path: Path, rng) -> None:
    manifest = load_manifest(manifest_path)
    record = next(r for r in manifest.records if not r.empty_slice)
    proxy = load_depth(record.proxy_path)
    noise = rng.standard_normal(proxy.shape)
    pred = proxy + 0.8 * noise
    print(f"\ngradient descent on one sample (loss = l_si + {LOSS_DEFAULTS.lam} * l_reg):")
    step_size = 0.25 * proxy.size  # l_si gradients carry a 1/|M| factor
    for it in range(8):
        step = training_step(record, pred, mode="proxy")
        print(f"  iter {it}: total {step.total:.6f} "
              f"(l_si {step.proxy_report.l_si:.6f}, l_reg {step.proxy_report.l_reg:.6f})")
        # diminishing steps: the |.| terms make this subgradient descent
        pred = pred - step_size / (1 + it) * step.grad
    final = training_step(record, pred, mode="proxy")
    print(f"  final  : total {final.total:.6f}")


def evaluation_demo(workdir: Path, proxy_dir: Path, rng) -> None:
    pred_dir = workdir / "noisy_pred"
    pred_dir.mkdir()
    for proxy_path in sorted(proxy_dir.glob("*.pfm")):
        depth = load_depth(proxy_path)
        noisy = depth * rng.uniform(0.95, 1.05, depth.shape) + 0.05
        save_depth_pfm(pred_dir / proxy_path.name, noisy)
    print("\nevaluation protocol (noisy predictions vs proxy labels):")
    reports = []
    for proxy_path in sorted(proxy_dir.glob("*.pfm")):
        pred = load_depth(pred_dir / proxy_path.name)
        gt = load_depth(proxy_path)
        reports.append(evaluate(pred, gt, align=True))
    agg = aggregate(reports, weights="per-pixel")
    print(f"  abs_rel {agg.abs_rel:.4f}  rmse {agg.rmse:.4f}  si_log {agg.si_log:.4f}  "
          f"d1 {agg.delta1:.4f}  (n={agg.n_valid} pixels, aligned={agg.aligned})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--contrast", type=float, default=0.15)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    rng = np.random.default_rng(args.seed)

    print(f"synthesizing {N_FRAMES} frames of a moving square into {workdir}/")
    frames_dir, proxy_dir = synthesize_scene(workdir, rng)

    events = workdir / "events.evb"
    run_cli(["simulate", "--frames", str(frames_dir), "--contrast", str(args.contrast),
             "--out", str(events)])

    manifest = workdir / "manifest.json"
    run_cli(["dataset", "build", "--events", str(events), "--frames", str(frames_dir),
             "--proxy", str(proxy_dir), "--teacher", "analytic-scene",
             "--out", str(manifest)])

    stacks = workdir / "stacks"
    run_cli(["dataset", "export", "--manifest", str(manifest), "--out", str(stacks)])

    depths = workdir / "fusion_depth"
    run_cli(["fusion", "run", "--stacks", str(stacks), "--out", str(depths),
             "--seed", str(args.seed)])

    run_cli(["bench", "--events", str(events), "--repetitions", "1"])

    gradient_descent_demo(manifest, rng)
    evaluation_demo(workdir, proxy_dir, rng)
    print(f"\nartifacts left under {workdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

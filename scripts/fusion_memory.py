#!/usr/bin/env python3
"""Peak memory of ``evdepth fusion run``, by sequence length.

    python3 scripts/fusion_memory.py --stacks 8 64 [--max-growth-mb 16]
                                     [--src DIR] [--workdir DIR]

For each stack count N, one child process writes N tencode stacks of
352x256 (the DAVIS346 sensor padded to the stride-16 grid) as colour PFM
files. A fresh child then imports evdepth from ``--src`` (default: this
checkout's ``src/``), runs ``evdepth fusion run`` over them through
``evdepth.cli.main`` and reports its own ``ru_maxrss``. A run that holds one
stack at a time peaks at about the same RSS for every N; one that reads
every stack before the first step grows by a float64 stack (2.1 MiB) per
stack.

Prints one JSON object: per N the run time and the peak RSS (MiB), and the
growth of the peak from the first N to the last. Exits 1 when
``--max-growth-mb`` is given and the growth exceeds it, 0 otherwise. The
stacks are written under ``--workdir`` (default: a temporary directory) and
removed afterwards; 384 stacks take 415 MB.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WIDTH, HEIGHT = 352, 256
OCCUPANCY = 0.25
FRAME_STEP_US = 50_000
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EVDEPTH_THREADS")


def generate(n: int, root: Path) -> None:
    """Write ``n`` tencode stacks to ``root/stacks``: R/B exclusive polarity
    flags on a quarter of the pixels, G their recency."""
    import numpy as np

    rng = np.random.default_rng(n)
    shape = (HEIGHT, WIDTH)
    (root / "stacks").mkdir()
    for k in range(n):
        lit = rng.random(shape) < OCCUPANCY
        positive = rng.random(shape) < 0.5
        values = np.zeros(shape + (3,), dtype="<f4")
        values[:, :, 0] = lit & positive
        values[:, :, 1] = np.where(lit, rng.random(shape), 0.0)
        values[:, :, 2] = lit & ~positive
        with open(root / "stacks" / f"{(k + 1) * FRAME_STEP_US:012d}.pfm", "wb") as fh:
            fh.write(f"PF\n{WIDTH} {HEIGHT}\n-1.0\n".encode("ascii"))
            fh.write(np.flipud(values).tobytes())  # PFM rows run bottom-to-top


def measure(root: Path) -> dict:
    """Run ``fusion run`` over ``root/stacks``; its time and this process's peak RSS."""
    import contextlib
    import io
    import resource
    import time

    from evdepth.cli import main

    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["fusion", "run", "--stacks", str(root / "stacks"),
                     "--out", str(root / "depth")])
    if code != 0:
        raise RuntimeError(f"fusion run exited {code}")
    return {
        "run_s": round(time.perf_counter() - t0, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def _child(args: list[str], src: Path | None = None) -> str:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    if src is not None:
        env["PYTHONPATH"] = str(src)
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} failed:\n{proc.stderr}")
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stacks", type=int, nargs="+", default=[8, 64])
    parser.add_argument("--max-growth-mb", type=float, default=None)
    parser.add_argument("--src", type=Path, default=REPO / "src")
    parser.add_argument("--workdir", type=Path, default=None)
    parser.add_argument("--generate", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--root", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.generate is not None:
        generate(args.generate, args.root)
        return 0
    if args.measure:
        print(json.dumps(measure(args.root)))
        return 0
    if min(args.stacks) < 1:
        parser.error("each --stacks count must be at least 1")

    runs = []
    for n in args.stacks:
        with tempfile.TemporaryDirectory(prefix="evdepth-fusion-memory-", dir=args.workdir) as tmp:
            root = Path(tmp)
            _child(["--generate", str(n), "--root", str(root)])
            run = {"stacks": n}
            run.update(json.loads(_child(["--measure", "--root", str(root)],
                                         args.src.resolve()).splitlines()[-1]))
        runs.append(run)
    growth = runs[-1]["peak_rss_mb"] - runs[0]["peak_rss_mb"]
    ok = args.max_growth_mb is None or growth <= args.max_growth_mb
    print(json.dumps({"src": str(args.src.resolve()), "runs": runs,
                      "growth_mb": round(growth, 1), "max_growth_mb": args.max_growth_mb,
                      "ok": ok}, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

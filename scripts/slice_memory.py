#!/usr/bin/env python3
"""Peak memory of building a manifest and exporting its stacks, by recording length.

    python3 scripts/slice_memory.py --events 1000000 4000000 [--max-growth-mb 16]
                                    [--src DIR] [--workdir DIR]

For each event count N, one child process writes an N-event EVB recording
on a 346x260 sensor (two events per microsecond, so the recording lasts
N / 2 us) in 1M-record chunks, next to 20 frame and proxy files spread over
its length. A fresh child then imports evdepth from ``--src`` (default: this
checkout's ``src/``), runs ``build_manifest`` + ``export_stacks`` for a
tencode SBT manifest (50 ms windows) and a voxel SBN manifest (50,000
events, 5 bins), and reports its own ``ru_maxrss``. Every slice holds the
same number of events whatever N is, so a reader whose memory follows the
slice, not the file, peaks at about the same RSS for every N.

Prints one JSON object: per N the file size, the two phase times and the
peak RSS (MiB), and the growth of the peak from the first N to the last.
Exits 1 when ``--max-growth-mb`` is given and the growth exceeds it, 0
otherwise. The recordings are written under ``--workdir`` (default: a
temporary directory) and removed afterwards; 40M events take 520 MB.
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
WIDTH, HEIGHT = 346, 260
EVENTS_PER_US = 2
N_FRAMES = 20
WINDOW_US = 50_000
SBN_COUNT = 50_000
VOXEL_BINS = 5
CHUNK = 1 << 20
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EVDEPTH_THREADS")


def generate(n: int, root: Path) -> None:
    """Write ``root/events.evb`` (EVB: header, then 13-byte records) and the
    frame and proxy files, a chunk of records at a time."""
    import struct

    import numpy as np

    record = np.dtype([("x", "<u2"), ("y", "<u2"), ("p", "i1"), ("t", "<u8")])
    rng = np.random.default_rng(n)
    with open(root / "events.evb", "wb") as fh:
        fh.write(struct.pack("<4sHHQ", b"EVB1", WIDTH, HEIGHT, n))
        for lo in range(0, n, CHUNK):
            rec = np.empty(min(CHUNK, n - lo), dtype=record)
            rec["x"] = rng.integers(0, WIDTH, len(rec))
            rec["y"] = rng.integers(0, HEIGHT, len(rec))
            rec["p"] = rng.choice(np.array([-1, 1], dtype=np.int8), len(rec))
            rec["t"] = np.arange(lo, lo + len(rec)) // EVENTS_PER_US
            fh.write(rec.tobytes())
    last_us = (n - 1) // EVENTS_PER_US
    for name, suffix in (("frames", "pgm"), ("proxy", "pfm")):
        (root / name).mkdir()
        for k in range(1, N_FRAMES + 1):  # build_manifest lists these, it does not read them
            (root / name / f"{k * last_us // N_FRAMES:012d}.{suffix}").touch()


def measure(root: Path) -> dict:
    """Build and export both manifests; the phase times and this process's peak RSS."""
    import resource
    import time

    from evdepth.pipeline import build_manifest, export_stacks

    args = (root / "events.evb", root / "frames", root / "proxy")
    kinds = (
        ("tencode", {"layout": "tencode", "mode": "sbt", "window_us": WINDOW_US}),
        ("voxel", {"layout": "voxel", "mode": "sbn", "count": SBN_COUNT, "bins": VOXEL_BINS}),
    )
    manifest_s = export_s = 0.0
    for name, kwargs in kinds:
        t0 = time.perf_counter()
        manifest = build_manifest(*args, **kwargs)
        t1 = time.perf_counter()
        export_stacks(manifest, root / name)
        manifest_s += t1 - t0
        export_s += time.perf_counter() - t1
    return {
        "build_manifest_s": round(manifest_s, 3),
        "export_stacks_s": round(export_s, 3),
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
    parser.add_argument("--events", type=int, nargs="+", default=[1_000_000, 4_000_000])
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
    if min(args.events) < SBN_COUNT:
        parser.error(f"each --events count must be at least {SBN_COUNT}")

    runs = []
    for n in args.events:
        with tempfile.TemporaryDirectory(prefix="evdepth-slice-memory-", dir=args.workdir) as tmp:
            root = Path(tmp)
            _child(["--generate", str(n), "--root", str(root)])
            run = {"events": n, "file_mb": round((root / "events.evb").stat().st_size / 2**20, 1)}
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

#!/usr/bin/env python3
"""Peak memory of an evdepth task, by input size.

    python3 scripts/memory_growth.py slice 1000000 4000000 [--max-growth-mb 16]
    python3 scripts/memory_growth.py fusion 8 64 [--max-growth-mb 16] [--src DIR] [--workdir DIR]

For each size N, the script writes the case's input of size N under
``--workdir`` (default: a temporary directory; each input is removed once
measured). A fresh child then imports evdepth from ``--src`` (default: this
checkout's ``src/``, and no other), runs the case's measured phase on one
thread and reports its own peak RSS: flat in N when the task's memory
follows a slice or a stack, not the whole input.

- ``slice``, N events (at least 50,000): ``build_manifest`` and
  ``export_stacks`` over an N-event EVB recording; 40M events take 520 MB.
- ``fusion``, N stacks (at least 1): ``evdepth fusion run`` over N tencode
  stacks of 352x256; reading every stack before the first step grows by
  2.1 MiB per stack. 384 stacks take 415 MB.

Prints one JSON object: per N the input size, the phase times and the peak
RSS (MiB), and the growth of the peak from the first N to the last. Exits 1
when a child fails or the growth exceeds ``--max-growth-mb``, 0 otherwise.
"""

import argparse
import json
import re
import struct
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from trees import REPO, import_evdepth, run_child, run_evdepth

EVENTS_PER_US = 2
N_FRAMES = 20
SBN_COUNT = 50_000
EVB_CHUNK = 1 << 20


def generate_slice(n: int, root: Path) -> None:
    """Write ``root/events.evb`` (EVB: header, then 13-byte records) on a
    346x260 sensor, a chunk of records at a time, and 20 frames (grey 8-bit
    PGM) and proxies (1 m everywhere, grey PFM) of that size spread over its
    length."""
    width, height = 346, 260
    record = np.dtype([("x", "<u2"), ("y", "<u2"), ("p", "i1"), ("t", "<u8")])
    rng = np.random.default_rng(n)
    with open(root / "events.evb", "wb") as fh:
        fh.write(struct.pack("<4sHHQ", b"EVB1", width, height, n))
        for lo in range(0, n, EVB_CHUNK):
            rec = np.empty(min(EVB_CHUNK, n - lo), dtype=record)
            rec["x"] = rng.integers(0, width, len(rec))
            rec["y"] = rng.integers(0, height, len(rec))
            rec["p"] = rng.choice(np.array([-1, 1], dtype=np.int8), len(rec))
            rec["t"] = np.arange(lo, lo + len(rec)) // EVENTS_PER_US
            fh.write(rec.tobytes())
    last_us = (n - 1) // EVENTS_PER_US
    rasters = {  # build_manifest reads their headers only
        "pgm": f"P5\n{width} {height}\n255\n".encode("ascii") + bytes(width * height),
        "pfm": (f"Pf\n{width} {height}\n-1.0\n".encode("ascii")
                + np.ones(width * height, dtype="<f4").tobytes()),
    }
    for name, suffix in (("frames", "pgm"), ("proxy", "pfm")):
        (root / name).mkdir()
        for k in range(1, N_FRAMES + 1):
            (root / name / f"{k * last_us // N_FRAMES:012d}.{suffix}").write_bytes(rasters[suffix])


def measure_slice(root: Path) -> dict:
    """Build and export a tencode SBT manifest (50 ms windows) and a voxel
    SBN one (50,000 events, 5 bins); the time of each phase."""
    from evdepth.pipeline import build_manifest, export_stacks

    args = (root / "events.evb", root / "frames", root / "proxy")
    manifest_s = export_s = 0.0
    for name, kwargs in (
        ("tencode", {"layout": "tencode", "mode": "sbt", "window_us": 50_000}),
        ("voxel", {"layout": "voxel", "mode": "sbn", "count": SBN_COUNT, "bins": 5}),
    ):
        t0 = time.perf_counter()
        manifest = build_manifest(*args, **kwargs)
        t1 = time.perf_counter()
        export_stacks(manifest, root / name)
        manifest_s += t1 - t0
        export_s += time.perf_counter() - t1
    return {"build_manifest_s": round(manifest_s, 3), "export_stacks_s": round(export_s, 3)}


def generate_fusion(n: int, root: Path) -> None:
    """Write ``n`` tencode stacks of 352x256 (the DAVIS346 sensor padded to
    the stride-16 grid) to ``root/stacks`` as colour PFM files: R/B
    exclusive polarity flags on a quarter of the pixels, G their recency."""
    shape = (256, 352)
    rng = np.random.default_rng(n)
    (root / "stacks").mkdir()
    for k in range(n):
        lit = rng.random(shape) < 0.25
        positive = rng.random(shape) < 0.5
        values = np.zeros(shape + (3,), dtype="<f4")
        values[:, :, 0] = lit & positive
        values[:, :, 1] = np.where(lit, rng.random(shape), 0.0)
        values[:, :, 2] = lit & ~positive
        with open(root / "stacks" / f"{(k + 1) * 50_000:012d}.pfm", "wb") as fh:
            fh.write(f"PF\n{shape[1]} {shape[0]}\n-1.0\n".encode("ascii"))
            fh.write(np.flipud(values).tobytes())  # PFM rows run bottom-to-top


def measure_fusion(root: Path) -> dict:
    """Run ``fusion run`` over ``root/stacks``; its time."""
    t0 = time.perf_counter()
    run_evdepth("fusion", "run", "--stacks", str(root / "stacks"), "--out", str(root / "depth"))
    return {"run_s": round(time.perf_counter() - t0, 3)}


class Case(NamedTuple):
    generate: Callable[[int, Path], None]
    measure: Callable[[Path], dict]
    unit: str  # what a size counts
    minimum: int  # the smallest size the measured phase can run on


CASES = {
    "slice": Case(generate_slice, measure_slice, "events", SBN_COUNT),
    "fusion": Case(generate_fusion, measure_fusion, "stacks", 1),
}


def child_main(case: str, root: str, src: str) -> None:
    """In the measuring child: ``case`` run on ``root`` with evdepth from ``src``."""
    import_evdepth(src)
    report = CASES[case].measure(Path(root))
    # VmHWM, not ru_maxrss: Linux starts a child's ru_maxrss at its parent's peak RSS,
    # and the parent has written the input
    hwm_kib = re.search(r"VmHWM:\s*(\d+) kB", Path("/proc/self/status").read_text())[1]
    report["peak_rss_mb"] = round(int(hwm_kib) / 1024, 1)
    print(json.dumps(report))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("case", choices=CASES)
    parser.add_argument("sizes", type=int, nargs="+", help="input sizes, in the case's unit")
    parser.add_argument("--max-growth-mb", type=float, default=None)
    parser.add_argument("--src", type=Path, default=REPO / "src")
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args(argv)
    case = CASES[args.case]
    if min(args.sizes) < case.minimum:
        parser.error(f"{args.case} sizes count {case.unit}; each must be at least {case.minimum}")
    src = args.src.resolve()

    runs = []
    for n in args.sizes:
        with tempfile.TemporaryDirectory(prefix=f"evdepth-{args.case}-memory-",
                                         dir=args.workdir) as tmp:
            case.generate(n, Path(tmp))
            size = sum(p.stat().st_size for p in Path(tmp).rglob("*") if p.is_file())
            run = {case.unit: n, "input_mb": round(size / 2**20, 1)}
            try:
                run.update(run_child(__file__, "--child", args.case, tmp, str(src)))
            except RuntimeError as exc:
                sys.exit(exc)
        runs.append(run)
    growth = runs[-1]["peak_rss_mb"] - runs[0]["peak_rss_mb"]
    ok = args.max_growth_mb is None or growth <= args.max_growth_mb
    print(json.dumps({"case": args.case, "src": str(src), "runs": runs,
                      "growth_mb": round(growth, 1), "max_growth_mb": args.max_growth_mb,
                      "ok": ok}, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child_main(*sys.argv[2:])
    else:
        sys.exit(main())

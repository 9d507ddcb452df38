#!/usr/bin/env python3
"""evdepth benchmark: one workload, one seed, one line of results.

Run from the root of a source checkout (the package is imported from
``src/``, nothing is installed):

    python3 evbench/run.py --workload prep-davis346 --seed 0 --seconds 20 --trace 0

Workloads (see ``evbench/spec.json`` for why each was chosen, the measured
input sizes, the layer -> metric -> workload map and known gaps):

    prep-davis346      simulate -> EVB -> manifest + export, tencode and voxel
    fusion-davis346    read_pfm -> run_sequence (toy extractor) -> save_depth_pfm
    supervise-dsec640  training_step(combined) + evaluate, then aggregate + reports

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates untraced
and traced passes, prints the per-layer metrics (self times and counts) and
the tracing overhead, and writes the spans to ``.bench_out/``. Outputs are
checked on every pass; at seed 0 they must also match the digests in
``spec.json``. The last stdout line is the JSON result.

The launcher pins BLAS, OpenMP and evdepth thread counts before numpy is
imported: items run one after another on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EVDEPTH_THREADS")
THREADS = 1
SETUP_REPEATS = 7
MIN_PASSES = 2
MAX_RAISED_PASSES = 3  # so a program that raises at once cannot spin out the budget
TAIL_BEYOND = 10
SETUP_TIMEOUT_S = 30


def _parse(argv):
    parser = argparse.ArgumentParser(description="evdepth benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one fresh-process set-up, timed by the parent run; not for direct use
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def _import_program():
    src = ROOT / "src"
    if not (src / "evdepth" / "__init__.py").is_file():
        raise ImportError(f"no evdepth sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import evdepth

    if Path(evdepth.__file__).resolve().parent != src / "evdepth":
        raise ImportError(f"imported evdepth from {evdepth.__file__}, not from {src}")


def _setup(workload_cls, seed: int, workdir: Path, tracer):
    workdir.mkdir(parents=True)
    wl = workload_cls(seed, workdir, tracer)
    wl.setup()
    try:
        wl.warm_up()
    except Exception:  # the timed passes will raise too and count as failed
        traceback.print_exc(file=sys.stderr)
    return wl


def _setup_seconds(args) -> list[float]:
    """Wall time from spawning a fresh interpreter to the end of its warm-up
    item, once per repeat: imports and cold first calls are paid each time."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready_unix"]
        samples.append(ready - t0)
    return samples


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least TAIL_BEYOND samples above
    it (never below the median), that percentile, and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = max(n - 1 - TAIL_BEYOND, (n - 1) // 2)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def _measure(wl, args, tracer, spec):
    from workloads import PassResult

    passes, traced = [], []
    timed = 0.0
    raised = 0
    while (len(passes) < MIN_PASSES or timed < args.seconds) and raised < MAX_RAISED_PASSES:
        index = len(passes)
        on = bool(args.trace) and index % 2 == 1
        t0 = time.perf_counter()
        try:
            if on:
                with tracer.active(index):
                    result = wl.run_pass(index)
            else:
                result = wl.run_pass(index)
        except Exception:  # a failing pass counts its items as failed, then the run goes on
            traceback.print_exc(file=sys.stderr)
            result = PassResult(wl.items_per_pass, wl.items_per_pass,
                                time.perf_counter() - t0, [], {}, raised=True)
            raised += 1
        passes.append((result, on))
        timed += result.seconds
        if on and not result.raised:
            traced.append(index)

    completed = [r for r, _ in passes if not r.raised]
    reference = completed[0].digests if completed else {}
    expected = spec["digests"][wl.name] if args.seed == spec["digest_seed"] else reference
    for result, _ in passes:
        if result.digests != reference or reference != expected:
            result.failed = result.items
    return passes, traced, reference


def _throughput(results) -> float:
    seconds = sum(r.seconds for r in results)
    return sum(r.items for r in results) / seconds if seconds else 0.0


def _environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_threads()
    try:
        _import_program()
    except ImportError as exc:
        print(f"evbench: {exc}", file=sys.stderr)
        return 2
    # imported only now: they import numpy and evdepth
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"evbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 1
    spec = json.loads((BENCH_DIR / "spec.json").read_text(encoding="ascii"))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer()
    try:
        if args.setup_only:
            _setup(WORKLOADS[args.workload], args.seed, workdir, tracer)
            print(json.dumps({"ready_unix": time.time()}))
            return 0
        setup_samples = [] if args.trace else _setup_seconds(args)
        t0 = time.perf_counter()
        wl = _setup(WORKLOADS[args.workload], args.seed, workdir, tracer)
        setup_here_s = time.perf_counter() - t0
        passes, traced, digests = _measure(wl, args, tracer, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.items for r, _ in passes)
    failed = sum(r.failed for r, _ in passes)
    plain = [r for r, on in passes if not on]
    plain_ok = [r for r in plain if not r.raised]
    details = {
        "workload": args.workload,
        "sizes": wl.sizes(),
        "passes": len(passes),
        "traced_passes": len(traced),
        "setup_here_s": setup_here_s,
        "digests": digests,
        "environment": _environment(args),
    }
    if args.trace:
        metrics = tracing.layer_metrics(tracer, traced)
        metrics["fusion.cold_step_ms"] = (wl.cold_step_ms, "ms")
        # passes alternate untraced/traced; comparing each traced pass with the
        # untraced pass just before it cancels slow drifts in machine speed
        pairs = [(_throughput([a]), _throughput([b]))
                 for (a, _), (b, _) in zip(passes[0::2], passes[1::2])
                 if not (a.raised or b.raised)]
        if pairs:
            metrics["trace.items_per_s_untraced"] = (
                statistics.median(u for u, _ in pairs), "items/s")
            metrics["trace.items_per_s_traced"] = (
                statistics.median(t for _, t in pairs), "items/s")
            metrics["trace.overhead_pct"] = (
                100.0 * (statistics.median(u / t for u, t in pairs) - 1.0), "%")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_path)
        details["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        plain_attempted = sum(r.items for r in plain)
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ok_frac": ((plain_attempted - sum(r.failed for r in plain)) / plain_attempted,
                        "ok/attempted"),
        }
        details.update(setup_samples_s=setup_samples, latency_sample=wl.latency_sample)
        # timings only from passes that ran to the end; if none did, the
        # result line still reports attempted/failed and ok_frac
        latencies = [v for r in plain_ok for v in r.latencies_ms]
        if latencies:
            tail, tail_pct, n = _tail(latencies)
            metrics.update({
                "items_per_s": (_throughput(plain_ok), "items/s"),
                "item_ms_p50": (statistics.median(latencies), "ms"),
                "item_ms_tail": (tail, "ms"),
            })
            details.update(tail_percentile=tail_pct, latency_samples=n)

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    print(json.dumps({"report": details}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory span tracer for the benchmark's traced run.

A span is (name, start, end, parent, item, pass, self time). Spans come from
two places, both in the benchmark's own files:

- the benchmark's call sites into evdepth (``tracer.span(name)``);
- timing wrappers that replace module-level evdepth names for the length of
  one traced pass (``tracer.active(...)``) and are removed when it ends, so
  calls made inside the library (``export_stacks`` -> ``encode``,
  ``run_sequence`` -> ``convlstm_step``, ...) get spans too.

Nothing under ``src/`` knows about tracing. A span's self time is its
duration minus the time its child spans cover; spans nest on one thread, so
children never overlap. Health counters are computed from the arguments and
return values of wrapped calls; that work runs inside a ``trace.counters``
child span, so it does not inflate any layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

import evdepth.fusion
import evdepth.losses
import evdepth.metrics
import evdepth.pipeline
import evdepth.stacks
from evdepth.config import FUSION_DEFAULTS

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.item = None
        self.pass_index = None
        self.spans: list[tuple] = []
        self.counters: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self._open: list[list[int]] = []  # [span index, child ns] per open span

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._open[-1][0] if self._open else None
        frame = [len(self.spans), 0]
        self.spans.append(None)
        self._open.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            duration = end - start
            if self._open:
                self._open[-1][1] += duration
            self.spans[frame[0]] = (
                name, start, end, parent, self.item, self.pass_index, duration - frame[1]
            )

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[name].append((self.pass_index, float(value)))

    @contextlib.contextmanager
    def active(self, pass_index: int):
        """Trace one pass: wrap every trace point, restore them afterwards."""
        originals = []
        try:
            for module, attr, name, on_result in TRACE_POINTS:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, on_result))
            self.enabled = True
            self.pass_index = pass_index
            yield
        finally:
            self.enabled = False
            self.item = None
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def _wrap(self, fn, name, on_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name(args) if callable(name) else name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                with self._span("trace.counters"):
                    on_result(self, args, kwargs, out)
            return out

        return traced

    def self_ns(self, name: str, passes) -> list[int]:
        return [s[6] for s in self.spans if s[0] == name and s[5] in passes]

    def total_ns(self, name: str, passes) -> int:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and s[5] in passes)

    def counted(self, name: str, passes) -> list[tuple[int, float]]:
        return [(p, v) for p, v in self.counters.get(name, []) if p in passes]

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one span per record."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, item, pass_index, self_ns in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end, "parent": parent,
                    "item": item, "pass": pass_index, "self_ns": self_ns,
                }) + "\n")


# ---------------------------------------------------------------------------
# Trace points: module-level names that library code looks up at call time.

_SCALE_OF_CHANNELS = dict(zip(FUSION_DEFAULTS.channels, FUSION_DEFAULTS.scales))


def _file_bytes(tracer, args, kwargs, out):
    tracer.count("imgio.bytes_read", os.path.getsize(args[0]))


def _read_counters(tracer, args, kwargs, out):
    tracer.count("events.read_bytes", os.path.getsize(args[0]))


def _slice_counters(tracer, args, kwargs, out):
    tracer.count("events.per_slice", len(out))


def _encode_counters(tracer, args, kwargs, out):
    tracer.count("stacks.bytes_out", out.values.nbytes)
    if out.layout is evdepth.stacks.StackLayout.TENCODE:
        lit = (out.values[:, :, 0] != 0) | (out.values[:, :, 2] != 0)
        tracer.count("stacks.tencode_occupancy", lit.mean())


def _saved_bytes(tracer, args, kwargs, out):
    tracer.count("imgio.bytes_written", sum(os.path.getsize(p) for p in out))


def _masked_frac(tracer, args, kwargs, out):
    mask = args[2] if len(args) > 2 else kwargs.get("mask")
    tracer.count("losses.masked_frac", 0.0 if mask is None else 1.0 - np.mean(mask))


def _degenerate(tracer, args, kwargs, out):
    tracer.count("losses.degenerate", 1.0 if out.degenerate else 0.0)


def _saturation(tracer, args, kwargs, out):
    scale = _SCALE_OF_CHANNELS[args[0].shape[2]]
    tracer.count(f"fusion.h_saturation.s{scale}", np.mean(np.abs(out[0]) > 0.99))


def _encode_name(args):
    return f"stacks.{args[1].value}"


def _convlstm_name(args):
    return f"fusion.convlstm.s{_SCALE_OF_CHANNELS[args[0].shape[2]]}"


# (module, attribute, span name or namer(args), counter hook or None)
TRACE_POINTS = (
    (evdepth.pipeline, "read_events", "events.read", _read_counters),
    (evdepth.pipeline, "slice_sbt", "events.slice", _slice_counters),
    (evdepth.pipeline, "slice_sbn", "events.slice", _slice_counters),
    (evdepth.pipeline, "encode", _encode_name, _encode_counters),
    (evdepth.pipeline, "save_stack_pfm", "stacks.save_stack_pfm", _saved_bytes),
    (evdepth.stacks, "write_pfm", "imgio.write_pfm", None),
    (evdepth.pipeline, "load_depth", "imgio.load_depth", _file_bytes),
    (evdepth.pipeline, "load_mask_pgm", "imgio.load_mask", _file_bytes),
    (evdepth.pipeline, "loss_total", "losses.total", _masked_frac),
    (evdepth.losses, "lstsq_align", "losses.align", _degenerate),
    (evdepth.metrics, "lstsq_align", "losses.align", _degenerate),
    (evdepth.losses, "loss_si", "losses.si", None),
    (evdepth.losses, "loss_reg", "losses.reg", None),
    (evdepth.fusion, "convlstm_step", _convlstm_name, _saturation),
    (evdepth.fusion, "fuse", "fusion.fuse", None),
    (evdepth.fusion, "depth_head", "fusion.head", None),
)


# ---------------------------------------------------------------------------
# Per-layer metrics. Timings are the median self time of one call; "per pass"
# counts are summed within each traced pass, then the median over passes is
# taken. A layer a workload does not exercise reports 0.

_SELF = (
    ("events.write_s", "s", "events.write", 1e-9),
    ("events.read_s", "s", "events.read", 1e-9),
    ("events.slice_us", "us", "events.slice", 1e-3),
    ("simulator.simulate_s", "s", "simulator.simulate", 1e-9),
    ("stacks.tencode_ms", "ms", "stacks.tencode", 1e-6),
    ("stacks.voxel_ms", "ms", "stacks.voxel", 1e-6),
    ("imgio.write_pfm_ms", "ms", "imgio.write_pfm", 1e-6),
    ("imgio.read_pfm_ms", "ms", "imgio.read_pfm", 1e-6),
    ("imgio.save_depth_ms", "ms", "imgio.save_depth", 1e-6),
    ("imgio.load_depth_ms", "ms", "imgio.load_depth", 1e-6),
    ("imgio.load_mask_ms", "ms", "imgio.load_mask", 1e-6),
    ("pipeline.build_manifest_s", "s", "pipeline.build_manifest", 1e-9),
    ("pipeline.export_stacks_self_s", "s", "pipeline.export_stacks", 1e-9),
    ("pipeline.training_step_self_ms", "ms", "pipeline.training_step", 1e-6),
    ("fusion.extractor_ms", "ms", "fusion.extractor", 1e-6),
    ("fusion.convlstm_ms.s4", "ms", "fusion.convlstm.s4", 1e-6),
    ("fusion.convlstm_ms.s8", "ms", "fusion.convlstm.s8", 1e-6),
    ("fusion.convlstm_ms.s16", "ms", "fusion.convlstm.s16", 1e-6),
    ("fusion.fuse_ms", "ms", "fusion.fuse", 1e-6),
    ("fusion.head_ms", "ms", "fusion.head", 1e-6),
    ("losses.align_ms", "ms", "losses.align", 1e-6),
    ("losses.si_ms", "ms", "losses.si", 1e-6),
    ("losses.reg_ms", "ms", "losses.reg", 1e-6),
    ("metrics.evaluate_ms", "ms", "metrics.evaluate", 1e-6),
    ("metrics.aggregate_ms", "ms", "metrics.aggregate", 1e-6),
    ("metrics.write_reports_ms", "ms", "metrics.write_reports", 1e-6),
)

# (metric, unit, counter, reduction)
_COUNTS = (
    ("events.n_events", "count", "events.n_events", "per_pass"),
    ("events.per_slice_min", "count", "events.per_slice", "min"),
    ("events.per_slice_p50", "count", "events.per_slice", "median"),
    ("events.per_slice_max", "count", "events.per_slice", "max"),
    ("stacks.bytes_out", "B", "stacks.bytes_out", "per_pass"),
    ("stacks.tencode_occupancy", "frac", "stacks.tencode_occupancy", "mean"),
    ("imgio.bytes_written", "B", "imgio.bytes_written", "per_pass"),
    ("imgio.bytes_read", "B", "imgio.bytes_read", "per_pass"),
    ("losses.degenerate_count", "count", "losses.degenerate", "per_pass"),
    ("losses.masked_frac", "frac", "losses.masked_frac", "mean"),
    ("fusion.h_saturation.s4", "frac", "fusion.h_saturation.s4", "mean"),
    ("fusion.h_saturation.s8", "frac", "fusion.h_saturation.s8", "mean"),
    ("fusion.h_saturation.s16", "frac", "fusion.h_saturation.s16", "mean"),
)


def layer_metrics(tracer: Tracer, traced_passes: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over ``traced_passes`` (the traced passes that ran to
    the end; spans and counts of a pass that raised are left out)."""
    keep = set(traced_passes)
    out = {}
    for metric, unit, span, scale in _SELF:
        values = tracer.self_ns(span, keep)
        out[metric] = (statistics.median(values) * scale if values else 0.0, unit)
    for metric, unit, counter, reduction in _COUNTS:
        pairs = tracer.counted(counter, keep)
        values = [v for _, v in pairs]
        if not values:
            value = 0.0
        elif reduction == "per_pass":
            sums = dict.fromkeys(traced_passes, 0.0)
            for p, v in pairs:
                sums[p] += v
            value = statistics.median(sums.values())
        else:
            value = {"min": min, "max": max, "median": statistics.median,
                     "mean": statistics.fmean}[reduction](values)
        out[metric] = (value, unit)
    per_slice = [v for _, v in tracer.counted("events.per_slice", keep)]
    out["events.empty_slice_frac"] = (
        sum(v == 0 for v in per_slice) / len(per_slice) if per_slice else 0.0, "frac"
    )
    read_ns = tracer.total_ns("events.read", keep)
    read_bytes = sum(v for _, v in tracer.counted("events.read_bytes", keep))
    out["events.read_mb_per_s"] = (read_bytes / 1e6 / (read_ns * 1e-9) if read_ns else 0.0, "MB/s")
    sim_ns = tracer.total_ns("simulator.simulate", keep)
    sim_events = sum(v for _, v in tracer.counted("events.n_events", keep))
    out["simulator.events_per_s"] = (sim_events / (sim_ns * 1e-9) if sim_ns else 0.0, "ev/s")
    return out

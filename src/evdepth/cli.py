"""Command-line front end.

Subcommands: simulate, slice, encode, evaluate, align, dataset build,
dataset export, fusion run, bench. Human-readable summaries go to stdout;
``--json`` switches machine-readable output on. Exit codes are a stable
scripting contract: 0 success, 1 usage error, 2 data/contract error,
3 I/O error. EVDEPTH_THREADS caps internal parallelism.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .config import (BENCH_DEFAULTS, DEFAULT_CLAMP_MIN, FUSION_DEFAULTS, LOSS_DEFAULTS,
                     max_threads)
from .errors import (ContractError, DomainError, EvDepthError, FormatError, ParameterError,
                     _int_param, _real_param)
from .events import (SliceMode, SliceSpec, _infer_format, _ref_time, _slicing, read_events,
                     slice_events, write_events)
from .fusion import (_seed, _steps, load_model_params, make_model_params, save_model_params,
                     toy_extractor)
from .imgio import (DEPTH_SUFFIXES, _finite, _read_json, _write_json, depth_valid_mask, load_depth,
                    save_depth_pfm)
from .losses import lstsq_align
from .metrics import (_clamp_bounds, aggregate, evaluate, reports_payload, write_reports_csv,
                      write_reports_json)
from .naming import files_by_stem
from .pipeline import (MASK_SUFFIXES, EncoderSpec, _load_mask, _open_recording, _write_stack,
                       build_manifest, export_stacks, load_manifest, save_manifest)
from .simulator import SimConfig, frames_from_dir, simulate
from .stacks import StackLayout, _bin_count, _check_format, _read_stack, _stack_files, encode

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3

_LAYOUTS = tuple(layout.value for layout in StackLayout)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """A flag combination the parser cannot reject on its own; exit code 1."""


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> tuple[dict, str]:
    config = SimConfig(args.contrast)
    _infer_format(Path(args.out), args.format)
    frames = frames_from_dir(args.frames)
    stream = simulate(frames, config)
    write_events(stream, args.out, fmt=args.format)
    n_pos = int((stream.ps > 0).sum())
    payload = {"frames": len(frames), "n_events": len(stream), "n_positive": n_pos,
               "n_negative": len(stream) - n_pos, "out": str(args.out)}
    return payload, (f"simulated {len(stream)} events ({n_pos} positive, "
                     f"{len(stream) - n_pos} negative) from {len(frames)} frames -> {args.out}")


# ---------------------------------------------------------------------------
# slice / encode


def _slice_spec(args) -> SliceSpec:
    """The slice spec of --dt-us/--count in --mode, or in the mode the given flag
    implies where the subcommand has no --mode; the SBT window has a default."""
    if args.dt_us is not None and args.count is not None:
        raise _UsageError("--dt-us and --count are mutually exclusive")
    mode = getattr(args, "mode", None) or ("sbt" if args.count is None else "sbn")
    if mode == "sbn" and args.count is None:
        raise _UsageError("--mode sbn needs --count")
    if mode == "sbt" and args.count is not None:
        raise _UsageError("--count needs --mode sbn")
    return _slicing(mode, args.dt_us, args.count)


def _voxel_bins(bins, layouts) -> int | None:
    """--bins, or its default, if a layout is voxel; given with none, it would be ignored."""
    if StackLayout.VOXEL.value in layouts:
        return _bin_count(bins)
    if bins is not None:
        raise _UsageError("--bins needs --layout voxel")
    return None


def cmd_slice(args) -> tuple[dict, str]:
    if args.dt_us is None and args.count is None:
        raise _UsageError("slice needs --dt-us (SBT) or --count (SBN)")
    spec = _slice_spec(args)
    t_d = _ref_time(args.td_us)
    _infer_format(Path(args.out), args.format)
    with _open_recording(args.events) as events:
        sl = slice_events(events, t_d, spec)
    write_events(sl, args.out, fmt=args.format)
    payload = {"n_events": len(sl), "t_start_us": sl.t_start_us, "t_end_us": sl.t_end_us,
               "out": str(args.out)}
    return payload, f"{len(sl)} events in [{sl.t_start_us}, {sl.t_end_us}] us -> {args.out}"


def cmd_encode(args) -> tuple[dict, str]:
    encoder = EncoderSpec(args.layout, _slice_spec(args), _voxel_bins(args.bins, (args.layout,)))
    t_d = _ref_time(args.td_us)
    out = Path(args.out)
    fmt = out.suffix.lower()[1:]
    if fmt not in ("pfm", "ppm"):
        raise _UsageError(f"output must end in .pfm or .ppm, got {out.name!r}")
    _check_format(encoder.layout, fmt)
    with _open_recording(args.events) as events:
        sl = slice_events(events, t_d, encoder.slicing)
    if len(sl) == 0:
        print(f"warning: empty slice at t_d={t_d} us, writing all-zero stack", file=sys.stderr)
    stack = encode(sl, encoder.layout, bins=encoder.bins)
    files = [str(p) for p in _write_stack(stack, out, fmt)]
    payload = {"layout": args.layout, "n_events": len(sl), "t_start_us": sl.t_start_us,
               "t_end_us": sl.t_end_us, "files": files}
    return payload, f"encoded {len(sl)} events as {args.layout} -> {', '.join(files)}"


# ---------------------------------------------------------------------------
# align / evaluate


def cmd_align(args) -> tuple[dict, str]:
    pred = load_depth(args.pred)
    target = load_depth(args.target)
    mask = depth_valid_mask(target)
    if args.mask:
        mask &= _load_mask(args.mask, mask.shape)
    affine = lstsq_align(pred, target, mask)
    payload = {"scale": affine.scale, "shift": affine.shift, "degenerate": affine.degenerate}
    return payload, f"s={affine.scale:.12g} t={affine.shift:.12g} degenerate={affine.degenerate}"


def cmd_evaluate(args) -> tuple[dict, str]:
    clamp = _clamp_bounds((args.clamp_min, args.clamp_max))
    workers = max_threads()
    preds = files_by_stem(args.pred_dir, DEPTH_SUFFIXES, "depth")
    gts = files_by_stem(args.gt_dir, DEPTH_SUFFIXES, "depth")
    only_pred = sorted(set(preds) - set(gts))
    only_gt = sorted(set(gts) - set(preds))
    if only_pred or only_gt:
        raise ParameterError(
            "prediction/ground-truth sets differ; "
            f"missing gt for {only_pred or 'none'}, missing pred for {only_gt or 'none'}"
        )
    if not preds:
        raise ParameterError(f"no depth files under {Path(args.pred_dir)}")
    masks = files_by_stem(args.mask_dir, MASK_SUFFIXES, "mask") if args.mask_dir else None
    if masks is not None and (unmasked := sorted(set(preds) - set(masks))):
        raise ParameterError(f"missing mask for {unmasked} under {Path(args.mask_dir)}")

    def one(stem: str):
        pred = load_depth(preds[stem])
        gt = load_depth(gts[stem])
        mask = depth_valid_mask(gt)
        if masks is not None:
            mask &= _load_mask(masks[stem], mask.shape)
        return stem, evaluate(pred, gt, mask, align=not args.no_align, clamp=clamp)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        frames = list(pool.map(one, sorted(preds)))
    agg = aggregate([r for _, r in frames], weights=args.agg)
    if args.json_out:
        write_reports_json(args.json_out, frames, agg)
    if args.csv_out:
        write_reports_csv(args.csv_out, frames, agg)
    lines = [f"{'frame':<20} abs_rel  sq_rel    rmse  rmse_log  si_log  d1     d2     d3"]
    for name, r in [*frames, ("aggregate", agg)]:
        lines.append(
            f"{name:<20} {r.abs_rel:7.4f} {r.sq_rel:7.4f} {r.rmse:7.4f}  "
            f"{r.rmse_log:7.4f} {r.si_log:7.4f} {r.delta1:6.4f} {r.delta2:6.4f} {r.delta3:6.4f}"
        )
    return reports_payload(frames, agg), "\n".join(lines)


# ---------------------------------------------------------------------------
# dataset build / export


def cmd_dataset_build(args) -> tuple[dict, str]:
    spec = _slice_spec(args)
    bins = _voxel_bins(args.bins, (args.layout,))
    manifest = build_manifest(
        args.events, args.frames, args.proxy, window_us=spec.window_us, mode=spec.mode,
        count=spec.count, layout=args.layout, bins=bins, gt_dir=args.gt, mask_dir=args.mask,
        teacher=args.teacher, lam=args.lam, k_scales=args.k_scales, drop_empty=args.drop_empty)
    save_manifest(manifest, args.out)
    n_empty = sum(r.empty_slice for r in manifest.records)
    payload = {"records": len(manifest.records), "empty_slices": n_empty, "out": str(args.out)}
    return payload, (f"manifest with {len(manifest.records)} records ({n_empty} empty slices) "
                     f"-> {args.out}")


def cmd_dataset_export(args) -> tuple[dict, str]:
    manifest = load_manifest(args.manifest)
    written = export_stacks(manifest, args.out, fmt=args.format)
    n = len(manifest.records)
    payload = {"stacks": n, "files": [str(p) for p in written]}
    return payload, f"exported {n} {manifest.encoder.layout.value} stacks -> {args.out}"


# ---------------------------------------------------------------------------
# fusion run


def cmd_fusion_run(args) -> tuple[dict, str]:
    """Every stack's files are checked from their headers first, so a
    malformed stack or a change of frame size is an error before any depth
    file is written. The run then holds one stack at a time: each is read,
    stepped and its depth written before the next is read."""
    _seed(args.seed)  # before --params-out is written
    stacks_dir = Path(args.stacks)
    stacks = _stack_files(stacks_dir)
    if not stacks:
        raise ParameterError(f"no .pfm stacks under {stacks_dir}")
    first, _, (height, width, _) = stacks[0]
    for stem, _, (h, w, _) in stacks[1:]:
        if (h, w) != (height, width):
            raise ContractError(
                f"{stacks_dir}: stack {stem} is {w}x{h}, stack {first} is {width}x{height}")
    params = load_model_params(args.params) if args.params else make_model_params(seed=args.seed)
    if args.params_out:
        Path(args.params_out).parent.mkdir(parents=True, exist_ok=True)
        save_model_params(params, args.params_out)
    depths = _steps(
        (_read_stack(files, shape) for _, files, shape in stacks),
        lambda a: toy_extractor(a, seed=args.seed, scales=params.scales, channels=params.channels),
        params,
    )
    out_dir = Path(args.out)
    written = []
    for (stem, _, _), depth in zip(stacks, depths):
        if not written:  # created once the first step has run
            out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / f"{stem}.depth.pfm"
        save_depth_pfm(out_path, depth)
        written.append(out_path)
    payload = {"steps": len(written), "seed": args.seed, "files": [str(p) for p in written]}
    return payload, f"ran {len(written)} steps (seed {args.seed}) -> {out_dir}"


# ---------------------------------------------------------------------------
# bench


def _baseline_rates(path) -> dict[str, float]:
    """events/s per layout of a bench JSON report; a malformed one is a FormatError."""
    report = _read_json(path, "bench report")
    layouts = report.get("layouts", {}) if isinstance(report, dict) else None
    if not isinstance(layouts, dict) or not all(isinstance(e, dict) for e in layouts.values()):
        raise FormatError(f"{path}: not a bench report: 'layouts' must map names to objects")
    rates = {k: e["events_per_s"] for k, e in layouts.items() if e.get("events_per_s") is not None}
    for layout, rate in rates.items():
        if type(rate) not in (int, float) or not (_finite(rate) and rate > 0):
            raise FormatError(f"{path}: not a bench report: {layout!r} events_per_s {rate!r}")
    return rates


def cmd_bench(args) -> tuple[dict, str]:
    layouts = _LAYOUTS if args.layouts == "all" else tuple(args.layouts.split(","))
    for k, layout in enumerate(layouts):
        if layout not in _LAYOUTS:
            raise _UsageError(f"unknown layout {layout!r}; choose from {', '.join(_LAYOUTS)}")
        if layout in layouts[:k]:
            raise _UsageError(f"layout {layout!r} is named twice")
    bins = _voxel_bins(args.bins, layouts)
    repetitions = _int_param("repetitions", args.repetitions, 1)
    tolerance = _real_param(
        "tolerance", BENCH_DEFAULTS.tolerance if args.tolerance is None else args.tolerance, 0,
        float("inf"), closed=True)
    if args.tolerance is not None and not args.baseline:
        raise _UsageError("--tolerance needs --baseline")
    baseline = _baseline_rates(args.baseline) if args.baseline else None
    stream = read_events(args.events)
    if len(stream) == 0:
        raise DomainError("cannot bench an empty stream")
    t0, t1 = int(stream.ts[0]), int(stream.ts[-1])
    if t1 <= t0:
        raise DomainError("cannot bench a zero-duration stream")
    sl = slice_events(stream, t1, SliceSpec(SliceMode.SBT, window_us=t1 - t0))
    results = {}
    for layout in layouts:
        times = []
        digest = None
        for _ in range(repetitions):
            start = time.perf_counter()
            stack = encode(sl, layout, bins=bins if layout == StackLayout.VOXEL.value else None)
            times.append(time.perf_counter() - start)
            h = hashlib.sha256(stack.values.tobytes()).hexdigest()[:16]
            if digest not in (None, h):
                raise EvDepthError(f"{layout}: nondeterministic encode (hash {h} != {digest})")
            digest = h
        median = statistics.median(times)
        results[layout] = {
            "times_s": times,
            "median_s": median,
            "events_per_s": len(stream) / median,
            "hash": digest,
        }
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    payload = {
        "n_events": len(stream),
        "repetitions": repetitions,
        "layouts": results,
        "peak_rss_kb": peak_rss_kb,
    }
    if args.out:
        _write_json(args.out, payload)
    lines = [f"bench over {len(stream)} events, {repetitions} repetition(s):"]
    for layout, r in results.items():
        lines.append(
            f"  {layout:<10} median {r['median_s']:.3f} s   "
            f"{r['events_per_s']:,.0f} events/s   hash {r['hash']}"
        )
    lines.append(f"  peak RSS ~ {peak_rss_kb / 1024:.0f} MiB")
    if baseline is not None:
        for layout, r in results.items():
            base = baseline.get(layout)
            if base is None:
                print(f"baseline: no entry for {layout}", file=sys.stderr)
                continue
            ratio = r["events_per_s"] / base
            if ratio < 1.0 - tolerance:
                print(f"REGRESSION {layout}: {r['events_per_s']:,.0f} events/s vs "
                      f"baseline {base:,.0f} ({ratio:.2f}x)", file=sys.stderr)
            elif ratio > 1.0 + tolerance:
                print(f"improvement {layout}: {ratio:.2f}x baseline", file=sys.stderr)
    return payload, "\n".join(lines)


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evdepth", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("simulate", help="frames directory -> event file")
    p.add_argument("--frames", required=True, help="directory of 8-bit PGM frames")
    p.add_argument("--contrast", required=True, type=float, help="log-intensity threshold C")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "evb"), default=None)
    p.set_defaults(func=cmd_simulate)

    for name, func in (("slice", cmd_slice), ("encode", cmd_encode)):
        p = sub.add_parser(name, help=f"{name} an event stream")
        p.add_argument("--events", required=True)
        p.add_argument("--td-us", required=True, type=int, help="reference timestamp (us)")
        p.add_argument("--dt-us", type=int, default=None, help="SBT window (us)")
        p.add_argument("--count", type=int, default=None, help="SBN event count")
        p.add_argument("--out", required=True)
        if name == "slice":
            p.add_argument("--format", choices=("csv", "evb"), default=None)
        else:
            p.add_argument("--layout", choices=_LAYOUTS, default=StackLayout.TENCODE.value)
            p.add_argument("--bins", type=int, default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("align", help="least-squares scale/shift of pred onto target")
    p.add_argument("--pred", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--mask", default=None)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("evaluate", help="depth metrics over paired directories")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.add_argument("--mask-dir", default=None)
    p.add_argument("--no-align", action="store_true")
    p.add_argument("--clamp-min", type=float, default=DEFAULT_CLAMP_MIN)
    p.add_argument("--clamp-max", type=float, default=float("inf"))
    p.add_argument("--agg", choices=("uniform", "per-pixel"), default="uniform")
    p.add_argument("--json-out", default=None)
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("dataset", help="distillation dataset tools")
    dsub = p.add_subparsers(dest="dataset_command", parser_class=_Parser)

    b = dsub.add_parser("build", help="build a dataset manifest")
    b.add_argument("--events", required=True)
    b.add_argument("--frames", required=True)
    b.add_argument("--proxy", required=True)
    b.add_argument("--gt", default=None)
    b.add_argument("--mask", default=None)
    b.add_argument("--dt-us", type=int, default=None)
    b.add_argument("--mode", choices=("sbt", "sbn"), default="sbt")
    b.add_argument("--count", type=int, default=None)
    b.add_argument("--layout", choices=_LAYOUTS, default=StackLayout.TENCODE.value)
    b.add_argument("--bins", type=int, default=None)
    b.add_argument("--teacher", default="unspecified")
    b.add_argument("--lam", type=float, default=LOSS_DEFAULTS.lam)
    b.add_argument("--k-scales", type=int, default=LOSS_DEFAULTS.k_scales)
    b.add_argument("--drop-empty", action="store_true")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_dataset_build)

    e = dsub.add_parser("export", help="encode every manifest record to disk")
    e.add_argument("--manifest", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--format", choices=("pfm", "ppm"), default="pfm")
    e.set_defaults(func=cmd_dataset_export)

    p = sub.add_parser("fusion", help="recurrent fusion tools")
    fsub = p.add_subparsers(dest="fusion_command", parser_class=_Parser)
    r = fsub.add_parser("run", help="run the recurrent model over a stack sequence")
    r.add_argument("--stacks", required=True,
                   help="directory of PFM stacks; voxel channels as <t>.c<k>.pfm")
    r.add_argument("--out", required=True)
    r.add_argument("--seed", type=int, default=FUSION_DEFAULTS.seed)
    r.add_argument("--params", default=None, help="load parameters (.bin archive)")
    r.add_argument("--params-out", default=None, help="save parameters (.bin archive)")
    r.set_defaults(func=cmd_fusion_run)

    p = sub.add_parser("bench", help="encoder throughput report")
    p.add_argument("--events", required=True)
    p.add_argument("--layouts", default="all", help="comma-separated, or 'all'")
    p.add_argument("--repetitions", type=int, default=BENCH_DEFAULTS.repetitions)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--baseline", default=None, help="JSON report to compare against")
    p.add_argument("--tolerance", type=float, default=None)
    p.set_defaults(func=cmd_bench)

    for group in (sub, dsub, fsub):
        for leaf in group.choices.values():
            if leaf.get_default("func") is not None:
                leaf.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code. A command returns
    (payload, text); on success main prints the payload as JSON under --json,
    else the text."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        payload, text = args.func(args)
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)
        return EXIT_OK
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EvDepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

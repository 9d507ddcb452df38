"""Pins what every subcommand prints: the text summary is the JSON payload's
values rendered in a fixed format, ``--json`` prints the payload itself, and
nothing reaches stderr on success."""

import json
import re

import numpy as np
import pytest

from conftest import make_random_stream
from evdepth.cli import main
from evdepth.events import write_events
from evdepth.imgio import save_depth_pfm, write_pgm
from evdepth.pipeline import build_manifest, export_stacks, save_manifest

FRAME_TIMES = (0, 300_000, 600_000, 900_000)
SHAPE = (16, 32)

EVAL_ROW = "{:<20} {:7.4f} {:7.4f} {:7.4f}  {:7.4f} {:7.4f} {:6.4f} {:6.4f} {:6.4f}"
EVAL_KEYS = ("abs_rel", "sq_rel", "rmse", "rmse_log", "si_log", "delta1", "delta2", "delta3")

LEAF_COMMANDS = (
    ["simulate"], ["slice"], ["encode"], ["align"], ["evaluate"],
    ["dataset", "build"], ["dataset", "export"], ["fusion", "run"], ["bench"],
)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Frames, events, proxies, depth pairs and exported stacks on a 32x16 sensor."""
    root = tmp_path_factory.mktemp("cli_output")
    rng = np.random.default_rng(11)
    frames, proxy, pred, gt = (root / name for name in ("frames", "proxy", "pred", "gt"))
    for d in (frames, proxy, pred, gt):
        d.mkdir()
    for t in FRAME_TIMES:
        write_pgm(frames / f"{t:09d}.pgm", rng.integers(0, 256, SHAPE).astype(np.uint8))
        save_depth_pfm(proxy / f"{t:09d}.pfm", rng.uniform(1, 10, SHAPE))
    for k in range(3):
        target = rng.uniform(1, 10, (10, 10))
        save_depth_pfm(gt / f"f{k}.pfm", target)
        save_depth_pfm(pred / f"f{k}.pfm", 0.5 * target + rng.normal(0, 0.3, target.shape) + 2)
    events = root / "events.evb"
    stream = make_random_stream(rng, width=SHAPE[1], height=SHAPE[0], n_events=3000)
    write_events(stream, events)
    manifest = build_manifest(events, frames, proxy, window_us=200_000)
    save_manifest(manifest, root / "manifest.json")
    export_stacks(manifest, root / "stacks")
    return root


def run_both(argv, capsys):
    """(text stdout, payload) of a successful run without and with --json."""
    assert main(argv) == 0
    text, err = capsys.readouterr()
    assert err == ""
    assert main(argv + ["--json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return text, payload


def test_simulate(ws, capsys):
    out = ws / "sim.evb"
    text, p = run_both(["simulate", "--frames", str(ws / "frames"), "--contrast", "0.2",
                        "--out", str(out)], capsys)
    assert p["out"] == str(out) and p["frames"] == len(FRAME_TIMES) and p["n_events"] > 0
    assert p["n_positive"] + p["n_negative"] == p["n_events"]
    assert text == (f"simulated {p['n_events']} events ({p['n_positive']} positive, "
                    f"{p['n_negative']} negative) from {p['frames']} frames -> {p['out']}\n")


def test_slice(ws, capsys):
    out = ws / "slice.evb"
    text, p = run_both(["slice", "--events", str(ws / "events.evb"), "--td-us", "500000",
                        "--dt-us", "100000", "--out", str(out)], capsys)
    assert (p["t_start_us"], p["t_end_us"], p["out"]) == (400000, 500000, str(out))
    assert text == f"{p['n_events']} events in [{p['t_start_us']}, {p['t_end_us']}] us -> {out}\n"


def test_encode(ws, capsys):
    out = ws / "stack.pfm"
    text, p = run_both(["encode", "--events", str(ws / "events.evb"), "--td-us", "500000",
                        "--layout", "voxel", "--out", str(out)], capsys)
    assert p["layout"] == "voxel" and len(p["files"]) == 5
    assert p["t_end_us"] == 500000 and p["n_events"] > 0
    assert text == f"encoded {p['n_events']} events as voxel -> {', '.join(p['files'])}\n"


def test_align(ws, capsys):
    text, p = run_both(["align", "--pred", str(ws / "pred" / "f0.pfm"),
                        "--target", str(ws / "gt" / "f0.pfm")], capsys)
    assert p["degenerate"] is False
    assert text == f"s={p['scale']:.12g} t={p['shift']:.12g} degenerate={p['degenerate']}\n"


@pytest.mark.parametrize("agg", ["uniform", "per-pixel"])
def test_evaluate(ws, capsys, agg):
    text, p = run_both(["evaluate", "--pred-dir", str(ws / "pred"), "--gt-dir", str(ws / "gt"),
                        "--agg", agg], capsys)
    assert [f["frame"] for f in p["frames"]] == ["f0", "f1", "f2"]
    rows = [(f["frame"], f) for f in p["frames"]] + [("aggregate", p["aggregate"])]
    want = [f"{'frame':<20} abs_rel  sq_rel    rmse  rmse_log  si_log  d1     d2     d3"]
    want += [EVAL_ROW.format(name, *(r[k] for k in EVAL_KEYS)) for name, r in rows]
    assert text == "\n".join(want) + "\n"


def test_evaluate_report_file_matches_payload(ws, capsys):
    report = ws / "report.json"
    _, p = run_both(["evaluate", "--pred-dir", str(ws / "pred"), "--gt-dir", str(ws / "gt"),
                     "--json-out", str(report)], capsys)
    assert report.read_text() == json.dumps(p, indent=2, sort_keys=True) + "\n"


def test_dataset_build(ws, capsys):
    out = ws / "built.json"
    text, p = run_both(["dataset", "build", "--events", str(ws / "events.evb"),
                        "--frames", str(ws / "frames"), "--proxy", str(ws / "proxy"),
                        "--dt-us", "200000", "--out", str(out)], capsys)
    assert p == {"records": len(FRAME_TIMES), "empty_slices": 1, "out": str(out)}
    assert text == f"manifest with {p['records']} records ({p['empty_slices']} empty slices) -> {out}\n"


def test_dataset_export(ws, capsys):
    out = ws / "exported"
    text, p = run_both(["dataset", "export", "--manifest", str(ws / "manifest.json"),
                        "--out", str(out)], capsys)
    assert len(p["files"]) == len(FRAME_TIMES)
    assert text == f"exported {len(p['files'])} tencode stacks -> {out}\n"


def test_dataset_export_counts_voxel_stacks_not_files(ws, capsys):
    manifest = ws / "voxel_manifest.json"
    save_manifest(build_manifest(ws / "events.evb", ws / "frames", ws / "proxy",
                                 window_us=200_000, layout="voxel", bins=5), manifest)
    out = ws / "voxel_exported"
    text, p = run_both(["dataset", "export", "--manifest", str(manifest), "--out", str(out)],
                       capsys)
    assert p["stacks"] == len(FRAME_TIMES)
    assert len(p["files"]) == len(FRAME_TIMES) * 5
    assert text == f"exported {p['stacks']} voxel stacks -> {out}\n"


def test_fusion_run(ws, capsys):
    out = ws / "depth"
    text, p = run_both(["fusion", "run", "--stacks", str(ws / "stacks"), "--out", str(out),
                        "--seed", "3"], capsys)
    assert p["steps"] == len(p["files"]) == len(FRAME_TIMES) and p["seed"] == 3
    assert text == f"ran {p['steps']} steps (seed {p['seed']}) -> {out}\n"


def test_bench(ws, capsys):
    text, p = run_both(["bench", "--events", str(ws / "events.evb"), "--repetitions", "2"],
                       capsys)
    lines = text.splitlines()
    assert lines[0] == f"bench over {p['n_events']} events, {p['repetitions']} repetition(s):"
    layouts = ("voxel", "imagelike", "tencode")
    assert sorted(p["layouts"]) == sorted(layouts) and len(lines) == 2 + len(layouts)
    for line, layout in zip(lines[1:], layouts):
        row = rf"  {layout:<10} median \d+\.\d{{3}} s   [\d,]+ events/s   hash {p['layouts'][layout]['hash']}"
        assert re.fullmatch(row, line), line
    assert re.fullmatch(r"  peak RSS ~ \d+ MiB", lines[-1]), lines[-1]


@pytest.mark.parametrize("command", LEAF_COMMANDS, ids=" ".join)
def test_every_subcommand_takes_json(capsys, command):
    assert main(command + ["--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert usage.startswith(f"usage: evdepth {' '.join(command)} ")
    assert usage.split().count("[--json]") == 1 and usage.endswith("[--json]")

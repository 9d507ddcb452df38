"""One rule for every input directory.

Every directory flag must name a directory (exit 3, "not a directory"), and a
partner file missing from a directory that is given is a data error (exit 2)
found before any depth file is read. The CLI table runs each directory case
of every subcommand: each exits with its code and one error line, and writes
nothing. The depth files of the evaluate rows are not PFMs, so a run that
read one would exit 2 with a format error instead. The library tests pin the
listing itself.
"""

import numpy as np
import pytest

from conftest import make_random_stream
from evdepth.cli import main
from evdepth.events import write_events
from evdepth.imgio import save_depth_pfm, save_mask_pgm, write_pgm
from evdepth.naming import files_by_stem, timestamped_files
from evdepth.pipeline import build_manifest

SHAPE = (6, 8)
FRAME_TIMES = (100_000, 200_000)


@pytest.fixture
def ws(tmp_path):
    """An 8x6 recording with frames and proxies; prediction and ground-truth
    files for stems a and b that are not depth files; a mask for a only."""
    stream = make_random_stream(np.random.default_rng(3), width=SHAPE[1], height=SHAPE[0],
                                n_events=200, t_max=250_000)
    write_events(stream, tmp_path / "events.evb")
    for name in ("frames", "proxy", "pred", "gt", "masks"):
        (tmp_path / name).mkdir()
    for t in FRAME_TIMES:
        write_pgm(tmp_path / "frames" / f"{t:09d}.pgm", np.zeros(SHAPE, dtype=np.uint8))
        save_depth_pfm(tmp_path / "proxy" / f"{t:09d}.pfm", np.ones(SHAPE))
    for stem in ("a", "b"):
        (tmp_path / "pred" / f"{stem}.pfm").write_bytes(b"not a depth file")
        (tmp_path / "gt" / f"{stem}.pfm").write_bytes(b"not a depth file")
    save_mask_pgm(tmp_path / "masks" / "a.pgm", np.ones(SHAPE, dtype=bool))
    return tmp_path


def _build(**dirs):
    argv = ["dataset", "build", "--events", "events.evb", "--frames", "frames",
            "--proxy", "proxy", "--out", "manifest.json"]
    for flag, directory in dirs.items():
        argv += [f"--{flag}", directory]
    return argv


def _evaluate(pred="pred", gt="gt", mask=None):
    argv = ["evaluate", "--pred-dir", pred, "--gt-dir", gt, "--json-out", "report.json"]
    return argv + (["--mask-dir", mask] if mask else [])


# name -> (argv, relative to the workspace; exit code; text of the error line)
ROWS = {
    "build-gt-missing": (_build(gt="nowhere"), 3, "not a directory: nowhere"),
    "build-proxy-missing": (_build(proxy="nowhere"), 3, "not a directory: nowhere"),
    "build-mask-missing": (_build(mask="nowhere"), 3, "not a directory: nowhere"),
    "evaluate-mask-dir-missing": (_evaluate(mask="nowhere"), 3, "not a directory: nowhere"),
    "evaluate-mask-missing-for-b": (_evaluate(mask="masks"), 2,
                                    "missing mask for ['b'] under masks"),
    # unchanged rows
    "build-frames-missing": (_build(frames="nowhere"), 3, "not a directory: nowhere"),
    "simulate-frames-missing": (["simulate", "--frames", "nowhere", "--contrast", "0.2",
                                 "--out", "sim.evb"], 3, "not a directory: nowhere"),
    "evaluate-pred-dir-missing": (_evaluate(pred="nowhere"), 3, "not a directory: nowhere"),
    "evaluate-gt-dir-missing": (_evaluate(gt="nowhere"), 3, "not a directory: nowhere"),
    "fusion-stacks-missing": (["fusion", "run", "--stacks", "nowhere", "--out", "depth"], 3,
                              "not a directory: nowhere"),
}


def _tree(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


@pytest.mark.parametrize("name", ROWS)
def test_directory_flag_rule(ws, capsys, monkeypatch, name):
    argv, code, message = ROWS[name]
    monkeypatch.chdir(ws)
    before = _tree(ws)
    assert main(argv) == code
    out, err = capsys.readouterr()
    prefix = "io error: " if code == 3 else "error: "
    assert (out, err) == ("", f"{prefix}{message}\n")
    assert _tree(ws) == before  # no manifest, report, events or depth file


def test_files_by_stem_of_a_missing_directory_is_an_error(tmp_path):
    with pytest.raises(FileNotFoundError, match="not a directory"):
        files_by_stem(tmp_path / "nowhere", (".pfm",), "depth")


@pytest.mark.parametrize("which", ["frames", "proxy", "gt", "mask"])
def test_build_manifest_names_a_missing_directory_before_the_recording(tmp_path, which):
    (tmp_path / "events.evb").write_bytes(b"not an EVB file")  # a FormatError if opened
    dirs = {name: tmp_path / name for name in ("frames", "proxy", "gt", "mask")}
    for d in dirs.values():
        d.mkdir()
    write_pgm(dirs["frames"] / "000000100.pgm", np.zeros(SHAPE, dtype=np.uint8))
    save_depth_pfm(dirs["proxy"] / "000000100.pfm", np.ones(SHAPE))
    save_mask_pgm(dirs["mask"] / "000000100.pgm", np.ones(SHAPE, dtype=bool))
    dirs[which] = tmp_path / "nowhere"
    with pytest.raises(FileNotFoundError, match="not a directory: .*nowhere"):
        build_manifest(tmp_path / "events.evb", dirs["frames"], dirs["proxy"],
                       gt_dir=dirs["gt"], mask_dir=dirs["mask"])


def test_both_listings_select_the_same_files(tmp_path):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    d = tmp_path / "d"
    d.mkdir()
    for name in ("000000010.pgm", "000000020.PGM", "000000030.Pgm", "000000050.txt"):
        (d / name).write_bytes(b"")
    (elsewhere / "target.pgm").write_bytes(b"")
    (d / "000000040.pGm").symlink_to(elsewhere / "target.pgm")
    (d / "000000060.pgm").mkdir()  # a directory, not a file
    (d / "000000070.pgm").symlink_to(elsewhere / "gone.pgm")  # a link to nothing
    by_time = [p for _, p in timestamped_files(d, (".pgm",))]
    by_stem = list(files_by_stem(d, (".pgm",), "frame").values())
    assert by_time == by_stem
    assert [p.name for p in by_time] == [
        "000000010.pgm", "000000020.PGM", "000000030.Pgm", "000000040.pGm"]

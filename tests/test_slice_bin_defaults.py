"""Slice and bin values: one default each, and none accepted only to be ignored.

An SBT window left unset takes ``config.ENCODER_DEFAULTS.window_us`` and a
voxel bin count left unset takes ``ENCODER_DEFAULTS.voxel_bins``, in the
library and in the CLI alike. A value the slice mode or the layout does not
use (a window in SBN mode, bins for tencode), and a bench flag that nothing
reads, is refused: a ParameterError from the library, and one ``error:``
line with exit 1 from the CLI, before any output is written.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from conftest import make_random_stream
from evdepth.cli import main
from evdepth.errors import ParameterError
from evdepth.events import slice_sbt, write_events
from evdepth.imgio import save_depth_pfm, write_pgm
from evdepth.pipeline import build_manifest
from evdepth.stacks import encode

FRAME_TIMES_US = (60_000, 120_000, 180_000)


def _stream():
    return make_random_stream(np.random.default_rng(5), n_events=3000, t_max=200_000)


@pytest.fixture()
def scene(tmp_path):
    """(events, frames, proxy) paths of a 32x24 recording with three frames."""
    write_events(_stream(), tmp_path / "e.evb")
    for name in ("frames", "proxy"):
        (tmp_path / name).mkdir()
    for t in FRAME_TIMES_US:
        write_pgm(tmp_path / "frames" / f"{t:09d}.pgm", np.zeros((24, 32), dtype=np.uint8))
        save_depth_pfm(tmp_path / "proxy" / f"{t:09d}.pfm", np.ones((24, 32)))
    return tmp_path / "e.evb", tmp_path / "frames", tmp_path / "proxy"


def _slice():
    return slice_sbt(_stream(), 180_000, 100_000)


# name -> (call(scene), the start of the ParameterError's message)
LIBRARY_CASES = {
    "build_manifest-sbn-with-window": (
        lambda s: build_manifest(*s, mode="sbn", count=500, window_us=7),
        "window_us does not apply to SBN slicing"),
    "build_manifest-sbn-without-count": (
        lambda s: build_manifest(*s, mode="sbn"), "count must be an integer"),
    "encode-tencode-bins": (
        lambda s: encode(_slice(), "tencode", bins=-3), "bins applies to the voxel layout only"),
    "encode-imagelike-bins": (
        lambda s: encode(_slice(), "imagelike", bins=5), "bins applies to the voxel layout only"),
}


@pytest.mark.parametrize("case", LIBRARY_CASES)
def test_an_unused_or_missing_slice_or_bin_value_is_a_parameter_error(scene, case):
    call, message = LIBRARY_CASES[case]
    with pytest.raises(ParameterError) as info:
        call(scene)
    assert str(info.value).startswith(message)


# name -> (argv, with {e}, {f}, {p} and {out} for the paths, and the error line)
CLI_CASES = {
    "dataset-build-sbn-with-dt-us": (
        "dataset build --events {e} --frames {f} --proxy {p} --mode sbn --count 500 --dt-us 7"
        " --out {out}", "--dt-us and --count are mutually exclusive"),
    "bench-layout-named-twice": (
        "bench --events {e} --layouts voxel,voxel --repetitions 2 --out {out}",
        "layout 'voxel' is named twice"),
    "bench-tolerance-without-baseline": (
        "bench --events {e} --tolerance 7 --out {out}", "--tolerance needs --baseline"),
}


@pytest.mark.parametrize("case", CLI_CASES)
def test_an_ignored_cli_value_exits_1_and_writes_nothing(scene, case, tmp_path):
    argv, message = CLI_CASES[case]
    e, f, p = scene
    out = tmp_path / "out.json"
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv.format(e=e, f=f, p=p, out=out).split())
    assert (code, err.getvalue()) == (1, f"error: {message}\n")
    assert not out.exists()


def test_an_unset_window_and_bin_count_build_the_explicit_manifest(scene):
    assert build_manifest(*scene, layout="voxel") == build_manifest(
        *scene, layout="voxel", window_us=50_000, bins=5)
    assert build_manifest(*scene, mode="sbn", count=400, layout="voxel") == build_manifest(
        *scene, mode="sbn", count=400, layout="voxel", bins=5)


def test_an_unset_bin_count_encodes_the_bytes_of_five_bins():
    sl = _slice()
    stack = encode(sl, "voxel")
    assert stack.channels == 5
    assert stack.values.tobytes() == encode(sl, "voxel", bins=5).values.tobytes()


def test_dataset_build_without_dt_us_writes_the_manifest_of_the_default_window(scene, tmp_path):
    e, f, p = scene
    base = ["dataset", "build", "--events", str(e), "--frames", str(f), "--proxy", str(p)]
    with redirect_stdout(io.StringIO()):
        assert main([*base, "--out", str(tmp_path / "unset.json")]) == 0
        assert main([*base, "--dt-us", "50000", "--out", str(tmp_path / "set.json")]) == 0
    assert (tmp_path / "unset.json").read_bytes() == (tmp_path / "set.json").read_bytes()

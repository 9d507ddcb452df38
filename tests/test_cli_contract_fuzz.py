"""Generative fuzzing of the ``fusion run`` exit-code contract.

The argv is built from the subparser's own actions in ``build_parser()``, so a
flag added there is fuzzed without an edit here. Each example starts from a
valid argv and redraws up to two flags as absent, a boundary integer, ``nan``
or an empty string, or a path: a good, mixed-size, mixed-channel or empty
stack directory, a file where a directory is wanted, or a missing path; for
``--params`` a good, an (8, 4)-scale or a truncated archive, or a missing one.

Whatever the draw, ``main`` returns 0, 1, 2 or 3 and prints no traceback. A
failed run prints exactly one ``error:`` line, writes no ``--params-out`` and
leaves in ``--out`` at most the depths of a prefix of the stacks (a step that
fails keeps the depths before it); a run that succeeds writes one depth per
stack and the ``--params-out`` pair when that flag is given.
"""

import argparse
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evdepth.cli import build_parser, main
from evdepth.fusion import make_model_params, save_model_params
from evdepth.imgio import write_pfm
from evdepth.stacks import _stack_files

ABSENT = object()
FAULTS = ("0", "-1", str(2**63), "nan", "")


def _subparser(parser, *names):
    for name in names:
        parser = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices[name]
    return parser


FLAGS = [a for a in _subparser(build_parser(), "fusion", "run")._actions
         if a.option_strings and not isinstance(a, argparse._HelpAction)]


def _write_stacks(directory, shapes):
    directory.mkdir()
    rng = np.random.default_rng(len(shapes))
    for k, shape in enumerate(shapes, 1):
        if len(shape) == 4:  # (H, W, C, "split"): one file per channel
            for c in range(shape[2]):
                write_pfm(directory / f"{k:012d}.c{c}.pfm",
                          rng.random(shape[:2]).astype(np.float32))
        else:
            write_pfm(directory / f"{k:012d}.pfm", rng.random(shape).astype(np.float32))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Read-only inputs: stack directories, a plain file and parameter archives."""
    root = tmp_path_factory.mktemp("inputs")
    _write_stacks(root / "good", [(32, 32, 3)] * 3)
    _write_stacks(root / "mixed-size", [(32, 32, 3), (16, 32, 3)])
    _write_stacks(root / "mixed-channels", [(32, 32, 3), (32, 32, 5, "split")])
    (root / "empty").mkdir()
    (root / "file").write_bytes(b"not a directory\n")
    save_model_params(make_model_params(seed=1), root / "good.bin")
    # a (4, 8) archive of 2 channels per scale relabelled as scales (8, 4):
    # every tensor keeps its shape and offset
    save_model_params(make_model_params(seed=1, scales=(4, 8), channels=(2, 2)), root / "84.bin")
    manifest = json.loads((root / "84.json").read_text())
    manifest["scales"] = [8, 4]
    for entry, name in zip(manifest["tensors"], ["lstm.8.kernel", "lstm.8.bias", "lstm.4.kernel",
                                                 "lstm.4.bias", "fuse.4.projection"]):
        entry["name"] = name
    (root / "84.json").write_text(json.dumps(manifest))
    save_model_params(make_model_params(seed=1), root / "cut.bin")
    (root / "cut.bin").write_bytes((root / "cut.bin").read_bytes()[:-8])
    return root


def _role(action) -> str:
    """What a flag takes, from its parser entry alone."""
    if action.nargs == 0:
        return "switch"
    if action.type in (int, float) or action.choices is not None:
        return "value"
    if "out" in action.dest:
        return "output"
    return "archive" if "params" in action.dest else "directory"


def _values(action, inputs, run_dir):
    """(valid, faulty) draws for one flag."""
    role = _role(action)
    if role == "switch":
        return [ABSENT, True], [ABSENT, True]
    directories = [str(inputs / name) for name in
                   ("good", "mixed-size", "mixed-channels", "empty", "file", "missing")]
    if role == "value":
        valid = list(action.choices or [action.default if action.default is not None else 1, 3])
        return [str(v) for v in valid], [ABSENT, *FAULTS, *directories]
    if role == "directory":
        return [directories[0]], [ABSENT, *FAULTS, *directories]
    if role == "archive":
        archives = [str(inputs / name) for name in ("good.bin", "84.bin", "cut.bin", "none.bin")]
        return [ABSENT, archives[0]], [ABSENT, *FAULTS, *archives]
    fresh = str(run_dir / f"{action.dest}.new")
    return [fresh], [ABSENT, *FAULTS, fresh, str(run_dir / "file"), str(run_dir / "file" / "x")]


def _json_sibling(path: Path) -> Path:
    """The manifest written beside a ``--params-out`` archive."""
    return path.with_suffix(".json") if path.name else path


@contextlib.contextmanager
def _inside(directory):
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(cwd)


@settings(derandomize=True, database=None, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fusion_run_keeps_the_exit_code_contract(inputs, tmp_path, data):
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    (run_dir / "file").write_bytes(b"not a directory\n")
    faulty = data.draw(st.sets(st.sampled_from(FLAGS), max_size=2), label="faulty flags")
    argv, values = ["fusion", "run"], {}
    for action in FLAGS:
        valid, faults = _values(action, inputs, run_dir)
        flag = action.option_strings[-1]
        value = values[action.dest] = data.draw(
            st.sampled_from(faults if action in faulty else valid), label=flag)
        if value is True:
            argv.append(flag)
        elif value is not ABSENT:
            argv.append(f"{flag}={value}")
    out, params_out = (Path(values[dest]) if isinstance(values[dest], str) else None
                       for dest in ("out", "params_out"))
    archive = [params_out, _json_sibling(params_out)] if params_out else []
    with _inside(run_dir):  # a relative value ("0", "nan", "") names a path in run_dir
        existed = {path: path.exists() for path in [out, *archive] if path}
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code:
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
            assert not any(path.is_file() and not existed[path] for path in archive), argv
        if out is None or (code and existed[out]):
            return
        # --out was made by this run, or it succeeded: it holds depths of the stacks
        stacks = _stack_files(values["stacks"]) if out.is_dir() else []
        stems = [stem for stem, _, _ in stacks]
        depths = sorted(path.name[:-len(".depth.pfm")] for path in out.glob("*.depth.pfm"))
        if code:
            assert depths == stems[:len(depths)], (argv, depths, stems)
        else:
            assert stems and depths == stems, (argv, depths, stems)
            assert len({shape for _, _, shape in stacks}) == 1, argv  # one (H, W, C) throughout
            assert all(path.is_file() for path in archive), argv

"""Every entry point checks its parameters before it touches a file.

One table calls each public function that takes a path or a record with one
bad parameter and paths that do not exist: each call is a ParameterError,
never the OSError the missing file would give. The functions whose only
inputs are paths and data (the raster and stack readers, ``frames_from_dir``,
``save_stack_pfm``, ``save_manifest``, ``load_manifest``, the parameter
archive's save and load, and the report writers) have no row. A second table
runs every CLI subcommand in the same case: each exits 2 with one ``error:``
line, never 3. ``dataset export`` has no row: it takes no parameter that
argparse leaves unchecked.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from evdepth import config
from evdepth.cli import build_parser, main
from evdepth.errors import ParameterError
from evdepth.events import EventStream, SliceMode, SliceSpec, read_events, write_events
from evdepth.imgio import (load_depth, save_depth_pfm, save_depth_pgm16, save_mask_pgm,
                           write_pfm, write_pgm, write_ppm)
from evdepth.pipeline import (DatasetManifest, EncoderSpec, Provenance, SampleRecord,
                              build_manifest, export_stacks, training_step)
from evdepth.simulator import frame_from_pgm
from evdepth.stacks import EventStack, StackLayout, save_stack_ppm

SHAPE = (6, 8)


def _record(missing, **fields):
    """A record of the 8x6 sensor whose files are all under ``missing``."""
    good = dict(t_d_us=40, events_path=str(missing / "e.evb"), t_start_us=10, t_end_us=40,
                proxy_path=str(missing / "p.pfm"), gt_path=None, mask_path=None,
                width=SHAPE[1], height=SHAPE[0], empty_slice=False)
    return SampleRecord(**{**good, **fields})


def _manifest(missing):
    encoder = EncoderSpec(StackLayout.TENCODE, SliceSpec(SliceMode.SBT, window_us=30))
    return DatasetManifest(encoder, Provenance("t", 0.25, 4), (_record(missing),))


# name -> call(missing directory): one bad parameter, every path under a
# directory that does not exist
CALLS = {
    "read_events-fmt": lambda m: read_events(m / "e.evb", fmt="bogus"),
    "write_events-fmt": lambda m: write_events(EventStream.empty(4, 3), m / "e.evb", fmt="bogus"),
    "write_pfm-shape": lambda m: write_pfm(m / "a.pfm", np.zeros((2, 2, 2))),
    "write_pgm-maxval": lambda m: write_pgm(m / "a.pgm", np.zeros((2, 2)), maxval=0),
    "write_ppm-shape": lambda m: write_ppm(m / "a.ppm", np.zeros((2, 2))),
    "save_depth_pfm-shape": lambda m: save_depth_pfm(m / "d.pfm", np.ones(3)),
    "save_depth_pgm16-scale": lambda m: save_depth_pgm16(m / "d.pgm", np.ones(SHAPE), math.nan),
    "save_mask_pgm-shape": lambda m: save_mask_pgm(m / "k.pgm", np.ones(3, dtype=bool)),
    "load_depth-suffix": lambda m: load_depth(m / "d.txt"),
    "frame_from_pgm-time": lambda m: frame_from_pgm(m / "f.pgm", -1),
    "save_stack_ppm-voxel": lambda m: save_stack_ppm(
        EventStack(StackLayout.VOXEL, np.zeros((*SHAPE, 2)), 0, 1), m / "s.ppm"),
    "build_manifest-lam": lambda m: build_manifest(m / "e.evb", m, m, lam=math.nan),
    "build_manifest-k_scales": lambda m: build_manifest(m / "e.evb", m, m, k_scales=0),
    "build_manifest-bins": lambda m: build_manifest(m / "e.evb", m, m, layout="voxel", bins=0),
    "training_step-lam": lambda m: training_step(_record(m), np.ones(SHAPE), lam=math.nan),
    "training_step-k_scales": lambda m: training_step(_record(m), np.ones(SHAPE), k_scales=0),
    "training_step-mode": lambda m: training_step(_record(m), np.ones(SHAPE), mode="bogus"),
    "export_stacks-fmt": lambda m: export_stacks(_manifest(m), m / "out", fmt="bogus"),
    "SampleRecord-all-fields": lambda m: SampleRecord("a", 1, 2.5, None, 3, 4, 5, -1, True, "no"),
}
# each record field with one bad value, the other fields good (``empty_slice``
# is in the flag table of tests/test_params.py)
BAD_FIELDS = [
    ("t_d_us", -1), ("t_d_us", "40"), ("t_d_us", 2.5), ("t_d_us", True), ("t_d_us", 2**63),
    ("t_start_us", -(2**63)), ("t_start_us", None), ("t_end_us", -1), ("t_end_us", 2**63),
    ("width", 0), ("width", 65536), ("width", True), ("height", 0), ("height", 24.0),
    ("events_path", 1), ("events_path", None), ("proxy_path", None), ("gt_path", 7),
    ("mask_path", ["m.pgm"]),
]
for _field, _value in BAD_FIELDS:
    CALLS[f"SampleRecord-{_field}={_value!r}"] = (
        lambda m, f=_field, v=_value: _record(m, **{f: v}))


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_bad_parameter_is_found_before_a_missing_file(name, tmp_path):
    with pytest.raises(ParameterError):
        CALLS[name](tmp_path / "missing")


def test_good_record_fields_are_kept_as_python_values(tmp_path):
    record = _record(tmp_path, t_d_us=np.int64(40), t_start_us=-49_960, width=np.uint16(8))
    assert (type(record.t_d_us), type(record.width)) == (int, int)
    assert record.t_start_us == -49_960  # an SBT window can reach back past time 0


# subcommand -> argv with one bad parameter; every path is under ``{m}``, a
# directory that does not exist
CLI_CASES = [
    ("simulate", "--frames {m} --out {m}/e.evb --contrast -1"),
    ("simulate", "--frames {m} --out {m}/e.txt --contrast 0.1"),
    ("slice", "--events {m}/e.evb --out {m}/s.evb --td-us -5 --dt-us 10"),
    ("slice", "--events {m}/e.evb --out {m}/s.txt --td-us 5 --dt-us 10"),
    ("encode", "--events {m}/e.evb --out {m}/s.pfm --td-us 5 --dt-us 10 --layout voxel --bins 0"),
    ("encode", "--events {m}/e.evb --out {m}/s.pfm --td-us -5 --dt-us 10"),
    ("align", "--pred {m}/p.txt --target {m}/t.pfm"),
    ("evaluate", "--pred-dir {m}/p --gt-dir {m}/g --clamp-min nan"),
    ("evaluate", "--pred-dir {m}/p --gt-dir {m}/g --clamp-min 5 --clamp-max 1"),
    ("evaluate", "--pred-dir {m}/p --gt-dir {m}/g EVDEPTH_THREADS=abc"),
    ("dataset build", "--events {m}/e.evb --frames {m} --proxy {m} --out {m}/m.json --lam nan"),
    ("dataset build", "--events {m}/e.evb --frames {m} --proxy {m} --out {m}/m.json --k-scales 0"),
    ("fusion run", "--stacks {m} --out {m}/d --seed -1"),
    ("bench", "--events {m}/e.evb --bins 0"),
    ("bench", "--events {m}/e.evb --tolerance nan"),
]


def _subcommands(parser, prefix=()):
    """Every leaf subcommand of ``parser``, as its space-joined words."""
    for action in parser._subparsers._group_actions:
        for name, sub in action.choices.items():
            if sub._subparsers is None:
                yield " ".join((*prefix, name))
            else:
                yield from _subcommands(sub, (*prefix, name))


def test_the_cli_table_has_a_row_for_every_subcommand():
    assert {command for command, _ in CLI_CASES} | {"dataset export"} == set(
        _subcommands(build_parser()))


@pytest.mark.parametrize(("command", "args"), CLI_CASES)
def test_a_bad_cli_parameter_exits_2_before_a_missing_file(command, args, tmp_path, monkeypatch):
    words = args.format(m=tmp_path / "missing").split()
    for word in [w for w in words if w.startswith(config.THREADS_ENV_VAR + "=")]:
        monkeypatch.setenv(*word.split("=", 1))
        words.remove(word)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([*command.split(), *words])
    assert code == 2, err.getvalue()
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

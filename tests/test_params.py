"""One table over every real-valued, every choice and every flag parameter.

Each real is checked by ``errors._real_param``: a bool, a string, None and
NaN are a ParameterError naming the parameter and its interval, and so is an
infinity the interval leaves out; a numpy float is accepted and kept as a
Python float. Each choice is checked by ``errors._choice_param``: anything
but one of its values (or an enum member) is a ParameterError naming the
parameter and the choices. Each flag is checked by ``errors._bool_param``:
anything but a bool (a numpy one too) is a ParameterError naming it. The
checks run before any shape or count check.
"""

import dataclasses
import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from conftest import make_random_stream
from evdepth.cli import main
from evdepth.errors import ParameterError
from evdepth.events import SliceMode, SliceSpec, read_events, slice_sbt, write_events
from evdepth.imgio import save_depth_pfm, save_depth_pgm16
from evdepth.losses import loss_total
from evdepth.metrics import aggregate, evaluate
from evdepth.pipeline import (EncoderSpec, Provenance, SampleRecord, build_manifest, export_stacks,
                              training_step)
from evdepth.simulator import SimConfig
from evdepth.stacks import StackLayout, encode

SHAPE = (6, 8)


@pytest.fixture()
def record(tmp_path):
    """A record whose proxy is a depth map on disk; its events are never read."""
    proxy = tmp_path / "proxy.pfm"
    save_depth_pfm(proxy, np.linspace(1.0, 9.0, 48).reshape(SHAPE))
    return SampleRecord(t_d_us=40, events_path=str(tmp_path / "e.evb"), t_start_us=10,
                        t_end_us=40, proxy_path=str(proxy), gt_path=None, mask_path=None,
                        width=SHAPE[1], height=SHAPE[0], empty_slice=False)


def _pred():
    return np.linspace(2.0, 5.0, 48).reshape(SHAPE)


# name -> (parameter name, interval, call(value, tmp_path, record) -> the value
# the site keeps, or None where it keeps none)
REALS = {
    "SimConfig": ("contrast threshold", "(0, inf)",
                  lambda v, tmp, rec: SimConfig(v).contrast_threshold),
    "Provenance": ("lambda", "(-inf, inf)",
                   lambda v, tmp, rec: Provenance("t", lam=v, k_scales=4).lam),
    "loss_total": ("lam", "(-inf, inf)",
                   lambda v, tmp, rec: loss_total(_pred(), _pred() + 1.0, None, lam=v)[0].lam),
    "training_step": ("lam", "(-inf, inf)",
                      lambda v, tmp, rec: training_step(rec, _pred(), lam=v).proxy_report.lam),
    "save_depth_pgm16": ("scale_m_per_unit", "(0, inf)",
                         lambda v, tmp, rec: save_depth_pgm16(tmp / "d.pgm", _pred(), v)),
    "evaluate-lo": ("clamp bound", "[-inf, inf]",
                    lambda v, tmp, rec: evaluate(_pred(), _pred(), clamp=(v, math.inf)) and None),
    "evaluate-hi": ("clamp bound", "[-inf, inf]",
                    lambda v, tmp, rec: evaluate(_pred(), _pred(), clamp=(-math.inf, v)) and None),
}
# the infinities each interval leaves out
EXCLUDED_INFINITIES = {"(0, inf)": (-math.inf, math.inf), "(-inf, inf)": (-math.inf, math.inf),
                       "[-inf, inf]": ()}
# sites where None is a value: the default scale, the format of the suffix
NONE_IS_DEFAULT = {"save_depth_pgm16", "read_events", "write_events"}
BAD_REALS = [(site, value) for site, (_, interval, _) in sorted(REALS.items())
             for value in (True, "0.5", None, math.nan, *EXCLUDED_INFINITIES[interval])
             if not (value is None and site in NONE_IS_DEFAULT)]


@pytest.mark.parametrize(("site", "value"), BAD_REALS)
def test_a_bad_real_is_a_parameter_error_naming_it(site, value, tmp_path, record):
    name, interval, call = REALS[site]
    message = f"{name} must be a real number in {interval}, got {value!r}"
    with pytest.raises(ParameterError, match=re.escape(message)):
        call(value, tmp_path, record)


@pytest.mark.parametrize("site", sorted(REALS))
@pytest.mark.parametrize("numpy_float", [np.float32, np.float64])
def test_a_numpy_real_is_kept_as_a_python_float(site, numpy_float, tmp_path, record):
    kept = REALS[site][2](numpy_float(0.5), tmp_path, record)
    assert kept is None or (type(kept) is float and kept == 0.5)


def test_a_bad_clamp_is_found_before_the_shapes():
    with pytest.raises(ParameterError, match="clamp bound"):
        evaluate(np.ones((2, 2)), np.ones((3, 3)), clamp=("a", "b"))


def test_an_int_lambda_is_stored_as_a_float():
    assert repr(Provenance("t", lam=1, k_scales=4).lam) == "1.0"


def test_a_nan_tolerance_exits_2_with_one_error_line(tmp_path):
    stream = make_random_stream(np.random.default_rng(0), width=16, height=12, n_events=300)
    write_events(stream, tmp_path / "e.evb")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["bench", "--events", str(tmp_path / "e.evb"), "--layouts", "tencode",
                     "--tolerance", "nan"])
    assert code == 2
    assert err.getvalue() == "error: tolerance must be a real number in [0, inf], got nan\n"


# ---------------------------------------------------------------------------
# Choices


@pytest.fixture()
def events_slice():
    stream = make_random_stream(np.random.default_rng(3), width=16, height=12, n_events=500)
    return slice_sbt(stream, int(stream.ts[-1]), 200_000)


# name -> (parameter name, choices, call(value, tmp_path, record, slice))
CHOICES = {
    "encode": ("layout", "voxel|imagelike|tencode", lambda v, tmp, rec, sl: encode(sl, v)),
    "read_events": ("event format", "csv|evb",
                    lambda v, tmp, rec, sl: read_events(tmp / "e.evb", fmt=v)),
    "write_events": ("event format", "csv|evb",
                     lambda v, tmp, rec, sl: write_events(sl, tmp / "w", fmt=v)),
    "training_step": ("mode", "proxy|gt|combined",
                      lambda v, tmp, rec, sl: training_step(rec, _pred(), mode=v)),
    # the format is checked before the manifest is read
    "export_stacks": ("format", "pfm|ppm", lambda v, tmp, rec, sl: export_stacks(None, tmp, v)),
    "aggregate": ("weights", "uniform|per-pixel",
                  lambda v, tmp, rec, sl: aggregate([], weights=v)),
    "SliceSpec": ("slice mode", "sbt|sbn", lambda v, tmp, rec, sl: SliceSpec(v, window_us=5)),
    "EncoderSpec": ("layout", "voxel|imagelike|tencode",
                    lambda v, tmp, rec, sl: EncoderSpec(v, SliceSpec(SliceMode.SBT, 5))),
}


# each site's bad values: a member of another enum among them
BAD_CHOICES = [(site, value) for site in sorted(CHOICES)
               for value in ("bogus", None, 1, True,
                             SliceMode.SBT if "layout" in CHOICES[site] else StackLayout.TENCODE)
               if not (value is None and site in NONE_IS_DEFAULT)]


@pytest.mark.parametrize(("site", "value"), BAD_CHOICES)
def test_a_bad_choice_is_a_parameter_error_naming_it(site, value, tmp_path, record, events_slice):
    name, choices, call = CHOICES[site]
    message = f"{name} must be one of {choices}, got {value!r}"
    with pytest.raises(ParameterError, match=re.escape(message)):
        call(value, tmp_path, record, events_slice)


@pytest.mark.parametrize("layout", list(StackLayout))
def test_encode_takes_a_layout_by_its_value(layout, events_slice):
    by_value = encode(events_slice, layout.value)
    assert by_value.layout is layout
    assert by_value.values.tobytes() == encode(events_slice, layout).values.tobytes()


def test_specs_take_a_mode_and_a_layout_by_their_values():
    spec = EncoderSpec("voxel", SliceSpec("sbn", count=3), bins=2)
    assert spec.layout is StackLayout.VOXEL and spec.slicing.mode is SliceMode.SBN


def test_an_event_format_matches_in_any_case(tmp_path, events_slice):
    write_events(events_slice, tmp_path / "e.bin", fmt="EVB")
    assert read_events(tmp_path / "e.bin", fmt="Evb") == events_slice


# ---------------------------------------------------------------------------
# Flags


# name -> (parameter name, call(value, tmp_path, record) -> the value the site
# keeps); build_manifest checks its flag before it opens the missing recording
BOOLS = {
    "evaluate": ("align", lambda v, tmp, rec: evaluate(_pred(), 2.0 * _pred(), align=v).aligned),
    "build_manifest": ("drop_empty",
                       lambda v, tmp, rec: build_manifest(tmp / "e.evb", tmp, tmp, drop_empty=v)),
    "SampleRecord": ("empty_slice",
                     lambda v, tmp, rec: dataclasses.replace(rec, empty_slice=v).empty_slice),
}


@pytest.mark.parametrize(("site", "value"), [(site, value) for site in sorted(BOOLS)
                                             for value in ("no", "True", 0, 1, None, 1.0)])
def test_a_bad_flag_is_a_parameter_error_naming_it(site, value, tmp_path, record):
    name, call = BOOLS[site]
    with pytest.raises(ParameterError, match=re.escape(f"{name} must be a bool, got {value!r}")):
        call(value, tmp_path, record)


@pytest.mark.parametrize("site", ["evaluate", "SampleRecord"])
def test_a_numpy_bool_is_kept_as_a_python_bool(site, tmp_path, record):
    assert BOOLS[site][1](np.True_, tmp_path, record) is True

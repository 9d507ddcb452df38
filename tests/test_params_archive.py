"""The parameter archive has one layout: the reader takes exactly what the
writer writes, and refuses any other manifest or archive size with a
FormatError before a run steps or writes anything."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdepth.cli import main
from evdepth.errors import ContractError, FormatError
from evdepth.fusion import ModelParams, load_model_params, make_model_params, save_model_params
from evdepth.imgio import write_pfm


@st.composite
def model_params(draw):
    n = draw(st.integers(1, 3))
    scales = (4, 8, 16)[:n]
    channels = tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    sides = draw(st.lists(st.tuples(st.sampled_from((1, 3, 5)), st.sampled_from((1, 3, 5))),
                          min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernels = {s: rng.standard_normal((kh, kw, 2 * c, 4 * c))
               for s, c, (kh, kw) in zip(scales, channels, sides)}
    biases = {s: rng.standard_normal(4 * c) for s, c in zip(scales, channels)}
    projections = {s: rng.standard_normal((c, c_fine))
                   for s, c, c_fine in zip(scales[1:], channels[1:], channels)}
    head_bias = draw(st.floats(allow_nan=False))
    return ModelParams(scales, channels, kernels, biases, projections,
                       rng.standard_normal(channels[0]), head_bias)


@settings(max_examples=60, deadline=None)
@given(params=model_params())
def test_hand_built_params_round_trip(tmp_path_factory, params):
    path = tmp_path_factory.mktemp("archive") / "p.bin"
    save_model_params(params, path)
    loaded = load_model_params(path)
    assert (loaded.scales, loaded.channels) == (params.scales, params.channels)
    for field in ("kernels", "biases", "projections"):
        want, got = getattr(params, field), getattr(loaded, field)
        assert want.keys() == got.keys()
        for s in want:
            assert got[s].dtype == np.float64 and np.array_equal(got[s], want[s])
    assert np.array_equal(loaded.head_weight, params.head_weight)
    assert loaded.head_bias == params.head_bias


# each loads by name at a reader that takes any (name, shape, offset) list;
# make_model_params(seed=0) lists per scale 4, 8, 16 (16, 32, 64 channels) a
# kernel and a bias, then fuse.8.projection (32, 16) at index 6, fuse.16's,
# head.weight (16,) at index 8 and head.bias
MUTATIONS = {
    "entries reordered": lambda m: m["tensors"].reverse(),
    "offset moved by 8": lambda m: m["tensors"][0].update(offset=8),
    "extra tensor listed": lambda m: m["tensors"].append(
        {"name": "extra", "shape": [1], "offset": 0}),
    "byte appended to the .bin": None,
    "(3, 3, 2, 2) kernel at 16 channels": lambda m: m["tensors"][0].update(shape=[3, 3, 2, 2]),
    "transposed projection": lambda m: m["tensors"][6].update(shape=[16, 32]),
    "head weight one short": lambda m: m["tensors"][8].update(shape=[15]),
    "even kernel side": lambda m: m["tensors"][0].update(shape=[2, 3, 32, 64]),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_archive_other_than_the_writers_is_refused_before_any_output(tmp_path, capsys,
                                                                     mutation):
    bin_path = tmp_path / "model.bin"
    save_model_params(make_model_params(seed=0), bin_path)
    if MUTATIONS[mutation] is None:
        bin_path.write_bytes(bin_path.read_bytes() + b"\0")
    else:
        manifest = json.loads(bin_path.with_suffix(".json").read_text())
        MUTATIONS[mutation](manifest)
        bin_path.with_suffix(".json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=str(tmp_path)):
        load_model_params(bin_path)
    _run_is_refused_before_any_output(tmp_path, capsys, bin_path)


def _run_is_refused_before_any_output(tmp_path, capsys, bin_path):
    stacks = tmp_path / "stacks"
    stacks.mkdir()
    write_pfm(stacks / "000000000001.pfm", np.full((32, 32, 3), 0.5))
    out, params_out = tmp_path / "d", tmp_path / "po" / "po.bin"
    assert main(["fusion", "run", "--stacks", str(stacks), "--params", str(bin_path),
                 "--out", str(out), "--params-out", str(params_out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists() and not params_out.parent.exists()


@pytest.mark.parametrize("scales", [(8, 4), (4, 12), (4, 4)], ids=str)
def test_archive_whose_scales_do_not_double_is_refused_before_any_output(tmp_path, capsys,
                                                                         scales):
    """A (4, 8)-scale archive of 2 channels per scale, relabelled by hand: with one
    channel count throughout, every tensor keeps its shape and offset."""
    bin_path = tmp_path / "model.bin"
    save_model_params(make_model_params(seed=0, scales=(4, 8), channels=(2, 2)), bin_path)
    json_path = bin_path.with_suffix(".json")
    manifest = json.loads(json_path.read_text())
    names = [f"lstm.{s}.{part}" for s in scales for part in ("kernel", "bias")]
    names += [f"fuse.{scales[1]}.projection", "head.weight", "head.bias"]
    manifest["scales"] = list(scales)
    for entry, name in zip(manifest["tensors"], names, strict=True):
        entry["name"] = name
    json_path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=re.escape(f"{json_path}: ") + ".*twice the one before"):
        load_model_params(bin_path)
    _run_is_refused_before_any_output(tmp_path, capsys, bin_path)


def test_archives_share_one_layout_whatever_the_kernel_sides(tmp_path):
    """A 5x3 kernel at scale 8 is written, listed and read back in place."""
    params = make_model_params(seed=3, scales=(4, 8), channels=(2, 3))
    kernel = np.random.default_rng(4).standard_normal((5, 3, 6, 12))
    params = dataclasses.replace(params, kernels={**params.kernels, 8: kernel})
    save_model_params(params, tmp_path / "m.bin")
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert [(t["name"], t["shape"], t["offset"]) for t in manifest["tensors"]] == [
        ("lstm.4.kernel", [3, 3, 4, 8], 0), ("lstm.4.bias", [8], 2304),
        ("lstm.8.kernel", [5, 3, 6, 12], 2368), ("lstm.8.bias", [12], 11008),
        ("fuse.8.projection", [3, 2], 11104), ("head.weight", [2], 11152),
        ("head.bias", [1], 11168),
    ]
    assert (tmp_path / "m.bin").stat().st_size == 11176
    assert np.array_equal(load_model_params(tmp_path / "m.bin").kernels[8], kernel)


@pytest.mark.parametrize("field, value", [
    ("kernels", {4: np.zeros((2, 3, 4, 8))}),
    ("biases", {4: np.zeros(7)}),
    ("head_weight", np.zeros((2, 1))),
], ids=["even-kernel-side", "short-bias", "2d-head-weight"])
def test_writer_refuses_params_the_reader_would_refuse(tmp_path, field, value):
    params = dataclasses.replace(make_model_params(seed=0, scales=(4,), channels=(2,)),
                                 **{field: value})
    with pytest.raises(ContractError):
        save_model_params(params, tmp_path / "m.bin")
    assert list(tmp_path.iterdir()) == []


def test_writer_refuses_scales_that_do_not_double(tmp_path):
    params = make_model_params(seed=0, scales=(4, 8), channels=(2, 2))
    params = dataclasses.replace(params, scales=(8, 4), projections={4: params.projections[8]})
    with pytest.raises(ContractError, match=r"twice the one before, got \(8, 4\)"):
        save_model_params(params, tmp_path / "m.bin")
    assert list(tmp_path.iterdir()) == []

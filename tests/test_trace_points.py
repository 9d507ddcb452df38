"""The benchmark's traced run wraps module-level evdepth names by attribute
lookup; a refactor that renames or removes one makes every traced pass
raise. Import evbench/tracing.py as it is and check that its trace points
still resolve, and that the library still calls them through their module,
where the wrappers are."""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "evbench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave evbench/ as is
import tracing  # noqa: E402

sys.dont_write_bytecode = _write_bytecode

from conftest import make_random_stream  # noqa: E402
from evdepth import pipeline  # noqa: E402
from evdepth.config import FUSION_DEFAULTS  # noqa: E402
from evdepth.events import write_events  # noqa: E402
from evdepth.imgio import save_depth_pfm, write_pgm  # noqa: E402


def test_every_trace_point_resolves_to_a_callable():
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.TRACE_POINTS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_fusion_channels_map_one_to_one_onto_scales():
    # the tracer names ConvLSTM spans by the channel count of their input
    assert len(FUSION_DEFAULTS.channels) == len(FUSION_DEFAULTS.scales)
    assert len(set(FUSION_DEFAULTS.channels)) == len(FUSION_DEFAULTS.channels)
    assert len(set(FUSION_DEFAULTS.scales)) == len(FUSION_DEFAULTS.scales)


@pytest.mark.parametrize(("mode", "suffix"), [("sbt", ".evb"), ("sbn", ".csv")])
def test_export_stacks_calls_the_traced_names_through_pipeline(tmp_path, monkeypatch, mode,
                                                               suffix):
    """A call made past ``evdepth.pipeline``'s own name (a direct import, a
    local alias) escapes the wrapper, and its span is silently lost."""
    events = tmp_path / f"events{suffix}"
    write_events(make_random_stream(np.random.default_rng(1), width=8, height=6, n_events=200),
                 events)
    for d in ("frames", "proxy"):
        (tmp_path / d).mkdir()
    for t in (300_000, 600_000, 900_000):
        write_pgm(tmp_path / "frames" / f"{t:09d}.pgm", np.full((6, 8), 90))
        save_depth_pfm(tmp_path / "proxy" / f"{t:09d}.pfm", np.full((6, 8), 2.0))
    manifest = pipeline.build_manifest(events, tmp_path / "frames", tmp_path / "proxy", mode=mode,
                                       count=20 if mode == "sbn" else None, layout="voxel")
    calls = Counter()
    names = ("read_events", "slice_sbt", "slice_sbn", "encode", "save_stack_pfm")
    for name in names:
        def counted(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    written = pipeline.export_stacks(manifest, tmp_path / "stacks")
    n = len(manifest.records)
    assert len(written) == n * manifest.encoder.bins
    assert {name: calls[name] for name in names} == {
        "read_events": int(suffix == ".csv"), "slice_sbt": n * (mode == "sbt"),
        "slice_sbn": n * (mode == "sbn"), "encode": n, "save_stack_pfm": n}

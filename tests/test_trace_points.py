"""The benchmark's traced run wraps module-level evdepth names by attribute
lookup; a refactor that renames or removes one makes every traced pass
raise. Import evbench/tracing.py as it is and check that its trace points
still resolve."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "evbench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave evbench/ as is
import tracing  # noqa: E402

sys.dont_write_bytecode = _write_bytecode

from evdepth.config import FUSION_DEFAULTS  # noqa: E402


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

"""Default hyperparameters and runtime knobs.

This is the one home of the numeric defaults (50 ms SBT window, 5 voxel
bins, loss weight 0.25 over 4 scales, fusion scales/channels and seed,
1e-3 evaluation clamp, 3 bench repetitions and a 0.2 bench tolerance):
every CLI subcommand and library function that falls back to a default
reads it from here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import _int_param

US_PER_MS = 1_000


@dataclass(frozen=True)
class EncoderConfig:
    window_us: int = 50 * US_PER_MS
    voxel_bins: int = 5


@dataclass(frozen=True)
class LossConfig:
    lam: float = 0.25
    k_scales: int = 4


@dataclass(frozen=True)
class FusionConfig:
    scales: tuple[int, ...] = (4, 8, 16)
    channels: tuple[int, ...] = (16, 32, 64)
    seed: int = 0


@dataclass(frozen=True)
class BenchConfig:
    repetitions: int = 3
    tolerance: float = 0.2  # an events/s ratio to the baseline outside 1 +/- this is reported


ENCODER_DEFAULTS = EncoderConfig()
LOSS_DEFAULTS = LossConfig()
FUSION_DEFAULTS = FusionConfig()
BENCH_DEFAULTS = BenchConfig()

DEFAULT_CLAMP_MIN = 1e-3

THREADS_ENV_VAR = "EVDEPTH_THREADS"


def max_threads() -> int:
    """Worker cap for internally parallel operations: EVDEPTH_THREADS, an integer
    >= 1 (anything else is a ParameterError), or 8 when it is unset; at most the
    usable CPU count either way. A value of 1 forces serial execution."""
    raw = os.environ.get(THREADS_ENV_VAR)
    try:
        n = 8 if raw is None else int(raw)
    except ValueError:
        n = raw
    n = _int_param(THREADS_ENV_VAR, n, 1)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(n, cpus or 1)

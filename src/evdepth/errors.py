"""Exception hierarchy shared by the whole toolkit.

Everything raised on purpose derives from EvDepthError so the CLI can map
data/contract problems to exit code 2 while plain OSError stays exit code 3.
``_int_param``, ``_real_param``, ``_bool_param`` and ``_choice_param`` are the
one check of an integer, a real, a flag and a choice parameter; they live here,
where every module can import them without a cycle.
"""

import numbers
import operator

import numpy as np


class EvDepthError(Exception):
    """Base class for all toolkit errors."""


class FormatError(EvDepthError):
    """Malformed file content (bad header, bad record, bad field value)."""


class OrderingError(EvDepthError):
    """Event timestamps regress where a sorted stream is required."""


class BoundsError(EvDepthError):
    """Pixel coordinate outside the sensor grid."""


class ParameterError(EvDepthError):
    """Invalid parameter value (e.g. zero bins, zero window)."""


class DegenerateIntervalError(EvDepthError):
    """Zero-length slice interval where a positive length is required."""


class DomainError(EvDepthError):
    """Value outside the mathematical domain (e.g. non-positive intensity)."""


class InsufficientInputError(EvDepthError):
    """Not enough input to perform the operation (e.g. a single frame)."""


class InsufficientSupportError(EvDepthError):
    """Too few valid pixels for the requested computation."""


class ContractError(EvDepthError):
    """Shape or structural mismatch between cooperating arguments."""


class BuildError(EvDepthError):
    """Dataset manifest construction failed (missing or inconsistent inputs)."""


def _shown(value) -> str:
    """repr(value), or the bit length of an int too long for repr() (4,301 digits)."""
    big = isinstance(value, int) and value.bit_length() > 256
    return f"a {value.bit_length()}-bit integer" if big else repr(value)


def _int_param(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as a Python int, or a ParameterError naming ``name`` unless it
    is an integer (a numpy one too, but not a bool) in [lo, hi], or at least
    ``lo`` when ``hi`` is None."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < lo or (hi is not None and n > hi):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ParameterError(f"{name} must be an integer {bounds}, got {_shown(value)}")
    return n


def _real_param(name: str, value, lo: float, hi: float, closed: bool = False) -> float:
    """``value`` as a Python float, or a ParameterError naming ``name`` unless it
    is a real number (a numpy one too, but not a bool or NaN) in (lo, hi), or
    in [lo, hi] when ``closed``."""
    try:
        x = None if isinstance(value, bool) or not isinstance(value, numbers.Real) else float(value)
    except OverflowError:  # an int past float range
        x = None
    if x is None or not (lo <= x <= hi if closed else lo < x < hi):
        bounds = f"[{lo}, {hi}]" if closed else f"({lo}, {hi})"
        raise ParameterError(f"{name} must be a real number in {bounds}, got {_shown(value)}")
    return x


def _bool_param(name: str, value) -> bool:
    """``value`` as a Python bool, or a ParameterError naming ``name`` unless it
    is a bool (a numpy one too): "no", 0 and None are not flags."""
    if not isinstance(value, (bool, np.bool_)):
        raise ParameterError(f"{name} must be a bool, got {_shown(value)}")
    return bool(value)


def _choice_param(name: str, value, choices):
    """The one of ``choices`` that ``value`` is, or a ParameterError naming
    ``name``. ``choices`` is a tuple of strings, or an Enum with string values,
    whose members are matched by identity or by value."""
    values = [getattr(choice, "value", choice) for choice in choices]
    for choice, v in zip(choices, values):
        if value is choice or (isinstance(value, str) and value == v):
            return choice
    raise ParameterError(f"{name} must be one of {'|'.join(values)}, got {value!r}")

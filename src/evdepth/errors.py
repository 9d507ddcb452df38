"""Exception hierarchy shared by the whole toolkit.

Everything raised on purpose derives from EvDepthError so the CLI can map
data/contract problems to exit code 2 while plain OSError stays exit code 3.
``_int_param`` is the one check of an integer parameter; it lives here, where
every module can import it without a cycle.
"""

import operator


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


def _int_param(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as a Python int, or a ParameterError naming ``name`` unless it
    is an integer (a numpy one too, but not a bool) in [lo, hi], or at least
    ``lo`` when ``hi`` is None."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < lo or (hi is not None and n > hi):
        big = n is not None and n.bit_length() > 256  # repr() refuses 4,301 digits
        shown = f"a {n.bit_length()}-bit integer" if big else repr(value)
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ParameterError(f"{name} must be an integer {bounds}, got {shown}")
    return n

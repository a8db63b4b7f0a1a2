"""Exception types shared across the package, and the number checks that raise them."""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["ConfigError", "InvariantViolation", "StructureError"]


class ConfigError(ValueError):
    """A user-supplied configuration value failed validation."""


class StructureError(ValueError):
    """A graph or operator violates a structural requirement."""


class InvariantViolation(RuntimeError):
    """A numerical invariant (trace, positivity, normalization) broke beyond tolerance."""


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is none."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(value, what: str = "step count") -> None:
    """Raise ConfigError unless value, a step count or a seed, is a nonnegative integer."""
    if not (_is_integer(value) and value >= 0):
        raise ConfigError(f"{what} must be nonnegative and an integer, got {value!r}")


def _check_real(value, what: str, lo: float = -math.inf, hi: float = math.inf,
                lo_open: bool = False) -> None:
    """Raise ConfigError unless value is a real number that a float holds, in [lo, hi], or
    (lo, hi] with lo_open; a bool or a string is no number, and NaN and Inf are refused."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and (value > lo if lo_open else value >= lo) and value <= hi
            and abs(value) <= sys.float_info.max):
        left = "(" if lo_open or lo == -math.inf else "["
        right = ")" if hi == math.inf else "]"
        raise ConfigError(f"{what} must lie in {left}{lo:g}, {hi:g}{right}, got {value!r}")


def _as_floats(values, what: str) -> np.ndarray:
    """values as a float array; StructureError, naming what, if they are no real numbers."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise StructureError(f"{what} must be an array of real numbers") from None

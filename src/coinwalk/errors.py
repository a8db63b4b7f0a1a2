"""Exception types shared across the package, and the integer checks that raise them."""

from __future__ import annotations

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

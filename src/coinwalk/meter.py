"""Coin-meter coupling of tunable strength and its induced coin channel.

A two-level meter is prepared in |0> and coupled to the coin qubit by a
unitary W(beta) built from a fixed sequence of five rotation factors,
with the strength knob beta in [0, 1]. Acting on (gamma |0> + eta |1>)
(x) |0>_m the coupling produces

    gamma |0>|0>_m + eta |1> (cos(beta pi/2) |0>_m + sin(beta pi/2) |1>_m),

so the meter ends orthogonal to its start exactly when the coin is |1>
and the coupling is strong. Tracing out the meter multiplies the coin's
off-diagonal elements by cos(beta pi/2) and leaves the diagonal alone:
a pure dephasing channel in the coin basis. beta=0 is the identity,
beta=1 a projective coin measurement.

The generator sequence fixes the coupling only up to internal phase
conventions. This module picks the convention in which the coin-|0>
branch carries no phase (a final meter-axis phase rotation is folded
into the product). The alternative conventions differ by a meter-local
phase only, which cancels in every probability and in the induced
channel; with this choice the branch form above holds entrywise.

Reading the meter in its computational basis turns each outcome into a
Kraus operator on the coin: outcome 0 leaves diag(1, cos(beta pi/2)),
outcome 1 leaves diag(0, sin(beta pi/2)). Outcome 1 therefore certifies
the coin was |1>, which is what makes the record a which-path record.

Every such Kraus operator is diagonal in the coin basis, so a Kraus
family is given by its diagonals alone: a complex (m, d) array whose
row i is the diagonal of K_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _check_real, _is_integer
from .state import partial_trace_meter

__all__ = [
    "MeterCoupling",
    "build_meter_unitary",
    "dephasing_kraus",
    "distinguishability",
    "induced_coin_channel",
    "uniform_dephasing_kraus",
    "visibility",
]

_ID2 = np.eye(2, dtype=complex)
# Interaction generators. The y and z axes enter with the sign that makes
# the ladder operators |1><0| and |0><1| raise and lower the coin.
_COIN_X = np.array([[0, 1], [1, 0]], dtype=complex)
_COIN_Y = np.array([[0, 1j], [-1j, 0]], dtype=complex)
_METER_X = _COIN_X
_METER_Y = _COIN_Y
_METER_Z = np.diag([-1.0, 1.0]).astype(complex)
# Folds the leftover phase of the factor product onto the meter axis so
# that the coin-|0> branch comes out phase-free (see module docstring).
_PHASE_FIX = np.kron(_ID2, np.diag([-1j, 1.0]))


def _rotation(theta: float, generator: np.ndarray) -> np.ndarray:
    """exp(i theta G) in closed form for a generator with G^2 = I."""
    dim = generator.shape[0]
    return math.cos(theta) * np.eye(dim, dtype=complex) + 1j * math.sin(theta) * generator


@dataclass(frozen=True)
class MeterCoupling:
    """The 4 x 4 coupling unitary, coin factor left, meter factor right."""

    beta: float
    matrix: np.ndarray


def _check_beta(beta: float) -> None:
    _check_real(beta, "measurement strength beta", 0.0, 1.0)


def build_meter_unitary(beta: float) -> MeterCoupling:
    """Assemble the coupling unitary W(beta) from its rotation factors.

    The five factors are applied right to left: prepare the meter phase,
    tilt the meter by an angle that shrinks as beta grows, phase both
    registers, apply the coin-meter coupling rotation of angle
    beta pi/4, then undo the initial tilts.
    """
    _check_beta(beta)
    f1 = np.kron(_rotation(math.pi / 4, _COIN_Y), _rotation(-math.pi / 4, _METER_X))
    f2 = _rotation(-beta * math.pi / 4, np.kron(_COIN_X, _METER_X))
    f3 = np.kron(_rotation(-math.pi / 4, _COIN_Y), _rotation(-math.pi / 4, _METER_Z))
    f4 = np.kron(_ID2, _rotation(-math.pi * (1 - beta) / 4, _METER_Y))
    f5 = np.kron(_ID2, _rotation(-math.pi / 4, _METER_Z))
    return MeterCoupling(beta, _PHASE_FIX @ f1 @ f2 @ f3 @ f4 @ f5)


def induced_coin_channel(coupling: MeterCoupling, coin_rho: np.ndarray) -> np.ndarray:
    """Couple a fresh meter to the coin, then trace the meter out.

    Computes W (rho (x) |0><0|_m) W^dagger followed by the partial
    trace, which multiplies the coin off-diagonals by cos(beta pi/2).
    """
    meter0 = np.zeros((2, 2), dtype=complex)
    meter0[0, 0] = 1.0
    joint = np.kron(np.asarray(coin_rho, dtype=complex), meter0)
    evolved = coupling.matrix @ joint @ coupling.matrix.conj().T
    return partial_trace_meter(evolved)


def dephasing_kraus(beta: float) -> np.ndarray:
    """Diagonals of the Kraus pair of the coin channel, one row per meter outcome.

    Row 0 is the diagonal (1, cos(beta pi/2)) of K_0, row 1 the diagonal
    (0, sin(beta pi/2)) of K_1. Completeness K_0^dag K_0 + K_1^dag K_1 = I
    holds exactly. The pair reproduces the traced meter model channel
    for every coin state.
    """
    _check_beta(beta)
    c = math.cos(beta * math.pi / 2)
    s = math.sin(beta * math.pi / 2)
    return np.array([[1.0, c], [0.0, s]], dtype=complex)


def uniform_dephasing_kraus(beta: float, dim: int) -> np.ndarray:
    """Diagonals of the dephasing Kraus family for a coin of any dimension.

    The two-level meter construction has no given analogue for a
    many-port coin, so for dim > 2 this package substitutes the channel
    rho -> f rho + (1 - f) diag(rho) with f = cos(beta pi/2): every
    off-diagonal element decays by the same factor as in the two-level
    case and the diagonal is untouched. The operators are sqrt(f) I plus
    one sqrt(1-f) projector per coin direction, so the (dim + 1, dim)
    array of diagonals has rows sqrt(f) (1, ..., 1) and sqrt(1-f) e_k.
    Outcome 0 means no information gained, outcome k >= 1 means the coin
    was seen at direction k-1.
    """
    _check_beta(beta)
    if not (_is_integer(dim) and dim >= 1):
        raise ConfigError(f"coin dimension must be a positive integer, got {dim!r}")
    f = math.cos(beta * math.pi / 2)
    return np.vstack([
        np.full(dim, math.sqrt(f)), math.sqrt(1.0 - f) * np.eye(dim)
    ]).astype(complex)


def visibility(beta: float) -> float:
    """Interference visibility cos(beta pi/2) surviving one measured step."""
    _check_beta(beta)
    return math.cos(beta * math.pi / 2)


def distinguishability(beta: float) -> float:
    """Which-path knowledge sin(beta pi/2); squares with visibility to 1."""
    _check_beta(beta)
    return math.sin(beta * math.pi / 2)

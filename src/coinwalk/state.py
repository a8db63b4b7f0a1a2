"""State representations on the walker-and-coin space.

The joint space has dimension N*d. Basis vectors are indexed by
(vertex j, port k) with flat index j*d + k, vertex-major, so each
vertex owns a contiguous d-dimensional coin block. Pure states are
complex vectors, mixed states are density matrices, and both are plain
numpy arrays; the functions here validate and convert between them.
DEFAULT_TOLERANCES holds every numerical bound the package's guards enforce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, StructureError
from .graph import PortGraph


@dataclass(frozen=True)
class Tolerances:
    """Every numerical bound the package enforces: each guard reads its field of
    DEFAULT_TOLERANCES, and a sidecar records asdict(DEFAULT_TOLERANCES)."""

    norm: float = 1e-10  # |<psi|psi> - 1| of an evolved pure state
    trace: float = 1e-10  # |tr rho - 1| of an evolved density matrix
    marginal_clamp: float = 1e-12  # a marginal entry this far below 0 is clamped to 0
    branch_sum: float = 1e-10  # |sum of a step's Born weights - 1|, per sample or branch
    draw_sum: float = float(np.sqrt(np.finfo(float).eps))  # Generator.choice's |sum of weights - 1|
    unitarity: float = 1e-10  # largest entry of |U^dagger U - I| of a coin block
    negligible_norm: float = 1e-14  # least squared norm a drawn branch or vertex may have
    viable_weight: float = 1e-28  # draw weights at or below this are never drawn


DEFAULT_TOLERANCES = Tolerances()


def basis_state(graph: PortGraph, vertex: int, port: int) -> np.ndarray:
    """Pure state concentrated on one (vertex, port) basis vector.

    The pair must be a used half-edge of the graph; amplitudes on
    unused ports would be invisible to the shift and are rejected.
    """
    if not graph.has_port(vertex, port):
        raise StructureError(
            f"({vertex},{port}) is not a used (vertex, port) pair of this graph"
        )
    psi = np.zeros(graph.num_vertices * graph.degree, dtype=complex)
    psi[vertex * graph.degree + port] = 1.0
    return psi


# Every guard below is written as `not (value within bound)`, so that a
# NaN, which fails every comparison, is rejected rather than let through.

def check_pure(psi: np.ndarray) -> None:
    dev = abs(np.vdot(psi, psi).real - 1.0)
    if not dev <= DEFAULT_TOLERANCES.norm:
        raise InvariantViolation(f"pure state norm deviates from 1 by {dev:.3e}")


def check_trace(rho: np.ndarray) -> None:
    """Verify a finite diagonal of unit trace, an O(N d) check of a density matrix."""
    _check_unit_trace(np.diagonal(rho).real)


def _check_unit_trace(diag: np.ndarray) -> None:
    """check_trace on a density matrix's real diagonal, in any shape.

    The diagonal is read once, for the trace; a NaN or Inf entry makes
    the trace fail, and only then are the entries looked at.
    """
    tr = diag.sum()
    if not abs(tr - 1.0) <= DEFAULT_TOLERANCES.trace:
        if not np.isfinite(diag).all():
            raise InvariantViolation("density matrix has a non-finite diagonal entry")
        raise InvariantViolation(f"density matrix trace {tr!r} is not 1")


def to_density(psi: np.ndarray) -> np.ndarray:
    """Rank-one density matrix of a normalized pure state."""
    check_pure(psi)
    return np.outer(psi, psi.conj())


def position_marginal(rho: np.ndarray, degree: int) -> np.ndarray:
    """Probability of finding the walker at each vertex.

    Sums the diagonal over each vertex's coin block of the given
    dimension. Tiny negative entries from roundoff (within
    DEFAULT_TOLERANCES.marginal_clamp) are clamped to zero; anything more negative
    indicates a logic error upstream and raises, as do NaN and Inf.
    """
    return _clamped_marginal(np.diagonal(rho).real.reshape(-1, degree).sum(axis=1))


def _clamped_marginal(probs: np.ndarray) -> np.ndarray:
    """position_marginal's guard and clamp on the per-vertex sums of a diagonal, in place."""
    lo = probs.min()
    # a NaN fails both comparisons, -Inf the first and +Inf the second
    if not (lo >= -DEFAULT_TOLERANCES.marginal_clamp and probs.max() < np.inf):
        if not np.isfinite(probs).all():
            raise InvariantViolation("marginal has a non-finite entry")
        raise InvariantViolation(f"marginal entry {lo:.3e} below the clamp threshold")
    return np.maximum(probs, 0.0, out=probs)


def _squared_moduli(x: np.ndarray) -> np.ndarray:
    """re**2 + im**2 of every entry of x, the package's one rule for |x|**2."""
    sq = x.real ** 2
    sq += x.imag ** 2
    return sq


def pure_position_marginal(psi: np.ndarray, degree: int) -> np.ndarray:
    """Position distribution of a pure state, squared amplitudes by vertex.

    Each vertex adds its d squared amplitudes in coin order. Below 8 terms
    numpy's row sum adds in that order too, and adding the d columns gives
    the same bits in fewer passes; from 8 terms the row sum groups them
    otherwise, so it is kept there.
    """
    sq = _squared_moduli(psi).reshape(-1, degree)
    if degree >= 8:
        return sq.sum(axis=1)
    total = sq[:, 0].copy()
    for a in range(1, degree):
        total += sq[:, a]
    return total


def partial_trace_meter(joint: np.ndarray) -> np.ndarray:
    """Trace out the meter qubit, the rightmost factor of a (system x meter) state.

    Parameters
    ----------
    joint : ndarray
        Density matrix on system (x) meter, ordered system-major.
    """
    total = joint.shape[0]
    if joint.shape != (total, total) or total % 2 != 0:
        raise StructureError(f"joint dimension {joint.shape} is not square with a factor of 2")
    reshaped = joint.reshape(total // 2, 2, total // 2, 2)
    return np.trace(reshaped, axis1=1, axis2=3)

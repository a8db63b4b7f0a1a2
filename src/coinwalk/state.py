"""State representations on the walker-and-coin space.

The joint space has dimension N*d. Basis vectors are indexed by
(vertex j, port k) with flat index j*d + k, vertex-major, so each
vertex owns a contiguous d-dimensional coin block. Pure states are
complex vectors, mixed states are density matrices, and both are plain
numpy arrays; the functions here validate and convert between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, StructureError
from .graph import PortGraph


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used by validators across the package.

    Tests can pass a tightened instance; the defaults match the
    documented contracts.
    """

    norm: float = 1e-10
    trace: float = 1e-10
    hermiticity: float = 1e-10
    eigenvalue: float = 1e-10
    marginal_clamp: float = 1e-12


DEFAULT_TOLERANCES = Tolerances()


def flat_index(graph: PortGraph, vertex: int, port: int) -> int:
    """Flat index of basis vector (vertex, port) in the joint space."""
    return vertex * graph.degree + port


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
    psi[flat_index(graph, vertex, port)] = 1.0
    return psi


# Every guard below is written as `not (value within bound)`, so that a
# NaN, which fails every comparison, is rejected rather than let through.

def check_pure(psi: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> None:
    dev = abs(np.vdot(psi, psi).real - 1.0)
    if not dev <= tol.norm:
        raise InvariantViolation(f"pure state norm deviates from 1 by {dev:.3e}")


def check_density(rho: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> None:
    """Verify Hermiticity, unit trace, and positivity within tolerance."""
    herm = np.max(np.abs(rho - rho.conj().T))
    if not herm <= tol.hermiticity:
        raise InvariantViolation(f"density matrix not Hermitian: deviation {herm:.3e}")
    check_trace(rho, tol)
    lo = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if not lo >= -tol.eigenvalue:
        raise InvariantViolation(f"density matrix has eigenvalue {lo:.3e} below 0")


def check_trace(rho: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> None:
    """Verify a finite diagonal of unit trace, the O(N d) part of check_density."""
    diag = np.diagonal(rho).real
    if not np.isfinite(diag).all():
        raise InvariantViolation("density matrix has a non-finite diagonal entry")
    tr = diag.sum()
    if not abs(tr - 1.0) <= tol.trace:
        raise InvariantViolation(f"density matrix trace {tr!r} is not 1")


def to_density(psi: np.ndarray) -> np.ndarray:
    """Rank-one density matrix of a normalized pure state."""
    check_pure(psi)
    return np.outer(psi, psi.conj())


def position_marginal(
    rho: np.ndarray, degree: int, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Probability of finding the walker at each vertex.

    Sums the diagonal over each vertex's coin block of the given
    dimension. Tiny negative entries from roundoff (within
    tol.marginal_clamp) are clamped to zero; anything more negative
    indicates a logic error upstream and raises, as do NaN and Inf.
    """
    diag = np.real(np.diagonal(rho)).reshape(-1, degree)
    probs = diag.sum(axis=1)
    if not np.all(np.isfinite(probs)):
        raise InvariantViolation("marginal has a non-finite entry")
    lo = probs.min()
    if not lo >= -tol.marginal_clamp:
        raise InvariantViolation(f"marginal entry {lo:.3e} below the clamp threshold")
    return np.clip(probs, 0.0, None)


def pure_position_marginal(psi: np.ndarray, degree: int) -> np.ndarray:
    """Position distribution of a pure state, squared amplitudes by vertex."""
    return (np.abs(psi) ** 2).reshape(-1, degree).sum(axis=1)


def partial_trace_meter(joint: np.ndarray, meter_dim: int = 2) -> np.ndarray:
    """Trace out the rightmost tensor factor of a (system x meter) state.

    Parameters
    ----------
    joint : ndarray
        Density matrix on system (x) meter, ordered system-major.
    meter_dim : int
        Dimension of the traced factor.
    """
    total = joint.shape[0]
    if joint.shape != (total, total) or total % meter_dim != 0:
        raise StructureError(
            f"joint dimension {joint.shape} is not square with a factor of {meter_dim}"
        )
    sys_dim = total // meter_dim
    reshaped = joint.reshape(sys_dim, meter_dim, sys_dim, meter_dim)
    return np.trace(reshaped, axis1=1, axis2=3)

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

from .errors import ConfigError, InvariantViolation, StructureError, _is_integer
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
    unused ports would be invisible to the shift and are rejected. A
    vertex or port that is no integer raises ConfigError.
    """
    for value, what in ((vertex, "vertex"), (port, "port")):
        if not _is_integer(value):
            raise ConfigError(f"{what} must be an integer, got {value!r}")
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
    """check_trace on a density matrix's real diagonal, in any shape, or on its sums by vertex.

    The diagonal is read once, for the trace; a NaN or Inf entry makes
    the trace fail, and only then are the entries looked at.
    """
    tr = np.add.reduce(diag, axis=None)
    if not abs(tr - 1.0) <= DEFAULT_TOLERANCES.trace:
        if not np.isfinite(diag).all():
            raise InvariantViolation("density matrix has a non-finite diagonal entry")
        raise InvariantViolation(f"density matrix trace {tr!r} is not 1")


def to_density(psi: np.ndarray) -> np.ndarray:
    """Rank-one density matrix of a normalized pure state."""
    psi = np.asarray(psi)
    check_pure(psi)
    return np.outer(psi, psi.conj())


def position_marginal(rho: np.ndarray, degree: int) -> np.ndarray:
    """Probability of finding the walker at each vertex.

    Sums the diagonal over each vertex's coin block of the given
    dimension. Tiny negative entries from roundoff (within
    DEFAULT_TOLERANCES.marginal_clamp) are clamped to zero; anything more negative
    indicates a logic error upstream and raises, as do NaN and Inf. A rho
    that is no square matrix of a side that degree divides raises
    StructureError.
    """
    shape = np.shape(rho)
    if not (_is_integer(degree) and degree > 0 and len(shape) == 2 and shape[0] == shape[1]
            and shape[0] % degree == 0):
        raise StructureError(f"density matrix needs shape (N*d, N*d) for an integer d >= 1, "
                             f"got shape {shape} and d = {degree!r}")
    probs = np.diagonal(rho).real.reshape(-1, degree).sum(axis=1)
    lo = probs.min()
    # a NaN fails both comparisons, -Inf the first and +Inf the second
    if not (lo > -np.inf and probs.max() < np.inf):
        raise InvariantViolation("marginal has a non-finite entry")
    return _clamp(probs, lo)


def _clamp(probs: np.ndarray, lo: float) -> np.ndarray:
    """Finite per-vertex sums of least entry lo, clamped to 0 in place if within the bound."""
    if lo > 0.0:
        return probs
    if not lo >= -DEFAULT_TOLERANCES.marginal_clamp:
        raise InvariantViolation(f"marginal entry {lo:.3e} below the clamp threshold")
    return np.maximum(probs, 0.0, out=probs)


def _squared_moduli(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """re**2 + im**2 of every entry of x, the package's one rule for |x|**2.

    scratch, when given, is C-ordered memory whose values are spent and
    which holds at least x.size complex numbers: the squares of the real
    and the imaginary parts are formed in it, one after the other, and the
    result is the first of them. Otherwise both are new arrays.
    """
    sq = imag_sq = None
    if scratch is not None:
        # np.ndarray over a buffer is one call, where views of views are several
        sq = np.ndarray(x.shape, float, scratch)
        imag_sq = np.ndarray(x.shape, float, scratch, sq.nbytes)
    sq = np.square(x.real, out=sq)
    sq += np.square(x.imag, out=imag_sq)
    return sq


def pure_position_marginal(psi: np.ndarray, degree: int) -> np.ndarray:
    """Position distribution of a pure state, squared amplitudes by vertex.

    psi is one state of N*d amplitudes, or a stack of them along its last
    axis, and the vertices of every state come in order. A psi that holds
    no numbers, or whose last axis degree does not divide, raises
    StructureError.
    """
    psi = np.asarray(psi)
    shape = psi.shape
    if not (_is_integer(degree) and degree > 0 and psi.dtype.kind in "iufc" and len(shape) >= 1
            and shape[-1] % degree == 0):
        raise StructureError(f"pure state needs N*d amplitudes of numbers for an integer d >= 1, "
                             f"got {psi.dtype} of shape {shape} and d = {degree!r}")
    return _pure_position_marginal(psi, degree)


def _pure_position_marginal(psi: np.ndarray, degree: int) -> np.ndarray:
    """pure_position_marginal unchecked, for an array whose size degree divides.

    Each vertex adds its d squared amplitudes in coin order (_vertex_sums).
    """
    return _vertex_sums(_squared_moduli(psi).reshape(-1, degree))


def _vertex_sums(sq: np.ndarray) -> np.ndarray:
    """Each vertex's d squared amplitudes, the last axis of sq, added in coin order.

    Below 8 terms numpy's row sum adds in that order too, and adding the
    d columns gives the same bits in fewer passes; from 8 terms the row sum
    groups them otherwise, so it is kept there.
    """
    if sq.shape[-1] >= 8:
        return sq.sum(axis=-1)
    total = sq[..., 0].copy()
    for a in range(1, sq.shape[-1]):
        total += sq[..., a]
    return total


def partial_trace_meter(joint: np.ndarray) -> np.ndarray:
    """Trace out the meter qubit, the rightmost factor of a (system x meter) state.

    Parameters
    ----------
    joint : ndarray
        Density matrix on system (x) meter, ordered system-major.
    """
    joint = np.asarray(joint)
    total = joint.shape[0] if joint.ndim else 1
    if joint.shape != (total, total) or total % 2 != 0:
        raise StructureError(f"joint dimension {joint.shape} is not square with a factor of 2")
    reshaped = joint.reshape(total // 2, 2, total // 2, 2)
    return np.trace(reshaped, axis1=1, axis2=3)

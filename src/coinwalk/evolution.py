"""Walk evolution: step composition, density runs, and trajectory sampling.

A single time step applies, in order: the coin unitary, the coin
measurement channel (when a measurement strength is configured),
optional dephasing between vertices, and the shift. The vertex
dephasing may instead be placed after the shift; both orders are
conventions and the choice is recorded with every run.

Every part of the step is applied in its structured form. The coin is a
stack of per-vertex d x d blocks, applied as a batched product on the
(N, d, ...) view of a state. The coin measurement Kraus operators are
diagonal in the coin basis, and vertex dephasing only scales the blocks
between different vertices, so on a density matrix both are one
elementwise (Schur) product with a d x d coin mask, and on a pure state
each Kraus operator is an elementwise product. The shift is a
permutation. The dense full-space operators are built only by
assembled_step_operators and vertex_dephasing, which serve as reference
implementations.

A walk of t steps only reaches the vertices within t shifts of psi0's
support, its light cone. run, marginal_history and the marginals that
analysis reads evolve the walk on that cone alone and put the result
back in place, so their memory and time scale with the cone rather
than with N; a cone that holds every vertex is the whole walk, run
as it is. evolve, cp_step and unitary_step always act on the states
they are given, and trajectories are never restricted.

Trajectory samples advance together as the rows of one (S, N*d) array,
with the same coin product and elementwise Kraus branches.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .coin import CoinSpec, block_diagonal, default_coin_spec, embedded_blocks
from .errors import ConfigError, InvariantViolation, StructureError
from .graph import PortGraph
from .meter import dephasing_kraus, uniform_dephasing_kraus
from .shift import ShiftOperator, build_shift
from .state import (
    check_pure,
    check_trace,
    pure_position_marginal,
    position_marginal,
    to_density,
)

__all__ = [
    "StepMap",
    "TrajectoryRecord",
    "assembled_step_operators",
    "cp_step",
    "enumerate_branches",
    "evolve",
    "make_step",
    "marginal_history",
    "reconstruct_cycle_path",
    "run",
    "sample_trajectories",
    "sample_trajectory",
    "unitary_step",
    "vertex_dephasing",
]

PLACEMENTS = ("before-shift", "after-shift")
BRANCH_SUM_TOL = 1e-10
# the weight-sum tolerance of Generator.choice, kept by _inverse_cdf
DRAW_SUM_TOL = math.sqrt(np.finfo(float).eps)
# live amplitudes of one block of samples that sample_trajectories
# advances together: 16 samples of an N*d = 256 walk
SAMPLE_BLOCK_AMPLITUDES = 4096


@dataclass(frozen=True)
class StepMap:
    """Everything needed to advance the walk by one time step.

    coin is the (N, d, d) stack of per-vertex coin blocks, as returned by
    coin.embedded_blocks. coin_kraus holds the d x d Kraus operators of
    the coin measurement, which must be diagonal in the coin basis.
    """

    coin: np.ndarray
    shift: ShiftOperator
    coin_kraus: tuple[np.ndarray, ...] | None = None
    vertex_dephasing: float = 0.0
    placement: str = "before-shift"
    beta: float = 0.0

    def __post_init__(self) -> None:
        n, d = self.shift.num_vertices, self.shift.degree
        if np.shape(self.coin) != (n, d, d):
            raise StructureError(
                f"coin must be the ({n}, {d}, {d}) stack of vertex blocks, "
                f"got shape {np.shape(self.coin)}"
            )
        for k in self.coin_kraus or ():
            if np.shape(k) != (d, d) or np.count_nonzero(k - np.diag(np.diagonal(k))):
                raise StructureError(
                    f"coin Kraus operators must be {d}x{d} and diagonal in the coin basis"
                )

    @property
    def is_unitary(self) -> bool:
        return self.coin_kraus is None and self.vertex_dephasing == 0.0


def make_step(
    graph: PortGraph,
    coin_spec: CoinSpec | None = None,
    shift: ShiftOperator | None = None,
    beta: float = 0.0,
    vertex_p: float = 0.0,
    placement: str = "before-shift",
    phi: float = math.pi / 2,
) -> StepMap:
    """Assemble a StepMap with the package defaults filled in.

    With beta > 0 the coin measurement Kraus family is attached: the
    two-outcome meter pair when the coin is two-sided, the uniform
    dephasing family otherwise.
    """
    if placement not in PLACEMENTS:
        raise ConfigError(f"placement must be one of {PLACEMENTS}, got {placement!r}")
    if not 0.0 <= vertex_p <= 1.0:
        raise ConfigError(f"vertex dephasing strength must lie in [0, 1], got {vertex_p}")
    spec = coin_spec if coin_spec is not None else default_coin_spec(graph, phi)
    blocks = np.stack(embedded_blocks(graph, spec))
    shift_op = shift if shift is not None else build_shift(graph)
    kraus = None
    if beta > 0.0:
        if graph.degree == 2:
            kraus = dephasing_kraus(beta).operators
        else:
            kraus = uniform_dephasing_kraus(beta, graph.degree)
    return StepMap(blocks, shift_op, kraus, vertex_p, placement, beta)


# ----------------------------------------------------------------------
# structured pieces of a step

def _apply_coin(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Block-diagonal coin times x, whose first axis has length N*d.

    Vertex j's block acts on rows j*d..j*d+d-1, so the product is one
    batched matmul on the (N, d, ...) view of x.
    """
    n, d, _ = blocks.shape
    return (blocks @ x.reshape(n, d, -1)).reshape(x.shape)


def _kraus_diagonals(step: StepMap) -> np.ndarray:
    """(m, d) array: row i is the diagonal of coin Kraus operator i."""
    return np.array([np.diagonal(k) for k in step.coin_kraus])


def _coin_mask(step: StepMap) -> np.ndarray:
    """The coin measurement channel as a d x d Schur factor.

    For diagonal Kraus operators k_m, sum_m K_m rho K_m^dagger scales
    coin entry (a, b) by sum_m k_m[a] conj(k_m[b]); all ones without a
    measurement.
    """
    if step.coin_kraus is None:
        d = step.shift.degree
        return np.ones((d, d))
    k = _kraus_diagonals(step)
    return k.T @ k.conj()


def _schur(rho: np.ndarray, coin_mask: np.ndarray, p: float) -> np.ndarray:
    """Scale rho[(i, a), (j, b)] by coin_mask[a, b], and by (1 - p) when i != j.

    Works on the (N, d, N, d) view of rho, in place when that view
    shares rho's memory, and returns the scaled matrix.
    """
    d = coin_mask.shape[0]
    n = rho.shape[0] // d
    rho4 = rho.reshape(n, d, n, d)
    if p == 0.0:
        rho4 *= coin_mask[:, None, :]
    else:
        v = np.arange(n)
        same_vertex = rho4[v, :, v, :] * coin_mask
        rho4 *= (1.0 - p) * coin_mask[:, None, :]
        rho4[v, :, v, :] = same_vertex
    return rho4.reshape(rho.shape)


# ----------------------------------------------------------------------
# deterministic evolution

def unitary_step(psi: np.ndarray, step: StepMap) -> np.ndarray:
    """Advance a pure state one step: shift after coin."""
    if not step.is_unitary:
        raise StructureError(
            "unitary_step requires a StepMap without measurement options; "
            "use cp_step on a density matrix instead"
        )
    return step.shift.apply(_apply_coin(step.coin, psi))


def vertex_dephasing(rho: np.ndarray, p: float, degree: int) -> np.ndarray:
    """Scale matrix elements between different vertices by (1 - p).

    Coin coherences within a vertex are untouched, so the diagonal and
    the trace are exactly preserved. p=0 is the identity; p=1 removes
    all position coherence. This dense form is the reference that
    cp_step's structured channel is tested against.
    """
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"vertex dephasing strength must lie in [0, 1], got {p}")
    if p == 0.0:
        return rho.copy()
    n = rho.shape[0] // degree
    same_vertex = np.kron(np.eye(n), np.ones((degree, degree)))
    return rho * ((1.0 - p) + p * same_vertex)


def cp_step(rho: np.ndarray, step: StepMap) -> np.ndarray:
    """Advance a density matrix one step through the full channel."""
    p = step.vertex_dephasing
    p_before = p if step.placement == "before-shift" else 0.0
    # U rho U^dagger, the right factor applied as blocks.conj() to the
    # transposed view: `out` holds the coin-tossed state transposed, in
    # row-major order, so the Schur factor is taken transposed as well.
    out = _apply_coin(step.coin.conj(), _apply_coin(step.coin, rho).T)
    if step.coin_kraus is not None or p_before > 0.0:
        out = _schur(out, _coin_mask(step).T, p_before)
    out = step.shift.conjugate(out.T)
    if p > 0.0 and step.placement == "after-shift":
        out = _schur(out, np.ones((step.shift.degree,) * 2), p)
    return out


def evolve(psi0: np.ndarray, step: StepMap, steps: int) -> Iterator[np.ndarray]:
    """Yield the walk's state at every time 0..steps.

    The states are pure vectors advanced by unitary_step when the step
    is unitary, and density matrices advanced by cp_step otherwise. Every
    advanced state gets an O(N*d) check, of its norm or of its diagonal
    and trace, which raises InvariantViolation.
    """
    if steps < 0:
        raise ConfigError(f"step count must be nonnegative, got {steps}")
    if step.is_unitary:
        state, advance, check = psi0.copy(), unitary_step, check_pure
    else:
        state, advance, check = to_density(psi0), cp_step, check_trace
    yield state
    for _ in range(steps):
        state = advance(state, step)
        check(state)
        yield state


def _marginal(state: np.ndarray, step: StepMap) -> np.ndarray:
    """Position distribution of a state yielded by evolve for this step."""
    if step.is_unitary:
        return pure_position_marginal(state, step.shift.degree)
    return position_marginal(state, step.shift.degree)


def _cone_ports(vertices: np.ndarray, degree: int) -> np.ndarray:
    """Flat indices of every port of the given vertices, in vertex order."""
    return (vertices[:, None] * degree + np.arange(degree)).ravel()


def _light_cone(
    psi0: np.ndarray, step: StepMap, steps: int
) -> tuple[np.ndarray, StepMap, np.ndarray]:
    """The walk from psi0 restricted to the vertices it reaches in steps steps.

    The cone starts as the vertices of psi0's support and grows through
    the shift once per step, until it holds every vertex or stops
    growing. Returns psi0 on the cone's ports, the StepMap on the cone,
    and the sorted cone vertices; a cone of every vertex returns psi0 and
    step as they are.

    The cone's shift keeps every move inside the cone. A port that leaves
    it belongs to a vertex first reached at the last step, which holds no
    amplitude when a shift is applied, so the leaving ports are paired in
    order with the cone ports no inside move reaches, and the shift stays
    a permutation.
    """
    n, d = step.shift.num_vertices, step.shift.degree
    neighbours = step.shift.permutation.reshape(n, d) // d
    frontier = np.unique(np.flatnonzero(psi0) // d)
    inside = np.zeros(n, dtype=bool)
    inside[frontier] = True
    size = frontier.size
    for _ in range(steps):
        if size == n or frontier.size == 0:
            break
        reached = np.unique(neighbours[frontier])
        frontier = reached[~inside[reached]]
        inside[frontier] = True
        size += frontier.size
    if size == n:
        return psi0, step, np.arange(n)

    vertices = np.flatnonzero(inside)
    ports = _cone_ports(vertices, d)
    index = np.full(n * d, -1)
    index[ports] = np.arange(ports.size)
    perm = index[step.shift.permutation[ports]]
    leaving = perm < 0
    reached_ports = np.zeros(ports.size, dtype=bool)
    reached_ports[perm[~leaving]] = True
    perm[leaving] = np.flatnonzero(~reached_ports)
    shift = ShiftOperator(perm, step.shift.kind, vertices.size, d)
    return psi0[ports], replace(step, coin=step.coin[vertices], shift=shift), vertices


def _marginals(psi0: np.ndarray, step: StepMap, steps: int) -> Iterator[np.ndarray]:
    """Yield the position distribution at every time 0..steps, over all N vertices.

    The walk is evolved on its light cone, and each cone distribution is
    put in place among zeros.
    """
    n = step.shift.num_vertices
    cone_psi0, cone_step, vertices = _light_cone(psi0, step, steps)
    for state in evolve(cone_psi0, cone_step, steps):
        marginal = np.zeros(n)
        marginal[vertices] = _marginal(state, cone_step)
        yield marginal


def run(psi0: np.ndarray, step: StepMap, steps: int) -> np.ndarray:
    """Evolve a pure initial state for the given number of steps.

    Returns the density matrix at time steps; steps=0 gives the initial
    projector. The walk is evolved on its light cone, and the final cone
    state is put in place in the full matrix.
    """
    cone_psi0, cone_step, vertices = _light_cone(psi0, step, steps)
    for state in evolve(cone_psi0, cone_step, steps):
        pass
    if step.is_unitary:
        state = to_density(state)
    ports = _cone_ports(vertices, step.shift.degree)
    rho = np.zeros((psi0.size, psi0.size), dtype=state.dtype)
    rho[np.ix_(ports, ports)] = state
    return rho


def marginal_history(psi0: np.ndarray, step: StepMap, steps: int) -> np.ndarray:
    """Position distribution at every time 0..steps, shape (steps+1, N)."""
    return np.array(list(_marginals(psi0, step, steps)))


def assembled_step_operators(step: StepMap) -> list[np.ndarray]:
    """The full-space Kraus set {S K_i C} of one measured step.

    Their completeness sum is the identity on graphs where every port
    is used, and the projector onto the used subspace otherwise. Vertex
    dephasing is a separate channel and is not included. The operators
    are dense (N d) x (N d) matrices, built as a reference for tests.
    """
    smat = step.shift.matrix()
    coin = block_diagonal(step.coin)
    if step.coin_kraus is None:
        return [smat @ coin]
    eye = np.eye(step.shift.num_vertices)
    return [smat @ np.kron(eye, k) @ coin for k in step.coin_kraus]


# ----------------------------------------------------------------------
# trajectories

@dataclass(frozen=True)
class TrajectoryRecord:
    """Measurement record of one sampled walk."""

    seed: int
    outcomes: tuple[int, ...]
    outcome_probabilities: tuple[float, ...]
    vertex_outcomes: tuple[int, ...] | None = None


def _require_unravelable(step: StepMap) -> None:
    if step.coin_kraus is None:
        raise ConfigError(
            "trajectory sampling needs a configured coin measurement (beta > 0)"
        )
    if step.vertex_dephasing not in (0.0, 1.0):
        raise ConfigError(
            "pure-state trajectories support vertex dephasing 0 (off) or 1 "
            f"(projective), not {step.vertex_dephasing}"
        )


def _joint_kraus(step: StepMap) -> np.ndarray:
    """(m, N*d) array: row i is the diagonal of Kraus operator i on the joint space."""
    return np.tile(_kraus_diagonals(step), step.shift.num_vertices)


def _branches(phi: np.ndarray, kraus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every Kraus branch K_i phi of a coin-tossed state and its Born weight.

    The weights must sum to 1: the Kraus family is complete on the used
    ports, which are the only ones a tossed state occupies.
    """
    children = kraus * phi
    # one vdot per branch gives bit-for-bit the weights of the dense
    # operators from assembled_step_operators, so records do not depend
    # on which form computed them
    weights = np.array([np.vdot(c, c).real for c in children])
    _check_branch_sums(weights.sum(keepdims=True))
    return children, weights


def _check_branch_sums(totals: np.ndarray) -> None:
    """Raise unless every total of branch weights is 1 within BRANCH_SUM_TOL."""
    # the sampler's guards test the few values of a step as Python
    # floats, several times faster than numpy reductions of that size
    for total in totals.tolist():
        if not abs(total - 1.0) <= BRANCH_SUM_TOL:
            raise InvariantViolation(f"branch probabilities sum to {total!r}")


def _inverse_cdf(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw one index per row of the (S, K) weights p from the uniforms u.

    This is the rule of Generator.choice(K, p=row), which turns one
    uniform double into the first index whose cumulative weight exceeds
    it, so an entry of weight 0 is never drawn. Like choice, it requires
    non-negative weights summing to 1 within sqrt(eps) per row.
    """
    cdf = p.cumsum(axis=1)
    sums = cdf[:, -1].tolist()
    if not (p.min() >= 0.0 and all(abs(x - 1.0) <= DRAW_SUM_TOL for x in sums)):
        raise InvariantViolation("draw weights are negative or do not sum to 1")
    return (cdf / cdf[:, -1:] > u[:, None]).argmax(axis=1)


def _viable_weights(w: np.ndarray) -> np.ndarray:
    """Each row of w renormalized over its entries above 1e-28, the rest 0.

    Row by row this is bit-for-bit w[viable] / w[viable].sum() put back
    in place.
    """
    if w.min() > 1e-28:
        return w / w.sum(axis=1, keepdims=True)
    viable = w > 1e-28
    kept = np.where(viable, w, 0.0)
    sums = kept.sum(axis=1)
    if w.shape[1] >= 8:
        # numpy sums 8 or more terms pairwise, so zeros in place of the
        # dropped entries would regroup the sum
        for r in np.flatnonzero(~viable.all(axis=1)):
            sums[r] = w[r, viable[r]].sum()
    return kept / sums[:, None]


def _born_weights(kraus: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(S, m) array: the weight of each Kraus branch of each row of phi.

    One vdot per sample and branch of the one-sample product kraus * row
    gives bit-for-bit the weights of _branches; a batched reduction sums
    in another order.
    """
    return np.array([[np.vdot(c, c).real for c in kraus * row] for row in phi])


def _measure_vertices(
    psi: np.ndarray, degree: int, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Read the vertex of each row of psi with its Born probability.

    Returns the rows projected onto the vertices read and renormalized,
    and the vertices.
    """
    s = psi.shape[0]
    pv = pure_position_marginal(psi, degree).reshape(s, -1)
    vertices = _inverse_cdf(pv / pv.sum(axis=1, keepdims=True), u)
    rows = np.arange(s)[:, None]
    ports = vertices[:, None] * degree + np.arange(degree)
    out = np.zeros_like(psi)
    out[rows, ports] = psi[rows, ports]
    norm = np.array([np.vdot(r, r).real for r in out])
    if not all(x >= 1e-14 for x in norm.tolist()):
        raise InvariantViolation("vertex projection left a state of negligible norm")
    return out / np.sqrt(norm)[:, None], vertices


def sample_trajectories(
    psi0: np.ndarray, step: StepMap, steps: int, seeds
) -> Iterator[tuple[np.ndarray, TrajectoryRecord]]:
    """Sample one measurement record and conditioned final state per seed.

    Each step draws a meter outcome with the Born probability of its
    Kraus branch, renormalizes, and shifts. With vertex dephasing 1 the
    walker's position is also measured each step and recorded. Every
    draw takes the next uniform double of the sample's own
    default_rng(seed) stream through an inverse CDF, so a record depends
    on its seed alone. The samples advance together as the rows of an
    (S, N*d) array, in blocks of S = SAMPLE_BLOCK_AMPLITUDES // (N*d)
    samples (at least one), and the (final state, record) pairs are
    yielded in seed order.
    """
    _require_unravelable(step)
    if steps < 0:
        raise ConfigError(f"step count must be nonnegative, got {steps}")
    kraus = _joint_kraus(step)
    n, d = step.shift.num_vertices, step.shift.degree
    measure_position = step.vertex_dephasing == 1.0
    measure_before = measure_position and step.placement == "before-shift"
    measure_after = measure_position and step.placement == "after-shift"
    draws = 2 if measure_position else 1
    seeds = list(seeds)
    block = max(1, SAMPLE_BLOCK_AMPLITUDES // psi0.size)
    for lo in range(0, len(seeds), block):
        chunk = seeds[lo: lo + block]
        s = len(chunk)
        rows = np.arange(s)
        uniforms = np.array(
            [np.random.default_rng(seed).random(steps * draws) for seed in chunk]
        ).reshape(s, steps, draws)
        outcomes = np.empty((s, steps), dtype=int)
        weights = np.empty((s, steps, len(kraus)))
        vertices = np.empty((s, steps), dtype=int)
        psi = np.array([psi0] * s)
        for t in range(steps):
            phi = (step.coin @ psi.reshape(s, n, d, 1)).reshape(s, n * d)
            raw = _born_weights(kraus, phi)
            total = raw.sum(axis=1)
            _check_branch_sums(total)
            w = np.divide(raw, total[:, None], out=weights[:, t])
            i = _inverse_cdf(_viable_weights(w), uniforms[:, t, 0])
            norm = raw[rows, i]
            if not all(x >= 1e-14 for x in norm.tolist()):
                raise InvariantViolation("sampled branch has negligible norm")
            # the drawn branch is formed again, so that no more than one
            # sample's branches are ever held at once
            psi = kraus.take(i, axis=0) * phi / np.sqrt(norm)[:, None]
            outcomes[:, t] = i
            if measure_before:
                psi, vertices[:, t] = _measure_vertices(psi, d, uniforms[:, t, 1])
            psi = step.shift.apply(psi)
            if measure_after:
                psi, vertices[:, t] = _measure_vertices(psi, d, uniforms[:, t, 1])
        probs = weights[rows[:, None], np.arange(steps), outcomes]
        for r, seed in enumerate(chunk):
            record = TrajectoryRecord(
                seed,
                tuple(outcomes[r].tolist()),
                tuple(probs[r].tolist()),
                tuple(vertices[r].tolist()) if measure_position else None,
            )
            yield psi[r], record


def sample_trajectory(
    psi0: np.ndarray, step: StepMap, steps: int, seed: int
) -> tuple[np.ndarray, TrajectoryRecord]:
    """Sample one measurement record and the conditioned final state.

    This is sample_trajectories for the single seed.
    """
    (result,) = sample_trajectories(psi0, step, steps, [seed])
    return result


def enumerate_branches(
    psi0: np.ndarray, step: StepMap, steps: int, prune: float = 1e-18
) -> list[tuple[float, np.ndarray, tuple[int, ...]]]:
    """Expand every measurement branch exactly, for small step counts.

    Returns (probability, normalized state, outcome tuple) per branch.
    Branches of probability below prune are dropped; the surviving
    probabilities still sum to 1 up to that resolution. The weighted
    mixture of the returned states reproduces the density-matrix
    evolution, which is what makes the record ensemble a faithful
    unraveling.
    """
    _require_unravelable(step)
    if step.vertex_dephasing != 0.0:
        raise ConfigError("branch enumeration supports coin measurement only")
    kraus = _joint_kraus(step)
    branches: list[tuple[float, np.ndarray, tuple[int, ...]]] = [(1.0, psi0.copy(), ())]
    for _ in range(steps):
        grown: list[tuple[float, np.ndarray, tuple[int, ...]]] = []
        for weight, psi, history in branches:
            children, weights = _branches(_apply_coin(step.coin, psi), kraus)
            for i, (child, w) in enumerate(zip(children, weights)):
                w = float(w)
                if weight * w < prune:
                    continue
                grown.append(
                    (weight * w, step.shift.apply(child / math.sqrt(w)), history + (i,))
                )
        branches = grown
    return branches


def reconstruct_cycle_path(
    outcomes: tuple[int, ...], start_vertex: int, num_vertices: int, direction: int = 1
) -> list[int]:
    """Vertex sequence implied by a record on the direction-preserving cycle.

    Valid when the coin measurement is projective (beta = 1), where
    outcome 0 certifies coin state 0 (a move along the cycle direction)
    and outcome 1 the reverse move. Weaker measurements leave outcome 0
    ambiguous, and general graphs give records no such reading.
    """
    path = [start_vertex]
    v = start_vertex
    for o in outcomes:
        if o == 0:
            v = (v + direction) % num_vertices
        elif o == 1:
            v = (v - direction) % num_vertices
        else:
            raise ConfigError(f"cycle records carry outcomes 0 or 1, got {o}")
        path.append(v)
    return path

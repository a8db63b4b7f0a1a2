"""Walk evolution: step composition, density runs, and trajectory sampling.

A single time step applies, in order: the coin unitary, the coin
measurement channel (when a measurement strength is configured),
optional dephasing between vertices, and the shift. The vertex
dephasing may instead be placed after the shift; both orders are
conventions and the choice is recorded with every run.

Every part of the step is applied in its structured form. The coin is
one d x d block that every vertex shares, or a stack of per-vertex
blocks. On a pure state, or on the rows of a stack of them, a shared
block tosses all the (row, vertex) pairs of d amplitudes in one matrix
product, and per-vertex blocks are one batched product; a density matrix
takes a batched product, broadcast for a shared block, on its
(N, d, N*d) view from each side. The coin measurement is the (m, d) array of
its Kraus diagonals, and vertex dephasing only scales the blocks between
different vertices, so on a density matrix both are one elementwise
(Schur) product with a d x d coin mask, and on a pure state each Kraus
operator is an elementwise product. The shift is a permutation. The
dense (N*d) x (N*d) forms, assembled_step_operators, vertex_dephasing
and ShiftOperator.matrix, are never called by the walk; they stay public
because the benchmark checks the CLI's output with them.

A walk of t steps only reaches the vertices within t shifts of psi0's
support, its light cone. run, marginal_history and the marginals that
analysis reads evolve the walk on that cone alone and put the result
back in place, so their memory and time scale with the cone rather
than with N; a cone that holds every vertex is the whole walk, run
as it is. A shared block stays one block on the cone, so the cone is
tossed as the whole graph is. evolve, cp_step and unitary_step always
act on the states they are given.

Trajectories run on the light cone as well, through one generator,
_unravel, that advances the rows of one array with the same coin product
and elementwise Kraus branches: the sampler's rows are samples, the
enumerator's every live branch. A Born weight is taken from the per-coin
masses of the tossed state, each added up one vertex at a time
(BORN_WEIGHT_RULE), so a vertex without amplitude changes no weight, and
the records on the cone are those of the whole graph bit for bit. A
state leaves the cone only where a caller takes it. Every walk checks
its start state where it starts, in _light_cone and at evolve's t = 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .coin import Coin, default_coin_spec, embedded_blocks
from .errors import ConfigError, InvariantViolation, StructureError
from .graph import PortGraph
from .meter import dephasing_kraus, uniform_dephasing_kraus
from .shift import ShiftOperator, build_shift
from .state import (
    DEFAULT_TOLERANCES,
    _squared_moduli,
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
# live amplitudes of one block of samples that sample_trajectories
# advances together: 16 samples of a walk whose light cone has 256 ports
SAMPLE_BLOCK_AMPLITUDES = 4096
# how a trajectory's Born weights are computed, named in its sidecar
BORN_WEIGHT_RULE = (
    "||K_i phi||^2 = sum over coin index a, in order, of |k_i[a]|^2 times "
    "the mass of phi at coin a, its re^2 + im^2 summed over the vertices "
    "one at a time in vertex order"
)


@dataclass(frozen=True)
class StepMap:
    """Everything needed to take the walk one time step.

    coin is as coin.embedded_blocks returns it: the (d, d) block every
    vertex shares, or the (N, d, d) stack of per-vertex blocks. The map
    is plain data, so a pickled or copied step walks as the original does.
    coin_kraus is the (m, d) array of the coin measurement's Kraus
    diagonals, row i the diagonal of K_i in the coin basis, or None
    without a measurement. vertex_dephasing lies in [0, 1], and placement
    is one of PLACEMENTS; every field is checked however the map is built.
    """

    coin: np.ndarray
    shift: ShiftOperator
    coin_kraus: np.ndarray | None = None
    vertex_dephasing: float = 0.0
    placement: str = "before-shift"

    def __post_init__(self) -> None:
        n, d = self.shift.num_vertices, self.shift.degree
        if np.shape(self.coin) not in ((d, d), (n, d, d)):
            raise StructureError(
                f"coin must be the shared ({d}, {d}) block or the ({n}, {d}, {d}) "
                f"stack of vertex blocks, got shape {np.shape(self.coin)}"
            )
        k = self.coin_kraus
        if k is not None and (np.shape(k)[1:] != (d,) or len(k) == 0):
            raise StructureError(
                f"coin Kraus diagonals must be an (m, {d}) array with m >= 1, "
                f"got shape {np.shape(k)}"
            )
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"placement must be one of {PLACEMENTS}, got {self.placement!r}")
        if not 0.0 <= self.vertex_dephasing <= 1.0:  # also rejects NaN
            raise ConfigError(
                f"vertex dephasing strength must lie in [0, 1], got {self.vertex_dephasing}"
            )

    @property
    def is_unitary(self) -> bool:
        return self.coin_kraus is None and self.vertex_dephasing == 0.0


def make_step(
    graph: PortGraph,
    coin_spec: Coin | None = None,
    shift: ShiftOperator | None = None,
    beta: float = 0.0,
    vertex_p: float = 0.0,
    placement: str = "before-shift",
) -> StepMap:
    """Assemble a StepMap with the package defaults filled in.

    coin_spec is a coin in either form that coin.embedded_blocks takes,
    by default default_coin_spec(graph). With beta > 0 the coin
    measurement's Kraus diagonals are attached, as _coin_kraus picks them.
    """
    kraus = _coin_kraus(beta, graph.degree)
    coin = coin_spec if coin_spec is not None else default_coin_spec(graph)
    blocks = embedded_blocks(graph, coin)
    shift_op = shift if shift is not None else build_shift(graph)
    return StepMap(blocks, shift_op, kraus, vertex_p, placement)


def _coin_kraus(beta: float, degree: int) -> np.ndarray | None:
    """The coin measurement's Kraus diagonals at strength beta, None at beta = 0.

    The two-outcome meter pair when the coin is two-sided, the uniform
    dephasing family otherwise; both reject a beta outside [0, 1], NaN too.
    """
    if beta == 0.0:
        return None
    if degree == 2:
        return dephasing_kraus(beta)
    return uniform_dephasing_kraus(beta, degree)


# ----------------------------------------------------------------------
# structured pieces of a step

def _apply_coin(coin: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The coin on a pure state, or on each row of an (S, N*d) stack of them.

    Each (row, vertex) pair of d amplitudes is tossed by its vertex's
    block. A shared (d, d) block tosses all the pairs in one matrix
    product, psi.reshape(-1, d) @ block.T, in which each output pair depends on
    its own amplitudes only: the bits do not depend on how many samples
    or vertices are tossed together, as long as there are at least two
    pairs (numpy hands a one-row product to gemv, which rounds
    otherwise). Per-vertex blocks are one batched product, a
    matrix-vector product per pair.
    """
    d = coin.shape[-1]
    if coin.ndim == 2:
        return (psi.reshape(-1, d) @ coin.T).reshape(psi.shape)
    return (coin @ psi.reshape(-1, coin.shape[0], d, 1)).reshape(psi.shape)


def _coin_mask(step: StepMap) -> np.ndarray:
    """The coin measurement channel as a d x d Schur factor.

    For diagonal Kraus operators k_m, sum_m K_m rho K_m^dagger scales
    coin entry (a, b) by sum_m k_m[a] conj(k_m[b]); all ones without a
    measurement.
    """
    k = step.coin_kraus
    if k is None:
        return np.ones((step.shift.degree,) * 2)
    return k.T @ k.conj()


def _schur(rho: np.ndarray, coin_mask: np.ndarray, p: float) -> np.ndarray:
    """Scale rho[(i, a), (j, b)] by coin_mask[a, b], and by (1 - p) when i != j.

    Works on the (N, d, N, d) view of rho, in place when that view
    shares rho's memory, and returns the scaled matrix.
    """
    d = coin_mask.shape[0]
    n = rho.shape[0] // d
    rho4 = rho.reshape(n, d, n, d)
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
    vertex = np.arange(rho.shape[0]) // degree
    return rho * ((1.0 - p) + p * (vertex[:, None] == vertex))


def cp_step(rho: np.ndarray, step: StepMap) -> np.ndarray:
    """Advance a density matrix one step through the full channel."""
    n, d = step.shift.num_vertices, step.shift.degree
    p = step.vertex_dephasing
    p_before = p if step.placement == "before-shift" else 0.0
    # U rho U^dagger as a batched product of the blocks on the (N, d, N*d)
    # view, then of blocks.conj() on the view of its transpose: `out`
    # holds the coin-tossed state transposed, in row-major order, so the
    # Schur factor is taken transposed as well.
    out = (step.coin @ rho.reshape(n, d, -1)).reshape(rho.shape).T
    out = (step.coin.conj() @ out.reshape(n, d, -1)).reshape(rho.shape)
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
    _check_start(psi0, step)
    if step.is_unitary:
        state, apply_step, check = psi0.copy(), unitary_step, check_pure
    else:
        state, apply_step, check = to_density(psi0), cp_step, check_trace
    yield state
    for _ in range(steps):
        state = apply_step(state, step)
        check(state)
        yield state


def _check_start(psi0: np.ndarray, step: StepMap) -> None:
    """Raise StructureError unless psi0 has shape (N*d,), then check_pure it."""
    size = step.shift.num_vertices * step.shift.degree
    if np.shape(psi0) != (size,):
        raise StructureError(f"start state needs N*d = {size} amplitudes, got shape {np.shape(psi0)}")
    check_pure(psi0)


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
    _check_start(psi0, step)
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
    shift = ShiftOperator(perm, step.shift.kind, d)
    # a shared block stays the one block, so the cone is tossed as the whole graph is
    coin = step.coin if step.coin.ndim == 2 else step.coin[vertices]
    return psi0[ports], replace(step, coin=coin, shift=shift), vertices


def _in_place(x: np.ndarray, ports: np.ndarray, size: int) -> np.ndarray:
    """The vector of the given size that holds x at ports and 0 elsewhere."""
    full = np.zeros(size, dtype=x.dtype)
    full[ports] = x
    return full


def _marginals(
    psi0: np.ndarray, step: StepMap, steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (cone vertices, cone distribution) at every time 0..steps.

    The walk is evolved on its light cone, the same sorted vertices at
    every time; the distribution is zero on every other vertex.
    """
    cone_psi0, cone_step, vertices = _light_cone(psi0, step, steps)
    for state in evolve(cone_psi0, cone_step, steps):
        yield vertices, _marginal(state, cone_step)


def run(psi0: np.ndarray, step: StepMap, steps: int) -> np.ndarray:
    """Evolve a pure initial state for the given number of steps.

    Returns the density matrix at time steps; steps=0 gives the initial
    projector. The walk is evolved on its light cone, and the final cone
    state is put in place in the full matrix. This is a small-N helper:
    the dense (N d) x (N d) return is kept for tests and the acceptance
    suite, and no command calls it; the CLI reads the cone marginals.
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
    # a negative step count gets no rows, and evolve rejects it
    history = np.zeros((max(steps + 1, 0), step.shift.num_vertices))
    for t, (vertices, marginal) in enumerate(_marginals(psi0, step, steps)):
        history[t, vertices] = marginal
    return history


def assembled_step_operators(step: StepMap) -> list[np.ndarray]:
    """The full-space Kraus set {S K_i C} of one measured step.

    Their completeness sum is the identity on graphs where every port
    is used, and the projector onto the used subspace otherwise. Vertex
    dephasing is a separate channel and is not included. The operators
    are dense (N d) x (N d) matrices, built as a reference for tests.
    """
    n, d = step.shift.num_vertices, step.shift.degree
    coin = np.zeros((n, d, n, d), dtype=complex)
    v = np.arange(n)
    coin[v, :, v, :] = step.coin
    coin = coin.reshape(n * d, n * d)
    smat = step.shift.matrix()
    if step.coin_kraus is None:
        return [smat @ coin]
    return [smat @ np.diag(np.tile(k, n)) @ coin for k in step.coin_kraus]


# ----------------------------------------------------------------------
# trajectories

@dataclass(frozen=True)
class TrajectoryRecord:
    """Measurement record of one sampled walk."""

    seed: int
    outcomes: tuple[int, ...]
    outcome_probabilities: tuple[float, ...]
    vertex_outcomes: tuple[int, ...] | None = None


def _require_unravelable(step: StepMap, steps: int) -> None:
    if step.coin_kraus is None:
        raise ConfigError("trajectory sampling needs a coin measurement (beta > 0); without one "
                          "there is a single deterministic branch, which the run command covers")
    if step.vertex_dephasing not in (0.0, 1.0):
        raise ConfigError(
            "pure-state trajectories support vertex dephasing 0 (off) or 1 "
            f"(projective), not {step.vertex_dephasing}"
        )
    if steps < 0:
        raise ConfigError(f"step count must be nonnegative, got {steps}")


def _sequential_sum(x: np.ndarray) -> np.ndarray:
    """x summed over its last axis term by term, in index order."""
    return x.cumsum(axis=-1)[..., -1]


def _coin_masses(x: np.ndarray, degree: int) -> np.ndarray:
    """(S, d) array: per coin index, the mass of each row of x over its vertices.

    Entry [s, a] adds re**2 + im**2 of x[s, j*d + a] over the vertices j
    one at a time, in vertex order, as the last row of a running sum. A
    numpy sum over the vertex axis may group the terms otherwise: at
    d = 1 that axis is contiguous, and numpy sums it pairwise. A running
    sum never regroups, and adding a zero leaves it unchanged, so
    vertices that hold no amplitude, such as those outside a light cone,
    do not change a mass.
    """
    sq = _squared_moduli(x).reshape(x.shape[0], x.shape[1] // degree, degree)
    return sq.cumsum(axis=1)[:, -1]


def _born_weights(masses: np.ndarray, kraus_sq: np.ndarray) -> np.ndarray:
    """(S, m) array: the Born weight of each Kraus branch of each sample.

    The weight of branch i of sample s is ||K_i phi_s||^2, taken as
    sum_a masses[s, a] * kraus_sq[i, a] in coin order, where kraus_sq[i]
    holds |k_i|^2 on the diagonal of Kraus operator i. No BLAS call and
    no reduction over vertices is involved, so the weights depend only
    on the coin masses.
    """
    return _sequential_sum(masses[:, None, :] * kraus_sq)


def _check_branch_sums(totals: np.ndarray) -> None:
    """Raise unless every total of branch weights is 1 within the branch-sum bound."""
    # the sampler's guards test a step's few values as Python floats, faster than numpy
    tol = DEFAULT_TOLERANCES.branch_sum
    for total in totals.tolist():
        if not abs(total - 1.0) <= tol:
            raise InvariantViolation(f"branch probabilities sum to {total!r}")


def _check_norms(norms: np.ndarray, what: str) -> None:
    """Raise unless every squared norm is finite and not below the negligible-norm bound."""
    floor = DEFAULT_TOLERANCES.negligible_norm
    if not all(floor <= x < math.inf for x in norms.tolist()):
        raise InvariantViolation(f"{what} has negligible norm or a non-finite one")


def _inverse_cdf(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw one index per row of the (S, K) weights p from the uniforms u.

    This is the rule of Generator.choice(K, p=row), which turns one
    uniform double into the first index whose cumulative weight exceeds
    it, so an entry of weight 0 is never drawn. Like choice, it requires
    non-negative weights summing to 1 within sqrt(eps) per row.
    """
    cdf = p.cumsum(axis=1)
    tol = DEFAULT_TOLERANCES.draw_sum
    if not (p.min() >= 0.0 and all(abs(x - 1.0) <= tol for x in cdf[:, -1].tolist())):
        raise InvariantViolation("draw weights are negative or do not sum to 1")
    return (cdf / cdf[:, -1:] > u[:, None]).argmax(axis=1)


def _viable_weights(w: np.ndarray) -> np.ndarray:
    """Each row of w renormalized over its entries above the viable-weight bound, the rest 0.

    Row by row this is bit-for-bit w[viable] / w[viable].sum() put back
    in place.
    """
    viable = w > DEFAULT_TOLERANCES.viable_weight
    if viable.all():
        return w / w.sum(axis=1, keepdims=True)
    kept = np.where(viable, w, 0.0)
    sums = kept.sum(axis=1)
    if w.shape[1] >= 8:
        # numpy sums 8 or more terms pairwise, so zeros in place of the
        # dropped entries would regroup the sum
        for r in np.flatnonzero(~viable.all(axis=1)):
            sums[r] = w[r, viable[r]].sum()
    return kept / sums[:, None]


def _measure_vertices(
    psi: np.ndarray, degree: int, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Read the vertex of each row of psi with its Born probability.

    Returns the rows projected onto the vertices read and renormalized,
    and the vertices. The draw's normaliser and the projection's norm
    are coin masses summed in order, so vertices without amplitude
    change neither.
    """
    s = psi.shape[0]
    pv = pure_position_marginal(psi, degree).reshape(s, -1)
    total = _sequential_sum(_coin_masses(psi, degree))
    vertices = _inverse_cdf(pv / total[:, None], u)
    rows = np.arange(s)[:, None]
    ports = vertices[:, None] * degree + np.arange(degree)
    kept = psi[rows, ports]
    norm = _sequential_sum(_squared_moduli(kept))
    _check_norms(norm, "vertex projection")
    out = np.zeros_like(psi)
    out[rows, ports] = kept / np.sqrt(norm)[:, None]
    return out, vertices


def _unravel(psi: np.ndarray, cone_step: StepMap, steps: int, choose, read=None) -> Iterator:
    """Advance the rows of psi, states on a light cone, through steps unravelled steps.

    Step t tosses the coin on every row of psi, takes the rows' Born
    weights raw and checks their totals, and forms only the branches
    (rows, i) = choose(t, raw, totals): K_i times the tossed row, over
    sqrt(raw[row, i]). It shifts them, with read(t, psi), when given,
    measuring their vertex at the step's placement, and yields
    (psi, rows, i, raw).
    """
    d = cone_step.shift.degree
    # the branches are taken from rows of the diagonals tiled over the
    # cone, which is faster than a product broadcast over vertices
    kraus = np.tile(cone_step.coin_kraus, cone_step.shift.num_vertices)
    kraus_sq = _squared_moduli(cone_step.coin_kraus)
    read_before = cone_step.placement == "before-shift"
    for t in range(steps):
        phi = _apply_coin(cone_step.coin, psi)
        raw = _born_weights(_coin_masses(phi, d), kraus_sq)
        totals = raw.sum(axis=1)
        _check_branch_sums(totals)
        rows, i = choose(t, raw, totals)
        psi = kraus.take(i, axis=0) * phi[rows] / np.sqrt(raw[rows, i])[:, None]
        if read is not None and read_before:
            psi = read(t, psi)
        psi = cone_step.shift.apply(psi)
        if read is not None and not read_before:
            psi = read(t, psi)
        yield psi, rows, i, raw


def sample_trajectories(
    psi0: np.ndarray, step: StepMap, steps: int, seeds
) -> Iterator[tuple[np.ndarray, np.ndarray, TrajectoryRecord]]:
    """Sample one measurement record and conditioned final state per seed.

    Each step draws a meter outcome with the Born probability of its
    Kraus branch, renormalizes, and shifts. With vertex dephasing 1 the
    walker's position is also measured each step and recorded. Every
    draw takes the next uniform double of the sample's own
    default_rng(seed) stream through an inverse CDF, so a record depends
    on its seed alone.

    The walk runs on the light cone of psi0. A Born weight is
    ||K_i phi||^2 summed from the per-coin masses of the tossed state
    phi, each added up over the vertices in vertex order, so the records
    and final states are those of the whole graph bit for bit. The
    samples move together as the rows of an (S, cone ports) array, in
    blocks of S = SAMPLE_BLOCK_AMPLITUDES // (cone ports) samples (at
    least one). Yields, in seed order, the sorted cone vertices, the
    final state on the cone's ports and the record, whose vertex
    outcomes are vertices of the whole graph.
    """
    _require_unravelable(step, steps)
    cone_psi0, cone_step, cone = _light_cone(psi0, step, steps)
    d = step.shift.degree
    measure_position = step.vertex_dephasing == 1.0
    draws = 2 if measure_position else 1
    seeds = list(seeds)
    block = max(1, SAMPLE_BLOCK_AMPLITUDES // cone_psi0.size)
    for lo in range(0, len(seeds), block):
        chunk = seeds[lo: lo + block]
        s = len(chunk)
        rows = np.arange(s)
        uniforms = np.array(
            [np.random.default_rng(seed).random(steps * draws) for seed in chunk]
        ).reshape(s, steps, draws)
        outcomes = np.empty((s, steps), dtype=int)
        probs = np.empty((s, steps))  # the drawn outcome's probability
        vertices = np.empty((s, steps), dtype=int)

        def draw(t, raw, totals):
            w = raw / totals[:, None]
            outcomes[:, t] = i = _inverse_cdf(_viable_weights(w), uniforms[:, t, 0])
            _check_norms(raw[rows, i], "sampled branch")
            probs[:, t] = w[rows, i]
            return rows, i

        def read(t, psi):
            psi, vertices[:, t] = _measure_vertices(psi, d, uniforms[:, t, 1])
            return psi

        psi = np.array([cone_psi0] * s)
        for psi, *_ in _unravel(psi, cone_step, steps, draw, read if measure_position else None):
            pass
        for r, seed in enumerate(chunk):
            record = TrajectoryRecord(
                seed,
                tuple(outcomes[r].tolist()),
                tuple(probs[r].tolist()),
                tuple(cone[vertices[r]].tolist()) if measure_position else None,
            )
            yield cone, psi[r], record


def sample_trajectory(
    psi0: np.ndarray, step: StepMap, steps: int, seed: int
) -> tuple[np.ndarray, TrajectoryRecord]:
    """Sample one measurement record and the conditioned final state.

    This is sample_trajectories for the single seed, with the final
    state put back over all N*d ports.
    """
    ((cone, final, record),) = sample_trajectories(psi0, step, steps, [seed])
    return _in_place(final, _cone_ports(cone, step.shift.degree), psi0.size), record


def enumerate_branches(
    psi0: np.ndarray, step: StepMap, steps: int, prune: float = 1e-18
) -> Iterator[tuple[float, np.ndarray, tuple[int, ...]]]:
    """Expand every measurement branch exactly, for small step counts.

    Returns an iterator of (probability, normalized state, outcome tuple)
    per branch. Branches of probability below prune are dropped; the
    surviving probabilities still sum to 1 up to that resolution. prune
    must be positive, since a kept branch of probability 0 cannot be
    renormalized. The weighted mixture of the states reproduces the
    density-matrix evolution, which is what makes the record ensemble a
    faithful unraveling. The branches are expanded on the light cone of
    psi0 through the step of sample_trajectories, every live branch a row
    of one array, and come parent by parent, each parent's in outcome
    order. Every check and the whole expansion run before the function
    returns; each state is put back over all N*d ports only as it is taken.
    """
    if not prune > 0.0:
        raise ConfigError(f"prune must be a positive probability, got {prune}")
    _require_unravelable(step, steps)
    if step.vertex_dephasing != 0.0:
        raise ConfigError("branch enumeration supports coin measurement only")
    cone_psi0, cone_step, cone = _light_cone(psi0, step, steps)
    psi, probs, histories = cone_psi0[None], np.ones(1), np.empty((1, 0), dtype=int)

    def keep(_t, raw, _totals):  # every branch of probability prune or more, parent by parent
        return np.nonzero(probs[:, None] * raw >= prune)

    for psi, rows, i, raw in _unravel(psi, cone_step, steps, keep):
        probs = probs[rows] * raw[rows, i]
        histories = np.column_stack([histories[rows], i])
    ports = _cone_ports(cone, step.shift.degree)
    branches = zip(probs.tolist(), psi, histories.tolist())
    return ((p, _in_place(x, ports, psi0.size), tuple(h)) for p, x, h in branches)


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

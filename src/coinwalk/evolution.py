"""Walk evolution: step composition, density runs, and trajectory sampling.

A single time step applies, in order: the coin unitary, the coin
measurement channel (when a measurement strength is configured),
optional dephasing between vertices, and the shift. The vertex
dephasing may instead be placed after the shift; both orders are
conventions and the choice is recorded with every run.

Every part of the step is applied in its structured form. The coin is
one d x d block that every vertex shares, or a stack of per-vertex
blocks, and the coin measurement is the (m, d) array of its Kraus
diagonals. On a pure state, or on the rows of a stack of them, a shared
block tosses all the (row, vertex) pairs of d amplitudes in one matrix
product, per-vertex blocks are one batched product, and each Kraus
operator is an elementwise product.

A density walk holds rho as its vertex-pair blocks, an (N^2, d^2) array
whose row i N + j is rho's (i, j) block flattened. The coin, the coin
measurement and vertex dephasing act on each block alone, as one
d^2 x d^2 superoperator on the coin space (Brun, Carteret and Ambainis,
PRA 67, 032304): for a shared coin the whole local channel is one matrix
product of all the blocks, for a stacked coin one batched product over
the block columns and one over the block rows. Before-shift dephasing
is folded into that factor, and the N same-vertex blocks are taken
again by the unscaled one. The shift is one gather through a cached
block index of 8 (N d)^2 bytes, and after-shift dephasing scales the
blocks between different vertices. The trace check and the position
distribution are read off the same-vertex blocks' diagonals. cp_step,
evolve and run take and give density matrices, converting at their
boundary; ShiftOperator.conjugate, the shift on a matrix, is not called
by the walk. The dense (N*d) x (N*d) forms, assembled_step_operators,
vertex_dephasing and ShiftOperator.matrix, are never called by the walk
either; they stay public because the benchmark checks the CLI's output
with them.

A walk of t steps only reaches the vertices within t shifts of psi0's
support, its light cone. run, marginal_history and the marginals that
analysis reads evolve the walk on that cone alone and put the result
back in place, so their memory and time scale with the cone rather
than with N; a cone that holds every vertex is the whole walk, run
as it is. A shared block stays one block on the cone, so the cone is
tossed as the whole graph is. evolve, cp_step and unitary_step always
act on the states they are given.

Trajectories run on the light cone as well, through one generator,
_unravel, that advances a vertex-major (cone vertex, sample, coin) block
of states with the same coin product, one GEMM row per (vertex, sample)
pair: the sampler's states are samples, the enumerator's every live
branch. A Born weight is taken from the per-coin masses of the tossed
states, each added up one vertex at a time (BORN_WEIGHT_RULE), one sum
over the vertex axis across all the block's lanes; so a vertex without
amplitude changes no weight, and the records on the cone are those of
the whole graph bit for bit. A drawn branch is a product with its Kraus
diagonal and a scaling by 1 / sqrt(weight), in place, and the shift one
gather back into the block. The block is converted only where it enters
and leaves the sampler and the enumerator, and a state leaves the cone
only where a caller takes it. Every walk checks its start state where it
starts, in _light_cone and at evolve's t = 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .coin import Coin, default_coin_spec, embedded_blocks
from .errors import ConfigError, InvariantViolation, StructureError
from .graph import PortGraph
from .meter import dephasing_kraus, uniform_dephasing_kraus
from .shift import ShiftOperator, build_shift
from .state import (
    DEFAULT_TOLERANCES,
    _check_unit_trace,
    _clamped_marginal,
    _squared_moduli,
    check_pure,
    pure_position_marginal,
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
# advances together: 32 samples of a walk whose light cone has 256 ports.
# A block step holds the block twice, as the state and as its toss, and
# once more as its gather index.
SAMPLE_BLOCK_AMPLITUDES = 8192
# entries beside the summed axis below which _sum_rows_in_order keeps a
# running sum: np.add.reduce over so few lanes is slower, and over one
# lane it sums pairwise
_FEW_LANES = 4
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

    @cached_property
    def _block_factors(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """_toss_blocks' right factors (first, second, same_vertex) on the (N^2, d^2) blocks.

        A block X of rho, flattened row-major, is taken by the coin and the
        coin measurement to mask * (C_i X C_j^dagger), with mask[a, b] =
        sum_m k_m[a] conj(k_m[b]), all ones without a measurement. For a
        shared coin this is E = mask * (C kron conj(C)) on every block:
        first is E^T and second is None. For a stacked coin, first is the
        (N, d^2, d^2) stack of (I kron conj(C_j))^T, taken by block column
        j, and second that of (mask * (C_i kron I))^T, taken by block row i.
        Before-shift dephasing scales first by (1 - p), and same_vertex is
        then the unscaled first, which the N same-vertex blocks take;
        otherwise it is None. Each factor is held in _superoperator's real
        form.
        """
        d = self.shift.degree
        k = self.coin_kraus
        mask = np.ones((d, d)) if k is None else k.T @ k.conj()
        if self.coin.ndim == 2:
            first, second = _superoperator(self.coin, self.coin, mask), None
        else:
            eye = np.eye(d)
            first = _superoperator(eye, self.coin, np.ones((d, d)))
            second = _superoperator(self.coin, eye, mask)
        if self.placement == "after-shift" or self.vertex_dephasing == 0.0:
            return first, second, None
        return (1.0 - self.vertex_dephasing) * first, second, first


def _superoperator(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(mask * (a kron conj(b)))^T in the real form that _toss_blocks multiplies by.

    For X a row of d x d blocks flattened row-major, X @ (mask * (a kron
    conj(b)))^T is mask * (a X b^dagger). The complex (d^2, d^2) factor F
    is returned as the real (2 d^2, 2 d^2) matrix that takes X's
    interleaved (re, im) floats to those of X @ F: numpy's complex matmul
    of such thin products took 1.8 to 3 times as long as the real one. a or b
    may be an (N, d, d) stack, and the result is then a stack too.
    """
    d = mask.shape[0]
    e = a[..., :, None, :, None] * b.conj()[..., None, :, None, :] * mask[:, :, None, None]
    f = e.reshape(*e.shape[:-4], d * d, d * d).swapaxes(-1, -2)
    real = np.empty((*f.shape[:-2], d * d, 2, d * d, 2))
    real[..., 0, :, 0] = real[..., 1, :, 1] = f.real
    real[..., 0, :, 1] = f.imag
    real[..., 1, :, 0] = -f.imag
    return real.reshape(*f.shape[:-2], 2 * d * d, 2 * d * d)


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
    """The coin on a pure state, on each row of an (S, N*d) stack of them, or on a block.

    A block is a vertex-major (N, S, d) array of S states, entry [j, s, a]
    the amplitude of state s at vertex j and coin a. Each (state, vertex)
    pair of d amplitudes is tossed by its vertex's block. A shared (d, d)
    block tosses all the pairs in one matrix product, psi.reshape(-1, d) @
    block.T, in which each output pair depends on its own amplitudes only:
    the bits do not depend on how many samples or vertices are tossed
    together, or in which order, as long as there are at least two pairs
    (numpy hands a one-row product to gemv, which rounds otherwise).
    Per-vertex blocks are one batched product, a matrix-vector product per
    pair, in either layout.
    """
    d = coin.shape[-1]
    if coin.ndim == 2:
        return (psi.reshape(-1, d) @ coin.T).reshape(psi.shape)
    if psi.ndim == 3:
        return (coin[:, None] @ psi[..., None]).reshape(psi.shape)
    return (coin @ psi.reshape(-1, coin.shape[0], d, 1)).reshape(psi.shape)


def _to_blocks(rho: np.ndarray, degree: int) -> np.ndarray:
    """rho as its (N^2, d^2) vertex-pair blocks: row i N + j holds block (i, j), row-major."""
    n = rho.shape[0] // degree
    return rho.reshape(n, degree, n, degree).swapaxes(1, 2).reshape(n * n, degree * degree)


def _pure_blocks(psi: np.ndarray, degree: int) -> np.ndarray:
    """The vertex-pair blocks of psi's density matrix, bit for bit _to_blocks(to_density(psi))."""
    n = psi.size // degree
    amplitudes = np.asarray(psi, dtype=complex).reshape(n, degree)
    rows = np.repeat(amplitudes, degree, axis=1)
    cols = np.tile(amplitudes.conj(), degree)
    return (rows[:, None] * cols).reshape(n * n, degree * degree)


def _from_blocks(blocks: np.ndarray) -> np.ndarray:
    """The C-ordered density matrix whose vertex-pair blocks these are."""
    n, d = math.isqrt(blocks.shape[0]), math.isqrt(blocks.shape[1])
    return blocks.reshape(n, n, d, d).swapaxes(1, 2).reshape(n * d, n * d)


def _diagonal(blocks: np.ndarray) -> np.ndarray:
    """(N, d) copy of the real diagonal: the (a, a) entries of the N same-vertex blocks."""
    n, d = math.isqrt(blocks.shape[0]), math.isqrt(blocks.shape[1])
    return np.ascontiguousarray(blocks[::n + 1, ::d + 1].real)


def _check_block_trace(blocks: np.ndarray) -> None:
    """check_trace of the density matrix held as these blocks."""
    _check_unit_trace(_diagonal(blocks))


def _block_marginal(blocks: np.ndarray) -> np.ndarray:
    """position_marginal of the density matrix held as these blocks."""
    return _clamped_marginal(_diagonal(blocks).sum(axis=1))


def _toss_blocks(blocks: np.ndarray, step: StepMap) -> np.ndarray:
    """The coin, the coin measurement and before-shift dephasing on the blocks, as a new array.

    The products run on the blocks' interleaved (re, im) floats. A shared
    coin is one matrix product of all N^2 blocks. A stacked coin is a
    batched product over the block columns, into an array held by column,
    and then one over the block rows. With before-shift dephasing the
    same-vertex blocks are taken again by the unscaled first factor. Each
    block's bits depend only on the block and the factors, not on N.
    """
    n = step.shift.num_vertices
    first, second, same_vertex = step._block_factors
    x = blocks.view(float)
    if second is None:
        out = x @ first
        if same_vertex is not None:
            out[::n + 1] = x[::n + 1] @ same_vertex
        return out.view(complex)
    by_column = np.matmul(x.reshape(n, n, -1).transpose(1, 0, 2), first)
    if same_vertex is not None:
        by_column.reshape(n * n, -1)[::n + 1] = (x[::n + 1, None] @ same_vertex)[:, 0]
    return np.matmul(by_column.transpose(1, 0, 2), second).reshape(x.shape).view(complex)


def _shift_blocks(blocks: np.ndarray, step: StepMap) -> np.ndarray:
    """The shift and after-shift dephasing on the blocks, as a new array."""
    out = step.shift.conjugate_blocks(blocks)
    if step.placement == "after-shift" and step.vertex_dephasing > 0.0:
        n = step.shift.num_vertices
        same_vertex = out[::n + 1].copy()
        out *= 1.0 - step.vertex_dephasing
        out[::n + 1] = same_vertex
    return out


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
    """Advance a density matrix one step through the full channel.

    rho, of any real or complex dtype, is taken to its complex vertex-pair
    blocks, stepped as every density walk is, and the result is a new
    C-ordered complex matrix. Besides rho, a step with a shared coin holds
    at most two copies of it at once, and one with a stacked coin three.
    """
    blocks = _to_blocks(np.asarray(rho, dtype=complex), step.shift.degree)
    # each stage's input is freed as its result is bound
    blocks = _toss_blocks(blocks, step)
    blocks = _shift_blocks(blocks, step)
    return _from_blocks(blocks)


def _walk(psi0: np.ndarray, step: StepMap, steps: int) -> Iterator[np.ndarray]:
    """evolve's states, with each density matrix held as its (N^2, d^2) blocks.

    A density step is taken in two stages, and each stage's input is freed
    as its result is bound, so beside what its caller keeps the walk holds
    at most two states at once, three while a stacked coin is tossed.
    """
    if steps < 0:
        raise ConfigError(f"step count must be nonnegative, got {steps}")
    _check_start(psi0, step)
    if step.is_unitary:
        state, stages, check = psi0.copy(), (unitary_step,), check_pure
    else:
        state = _pure_blocks(psi0, step.shift.degree)
        stages, check = (_toss_blocks, _shift_blocks), _check_block_trace
    yield state
    for _ in range(steps):
        for stage in stages:
            state = stage(state, step)
        check(state)
        yield state


def evolve(psi0: np.ndarray, step: StepMap, steps: int) -> Iterator[np.ndarray]:
    """Yield the walk's state at every time 0..steps.

    The states are pure vectors advanced by unitary_step when the step
    is unitary, and C-ordered density matrices advanced as cp_step
    advances them otherwise. Every advanced state gets an O(N*d) check,
    of its norm or of its diagonal and trace, which raises
    InvariantViolation; a negative step count raises ConfigError.
    """
    states = _walk(psi0, step, steps)
    return states if step.is_unitary else map(_from_blocks, states)


def _check_start(psi0: np.ndarray, step: StepMap) -> None:
    """Raise StructureError unless psi0 has shape (N*d,), then check_pure it."""
    size = step.shift.num_vertices * step.shift.degree
    if np.shape(psi0) != (size,):
        raise StructureError(f"start state needs N*d = {size} amplitudes, got shape {np.shape(psi0)}")
    check_pure(psi0)


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
        reached = neighbours[frontier].ravel()
        reached.sort()
        # each fresh vertex once: a frontier with repeats would count paths
        fresh = ~inside[reached]
        fresh[1:] &= reached[1:] != reached[:-1]
        frontier = reached[fresh]
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
    every time; the distribution is zero on every other vertex. A density
    walk's distribution is read off its blocks' diagonal.
    """
    cone_psi0, cone_step, vertices = _light_cone(psi0, step, steps)
    if cone_step.is_unitary:
        marginal = partial(pure_position_marginal, degree=step.shift.degree)
    else:
        marginal = _block_marginal
    # map holds no state once its marginal is taken, so the walk can free it
    for distribution in map(marginal, _walk(cone_psi0, cone_step, steps)):
        yield vertices, distribution


def run(psi0: np.ndarray, step: StepMap, steps: int) -> np.ndarray:
    """Evolve a pure initial state for the given number of steps.

    Returns the density matrix at time steps; steps=0 gives the initial
    projector. The walk is evolved on its light cone, and the final cone
    state is put in place in the full matrix. This is a small-N helper:
    the dense (N d) x (N d) return is kept for tests and the acceptance
    suite, and no command calls it; the CLI reads the cone marginals.
    """
    cone_psi0, cone_step, vertices = _light_cone(psi0, step, steps)
    for state in _walk(cone_psi0, cone_step, steps):
        pass
    state = to_density(state) if step.is_unitary else _from_blocks(state)
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
    # the ufunc's own method: ndarray.cumsum reaches it through more calls,
    # about 0.5 us a sum, which a one-sample step pays several times
    return np.add.accumulate(x, axis=-1)[..., -1]


def _sum_rows_in_order(x: np.ndarray) -> np.ndarray:
    """x summed over its first axis term by term, in index order.

    x's first axis must be its outermost in memory, as in a C-ordered
    array or a slice of one. With _FEW_LANES or more entries beside that
    axis, np.add.reduce then adds the rows one after another across every
    lane at once. Below that the last row of a running sum is faster, and
    over one lane it is needed: numpy sums a contiguous axis pairwise,
    which groups the terms otherwise.
    """
    if x.size < _FEW_LANES * len(x):
        return np.add.accumulate(x, axis=0)[-1]
    return np.add.reduce(x, axis=0)


def _coin_masses(x: np.ndarray) -> np.ndarray:
    """(S, d) array: per coin index, the mass of each state of the (n, S, d) block x.

    Entry [s, a] adds re**2 + im**2 of x[j, s, a] over the vertices j one
    at a time, in vertex order (_sum_rows_in_order). Adding a zero leaves
    such a sum unchanged, so vertices that hold no amplitude, such as those
    outside a light cone, do not change a mass.
    """
    return _sum_rows_in_order(_squared_moduli(x))


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
    cdf = np.add.accumulate(p, axis=1)
    tol = DEFAULT_TOLERANCES.draw_sum
    sums = cdf[:, -1].tolist()
    if not (np.minimum.reduce(p, axis=None) >= 0.0 and all(abs(x - 1.0) <= tol for x in sums)):
        raise InvariantViolation("draw weights are negative or do not sum to 1")
    return (cdf / cdf[:, -1:] > u[:, None]).argmax(axis=1)


def _viable_weights(w: np.ndarray) -> np.ndarray:
    """Each row of w renormalized over its entries above the viable-weight bound, the rest 0.

    Row by row this is bit-for-bit w[viable] / w[viable].sum() put back
    in place.
    """
    viable = w > DEFAULT_TOLERANCES.viable_weight
    if np.logical_and.reduce(viable, axis=None):
        return w / np.add.reduce(w, axis=1, keepdims=True)
    kept = np.where(viable, w, 0.0)
    sums = kept.sum(axis=1)
    if w.shape[1] >= 8:
        # numpy sums 8 or more terms pairwise, so zeros in place of the
        # dropped entries would regroup the sum
        for r in np.flatnonzero(~viable.all(axis=1)):
            sums[r] = w[r, viable[r]].sum()
    return kept / sums[:, None]


def _measure_vertices(psi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Read the vertex of each state of the (n, S, d) block psi with its Born probability.

    psi is projected in place onto the vertices read and renormalized, and
    the vertices are returned. The draw's normaliser and the projection's
    norm are coin masses summed in order, so vertices without amplitude
    change neither.
    """
    n, s, d = psi.shape
    pv = pure_position_marginal(psi, d).reshape(n, s)
    total = _sequential_sum(_coin_masses(psi))
    vertices = _inverse_cdf((pv / total).T, u)
    samples = np.arange(s)
    kept = psi[vertices, samples]
    norm = _sequential_sum(_squared_moduli(kept))
    _check_norms(norm, "vertex projection")
    psi.fill(0)
    psi[vertices, samples] = kept / np.sqrt(norm)[:, None]
    return vertices


def _block_shift_index(shift: ShiftOperator, samples: int) -> np.ndarray:
    """The shift's flat gather index on a block of the given number of states.

    Entry [j', s, a'] of the (n, S, d) index reads entry [j, s, a] of the
    block, where j d + a = shift.inverse[j' d + a'].
    """
    d = shift.degree
    vertex, port = np.divmod(shift.inverse, d)
    start = (vertex * (samples * d) + port).reshape(-1, 1, d)
    return start + np.arange(0, samples * d, d)[:, None]


def _form_branches(
    phi: np.ndarray, kraus: np.ndarray, tiled: np.ndarray | None, i: np.ndarray, w: np.ndarray
) -> None:
    """K_i phi / sqrt(w) in place on the (n, S, d) block phi: state s by K_{i[s]} over sqrt(w[s]).

    numpy divides a complex number by (r, 0) as a product with 1 / r, so
    the floats are scaled by that. One state is the same memory in either
    layout, and its branch is formed faster from tiled, the diagonals
    tiled over the cone, when given, than by a broadcast over vertices.
    """
    n, s, d = phi.shape
    if s == 1 and tiled is not None:
        flat = phi.reshape(-1)
        flat *= tiled[i[0]]
        floats = flat.view(float)
        floats *= 1.0 / math.sqrt(w[0])
    else:
        phi *= kraus[i]
        floats = phi.view(float).reshape(n, -1)
        floats *= np.repeat(1.0 / np.sqrt(w), 2 * d)


def _unravel(psi: np.ndarray, cone_step: StepMap, steps: int, choose, read=None) -> Iterator:
    """Advance the states of the block psi, on a light cone, through steps unravelled steps.

    psi is a complex (n, S, d) block (see _apply_coin), which the walk
    takes over. Step t tosses the coin on every state, takes their Born
    weights raw and checks their totals, and forms only the branches
    (rows, i) of (rows, i, w) = choose(t, raw, totals): K_i times the
    tossed state, over sqrt(w), where w is raw[rows, i]; rows is None when
    each state keeps the one branch i[row]. It shifts them, with
    read(t, psi), when given, measuring their vertex in place at the
    step's placement, and yields (psi, rows, i, raw). The next step writes
    over the block it yields.

    Beside the block, a step holds its toss, the shift's gather index and
    numpy's buffer for a factor broadcast over the vertices (at most
    np.getbufsize() entries); the shift gathers back into the block, which
    is spent once tossed.
    """
    kraus = cone_step.coin_kraus
    kraus_sq = _squared_moduli(kraus)
    tiled = np.tile(kraus, cone_step.shift.num_vertices) if psi.shape[1] == 1 else None
    read_before = cone_step.placement == "before-shift"
    index = None
    for t in range(steps):
        phi = _apply_coin(cone_step.coin, psi)
        raw = _born_weights(_coin_masses(phi), kraus_sq)
        totals = np.add.reduce(raw, axis=1)
        _check_branch_sums(totals)
        rows, i, w = choose(t, raw, totals)
        if rows is not None:
            phi = phi.take(rows, axis=1)
        _form_branches(phi, kraus, tiled, i, w)
        if read is not None and read_before:
            read(t, phi)
        if psi.shape != phi.shape:
            psi = np.empty_like(phi)
        if index is None or index.shape != phi.shape:
            index = _block_shift_index(cone_step.shift, phi.shape[1])
        # mode="clip" skips the bounds check, for which "raise" buffers out
        phi.reshape(-1).take(index, out=psi, mode="clip")
        del phi  # so that the next toss does not hold two
        if read is not None and not read_before:
            read(t, psi)
        yield psi, rows, i, raw


def _sample_blocks(
    psi0: np.ndarray, step: StepMap, steps: int, seeds: list
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]]:
    """sample_trajectories block by block, as arrays.

    Yields, per block of consecutive seeds, the sorted cone vertices, the
    block's final (n, S, d) states, and (S, steps) arrays of the outcomes,
    the drawn outcomes' probabilities and the vertices read (vertices of
    the whole graph), the last None without vertex measurement. The next
    block of as many samples is walked in the final states' array.
    """
    _require_unravelable(step, steps)
    cone_psi0, cone_step, cone = _light_cone(psi0, step, steps)
    n, d = cone.size, step.shift.degree
    measure_position = step.vertex_dephasing == 1.0
    draws = 2 if measure_position else 1
    block = max(1, SAMPLE_BLOCK_AMPLITUDES // cone_psi0.size)
    psi = None
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
            drawn = raw[rows, i]
            _check_norms(drawn, "sampled branch")
            probs[:, t] = w[rows, i]
            return None, i, drawn

        def read(t, psi):
            vertices[:, t] = _measure_vertices(psi, uniforms[:, t, 1])

        if psi is None or psi.shape[1] != s:
            psi = np.empty((n, s, d), dtype=complex)
        psi[:] = cone_psi0.reshape(n, 1, d)
        for psi, *_ in _unravel(psi, cone_step, steps, draw, read if measure_position else None):
            pass
        yield cone, psi, outcomes, probs, cone[vertices] if measure_position else None


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
    samples move together as a vertex-major (cone vertices, S, d) block,
    S = SAMPLE_BLOCK_AMPLITUDES // (cone ports) samples at a time (at
    least one). Yields, in seed order, the sorted cone vertices, the
    final state on the cone's ports and the record, whose vertex
    outcomes are vertices of the whole graph.
    """
    seeds = list(seeds)
    lo = 0
    for cone, block, outcomes, probs, vertices in _sample_blocks(psi0, step, steps, seeds):
        s = len(outcomes)
        # a copy, since the next block is walked in this one
        finals = block.transpose(1, 0, 2).copy().reshape(s, -1)
        for r in range(s):
            record = TrajectoryRecord(
                seeds[lo + r],
                tuple(outcomes[r].tolist()),
                tuple(probs[r].tolist()),
                None if vertices is None else tuple(vertices[r].tolist()),
            )
            yield cone, finals[r], record
        lo += s


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
    psi0 through the step of sample_trajectories, every live branch a
    state of one block, and come parent by parent, each parent's in outcome
    order. Every check and the whole expansion run before the function
    returns; each state is put back over all N*d ports only as it is taken.
    """
    if not prune > 0.0:
        raise ConfigError(f"prune must be a positive probability, got {prune}")
    _require_unravelable(step, steps)
    if step.vertex_dephasing != 0.0:
        raise ConfigError("branch enumeration supports coin measurement only")
    cone_psi0, cone_step, cone = _light_cone(psi0, step, steps)
    psi = np.array(cone_psi0, dtype=complex).reshape(cone.size, 1, step.shift.degree)
    probs, histories = np.ones(1), np.empty((1, 0), dtype=int)

    def keep(_t, raw, _totals):  # every branch of probability prune or more, parent by parent
        rows, i = np.nonzero(probs[:, None] * raw >= prune)
        return rows, i, raw[rows, i]

    for psi, rows, i, raw in _unravel(psi, cone_step, steps, keep):
        probs = probs[rows] * raw[rows, i]
        histories = np.column_stack([histories[rows], i])
    ports = _cone_ports(cone, step.shift.degree)
    branches = zip(probs.tolist(), psi.transpose(1, 0, 2), histories.tolist())
    return ((p, _in_place(x.ravel(), ports, psi0.size), tuple(h)) for p, x, h in branches)


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

"""Distribution metrics, mixing curves, and the measurement trade-off sweep."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .classical import _chain, classical_run, uniform_distribution
from .errors import ConfigError, StructureError
from .evolution import StepMap, _coin_kraus, _marginals
from .graph import PortGraph
from .meter import distinguishability, visibility
from .state import pure_position_marginal

__all__ = [
    "ComplementarityPoint",
    "MixingComparison",
    "MixingCurve",
    "compare_mixing",
    "complementarity_sweep",
    "first_crossing",
    "tvd",
]


def tvd(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance, half the l1 distance between distributions."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise StructureError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    return 0.5 * float(np.sum(np.abs(p - q)))


@dataclass(frozen=True)
class MixingCurve:
    """TVD to uniform against time, instantaneous or time-averaged."""

    times: tuple[int, ...]
    tvd_to_uniform: tuple[float, ...]
    variant: str


@dataclass(frozen=True)
class ComplementarityPoint:
    """One measurement strength with its trade-off coordinates."""

    beta: float
    visibility: float
    distinguishability: float
    tvd_to_unitary: float
    tvd_to_classical: float


@dataclass(frozen=True)
class MixingComparison:
    quantum: MixingCurve
    classical: MixingCurve
    quantum_crossing: int | None
    classical_crossing: int | None
    first_to_cross: str


def first_crossing(curve: MixingCurve, epsilon: float) -> int | None:
    """Earliest time the curve reaches TVD <= epsilon, None if it never does."""
    for t, value in zip(curve.times, curve.tvd_to_uniform):
        if value <= epsilon:
            return t
    return None


def compare_mixing(
    graph: PortGraph,
    step: StepMap,
    psi0: np.ndarray,
    t_max: int,
    epsilon: float,
) -> MixingComparison:
    """Race the walk's time-averaged distribution against the classical chain.

    The quantum curve uses the Cesaro average of the configured walk's
    position distributions, the quantity that settles down even when
    the instantaneous one keeps oscillating. The classical curve is the
    instantaneous chain distribution started from the same vertex
    marginal. Both are scored by TVD to uniform and the comparison
    reports which reaches epsilon first.
    """
    if t_max < 1:
        raise ConfigError(f"t_max must be at least 1, got {t_max}")
    if not 0.0 < epsilon <= 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1], got {epsilon}")
    n = graph.num_vertices
    uniform = uniform_distribution(n)
    chain = _chain(graph)
    running_sum = np.zeros(n)
    # row 0 the walk's time average, row 1 the chain; both are scored by
    # one row sum per time, which sums each row as tvd's np.sum does
    pair = np.empty((2, n))
    distances = np.empty((t_max + 1, 2))
    # the chain starts from psi0 once the walk has checked it
    for t, (vertices, marginal) in enumerate(_marginals(psi0, step, t_max)):
        p = chain(p) if t else pure_position_marginal(psi0, graph.degree)
        running_sum[vertices] += marginal
        np.divide(running_sum, t + 1, out=pair[0])
        pair[1] = p
        np.subtract(pair, uniform, out=pair)
        np.abs(pair, out=pair)
        np.sum(pair, axis=1, out=distances[t])
    quantum_tvd, classical_tvd = (0.5 * distances).T.tolist()
    times = tuple(range(t_max + 1))
    quantum = MixingCurve(times, tuple(quantum_tvd), "time-averaged")
    classical = MixingCurve(times, tuple(classical_tvd), "instantaneous")

    qc = first_crossing(quantum, epsilon)
    cc = first_crossing(classical, epsilon)
    if qc is None and cc is None:
        first = "neither"
    elif cc is None or (qc is not None and qc < cc):
        first = "quantum"
    elif qc is None or cc < qc:
        first = "classical"
    else:
        first = "tie"
    return MixingComparison(quantum, classical, qc, cc, first)


def _final_marginal(task) -> np.ndarray:
    psi0, step, steps = task
    for vertices, marginal in _marginals(psi0, step, steps):
        pass
    final = np.zeros(step.shift.num_vertices)
    final[vertices] = marginal
    return final


def complementarity_sweep(
    graph: PortGraph,
    step: StepMap,
    psi0: np.ndarray,
    steps: int,
    betas: list[float],
    map_fn=map,
) -> list[ComplementarityPoint]:
    """Trace the trade-off curve over a grid of measurement strengths.

    step is the walk without a coin measurement. For each beta it walks
    with the measurement of that strength attached, as make_step attaches
    it, and its final position distribution is compared against two
    anchors: the unmeasured walk (beta=0) and the classical chain.
    Visibility and which-path knowledge come straight from beta. At
    beta=0 the first distance is zero by construction; at beta=1 the
    second vanishes for basis-state starts.

    map_fn(worker, tasks) runs the walks, one per distinct beta with
    beta=0 among them, so the builtin map runs them in turn and a
    process pool's map runs them in parallel.
    """
    if step.coin_kraus is not None:
        raise ConfigError("sweep takes its strengths from betas; its step must measure no coin")
    # rejects a beta outside [0, 1] before any walk runs
    known = [(visibility(beta), distinguishability(beta)) for beta in betas]
    distinct = list(dict.fromkeys([0.0, *betas]))
    d = graph.degree
    tasks = [(psi0, replace(step, coin_kraus=_coin_kraus(beta, d)), steps) for beta in distinct]
    finals = dict(zip(distinct, map_fn(_final_marginal, tasks)))
    anchor_classical = classical_run(
        pure_position_marginal(psi0, graph.degree), graph, steps
    )
    return [
        ComplementarityPoint(
            beta=beta,
            visibility=v,
            distinguishability=k,
            tvd_to_unitary=tvd(finals[beta], finals[0.0]),
            tvd_to_classical=tvd(finals[beta], anchor_classical),
        )
        for beta, (v, k) in zip(betas, known)
    ]

"""Output checks and the oracles they compare against.

Every check returns a list of problems; an empty list means the
invocation's outputs are correct. The checks read only the files the
CLI wrote, never its in-memory state, and run outside the timed region.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from coinwalk import DEFAULT_TOLERANCES, assembled_step_operators, vertex_dephasing

TOL = DEFAULT_TOLERANCES.trace


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV the CLI wrote."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))


def distribution_problems(p: np.ndarray, where: str) -> list[str]:
    """A distribution must be finite, non-negative and sum to 1."""
    if not np.all(np.isfinite(p)):
        return [f"{where}: non-finite entry"]
    problems = []
    if p.min() < 0.0:
        problems.append(f"{where}: negative entry {p.min()!r}")
    if not abs(p.sum() - 1.0) <= TOL:
        problems.append(f"{where}: sums to {p.sum()!r}")
    return problems


def dense_density_marginals(step, psi0: np.ndarray, steps: int) -> np.ndarray:
    """Position marginals at t = 0..steps from dense full-space operators.

    Builds the measured step as the Kraus set {S K_i C}, independently
    of the cp_step code path. Vertex dephasing acts before the shift (the
    CLI default), so it is applied between undoing and redoing S.
    """
    d = step.shift.degree
    ops = assembled_step_operators(step)
    s = step.shift.matrix()
    rho = np.outer(psi0, psi0.conj())
    out = [np.real(np.diagonal(rho)).reshape(-1, d).sum(axis=1)]
    for _ in range(steps):
        rho = sum(a @ rho @ a.conj().T for a in ops)
        rho = s @ vertex_dephasing(s.conj().T @ rho @ s, step.vertex_dephasing, d) @ s.conj().T
        out.append(np.real(np.diagonal(rho)).reshape(-1, d).sum(axis=1))
    return np.array(out)


def check_run(out: Path, steps: int, num_vertices: int, oracle: np.ndarray) -> list[str]:
    """`run` CSV: one distribution per t, the first ones equal to the oracle."""
    _header, rows = read_csv(out)
    hist = np.zeros((steps + 1, num_vertices))
    t, v = rows[:, 0].astype(int), rows[:, 1].astype(int)
    if t.min(initial=0) < 0 or t.max(initial=0) > steps or v.min(initial=0) < 0 \
            or v.max(initial=0) >= num_vertices:
        return [f"{out.name}: (t, vertex) out of range"]
    hist[t, v] = rows[:, 2]
    problems = []
    for step_t, row in enumerate(hist):
        problems += distribution_problems(row, f"{out.name} t={step_t}")
    upto = min(steps + 1, len(oracle))
    dev = float(np.max(np.abs(hist[:upto] - oracle[:upto])))
    if not dev <= TOL:
        problems.append(f"{out.name}: first {upto - 1} steps deviate from the dense oracle by {dev!r}")
    return problems


def check_trajectory(base: Path, steps: int, samples: int, num_vertices: int,
                     num_outcomes: int, seed: int) -> list[str]:
    """`trajectory` records, histogram and sidecar."""
    problems = []
    _header, rec = read_csv(base.with_name(base.name + "_records.csv"))
    if rec.shape[0] != steps * samples:
        problems.append(f"records: {rec.shape[0]} rows, expected {steps * samples}")
    elif steps:
        expect_sample = np.repeat(np.arange(samples), steps)
        expect_step = np.tile(np.arange(1, steps + 1), samples)
        if not (np.array_equal(rec[:, 0], expect_sample) and np.array_equal(rec[:, 1], expect_step)):
            problems.append("records: (sample, step) rows out of order")
        outcomes, born = rec[:, 2], rec[:, 3]
        if outcomes.min() < 0 or outcomes.max() >= num_outcomes:
            problems.append("records: outcome out of range")
        if not (np.all(born > 0.0) and np.all(born <= 1.0)):
            problems.append(f"records: Born weight outside (0, 1]: {float(born.min())!r}..{float(born.max())!r}")
    _header, hist = read_csv(base.with_name(base.name + "_histogram.csv"))
    if hist.shape[0] != num_vertices:
        problems.append(f"histogram: {hist.shape[0]} rows, expected {num_vertices}")
    else:
        problems += distribution_problems(hist[:, 1], "histogram")
    meta = json.loads(base.with_name(base.name + ".meta.json").read_text(encoding="utf-8"))
    if meta["seed"]["root"] != seed:
        problems.append(f"sidecar: root seed {meta['seed']['root']} != {seed}")
    return problems


def transition_matrix(adjacency: list[tuple[int, int]], num_vertices: int) -> np.ndarray:
    """Column-stochastic simple random walk matrix of an undirected graph."""
    a = np.zeros((num_vertices, num_vertices))
    for u, v in adjacency:
        a[u, v] = a[v, u] = 1.0
    return a / a.sum(axis=0)


def classical_tvd_curve(p_matrix: np.ndarray, start_vertex: int, t_max: int) -> np.ndarray:
    """TVD to uniform of P^t e_start for t = 0..t_max."""
    n = p_matrix.shape[0]
    p = np.zeros(n)
    p[start_vertex] = 1.0
    out = np.empty(t_max + 1)
    for t in range(t_max + 1):
        out[t] = 0.5 * np.abs(p - 1.0 / n).sum()
        p = p_matrix @ p
    return out


def check_mix(out: Path, t_max: int, epsilon: float, expected: np.ndarray) -> list[str]:
    """`mix` CSV against the independent classical curve, and its sidecar."""
    problems = []
    _header, rows = read_csv(out)
    if rows.shape[0] != t_max + 1 or not np.array_equal(rows[:, 0], np.arange(t_max + 1)):
        return [f"{out.name}: expected rows t=0..{t_max}"]
    quantum, classical = rows[:, 1], rows[:, 2]
    if not (np.all(quantum >= 0.0) and np.all(quantum <= 1.0)):
        problems.append(f"{out.name}: quantum TVD outside [0, 1]")
    dev = float(np.max(np.abs(classical - expected[: t_max + 1])))
    if not dev <= TOL:
        problems.append(f"{out.name}: classical curve deviates from P^t by {dev!r}")
    below = np.flatnonzero(expected[: t_max + 1] <= epsilon)
    crossing = int(below[0]) if below.size else None
    meta = json.loads(out.with_suffix(".meta.json").read_text(encoding="utf-8"))
    if meta["result"]["classical_crossing"] != crossing:
        problems.append(
            f"sidecar: classical crossing {meta['result']['classical_crossing']} != {crossing}"
        )
    return problems

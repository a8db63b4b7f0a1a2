import numpy as np
import pytest

from coinwalk import Edge, assign_ports, build_cycle, from_edge_list

# A small irregular instance used throughout: six vertices, eight edges,
# vertex degrees (4, 2, 3, 3, 3, 1), graph degree 4. Exercises reduced
# degree vertices, the zero-port coin constraint, and the port-swap shift
# on something that is not a cycle.
MULTI_ADJACENCY = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 5)]


@pytest.fixture(scope="session")
def multi_graph():
    return from_edge_list(assign_ports(MULTI_ADJACENCY))


@pytest.fixture(scope="session")
def cycle7():
    return build_cycle(7)


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def in_place(cone: np.ndarray, state: np.ndarray, size: int) -> np.ndarray:
    """A state on the ports of the sorted cone vertices, put back among zeros over size ports."""
    full = np.zeros(size, dtype=state.dtype)
    full.reshape(-1, state.size // cone.size)[cone] = state.reshape(cone.size, -1)
    return full


def port_permuted_torus(side: int, rng: np.random.Generator):
    """side x side torus with the port labels permuted at every vertex."""
    return from_edge_list(port_permuted_torus_edges(side, rng))


def port_permuted_torus_edges(side: int, rng: np.random.Generator) -> list[Edge]:
    """The edge list of port_permuted_torus, in assign_ports order."""
    adjacency = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            adjacency.append((v, r * side + (c + 1) % side))
            adjacency.append((v, ((r + 1) % side) * side + c))
    relabel = [rng.permutation(4) for _ in range(side * side)]
    return [
        Edge(e.u, int(relabel[e.u][e.pu]), e.v, int(relabel[e.v][e.pv]))
        for e in assign_ports(adjacency)
    ]

"""Coined quantum walks on port-labeled graphs with tunable coin measurement.

The package simulates discrete-time walks whose step is a coin toss
followed by a coin-conditioned move along graph edges. A meter of
adjustable strength can read the coin each step, trading interference
for which-path knowledge; at full strength the walk becomes the
classical random chain, at zero strength it stays unitary.
"""

__version__ = "0.24.0"

from .analysis import (
    ComplementarityPoint,
    MixingComparison,
    MixingCurve,
    compare_mixing,
    complementarity_sweep,
    first_crossing,
    tvd,
)
from .classical import (
    classical_run,
    classical_step,
    uniform_distribution,
)
from .coin import (
    default_coin_spec,
    dft_coin,
    hadamard_phi,
)
from .errors import ConfigError, InvariantViolation, StructureError
from .evolution import (
    StepMap,
    TrajectoryRecord,
    assembled_step_operators,
    cp_step,
    enumerate_branches,
    evolve,
    make_step,
    marginal_history,
    run,
    sample_trajectories,
    sample_trajectory,
    unitary_step,
    vertex_dephasing,
    walker_paths,
)
from .graph import (
    Edge,
    PortGraph,
    assign_ports,
    build_cycle,
    from_edge_list,
    load_graph,
    save_graph,
)
from .meter import (
    MeterCoupling,
    build_meter_unitary,
    dephasing_kraus,
    distinguishability,
    induced_coin_channel,
    uniform_dephasing_kraus,
    visibility,
)
from .shift import ShiftOperator, build_cycle_shift, build_shift
from .state import (
    DEFAULT_TOLERANCES,
    Tolerances,
    basis_state,
    check_pure,
    check_trace,
    partial_trace_meter,
    position_marginal,
    pure_position_marginal,
    to_density,
)

"""Stability analysis for large-scale interconnected time-delay systems.

The package follows one pipeline.  Describe each subsystem's influence
on its neighbours with class-K gain functions (:mod:`smallgain.gains`),
assemble them into a digraph and verify the cyclic small-gain conditions
(:mod:`smallgain.graph`), eliminate nodes to obtain explicit closed-loop
input gains and transient bounds (:mod:`smallgain.reduction`), simulate
the underlying delay differential equations (:mod:`smallgain.sim`), and
check the predicted bounds against the computed trajectory
(:mod:`smallgain.checks`).  Configurations can be written as JSON with
small text grammars for gains and dynamics (:mod:`smallgain.dsl`), and
the ``smallgain`` command-line tool drives the whole pipeline.
"""

from .gains import (
    Compose,
    DEFAULT_GRID,
    GridSpec,
    Identity,
    KFunction,
    Linear,
    Max,
    Power,
    SaturatingRational,
    Verdict,
    VerdictStatus,
    additive_to_max,
    compose,
    compose_chain,
    less_than_identity,
    less_than_identity_chains,
    max_of,
    pointwise_max,
)
from .graph import (
    CycleCountExceeded,
    CycleReport,
    GainDigraph,
    SmallGainCheck,
    build_gain_digraph,
    check_cyclic_small_gain,
    cycle_gain,
    enumerate_simple_cycles,
)
from .reduction import (
    ClosedLoopGains,
    ElimStep,
    ReducedSystem,
    SmallGainViolation,
    closed_loop_input_gains,
    combined_initial_constant,
    eliminate_node,
    global_gs_sigma,
)
from .sim import (
    DelaySystemSpec,
    HistoryFunction,
    InputSignal,
    SimulationError,
    StateFeedback,
    Subsystem,
    Trajectory,
    build_auxiliary_system,
    build_interconnection,
    simulate,
)
from .checks import (
    BoundReport,
    LimsupEstimate,
    Witness,
    check_ag,
    check_gas,
    check_gs,
    limsup_estimate,
    sup_norm,
)
from .dsl import (
    ConfigError,
    GainParseError,
    ParsedConfig,
    RhsParseError,
    compile_rhs,
    compile_time_expression,
    load_config,
    parse_gain,
    parse_system,
)
from .ring import ring_config, ring_gains, ring_system

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ClosedLoopGains",
    "Compose",
    "ConfigError",
    "CycleCountExceeded",
    "CycleReport",
    "DEFAULT_GRID",
    "DelaySystemSpec",
    "ElimStep",
    "GainDigraph",
    "GainParseError",
    "GridSpec",
    "HistoryFunction",
    "Identity",
    "InputSignal",
    "KFunction",
    "LimsupEstimate",
    "Linear",
    "Max",
    "ParsedConfig",
    "Power",
    "ReducedSystem",
    "RhsParseError",
    "SaturatingRational",
    "SimulationError",
    "SmallGainCheck",
    "SmallGainViolation",
    "StateFeedback",
    "Subsystem",
    "Trajectory",
    "Verdict",
    "VerdictStatus",
    "Witness",
    "additive_to_max",
    "build_auxiliary_system",
    "build_gain_digraph",
    "build_interconnection",
    "check_ag",
    "check_cyclic_small_gain",
    "check_gas",
    "check_gs",
    "closed_loop_input_gains",
    "combined_initial_constant",
    "compile_rhs",
    "compile_time_expression",
    "compose",
    "compose_chain",
    "cycle_gain",
    "eliminate_node",
    "enumerate_simple_cycles",
    "global_gs_sigma",
    "less_than_identity",
    "less_than_identity_chains",
    "limsup_estimate",
    "load_config",
    "max_of",
    "parse_gain",
    "parse_system",
    "pointwise_max",
    "ring_config",
    "ring_gains",
    "ring_system",
    "simulate",
    "sup_norm",
    "__version__",
]

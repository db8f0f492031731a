"""Closed-loop gain construction by node elimination.

Given a gain digraph whose simple cycles all satisfy the small-gain
condition, each node i of the network admits an asymptotic bound of the
shape

    b_i <= max{ gamma_ij(b_j) ...,  gamma_iu(||u||) }

and the coupled system of max-inequalities can be solved for explicit
input-to-node gains.  The solver works by Gaussian-style elimination in
the (max, compose) algebra:

* eliminating node m substitutes its inequality into every other row,
  replacing gamma_ij by max{gamma_ij, gamma_im o gamma_mj} and the input
  gain by max{gamma_iu, gamma_im o gamma_mu};
* the self-referential term gamma_im o gamma_mi(b_i) produced by the
  substitution is dropped (a finite b_i cannot exceed a bound strictly
  contractive in b_i).  That term is a maximum over closed walks of the
  original digraph through i.  A closed walk splits into simple cycles
  and class-K gains are increasing, so the walk stays below the identity
  once every simple cycle does (Dashkovskiy, Ruffer & Wirth, MCSS 2007):
  the verified cyclic small-gain check certifies every dropped term, and
  elimination does no grid work of its own;
* once two nodes remain the pair is solved directly, and previously
  eliminated nodes are recovered by back-substitution in reverse order.

Overshoot bounds for the transient are obtained by the same elimination
run on a second, synthetic input channel: the combined initial constant
c enters every row with identity gain, and the reduced gain of that
channel is the per-node overshoot function sigma_i.  Reports flag this
construction, it is one valid realization of the transient bound, not
the only one.

All inputs and outputs are immutable; functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

from .gains import (
    DEFAULT_GRID,
    Compose,
    GridSpec,
    Identity,
    KFunction,
    max_of,
)
from .graph import (
    CycleReport,
    GainDigraph,
    SmallGainCheck,
    build_gain_digraph,
    check_cyclic_small_gain,
)

__all__ = [
    "SmallGainViolation",
    "ElimStep",
    "ReducedSystem",
    "ClosedLoopGains",
    "eliminate_node",
    "closed_loop_input_gains",
    "combined_initial_constant",
    "global_gs_sigma",
]

_AG_CHANNEL = "u"
_GS_CHANNEL = "c"


class SmallGainViolation(RuntimeError):
    """A required small-gain condition failed; carries the offending report."""

    def __init__(self, message: str, report: CycleReport | None = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class ElimStep:
    """Record of one node elimination.

    out_gains is the eliminated node's row at elimination time (gains
    toward the then-surviving nodes) and inputs its channel gains, which
    is exactly what back-substitution needs later; dropped_self holds
    the contractive self-terms discarded under the cyclic small-gain
    condition.
    """

    node: int
    out_gains: Mapping[int, KFunction]
    inputs: Mapping[str, KFunction]
    dropped_self: Mapping[int, KFunction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "out_gains", MappingProxyType(dict(self.out_gains)))
        object.__setattr__(self, "inputs", MappingProxyType(dict(self.inputs)))
        object.__setattr__(self, "dropped_self", MappingProxyType(dict(self.dropped_self)))


@dataclass(frozen=True)
class ReducedSystem:
    """Result of a single public elimination step (one input channel)."""

    nodes: tuple[int, ...]
    edges: Mapping[tuple[int, int], KFunction]
    input_gains: Mapping[int, KFunction]
    step: ElimStep

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))
        object.__setattr__(self, "input_gains", MappingProxyType(dict(self.input_gains)))


def _require_verified(g: GainDigraph, grid: GridSpec, check: SmallGainCheck | None) -> None:
    """Raise unless the cyclic small-gain condition of g verifies on grid.

    Runs the check when ``check`` is None; a given check must have been
    computed for this very digraph object and an equal grid (ValueError
    otherwise).  An unverified check raises SmallGainViolation carrying
    its worst cycle report.
    """
    if check is None:
        check = check_cyclic_small_gain(g, grid)
    elif check.digraph is not g or check.grid != grid:
        raise ValueError("the small-gain check was computed for another digraph or grid")
    if not check.verified:
        worst = check.worst()
        raise SmallGainViolation(
            "cyclic small-gain condition is not verified for this digraph "
            f"(status {check.status.value}, worst cycle {worst.cycle if worst else None})",
            worst,
        )


def _eliminate(
    nodes: list[int],
    edges: dict[tuple[int, int], KFunction],
    channels: dict[str, dict[int, KFunction]],
    m: int,
) -> tuple[list[int], dict[tuple[int, int], KFunction], dict[str, dict[int, KFunction]], ElimStep]:
    if m not in nodes:
        raise ValueError(f"node {m} is not present (remaining nodes: {nodes})")
    survivors = [i for i in nodes if i != m]

    dropped = {
        i: Compose(edges[(i, m)], edges[(m, i)])
        for i in survivors
        if (i, m) in edges and (m, i) in edges
    }

    out_edges = {(i, j): g for (i, j), g in edges.items() if i in survivors and j in survivors}
    for i in survivors:
        if (i, m) not in edges:
            continue
        g_im = edges[(i, m)]
        for j in survivors:
            if j == i or (m, j) not in edges:
                continue
            via = Compose(g_im, edges[(m, j)])
            out_edges[(i, j)] = max_of([edges[(i, j)], via] if (i, j) in edges else [via])

    out_channels: dict[str, dict[int, KFunction]] = {}
    for ch, gains in channels.items():
        out_ch = {i: g for i, g in gains.items() if i in survivors}
        if m in gains:
            g_mu = gains[m]
            for i in survivors:
                if (i, m) not in edges:
                    continue
                via = Compose(edges[(i, m)], g_mu)
                out_ch[i] = max_of([out_ch[i], via] if i in out_ch else [via])
        out_channels[ch] = out_ch

    step = ElimStep(
        node=m,
        out_gains={j: edges[(m, j)] for j in survivors if (m, j) in edges},
        inputs={ch: gains[m] for ch, gains in channels.items() if m in gains},
        dropped_self=dropped,
    )
    return survivors, out_edges, out_channels, step


def eliminate_node(
    gains: Mapping[tuple[int, int], KFunction],
    input_gains: Mapping[int, KFunction],
    m: int,
    grid: GridSpec = DEFAULT_GRID,
) -> ReducedSystem:
    """Eliminate node m from a system of max-form gain inequalities.

    gains maps surviving-or-eliminated pairs (i, j) to class-K trees and
    input_gains maps nodes to their input gains (both partial).  The
    reduced system couples the remaining nodes with

        gamma_ij' = max{gamma_ij, gamma_im o gamma_mj}
        gamma_iu' = max{gamma_iu, gamma_im o gamma_mu}

    where absent terms are simply left out.  The nodes are indices
    1..k, k the largest node given.  Requires the cyclic small-gain
    check of that digraph to verify on ``grid``, as
    :func:`closed_loop_input_gains` does; otherwise raises
    SmallGainViolation carrying the worst cycle report.  Each dropped
    self-term gamma_im o gamma_mi is a closed walk, below the identity
    once every simple cycle is.
    """
    nodes = sorted({i for pair in gains for i in pair} | set(input_gains))
    edges = dict(gains)
    _require_verified(build_gain_digraph(max(nodes, default=0), edges, input_gains), grid, None)
    channels = {_AG_CHANNEL: dict(input_gains)}
    survivors, out_edges, out_channels, step = _eliminate(nodes, edges, channels, m)
    return ReducedSystem(tuple(survivors), out_edges, out_channels[_AG_CHANNEL], step)


def _solve_terminal(
    nodes: list[int],
    edges: dict[tuple[int, int], KFunction],
    channels: dict[str, dict[int, KFunction]],
) -> dict[str, dict[int, KFunction]]:
    """Solve the final 1- or 2-node system of max-inequalities."""
    solved: dict[str, dict[int, KFunction]] = {ch: {} for ch in channels}
    if len(nodes) == 1:
        (a,) = nodes
        for ch, gains in channels.items():
            if a in gains:
                solved[ch][a] = gains[a]
        return solved

    a, b = nodes
    for ch, gains in channels.items():
        for i, j in ((a, b), (b, a)):
            terms: list[KFunction] = []
            if (i, j) in edges and j in gains:
                terms.append(Compose(edges[(i, j)], gains[j]))
            if i in gains:
                terms.append(gains[i])
            if terms:
                solved[ch][i] = max_of(terms)
    return solved


def _back_substitute(
    solved: dict[str, dict[int, KFunction]],
    trace: Sequence[ElimStep],
) -> dict[str, dict[int, KFunction]]:
    for step in reversed(trace):
        for ch in solved:
            terms: list[KFunction] = []
            for j, g_mj in sorted(step.out_gains.items()):
                if j in solved[ch]:
                    terms.append(Compose(g_mj, solved[ch][j]))
            if ch in step.inputs:
                terms.append(step.inputs[ch])
            if terms:
                solved[ch][step.node] = max_of(terms)
    return solved


@dataclass(frozen=True)
class ClosedLoopGains:
    """Explicit input-to-node gains of the interconnected system.

    input_gains[i] bounds the asymptotic influence of the external input
    on node i (None when the input cannot reach the node at all), and
    the same functions serve as the input part of the transient
    estimate.  sigmas[i] maps the combined initial constant c to node
    i's transient overshoot bound.
    """

    k: int
    input_gains: Mapping[int, KFunction | None]
    sigmas: Mapping[int, KFunction]
    order: tuple[int, ...]
    trace: tuple[ElimStep, ...] = field(default_factory=tuple, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_gains", MappingProxyType(dict(self.input_gains)))
        object.__setattr__(self, "sigmas", MappingProxyType(dict(self.sigmas)))

    def to_dict(self, samples: Sequence[float] = ()) -> dict:
        """JSON-friendly form: expression strings plus evaluation tables.

        The tables are evaluated sample by sample, with one memo per
        sample shared by every node's gains, so a subexpression common
        to several gains is evaluated once per sample.
        """
        node_ids = range(1, self.k + 1)
        xs = [float(s) for s in samples]
        gain_vals: dict[int, list[float]] = {i: [] for i in node_ids if self.input_gains.get(i) is not None}
        sigma_vals: dict[int, list[float]] = {i: [] for i in node_ids}
        for x in xs:
            memo: dict = {}
            for i in node_ids:
                sigma_vals[i].append(self.sigmas[i](x, memo))
                if i in gain_vals:
                    gain_vals[i].append(self.input_gains[i](x, memo))
        nodes = {}
        for i in node_ids:
            gain = self.input_gains.get(i)
            entry: dict = {
                "input_gain": None if gain is None else gain.to_expr(),
                "sigma": self.sigmas[i].to_expr(),
            }
            if samples:
                entry["table"] = {
                    "s": list(xs),
                    "input_gain": gain_vals.get(i),
                    "sigma": sigma_vals[i],
                }
            nodes[str(i)] = entry
        return {
            "k": self.k,
            "elimination_order": list(self.order),
            "nodes": nodes,
            "certifies": "validity of the bounds, not minimality",
            "transient_bounds_via": "identity-gain constant channel run through the same elimination",
        }


def closed_loop_input_gains(
    g: GainDigraph,
    grid: GridSpec = DEFAULT_GRID,
    order: Sequence[int] | None = None,
    *,
    check: SmallGainCheck | None = None,
) -> ClosedLoopGains:
    """Solve the network's gain inequalities for explicit per-node bounds.

    Requires the full cyclic small-gain check to verify on ``grid``
    (raises SmallGainViolation with the worst cycle report otherwise).
    A caller that has already run :func:`check_cyclic_small_gain` may
    pass its result as ``check`` so that the cycles are not checked a
    second time; it must have been computed for this very digraph object
    ``g`` and a grid equal to ``grid`` (ValueError otherwise), and an
    unverified check raises SmallGainViolation as a fresh one would.
    Nodes are then eliminated one by one, by default in the order
    k, k-1, ..., 3, the remaining pair is solved directly, and the
    eliminated nodes are recovered by back-substitution.  A custom
    ``order`` may eliminate any distinct nodes as long as at least one
    node survives; different orders yield different but equally valid
    bound functions.  That check is the only one: every self-term the
    elimination drops is a closed walk of ``g``, which splits into
    simple cycles, so it is below the identity once they all are.

    The transient side rides along as a synthetic input channel with
    identity gain into every node, so the returned sigmas are reduced
    exactly like the input gains.
    """
    _require_verified(g, grid, check)
    if order is None:
        order = tuple(range(g.k, 2, -1))
    else:
        order = tuple(order)
        if len(set(order)) != len(order):
            raise ValueError(f"elimination order {order} repeats a node")
        if len(order) > g.k - 1:
            raise ValueError("elimination order must leave at least one node")
        for m in order:
            if not (1 <= m <= g.k):
                raise ValueError(f"elimination order contains invalid node {m}")

    nodes = list(range(1, g.k + 1))
    edges = dict(g.edges)
    channels: dict[str, dict[int, KFunction]] = {
        _AG_CHANNEL: dict(g.input_gains),
        _GS_CHANNEL: {i: Identity() for i in nodes},
    }
    trace: list[ElimStep] = []
    for m in order:
        nodes, edges, channels, step = _eliminate(nodes, edges, channels, m)
        trace.append(step)

    if len(nodes) > 2:
        raise ValueError(
            f"elimination order {order} leaves {len(nodes)} coupled nodes; "
            "eliminate down to at most two before the terminal solve"
        )
    solved = _solve_terminal(nodes, edges, channels)
    solved = _back_substitute(solved, trace)

    input_gains = {i: solved[_AG_CHANNEL].get(i) for i in range(1, g.k + 1)}
    sigmas = dict(solved[_GS_CHANNEL])
    if set(sigmas) != set(range(1, g.k + 1)):
        # The identity constant channel feeds every node, so every node
        # must come back with a transient bound.
        missing = sorted(set(range(1, g.k + 1)) - set(sigmas))
        raise AssertionError(f"transient bound lost for nodes {missing}")
    return ClosedLoopGains(
        k=g.k,
        input_gains=input_gains,
        sigmas=sigmas,
        order=order,
        trace=tuple(trace),
    )


def combined_initial_constant(g: GainDigraph, history_norms: Mapping[int, float]) -> float:
    """Combined constant c bounding every node's initial influence.

    history_norms[j] is the sup norm of subsystem j's initial segment.
    c is the maximum of sigma_i applied to node i's own history norm
    (over nodes with an overshoot gain) and gamma_ij applied to node j's
    history norm (over coupling edges).  All-zero histories give c = 0.
    """
    norms = {}
    for i in range(1, g.k + 1):
        if i not in history_norms:
            raise ValueError(f"history norm for node {i} is missing")
        v = float(history_norms[i])
        if not (v >= 0.0):
            raise ValueError(f"history norm for node {i} must be nonnegative, got {v}")
        norms[i] = v
    c = 0.0
    for i, sigma in g.gs_gains.items():
        c = max(c, sigma(norms[i]))
    for (i, j), gain in g.edges.items():
        c = max(c, gain(norms[j]))
    return c


def global_gs_sigma(g: GainDigraph, closed: ClosedLoopGains) -> KFunction:
    """Single overshoot function for the whole network.

    Composes each node's transient bound sigma_i with the worst-case map
    from the global history norm to the combined constant c, and takes
    the pointwise maximum over nodes:  ||x(t)|| <= result(||history||)
    for the unforced system.
    """
    c_terms: list[KFunction] = []
    for i in sorted(g.gs_gains):
        c_terms.append(g.gs_gains[i])
    for key in sorted(g.edges):
        c_terms.append(g.edges[key])
    if not c_terms:
        raise ValueError("digraph has neither overshoot gains nor coupling gains; no transient bound exists")
    c_fun = max_of(c_terms)
    return max_of([Compose(closed.sigmas[i], c_fun) for i in range(1, closed.k + 1)])

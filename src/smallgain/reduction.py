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
  substitution is dropped, which is sound exactly because the 2-cycle
  through m satisfies the small-gain condition (a finite b_i cannot
  exceed a bound strictly contractive in b_i);
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
    Max,
    less_than_identity,
)
from .graph import CycleReport, GainDigraph, check_cyclic_small_gain

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
    toward the then-surviving nodes), which is exactly what
    back-substitution needs later.  new_edges lists the surviving-pair
    gains introduced or widened by the substitution, and dropped_self
    the contractive self-terms discarded under the 2-cycle condition.
    """

    node: int
    out_gains: Mapping[int, KFunction]
    inputs: Mapping[str, KFunction]
    new_edges: Mapping[tuple[int, int], KFunction]
    new_inputs: Mapping[str, Mapping[int, KFunction]]
    dropped_self: Mapping[int, KFunction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "out_gains", MappingProxyType(dict(self.out_gains)))
        object.__setattr__(self, "inputs", MappingProxyType(dict(self.inputs)))
        object.__setattr__(self, "new_edges", MappingProxyType(dict(self.new_edges)))
        object.__setattr__(
            self, "new_inputs", MappingProxyType({ch: MappingProxyType(dict(v)) for ch, v in dict(self.new_inputs).items()})
        )
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


def _check_two_cycle(
    edges: Mapping[tuple[int, int], KFunction], i: int, m: int, grid: GridSpec
) -> KFunction | None:
    """Verify the 2-cycle i<->m if both edges exist; return the dropped term.

    Returns the composition gamma_im o gamma_mi when both edges are
    present (after verifying it sits below the identity), None when the
    pair cannot loop.  Raises SmallGainViolation if the grid check does
    not come back verified; an inconclusive margin is treated as a
    refusal because dropping the self-term is only justified by a
    strict, trusted inequality.
    """
    if (i, m) not in edges or (m, i) not in edges:
        return None
    loop = Compose(edges[(i, m)], edges[(m, i)])
    verdict = less_than_identity(loop, grid)
    if not verdict.verified:
        cyc = (i, m) if i < m else (m, i)
        gain = Compose(edges[cyc], edges[(cyc[1], cyc[0])])
        report = CycleReport(cyc, gain, less_than_identity(gain, grid))
        raise SmallGainViolation(
            f"2-cycle through nodes {cyc} is not verified below the identity "
            f"(status {report.verdict.status.value}, margin {report.verdict.margin:.3e} "
            f"at s={report.verdict.witness:.6g}); refusing to eliminate node {m}",
            report,
        )
    return loop


def _eliminate(
    nodes: list[int],
    edges: dict[tuple[int, int], KFunction],
    channels: dict[str, dict[int, KFunction]],
    m: int,
    grid: GridSpec,
) -> tuple[list[int], dict[tuple[int, int], KFunction], dict[str, dict[int, KFunction]], ElimStep]:
    if m not in nodes:
        raise ValueError(f"node {m} is not present (remaining nodes: {nodes})")
    survivors = [i for i in nodes if i != m]

    dropped: dict[int, KFunction] = {}
    for i in survivors:
        loop = _check_two_cycle(edges, i, m, grid)
        if loop is not None:
            dropped[i] = loop

    new_edges: dict[tuple[int, int], KFunction] = {}
    out_edges = {(i, j): g for (i, j), g in edges.items() if i in survivors and j in survivors}
    for i in survivors:
        if (i, m) not in edges:
            continue
        g_im = edges[(i, m)]
        for j in survivors:
            if j == i or (m, j) not in edges:
                continue
            via = Compose(g_im, edges[(m, j)])
            merged = Max(edges[(i, j)], via) if (i, j) in edges else via
            out_edges[(i, j)] = merged
            new_edges[(i, j)] = merged

    out_channels: dict[str, dict[int, KFunction]] = {}
    new_inputs: dict[str, dict[int, KFunction]] = {}
    for ch, gains in channels.items():
        out_ch = {i: g for i, g in gains.items() if i in survivors}
        new_ch: dict[int, KFunction] = {}
        if m in gains:
            g_mu = gains[m]
            for i in survivors:
                if (i, m) not in edges:
                    continue
                via = Compose(edges[(i, m)], g_mu)
                merged = Max(out_ch[i], via) if i in out_ch else via
                out_ch[i] = merged
                new_ch[i] = merged
        out_channels[ch] = out_ch
        new_inputs[ch] = new_ch

    step = ElimStep(
        node=m,
        out_gains={j: edges[(m, j)] for j in survivors if (m, j) in edges},
        inputs={ch: gains[m] for ch, gains in channels.items() if m in gains},
        new_edges=new_edges,
        new_inputs=new_inputs,
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

    where absent terms are simply left out.  Requires every 2-cycle
    through m to verify below the identity on ``grid``; otherwise raises
    SmallGainViolation carrying the offending cycle report.
    """
    nodes = sorted({i for pair in gains for i in pair} | set(input_gains))
    edges = dict(gains)
    channels = {_AG_CHANNEL: dict(input_gains)}
    survivors, out_edges, out_channels, step = _eliminate(nodes, edges, channels, m, grid)
    return ReducedSystem(tuple(survivors), out_edges, out_channels[_AG_CHANNEL], step)


def _solve_terminal(
    nodes: list[int],
    edges: dict[tuple[int, int], KFunction],
    channels: dict[str, dict[int, KFunction]],
    grid: GridSpec,
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
    if (a, b) in edges and (b, a) in edges:
        _check_two_cycle(edges, a, b, grid)
    for ch, gains in channels.items():
        for i, j in ((a, b), (b, a)):
            terms: list[KFunction] = []
            if (i, j) in edges and j in gains:
                terms.append(Compose(edges[(i, j)], gains[j]))
            if i in gains:
                terms.append(gains[i])
            if terms:
                out = terms[0]
                for t in terms[1:]:
                    out = Max(out, t)
                solved[ch][i] = out
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
                out = terms[0]
                for t in terms[1:]:
                    out = Max(out, t)
                solved[ch][step.node] = out
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
        """JSON-friendly form: expression strings plus evaluation tables."""
        nodes = {}
        for i in range(1, self.k + 1):
            gain = self.input_gains.get(i)
            sigma = self.sigmas[i]
            entry: dict = {
                "input_gain": None if gain is None else gain.to_expr(),
                "sigma": sigma.to_expr(),
            }
            if samples:
                entry["table"] = {
                    "s": [float(s) for s in samples],
                    "input_gain": None if gain is None else [gain(float(s)) for s in samples],
                    "sigma": [sigma(float(s)) for s in samples],
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
) -> ClosedLoopGains:
    """Solve the network's gain inequalities for explicit per-node bounds.

    Requires the full cyclic small-gain check to verify on ``grid``
    (raises SmallGainViolation with the worst cycle report otherwise).
    Nodes are then eliminated one by one, by default in the order
    k, k-1, ..., 3, the remaining pair is solved directly, and the
    eliminated nodes are recovered by back-substitution.  A custom
    ``order`` may eliminate any distinct nodes as long as at least one
    node survives; different orders yield different but equally valid
    bound functions.

    The transient side rides along as a synthetic input channel with
    identity gain into every node, so the returned sigmas are reduced
    exactly like the input gains.
    """
    check = check_cyclic_small_gain(g, grid)
    if not check.verified:
        worst = check.worst()
        raise SmallGainViolation(
            "cyclic small-gain condition is not verified for this digraph "
            f"(status {check.status.value}, worst cycle {worst.cycle if worst else None})",
            worst,
        )

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
        nodes, edges, channels, step = _eliminate(nodes, edges, channels, m, grid)
        trace.append(step)

    if len(nodes) > 2:
        raise ValueError(
            f"elimination order {order} leaves {len(nodes)} coupled nodes; "
            "eliminate down to at most two before the terminal solve"
        )
    solved = _solve_terminal(nodes, edges, channels, grid)
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
    c_fun = c_terms[0]
    for t in c_terms[1:]:
        c_fun = Max(c_fun, t)
    out: KFunction | None = None
    for i in range(1, closed.k + 1):
        term = Compose(closed.sigmas[i], c_fun)
        out = term if out is None else Max(out, term)
    assert out is not None
    return out

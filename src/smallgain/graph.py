"""Gain digraphs, simple-cycle enumeration, and the cyclic small-gain test.

A gain digraph records, for a network of k subsystems, which subsystem
influences which: the key (i, j) maps to the class-K gain of subsystem i
with respect to subsystem j's output.  Optional per-node input gains and
overshoot gains complete the data needed for stability analysis.

Stability of the network hinges on every simple cycle of influences:
for each cyclic sequence (i1, ..., ir) of distinct nodes the composed
gain around the loop must stay below the identity.  Cycles are
enumerated in canonical rotation (the smallest node first), shortest
first and lexicographically within each length, via backtracking
restricted to start-node minima, with a configurable cap guarding
against combinatorial blowup.  All cycles are then checked in one batch
(:func:`~smallgain.gains.less_than_identity_chains`), which evaluates a
cycle only where its worst grid point can lie and gives every cycle the
verdict it gets when checked alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .gains import (
    DEFAULT_GRID,
    Compose,
    GridSpec,
    KFunction,
    Verdict,
    VerdictStatus,
    _serialize,
    compose_chain,
    less_than_identity_chains,
)

__all__ = [
    "GainDigraph",
    "build_gain_digraph",
    "CycleCountExceeded",
    "enumerate_simple_cycles",
    "CycleReport",
    "SmallGainCheck",
    "check_cyclic_small_gain",
]

DEFAULT_CYCLE_CAP = 1_000_000


class CycleCountExceeded(RuntimeError):
    """Raised when cycle enumeration exceeds the configured cap."""

    def __init__(self, cap: int):
        super().__init__(
            f"number of simple cycles exceeds the cap of {cap}; "
            "the network is too densely coupled for exhaustive cycle checking "
            "(raise max_cycles to insist)"
        )
        self.cap = cap


def _validated_node(k: int, i: object, what: str) -> int:
    if not isinstance(i, int) or isinstance(i, bool) or not (1 <= i <= k):
        raise ValueError(f"{what} {i!r} out of range for a {k}-node digraph (nodes are 1..{k})")
    return i


def _validated_gain(g: object, what: str) -> KFunction:
    if not isinstance(g, KFunction):
        raise TypeError(f"{what} must be a KFunction, got {type(g).__name__}")
    return g


@dataclass(frozen=True)
class GainDigraph:
    """Validated, immutable gain digraph on nodes 1..k.

    edges maps ordered pairs (i, j), i != j, to the gain of node i with
    respect to node j.  input_gains and gs_gains are partial per-node
    maps (input-to-node gains and overshoot gains for the initial
    segment, respectively).
    """

    k: int
    edges: Mapping[tuple[int, int], KFunction]
    input_gains: Mapping[int, KFunction] = field(default_factory=dict)
    gs_gains: Mapping[int, KFunction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        edges = {}
        for key, g in dict(self.edges).items():
            try:
                i, j = key
            except (TypeError, ValueError):
                raise ValueError(f"edge key {key!r} is not a pair") from None
            i = _validated_node(self.k, i, "edge tail")
            j = _validated_node(self.k, j, "edge head")
            if i == j:
                raise ValueError(f"self-gain ({i},{i}) is not allowed")
            edges[(i, j)] = _validated_gain(g, f"gain ({i},{j})")
        inputs = {}
        for i, g in dict(self.input_gains).items():
            i = _validated_node(self.k, i, "input-gain node")
            inputs[i] = _validated_gain(g, f"input gain of node {i}")
        overshoots = {}
        for i, g in dict(self.gs_gains).items():
            i = _validated_node(self.k, i, "overshoot-gain node")
            overshoots[i] = _validated_gain(g, f"overshoot gain of node {i}")
        object.__setattr__(self, "edges", MappingProxyType(edges))
        object.__setattr__(self, "input_gains", MappingProxyType(inputs))
        object.__setattr__(self, "gs_gains", MappingProxyType(overshoots))

    def __hash__(self) -> int:
        return hash((self.k, tuple(sorted(self.edges)), tuple(sorted(self.input_gains)), tuple(sorted(self.gs_gains))))


def build_gain_digraph(
    k: int,
    gains: Mapping[tuple[int, int], KFunction],
    input_gains: Mapping[int, KFunction] | None = None,
    gs_gains: Mapping[int, KFunction] | None = None,
) -> GainDigraph:
    """Construct and validate a gain digraph.

    Rejects self-gains, indices outside 1..k, and values that are not
    class-K trees.
    """
    return GainDigraph(k, dict(gains), dict(input_gains or {}), dict(gs_gains or {}))


def enumerate_simple_cycles(
    g: GainDigraph | Mapping[tuple[int, int], KFunction],
    k: int | None = None,
    *,
    max_cycles: int = DEFAULT_CYCLE_CAP,
) -> list[tuple[int, ...]]:
    """All simple cycles of the digraph, canonicalized and sorted.

    A cycle is returned as a tuple (i1, ..., ir), r >= 2, of distinct
    nodes such that every consecutive gain (i1,i2), ..., (ir,i1) exists.
    The rotation with the smallest node first is the canonical form, so
    each cycle appears exactly once.  Output is ordered shortest first
    and lexicographically within each length.

    Backtracking only ever extends a path with nodes larger than the
    start node, which enforces canonicalization during the search rather
    than as a postprocessing dedup.  Raises CycleCountExceeded beyond
    ``max_cycles`` recorded cycles.
    """
    if isinstance(g, GainDigraph):
        edges = set(g.edges)
        k = g.k
    else:
        edges = set(g)
        if k is None:
            k = max((max(i, j) for (i, j) in edges), default=0)
    adjacency: dict[int, list[int]] = {i: [] for i in range(1, k + 1)}
    for i, j in sorted(edges):
        adjacency[i].append(j)

    cycles: list[tuple[int, ...]] = []
    path: list[int] = []
    on_path: set[int] = set()

    def extend(v: int, start: int) -> None:
        for w in adjacency[v]:
            if w == start and len(path) >= 2:
                if len(cycles) >= max_cycles:
                    raise CycleCountExceeded(max_cycles)
                cycles.append(tuple(path))
            elif w > start and w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(w, start)
                path.pop()
                on_path.remove(w)

    for start in range(1, k + 1):
        path = [start]
        on_path = {start}
        extend(start, start)

    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def _cycle_edges(g: GainDigraph, cycle: tuple[int, ...]) -> tuple[KFunction, ...]:
    """Edge gains around a cycle: g[i1,i2], g[i2,i3], ..., g[ir,i1]."""
    pairs = [(cycle[idx], cycle[(idx + 1) % len(cycle)]) for idx in range(len(cycle))]
    try:
        return tuple(g.edges[p] for p in pairs)
    except KeyError as missing:
        raise ValueError(f"cycle {cycle} uses absent gain {missing.args[0]}") from None


def cycle_gain(g: GainDigraph, cycle: tuple[int, ...]) -> KFunction:
    """Composed gain around a cycle, innermost edge last-to-first.

    For cycle (i1, ..., ir) the result evaluates
    g[i1,i2](g[i2,i3](... g[ir,i1](s)))."""
    return compose_chain(*_cycle_edges(g, cycle))


@dataclass(frozen=True)
class CycleReport:
    """Verdict for a single cycle's composed gain against the identity."""

    cycle: tuple[int, ...]
    gain: KFunction
    verdict: Verdict

    @property
    def margin(self) -> float:
        return self.verdict.margin

    @property
    def witness(self) -> float:
        return self.verdict.witness

    def to_dict(self, memo: dict | None = None) -> dict:
        """JSON form; ``memo`` maps ``id(node)`` to its expression string
        and may be shared by reports whose gains share nodes."""
        return {
            "cycle": list(self.cycle),
            "gain": _serialize(self.gain, {} if memo is None else memo),
            "verdict": self.verdict.to_dict(),
        }


@dataclass(frozen=True)
class SmallGainCheck:
    """Aggregate result of checking every simple cycle.

    digraph and grid record what the check was computed for, so that
    elimination can accept it as a certificate instead of checking the
    cycles again; they take no part in equality or serialization.
    """

    status: VerdictStatus
    reports: tuple[CycleReport, ...]
    digraph: GainDigraph | None = field(default=None, compare=False, repr=False)
    grid: GridSpec | None = field(default=None, compare=False)

    @property
    def verified(self) -> bool:
        return self.status is VerdictStatus.VERIFIED_ON_GRID

    def worst(self) -> CycleReport | None:
        """The report with the smallest margin, or None when acyclic."""
        if not self.reports:
            return None
        return min(self.reports, key=lambda r: r.margin)

    def to_dict(self) -> dict:
        memo: dict = {}  # the cycles' gains share edge gains and inner nodes
        return {
            "status": self.status.value,
            "cycles": [r.to_dict(memo) for r in self.reports],
        }


def check_cyclic_small_gain(
    g: GainDigraph,
    grid: GridSpec = DEFAULT_GRID,
    *,
    max_cycles: int = DEFAULT_CYCLE_CAP,
) -> SmallGainCheck:
    """Verify the composed gain of every simple cycle against the identity.

    The aggregate status is VERIFIED_ON_GRID only if every cycle verifies;
    a single violated cycle makes the whole check VIOLATED (reported with
    its witness), and otherwise any inconclusive cycle makes it
    INCONCLUSIVE.  A digraph with no cycles verifies vacuously.  The
    cycles are checked in one batch, with the verdicts of checking each
    cycle's composed gain on its own.
    """
    cycles = enumerate_simple_cycles(g, max_cycles=max_cycles)
    chains = [_cycle_edges(g, cycle) for cycle in cycles]
    verdicts = less_than_identity_chains(chains, grid)
    # Cycles that end in one run of edges share its node, keyed by identities.
    composed, reports = {}, []
    for cycle, chain, verdict in zip(cycles, chains, verdicts):
        gain = chain[-1]
        for f in chain[-2::-1]:
            gain = composed.get((id(f), id(gain))) or composed.setdefault((id(f), id(gain)), Compose(f, gain))
        reports.append(CycleReport(cycle, gain, verdict))
    if any(r.verdict.violated for r in reports):
        status = VerdictStatus.VIOLATED
    elif any(r.verdict.inconclusive for r in reports):
        status = VerdictStatus.INCONCLUSIVE
    else:
        status = VerdictStatus.VERIFIED_ON_GRID
    return SmallGainCheck(status, tuple(reports), g, grid)


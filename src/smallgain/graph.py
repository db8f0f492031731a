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
against combinatorial blowup.  All cycles are then checked in one batch,
handed over as an array of positions in the distinct edge gains (see
:func:`~smallgain.gains.less_than_identity_chains`): each cycle is
evaluated only where its worst grid point can lie, and gets the verdict
it gets when checked alone.  The verdicts stay in columns; a cycle's
:class:`CycleReport` and composed gain are built only when asked for,
and ``cycle_reports.json`` is written with one format call per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .gains import (
    _STATUSES,
    DEFAULT_GRID,
    GridSpec,
    KFunction,
    Verdict,
    VerdictStatus,
    _chain_verdicts,
    _serialize,
    compose_chain,
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
            "(pass a larger max_cycles to check_cyclic_small_gain or enumerate_simple_cycles)"
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


def cycle_gain(g: GainDigraph, cycle: tuple[int, ...]) -> KFunction:
    """Composed gain around a cycle, innermost edge last-to-first.

    For cycle (i1, ..., ir) the result evaluates
    g[i1,i2](g[i2,i3](... g[ir,i1](s)))."""
    try:
        return compose_chain(*(g.edges[p] for p in zip(cycle, cycle[1:] + cycle[:1])))
    except KeyError as missing:
        raise ValueError(f"cycle {cycle} uses absent gain {missing.args[0]}") from None


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


@dataclass(frozen=True, eq=False)
class SmallGainCheck:
    """Aggregate result of checking every simple cycle.

    Cycle i's edge gains are ``gains[e]`` for e in ``index[i]``,
    innermost first (-1 past its end), and its verdict is in columns: its
    status ``codes[i]`` (see :func:`~smallgain.gains._chain_verdicts`) and
    its ``numbers[i]``, (margin, witness, value).  ``reports`` is built
    when first read; checks are equal when their statuses and reports are.
    digraph and grid record what the check was computed for, so that
    elimination can accept it as a certificate instead of checking the
    cycles again.
    """

    status: VerdictStatus
    cycles: list[tuple[int, ...]]
    gains: list[KFunction] = field(repr=False)
    index: np.ndarray = field(repr=False)
    codes: np.ndarray = field(repr=False)
    numbers: np.ndarray = field(repr=False)
    digraph: GainDigraph | None = field(default=None, repr=False)
    grid: GridSpec | None = None

    @property
    def verified(self) -> bool:
        return self.status is VerdictStatus.VERIFIED_ON_GRID

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SmallGainCheck):
            return NotImplemented
        return (self.status, self.reports) == (other.status, other.reports)

    def __hash__(self) -> int:
        return hash((self.status, self.reports))

    def _verdict(self, i: int) -> Verdict:
        return Verdict(_STATUSES[self.codes[i]], *self.numbers[i].tolist())

    @cached_property
    def reports(self) -> tuple[CycleReport, ...]:
        """One report per cycle, its gain built by :func:`cycle_gain` as in
        :meth:`worst`; the cycles' gains share only edge gains."""
        return tuple(CycleReport(c, cycle_gain(self.digraph, c), self._verdict(i)) for i, c in enumerate(self.cycles))

    def worst(self) -> CycleReport | None:
        """The report with the smallest margin, the first on ties, or None
        when acyclic; built alone, without ``reports``."""
        if not self.cycles:
            return None
        margins = self.numbers[:, 0].tolist()
        i = min(range(len(margins)), key=margins.__getitem__)
        return CycleReport(self.cycles[i], cycle_gain(self.digraph, self.cycles[i]), self._verdict(i))

    def to_dict(self) -> dict:
        memo: dict = {}  # the cycles' gains share edge gains
        return {
            "status": self.status.value,
            "cycles": [r.to_dict(memo) for r in self.reports],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"``,
        written with one format call per cycle; each cycle's gain string is
        folded from its edges' strings, innermost edge out."""
        memo: dict = {}
        edges = [_serialize(f, memo) for f in self.gains]
        gains = []
        for cycle, row in zip(self.cycles, self.index.tolist()):
            gain = edges[row[0]]
            for e in row[1 : len(cycle)]:
                gain = f"compose({edges[e]},{gain})"
            gains.append(gain)
        floats = [_JSON_FLOATS.get(r, r) for r in map(float.__repr__, self.numbers.ravel().tolist())]
        statuses = [encode_basestring_ascii(s.value) for s in _STATUSES]
        templates = {r: _CYCLE % ",\n".join(["        %d"] * r) for r in set(map(len, self.cycles))}
        cycles = ",\n".join(
            templates[len(cycle)] % (*cycle, encode_basestring_ascii(gain), margin, statuses[code], value, witness)
            for cycle, gain, code, (margin, witness, value) in zip(
                self.cycles, gains, self.codes.tolist(), zip(*[iter(floats)] * 3)
            )
        )
        listed = f"[\n{cycles}\n  ]" if cycles else "[]"
        return f'{{\n  "cycles": {listed},\n  "status": {encode_basestring_ascii(self.status.value)}\n}}\n'


# The floats that json spells apart from float.__repr__, and the text of
# one cycle of SmallGainCheck.to_json with its %d nodes left to fill in.
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CYCLE = (
    '    {\n      "cycle": [\n%s\n      ],\n      "gain": %%s,\n      "verdict": {\n        "margin": %%s,\n'
    '        "status": %%s,\n        "value": %%s,\n        "witness": %%s\n      }\n    }'
)


def _cycle_index(g: GainDigraph, cycles: list[tuple[int, ...]]) -> tuple[list[KFunction], np.ndarray]:
    """The distinct edge gains of g, by identity, and per cycle the
    positions of its edge gains among them: g[ir,i1], g[i(r-1),ir], ...,
    g[i1,i2], innermost first, then -1."""
    gains = list({id(f): f for f in g.edges.values()}.values())
    at = {id(f): i for i, f in enumerate(gains)}
    edge = np.full((g.k + 1, g.k + 1), -1, dtype=np.intp)  # node 0 has no edges
    for (i, j), f in g.edges.items():
        edge[i, j] = at[id(f)]
    # Rows (i1, ir, ..., i2, i1, 0, ...): edge d runs from node d + 1 to node d.
    width = max(map(len, cycles), default=0) + 1
    nodes = np.array([[c[0], *c[::-1], *[0] * (width - len(c) - 1)] for c in cycles], dtype=np.intp)
    nodes = nodes.reshape(len(cycles), width)
    return gains, edge[nodes[:, 1:], nodes[:, :-1]]


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
    gains, index = _cycle_index(g, cycles)
    codes, numbers = _chain_verdicts(gains, index, grid)
    return SmallGainCheck(_STATUSES[codes.max(initial=0)], cycles, gains, index, codes, numbers, g, grid)


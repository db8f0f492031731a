"""Simulation of interconnected time-delay systems by the method of steps.

Systems are described subsystem by subsystem.  Each subsystem owns a
block of the flat state vector and a right-hand side

    rhs(t, x, z, u) -> dx/dt          (ndarray of the subsystem's dim)

where x is the subsystem's instantaneous state block, z maps declared
references (j, theta) to subsystem j's state at time t - theta, and u is
the subsystem's input block.  The interconnection convention is that a
subsystem's output equals its state, so cross-couplings always read
delayed state blocks of other subsystems.

The integrator calls one network right-hand side over the flat state

    f(t, x, Z, u) -> dx/dt            (list of the total dim)

where x and u are the flat state and input vectors and Z is the gathered
delayed state, all three lists of floats: every distinct declared
reference (j, theta), in sorted order, contributes the components of
subsystem j's state at t - theta (reference_rows gives where each one
starts).  f is DelaySystemSpec.rhs.  By default it is an adapter that
turns the lists into arrays, slices Z into each subsystem's z mapping
and calls the subsystem right-hand sides.  A system that the JSON
configuration parser builds (smallgain.dsl) also carries the expressions
of all its right-hand sides (NetworkExpressions), and the spec compiles
them into one function that reads x, Z and u directly and evaluates on
Python floats; where that raises or gives a value that is not finite,
the stage is evaluated again through the adapter, on numpy scalars.

Integration uses the classical fourth-order Runge-Kutta scheme with a
fixed step h that must divide every delay.  The stages run on Python
floats, in the operation order of the array form
x_n + (h/6)(k1 + 2 k2 + 2 k3 + k4), so they give its bits; numpy arrays
only store the run.  Because every delay is at least one step, all
delayed stage values lie in already-computed territory: stage times fall
on grid nodes or midpoints, where a cubic Hermite interpolant built from
stored states and derivatives is exact to the method's order.  Each
reference component is numbered once, as a source column and a delay in
steps.  Node-aligned stages read a buffer holding the history samples
followed by the computed states.  Midpoint stages read a buffer with one
row per step interval: rows inside the history window are the history
functions sampled once at the half-step times, and rows of computed
intervals hold the u = 1/2 form of the Hermite interpolant,
(x_a + x_b)/2 + (h/8)(f_a - f_b).  History functions are read on arrays
of times (HistoryFunction.many): the built-in constant, polynomial and
table kinds once per array, expression and callable histories once per
time.  The loop works in blocks of at most the shortest delay in steps
(and at most _DENSE_BLOCK): once the first stage of a block has given
its node's derivative, one vectorised pass fills the midpoint rows of
the intervals completed so far, and one fancy index per buffer gathers
the Z of every stage of the block.  Within a block the states and
derivatives stay in lists, stored into the arrays when the block ends.

When the system carries expressions, every full step is one call of a
function that the spec writes out from them on its first run
(_step_source): the four stages, inline, and the update in
straight-line code over local floats.  Its float arithmetic classifies
nothing: a step that raises or whose new state is not finite is refused
and taken again stage by stage through f, reusing the inputs the
refused step took, and only there do _checked and the adapter's numpy
arithmetic report NaN, overflow and math errors.  The full steps of any
other system, and the shortened final step, are taken stage by stage.

The general interpolant is written once, in _hermite:
Trajectory.interpolate_many evaluates it for all requested times in one
vectorised pass, which is the dense output on the whole time range, and
the shortened final step uses it for its off-grid delayed values.
Trajectory.norm_table holds the block norms at every stored node and
step midpoint; the history norms and every supremum of smallgain.checks
are maxima over its rows, which Trajectory.window_norms selects once
per window.

A trajectory whose max-norm exceeds the divergence threshold stops
early and is flagged as blown up together with the escape time.  NaN
appearing in a right-hand side raises SimulationError instead, with no
numpy warning; overflow to infinity counts as divergence.  A generated
right-hand side raises SimulationError too where a math function fails
(sqrt of a negative number, exp beyond the float range).

State-feedback disturbance closures (for robustness experiments) scale a
bounded disturbance d(t) by a gain of the running history norm; see
build_auxiliary_system.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .gains import KFunction

__all__ = [
    "SimulationError",
    "HistoryFunction",
    "InputSignal",
    "Subsystem",
    "StateFeedback",
    "DelaySystemSpec",
    "NetworkExpressions",
    "build_interconnection",
    "build_auxiliary_system",
    "reference_rows",
    "Trajectory",
    "resolve_steps",
    "history_start",
    "simulate",
    "DEFAULT_DIVERGENCE_THRESHOLD",
]

DEFAULT_DIVERGENCE_THRESHOLD = 1e12

# Rows per block of Trajectory.interpolate_many and Trajectory.to_csv,
# and the most steps per block of delayed states gathered by simulate.
_DENSE_BLOCK = 512


class _Diverged(Exception):
    """A stage or state update overflowed: the run blew up."""


class SimulationError(RuntimeError):
    """Integration could not proceed; carries time and state context."""

    def __init__(self, message: str, t: float | None = None, state: np.ndarray | None = None):
        if t is not None:
            message = f"{message} (t={t!r}"
            if state is not None:
                message += f", state={np.asarray(state).tolist()!r}"
            message += ")"
        super().__init__(message)
        self.t = t
        self.state = None if state is None else np.array(state)


# History kinds whose fn also maps a 1-d array of times to one row per time.
_ARRAY_KINDS = frozenset({"constant", "polynomial", "table"})


@dataclass(frozen=True)
class HistoryFunction:
    """Initial segment of one subsystem on [-theta, 0].

    fn(t) gives the dim values at time t.  For the built-in constant,
    polynomial and table kinds fn(ts) on a 1-d array of times also gives
    an (n, dim) array, row r being fn(ts[r]) bit for bit, and many reads
    them that way; a wrapper that replaces fn of such a history keeps
    both forms.  The other kinds are read one time at a time.
    """

    dim: int
    fn: Callable[[float], np.ndarray]
    kind: str = "callable"

    def __call__(self, t: float) -> np.ndarray:
        out = np.asarray(self.fn(t), dtype=float).reshape(-1)
        if out.shape != (self.dim,):
            raise SimulationError(
                f"history function returned shape {out.shape}, expected ({self.dim},)", t
            )
        return out

    def many(self, ts: np.ndarray) -> np.ndarray:
        """Values at the times of the 1-d float array ts, one row per
        time: one call of fn for the array kinds, one per time (on Python
        floats) for the others."""
        if self.kind not in _ARRAY_KINDS:
            return np.array([self(t) for t in ts.tolist()]).reshape(ts.size, self.dim)
        out = np.asarray(self.fn(ts), dtype=float)
        if out.shape != (ts.size, self.dim):
            raise SimulationError(
                f"history function returned shape {out.shape}, expected ({ts.size}, {self.dim})",
                float(ts[0]),
            )
        return out

    @classmethod
    def constant(cls, values: Sequence[float] | float) -> "HistoryFunction":
        vec = _frozen(values, ndmin=1)

        def fn(t):
            return vec if np.ndim(t) == 0 else np.broadcast_to(vec, (len(t), vec.size))

        return cls(dim=vec.size, fn=fn, kind="constant")

    @classmethod
    def polynomial(cls, coeffs: Sequence[Sequence[float]]) -> "HistoryFunction":
        """Per-component polynomial in t, coefficients in ascending order."""
        rows = [_frozen(c) for c in coeffs]
        if not rows or any(c.ndim != 1 or c.size == 0 for c in rows):
            raise ValueError("polynomial coefficients must be one nonempty row per component")

        def fn(t):
            return np.stack([np.polynomial.polynomial.polyval(t, c) for c in rows], axis=-1)

        return cls(dim=len(rows), fn=fn, kind="polynomial")

    @classmethod
    def table(cls, times: Sequence[float], values: Sequence[Sequence[float]]) -> "HistoryFunction":
        """Linear interpolation through (times, values) samples."""
        ts = _frozen(times)
        vals = _frozen(values)
        if ts.ndim != 1 or ts.size < 2 or np.any(np.diff(ts) <= 0):
            raise ValueError("table times must be strictly increasing with at least two entries")
        if vals.shape[:1] != ts.shape or vals.ndim > 2 or vals.size == 0:
            raise ValueError("table values must have one row per time, each a nonempty flat row")
        dim = vals.shape[1] if vals.ndim == 2 else 1
        vals = vals.reshape(ts.size, dim)

        def fn(t):
            return np.stack([np.interp(t, ts, vals[:, c]) for c in range(dim)], axis=-1)

        return cls(dim=dim, fn=fn, kind="table")

    @classmethod
    def from_callable(cls, fn: Callable[[float], np.ndarray], dim: int) -> "HistoryFunction":
        return cls(dim=dim, fn=fn, kind="callable")


def _frozen(values, ndmin: int = 0) -> np.ndarray:
    """A read-only float copy of values.  Signals keep their data in such
    copies: a caller writing into the arrays it passed, or into a row a
    signal returned, would otherwise change every later read; the latter
    raises instead."""
    out = np.array(values, dtype=float, ndmin=ndmin)
    out.flags.writeable = False
    return out


def _history_rows(hist: Sequence[HistoryFunction], ts: np.ndarray) -> np.ndarray:
    """The flat initial state at the times ts, one row per time."""
    return np.concatenate([fn.many(ts) for fn in hist], axis=1)


@dataclass(frozen=True)
class InputSignal:
    """Measurable, locally bounded input for one subsystem."""

    dim: int
    fn: Callable[[float], np.ndarray]
    kind: str = "callable"
    table_values: tuple | None = None

    def __call__(self, t: float) -> np.ndarray:
        out = np.asarray(self.fn(t), dtype=float).reshape(-1)
        if out.shape != (self.dim,):
            raise SimulationError(f"input signal returned shape {out.shape}, expected ({self.dim},)", t)
        return out

    @classmethod
    def zero(cls, dim: int = 1) -> "InputSignal":
        z = _frozen(np.zeros(dim), ndmin=1)
        return cls(dim=dim, fn=lambda t, z=z: z, kind="zero")

    @classmethod
    def constant(cls, values: Sequence[float] | float) -> "InputSignal":
        vec = _frozen(values, ndmin=1)
        return cls(dim=vec.size, fn=lambda t, vec=vec: vec, kind="constant", table_values=tuple(np.abs(vec)))

    @classmethod
    def piecewise_constant(
        cls, times: Sequence[float], values: Sequence[Sequence[float]] | Sequence[float]
    ) -> "InputSignal":
        """Hold values[i] on [times[i], times[i+1]); the last value persists."""
        ts = _frozen(times)
        vals = _frozen(values)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1)
        if ts.ndim != 1 or ts.size == 0 or vals.shape[:1] != ts.shape or np.any(np.diff(ts) <= 0):
            raise ValueError("piecewise_constant needs one or more strictly increasing times, one per value row")
        if vals.ndim != 2 or vals.shape[1] == 0:
            raise ValueError("piecewise_constant values must be nonempty flat rows")

        def fn(t: float) -> np.ndarray:
            idx = int(np.searchsorted(ts, t, side="right")) - 1
            return vals[max(idx, 0)]

        flat_abs = tuple(float(v) for v in np.abs(vals).max(axis=1))
        return cls(dim=vals.shape[1], fn=fn, kind="piecewise", table_values=flat_abs)

    @classmethod
    def from_callable(cls, fn: Callable[[float], np.ndarray], dim: int) -> "InputSignal":
        return cls(dim=dim, fn=fn, kind="callable")

    def sup_norm(self, sample_times: Sequence[float]) -> float:
        """Essential bound of |u| (max-abs): exact for zero / constant /
        piecewise tables, a sample maximum for general callables."""
        if self.kind == "zero":
            return 0.0
        if self.kind in ("constant", "piecewise") and self.table_values is not None:
            return max(self.table_values) if self.table_values else 0.0
        if len(sample_times) == 0:
            raise ValueError("sampled input bound needs at least one sample time")
        return max(float(np.max(np.abs(self(float(t))))) for t in sample_times)


@dataclass(frozen=True)
class Subsystem:
    """One node of the interconnection.

    references declares every delayed block the right-hand side reads,
    as (subsystem index, delay) pairs; the simulator provides exactly
    those entries in z.  Reading own state delayed is declared the same
    way with the subsystem's own index.

    rhs is called once per Runge-Kutta stage, in subsystem order, when
    the system integrates through the default network right-hand side.
    A system that carries network expressions (as parse_system builds)
    calls it only for a stage whose float evaluation raises or is not
    finite.
    """

    dim: int
    rhs: Callable[[float, np.ndarray, Mapping[tuple[int, float], np.ndarray], np.ndarray], object]
    references: tuple[tuple[int, float], ...] = ()
    input_dim: int = 0
    name: str | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"subsystem dimension must be >= 1, got {self.dim}")
        if self.input_dim < 0:
            raise ValueError(f"input dimension must be >= 0, got {self.input_dim}")
        object.__setattr__(
            self, "references", tuple((int(j), float(th)) for j, th in self.references)
        )


@dataclass(frozen=True)
class StateFeedback:
    """Disturbance closure u(t) = rho(||x_t||) * d(t), |d| <= 1 componentwise."""

    rho: KFunction
    d: InputSignal


# The functions that right-hand-side expressions may call, on floats.
FUNCTIONS = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "abs": abs,
    "tanh": math.tanh,
}

# What float arithmetic raises where numpy scalars give inf or NaN.
_FLOAT_ERRORS = (OverflowError, ZeroDivisionError, ValueError)


class NetworkExpressions(NamedTuple):
    """A network right-hand side as smallgain.dsl emits it: bindings are
    (name, template, reads_state) per distinct power, pieces one template
    per state component.  Their fields {t}, {x[i]} and {Z} take the source
    of a stage's time, state component i and delayed state; u stays u,
    each power is its binding's name, ^ is _pow and a call names an entry
    of FUNCTIONS.  A binding that reads neither x nor u has the same value
    at the two middle stages."""

    bindings: tuple[tuple[str, str, bool], ...]
    pieces: tuple[str, ...]


@dataclass(frozen=True)
class DelaySystemSpec:
    """Complete interconnected system: subsystems, shared delay set,
    optional disturbance closure, optional network expressions.

    expressions, as parse_system emits them, compute the subsystems'
    right-hand sides over the flat state; the spec compiles them on first
    use into its float stage function rhs and its fused step _step.
    """

    subsystems: tuple[Subsystem, ...]
    delays: tuple[float, ...]
    feedback: StateFeedback | None = None
    expressions: NetworkExpressions | None = None

    @property
    def k(self) -> int:
        return len(self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @property
    def total_dim(self) -> int:
        return sum(s.dim for s in self.subsystems)

    @property
    def input_dims(self) -> tuple[int, ...]:
        return tuple(s.input_dim for s in self.subsystems)

    @property
    def total_input_dim(self) -> int:
        return sum(s.input_dim for s in self.subsystems)

    @property
    def theta(self) -> float:
        return max(self.delays) if self.delays else 0.0

    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for s in self.subsystems:
            out.append(out[-1] + s.dim)
        return tuple(out)

    @cached_property
    def rhs(self) -> Callable:
        """f(t, x, Z, u) of the module docstring: the subsystem adapter,
        or with expressions their float function (_network_source),
        compiled on first use.  That evaluates a stage that raises or is
        not finite again through the adapter, for the values and warnings
        of numpy arithmetic; an error there too is a SimulationError."""
        adapter = _subsystem_adapter(self.subsystems)
        if self.expressions is None:
            return adapter

        def fallback(t: float, x: list, Z: list, u: list) -> list:
            try:
                return adapter(t, x, Z, u)
            except _FLOAT_ERRORS as exc:
                raise SimulationError(f"{exc} in right-hand side evaluation", t, x) from None

        return _compiled(_network_source(self.expressions), "<network rhs>", "_f", _sum=sum, _fallback=fallback)

    @cached_property
    def _step(self) -> Callable | None:
        """simulate's full RK4 step (see _step_source), compiled on the
        first run; None without expressions."""
        if self.expressions is None:
            return None
        source = _step_source(self.dims, self.total_input_dim > 0, self.expressions)
        return _compiled(source, "<rk4 step>", "_step", _sqrt=math.sqrt, _max=max, _norm=_block_max_norm(self.dims))


def reference_rows(subsystems: Sequence[Subsystem]) -> dict[tuple[int, float], int]:
    """First row in Z of every distinct declared reference (j, theta).

    References are taken in sorted order, and each occupies as many rows
    as subsystem j has state components.
    """
    rows, row = {}, 0
    for j, th in sorted({ref for s in subsystems for ref in s.references}):
        rows[(j, th)] = row
        row += subsystems[j - 1].dim
    return rows


def _subsystem_adapter(subsystems: Sequence[Subsystem]) -> Callable:
    """Network right-hand side that calls each subsystem's own rhs."""
    rows = reference_rows(subsystems)
    plan = []
    x_off = u_off = 0
    for i, s in enumerate(subsystems, start=1):
        refs = tuple((key, slice(rows[key], rows[key] + subsystems[key[0] - 1].dim)) for key in s.references)
        plan.append((i, s.rhs, s.dim, slice(x_off, x_off + s.dim), slice(u_off, u_off + s.input_dim), refs))
        x_off += s.dim
        u_off += s.input_dim
    n = x_off

    def f(t: float, x: list, Z: list, u: list) -> list:
        x, Z, u = np.array(x, dtype=float), np.array(Z, dtype=float), np.array(u, dtype=float)
        dx = np.empty(n)
        for i, rhs, dim, xs, us, refs in plan:
            z = {key: Z[rs] for key, rs in refs}
            out = np.asarray(rhs(t, x[xs], z, u[us]), dtype=float).reshape(-1)
            if out.shape != (dim,):
                raise SimulationError(
                    f"subsystem {i} right-hand side returned shape {out.shape}, expected ({dim},)", t
                )
            dx[xs] = out
        return dx.tolist()

    return f


def build_interconnection(
    subsystems: Sequence[Subsystem], delays: Sequence[float] = (), expressions: NetworkExpressions | None = None
) -> DelaySystemSpec:
    """Assemble and validate a DelaySystemSpec.

    Checks that delays are positive, finite and distinct, and that every
    declared reference points at an existing subsystem and a declared
    delay.  Dangling references are rejected here rather than surfacing
    as KeyErrors mid-integration.  expressions are the optional network
    expressions of the subsystems' right-hand sides (see DelaySystemSpec).
    """
    subs = tuple(subsystems)
    if not subs:
        raise ValueError("an interconnection needs at least one subsystem")
    for s in subs:
        if not isinstance(s, Subsystem):
            raise TypeError(f"expected Subsystem, got {type(s).__name__}")
    ds = tuple(sorted(float(d) for d in delays))
    for d in ds:
        if not math.isfinite(d) or d <= 0.0:
            raise ValueError(f"delays must be positive and finite, got {d}")
    if len(set(ds)) != len(ds):
        raise ValueError(f"duplicate delays in {ds}")
    k = len(subs)
    declared = set(ds)
    for idx, s in enumerate(subs, start=1):
        for j, th in s.references:
            if not (1 <= j <= k):
                raise ValueError(
                    f"subsystem {idx} references undeclared subsystem {j} (k={k})"
                )
            if th not in declared:
                raise ValueError(
                    f"subsystem {idx} references delay {th} not in the declared set {ds}"
                )
    return DelaySystemSpec(subs, ds, expressions=expressions)


def build_auxiliary_system(
    sys: DelaySystemSpec, rho: KFunction, d: InputSignal
) -> DelaySystemSpec:
    """Close the input channels with a norm-scaled bounded disturbance.

    The returned system drives every input channel with
    rho(||x_t||) * d(t), where ||x_t|| is the running history-window
    norm of the state (evaluated on the step grid) and d is clamped into
    [-1, 1] componentwise (with a warning if clamping occurs).  With
    d identically zero this is just the unforced system.
    """
    if not isinstance(rho, KFunction):
        raise TypeError("rho must be a KFunction")
    if sys.feedback is not None:
        raise ValueError("system already carries a disturbance closure")
    m = sys.total_input_dim
    if m == 0:
        raise ValueError("system has no input channels to close")
    if d.dim != m:
        raise ValueError(f"disturbance dimension {d.dim} != total input dimension {m}")
    return replace(sys, feedback=StateFeedback(rho=rho, d=d))


# ---------------------------------------------------------------------------
# trajectories


def _hermite(u, dt, xa, fa, xb, fb):
    """Cubic Hermite interpolant on a step [ta, ta + dt] at u = (t - ta)/dt.

    xa, xb are the end states and fa, fb the end derivatives.  Works on
    scalars and on arrays, where u and dt broadcast against the state
    rows.  At u = 1/2 it reduces to the midpoint form
    (xa + xb)/2 + (dt/8)(fa - fb) used inside the integrator.
    """
    h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
    h10 = u * (1.0 - u) ** 2
    h01 = u * u * (3.0 - 2.0 * u)
    h11 = u * u * (u - 1.0)
    return h00 * xa + h10 * dt * fa + h01 * xb + h11 * dt * fb


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Dense solution of a simulation run.

    states[j] is the flat state at node times t_nodes[j]; derivs[j] the
    exact right-hand side there, which together define a C^1 cubic
    Hermite interpolant on each step.  hist_times/hist_states cover the
    initial segment on the step grid; interpolation below zero falls
    back to the continuous history functions.  history and inputs drove
    the run; inputs is None for a build_auxiliary_system closure.
    """

    dims: tuple[int, ...]
    delays: tuple[float, ...]
    h: float
    t_nodes: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    hist_times: np.ndarray
    hist_states: np.ndarray
    history: tuple[HistoryFunction, ...]
    inputs: tuple[InputSignal, ...] | None = None
    blow_up: bool = False
    escape_time: float | None = None
    requested_T: float = 0.0

    @property
    def t_end(self) -> float:
        return float(self.t_nodes[-1])

    @property
    def theta(self) -> float:
        return max(self.delays) if self.delays else 0.0

    @property
    def total_dim(self) -> int:
        return int(self.states.shape[1])

    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for d in self.dims:
            out.append(out[-1] + d)
        return tuple(out)

    def block(self, i: int) -> slice:
        """Flat-state slice of subsystem i (1-based)."""
        if not (1 <= i <= len(self.dims)):
            raise ValueError(f"subsystem index {i} out of range 1..{len(self.dims)}")
        off = self.offsets()
        return slice(off[i - 1], off[i])

    def grid_times(self, include_history: bool = True) -> np.ndarray:
        """All stored node times, history segment first."""
        if include_history and self.hist_times.size > 1:
            return np.concatenate([self.hist_times[:-1], self.t_nodes])
        return self.t_nodes.copy()

    def grid_states(self, include_history: bool = True) -> np.ndarray:
        if include_history and self.hist_times.size > 1:
            return np.vstack([self.hist_states[:-1], self.states])
        return self.states.copy()

    @cached_property
    def norm_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only sample times on [-theta, t_end] and the norm of
        subsystem i's block there in column i - 1, computed once.

        Even rows are the stored nodes and read the stored states; odd
        rows are the step midpoints, read through interpolate_many.
        """
        nodes = self.grid_times()
        times = np.empty(2 * nodes.size - 1)
        times[0::2] = nodes
        times[1::2] = (nodes[:-1] + nodes[1:]) / 2.0
        vals = np.empty((times.size, self.total_dim))
        vals[0::2] = self.grid_states()
        vals[1::2] = self.interpolate_many(times[1::2])
        norms = self.block_norms(vals)
        times.flags.writeable = norms.flags.writeable = False
        return times, norms

    def window_norms(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Sample times in [a, b], in order, and the block norms there:
        the norm_table rows of nodes within 1e-12 of the window and of
        midpoints inside it, plus a and b, interpolated, where they are
        not samples.  Computed once per window; the arrays are read-only."""
        key = (a, b)
        if key not in self._windows:
            times, norms = self.norm_table
            slack = np.where(np.arange(times.size) % 2, 0.0, 1e-12)
            keep = (times >= a - slack) & (times <= b + slack)
            times, norms = times[keep], norms[keep]
            ends = sorted(t for t in {a, b} if -self.theta <= t <= self.t_end and t not in times)
            if ends:
                at = np.searchsorted(times, ends)
                times = np.insert(times, at, ends)
                norms = np.insert(norms, at, self.block_norms(self.interpolate_many(ends)), axis=0)
            times.flags.writeable = norms.flags.writeable = False
            self._windows[key] = times, norms
        return self._windows[key]

    @cached_property
    def _windows(self) -> dict:
        return {}

    @cached_property
    def history_norms(self) -> Mapping[int, float]:
        """Sup norm of each subsystem's initial segment: the maximum
        over the rows of norm_table at or before time zero."""
        times, norms = self.norm_table
        sup = norms[times <= 0.0].max(axis=0)
        return MappingProxyType({i: float(v) for i, v in enumerate(sup, start=1)})

    def interpolate(self, t: float) -> np.ndarray:
        """Dense state at time t in [-theta, t_end]."""
        return self.interpolate_many([t])[0]

    def interpolate_many(self, times: Sequence[float]) -> np.ndarray:
        """Dense states at times in [-theta, t_end], one row per time.

        Times at or below zero read the history functions; later times
        use the cubic Hermite interpolant of the step they fall in, and a
        time equal to a node returns that node's stored state exactly.
        History nodes read the functions where simulate sampled them,
        also the first one when it lies just below -theta.
        """
        ts = np.asarray(times, dtype=float).reshape(-1)
        out = np.empty((ts.size, self.total_dim))
        inside = (ts >= -self.theta - 1e-12) & (ts <= self.t_end + 1e-12)
        if not inside.all():
            t = float(ts[~inside][0])
            raise ValueError(f"time {t} outside trajectory range [{-self.theta}, {self.t_end}]")
        past = ts <= 0.0
        if past.any():
            lo = min(-self.theta, float(self.hist_times[0]))
            out[past] = _history_rows(self.history, np.maximum(ts[past], lo))
        if len(self.t_nodes) == 1:
            out[~past] = self.states[0]
            return out
        nodes = self.t_nodes
        later = np.flatnonzero(~past)
        # Every operation is row-wise; blocks of rows bound the temporaries.
        for b in range(0, later.size, _DENSE_BLOCK):
            rows = later[b : b + _DENSE_BLOCK]
            t = np.minimum(ts[rows], self.t_end)
            j = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, len(nodes) - 2)
            ta, tb = nodes[j], nodes[j + 1]
            dt = (tb - ta)[:, None]
            u = (t - ta)[:, None] / dt
            xa, xb = self.states[j], self.states[j + 1]
            vals = _hermite(u, dt, xa, self.derivs[j], xb, self.derivs[j + 1])
            out[rows] = np.where((t == ta)[:, None], xa, np.where((t == tb)[:, None], xb, vals))
        return out

    def node_norms(self, subsystem: int | None = None, include_history: bool = True) -> np.ndarray:
        """Per-node norms: subsystem block Euclidean norm, or the max
        over blocks when subsystem is None."""
        states = self.grid_states(include_history)
        if subsystem is not None:
            return np.linalg.norm(states[:, self.block(subsystem)], axis=1)
        return self.block_norms(states).max(axis=1)

    def block_norms(self, states: np.ndarray) -> np.ndarray:
        """Euclidean norm of every subsystem's block in each row of
        states, one column per subsystem."""
        off = self.offsets()
        return np.column_stack(
            [np.linalg.norm(states[:, off[i] : off[i + 1]], axis=1) for i in range(len(self.dims))]
        )

    def member(self, start: int, sys: DelaySystemSpec, history, inputs) -> "Trajectory":
        """sys's own run, cut from this union run in which sys's state
        starts at column start."""
        cols = slice(start, start + sys.total_dim)
        rows = slice(len(self.hist_times) - _history_steps(sys, self.h) - 1, None)
        child = replace(
            self,
            dims=sys.dims,
            delays=sys.delays,
            t_nodes=self.t_nodes.copy(),
            states=self.states[:, cols].copy(),
            derivs=self.derivs[:, cols].copy(),
            hist_times=self.hist_times[rows].copy(),
            hist_states=self.hist_states[rows, cols].copy(),
            history=tuple(history),
            inputs=tuple(inputs),
        )
        # sys's grid times are the last ones of this run's, so the members
        # of one union share its formatted time column.
        child.__dict__["_time_text"] = self._time_text[rows.start :]
        return child

    @cached_property
    def _time_text(self) -> list[str]:
        """repr of every grid time, the first column of to_csv."""
        return list(map(repr, self.grid_times().tolist()))

    def metadata(self) -> dict:
        return {
            "h": self.h,
            "requested_T": self.requested_T,
            "t_end": self.t_end,
            "delays": list(self.delays),
            "dims": list(self.dims),
            "n_steps": int(len(self.t_nodes) - 1),
            "blow_up": self.blow_up,
            "escape_time": self.escape_time,
        }

    def to_csv(self, fileobj) -> None:
        """Write "t,x_1,...,x_n" rows, history segment first.

        Values use repr formatting, so the file round-trips exactly and
        identical runs produce identical bytes.
        """
        n = self.total_dim
        fileobj.write("t," + ",".join(f"x_{c}" for c in range(1, n + 1)) + "\n")
        times, states = self._time_text, self.grid_states()
        for b in range(0, len(times), _DENSE_BLOCK):  # blocks bound the floats held as objects
            block = states[b : b + _DENSE_BLOCK]
            rows = np.empty((len(block), n + 1), dtype=object)
            rows[:, 0] = times[b : b + len(block)]
            rows[:, 1:] = block
            fileobj.write(("%s" + ",%r" * n + "\n") * len(block) % tuple(rows.ravel().tolist()))


# ---------------------------------------------------------------------------
# the integrator


def resolve_steps(delays: Sequence[float], h: float) -> dict[float, int]:
    """Map each delay to its exact step multiple, or raise SimulationError."""
    out = {}
    for th in delays:
        m_f = th / h
        m = int(round(m_f))
        if m < 1 or abs(m_f - m) > 1e-12 * max(m_f, 1.0):
            raise SimulationError(
                f"step h={h!r} must divide every delay; delay {th!r} is {m_f!r} steps"
            )
        out[th] = m
    return out


def _history_steps(sys: DelaySystemSpec, h: float) -> int:
    """M: simulate samples sys's history at the M + 1 nodes -M h, ..., 0."""
    return max(resolve_steps(sys.delays, h).values(), default=0)


def history_start(sys: DelaySystemSpec, h: float) -> float:
    """Start of the window [start, 0] on which simulate reads sys's
    history functions at step h: its nodes from -M h, and the stages of
    a shortened final step from -theta."""
    return min(-_history_steps(sys, h) * h, -sys.theta)


def _checked(vec: list, t: float, x_ref: list, what: str = "right-hand side evaluation") -> list:
    """vec itself when finite; NaN raises, overflow raises _Diverged."""
    # A finite sum means every entry is finite; only a sum that is not
    # (or that overflowed) needs the entrywise test.
    if math.isfinite(sum(vec)) or all(map(math.isfinite, vec)):
        return vec
    if any(map(math.isnan, vec)):
        raise SimulationError(f"NaN in {what}", t, x_ref)
    raise _Diverged


def _block_max_norm(dims: Sequence[int]) -> Callable[[list], float]:
    """Max over blocks of the Euclidean block norm of a flat state list,
    bit-equal to np.linalg.norm per block: that is sqrt(b.dot(b)), and
    sqrt is monotone, so the max can be taken before it."""
    if set(dims) == {1}:
        return lambda x: math.sqrt(max([v * v for v in x]))
    off = np.cumsum([0, *dims])
    blocks = [slice(a, b) for a, b in zip(off[:-1], off[1:])]

    def norm(x: list) -> float:
        x = np.array(x, dtype=float)
        return math.sqrt(max(x[b].dot(x[b]) for b in blocks))

    return norm


def _compiled(source: str, filename: str, name: str, **env) -> Callable:
    """The function name that source defines, executed with FUNCTIONS,
    math.pow as _pow, math.isfinite as _isfinite, _FLOAT_ERRORS and env."""
    namespace = dict(FUNCTIONS, _pow=math.pow, _isfinite=math.isfinite, _FLOAT_ERRORS=_FLOAT_ERRORS, **env)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _network_source(expressions: NetworkExpressions) -> str:
    """Source of _f(t, x, Z, u), the expressions on Python floats with ^
    as math.pow (numpy's scalar power, bit for bit), each distinct power
    taken once: math.pow is a function of its operands alone.  Where that
    raises one of _FLOAT_ERRORS or its sum is not finite, _f returns
    _fallback(t, x, Z, u)."""
    names = {"t": "t", "x": [f"x[{i}]" for i in range(len(expressions.pieces))], "Z": "Z"}
    lines = [f"{name} = {template.format(**names)}" for name, template, _ in expressions.bindings]
    lines.append(f"dx = [{', '.join(piece.format(**names) for piece in expressions.pieces)}]")
    return (
        "def _f(t, x, Z, u):\n    try:\n"
        + "".join(f"        {line}\n" for line in lines)
        + "    except _FLOAT_ERRORS:\n        return _fallback(t, x, Z, u)\n"
        "    return dx if _isfinite(_sum(dx)) else _fallback(t, x, Z, u)\n"
    )


# Stage j of a step: the prefix of its derivative's locals and of its
# stage state's, its time, its Z and its fraction of the step.
_STAGES = (("a", "x", "t", "Z0", "0.0"), ("b", "s", "t2", "Zm", "0.5"),
           ("c", "s", "t2", "Zm", "0.5"), ("d", "s", "t4", "Z1", "1.0"))


def _step_source(dims: Sequence[int], inputs: bool, expressions) -> str:
    """Source of _step(t, h, x, Z0, Zm, Z1, k1, u_at, step, completed).

    It takes one full RK4 step from node t = step*h with state x (a
    list), in straight-line code over local floats: Z0, Zm and Z1 are the
    delayed states of its first, two middle and last stages, and k1, when
    not None, is its first stage.  It returns the first stage, the new
    state and its max block norm, with the operations of simulate's
    stage-by-stage code, so with its bits.  With inputs, each stage calls
    u_at(time, step, fraction, stage state, completed).

    expressions are the system's (see NetworkExpressions), written out
    inline at every stage; a binding that reads neither x nor u is taken
    once for the two middle stages, which read the same Z and t.  The
    step returns None, for simulate to take it again stage by stage,
    where the float arithmetic raises one of _FLOAT_ERRORS, where the new
    state's sum is not finite, and (with inputs, which may read the stage
    state) before an input call on a stage whose sum is not.
    """
    n = sum(dims)

    def vec(prefix: str, sep: str = ", ") -> str:
        return sep.join(f"{prefix}{i}" for i in range(n))

    body = []
    for j, (k, state, time, Z, frac) in enumerate(_STAGES):
        if j:
            if inputs:
                body.append(f"if not _isfinite({vec(_STAGES[j - 1][0], ' + ')}): return None")
            scale = "h" if j == 3 else "mid"
            body += [f"s{i} = x{i} + {scale} * {_STAGES[j - 1][0]}{i}" for i in range(n)]
        names = {"t": time, "x": [f"{state}{i}" for i in range(n)], "Z": Z}
        stage_x = "x" if j == 0 else f"[{vec('s')}]"
        lines = [f"u = u_at({time}, step, {frac}, {stage_x}, completed)"] if inputs else []
        lines += [f"{name} = {value.format(**names)}" for name, value, reads_state in expressions.bindings
                  if reads_state or j != 2]
        lines += [f"{k}{i} = {piece.format(**names)}" for i, piece in enumerate(expressions.pieces)]
        if j == 0:
            lines = ["if k1 is None:", *("    " + line for line in lines), "else:", f"    [{vec(k)}] = k1"]
        body += lines
    body.append("w = h / 6.0")
    body += [f"y{i} = x{i} + w * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})" for i in range(n)]
    if set(dims) == {1}:
        squares = ", ".join(f"y{i} * y{i}" for i in range(n))
        norm = f"_sqrt(_max({squares}))" if n > 1 else f"_sqrt({squares})"
    else:
        norm = f"_norm([{vec('y')}])"
    lines = [
        f"[{vec('x')}] = x", "mid = h / 2.0", "t2 = t + mid", "t4 = t + h",
        "try:", *("    " + line for line in body), "except _FLOAT_ERRORS:", "    return None",
        f"if not _isfinite({vec('y', ' + ')}): return None",
        f"return [{vec('a')}], [{vec('y')}], {norm}",
    ]
    return "def _step(t, h, x, Z0, Zm, Z1, k1, u_at, step, completed):\n" + "".join(f"    {line}\n" for line in lines)


def simulate(
    sys: DelaySystemSpec,
    hist: Sequence[HistoryFunction],
    inputs: Sequence[InputSignal] | None,
    T: float,
    h: float,
    *,
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD,
) -> Trajectory:
    """Integrate the system from its initial segment to time T.

    Fixed-step classical RK4 under the method of steps: h must divide
    every delay (to within 1e-12 relative), which places every delayed
    stage value on an already-computed node or midpoint.  If T is not a
    step multiple, one shortened final step lands exactly on T.

    The run stops early, with blow_up set and the escape time recorded,
    as soon as the state max-norm exceeds divergence_threshold or the
    arithmetic overflows; NaN from a right-hand side raises
    SimulationError.
    """
    if not isinstance(sys, DelaySystemSpec):
        raise TypeError("sys must be a DelaySystemSpec")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step h must be positive, got {h!r}")
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"horizon T must be nonnegative, got {T!r}")

    k = sys.k
    hist = list(hist)
    if len(hist) != k:
        raise ValueError(f"need {k} history functions, got {len(hist)}")
    for i, (fn, sub) in enumerate(zip(hist, sys.subsystems), start=1):
        if fn.dim != sub.dim:
            raise ValueError(f"history {i} has dim {fn.dim}, subsystem has dim {sub.dim}")

    feedback = sys.feedback
    if feedback is not None:
        if inputs is not None:
            raise ValueError("disturbance-closed systems take no separate input signals")
    else:
        if inputs is None:
            inputs = [InputSignal.zero(s.input_dim) for s in sys.subsystems]
        inputs = list(inputs)
        if len(inputs) != k:
            raise ValueError(f"need {k} input signals, got {len(inputs)}")
        for i, (u, sub) in enumerate(zip(inputs, sys.subsystems), start=1):
            if u.dim != sub.input_dim:
                raise ValueError(f"input {i} has dim {u.dim}, subsystem expects {sub.input_dim}")

    delay_steps = resolve_steps(sys.delays, h)
    M = _history_steps(sys, h)
    n = sys.total_dim
    off = sys.offsets()
    m_total = sys.total_input_dim
    f = sys.rhs

    # Every reference component once, in the order of Z: its source
    # column, its delay, and that delay in steps.
    cols, thetas = [], []
    for j, th in reference_rows(sys.subsystems):
        cols.extend(range(off[j - 1], off[j]))
        thetas.extend([th] * (off[j] - off[j - 1]))
    lag = np.array([delay_steps[th] for th in thetas], dtype=np.intp)
    thetas = np.array(thetas)
    cols = np.array(cols, dtype=np.intp)
    # Row of each component's delayed interval start at step 0, in the
    # state buffer and in the midpoint buffer alike.
    base = M - lag
    # Steps per block of gathered Z rows: no more than the shortest
    # delay, so every row a block reads is known when the block starts.
    block_len = int(lag.min(initial=_DENSE_BLOCK))

    N_full = int(math.floor(T / h + 1e-12))
    remainder = T - N_full * h
    if remainder <= 1e-12 * max(T, h):
        remainder = 0.0
    N = N_full + (1 if remainder > 0.0 else 0)

    def sample_history(ts: np.ndarray) -> np.ndarray:
        rows = _history_rows(hist, ts)
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            r = int(np.argmin(finite))
            raise SimulationError("history function produced non-finite values", float(ts[r]), rows[r])
        return rows

    # History samples on the step grid, then the computed states: row
    # M + j holds node j, so node 0 is the last history sample.
    xs = np.empty((M + N + 1, n))
    hist_times = np.arange(-M, 1) * h
    xs[: M + 1] = sample_history(hist_times)
    states = xs[M:]
    derivs = np.zeros((N + 1, n))

    # Delayed midpoints, row M + j for the interval [t_j, t_j+1].  The
    # history rows that midpoint stages read are sampled here, at most
    # one read per delay; the rows of computed intervals are filled at the
    # start of each block.
    mids = np.empty((M + N, n))
    sampled = -M
    for lo, hi in sorted((-m, min(0, N_full - m)) for m in set(lag.tolist())):
        idx = np.arange(max(lo, sampled), hi)
        if idx.size:
            mids[idx + M] = sample_history((idx + 0.5) * h)
        sampled = max(sampled, hi)
    h8 = h / 8.0

    def gather_at(t_stage: float, completed: int) -> list:
        """Z at an off-grid stage time (the shortened final step)."""
        Z = np.empty(cols.size)
        for th in sorted(set(thetas.tolist())):
            sel = thetas == th
            c = cols[sel]
            tq = t_stage - th
            if tq <= 0.0:
                Z[sel] = sample_history(np.array([tq]))[0, c]
                continue
            j = min(int(math.floor(tq / h + 1e-12)), completed - 1)
            u = (tq - j * h) / h
            if u <= 1e-12:
                Z[sel] = states[j, c]
            elif u >= 1.0 - 1e-12:
                Z[sel] = states[j + 1, c]
            else:
                Z[sel] = _hermite(u, h, states[j, c], derivs[j, c], states[j + 1, c], derivs[j + 1, c])
        return Z.tolist()

    block_max_norm = _block_max_norm(sys.dims)
    # The max block norm at every stored node, which a disturbance
    # closure reads.
    norms_all = np.empty(M + N + 1)
    if feedback is not None:
        for row in range(M + 1):
            norms_all[row] = block_max_norm(xs[row].tolist())

    clamp_warned = False

    def disturbance(t: float) -> np.ndarray:
        nonlocal clamp_warned
        raw = feedback.d(t)
        clipped = np.clip(raw, -1.0, 1.0)
        if not clamp_warned and np.any(clipped != raw):
            warnings.warn(
                f"disturbance exceeded [-1, 1] at t={t!r}; values clamped", stacklevel=2
            )
            clamp_warned = True
        return clipped

    def input_vector(t: float, step: int, frac: float, x_stage: list, completed: int) -> list:
        if m_total == 0:
            return []
        if feedback is None:
            return np.concatenate([u(t) for u in inputs if u.dim]).tolist()
        # History-window norm on the step grid, stage state included.
        pos = step + frac
        lo = max(int(math.ceil(pos - M - 1e-9)), -M)
        window = norms_all[lo + M : completed + M + 1]
        wnorm = float(window.max(initial=0.0))
        wnorm = max(wnorm, block_max_norm(x_stage))
        scale = feedback.rho(wnorm)
        return (scale * disturbance(t)).tolist()

    # The inputs of the stages that the fused step took before refusing
    # its step: the stage-by-stage code reuses them, so that every input
    # is called once per stage.
    taken = []

    def fused_input(*args) -> list:
        taken.append(input_vector(*args))
        return taken[-1]

    def stage_input(t: float, step: int, frac: float, x_stage: list) -> list:
        return taken.pop(0) if taken else input_vector(t, step, frac, x_stage, completed)

    def per_stage(nstep: int, hs: float, x_n: list, Zs, k1: list | None = None) -> tuple:
        """One step of length hs, stage by stage, each stage classified by
        _checked: the shortened final step, every full step of a system
        without a fused step, and a full step that the fused step refused.
        Zs yields the Z of the first stage, of the two middle ones and of
        the last; k1, when given, is the first stage."""
        t_n, mid = nstep * h, hs / 2.0
        Z = next(Zs)
        if k1 is None:
            k1 = _checked(f(t_n, x_n, Z, stage_input(t_n, nstep, 0.0, x_n)), t_n, x_n)
            derivs[nstep] = k1
        # The stage fractions are 0.5 and 1.0 on a full step.
        fr_mid, fr_end = mid / h, hs / h
        Z = next(Zs)
        x_s = [x + mid * d for x, d in zip(x_n, k1)]
        k2 = _checked(f(t_n + mid, x_s, Z, stage_input(t_n + mid, nstep, fr_mid, x_s)), t_n, x_n)
        x_s = [x + mid * d for x, d in zip(x_n, k2)]
        k3 = _checked(f(t_n + mid, x_s, Z, stage_input(t_n + mid, nstep, fr_mid, x_s)), t_n, x_n)
        Z = next(Zs)
        x_s = [x + hs * d for x, d in zip(x_n, k3)]
        k4 = _checked(f(t_n + hs, x_s, Z, stage_input(t_n + hs, nstep, fr_end, x_s)), t_n, x_n)
        w = hs / 6.0
        x_next = [x + w * (d1 + 2.0 * d2 + 2.0 * d3 + d4) for x, d1, d2, d3, d4 in zip(x_n, k1, k2, k3, k4)]
        _checked(x_next, t_n + hs if hs == h else T, x_n, "state update")
        return k1, x_next, block_max_norm(x_next)

    t_nodes = np.empty(N + 1)
    t_nodes[0] = 0.0
    blow_up = False
    escape_time: float | None = None
    completed = 0

    final = N
    x_n = xs[M].tolist()
    step = sys._step
    # The Z rows of the current block, a list per step: at its nodes
    # (one more than its steps) and at its midpoints.
    first = end = filled = 0
    node_Z = mid_Z = []
    # The derivatives and states of the block's steps so far, stored
    # into the arrays when the block ends.
    new_k, new_x = [], []

    def store() -> None:
        if new_x:
            a, b = first, first + len(new_x)
            derivs[a:b] = new_k
            states[a + 1 : b + 1] = new_x
            t_nodes[a + 1 : b + 1] = np.arange(a, b) * h + h
            new_k.clear()
            new_x.clear()

    with np.errstate(invalid="ignore"):  # _checked reports a NaN
        for nstep in range(N):
            t_n = nstep * h
            try:
                if nstep == N_full:
                    store()
                    mid = remainder / 2.0
                    Zs = (gather_at(t, completed) for t in (t_n, t_n + mid, t_n + remainder))
                    _, x_n, norm = per_stage(nstep, remainder, x_n, Zs)
                    states[N], t_nodes[N] = x_n, T
                else:
                    k1 = None
                    if nstep == end:
                        store()
                        first, end = nstep, min(nstep + block_len, N)
                        rows = base + np.arange(first, end + 1)[:, None]
                        node_Z = xs[rows, cols].tolist()
                        # Fill the midpoint rows of the intervals completed
                        # since the last block, which this block may read.
                        # The last of them ends at this node and needs its
                        # derivative, this step's first stage.
                        u = input_vector(t_n, nstep, 0.0, x_n, completed)
                        k1 = derivs[nstep] = _checked(f(t_n, x_n, node_Z[0], u), t_n, x_n)
                        a, b = slice(filled, first), slice(filled + 1, first + 1)
                        mids[M + filled : M + first] = 0.5 * (states[a] + states[b]) + h8 * (derivs[a] - derivs[b])
                        filled = first
                        mid_Z = mids[rows[:-1], cols].tolist()
                    i = nstep - first
                    out = None
                    if step is not None:
                        out = step(t_n, h, x_n, node_Z[i], mid_Z[i], node_Z[i + 1], k1, fused_input, nstep, completed)
                    if out is None:
                        out = per_stage(nstep, h, x_n, iter((node_Z[i], mid_Z[i], node_Z[i + 1])), k1)
                    taken.clear()
                    k1, x_n, norm = out
                    new_k.append(k1)
                    new_x.append(x_n)
            except _Diverged:
                final = nstep
                blow_up, escape_time = True, t_n
                break
            if feedback is not None:
                norms_all[M + nstep + 1] = norm
            completed = nstep + 1
            if norm > divergence_threshold:
                final = nstep + 1
                blow_up, escape_time = True, float(T) if nstep == N_full else t_n + h
                break
        store()

        # Derivative at the last stored node, for dense output on the final
        # interval.  Best effort when the run blew up.
        t_fin = float(t_nodes[final])
        x_fin = states[final].tolist()
        try:
            on_grid = remainder == 0.0 or final < N
            Z = xs[base + final, cols].tolist() if on_grid else gather_at(t_fin, completed)
            dfin = f(t_fin, x_fin, Z, input_vector(t_fin, final, 0.0, x_fin, completed))
            if all(map(math.isfinite, dfin)):
                derivs[final] = dfin
        except (SimulationError, FloatingPointError, OverflowError):
            pass

    return Trajectory(
        dims=sys.dims,
        delays=sys.delays,
        h=h,
        t_nodes=t_nodes[: final + 1],
        states=states[: final + 1],
        derivs=derivs[: final + 1],
        hist_times=hist_times,
        hist_states=xs[: M + 1],
        history=tuple(hist),
        inputs=None if feedback is not None else tuple(inputs),
        blow_up=blow_up,
        escape_time=escape_time,
        requested_T=T,
    )

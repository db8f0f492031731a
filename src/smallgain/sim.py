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

    f(t, x, Z, u) -> dx/dt            (ndarray of the total dim)

where x and u are the flat state and input vectors and Z is the gathered
delayed state: every distinct declared reference (j, theta), in sorted
order, contributes the components of subsystem j's state at t - theta
(reference_rows gives where each one starts).  By default f is an
adapter that slices Z into each subsystem's z mapping and calls the
subsystem right-hand sides; the JSON configuration parser instead
generates a single function from all expressions that reads x, Z and u
directly.

Integration uses the classical fourth-order Runge-Kutta scheme with a
fixed step h that must divide every delay.  Because every delay is at
least one step, all delayed stage values lie in already-computed
territory: stage times fall on grid nodes or midpoints, where a cubic
Hermite interpolant built from stored states and derivatives is exact to
the method's order.  Each reference component is numbered once, as a
source column and a delay in steps, so a stage gathers its whole Z with
one fancy index.  Node-aligned stages index a buffer holding the history
samples followed by the computed states.  Midpoint stages index a buffer
with one row per step interval: rows inside the history window are the
history functions sampled once at the half-step times, and rows of
computed intervals hold the u = 1/2 form of the Hermite interpolant,
(x_a + x_b)/2 + (h/8)(f_a - f_b), filled as soon as f_b is known.  The
general interpolant is written once, in _hermite:
Trajectory.interpolate_many evaluates it for all requested times in one
vectorised pass, which is the dense output on the whole time range, and
the shortened final step uses it for its off-grid delayed values.
Trajectory.norm_table holds the block norms at every stored node and
step midpoint; the history norms and every supremum of smallgain.checks
are maxima over its rows.

A trajectory whose max-norm exceeds the divergence threshold stops
early and is flagged as blown up together with the escape time.  NaN
appearing in a right-hand side raises SimulationError instead, with no
numpy warning; overflow to infinity counts as divergence.

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
from typing import Callable, Mapping, Sequence

import numpy as np

from .gains import KFunction

__all__ = [
    "SimulationError",
    "HistoryFunction",
    "InputSignal",
    "Subsystem",
    "StateFeedback",
    "DelaySystemSpec",
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

# Rows per block of Trajectory.interpolate_many and Trajectory.to_csv.
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


@dataclass(frozen=True)
class HistoryFunction:
    """Initial segment of one subsystem on [-theta, 0]."""

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

    @classmethod
    def constant(cls, values: Sequence[float] | float) -> "HistoryFunction":
        vec = np.atleast_1d(np.asarray(values, dtype=float))
        return cls(dim=vec.size, fn=lambda t, vec=vec: vec, kind="constant")

    @classmethod
    def polynomial(cls, coeffs: Sequence[Sequence[float]]) -> "HistoryFunction":
        """Per-component polynomial in t, coefficients in ascending order."""
        rows = [np.asarray(c, dtype=float) for c in coeffs]

        def fn(t: float) -> np.ndarray:
            return np.array([np.polynomial.polynomial.polyval(t, c) for c in rows])

        return cls(dim=len(rows), fn=fn, kind="polynomial")

    @classmethod
    def table(cls, times: Sequence[float], values: Sequence[Sequence[float]]) -> "HistoryFunction":
        """Linear interpolation through (times, values) samples."""
        ts = np.asarray(times, dtype=float)
        vals = np.asarray(values, dtype=float)
        if ts.ndim != 1 or ts.size < 2 or np.any(np.diff(ts) <= 0):
            raise ValueError("table times must be strictly increasing with at least two entries")
        if vals.shape[0] != ts.size:
            raise ValueError("table values must have one row per time")
        dim = vals.shape[1] if vals.ndim == 2 else 1
        vals = vals.reshape(ts.size, dim)

        def fn(t: float) -> np.ndarray:
            return np.array([np.interp(t, ts, vals[:, c]) for c in range(dim)])

        return cls(dim=dim, fn=fn, kind="table")

    @classmethod
    def from_callable(cls, fn: Callable[[float], np.ndarray], dim: int) -> "HistoryFunction":
        return cls(dim=dim, fn=fn, kind="callable")


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
        z = np.zeros(dim)
        return cls(dim=dim, fn=lambda t, z=z: z, kind="zero")

    @classmethod
    def constant(cls, values: Sequence[float] | float) -> "InputSignal":
        vec = np.atleast_1d(np.asarray(values, dtype=float))
        return cls(dim=vec.size, fn=lambda t, vec=vec: vec, kind="constant", table_values=tuple(np.abs(vec)))

    @classmethod
    def piecewise_constant(
        cls, times: Sequence[float], values: Sequence[Sequence[float]] | Sequence[float]
    ) -> "InputSignal":
        """Hold values[i] on [times[i], times[i+1]); the last value persists."""
        ts = np.asarray(times, dtype=float)
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1)
        if ts.ndim != 1 or ts.size != vals.shape[0] or np.any(np.diff(ts) <= 0):
            raise ValueError("piecewise_constant needs strictly increasing times, one per value row")

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
    A system that carries its own network function (as parse_system
    builds) never calls it.
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


@dataclass(frozen=True)
class DelaySystemSpec:
    """Complete interconnected system: subsystems, shared delay set,
    optional disturbance closure, optional network right-hand side.

    rhs, when given, is the network right-hand side f(t, x, Z, u) of
    the module docstring; Z follows reference_rows(subsystems).
    simulate calls it once per Runge-Kutta stage instead of the
    subsystems' own rhs callables.  When rhs is None, simulate uses an
    adapter that calls every subsystem's rhs once per stage.
    """

    subsystems: tuple[Subsystem, ...]
    delays: tuple[float, ...]
    feedback: StateFeedback | None = None
    rhs: Callable | None = None

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

    def f(t: float, x: np.ndarray, Z: np.ndarray, u: np.ndarray) -> np.ndarray:
        dx = np.empty(n)
        for i, rhs, dim, xs, us, refs in plan:
            z = {key: Z[rs] for key, rs in refs}
            out = np.asarray(rhs(t, x[xs], z, u[us]), dtype=float).reshape(-1)
            if out.shape != (dim,):
                raise SimulationError(
                    f"subsystem {i} right-hand side returned shape {out.shape}, expected ({dim},)", t
                )
            dx[xs] = out
        return dx

    return f


def build_interconnection(
    subsystems: Sequence[Subsystem], delays: Sequence[float] = (), rhs: Callable | None = None
) -> DelaySystemSpec:
    """Assemble and validate a DelaySystemSpec.

    Checks that delays are positive, finite and distinct, and that every
    declared reference points at an existing subsystem and a declared
    delay.  Dangling references are rejected here rather than surfacing
    as KeyErrors mid-integration.  rhs is an optional network right-hand
    side equivalent to the subsystems' (see DelaySystemSpec).
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
    return DelaySystemSpec(subs, ds, rhs=rhs)


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

    @cached_property
    def history_norms(self) -> Mapping[int, float]:
        """Sup norm of each subsystem's initial segment: the maximum
        over the rows of norm_table at or before time zero."""
        times, norms = self.norm_table
        sup = norms[times <= 0.0].max(axis=0)
        return MappingProxyType({i: float(v) for i, v in enumerate(sup, start=1)})

    def _hist_value(self, t: float) -> np.ndarray:
        return np.concatenate([fn(t) for fn in self.history])

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
        lo = min(-self.theta, float(self.hist_times[0]))
        for r in np.flatnonzero(past):
            out[r] = self._hist_value(max(float(ts[r]), lo))
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
        return replace(
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
        fileobj.write("t," + ",".join(f"x_{c}" for c in range(1, self.total_dim + 1)) + "\n")
        table = np.column_stack((self.grid_times(), self.grid_states()))
        for b in range(0, len(table), _DENSE_BLOCK):  # blocks bound the floats held as objects
            rows = table[b : b + _DENSE_BLOCK].tolist()
            fileobj.writelines(",".join(map(repr, row)) + "\n" for row in rows)


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
            inputs = [InputSignal.zero(s.input_dim) if s.input_dim else InputSignal.zero(0) for s in sys.subsystems]
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
    f = sys.rhs if sys.rhs is not None else _subsystem_adapter(sys.subsystems)

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

    N_full = int(math.floor(T / h + 1e-12))
    remainder = T - N_full * h
    if remainder <= 1e-12 * max(T, h):
        remainder = 0.0
    N = N_full + (1 if remainder > 0.0 else 0)

    def sample_history(t: float) -> np.ndarray:
        vals = np.concatenate([fn(t) for fn in hist])
        if not np.isfinite(vals).all():
            raise SimulationError("history function produced non-finite values", t, vals)
        return vals

    # History samples on the step grid, then the computed states: row
    # M + j holds node j, so node 0 is the last history sample.
    xs = np.empty((M + N + 1, n))
    hist_times = np.array([(j - M) * h for j in range(M + 1)])
    for row, t in enumerate(hist_times):
        xs[row] = sample_history(float(t))
    states = xs[M:]
    derivs = np.zeros((N + 1, n))

    # Delayed midpoints, row M + j for the interval [t_j, t_j+1].  The
    # history rows that midpoint stages read are sampled here; the loop
    # fills the row of each computed interval once its end derivative is
    # known.
    mids = np.empty((M + N, n))
    for idx in sorted({i for m in set(lag.tolist()) for i in range(-m, min(0, N_full - m))}):
        mids[idx + M] = sample_history((idx + 0.5) * h)
    h8 = h / 8.0

    def gather_at(t_stage: float, completed: int) -> np.ndarray:
        """Z at an off-grid stage time (the shortened final step)."""
        Z = np.empty(cols.size)
        for th in sorted(set(thetas.tolist())):
            sel = thetas == th
            c = cols[sel]
            tq = t_stage - th
            if tq <= 0.0:
                Z[sel] = sample_history(tq)[c]
                continue
            j = min(int(math.floor(tq / h + 1e-12)), completed - 1)
            u = (tq - j * h) / h
            if u <= 1e-12:
                Z[sel] = states[j, c]
            elif u >= 1.0 - 1e-12:
                Z[sel] = states[j + 1, c]
            else:
                Z[sel] = _hermite(u, h, states[j, c], derivs[j, c], states[j + 1, c], derivs[j + 1, c])
        return Z

    # Max over blocks of the Euclidean block norm, bit-equal to
    # np.linalg.norm per block: that is sqrt(b.dot(b)), and sqrt is
    # monotone, so the max can be taken before it.
    blocks = [slice(off[i], off[i + 1]) for i in range(k)]
    if n == k:

        def block_max_norm(x: np.ndarray) -> float:
            return math.sqrt((x * x).max())

    else:

        def block_max_norm(x: np.ndarray) -> float:
            return math.sqrt(max(x[b].dot(x[b]) for b in blocks))

    norms_all = np.empty(M + N + 1)
    for row in range(M + 1):
        norms_all[row] = block_max_norm(xs[row])

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

    no_input = np.empty(0)

    def input_vector(t: float, step: int, frac: float, x_stage: np.ndarray, completed: int) -> np.ndarray:
        if m_total == 0:
            return no_input
        if feedback is None:
            return np.concatenate([u(t) for u in inputs if u.dim])
        # History-window norm on the step grid, stage state included.
        pos = step + frac
        lo = max(int(math.ceil(pos - M - 1e-9)), -M)
        window = norms_all[lo + M : completed + M + 1]
        wnorm = float(window.max(initial=0.0))
        wnorm = max(wnorm, block_max_norm(x_stage))
        scale = feedback.rho(wnorm)
        return scale * disturbance(t)

    def checked(
        vec: np.ndarray, t: float, x_ref: np.ndarray, what: str = "right-hand side evaluation"
    ) -> np.ndarray:
        """vec itself when finite; NaN raises, overflow raises _Diverged."""
        # A finite sum means every entry is finite; only a sum that is
        # not (or that overflowed) needs the entrywise test.
        if math.isfinite(np.add.reduce(vec)) or np.isfinite(vec).all():
            return vec
        if np.isnan(vec).any():
            raise SimulationError(f"NaN in {what}", t, x_ref)
        raise _Diverged

    t_nodes = np.empty(N + 1)
    t_nodes[0] = 0.0
    blow_up = False
    escape_time: float | None = None
    completed = 0

    step_sizes = [h] * N_full + ([remainder] if remainder > 0.0 else [])
    final = N
    Z_node = xs[base, cols]  # delayed state of the stage at the current node
    with np.errstate(invalid="ignore"):  # checked reports a NaN
        for nstep, hs in enumerate(step_sizes):
            t_n = nstep * h
            x_n = states[nstep]
            mid = hs / 2.0
            full = hs == h
            if full:
                fr_mid, fr_end = 0.5, 1.0
            else:
                # Shortened final step: stage offsets as fractions of the
                # nominal grid spacing.
                fr_mid, fr_end = mid / h, hs / h
            a = base + nstep
            t_next = t_n + hs if full else T
            try:
                Z = Z_node if full else gather_at(t_n, completed)
                k1 = checked(f(t_n, x_n, Z, input_vector(t_n, nstep, 0.0, x_n, completed)), t_n, x_n)
                derivs[nstep] = k1
                if full:
                    if nstep:
                        mids[M + nstep - 1] = 0.5 * (states[nstep - 1] + x_n) + h8 * (derivs[nstep - 1] - k1)
                    Z = mids[a, cols]
                else:
                    Z = gather_at(t_n + mid, completed)
                x_s = x_n + mid * k1
                k2 = checked(f(t_n + mid, x_s, Z, input_vector(t_n + mid, nstep, fr_mid, x_s, completed)), t_n, x_n)
                x_s = x_n + mid * k2
                k3 = checked(f(t_n + mid, x_s, Z, input_vector(t_n + mid, nstep, fr_mid, x_s, completed)), t_n, x_n)
                Z_node = xs[a + 1, cols] if full else gather_at(t_n + hs, completed)
                x_s = x_n + hs * k3
                k4 = checked(f(t_n + hs, x_s, Z_node, input_vector(t_n + hs, nstep, fr_end, x_s, completed)), t_n, x_n)
                x_next = x_n + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                checked(x_next, t_next, x_n, "state update")
            except _Diverged:
                final = nstep
                blow_up, escape_time = True, t_n
                break
            states[nstep + 1] = x_next
            t_nodes[nstep + 1] = t_next
            norms_all[M + nstep + 1] = block_max_norm(x_next)
            completed = nstep + 1
            if norms_all[M + nstep + 1] > divergence_threshold:
                final = nstep + 1
                blow_up, escape_time = True, float(t_next)
                break

        # Derivative at the last stored node, for dense output on the final
        # interval.  Best effort when the run blew up.
        t_fin = float(t_nodes[final])
        x_fin = states[final]
        try:
            on_grid = remainder == 0.0 or final < N
            Z = xs[base + final, cols] if on_grid else gather_at(t_fin, completed)
            dfin = f(t_fin, x_fin, Z, input_vector(t_fin, final, 0.0, x_fin, completed))
            if np.isfinite(dfin).all():
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

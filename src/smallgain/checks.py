"""Checking certified stability bounds against simulated trajectories.

Three families of checks, each reading only the trajectory: its history,
its inputs, and its norm table at the step-grid nodes plus step midpoints
(the dense interpolant's accuracy makes finer sampling pointless, which
is the documented approximation of every sup here):

* transient (GS): every subsystem stays below a constant computed from
  the combined initial constant c and the input norm,
      |x_i(t)| <= max{sigma_i(c), gamma_iu(||u||)}   for all t >= 0;
* asymptotic gain (AG): every subsystem's limsup estimate stays below
  its closed-loop input gain at the input norm;
* asymptotic stability (GAS): the whole state respects the overshoot
  bound sigma(||history||) pointwise and its tail dips below a target
  eps, which is the practical finite-horizon reading of convergence.

Limsup estimates are tail suprema over the final fraction of the
horizon, reported together with the same estimate at shorter horizons
(T/4, T/2, T).  A non-decreasing sequence flags the estimate as not yet
settled; the flag is diagnostic and never flips a verdict by itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .gains import KFunction
from .graph import GainDigraph
from .reduction import ClosedLoopGains, combined_initial_constant
from .sim import Trajectory

__all__ = [
    "sup_norm",
    "LimsupEstimate",
    "limsup_estimate",
    "Witness",
    "BoundReport",
    "check_gs",
    "check_ag",
    "check_gas",
]

_SETTLE_RTOL = 1e-6
_SETTLE_ATOL = 1e-12


def _column(traj: Trajectory, norms: np.ndarray, subsystem: int | None) -> np.ndarray:
    """One subsystem's norms, or the maximum over blocks for None."""
    if subsystem is None:
        return norms.max(axis=1)
    if not (1 <= subsystem <= len(traj.dims)):
        raise ValueError(f"subsystem index {subsystem} out of range 1..{len(traj.dims)}")
    return norms[:, subsystem - 1]


def sup_norm(
    traj: Trajectory,
    interval: tuple[float, float] | None = None,
    subsystem: int | None = None,
) -> float:
    """Supremum of the trajectory norm over a time interval.

    The norm is the Euclidean norm of one subsystem's block when
    ``subsystem`` is given, otherwise the maximum over blocks.  The
    interval defaults to [0, t_end] and may reach back into the initial
    segment (down to -theta).
    """
    a, b = interval if interval is not None else (0.0, traj.t_end)
    if a > b:
        raise ValueError(f"empty interval [{a}, {b}]")
    if a < -traj.theta - 1e-12 or b > traj.t_end + 1e-12:
        raise ValueError(
            f"interval [{a}, {b}] outside trajectory range [{-traj.theta}, {traj.t_end}]"
        )
    return float(np.max(_column(traj, traj.window_norms(a, b)[1], subsystem)))


@dataclass(frozen=True)
class LimsupEstimate:
    """Tail supremum standing in for a limsup, with settling diagnostics.

    tail_sups[i] is the tail supremum at horizon horizons[i]; the final
    entry is the reported value.  settled means the sequence never
    increased (within tolerance) as the horizon grew.
    """

    value: float
    tail_fraction: float
    window: tuple[float, float]
    horizons: tuple[float, ...]
    tail_sups: tuple[float, ...]
    settled: bool

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "tail_fraction": self.tail_fraction,
            "window": list(self.window),
            "horizons": list(self.horizons),
            "tail_sups": list(self.tail_sups),
            "settled": self.settled,
        }


def limsup_estimate(
    traj: Trajectory,
    tail_fraction: float = 0.2,
    subsystem: int | None = None,
) -> LimsupEstimate:
    """Estimate limsup_{t->inf} of the trajectory norm from a finite run.

    Takes the supremum over the final ``tail_fraction`` of the horizon.
    Raises on blown-up or zero-length trajectories, where a limsup is
    meaningless.
    """
    if traj.blow_up:
        raise ValueError("trajectory blew up; limsup is undefined")
    T = traj.t_end
    if T <= 0.0:
        raise ValueError("trajectory has no positive-time segment to estimate a limsup from")
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    horizons = (T / 4.0, T / 2.0, T)
    sups = tuple(
        sup_norm(traj, (H * (1.0 - tail_fraction), H), subsystem) for H in horizons
    )
    settled = all(
        sups[i + 1] <= sups[i] * (1.0 + _SETTLE_RTOL) + _SETTLE_ATOL
        for i in range(len(sups) - 1)
    )
    return LimsupEstimate(
        value=sups[-1],
        tail_fraction=tail_fraction,
        window=(T * (1.0 - tail_fraction), T),
        horizons=horizons,
        tail_sups=sups,
        settled=settled,
    )


@dataclass(frozen=True)
class Witness:
    """A concrete bound violation: observed norm above the bound at time t."""

    t: float
    observed: float
    bound: float

    def to_dict(self) -> dict:
        return {"t": self.t, "observed": self.observed, "bound": self.bound}


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound check against a trajectory."""

    kind: str
    holds: bool
    margin: float
    witness: Witness | None
    node_bounds: Mapping[int, float]
    node_margins: Mapping[int, float]
    limsups: Mapping[str, LimsupEstimate]
    details: Mapping[str, object]

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_bounds", MappingProxyType(dict(self.node_bounds)))
        object.__setattr__(self, "node_margins", MappingProxyType(dict(self.node_margins)))
        object.__setattr__(self, "limsups", MappingProxyType(dict(self.limsups)))
        object.__setattr__(self, "details", MappingProxyType(dict(self.details)))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "holds": self.holds,
            "margin": self.margin,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "node_bounds": {str(i): v for i, v in sorted(self.node_bounds.items())},
            "node_margins": {str(i): v for i, v in sorted(self.node_margins.items())},
            "limsups": {key: est.to_dict() for key, est in sorted(self.limsups.items())},
            "details": dict(sorted(self.details.items())),
        }

    def summary(self) -> str:
        verdict = "holds" if self.holds else "VIOLATED"
        line = f"{self.kind:<4} {verdict:<9} margin={self.margin:.6g}"
        if self.witness is not None:
            line += (
                f"  witness: t={self.witness.t:.6g}"
                f" observed={self.witness.observed:.6g} bound={self.witness.bound:.6g}"
            )
        return line


def _input_norm(traj: Trajectory) -> float:
    return max((sig.sup_norm(traj.t_nodes) for sig in traj.inputs or () if sig.dim > 0), default=0.0)


def _pointwise_check(
    traj: Trajectory, bounds: Mapping[int, float]
) -> tuple[dict[int, float], Witness | None]:
    """Compare each subsystem's norm against its constant bound on
    [0, t_end]; returns per-node margins and the earliest violation."""
    times, block_norms = traj.window_norms(0.0, traj.t_end)
    margins: dict[int, float] = {}
    witness: Witness | None = None
    for i in sorted(bounds):
        # Key 0 stands for the whole state rather than one block.
        norms = _column(traj, block_norms, i if i != 0 else None)
        margins[i] = float(bounds[i] - np.max(norms))
        if margins[i] < 0.0 and witness is None:
            bad = np.nonzero(norms > bounds[i])[0]
            t_bad = float(times[bad[0]])
            witness = Witness(t=t_bad, observed=float(norms[bad[0]]), bound=bounds[i])
    return margins, witness


def check_gs(
    traj: Trajectory,
    sys_gains: GainDigraph,
    closed: ClosedLoopGains,
) -> BoundReport:
    """Check the transient (GS) bound on a trajectory.

    The combined initial constant c is computed from the trajectory's
    history norms through the digraph's overshoot and coupling gains;
    each subsystem is then held below max{sigma_i(c), gamma_iu(||u||)},
    with u the trajectory's inputs, at every sampled time.  A blown-up
    trajectory fails outright with the escape time as witness.
    """
    c = combined_initial_constant(sys_gains, traj.history_norms)
    u_norm = _input_norm(traj)
    bounds: dict[int, float] = {}
    memo: dict = {}  # shared by the sigmas at c
    for i in range(1, closed.k + 1):
        b = closed.sigmas[i](c, memo)
        gain = closed.input_gains.get(i)
        if gain is not None and u_norm > 0.0:
            b = max(b, gain(u_norm))
        bounds[i] = float(b)
    margins, witness = _pointwise_check(traj, bounds)
    holds = witness is None and all(m >= 0.0 for m in margins.values())
    if traj.blow_up:
        holds = False
        if witness is None:
            esc = traj.escape_time if traj.escape_time is not None else traj.t_end
            witness = Witness(t=float(esc), observed=float(np.max(traj.node_norms())), bound=min(bounds.values()))
    return BoundReport(
        kind="GS",
        holds=holds,
        margin=float(min(margins.values())),
        witness=witness,
        node_bounds=bounds,
        node_margins=margins,
        limsups={},
        details={
            "c": c,
            "u_norm": u_norm,
            "blow_up": traj.blow_up,
            "transient_bounds_via": "constant-channel elimination",
        },
    )


def check_ag(
    traj: Trajectory,
    closed: ClosedLoopGains,
    tail_fraction: float = 0.2,
    atol: float = 1e-3,
) -> BoundReport:
    """Check the asymptotic-gain (AG) bound on a trajectory.

    Each subsystem's limsup estimate must stay within ``atol`` of its
    closed-loop input gain at the norm of the trajectory's inputs;
    subsystems the input cannot reach get a zero bound, which the
    finite-horizon tail can only meet up to the transient remainder,
    hence the tolerance.
    """
    if traj.blow_up:
        raise ValueError("trajectory blew up; asymptotic bounds are undefined")
    u_norm = _input_norm(traj)
    bounds: dict[int, float] = {}
    margins: dict[int, float] = {}
    limsups: dict[str, LimsupEstimate] = {}
    witness: Witness | None = None
    for i in range(1, closed.k + 1):
        est = limsup_estimate(traj, tail_fraction, subsystem=i)
        gain = closed.input_gains.get(i)
        bound = float(gain(u_norm)) if gain is not None else 0.0
        bounds[i] = bound
        margins[i] = bound + atol - est.value
        limsups[str(i)] = est
        if margins[i] < 0.0 and witness is None:
            witness = Witness(t=est.window[0], observed=est.value, bound=bound)
    holds = all(m >= 0.0 for m in margins.values())
    return BoundReport(
        kind="AG",
        holds=holds,
        margin=float(min(margins.values())),
        witness=witness,
        node_bounds=bounds,
        node_margins=margins,
        limsups=limsups,
        details={
            "u_norm": u_norm,
            "atol": atol,
            "tail_fraction": tail_fraction,
            "settled": all(est.settled for est in limsups.values()),
        },
    )


def check_gas(
    traj: Trajectory,
    sigma: KFunction,
    eps: float,
    tail_fraction: float = 0.2,
) -> BoundReport:
    """Check asymptotic stability of an unforced trajectory.

    Two conditions: the state norm stays below sigma(||history||), with
    the trajectory's own history, at every sampled time, and the tail
    supremum falls below ``eps``.  Blow-up is an immediate violation.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    xi = max(traj.history_norms.values())
    bound = float(sigma(xi))
    if traj.blow_up:
        esc = traj.escape_time if traj.escape_time is not None else traj.t_end
        observed = float(np.max(traj.node_norms()))
        return BoundReport(
            kind="GAS",
            holds=False,
            margin=float(bound - observed),
            witness=Witness(t=float(esc), observed=observed, bound=bound),
            node_bounds={},
            node_margins={},
            limsups={},
            details={"history_norm": xi, "eps": eps, "blow_up": True},
        )
    margins, witness = _pointwise_check(traj, {0: bound})
    est = limsup_estimate(traj, tail_fraction)
    tail_ok = est.value < eps
    holds = witness is None and margins[0] >= 0.0 and tail_ok
    if witness is None and not tail_ok:
        witness = Witness(t=est.window[0], observed=est.value, bound=eps)
    return BoundReport(
        kind="GAS",
        holds=holds,
        margin=float(min(margins[0], eps - est.value)),
        witness=None if holds else witness,
        node_bounds={},
        node_margins={},
        limsups={"all": est},
        details={
            "history_norm": xi,
            "overshoot_bound": bound,
            "eps": eps,
            "tail_fraction": tail_fraction,
            "blow_up": False,
        },
    )

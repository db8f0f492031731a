"""Gain-function algebra over a closed family of class-K functions.

A class-K function is continuous, zero at zero, and strictly increasing.
This module represents such functions as immutable expression trees built
from four primitives

    Identity             s
    Linear(a)            a*s            a > 0
    Power(p)             s^p            p > 0
    SaturatingRational   c*s^q/(1+s^q)  c > 0, q > 0

closed under composition and pointwise maximum.  Every tree evaluates
exactly (same floating-point operations regardless of how the tree was
assembled), supports scalar and vectorized evaluation, and serializes to
a small expression grammar via :meth:`KFunction.to_expr`.

Scalar and vectorized evaluation share IEEE overflow behaviour: an
intermediate that overflows gives ``inf``, not an ``OverflowError`` (a
scalar whose Python-float evaluation overflows is evaluated again as
``np.float64``).  ``SaturatingRational`` gives c wherever s^q overflows,
since it is bounded by c and tends to c.

The one nontrivial decision procedure here is :func:`less_than_identity`,
which checks ``g(s) < s`` on a logarithmic grid with local refinement and
returns a three-valued verdict: verified with a margin, violated with a
concrete witness, or inconclusive when the margin falls below floating
point trust.

All objects are immutable and all functions are pure, so everything in
this module is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "KFunction",
    "Identity",
    "Linear",
    "Power",
    "SaturatingRational",
    "Compose",
    "Max",
    "compose",
    "pointwise_max",
    "GridSpec",
    "DEFAULT_GRID",
    "VerdictStatus",
    "Verdict",
    "less_than_identity",
    "additive_to_max",
]

Scalar = Union[float, np.ndarray]


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


@dataclass(frozen=True)
class KFunction:
    """Base class for gain expression trees.

    Subclasses are frozen dataclasses, so structural equality and hashing
    come for free and trees can be used as dict keys.
    """

    def __call__(self, s: Scalar) -> Scalar:
        if np.isscalar(s) or isinstance(s, (int, float)):
            # Plain floats are the fast path, but float ** raises on overflow
            # and a saturated SaturatingRational gives nan there; either
            # sends the point through the np.float64 path below.
            try:
                out = float(self._eval(s))
            except OverflowError:
                out = math.nan
            if not math.isnan(out) or math.isnan(s):
                return out
            with np.errstate(invalid="raise"):
                return float(self._eval(np.float64(s)))
        with np.errstate(invalid="raise"):
            return self._eval(s)

    def _eval(self, s: Scalar) -> Scalar:
        raise NotImplementedError

    def to_expr(self) -> str:
        """Serialize to the gain expression grammar (see the dsl module)."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_expr()


@dataclass(frozen=True)
class Identity(KFunction):
    """The identity gain s."""

    def _eval(self, s: Scalar) -> Scalar:
        return s

    def to_expr(self) -> str:
        return "s"


@dataclass(frozen=True)
class Linear(KFunction):
    """a*s with a > 0."""

    a: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _check_positive("Linear coefficient", self.a))

    def _eval(self, s: Scalar) -> Scalar:
        return self.a * s

    def to_expr(self) -> str:
        return f"{self.a!r}*s"


@dataclass(frozen=True)
class Power(KFunction):
    """s^p with p > 0."""

    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_positive("Power exponent", self.p))

    def _eval(self, s: Scalar) -> Scalar:
        return s**self.p

    def to_expr(self) -> str:
        return f"s^{self.p!r}"


@dataclass(frozen=True)
class SaturatingRational(KFunction):
    """c*s^q/(1+s^q) with c > 0, q > 0; bounded above by c."""

    c: float
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _check_positive("Saturation level", self.c))
        object.__setattr__(self, "q", _check_positive("Saturation exponent", self.q))

    def _eval(self, s: Scalar) -> Scalar:
        u = s**self.q
        try:
            return self.c * u / (1.0 + u)
        except FloatingPointError:
            # inf/inf where s^q overflowed.  Numpy raises it only under
            # np.errstate(invalid="raise"), which KFunction.__call__ and
            # less_than_identity set, so the common path pays no check.
            # The gain tends to c, its bound.
            with np.errstate(invalid="ignore"):
                return np.where(np.isinf(u), self.c, self.c * u / (1.0 + u))

    def to_expr(self) -> str:
        return f"{self.c!r}*s^{self.q!r}/(1+s^{self.q!r})"


@dataclass(frozen=True)
class Compose(KFunction):
    """outer(inner(s))."""

    outer: KFunction
    inner: KFunction

    def __post_init__(self) -> None:
        for part in (self.outer, self.inner):
            if not isinstance(part, KFunction):
                raise TypeError(f"Compose expects KFunction operands, got {part!r}")

    def _eval(self, s: Scalar) -> Scalar:
        return self.outer._eval(self.inner._eval(s))

    def to_expr(self) -> str:
        return f"compose({self.outer.to_expr()},{self.inner.to_expr()})"


@dataclass(frozen=True)
class Max(KFunction):
    """Pointwise maximum of two gains."""

    left: KFunction
    right: KFunction

    def __post_init__(self) -> None:
        for part in (self.left, self.right):
            if not isinstance(part, KFunction):
                raise TypeError(f"Max expects KFunction operands, got {part!r}")

    def _eval(self, s: Scalar) -> Scalar:
        return np.maximum(self.left._eval(s), self.right._eval(s))

    def to_expr(self) -> str:
        return f"max({self.left.to_expr()},{self.right.to_expr()})"


def compose(outer: KFunction, inner: KFunction) -> Compose:
    """Composition outer after inner: s -> outer(inner(s))."""
    return Compose(outer, inner)


def pointwise_max(left: KFunction, right: KFunction) -> Max:
    """Pointwise maximum of two class-K functions (again class K)."""
    return Max(left, right)


def compose_chain(*funcs: KFunction) -> KFunction:
    """Compose several gains left to right: compose_chain(f, g, h) = f(g(h(s)))."""
    if not funcs:
        raise ValueError("compose_chain needs at least one gain")
    out = funcs[-1]
    for f in reversed(funcs[:-1]):
        out = Compose(f, out)
    return out


def max_of(funcs: list[KFunction]) -> KFunction:
    """Fold a nonempty list of gains into a single pointwise maximum."""
    if not funcs:
        raise ValueError("max_of needs at least one gain")
    out = funcs[0]
    for f in funcs[1:]:
        out = Max(out, f)
    return out


# ---------------------------------------------------------------------------
# grid comparison against the identity


@dataclass(frozen=True)
class GridSpec:
    """Logarithmic evaluation grid for the identity comparison.

    margin is the relative slack below which a nominally satisfied
    inequality is no longer trusted: a point s with
    1 - g(s)/s <= margin counts as inconclusive rather than verified.
    """

    s_min: float = 1e-8
    s_max: float = 1e8
    n_points: int = 4096
    refinement_depth: int = 8
    margin: float = 1e-12
    spacing: str = "log"

    def __post_init__(self) -> None:
        if not (0.0 < self.s_min < self.s_max) or not math.isfinite(self.s_max):
            raise ValueError(f"need 0 < s_min < s_max < inf, got [{self.s_min}, {self.s_max}]")
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")
        if self.refinement_depth < 0:
            raise ValueError("refinement_depth must be nonnegative")
        if not (0.0 <= self.margin < 1.0):
            raise ValueError("margin must lie in [0, 1)")
        if self.spacing != "log":
            raise ValueError(f"only logarithmic spacing is supported, got {self.spacing!r}")

    def points(self) -> np.ndarray:
        """The grid, computed once per GridSpec and read-only."""
        return self._points

    @cached_property
    def _points(self) -> np.ndarray:
        pts = np.geomspace(self.s_min, self.s_max, self.n_points)
        pts.flags.writeable = False
        return pts


DEFAULT_GRID = GridSpec()


class VerdictStatus(Enum):
    VERIFIED_ON_GRID = "verified_on_grid"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a grid comparison g < id.

    margin is the smallest relative margin 1 - g(s)/s seen over all
    sampled points (negative when violated).  witness is the sample
    realizing it and value is g(witness).
    """

    status: VerdictStatus
    margin: float
    witness: float
    value: float

    @property
    def verified(self) -> bool:
        return self.status is VerdictStatus.VERIFIED_ON_GRID

    @property
    def violated(self) -> bool:
        return self.status is VerdictStatus.VIOLATED

    @property
    def inconclusive(self) -> bool:
        return self.status is VerdictStatus.INCONCLUSIVE

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "margin": self.margin,
            "witness": self.witness,
            "value": self.value,
        }


def _relative_margins(g: KFunction, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals = np.asarray(g._eval(pts), dtype=float)
    if vals.shape != pts.shape:
        vals = np.broadcast_to(vals, pts.shape).astype(float)
    return vals, 1.0 - vals / pts


@np.errstate(invalid="raise")  # see SaturatingRational._eval
def less_than_identity(g: KFunction, grid: GridSpec = DEFAULT_GRID) -> Verdict:
    """Check g(s) < s for all s, sampled on a logarithmic grid.

    The verdict is three-valued:

    * VERIFIED_ON_GRID: every sampled point satisfies the inequality with
      relative margin above ``grid.margin``.
    * VIOLATED: some sampled point has g(s) >= s; that point is returned
      as a concrete witness.
    * INCONCLUSIVE: the inequality held at every sample but the worst
      relative margin dipped to ``grid.margin`` or below (asymptotic
      tangency cannot be distinguished from a true violation at floating
      point resolution).

    After the initial sweep the point of worst margin is refined by
    ``grid.refinement_depth`` rounds of geometric bisection, which
    tightens the reported margin and can surface violations that fall
    between grid points.
    """
    pts = grid.points()
    vals, margins = _relative_margins(g, pts)

    def verdict_at(i: int, pts: np.ndarray, vals: np.ndarray, margins: np.ndarray) -> tuple[float, float, float]:
        return float(margins[i]), float(pts[i]), float(vals[i])

    worst = int(np.argmin(margins))
    best_margin, best_s, best_val = verdict_at(worst, pts, vals, margins)
    if best_margin <= 0.0 and vals[worst] >= pts[worst]:
        return Verdict(VerdictStatus.VIOLATED, best_margin, best_s, best_val)

    # Bisection refinement around the worst grid point.  The bracket is the
    # pair of neighbouring grid points; each round evaluates the two
    # geometric midpoints and re-centres on the worst sample found.
    lo = pts[max(worst - 1, 0)]
    hi = pts[min(worst + 1, len(pts) - 1)]
    centre_s, centre_margin, centre_val = best_s, best_margin, best_val
    for _ in range(grid.refinement_depth):
        probes = np.array([math.sqrt(lo * centre_s), math.sqrt(centre_s * hi)])
        pvals, pmargins = _relative_margins(g, probes)
        for j in range(2):
            if pmargins[j] < best_margin:
                best_margin, best_s, best_val = float(pmargins[j]), float(probes[j]), float(pvals[j])
            if pvals[j] >= probes[j]:
                return Verdict(VerdictStatus.VIOLATED, float(pmargins[j]), float(probes[j]), float(pvals[j]))
        candidates = [
            (float(pmargins[0]), float(probes[0]), float(pvals[0]), lo, centre_s),
            (centre_margin, centre_s, centre_val, float(probes[0]), float(probes[1])),
            (float(pmargins[1]), float(probes[1]), float(pvals[1]), centre_s, hi),
        ]
        centre_margin, centre_s, centre_val, lo, hi = min(candidates, key=lambda c: c[0])

    if best_margin > grid.margin:
        return Verdict(VerdictStatus.VERIFIED_ON_GRID, best_margin, best_s, best_val)
    return Verdict(VerdictStatus.INCONCLUSIVE, best_margin, best_s, best_val)


# ---------------------------------------------------------------------------
# helper for turning additive estimates into max-form estimates


def additive_to_max(a: float, b: float, eps: float = 1.0 / 6.0) -> tuple[float, float]:
    """Split the additive bound a + b into max-form pieces.

    For any eps > 0 and a, b >= 0,

        a + b <= max{(1 + 1/eps)*a, (1 + eps)*b},

    so a trajectory estimate of the shape "transient + gain term" can be
    re-expressed as a pointwise maximum at the cost of inflating the two
    terms.  Returns the inflated pair ((1 + 1/eps)*a, (1 + eps)*b).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if a < 0.0 or b < 0.0:
        raise ValueError("additive_to_max expects nonnegative terms")
    return (1.0 + 1.0 / eps) * a, (1.0 + eps) * b

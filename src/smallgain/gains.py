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

Trees built by elimination share subtrees, so they are really DAGs.
Scalar evaluation and serialization visit each distinct node once per
argument: a memo keyed by ``(id(node), id(argument))`` returns the
value already computed for that node at that very argument object, and
each distinct node's expression string is built once per ``to_expr``
call.  Every node still performs the same operations on the same
operands, so values and strings are bit-for-bit those of the plain tree
recursion.  A caller that evaluates or serializes several gains may
share one memo among them; an array call takes a memo the same way, as
the closed-loop tables do.  An array call without a memo does not
memoise nodes, so it holds no more arrays at once than the recursion
would, besides the powers of the arrays it is evaluating at.

Array powers stay off libm's slow path (see :func:`_pow`): an entry
whose power must round to +0 is written as +0, not handed to numpy.
Gains that evaluate at one array share its powers: the nodes of an
array call that evaluate at one argument, and in the grid sweep of
:func:`less_than_identity_chains` the sibling gains that extend one
array.  Neither changes a bit: every value is that of ``s**p`` taken at
every occurrence.  Scalar and array evaluation of a gain can still
differ in the last bit, since numpy's array power and libm's ``pow``
(Python's float ``**``) disagree by one ulp on about 5% of inputs on an
AVX-512 Xeon (10,689 of 200,000 log-uniform inputs at p = 4); the tests
compare the two with ``rtol=1e-13``.

Scalar and vectorized evaluation share IEEE overflow behaviour: an
intermediate that overflows gives ``inf``, not an ``OverflowError`` (a
scalar whose Python-float evaluation overflows is evaluated again as
``np.float64``).  ``SaturatingRational`` gives c wherever s^q overflows,
since it is bounded by c and tends to c; for c > 1 it evaluates
c*(s^q/(1+s^q)), so c*s^q overflowing cannot push it above c.

The one nontrivial decision procedure here is :func:`less_than_identity`,
which checks ``g(s) < s`` on a logarithmic grid with local refinement and
returns a three-valued verdict: verified with a margin, violated with a
concrete witness, or inconclusive when the margin falls below floating
point trust.  :func:`less_than_identity_chains` decides many composed
chains of gains in one batch, as the cyclic small-gain check needs: each
distinct innermost suffix of gains is evaluated on the grid once, and
the refinement rounds of all chains share one probe array per round,
with the state of every chain in arrays and the saturations of one
exponent at one depth evaluated together.  Each verdict keeps the bits
of checking its chain alone, and ``less_than_identity`` is the batch of
one.

All objects are immutable and all functions are pure, so everything in
this module is safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence, Union

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
    "less_than_identity_chains",
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

    def __call__(self, s: Scalar, memo: dict | None = None) -> Scalar:
        """Evaluate at a scalar or an array of arguments s >= 0.

        A negative argument raises ValueError; -0.0, NaN and inf are
        evaluated.  A call may pass ``memo``, a dict shared by calls at
        the same argument object (see :func:`_evaluate`).  An array call
        without one evaluates every occurrence of a node, but the nodes
        that evaluate at one array share its powers.  The tables of
        ``ClosedLoopGains.to_dict`` are the values of one array call.
        """
        if np.isscalar(s) or isinstance(s, (int, float)):
            if s < 0:
                raise ValueError(f"gain argument must be nonnegative, got {float(s)!r}")
            # Plain floats are the fast path, but float ** raises on overflow
            # and a saturated SaturatingRational gives nan there; either
            # sends the point through the np.float64 path below.
            try:
                out = float(_evaluate(self, s, {} if memo is None else memo))
            except OverflowError:
                out = math.nan
            if not math.isnan(out) or math.isnan(s):
                return out
            with np.errstate(invalid="raise"):
                return float(_evaluate(self, np.float64(s), {}))
        negative = np.less(s, 0)
        if negative.any():
            raise ValueError(f"gain argument must be nonnegative, got {float(np.extract(negative, s)[0])!r}")
        with np.errstate(invalid="raise"):
            return _evaluate(self, s, memo, powers={})

    def _eval(self, s: Scalar, powers: dict | None = None) -> Scalar:
        """Evaluate a primitive; Compose and Max go through :func:`_evaluate`.

        ``powers`` holds the powers of ``s`` already taken (see
        :func:`_shared_pow`); only ``Power`` and ``SaturatingRational``
        read it.
        """
        raise NotImplementedError

    def to_expr(self) -> str:
        """Serialize to the gain expression grammar (see the dsl module)."""
        return _serialize(self, {})

    def _expr(self) -> str:
        """Expression string of a primitive."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_expr()


@dataclass(frozen=True)
class Identity(KFunction):
    """The identity gain s."""

    def _eval(self, s: Scalar, powers: dict | None = None) -> Scalar:
        return s

    def _expr(self) -> str:
        return "s"


@dataclass(frozen=True)
class Linear(KFunction):
    """a*s with a > 0."""

    a: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _check_positive("Linear coefficient", self.a))

    def _eval(self, s: Scalar, powers: dict | None = None) -> Scalar:
        return self.a * s

    def _expr(self) -> str:
        return f"{self.a!r}*s"


@dataclass(frozen=True)
class Power(KFunction):
    """s^p with p > 0."""

    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_positive("Power exponent", self.p))

    def _eval(self, s: Scalar, powers: dict | None = None) -> Scalar:
        if powers is None:
            return _pow(s, self.p)
        return _shared_pow(s, self.p, powers)[0]

    def _expr(self) -> str:
        return f"s^{self.p!r}"


@dataclass(frozen=True)
class SaturatingRational(KFunction):
    """c*s^q/(1+s^q) with c > 0, q > 0; bounded above by c."""

    c: float
    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _check_positive("Saturation level", self.c))
        object.__setattr__(self, "q", _check_positive("Saturation exponent", self.q))

    def _eval(self, s: Scalar, powers: dict | None = None) -> Scalar:
        if powers is None:
            return _saturating(self.q, self.c, self.c > 1.0, s)
        u, v = _shared_pow(s, self.q, powers, plus_one=True)
        return _saturate(self.c, self.c > 1.0, u, v)

    def _expr(self) -> str:
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


@dataclass(frozen=True)
class Max(KFunction):
    """Pointwise maximum of two gains."""

    left: KFunction
    right: KFunction

    def __post_init__(self) -> None:
        for part in (self.left, self.right):
            if not isinstance(part, KFunction):
                raise TypeError(f"Max expects KFunction operands, got {part!r}")


def _saturate(c: Scalar, big: bool, u: Scalar, v: Scalar) -> Scalar:
    """c*u/v with v = 1+u, for one level c or an array of levels.

    c*u overflows for finite u only when c > 1 (``big``); taking the
    ratio first keeps the result at most c there.  c <= 1 keeps the plain
    expression and its bits.  Where s^q overflowed, u/v is inf/inf.
    Numpy raises that only under np.errstate(invalid="raise"), which
    KFunction.__call__ and less_than_identity_chains set, so the common
    path pays no check; the gain tends to c, its bound.
    """
    try:
        return c * (u / v) if big else c * u / v
    except FloatingPointError:
        with np.errstate(invalid="ignore"):
            return np.where(np.isinf(u), c, _saturate(c, big, u, v))


def _saturating(q: float, c: Scalar, big: bool, s: Scalar) -> Scalar:
    """c*s^q/(1+s^q) for one level c, or for an array of levels, one per
    entry of s: the gains of one exponent and one side of c = 1."""
    u = _pow(s, q)
    return _saturate(c, big, u, 1.0 + u)


def _evaluate(g: KFunction, s: Scalar, memo: dict | None = None, powers: dict | None = None) -> Scalar:
    """Evaluate g at s, each distinct (node, argument) pair once.

    ``memo`` maps ``(id(node), id(arg))`` to ``(value, arg)``; holding
    the argument keeps its id from being reused while the memo lives, and
    the nodes are held by the tree being evaluated.  One memo may be
    shared by several trees evaluated at the same argument object.  A
    node reached again through a shared subtree at an argument object it
    has already seen returns the stored value, which is the value the
    recursion would compute again.  With ``memo`` None every node is
    evaluated as often as it occurs in the tree.

    ``powers`` is the power cache of the array s (see
    :func:`_shared_pow`), or None, which turns the sharing off.  Every
    node that evaluates at s itself shares it: the operands of a Max, the
    inner gain of a Compose, and its outer gain where the inner one
    returns s (an Identity).  An outer gain evaluated at a new array gets
    a new cache, dropped with that array.
    """
    if memo is not None:
        key = (id(g), id(s))
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
    if isinstance(g, Compose):
        inner = _evaluate(g.inner, s, memo, powers)
        if powers is not None and inner is not s:
            powers = {}
        out = _evaluate(g.outer, inner, memo, powers)
    elif isinstance(g, Max):
        out = np.maximum(_evaluate(g.left, s, memo, powers), _evaluate(g.right, s, memo, powers))
    else:
        out = g._eval(s, powers)
    if memo is not None:
        memo[key] = (out, s)
    return out


# Arrays with fewer entries take their powers directly: the refinement
# rounds evaluate probe arrays of tens of entries, where a threshold test
# costs more than the slow path it avoids.
_MASK_MIN = 256


def _pow(s: Scalar, p: float) -> Scalar:
    """``s**p``, without handing numpy an entry whose power must round to +0.

    An entry 0 <= s <= 2^(-1100/p) has s^p <= 2^-1100, far below half the
    smallest subnormal (2^-1075), so its power rounds to +0.  numpy's
    array power takes libm's slow path on such entries (and on exact
    zeros, for most exponents): hundreds of microseconds for 4,096 of
    them, against about 20 for normal ones.  Those entries are written as
    +0 and the others go through ``**``, so the bits are those of
    ``s**p``.  For p < 1 the threshold is 0, so only +0 is written.
    Scalars, arrays of other types and arrays under ``_MASK_MIN`` entries
    take ``s**p`` directly, and so does p = 2, which numpy's power
    evaluates as a square, with no slow path.
    """
    if p == 2.0 or not isinstance(s, np.ndarray) or s.size < _MASK_MIN or s.dtype != np.float64:
        return s**p
    zero_below = 2.0 ** (-1100.0 / p) if p >= 1.0 else 0.0
    if not np.minimum.reduce(s, axis=None) <= zero_below:  # or a NaN minimum
        return s**p
    # NaN, a negative entry and -0.0 keep their own power (NaN, or a
    # signed zero for odd integer p).
    keep = ~(s <= zero_below) | np.signbit(s)
    out = np.zeros(s.shape)
    out[keep] = s[keep] ** p
    return out


def _shared_pow(s: np.ndarray, p: float, powers: dict, plus_one: bool = False) -> list:
    """``[s**p, 1 + s**p]``, each taken once per ``powers`` dict.

    ``powers`` belongs to the one array s and maps p to that pair; the
    second entry is None until a gain asks for it.  Sibling gains that
    extend s with the same exponent share one power, with its bits.
    """
    pair = powers.get(p)
    if pair is None:
        pair = powers[p] = [_pow(s, p), None]
    if plus_one and pair[1] is None:
        pair[1] = 1.0 + pair[0]
    return pair


def _serialize(g: KFunction, memo: dict[int, str]) -> str:
    """Expression string of g, built once per distinct node in ``memo``."""
    out = memo.get(id(g))
    if out is None:
        if isinstance(g, Compose):
            out = f"compose({_serialize(g.outer, memo)},{_serialize(g.inner, memo)})"
        elif isinstance(g, Max):
            out = f"max({_serialize(g.left, memo)},{_serialize(g.right, memo)})"
        else:
            out = g._expr()
        memo[id(g)] = out
    return out


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

    def __post_init__(self) -> None:
        if not (0.0 < self.s_min < self.s_max) or not math.isfinite(self.s_max):
            raise ValueError(f"need 0 < s_min < s_max < inf, got [{self.s_min}, {self.s_max}]")
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")
        if self.refinement_depth < 0:
            raise ValueError("refinement_depth must be nonnegative")
        if not (0.0 <= self.margin < 1.0):
            raise ValueError("margin must lie in [0, 1)")

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
    between grid points.  This is :func:`less_than_identity_chains` on
    the single chain ``(g,)``.
    """
    return less_than_identity_chains([(g,)], grid)[0]


def _geometric_means(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sqrt(a*b) elementwise, taken as sqrt(a)*sqrt(b) where a*b is not a
    normal finite float: a product that underflows to 0 or overflows to
    inf would make a refinement probe 0 or inf.  np.sqrt rounds
    correctly, as math.sqrt does."""
    with np.errstate(over="ignore"):
        ab = a * b
    out = np.sqrt(ab)
    odd = ~((ab >= sys.float_info.min) & (ab < math.inf))
    if odd.any():
        out[odd] = np.sqrt(a[odd]) * np.sqrt(b[odd])
    return out


@np.errstate(invalid="raise")  # see _saturate
def less_than_identity_chains(
    chains: Sequence[Sequence[KFunction]], grid: GridSpec = DEFAULT_GRID
) -> list[Verdict]:
    """Check ``compose_chain(*chain) < id`` for every chain in one batch.

    Verdict i equals ``less_than_identity(compose_chain(*chains[i]),
    grid)`` bit for bit: each chain is evaluated with the same
    floating-point operations on the same operands as on its own, and
    the chains only share the work.

    * Grid sweep: the chains are walked sorted by the identities
      (``id``) of their gains, innermost first, keeping a stack with the
      grid array of each depth of the current chain.  A chain starts
      from the deepest array it shares with the previous one, so each
      distinct innermost suffix is evaluated once, and at most the
      longest chain's length plus one arrays are held.  The gains that
      extend one of these arrays share its powers: ``x**q`` and
      ``1 + x**q`` are taken once per array and exponent.  A chain's worst
      grid point is either its witness of violation or the centre of its
      refinement bracket.
    * Refinement: the state of every undecided chain lives in float64
      arrays, one entry per chain, and each round puts the two probes of
      every chain into one array (an ``(n, 2)`` array, stored flat).  It
      is evaluated depth by depth (see :func:`_depth_plan`), and every
      chain is updated at once with ``np.where``, in the order of
      comparisons of checking it alone.  A violated chain leaves the
      batch.

    numpy evaluates elementwise, so an entry of the shared array gets
    the bits it gets in a chain's own two-probe array; the tests check
    that premise for every primitive.
    """
    if not all(chains):
        raise ValueError("every chain needs at least one gain")
    pts = grid.points()
    verdicts: list[Verdict | None] = [None] * len(chains)
    # The undecided chains and their starting states (centre margin, s,
    # value, then lo and hi).
    undecided: list[int] = []
    starts: list[tuple] = []

    # stack[d] is the grid array after the d innermost gains of the
    # previous chain, whose gain identities are prev; powers[d] is the
    # power cache of stack[d], shared by the gains that extend it.
    stack, powers, prev = [pts], [{}], ()
    for key, i in sorted([(tuple(map(id, reversed(chain))), i) for i, chain in enumerate(chains)]):
        shared = 0
        for a, b in zip(key, prev):
            if a != b:
                break
            shared += 1
        del stack[shared + 1 :], powers[shared + 1 :]
        for f in reversed(chains[i][: len(key) - shared]):
            stack.append(_evaluate(f, stack[-1], powers=powers[-1]))
            powers.append({})
        prev, vals = key, stack[-1]
        margins = 1.0 - vals / pts
        worst = int(np.argmin(margins))
        margin, s, val = float(margins[worst]), float(pts[worst]), float(vals[worst])
        if margin <= 0.0 and val >= s:
            verdicts[i] = Verdict(VerdictStatus.VIOLATED, margin, s, val)
        else:
            # The bracket is the pair of neighbouring grid points.
            undecided.append(i)
            starts.append((margin, s, val, pts[max(worst - 1, 0)], pts[min(worst + 1, len(pts) - 1)]))
    del stack, powers

    # Rows of state: the centre's margin, s and value, then lo and hi;
    # rows of best: the smallest margin seen, its s and its value.  Each
    # round evaluates the two geometric midpoints of every bracket and
    # re-centres it on the worst of the three samples.
    idx = np.array(undecided, dtype=np.intp)
    state = np.array(starts, dtype=float).reshape(-1, 5).T
    best = state[:3]
    plan = None
    for _ in range(grid.refinement_depth):
        if not idx.size:
            break
        if plan is None:
            plan = _depth_plan([chains[i] for i in idx.tolist()])
        centre, lo, hi = state[:3], state[3], state[4]
        probes = np.stack([_geometric_means(lo, centre[1]), _geometric_means(centre[1], hi)], axis=1).ravel()
        pvals = probes.copy()
        for evaluate, entries in plan:
            pvals[entries] = evaluate(pvals[entries])
        # a[:, r] and b[:, r] are (margin, s, value) of the r-th chain's probes.
        a, b = np.stack([1.0 - pvals / probes, probes, pvals]).reshape(3, -1, 2).transpose(2, 0, 1)
        # Probe a updates the best sample and is tested before probe b.
        best = np.where(a[0] < best[0], a, best)
        violated_a = a[2] >= a[1]
        best = np.where(b[0] < best[0], b, best)
        violated = violated_a | (b[2] >= b[1])
        # The first of the three samples with the smallest margin.
        new = np.concatenate([a, [lo, centre[1]]])
        new = np.where(centre[0] < new[0], np.concatenate([centre, [a[1], b[1]]]), new)
        state = np.where(b[0] < new[0], np.concatenate([b, [centre[1], hi]]), new)
        if violated.any():
            witness = np.where(violated_a, a, b)[:, violated]
            for i, (m, s, v) in zip(idx[violated].tolist(), witness.T.tolist()):
                verdicts[i] = Verdict(VerdictStatus.VIOLATED, m, s, v)
            kept = ~violated
            idx, state, best, plan = idx[kept], state[:, kept], best[:, kept], None

    for i, (m, s, v) in zip(idx.tolist(), best.T.tolist()):
        status = VerdictStatus.VERIFIED_ON_GRID if m > grid.margin else VerdictStatus.INCONCLUSIVE
        verdicts[i] = Verdict(status, m, s, v)
    return verdicts


def _depth_plan(chains: list[tuple[KFunction, ...]]) -> list[tuple[Callable, slice | np.ndarray]]:
    """Evaluation plan of a refinement round, two probe entries per chain.

    Lists ``(evaluate, entries)`` depth by depth, innermost gain first.
    At each depth the ``SaturatingRational`` gains of one exponent q and
    one side of c = 1 share one step, which evaluates their entries with
    an array of their levels c (see :func:`_saturating`); every
    other distinct gain has a step of its own.  ``entries`` is a slice
    where the chains of a step are adjacent, else an index array.
    """
    plan = []
    for depth in range(1, max(map(len, chains)) + 1):
        rows: dict[object, tuple[KFunction, list[int]]] = {}
        for r, chain in enumerate(chains):
            if depth <= len(chain):
                f = chain[-depth]
                key = (f.q, f.c > 1.0) if type(f) is SaturatingRational else id(f)
                rows.setdefault(key, (f, []))[1].append(r)
        for key, (f, rs) in rows.items():
            if rs[-1] - rs[0] == len(rs) - 1:
                entries = slice(2 * rs[0], 2 * rs[-1] + 2)
            else:
                entries = np.array([j for r in rs for j in (2 * r, 2 * r + 1)])
            if isinstance(key, tuple):
                q, big = key
                levels = np.repeat([chains[r][-depth].c for r in rs], 2)
                plan.append((functools.partial(_saturating, q, levels, big), entries))
            else:
                plan.append((functools.partial(_evaluate, f), entries))
    return plan


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

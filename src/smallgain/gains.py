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
Evaluation and serialization visit each distinct node once per
argument: a memo keyed by ``(id(node), id(argument))`` returns the
value already computed for that node at that very argument object, and
each distinct node's expression string is built once per ``to_expr``
call.  Every node still performs the same operations on the same
operands, so values and strings are bit-for-bit those of the plain tree
recursion.  Every call, scalar or array, walks the DAG with a memo: a
fresh one, or one the caller shares among several gains evaluated at
the same argument object, as the closed-loop tables do.  A memo is
valid only while the arrays it has seen are not mutated, and an array
call holds one array per distinct node until it returns.

Array powers stay off libm's slow path (see :func:`_pow`): an entry
whose power must round to +0 is written as +0, not handed to numpy.
:func:`less_than_identity_chains` takes one power for the saturations
of one exponent at one depth of its chains.  Neither changes a bit:
every value is that of ``s**p`` taken at every occurrence.  Scalar and
array evaluation of a gain can still differ in the last bit, since
numpy's array power and libm's ``pow`` (Python's float ``**``)
disagree by one ulp on about 5% of inputs on an AVX-512 Xeon (10,689
of 200,000 log-uniform inputs at p = 4); the tests compare the two
with ``rtol=1e-13``.

Scalar and vectorized evaluation share IEEE overflow behaviour: an
intermediate that overflows gives ``inf``, not an ``OverflowError`` or
a numpy warning (a scalar whose Python-float evaluation overflows is
evaluated again as ``np.float64``).  ``SaturatingRational`` gives c
wherever s^q overflows, since it is bounded by c and tends to c; for
c > 1 it evaluates c*(s^q/(1+s^q)), so c*s^q overflowing cannot push
it above c.

The one nontrivial decision procedure here is :func:`less_than_identity`,
which checks ``g(s) < s`` on a logarithmic grid with local refinement and
returns a three-valued verdict: verified with a margin, violated with a
concrete witness, or inconclusive when the margin falls below floating
point trust.  :func:`less_than_identity_chains` decides many composed
chains of gains in one batch, as the cyclic small-gain check needs (it
passes its chains as arrays, see :func:`_chain_verdicts`): the grid
sweep evaluates every chain at every 32nd grid point, then only in the
blocks between them that can still hold its worst point, and each
refinement round puts the probes of all chains in one array.  Every pass
takes the chains longest first, so the rows that reach a depth are the
first rows of its array, and evaluates them depth by depth, the
saturations of one exponent, and the ``Linear`` gains, of one depth
together.  Each verdict keeps the bits of checking its chain alone, and
``less_than_identity`` is the batch of one.

All objects are immutable and all functions are pure, so everything in
this module is safe to share across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence, Union

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
        evaluated, and an overflowing intermediate gives inf, silently.
        The call walks the gain's DAG once (see :func:`_evaluate`) with
        ``memo``, or with a fresh memo when none is given; a memo may be
        shared by calls at the same argument object while that object is
        not mutated.  An array call holds one array per distinct node
        until it returns, or for as long as the caller keeps ``memo``.
        The tables of ``ClosedLoopGains.to_dict`` are the values of one
        array call.
        """
        memo = {} if memo is None else memo
        if np.isscalar(s) or isinstance(s, (int, float)):
            if s < 0:
                raise ValueError(f"gain argument must be nonnegative, got {float(s)!r}")
            s = float(s)  # a numpy scalar would warn where a float raises
            # Plain floats are the fast path, but float ** raises on overflow
            # and a saturated SaturatingRational gives nan there; either
            # sends the point through the np.float64 path below.
            with np.errstate(over="ignore"):
                try:
                    out = float(_evaluate(self, s, memo))
                except OverflowError:
                    out = math.nan
                if not math.isnan(out) or math.isnan(s):
                    return out
                with np.errstate(invalid="raise"):
                    return float(_evaluate(self, np.float64(s), {}))
        negative = np.less(s, 0)
        if negative.any():
            raise ValueError(f"gain argument must be nonnegative, got {float(np.extract(negative, s)[0])!r}")
        with np.errstate(invalid="raise", over="ignore"):
            return _evaluate(self, s, memo)

    def _eval(self, s: Scalar) -> Scalar:
        """Evaluate a primitive; Compose and Max go through :func:`_evaluate`."""
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

    def _eval(self, s: Scalar) -> Scalar:
        return s

    def _expr(self) -> str:
        return "s"


@dataclass(frozen=True)
class Linear(KFunction):
    """a*s with a > 0."""

    a: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _check_positive("Linear coefficient", self.a))

    def _eval(self, s: Scalar) -> Scalar:
        return self.a * s

    def _expr(self) -> str:
        return f"{self.a!r}*s"


@dataclass(frozen=True)
class Power(KFunction):
    """s^p with p > 0."""

    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_positive("Power exponent", self.p))

    def _eval(self, s: Scalar) -> Scalar:
        return _pow(s, self.p)

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

    def _eval(self, s: Scalar) -> Scalar:
        return _saturating(self.q, self.c, self.c > 1.0, s)

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


def _saturating(q: float, c: Scalar, big: bool, s: Scalar) -> Scalar:
    """c*s^q/(1+s^q) for one level c, or for an array of levels, one per
    entry of s: the gains of one exponent and one side of c = 1.

    c*s^q overflows for finite s^q only when c > 1 (``big``); taking the
    ratio first keeps the result at most c there.  c <= 1 keeps the plain
    expression and its bits.  Where s^q overflowed, the ratio is inf/inf.
    Numpy raises that only under np.errstate(invalid="raise"), which
    KFunction.__call__ and less_than_identity_chains set, so the common
    path pays no check; the gain tends to c, its bound.
    """
    u = _pow(s, q)
    try:
        return c * (u / (1.0 + u)) if big else c * u / (1.0 + u)
    except FloatingPointError:
        with np.errstate(invalid="ignore"):
            return np.where(np.isinf(u), c, _saturating(q, c, big, s))


def _evaluate(g: KFunction, s: Scalar, memo: dict) -> Scalar:
    """Evaluate g at s, each distinct (node, argument) pair once.

    ``memo`` maps ``(id(node), id(arg))`` to ``(value, arg)``; holding
    the argument keeps its id from being reused while the memo lives, and
    the nodes are held by the tree being evaluated.  One memo may be
    shared by several trees evaluated at the same argument object, and is
    valid only while no argument array it has seen is mutated.  A node
    reached again through a shared subtree at an argument object it has
    already seen returns the stored value, which is the value the
    recursion would compute again.  The memo holds one value per distinct
    (node, argument) pair, one array each in an array call, until it is
    dropped.
    """
    key = (id(g), id(s))
    hit = memo.get(key)
    if hit is not None:
        return hit[0]
    if isinstance(g, Compose):
        out = _evaluate(g.outer, _evaluate(g.inner, s, memo), memo)
    elif isinstance(g, Max):
        out = np.maximum(_evaluate(g.left, s, memo), _evaluate(g.right, s, memo))
    else:
        out = g._eval(s)
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


# Grid points per block of the sweep, the most points of one array of
# blocks and the most chains of one array of coarse points: these bound
# the memory the sweep holds.
_BLOCK = 32
_POINTS = 8192
_CHAINS = 128
# The verdict statuses by their codes in _chain_verdicts, worst last.
_STATUSES = (VerdictStatus.VERIFIED_ON_GRID, VerdictStatus.INCONCLUSIVE, VerdictStatus.VIOLATED)


def less_than_identity_chains(
    chains: Sequence[Sequence[KFunction]], grid: GridSpec = DEFAULT_GRID
) -> list[Verdict]:
    """Check ``compose_chain(*chain) < id`` for every chain in one batch,
    longest first (see :func:`_chain_verdicts`): verdict i equals
    ``less_than_identity(compose_chain(*chains[i]), grid)`` bit for bit."""
    if not all(chains):
        raise ValueError("every chain needs at least one gain")
    gains = list({id(f): f for chain in chains for f in chain}.values())
    at = {id(f): i for i, f in enumerate(gains)}
    depth = max(map(len, chains), default=0)
    index = np.array([[at[id(f)] for f in reversed(c)] + [-1] * (depth - len(c)) for c in chains], dtype=np.intp)
    codes, numbers = _chain_verdicts(gains, index.reshape(len(chains), depth), grid)
    return [Verdict(_STATUSES[c], m, s, v) for c, (m, s, v) in zip(codes.tolist(), numbers.tolist())]


@np.errstate(invalid="raise", over="ignore")  # see _saturating; overflow gives inf
def _chain_verdicts(gains: Sequence[KFunction], index: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Verdicts of many chains against the identity, in columns.

    Row i of ``index`` holds chain i's gains as positions in ``gains``,
    innermost first, and -1 past its end.  Returns the status codes
    (positions in ``_STATUSES``) and the rows (margin, witness, value)
    of ``less_than_identity(compose_chain(*chain), grid)``, bit
    for bit: each chain is evaluated with the same floating-point
    operations on the same operands as on its own, and the chains only
    share the work.

    * Grid sweep: a chain's worst grid point, the first argmin of
      ``1 - g(s)/s``, is its witness of violation or the centre of its
      refinement bracket.  The sweep evaluates the coarse points (every
      ``_BLOCK``-th grid point and the last) of chunks of ``_CHAINS``
      chains, then only the blocks of points strictly between two of
      them, ``s_a < s_b``, that can hold that argmin: a point there has
      margin at least ``1 - g(s_b)*(1 + 1e-9)/s_a``, as rounding is
      monotone and, the premise, every computed chain is nondecreasing
      within a relative 1e-9.  A block whose bound exceeds the best
      coarse margin, or equals it and lies after the first coarse point
      attaining it, is skipped; the bound prunes, and proves nothing off
      the grid.
    * Refinement: the state of every undecided chain lives in float64
      arrays, one entry per chain, and each round puts the two probes of
      every chain into one ``(n, 2)`` array.  Every chain is updated at
      once with ``np.where``, in the order of comparisons of checking it
      alone.  A violated chain leaves the batch.

    Both run through one plan, built once per batch with the chains
    longest first, and every array they evaluate keeps that order, so the
    rows that reach depth d are its first rows (see :func:`_plan` and
    :func:`_steps`).  numpy evaluates elementwise, so a point gets the
    bits it gets in a chain's own array, as the tests check.
    """
    n = len(index)
    codes, numbers = np.zeros(n, dtype=np.int8), np.empty((n, 3))
    if not n:
        return codes, numbers
    # Longest first, the chains that reach a depth are the first rows of
    # any rows taken in this order; rows below are positions in it.
    order = np.argsort(-np.count_nonzero(index >= 0, axis=1), kind="stable")
    plan = _plan(gains, index[order])
    pts = grid.points()
    margin, worst, value = _sweep(plan, pts)

    # Rows of state: the centre's margin, s and value, then lo and hi (at
    # first the worst grid point and its neighbours); rows of best: the
    # smallest margin seen, its s and its value.  Each round re-centres a
    # bracket on the worst of its centre and two geometric midpoints.
    lo, hi = pts[np.maximum(worst - 1, 0)], pts[np.minimum(worst + 1, len(pts) - 1)]
    state = np.stack([margin, pts[worst], value, lo, hi])
    violated = (state[0] <= 0.0) & (state[2] >= state[1])
    codes[order[violated]] = 2
    numbers[order[violated]] = state[:3, violated].T
    idx = np.flatnonzero(~violated)
    state = state[:, idx]
    best = state[:3]
    steps = _steps(plan, idx)
    for _ in range(grid.refinement_depth):
        if not idx.size:
            break
        centre, lo, hi = state[:3], state[3], state[4]
        probes = _geometric_means(state[[3, 1]], state[[1, 4]]).T
        pvals = _run(steps, probes.copy())
        # a[:, r] and b[:, r] are (margin, s, value) of the r-th chain's probes.
        a, b = np.stack([1.0 - pvals / probes, probes, pvals]).transpose(2, 0, 1)
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
            codes[order[idx[violated]]] = 2
            numbers[order[idx[violated]]] = np.where(violated_a, a, b)[:, violated].T
            kept = ~violated
            idx, state, best = idx[kept], state[:, kept], best[:, kept]
            steps = _steps(plan, idx)
    codes[order[idx]] = ~(best[0] > grid.margin)  # inconclusive, or verified
    numbers[order[idx]] = best.T
    return codes, numbers


def _sweep(plan: tuple, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The margin, grid index and value of each chain's worst point on the
    grid ``pts``, swept as :func:`_chain_verdicts` describes."""
    n = len(plan[0])
    coarse = np.arange(0, len(pts) + _BLOCK - 1, _BLOCK)
    coarse[-1] = len(pts) - 1
    # (chain, margin, grid index, value) of the first argmin of every row
    # swept: the coarse points of each chain, then each block it keeps.
    found, fine = [], []

    def sweep(rows: np.ndarray, at: np.ndarray, vals: np.ndarray) -> tuple:
        margins = 1.0 - vals / pts[at]
        k, j = np.arange(len(rows)), np.argmin(margins, axis=1)
        found.append((rows, margins[k, j], at[k, j], vals[k, j]))
        return margins[k, j, None], j[:, None]

    for start in range(0, n, _CHAINS):
        rows = np.arange(start, min(start + _CHAINS, n))
        vals = _run(_steps(plan, rows), np.tile(pts[coarse], (len(rows), 1)))
        best, first = sweep(rows, np.tile(coarse, (len(rows), 1)), vals)
        bound = 1.0 - vals[:, 1:] * (1.0 + 1e-9) / pts[coarse[:-1]]
        r, b = np.nonzero((bound < best) | ((bound == best) & (np.arange(len(coarse) - 1) < first)))
        fine.append((rows[r], b))
    owner, block = map(np.concatenate, zip(*fine))
    step = _POINTS // _BLOCK
    for start in range(0, len(owner), step):
        rows, b = owner[start : start + step], block[start : start + step, None]
        # A short last block repeats its last point, an empty one its start.
        at = np.minimum(coarse[b] + np.arange(1, _BLOCK), coarse[b + 1] - 1)
        sweep(rows, at, _run(_steps(plan, rows), pts[at]))
    # A chain's worst point is its smallest margin found, the first on ties.
    chain, margin, worst, value = map(np.concatenate, zip(*found))
    pick = np.lexsort((worst, margin, chain))
    pick = pick[np.searchsorted(chain[pick], np.arange(n))]
    return margin[pick], worst[pick], value[pick]


def _plan(gains: Sequence[KFunction], index: np.ndarray) -> tuple:
    """Evaluation plan ``(group, level, heads, lengths)`` of chains given
    as rows of positions in ``gains``, innermost first and -1 past a
    chain's end.

    ``group[i, d]`` is the group of gain ``index[i, d]`` (-1 past the end)
    and ``level[i, d]`` its level: c of a ``SaturatingRational``, a of a
    ``Linear``.  The saturations of one exponent q and one side of c = 1
    form one group, evaluated with an array of levels (see
    :func:`_saturating`), and so do all ``Linear`` gains; every other
    distinct gain is a group of its own.  ``heads[k]`` is a gain of group
    k, and ``lengths[i]`` the number of gains of chain i; the rows of a
    plan come longest first (see :func:`_chain_verdicts`).
    """
    keys: dict[object, int] = {}
    heads, group, level = [], [], []
    for f in gains:
        if type(f) is SaturatingRational:
            key, c = (f.q, f.c > 1.0), f.c
        else:
            key, c = (Linear, f.a) if type(f) is Linear else (id(f), 0.0)
        group.append(keys.setdefault(key, len(keys)))
        level.append(c)
        if group[-1] == len(heads):
            heads.append(f)
    # Position -1 reads the last entry: group -1.
    group, level = np.array([*group, -1])[index], np.array([*level, 0.0])[index]
    return group, level, heads, np.count_nonzero(index >= 0, axis=1)


def _steps(plan: tuple, rows: np.ndarray) -> list[tuple]:
    """Steps that evaluate ``plan`` in place on an array whose row i holds
    points of chain ``rows[i]`` (see :func:`_run`).

    The chains of ``rows`` must not get longer down the array, so that the
    rows that reach depth d are its first rows; ValueError otherwise.  A
    step ``(f, sel, c)`` applies gain f, with levels c, to the rows
    ``sel`` of one depth: one step per group of that depth, innermost
    depth first.  ``sel`` is a slice where one group fills the depth's
    rows and an index array otherwise.
    """
    group, level, heads, lengths = plan
    lengths = lengths[rows]
    if (lengths[1:] > lengths[:-1]).any():
        raise ValueError("the chains of rows must not get longer down the array")
    # Each row at each depth it reaches, by depth, then group, then row.
    depth, row = np.nonzero(np.arange(lengths.max(initial=0))[:, None] < lengths)
    at = rows[row], depth
    key = depth * len(heads) + group[at]
    order = np.argsort(key, kind="stable")
    key, row, level = key[order], row[order], level[at][order, None]
    starts = np.unique(key, return_index=True)[1].tolist()
    reached = np.bincount(depth).tolist()  # the rows that reach each depth
    steps = []
    for a, b in zip(starts, [*starts[1:], len(key)]):
        d, k = divmod(int(key[a]), len(heads))
        steps.append((heads[k], slice(0, b - a) if b - a == reached[d] else row[a:b], level[a:b]))
    return steps


def _run(steps: list[tuple], x: np.ndarray) -> np.ndarray:
    """x, whose rows hold points of the chains of ``steps`` (see
    :func:`_steps`), overwritten with the chains' values there: each step
    applies its gain to its rows, with their levels."""
    for f, sel, c in steps:
        if type(f) is Linear:
            x[sel] *= c  # a*s, as Linear evaluates it
        elif type(f) is SaturatingRational:
            x[sel] = _saturating(f.q, c, f.c > 1.0, x[sel])
        else:
            x[sel] = _evaluate(f, x[sel], {})
    return x


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

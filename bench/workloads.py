"""Seeded workload generators and the independent references they imply.

Every workload is a network of scalar delay subsystems

    x_i' = -a_i x_i + sum_j f_ij(v_j(t - d_ij)),    v_j = x_j,

with a constant initial history per node.  A ``Model`` holds that
network as plain numbers.  From it come both the JSON configuration the
program receives and two references computed here without the library:

* the closed-loop gain tables, as the least fixed point of
  ``x = max(s, max_j gamma_ij(x_j))`` at each sample ``s`` (the identity
  channel that ``closed_loop_input_gains`` eliminates);
* the trajectory, by a vectorised RK4 method-of-steps integrator with
  cubic Hermite midpoints, the scheme the program documents.

The seed drives ``random.Random`` only, so the same seed gives the same
configuration bytes on every machine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

# Sample points of the closed-loop gain tables in closed_loop_gains.json.
GAIN_TABLE_SAMPLES = np.geomspace(1e-3, 1e3, 13)


@dataclass(frozen=True)
class Term:
    """One coupling ``f(v_j(t - delay))`` or edge gain, as numbers.

    kind is ``lin`` (coef*w), ``pow`` (coef*w^q) or ``sat``
    (coef*w^q/(1+w^q)).
    """

    kind: str
    coef: float
    q: float = 1.0

    def __call__(self, w):
        if self.kind == "lin":
            return self.coef * w
        u = w**self.q
        if self.kind == "pow":
            return self.coef * u
        return self.coef * u / (1.0 + u)

    def expr(self, var: str) -> str:
        c = "" if self.coef == 1.0 else f"{_num(self.coef)}*"
        q = _num(self.q)
        if self.kind == "lin":
            return f"{c}{var}"
        if self.kind == "pow":
            return f"{c}{var}^{q}"
        return f"{c}{var}^{q}/(1+{var}^{q})"


def _num(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


@dataclass(frozen=True)
class Model:
    """A generated network: dynamics, certifying gains, history, horizon."""

    name: str
    a: tuple[float, ...]
    couplings: tuple[tuple[int, int, float, Term], ...]  # (i, j, delay, f)
    gains: tuple[tuple[int, int, Term], ...]  # (i, j, gamma_ij)
    sigma: tuple[float, ...]  # overshoot gain sigma_i(s) = sigma[i-1]*s
    history: tuple[float, ...]
    T: float
    h: float

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def delays(self) -> list[float]:
        return sorted({d for _, _, d, _ in self.couplings})

    def config(self) -> dict:
        rhs = []
        for i in range(1, self.k + 1):
            parts = [f"-{_num(self.a[i - 1])}*x_{i}"]
            parts += [
                f.expr(f"v_{j}[-{d!r}]")
                for ii, j, d, f in self.couplings
                if ii == i
            ]
            rhs.append(" + ".join(parts))
        return {
            "name": self.name,
            "k": self.k,
            "delays": self.delays,
            "subsystems": [{"dim": 1, "rhs": [r]} for r in rhs],
            "gains": {
                "edges": {f"{i},{j}": g.expr("s") for i, j, g in self.gains},
                "sigma": {
                    str(i): f"{_num(c)}*s" for i, c in enumerate(self.sigma, start=1)
                },
            },
            "simulation": {
                "T": self.T,
                "h": self.h,
                "history": [[x] for x in self.history],
            },
            "checks": {"eps": 0.001, "tail_fraction": 0.2},
        }

    def with_delay(self, delay: float) -> "Model":
        """All couplings delayed by ``delay``, as ``verify --sweep delta=`` does."""
        return replace(self, couplings=tuple((i, j, delay, f) for i, j, _, f in self.couplings))

    def cycle_count(self) -> int:
        """Simple cycles of the gain digraph, by brute force."""
        succ = {i: set() for i in range(1, self.k + 1)}
        for i, j, _ in self.gains:
            succ[i].add(j)
        count = 0

        def walk(v: int, start: int, seen: set[int]) -> None:
            nonlocal count
            for w in succ[v]:
                if w == start and len(seen) >= 2:
                    count += 1
                elif w > start and w not in seen:
                    walk(w, start, seen | {w})

        for start in succ:
            walk(start, start, {start})
        return count

    def sigma_tables(self) -> np.ndarray:
        """Closed-loop transient gains at GAIN_TABLE_SAMPLES, shape (k, 13).

        Least fixed point of x_i = max(s, max_j gamma_ij(x_j)).  Every
        cycle composes below the identity, so the iteration settles
        after at most k rounds; more rounds mean the reference is wrong.
        """
        s = GAIN_TABLE_SAMPLES
        x = np.tile(s, (self.k, 1))
        for _ in range(self.k + 1):
            new = x.copy()
            for i, j, g in self.gains:
                new[i - 1] = np.maximum(new[i - 1], g(x[j - 1]))
            if np.array_equal(new, x):
                return x
            x = new
        raise RuntimeError(f"{self.name}: gain fixed point did not settle")

    def final_state(self) -> np.ndarray:
        """State at T from RK4 with Hermite midpoints for delayed values."""
        h, k = self.h, self.k
        N = int(round(self.T / h))
        if not math.isclose(N * h, self.T):
            raise ValueError("the reference integrator needs T to be a step multiple")
        hist = np.asarray(self.history, dtype=float)
        a = np.asarray(self.a, dtype=float)
        X = np.empty((N + 1, k))
        F = np.empty((N + 1, k))
        X[0] = hist
        terms = [
            (i - 1, j - 1, int(round(d / h)), f) for i, j, d, f in self.couplings
        ]

        def delayed(n: int, frac: float, m: int, j: int) -> float:
            idx = n - m
            if frac == 1.0:
                idx += 1
            if frac != 0.5:
                return X[idx, j] if idx >= 0 else hist[j]
            if idx + 1 <= 0:
                return hist[j]
            return 0.5 * (X[idx, j] + X[idx + 1, j]) + (h / 8.0) * (
                F[idx, j] - F[idx + 1, j]
            )

        def rhs(n: int, frac: float, x: np.ndarray) -> np.ndarray:
            dx = -a * x
            for i, j, m, f in terms:
                dx[i] += f(delayed(n, frac, m, j))
            return dx

        for n in range(N):
            x = X[n]
            k1 = rhs(n, 0.0, x)
            F[n] = k1
            k2 = rhs(n, 0.5, x + (h / 2) * k1)
            k3 = rhs(n, 0.5, x + (h / 2) * k2)
            k4 = rhs(n, 1.0, x + h * k3)
            X[n + 1] = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return X[N]


# ---------------------------------------------------------------------------
# generators


def _history(rng: random.Random, k: int) -> tuple[float, ...]:
    return tuple(rng.uniform(0.5, 1.5) for _ in range(k))


def ring(rng: random.Random, T: float, h: float) -> Model:
    """The bundled three-node ring of ``smallgain example``, seeded history."""
    return Model(
        name="delayed-ring-3",
        a=(3.0, 1.5, 2.0),
        couplings=(
            (1, 2, 1.0, Term("sat", 1.0, 2.0)),
            (2, 3, 1.0, Term("pow", 1.0, 3.0)),
            (3, 1, 1.0, Term("pow", 1.0, 2.0)),
        ),
        gains=(
            (1, 2, Term("sat", 0.5, 2.0)),
            (2, 3, Term("pow", 1.0, 3.0)),
            (3, 1, Term("pow", 1.0, 2.0)),
        ),
        sigma=(7.0, 4.0, 3.0),
        history=_history(rng, 3),
        T=T,
        h=h,
    )


def biring(rng: random.Random, k: int, T: float, h: float) -> Model:
    """Bidirectional ring: x_i' = -a x_i + b v_{i-1}[-0.5] + c v_{i+1}[-1.0].

    The certifying gains are Linear(4b/a) and Linear(4c/a); they are drawn
    in [0.2, 0.45] and b, c follow from them.
    """
    a = tuple(rng.uniform(1.0, 2.0) for _ in range(k))
    couplings, gains = [], []
    for i in range(1, k + 1):
        for j, d in ((i - 1 if i > 1 else k, 0.5), (i + 1 if i < k else 1, 1.0)):
            g = rng.uniform(0.2, 0.45)
            couplings.append((i, j, d, Term("lin", g * a[i - 1] / 4.0)))
            gains.append((i, j, Term("lin", g)))
    return Model(f"biring-{k}", a, tuple(couplings), tuple(gains),
                 (2.0,) * k, _history(rng, k), T, h)


def dense(rng: random.Random, k: int, T: float, h: float) -> Model:
    """Complete digraph: x_i' = -a x_i + sum_j c v_j[-1.0]^q/(1+v_j[-1.0]^q).

    The edge gain is g*s^q/(1+s^q) with g = 2(k-1)c/a drawn in [0.5, 1.5]
    and q in {2, 4}, so every edge gain, hence every cycle, lies below
    the identity.
    """
    a = tuple(rng.uniform(2.0, 3.0) for _ in range(k))
    couplings, gains = [], []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i == j:
                continue
            g = rng.uniform(0.5, 1.5)
            # A fixed exponent pattern keeps the work per op the same for
            # every seed (numpy squares faster than it raises to the 4th).
            q = 2.0 if (i + j) % 2 else 4.0
            c = g * a[i - 1] / (2.0 * (k - 1))
            couplings.append((i, j, 1.0, Term("sat", c, q)))
            gains.append((i, j, Term("sat", g, q)))
    return Model(f"dense-{k}", a, tuple(couplings), tuple(gains), (2.0,) * k,
                 _history(rng, k), T, h)


@dataclass(frozen=True)
class Workload:
    """What one op runs: the config, the extra CLI arguments, and the
    models of every sub-run whose artifacts the oracle checks."""

    doc: dict
    args: tuple[str, ...]
    runs: dict[str, Model]  # artifact subdirectory ("" for none) -> model


SWEEP_DELTAS = (0.5, 1.0, 2.0)

# Full sizes, and the tiny sizes of the self-test.  BENCHMARK.json gates
# ring_sweep and dense6 only: biring16 makes 11 to 17 ops of 2 to 3.5 s in
# a run, and on a shared 2-CPU host the median of so few ops spread by
# more than the 0.25 bound across seeds.  It stays runnable by name.
SIZES = {
    "ring_sweep": {"full": {"T": 20.0, "h": 0.01}, "smoke": {"T": 20.0, "h": 0.05}},
    "biring16": {
        "full": {"k": 16, "T": 20.0, "h": 0.01},
        "smoke": {"k": 4, "T": 20.0, "h": 0.05},
    },
    "dense6": {
        # T=8, not 6: the GAS/AG tail test needs |x| < 1e-3 on [0.8T, T].
        # At T=6 the tail reaches 1.1e-3 on some seeds; at T=8 even the
        # slowest corner of the draw box (a=2, g=1.5, history 1.5 at every
        # node) stays at 4.0e-4, and this network is monotone, so no
        # draw inside the box decays slower.
        "full": {"k": 6, "T": 8.0, "h": 0.02},
        "smoke": {"k": 3, "T": 6.0, "h": 0.05},
    },
}


def build(name: str, seed: int, size: str = "full") -> Workload:
    rng = random.Random(f"{name}:{seed}")
    params = SIZES[name][size]
    if name == "ring_sweep":
        model = ring(rng, **params)
        spec = ",".join(repr(d) for d in SWEEP_DELTAS)
        runs = {f"delta_{d!r}": model.with_delay(d) for d in SWEEP_DELTAS}
        return Workload(model.config(), ("--sweep", f"delta={spec}"), runs)
    model = biring(rng, **params) if name == "biring16" else dense(rng, **params)
    return Workload(model.config(), (), {"": model})

"""Outside-in tracing of ``smallgain verify``.

The program carries no instrumentation of its own, so the tracer
replaces each layer's public functions with timing wrappers for the
length of one op and restores them afterwards.  A function is replaced
at every module attribute bound to it, because ``cli`` and
``reduction`` import ``check_cyclic_small_gain``, ``less_than_identity``,
``simulate`` and the ``check_*`` functions by name: patching only the
defining module would miss the real call sites.

Spans carry wall time and ``time.thread_time()``, and a parent taken
from a thread-local stack, so spans opened in the sweep's pool threads
nest correctly and GIL hand-off shows as wall time without CPU.  Spans
stay in memory; ``op_metrics`` reduces one op's spans to the per-layer
numbers.  Per-call counters for right-hand sides and history functions
wrap the callables of each parsed config (``dataclasses.replace`` on
``Subsystem.rhs`` and ``HistoryFunction.fn``) instead of opening a span
for each of the ~10^5 calls.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time
from contextlib import contextmanager

# (module, attribute, span name) for functions; (module, class, method,
# span name) for methods, which are patched on the class.
FUNCTIONS = (
    ("smallgain.dsl", "parse_system", "dsl.parse"),
    ("smallgain.graph", "check_cyclic_small_gain", "graph.check"),
    ("smallgain.graph", "enumerate_simple_cycles", "graph.enumerate"),
    ("smallgain.gains", "less_than_identity", "gains.lti"),
    ("smallgain.reduction", "closed_loop_input_gains", "reduction.closed_loop"),
    ("smallgain.sim", "simulate", "sim.simulate"),
    ("smallgain.checks", "check_gs", "checks.gs"),
    ("smallgain.checks", "check_ag", "checks.ag"),
    ("smallgain.checks", "check_gas", "checks.gas"),
)
METHODS = (
    ("smallgain.reduction", "ClosedLoopGains", "to_dict", "reduction.to_dict"),
    ("smallgain.sim", "Trajectory", "to_csv", "sim.to_csv"),
    ("smallgain.sim", "Trajectory", "interpolate_many", "checks.interp"),
)


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "c0", "c1", "items")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.items = 0  # cycles enumerated, steps taken, points interpolated
        self.t1 = self.c1 = 0.0
        self.c0 = time.thread_time()
        self.t0 = time.perf_counter()

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


class Calls:
    """Call count and time inside one wrapped callable family."""

    __slots__ = ("n", "s")

    def __init__(self):
        self.n = 0
        self.s = 0.0


def _counted(fn, calls: Calls, timed: bool):
    clock = time.perf_counter
    if not timed:
        def count(*args):
            calls.n += 1
            return fn(*args)
        return count

    def count_and_time(*args):
        t0 = clock()
        out = fn(*args)
        calls.s += clock() - t0
        calls.n += 1
        return out

    return count_and_time


class Tracer:
    """Spans and counters of the ops run while ``installed()`` is active.

    Call ``begin_op`` before each op; every span and counter recorded until
    the next ``begin_op`` belongs to that op.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.rhs: list[Calls] = []
        self.hist: list[Calls] = []
        self.closed: list = []  # ClosedLoopGains built during the op
        self.sims: list[tuple[int, int]] = []  # (steps, subsystems) per simulate

    def begin_op(self) -> None:
        self.spans, self.rhs, self.hist, self.closed, self.sims = [], [], [], [], []

    # -- wrappers ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        # Span "a.b" runs the hook _post_a_b, if any, on the call's result.
        post = getattr(self, "_post_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                span.c1 = time.thread_time()
                stack.pop()
                self.spans.append(span)
            return out if post is None else post(span, out, args)

        traced.__wrapped__ = fn
        return traced

    def _post_dsl_parse(self, span, cfg, args):
        rhs, hist = Calls(), Calls()
        with self._lock:
            self.rhs.append(rhs)
            self.hist.append(hist)
        system = dataclasses.replace(
            cfg.system,
            subsystems=tuple(
                dataclasses.replace(s, rhs=_counted(s.rhs, rhs, True))
                for s in cfg.system.subsystems
            ),
        )
        history = cfg.history
        if history is not None:
            history = tuple(
                dataclasses.replace(f, fn=_counted(f.fn, hist, False)) for f in history
            )
        return dataclasses.replace(cfg, system=system, history=history)

    def _post_graph_enumerate(self, span, cycles, args):
        span.items = len(cycles)
        return cycles

    def _post_reduction_closed_loop(self, span, closed, args):
        with self._lock:
            self.closed.append(closed)
        return closed

    def _post_sim_simulate(self, span, traj, args):
        span.items = len(traj.t_nodes) - 1
        with self._lock:
            self.sims.append((span.items, len(traj.dims)))
        return traj

    def _post_checks_interp(self, span, out, args):
        span.items = len(args[1])
        return out

    @contextmanager
    def installed(self):
        """Patch every binding of the traced functions, restore on exit."""
        undo = []
        mods = [m for n, m in list(sys.modules.items())
                if n == "smallgain" or n.startswith("smallgain.")]
        try:
            for mod_name, attr, name in FUNCTIONS:
                orig = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(name, orig)
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            for mod_name, cls_name, meth, name in METHODS:
                cls = getattr(sys.modules[mod_name], cls_name)
                orig = cls.__dict__[meth]
                undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def op_metrics(tracer: Tracer, wall: float, cpu: float) -> dict[str, float]:
    """Per-layer numbers of the op just traced (times in seconds).

    ``layers_s`` sums the outermost spans; with ``cli.self_s`` it makes up
    the op wall unless spans of several threads overlap.
    """
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    child_wall: dict[int, float] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
        if sp.parent is not None:
            child_wall[id(sp.parent)] = child_wall.get(id(sp.parent), 0.0) + sp.wall

    def total(name: str) -> float:
        return sum(sp.wall for sp in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def items(name: str) -> int:
        return sum(sp.items for sp in by_name.get(name, ()))

    closed_loop = by_name.get("reduction.closed_loop", ())
    node_steps = sum(steps * k for steps, k in tracer.sims)
    simulate_s = total("sim.simulate")
    roots = [(sp.t0, sp.t1) for sp in spans if sp.parent is None]
    return {
        "dsl.parse_s": total("dsl.parse"),
        "gains.lti_calls": count("gains.lti"),
        "gains.lti_s": total("gains.lti"),
        "graph.check_calls": count("graph.check"),
        "graph.cycles": items("graph.enumerate"),
        "graph.check_s": total("graph.check"),
        "graph.enumerate_s": total("graph.enumerate"),
        "reduction.closed_loop_s": total("reduction.closed_loop"),
        "reduction.closed_loop_self_s": sum(
            sp.wall - child_wall.get(id(sp), 0.0) for sp in closed_loop
        ),
        "reduction.to_dict_s": total("reduction.to_dict"),
        "sim.simulate_s": simulate_s,
        "sim.simulate_cpu_s": sum(sp.c1 - sp.c0 for sp in by_name.get("sim.simulate", ())),
        "sim.steps": items("sim.simulate"),
        "sim.rhs_calls": sum(c.n for c in tracer.rhs),
        "sim.hist_calls": sum(c.n for c in tracer.hist),
        "sim.rhs_s": sum(c.s for c in tracer.rhs),
        "sim.us_per_node_step": simulate_s / node_steps * 1e6 if node_steps else 0.0,
        "sim.to_csv_s": total("sim.to_csv"),
        "checks.gs_s": total("checks.gs"),
        "checks.ag_s": total("checks.ag"),
        "checks.gas_s": total("checks.gas"),
        "checks.interp_calls": count("checks.interp"),
        "checks.interp_points": items("checks.interp"),
        "checks.interp_s": total("checks.interp"),
        "cli.self_s": wall - _union_length(roots),
        "cli.wait_s": wall - cpu,
        "layers_s": sum(b - a for a, b in roots),
    }


def _children(node) -> list:
    """Gain operands of a node, also when held in a tuple (an n-ary max)."""
    from smallgain.gains import KFunction

    out = []
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        for part in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(part, KFunction):
                out.append(part)
    return out


def tree_sizes(roots) -> tuple[int, int]:
    """(summed tree size of ``roots``, distinct nodes reachable from them).

    Tree sizes are memoised per DAG node by object identity, so shared
    subtrees cost one visit however often the tree repeats them; walking
    the trees themselves is exponential in the network size.
    """
    size: dict[int, int] = {}
    for root in roots:
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in size:
                stack.pop()
                continue
            kids = _children(node)
            pending = [c for c in kids if id(c) not in size]
            if pending:
                stack.extend(pending)
                continue
            size[id(node)] = 1 + sum(size[id(c)] for c in kids)
            stack.pop()
    return sum(size[id(r)] for r in roots), len(size)

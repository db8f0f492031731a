"""Text grammars and JSON configuration parsing.

One expression grammar and one parser serve two back ends.  The gain back
end turns strings like ``"0.5*s^2/(1+s^2)"`` into
:class:`~smallgain.gains.KFunction` trees, rejecting anything that is not
class K by construction.  The dynamics back end turns right-hand-side
strings like ``"-3*x_1 + v_2[-1.0]^2"`` into compiled callables with their
delayed references collected automatically.  On top of both sits
:func:`parse_system`, which reads a JSON document describing an
interconnection and returns ready-to-use objects.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .gains import (
    Compose,
    GridSpec,
    Identity,
    KFunction,
    Linear,
    Max,
    Power,
    SaturatingRational,
    DEFAULT_GRID,
)
from .graph import GainDigraph, build_gain_digraph
from .sim import (
    FUNCTIONS,
    DelaySystemSpec,
    HistoryFunction,
    InputSignal,
    NetworkExpressions,
    Subsystem,
    build_interconnection,
    reference_rows,
)

__all__ = [
    "GainParseError",
    "RhsParseError",
    "ConfigError",
    "parse_gain",
    "compile_rhs",
    "compile_time_expression",
    "SimParams",
    "CheckParams",
    "ParsedConfig",
    "check_document",
    "parse_system",
    "load_document",
    "load_config",
]


# ---------------------------------------------------------------------------
# Shared tokenizer


_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^().,\[\]])
  | (?P<ws>[ \t\r\n]+)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(source: str, error_cls: type) -> list[_Token]:
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(source):
        start, end = m.span()
        if start != pos:  # the matches skipped an unexpected character
            break
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, source[start:end], start))
        pos = end
    if pos < len(source):
        raise error_cls(f"unexpected character {source[pos]!r}", source, pos)
    tokens.append(_Token("end", "", len(source)))
    return tokens


def _line_col(source: str, pos: int) -> tuple[int, int]:
    prefix = source[:pos]
    line = prefix.count("\n") + 1
    col = pos - (prefix.rfind("\n") + 1) + 1
    return line, col


class _PositionedError(ValueError):
    """Parse or validation failure at a known offset in the source text."""

    def __init__(self, message: str, source: str, pos: int):
        self.line, self.col = _line_col(source, pos)
        self.pos = pos
        self.source = source
        self.bare_message = message
        super().__init__(f"line {self.line}, column {self.col}: {message}")


class GainParseError(_PositionedError):
    """Raised when a gain expression is malformed or not class K."""


class RhsParseError(_PositionedError):
    """Raised when a dynamics expression is malformed or ill-referenced."""


# ---------------------------------------------------------------------------
# One grammar, two back ends
#
# expr  := sum ( "." sum )*                   composition (gains only)
# sum   := term ( ("+" | "-") term )*
# term  := unary ( ("*" | "/") unary )*
# unary := "-" unary | atom ( "^" unary )?
# atom  := NUMBER | "(" expr ")" | NAME "(" expr ( "," expr )* ")"
#        | NAME ( "[" "-" NUMBER "]" )?
#
# The parser accepts the union of both languages and builds one AST.  The
# gain back end (_check_class_k, then _compile_gain) turns it into a
# KFunction and rejects what is not class K; the dynamics back end
# (_RhsCompiler) emits Python source and rejects "." and anything that
# does not name t, x_i, v_j, u_i or a one-argument function.


@dataclass(frozen=True)
class _Num:
    value: float
    pos: int


@dataclass(frozen=True)
class _Name:
    text: str
    delay: float | None  # the literal of a "[-delay]" suffix
    pos: int


@dataclass(frozen=True)
class _Bin:
    op: str
    left: Any
    right: Any
    pos: int


@dataclass(frozen=True)
class _Neg:
    operand: Any
    pos: int


@dataclass(frozen=True)
class _Call:
    name: str
    args: tuple
    pos: int


class _Parser:
    """Recursive descent over the grammar above, raising ``error_cls``.

    Operator texts never occur as number or name tokens, so a token's text
    alone tells whether it is a given operator.
    """

    def __init__(self, source: str, error_cls: type):
        self.source = source
        self.error_cls = error_cls
        self.tokens = _tokenize(source, error_cls)
        self.idx = 0

    def error(self, message: str, pos: int | None = None):
        if pos is None:
            pos = self.tokens[self.idx].pos
        raise self.error_cls(message, self.source, pos)

    def peek(self) -> str:
        return self.tokens[self.idx].text

    def advance(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def number(self, tok: _Token) -> float:
        value = float(tok.text)
        if math.isinf(value):
            self.error(f"numeric literal {tok.text!r} is beyond the float range", tok.pos)
        return value

    def expect_op(self, text: str) -> _Token:
        tok = self.tokens[self.idx]
        if tok.text != text:
            shown = tok.text if tok.kind != "end" else "end of input"
            self.error(f"expected {text!r}, found {shown!r}")
        self.idx += 1
        return tok

    def parse(self):
        node = self.parse_expr()
        tok = self.tokens[self.idx]
        if tok.kind != "end":
            self.error(f"unexpected trailing input starting at {tok.text!r}")
        return node

    def parse_expr(self):
        node = self.parse_sum()
        while self.peek() == ".":
            pos = self.advance().pos
            node = _Bin(".", node, self.parse_sum(), pos)
        return node

    def parse_sum(self):
        node = self.parse_term()
        while self.peek() in ("+", "-"):
            tok = self.advance()
            node = _Bin(tok.text, node, self.parse_term(), tok.pos)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek() in ("*", "/"):
            tok = self.advance()
            node = _Bin(tok.text, node, self.parse_unary(), tok.pos)
        return node

    def parse_unary(self):
        tok = self.tokens[self.idx]
        if tok.text == "-":
            self.idx += 1
            return _Neg(self.parse_unary(), tok.pos)
        node = self.parse_atom()
        if self.peek() == "^":
            pos = self.advance().pos
            node = _Bin("^", node, self.parse_unary(), pos)
        return node

    def parse_atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return _Num(self.number(tok), tok.pos)
        if tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if tok.kind == "ident":
            if self.peek() == "(":
                self.idx += 1
                args = [self.parse_expr()]
                while self.peek() == ",":
                    self.idx += 1
                    args.append(self.parse_expr())
                self.expect_op(")")
                return _Call(tok.text, tuple(args), tok.pos)
            delay = None
            if self.peek() == "[":
                self.idx += 1
                self.expect_op("-")
                num = self.tokens[self.idx]
                if num.kind != "num":
                    self.error("expected a delay literal after '[-'")
                self.idx += 1
                delay = self.number(num)
                self.expect_op("]")
            return _Name(tok.text, delay, tok.pos)
        shown = tok.text if tok.kind != "end" else "end of input"
        self.error(f"expected an expression, found {shown!r}", tok.pos)


# ---------------------------------------------------------------------------
# Gain back end


_NEGATIVE_GAIN = "negative quantities cannot appear in a class-K gain"


def _check_class_k(node, source: str) -> None:
    """Raise at the leftmost construct no class-K gain can contain.

    Runs before :func:`_compile_gain`, so an unknown name or a minus sign
    is reported ahead of any shape error elsewhere in the expression.
    """
    if isinstance(node, _Num):
        return
    if isinstance(node, _Bin):
        _check_class_k(node.left, source)
        if node.op == "-":
            raise GainParseError(_NEGATIVE_GAIN, source, node.pos)
        _check_class_k(node.right, source)
        return
    if isinstance(node, _Neg):
        raise GainParseError(_NEGATIVE_GAIN, source, node.pos)
    if isinstance(node, _Name) and node.text == "s":
        if node.delay is not None:
            raise GainParseError(
                "gain expressions cannot carry a delay suffix", source, node.pos
            )
        return
    if isinstance(node, _Call) and node.name in ("max", "compose") and len(node.args) == 2:
        for arg in node.args:
            _check_class_k(arg, source)
        return
    name = node.text if isinstance(node, _Name) else node.name
    if name == "s":
        message = "'s' is a variable, not a function"
    elif name in ("max", "compose"):
        message = f"{name} takes two gains, as in {name}(f, g)"
    else:
        message = (
            f"unknown symbol {name!r}; gain expressions use 's', 'max' and 'compose'"
        )
    raise GainParseError(message, source, node.pos)


def _flatten_product(node) -> list:
    if isinstance(node, _Bin) and node.op == "*":
        return _flatten_product(node.left) + _flatten_product(node.right)
    return [node]


def _match_power_term(node) -> tuple[float, float, int] | None:
    """Match ``c * s^q`` (coefficient optional, exponent optional).

    Returns (c, q, pos_of_first_constant) or None if the node has a
    different shape.  Used by the saturating-ratio matcher only.
    """
    factors = _flatten_product(node)
    coeff = 1.0
    coeff_pos = node.pos
    power = None
    for f in factors:
        if isinstance(f, _Num):
            coeff *= f.value
            coeff_pos = f.pos
        elif isinstance(f, _Name):
            if power is not None:
                return None
            power = 1.0
        elif isinstance(f, _Bin) and f.op == "^":
            if power is not None:
                return None
            if not (isinstance(f.left, _Name) and isinstance(f.right, _Num)):
                return None
            power = f.right.value
        else:
            return None
    if power is None:
        return None
    return coeff, power, coeff_pos


def _match_one_plus_power(node) -> tuple[float, float] | None:
    """Match ``b * (1 + s^q)`` with the scale b optional."""
    factors = _flatten_product(node)
    scale = 1.0
    plus = None
    for f in factors:
        if isinstance(f, _Num):
            scale *= f.value
        elif isinstance(f, _Bin) and f.op == "+":
            if plus is not None:
                return None
            plus = f
        else:
            return None
    if plus is None:
        return None
    sides = (plus.left, plus.right)
    const = [s for s in sides if isinstance(s, _Num)]
    other = [s for s in sides if not isinstance(s, _Num)]
    if len(const) != 1 or const[0].value != 1.0:
        return None
    matched = _match_power_term(other[0])
    if matched is None or matched[0] != 1.0:
        return None
    return scale, matched[1]


def _compile_gain(node, source: str) -> KFunction:
    if isinstance(node, _Name):
        return Identity()
    if isinstance(node, _Num):
        raise GainParseError(
            "a bare constant is not class K (it does not vanish at zero)",
            source,
            node.pos,
        )
    if isinstance(node, _Call):
        left = _compile_gain(node.args[0], source)
        right = _compile_gain(node.args[1], source)
        return Max(left, right) if node.name == "max" else Compose(left, right)
    if isinstance(node, _Bin):
        if node.op == ".":
            return Compose(
                _compile_gain(node.left, source), _compile_gain(node.right, source)
            )
        if node.op == "^":
            if not isinstance(node.right, _Num):
                raise GainParseError(
                    "exponents must be positive numeric literals", source, node.pos
                )
            p = node.right.value
            if p <= 0:
                raise GainParseError(
                    "exponents must be strictly positive", source, node.right.pos
                )
            if isinstance(node.left, _Name):
                return Power(p)
            base = _compile_gain(node.left, source)
            return Compose(Power(p), base)
        if node.op == "*":
            factors = _flatten_product(node)
            coeff = 1.0
            coeff_pos = node.pos
            rest = []
            for f in factors:
                if isinstance(f, _Num):
                    coeff *= f.value
                    coeff_pos = f.pos
                else:
                    rest.append(f)
            if not rest:
                raise GainParseError(
                    "a constant product is not class K", source, node.pos
                )
            if len(rest) > 1:
                raise GainParseError(
                    "products of two non-constant gains are not supported; "
                    "use compose(...) or a single power of s",
                    source,
                    node.pos,
                )
            if coeff <= 0:
                raise GainParseError(
                    "multiplicative constants must be strictly positive",
                    source,
                    coeff_pos,
                )
            inner = _compile_gain(rest[0], source)
            if isinstance(inner, Identity):
                return Linear(coeff)
            return Compose(Linear(coeff), inner)
        if node.op == "/":
            numer = _match_power_term(node.left)
            denom = _match_one_plus_power(node.right)
            if numer is not None and denom is not None:
                c, q, cpos = numer
                b, q_denom = denom
                if q != q_denom:
                    raise GainParseError(
                        "saturating ratios need matching exponents: "
                        f"numerator has s^{q!r}, denominator has s^{q_denom!r}",
                        source,
                        node.pos,
                    )
                if c <= 0 or b <= 0:
                    raise GainParseError(
                        "saturating ratio constants must be strictly positive",
                        source,
                        cpos,
                    )
                return SaturatingRational(c / b, q)
            raise GainParseError(
                "division is only supported in the saturating shape "
                "c*s^q/(1+s^q) or s^q/(b*(1+s^q))",
                source,
                node.pos,
            )
        if node.op == "+":
            raise GainParseError(
                "addition is only allowed inside a saturating denominator "
                "(1+s^q); sums of gains are not class K in general",
                source,
                node.pos,
            )
    raise GainParseError("unsupported gain expression", source, 0)


def parse_gain(text: str) -> KFunction:
    """Parse a gain expression into a :class:`KFunction`.

    Of the shared grammar, gains accept ``s``, positive numeric literals
    as multiplicative coefficients or exponents, ``^`` for powers, the
    saturating shape ``c*s^q/(1+s^q)`` (equivalently ``s^q/(b*(1+s^q))``),
    ``max(f,g)``, ``compose(f,g)``, and the infix composition ``f . g``.
    Everything accepted is class K by construction; other input, such as
    a minus sign, a delay suffix or any other name, raises
    :class:`GainParseError` with line and column information.
    """
    if not isinstance(text, str):
        raise TypeError(f"gain expression must be a string, got {type(text).__name__}")
    if not text.strip():
        raise GainParseError("empty gain expression", text, 0)
    node = _Parser(text, GainParseError).parse()
    _check_class_k(node, text)
    return _compile_gain(node, text)


# ---------------------------------------------------------------------------
# Dynamics back end
#
# A NAME is t, x_<i>, v_<j> or u_<i>, optionally suffixed with a component
# index (x_1_2 is component 2 of subsystem 1); a call applies one of
# sim.FUNCTIONS to one argument.


_NAME_RE = re.compile(r"^([xvu])_(\d+)(?:_(\d+))?$")


class _RhsCompiler:
    """Validates references for one subsystem and emits Python source."""

    def __init__(
        self,
        index: int,
        dims: Sequence[int],
        input_dims: Sequence[int],
        delays: Sequence[float],
        source: str,
        time_only: bool = False,
        rows: Mapping[tuple[int, float], int] | None = None,
        powers: dict[str, tuple[str, bool]] | None = None,
    ):
        self.index = index
        self.dims = list(dims)
        self.input_dims = list(input_dims)
        self.delays = list(delays)
        self.source = source
        self.time_only = time_only
        self.k = len(self.dims)
        self.references: set[tuple[int, float]] = set()
        # With rows (the Z layout of sim.reference_rows), emit the network
        # form f(t, x, Z, u) over the flat vectors instead of the
        # subsystem form rhs(t, x, z, u), as a template whose fields
        # {t}, {x[i]} and {Z} name the stage's time, state components and
        # delayed state (see sim.NetworkExpressions).
        self.rows = rows
        # With powers (shared by every expression of a network), each
        # distinct ``^`` is emitted as a local name, bound once per stage
        # (see sim.NetworkExpressions): powers maps its template to that
        # name and to whether it reads x or u, directly or through another
        # power.
        self.powers = powers
        # Whether the expression emitted so far reads x or u.
        self.reads_state = False
        self.x_base = sum(self.dims[: index - 1]) if rows is not None else 0
        self.u_base = sum(self.input_dims[: index - 1]) if rows is not None else 0

    def error(self, message: str, pos: int):
        raise RhsParseError(message, self.source, pos)

    def _misused(self, node):
        """Raise for a name the dynamics cannot read, or read the wrong way."""
        name = node.text if isinstance(node, _Name) else node.name
        if isinstance(node, _Call) and (name == "t" or _NAME_RE.match(name)):
            message = f"{name!r} is a variable, not a function"
        elif isinstance(node, _Name) and name in FUNCTIONS:
            message = f"{name} is a function; call it as {name}(...)"
        else:
            message = (
                f"unknown identifier {name!r}; expected t, x_i, v_j, u_i or a "
                "function name"
            )
        self.error(message, node.pos)

    def _component(self, comp: int | None, dim: int, what: str, pos: int) -> int:
        if comp is None:
            if dim != 1:
                self.error(
                    f"{what} has dimension {dim}; write an explicit component "
                    f"such as {what}_1",
                    pos,
                )
            comp = 1
        if not 1 <= comp <= dim:
            self.error(
                f"component {comp} is out of range for {what} "
                f"(dimension {dim})",
                pos,
            )
        return comp

    def emit(self, node) -> str:
        if isinstance(node, _Num):
            return repr(node.value)
        if isinstance(node, _Name):
            return self.emit_name(node)
        if isinstance(node, _Neg):
            return f"(-{self.emit(node.operand)})"
        if isinstance(node, _Bin):
            outer, self.reads_state = self.reads_state, False
            left = self.emit(node.left)
            if node.op == ".":
                self.error("'.' composes gains; dynamics have no composition", node.pos)
            right = self.emit(node.right)
            reads_state = self.reads_state
            self.reads_state |= outer
            if node.op == "^":
                call = f"_pow({left}, {right})"
                if self.powers is None:
                    return call
                return self.powers.setdefault(call, (f"_p{len(self.powers)}", reads_state))[0]
            return f"({left} {node.op} {right})"
        if node.name not in FUNCTIONS:
            self._misused(node)
        if len(node.args) != 1:
            self.error(
                f"{node.name} takes one argument, got {len(node.args)}", node.pos
            )
        return f"{node.name}({self.emit(node.args[0])})"

    def emit_name(self, node: _Name) -> str:
        if node.text == "t":
            if node.delay is not None:
                self.error("t cannot carry a delay suffix", node.pos)
            return "t" if self.rows is None else "{t}"
        m = _NAME_RE.match(node.text)
        if m is None:
            self._misused(node)
        if self.time_only:
            self.error(
                "only t and numeric constants may appear in this expression",
                node.pos,
            )
        kind, index, comp = m.group(1), int(m.group(2)), m.group(3)
        comp = int(comp) if comp is not None else None
        name = f"{kind}_{index}"
        if kind == "x":
            if index != self.index:
                self.error(
                    f"{name} refers to another subsystem's state; "
                    f"use v_{index}[-delay] for cross references",
                    node.pos,
                )
            comp = self._component(comp, self.dims[index - 1], name, node.pos)
            if node.delay is None:
                self.reads_state = True
                i = self.x_base + comp - 1
                return f"x[{i}]" if self.rows is None else f"{{x[{i}]}}"
            return self._delayed(node, index, comp)
        if kind == "v":
            if not 1 <= index <= self.k:
                self.error(f"{name} is out of range (k = {self.k})", node.pos)
            if node.delay is None:
                self.error(
                    f"{name} needs an explicit delay, e.g. {name}[-1.0]", node.pos
                )
            comp = self._component(comp, self.dims[index - 1], name, node.pos)
            return self._delayed(node, index, comp)
        if index != self.index:
            self.error(
                f"{name} belongs to subsystem {index}; "
                f"subsystem {self.index} can only read u_{self.index}",
                node.pos,
            )
        if node.delay is not None:
            self.error("inputs cannot carry a delay suffix", node.pos)
        input_dim = self.input_dims[self.index - 1]
        if input_dim == 0:
            self.error(
                f"subsystem {self.index} declares no input channels "
                "(set input_dim to use u)",
                node.pos,
            )
        comp = self._component(comp, input_dim, name, node.pos)
        self.reads_state = True
        return f"u[{self.u_base + comp - 1}]"

    def _delayed(self, node: _Name, index: int, comp: int) -> str:
        if node.delay not in self.delays:
            declared = ", ".join(repr(d) for d in self.delays) or "none"
            self.error(
                f"delay {node.delay!r} is not declared (declared delays: "
                f"{declared})",
                node.pos,
            )
        key = (index, node.delay)
        self.references.add(key)
        if self.rows is None:
            return f"z[{key!r}][{comp - 1}]"
        return f"{{Z}}[{self.rows[key] + comp - 1}]"


def _numpy_pow(a, b):
    """``a ** b``: numpy's power on numpy scalars, and on Python floats
    (constants, t, a math function's value) numpy's NaN where ``**``
    would give a complex number."""
    p = a ** b
    return math.nan if type(p) is complex else p


def _vector_function(name: str, params: str, pieces: Sequence[str], filename: str) -> Callable:
    """exec one function returning the float array of the given expressions.

    Its arguments are arrays, so the expressions evaluate on numpy
    scalars: overflow and division by zero give inf or NaN with numpy's
    warning, and ``^`` is :func:`_numpy_pow`.
    """
    src = f"def {name}({params}):\n    return _np.array([{', '.join(pieces)}], dtype=float)\n"
    env: dict[str, Any] = {"_np": np, "_pow": _numpy_pow, **FUNCTIONS}
    exec(compile(src, filename, "exec"), env)
    return env[name]


def _compiled_on_first_call(*source) -> Callable:
    """The function of :func:`_vector_function`, compiled when first called.

    A parsed system integrates through the float function and the fused
    step that its spec compiles from the network expressions, and calls
    the subsystem callables only for a stage where that raises or is not
    finite, so most are never called; the source is already emitted, so
    every error in it has been raised.
    """
    compiled = None

    def call(*args):
        nonlocal compiled
        if compiled is None:
            compiled = _vector_function(*source)
        return compiled(*args)

    return call


def _emit(exprs: Sequence[str], trees: Sequence, *compiler_args, **compiler_kw) -> tuple[list[str], set]:
    """Source of every expression tree, and the references they read."""
    pieces, references = [], set()
    for expr, tree in zip(exprs, trees):
        compiler = _RhsCompiler(*compiler_args, expr, **compiler_kw)
        pieces.append(compiler.emit(tree))
        references |= compiler.references
    return pieces, references


def _compile_subsystem(exprs, index, dims, input_dims, delays) -> tuple[Callable, tuple, list]:
    if len(exprs) != dims[index - 1]:
        raise ValueError(
            f"subsystem {index} has dimension {dims[index - 1]} but "
            f"{len(exprs)} right-hand-side expressions"
        )
    trees = [_Parser(expr, RhsParseError).parse() for expr in exprs]
    pieces, references = _emit(exprs, trees, index, dims, input_dims, delays)
    rhs = _compiled_on_first_call("_rhs", "t, x, z, u", pieces, f"<subsystem {index} rhs>")
    return rhs, tuple(sorted(references)), trees


def compile_rhs(
    exprs: Sequence[str],
    index: int,
    dims: Sequence[int],
    input_dims: Sequence[int],
    delays: Sequence[float],
) -> tuple[Callable, tuple[tuple[int, float], ...]]:
    """Compile right-hand-side expressions for subsystem ``index``.

    One expression per state component.  Returns the callable with
    signature ``rhs(t, x, z, u)``, compiled when first called, and the
    sorted tuple of delayed references ``(source_index, delay)`` the
    expressions mention.
    """
    return _compile_subsystem(exprs, index, dims, input_dims, delays)[:2]


def compile_time_expression(exprs: Sequence[str]) -> Callable[[float], np.ndarray]:
    """Compile expressions in ``t`` alone into a vector-valued callable."""
    trees = [_Parser(expr, RhsParseError).parse() for expr in exprs]
    pieces, _ = _emit(exprs, trees, 1, [1], [0], [], time_only=True)
    return _vector_function("_fn", "t", pieces, "<time expression>")


# ---------------------------------------------------------------------------
# JSON configuration


class ConfigError(ValueError):
    """Raised when a configuration document fails validation."""


@functools.cache
def _schema() -> dict:
    from importlib import resources

    text = resources.files("smallgain").joinpath("config_schema.json").read_text()
    return json.loads(text)


# config_schema.json is checked here, not by a JSON Schema library:
# _schema_errors interprets the keywords the schema uses, with the
# types, semantics and messages of jsonschema's Draft 2020-12 validator.


def _is_number(value) -> bool:
    return isinstance(value, numbers.Number) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "number": _is_number,
    # 3.0 is an integer to JSON Schema; parse_system reads such fields as int.
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or (isinstance(v, float) and v.is_integer())),
}
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
}


# The keywords that _schema_errors interprets; "$schema" and "title" only
# annotate.
_KEYWORDS = frozenset(
    {"$schema", "title", "type", "enum", "oneOf", "required", "properties", "patternProperties",
     "additionalProperties", "items", "minItems", *_BOUNDS}
)


def _schema_errors(value, schema: dict, path: tuple = ()) -> Iterator[tuple[tuple, str]]:
    """Every ``(path, message)`` by which value, at path, breaks schema, in
    the order jsonschema yields them: the schema's keywords in its key
    order.  A keyword outside _KEYWORDS, or an ``additionalProperties``
    other than false, raises ValueError."""
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    for keyword, arg in schema.items():
        if keyword not in _KEYWORDS or (keyword == "additionalProperties" and arg is not False):
            raise ValueError(f"config_schema.json: unsupported {keyword!r}: {arg!r}")
        if keyword == "type" and not _TYPES[arg](value):
            yield path, f"{value!r} is not of type {arg!r}"
        # The schema's enums list strings, for which `in` is JSON equality.
        elif keyword == "enum" and value not in arg:
            yield path, f"{value!r} is not one of {arg!r}"
        elif keyword == "oneOf":
            valid = [sub for sub in arg if next(_schema_errors(value, sub), None) is None]
            if not valid:
                yield path, f"{value!r} is not valid under any of the given schemas"
            elif len(valid) > 1:
                reprs = ", ".join(map(repr, valid[1:] + valid[:1]))
                yield path, f"{value!r} is valid under each of {reprs}"
        elif keyword == "required" and is_object:
            yield from ((path, f"{name!r} is a required property") for name in arg if name not in value)
        elif keyword == "properties" and is_object:
            for name, sub in arg.items():
                if name in value:
                    yield from _schema_errors(value[name], sub, path + (name,))
        elif keyword == "patternProperties" and is_object:
            for pattern, sub in arg.items():
                for key, item in value.items():
                    if re.search(pattern, key):
                        yield from _schema_errors(item, sub, path + (key,))
        elif keyword == "additionalProperties" and is_object:
            patterns = "|".join(schema.get("patternProperties", {}))
            extras = sorted(
                key for key in value
                if key not in schema.get("properties", {}) and not (patterns and re.search(patterns, key))
            )
            joined = ", ".join(map(repr, extras))
            if extras and "patternProperties" in schema:
                verb = "does" if len(extras) == 1 else "do"
                regexes = ", ".join(map(repr, sorted(schema["patternProperties"])))
                yield path, f"{joined} {verb} not match any of the regexes: {regexes}"
            elif extras:
                verb = "was" if len(extras) == 1 else "were"
                yield path, f"Additional properties are not allowed ({joined} {verb} unexpected)"
        elif keyword == "items" and is_array:
            for i, item in enumerate(value):
                yield from _schema_errors(item, arg, path + (i,))
        elif keyword == "minItems" and is_array and len(value) < arg:
            yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif keyword in _BOUNDS and _is_number(value) and _BOUNDS[keyword][0](value, arg):
            yield path, f"{value!r} {_BOUNDS[keyword][1]} {arg!r}"


def _where(path: Sequence) -> str:
    """A document path as ``$.gains.edges['1,2']``: indices and keys that
    are not identifiers in brackets."""
    return "$" + "".join(
        f"[{p}]" if isinstance(p, int) else f".{p}" if p.isidentifier() else f"[{p!r}]" for p in path
    )


@dataclass(frozen=True)
class SimParams:
    """Horizon T (finite, >= 0) and step h (finite, > 0) of a run."""

    T: float
    h: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T) and self.T >= 0.0):
            raise ConfigError(f"horizon T must be finite and >= 0, got {self.T!r}")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ConfigError(f"step h must be finite and > 0, got {self.h!r}")


@dataclass(frozen=True)
class CheckParams:
    grid: GridSpec = DEFAULT_GRID
    eps: float = 1e-3
    tail_fraction: float = 0.2
    ag_atol: float = 1e-3
    run: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ParsedConfig:
    """Everything a configuration document describes, ready to use."""

    name: str | None
    k: int
    system: DelaySystemSpec
    digraph: GainDigraph
    history: tuple[HistoryFunction, ...] | None
    inputs: tuple[InputSignal, ...] | None
    sim: SimParams | None
    checks: CheckParams


def _fail(path: tuple, message):
    raise ConfigError(f"{_where(path)}: {message}")


def _parse_gain_at(path: tuple, text: str) -> KFunction:
    try:
        return parse_gain(text)
    except GainParseError as exc:
        _fail(path, exc)


def _parse_shared_entry(path: tuple, entry, dim: int, cls, what: str):
    """The ``constant`` and ``expression`` entries, which histories and
    inputs share; ``cls`` is :class:`HistoryFunction` or :class:`InputSignal`."""
    if entry["type"] == "constant":
        values = entry.get("values")
        if values is None:
            _fail(path, f"constant {what} needs 'values'")
        if len(values) != dim:
            _fail(path, f"expected {dim} components, got {len(values)}")
        return cls.constant(values)
    exprs = entry.get("exprs")
    if exprs is None:
        _fail(path, f"expression {what} needs 'exprs'")
    if len(exprs) != dim:
        _fail(path, f"expected {dim} expressions, got {len(exprs)}")
    try:
        fn = compile_time_expression(exprs)
    except RhsParseError as exc:
        _fail(path, str(exc))
    return cls.from_callable(fn, dim)


def _parse_history_entry(
    path: tuple, entry, dim: int
) -> HistoryFunction:
    if isinstance(entry, list):
        if len(entry) != dim:
            _fail(path, f"expected {dim} components, got {len(entry)}")
        return HistoryFunction.constant(entry)
    kind = entry["type"]
    if kind in ("constant", "expression"):
        return _parse_shared_entry(path, entry, dim, HistoryFunction, "history")
    if kind == "polynomial":
        coeffs = entry.get("coeffs")
        if coeffs is None:
            _fail(path, "polynomial history needs 'coeffs'")
        if len(coeffs) != dim:
            _fail(path, f"expected {dim} coefficient rows, got {len(coeffs)}")
        return HistoryFunction.polynomial(coeffs)
    if kind == "table":
        times = entry.get("times")
        rows = entry.get("rows")
        if times is None or rows is None:
            _fail(path, "table history needs 'times' and 'rows'")
        if any(len(row) != dim for row in rows):
            _fail(path, f"every table row must have {dim} components")
        try:
            return HistoryFunction.table(times, rows)
        except ValueError as exc:
            _fail(path, str(exc))
    _fail(path, f"unsupported history type {kind!r}")


def _parse_input_entry(path: tuple, entry, input_dim: int) -> InputSignal:
    if entry is None:
        return InputSignal.zero(input_dim)
    if input_dim == 0:
        _fail(path, "subsystem declares no input channels (input_dim is 0)")
    kind = entry["type"]
    if kind == "zero":
        return InputSignal.zero(input_dim)
    if kind in ("constant", "expression"):
        return _parse_shared_entry(path, entry, input_dim, InputSignal, "input")
    if kind == "piecewise":
        times = entry.get("times")
        values = entry.get("values")
        if times is None or values is None:
            _fail(path, "piecewise input needs 'times' and 'values'")
        if any(len(row) != input_dim for row in values):
            _fail(path, f"every value row must have {input_dim} components")
        try:
            return InputSignal.piecewise_constant(times, values)
        except ValueError as exc:
            _fail(path, str(exc))
    _fail(path, f"unsupported input type {kind!r}")


def check_document(doc) -> None:
    """Raise ConfigError unless doc is a JSON object that config_schema.json
    accepts, naming the error with the smallest path, as jsonschema's
    errors sorted by path give it."""
    if not isinstance(doc, Mapping):
        raise ConfigError("configuration root must be a JSON object")
    first = min(_schema_errors(doc, _schema()), key=lambda error: error[0], default=None)
    if first is not None:
        _fail(*first)


def parse_system(doc: Mapping[str, Any] | str) -> ParsedConfig:
    """Parse a configuration document into a system plus gain structure.

    ``doc`` is either an already-loaded JSON object or raw JSON text.
    Structural problems (wrong types, unknown keys) and semantic problems
    (index out of range, undeclared delay, non-class-K gain string) both
    raise :class:`ConfigError` with a message locating the offence.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    check_document(doc)

    k = int(doc["k"])
    subs_doc = doc["subsystems"]
    if len(subs_doc) != k:
        _fail(("subsystems",), f"k is {k} but {len(subs_doc)} subsystems given")

    delays = [float(d) for d in doc["delays"]]
    if len(set(delays)) != len(delays):
        _fail(("delays",), "delay values must be distinct")

    dims = []
    input_dims = []
    for i, sub in enumerate(subs_doc):
        dim = int(sub.get("dim", len(sub["rhs"])))
        if dim != len(sub["rhs"]):
            _fail(
                ("subsystems", i),
                f"dim is {dim} but {len(sub['rhs'])} rhs expressions given",
            )
        dims.append(dim)
        input_dims.append(int(sub.get("input_dim", 0)))

    subsystems = []
    trees = []
    for i, sub in enumerate(subs_doc):
        index = i + 1
        try:
            rhs, references, sub_trees = _compile_subsystem(
                sub["rhs"], index, dims, input_dims, delays
            )
        except (RhsParseError, ValueError) as exc:
            _fail(("subsystems", i, "rhs"), exc)
        trees.append(sub_trees)
        subsystems.append(
            Subsystem(
                dim=dims[i],
                rhs=rhs,
                references=references,
                input_dim=input_dims[i],
                name=sub.get("name", f"subsystem {index}"),
            )
        )

    # The expressions of the network over the flat state, from the trees
    # already validated above; the spec compiles them on first use.
    rows = reference_rows(subsystems)
    pieces, powers = [], {}
    for i, sub in enumerate(subs_doc):
        pieces += _emit(sub["rhs"], trees[i], i + 1, dims, input_dims, delays, rows=rows, powers=powers)[0]
    bindings = tuple((name, call, reads_state) for call, (name, reads_state) in powers.items())
    expressions = NetworkExpressions(bindings, tuple(pieces))

    # Declared-but-unreferenced delays are legal; the builder checks the
    # converse (every referenced delay must be declared).
    try:
        system = build_interconnection(subsystems, delays, expressions=expressions)
    except ValueError as exc:
        _fail(("subsystems",), exc)

    gains_doc = doc["gains"]
    edges = {}
    for key in sorted(gains_doc.get("edges", {})):
        parts = key.split(",")
        i, j = int(parts[0]), int(parts[1])
        path = ("gains", "edges", key)
        if not (1 <= i <= k and 1 <= j <= k):
            _fail(path, f"indices must lie in 1..{k}")
        if i == j:
            _fail(path, "self gains are not allowed")
        edges[(i, j)] = _parse_gain_at(path, gains_doc["edges"][key])
    node_gains = {}
    for section in ("input", "sigma"):
        node_gains[section] = {}
        for key in sorted(gains_doc.get(section, {})):
            path = ("gains", section, key)
            i = int(key)
            if not 1 <= i <= k:
                _fail(path, f"index must lie in 1..{k}")
            node_gains[section][i] = _parse_gain_at(path, gains_doc[section][key])
    digraph = build_gain_digraph(
        k,
        edges,
        input_gains=node_gains["input"] or None,
        gs_gains=node_gains["sigma"] or None,
    )

    history = None
    inputs = None
    sim = None
    sim_doc = doc.get("simulation")
    if sim_doc is not None:
        try:
            sim = SimParams(T=float(sim_doc["T"]), h=float(sim_doc["h"]))
        except ConfigError as exc:
            _fail(("simulation",), exc)
        hist_doc = sim_doc["history"]
        if len(hist_doc) != k:
            _fail(("simulation", "history"), f"expected {k} entries, got {len(hist_doc)}")
        history = tuple(
            _parse_history_entry(("simulation", "history", i), entry, dims[i])
            for i, entry in enumerate(hist_doc)
        )
        inputs_doc = sim_doc.get("inputs")
        if inputs_doc is not None:
            if len(inputs_doc) != k:
                _fail(
                    ("simulation", "inputs"),
                    f"expected {k} entries, got {len(inputs_doc)}",
                )
            inputs = tuple(
                _parse_input_entry(
                    ("simulation", "inputs", i), entry, input_dims[i]
                )
                for i, entry in enumerate(inputs_doc)
            )

    checks_doc = doc.get("checks", {})
    grid = DEFAULT_GRID
    grid_doc = checks_doc.get("grid")
    if grid_doc is not None:
        fields = {
            name: int(value) if name in ("n_points", "refinement_depth") else value
            for name, value in grid_doc.items()
        }
        try:
            grid = dataclasses.replace(DEFAULT_GRID, **fields)
        except ValueError as exc:
            _fail(("checks", "grid"), exc)
    run = checks_doc.get("run")
    checks = CheckParams(
        grid=grid,
        eps=float(checks_doc.get("eps", 1e-3)),
        tail_fraction=float(checks_doc.get("tail_fraction", 0.2)),
        ag_atol=float(checks_doc.get("ag_atol", 1e-3)),
        run=tuple(run) if run is not None else None,
    )

    return ParsedConfig(
        name=doc.get("name"),
        k=k,
        system=system,
        digraph=digraph,
        history=history,
        inputs=inputs,
        sim=sim,
        checks=checks,
    )


def load_document(path) -> dict:
    """Read a JSON configuration file; every failure is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}")


def load_config(path) -> ParsedConfig:
    """Read a JSON configuration file and parse it."""
    return parse_system(load_document(path))

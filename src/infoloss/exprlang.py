"""Small expression language for regions, maps, Jacobians and densities.

Expressions are plain text like ``"abs(x1 - x2)"`` or
``"1.5*exp(-1.5*x1)"``.  They parse to an immutable AST.
:func:`compile_expr` turns an AST once into closures over a binding
dict that evaluate it with numpy's IEEE rules; the model compiles each
of its expressions when it is built and evaluates only through those
closures.  ``eval_array`` evaluates on array bindings and
``evaluate`` on a scalar binding, by the same closures: a domain
violation (division by zero, sqrt of a negative, log of a non-positive,
a negative base to a fractional power) yields NaN or inf for the caller
to mask, on arrays and scalars alike.

Grammar, loosest to tightest binding:

    or  <  and  <  not  <  comparisons (< <= > >=)  <  + -  <  * /
        <  unary minus  <  ^ (right associative)  <  atoms

so ``-2^2`` is ``-(2^2)`` and ``2^3^2`` is ``2^(3^2)``.  Every compiled
node has a static type.  Comparisons, ``and``, ``or`` and ``not`` are
predicates and run on numpy bools; a number read as a truth value is
true where it is not 0.0, NaN included.  A predicate becomes 1.0 / 0.0
only where arithmetic reads it, and ``eval_array`` returns it so, while
region membership reads the bools directly.  Subtrees without variables
are folded at compile time by the same numpy ufuncs on the same
operands, and ``x^2`` runs as ``x*x`` where the two give the same bytes
(float64 operands).  Printing an AST and re-parsing it reproduces the
tree structurally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "ExprSyntaxError",
    "UnknownFunctionError",
    "UnboundVariableError",
    "parse",
    "evaluate",
    "eval_array",
    "Compiled",
    "compile_expr",
    "free_vars",
    "to_string",
    "substitute",
]

CONSTANTS = {
    "pi": math.pi,
    "e": math.e,
    "gamma": 0.5772156649015329,  # Euler-Mascheroni
}

UNARY_FUNCTIONS = ("abs", "sqrt", "exp", "ln", "log2", "floor", "sign", "arctan", "sin", "cos")
BINARY_FUNCTIONS = ("min", "max", "atan2")
COMPARISONS = ("<", "<=", ">", ">=")


class ExprSyntaxError(ValueError):
    """Parse failure, carrying the byte offset and the expected-token set."""

    def __init__(self, offset: int, message: str, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"at offset {offset}: {message}{hint}")


class UnknownFunctionError(ExprSyntaxError):
    def __init__(self, offset: int, name: str):
        self.name = name
        super().__init__(offset, f"unknown function '{name}'",
                         UNARY_FUNCTIONS + BINARY_FUNCTIONS)


class UnboundVariableError(KeyError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(name)


# --- AST -------------------------------------------------------------------

class Expr:
    """Base class; nodes are frozen dataclasses and safe to share."""

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Const(Expr):
    name: str  # pi | e | gamma


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # neg | not | one of UNARY_FUNCTIONS
    a: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # + - * / ^ and or, comparisons, or one of BINARY_FUNCTIONS
    a: Expr
    b: Expr


# --- lexer -----------------------------------------------------------------

_PUNCT = ("<=", ">=", "<", ">", "+", "-", "*", "/", "^", "(", ")", ",")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, offset) triples; kinds: num, name, punct, end."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise ExprSyntaxError(i, f"bad numeric literal '{lit}'") from None
            out.append(("num", lit, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                out.append(("punct", p, i))
                i += len(p)
                break
        else:
            raise ExprSyntaxError(i, f"unexpected character {c!r}")
    out.append(("end", "", n))
    return out


# --- parser (recursive descent following the precedence ladder) -------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_punct(self, value: str):
        kind, val, off = self.peek()
        if kind != "punct" or val != value:
            raise ExprSyntaxError(off, f"got {val or 'end of input'!r}", (value,))
        return self.next()

    def at_punct(self, *values: str) -> bool:
        kind, val, _ = self.peek()
        return kind == "punct" and val in values

    def at_name(self, *values: str) -> bool:
        kind, val, _ = self.peek()
        return kind == "name" and val in values

    def parse(self) -> Expr:
        e = self.or_expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(off, f"trailing input starting at {val!r}",
                                  ("end of input",))
        return e

    def or_expr(self) -> Expr:
        e = self.and_expr()
        while self.at_name("or"):
            self.next()
            e = Binary("or", e, self.and_expr())
        return e

    def and_expr(self) -> Expr:
        e = self.not_expr()
        while self.at_name("and"):
            self.next()
            e = Binary("and", e, self.not_expr())
        return e

    def not_expr(self) -> Expr:
        if self.at_name("not"):
            self.next()
            return Unary("not", self.not_expr())
        return self.cmp_expr()

    def cmp_expr(self) -> Expr:
        e = self.add_expr()
        if self.at_punct(*COMPARISONS):
            _, op, _ = self.next()
            e = Binary(op, e, self.add_expr())
        return e

    def add_expr(self) -> Expr:
        e = self.mul_expr()
        while self.at_punct("+", "-"):
            _, op, _ = self.next()
            e = Binary(op, e, self.mul_expr())
        return e

    def mul_expr(self) -> Expr:
        e = self.unary()
        while self.at_punct("*", "/"):
            _, op, _ = self.next()
            e = Binary(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.at_punct("-"):
            self.next()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        if self.at_punct("^"):
            self.next()
            # right associative; exponent may itself carry a unary minus
            e = Binary("^", e, self.unary())
        return e

    def atom(self) -> Expr:
        kind, val, off = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "punct" and val == "(":
            e = self.or_expr()
            self.expect_punct(")")
            return e
        if kind == "name":
            if self.at_punct("("):
                return self.call(val, off)
            if val in CONSTANTS:
                return Const(val)
            if val in ("and", "or", "not"):
                raise ExprSyntaxError(off, f"keyword {val!r} is not a value",
                                      ("number", "variable", "("))
            return Var(val)
        raise ExprSyntaxError(off, f"got {val or 'end of input'!r}",
                              ("number", "variable", "function", "(", "-"))

    def call(self, name: str, off: int) -> Expr:
        if name not in UNARY_FUNCTIONS and name not in BINARY_FUNCTIONS:
            raise UnknownFunctionError(off, name)
        self.expect_punct("(")
        args = [self.or_expr()]
        while self.at_punct(","):
            self.next()
            args.append(self.or_expr())
        self.expect_punct(")")
        want = 1 if name in UNARY_FUNCTIONS else 2
        if len(args) != want:
            raise ExprSyntaxError(off, f"{name} takes {want} argument(s), got {len(args)}")
        if want == 1:
            return Unary(name, args[0])
        return Binary(name, args[0], args[1])


def parse(text: str) -> Expr:
    """Parse ``text`` to an AST.

    Raises :class:`ExprSyntaxError` (with byte offset and expected tokens)
    or :class:`UnknownFunctionError`; nesting deeper than the interpreter's
    recursion limit is an :class:`ExprSyntaxError` too.
    """
    p = _Parser(text)
    try:
        return p.parse()
    except RecursionError:
        off = p.toks[min(p.pos, len(p.toks) - 1)][2]
        raise ExprSyntaxError(off, "expression nests too deeply") from None


# --- printing (fully parenthesized, so round-trips are structural) ----------

def to_string(e: Expr) -> str:
    """Print so that re-parsing reproduces the tree.

    Holds for every parser-reachable tree; note the parser never creates
    negative Num literals (a leading minus parses to a neg node).
    """
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return f"(-{to_string(e.a)})"
        if e.op == "not":
            return f"(not {to_string(e.a)})"
        return f"{e.op}({to_string(e.a)})"
    if isinstance(e, Binary):
        if e.op in BINARY_FUNCTIONS:
            return f"{e.op}({to_string(e.a)}, {to_string(e.b)})"
        return f"({to_string(e.a)} {e.op} {to_string(e.b)})"
    raise TypeError(f"not an Expr: {e!r}")


def free_vars(e: Expr) -> set[str]:
    """Exact set of variable names appearing in ``e``."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return free_vars(e.a)
    if isinstance(e, Binary):
        return free_vars(e.a) | free_vars(e.b)
    return set()


def substitute(e: Expr, repl: dict[str, Expr]) -> Expr:
    """Replace variables by expressions, capture-free (flat namespace)."""
    if isinstance(e, Var):
        return repl.get(e.name, e)
    if isinstance(e, Unary):
        return Unary(e.op, substitute(e.a, repl))
    if isinstance(e, Binary):
        return Binary(e.op, substitute(e.a, repl), substitute(e.b, repl))
    return e


# --- evaluation ------------------------------------------------------------

_UNARY_NP = {
    "neg": np.negative,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "ln": np.log,
    "log2": np.log2,
    "floor": np.floor,
    "sign": np.sign,
    "arctan": np.arctan,
    "sin": np.sin,
    "cos": np.cos,
}

_BINARY_NP = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
    "min": np.minimum,
    "max": np.maximum,
    "atan2": np.arctan2,
}

_COMPARE_NP = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


_F64 = np.dtype(np.float64)
_VARYING = object()  # marks a code whose value depends on the binding


class _Code(NamedTuple):
    """One compiled node: ``run(binding)`` and its static result type.

    A boolean code runs to numpy bools (``np.bool_`` or a bool array) and
    ``to_float`` turns them into the 1.0 / 0.0 floats arithmetic reads;
    ``const`` is the folded value of a node without variables."""

    run: Callable
    boolean: bool = False
    const: object = _VARYING
    to_float: Optional[Callable] = None


def _astype_float(v):
    return v.astype(float)


def _where_float(v):
    # the float form of ``not``, an array even for a scalar operand
    return np.where(v, 1.0, 0.0)


def _constant(value, boolean: bool = False, to_float=None) -> _Code:
    return _Code(lambda b: value, boolean, value, to_float)


def _num(c: _Code) -> _Code:
    """``c`` as the number arithmetic reads: predicates become 1.0 / 0.0."""
    if not c.boolean:
        return c
    if c.const is not _VARYING:
        return _constant(c.to_float(c.const))
    run, to_float = c.run, c.to_float
    return _Code(lambda b: to_float(run(b)))


def _truth(c: _Code) -> _Code:
    """``c`` as bools: a number is true where it is not 0.0 (NaN is)."""
    if c.boolean:
        return c
    if c.const is not _VARYING:
        return _constant(np.not_equal(c.const, 0.0), True, _astype_float)
    run = c.run
    return _Code(lambda b: np.not_equal(run(b), 0.0), True, _VARYING,
                 _astype_float)


def _into(f, r, s):
    """``f(r, s)`` for a commutative logical ufunc, written over ``r`` or
    ``s`` when one is an array of the result's shape.  Both are bools
    this evaluation made, so overwriting them is safe."""
    if type(r) is np.ndarray and (np.ndim(s) == 0 or s.shape == r.shape):
        return f(r, s, out=r)
    if type(s) is np.ndarray and np.ndim(r) == 0:
        return f(s, r, out=s)
    return f(r, s)


def _square(v):
    """``np.power(v, 2.0)``: ``v * v`` for float64 operands, where the two
    give the same bytes; numpy's own types decide every other dtype."""
    if type(v) is float or getattr(v, "dtype", None) is _F64:
        return np.multiply(v, v)
    return np.power(v, 2.0)


def _var(name: str) -> _Code:
    def run(b):
        try:
            return b[name]
        except KeyError:
            raise UnboundVariableError(name) from None
    return _Code(run)


def _not(t: _Code) -> _Code:
    run = t.run

    def negate(b):
        v = run(b)
        return np.logical_not(v, out=v) if type(v) is np.ndarray else np.logical_not(v)
    return _Code(negate, True, _VARYING, _where_float)


def _logic(op: str, ta: _Code, tb: _Code) -> _Code:
    f = np.logical_and if op == "and" else np.logical_or
    ra, rb = ta.run, tb.run
    return _Code(lambda b: _into(f, ra(b), rb(b)), True, _VARYING,
                 _astype_float)


def _unary(op: str, a: _Code) -> _Code:
    f, run = _UNARY_NP[op], a.run
    return _Code(lambda b: f(run(b)))


def _binary(op: str, a: _Code, c: _Code) -> _Code:
    """Arithmetic, a two-argument function or a comparison of numbers."""
    compare = op in _COMPARE_NP
    f = _COMPARE_NP[op] if compare else _BINARY_NP[op]
    typed = (True, _VARYING, _astype_float) if compare else ()
    ra, rc = a.run, c.run
    ka, kc = a.const, c.const
    if op == "^" and kc is not _VARYING and kc == 2.0:
        return _Code(lambda b: _square(ra(b)))
    if kc is not _VARYING:
        return _Code(lambda b: f(ra(b), kc), *typed)
    if ka is not _VARYING:
        return _Code(lambda b: f(ka, rc(b)), *typed)
    return _Code(lambda b: f(ra(b), rc(b)), *typed)


def _compile(e: Expr) -> _Code:
    """The code of ``e``; a node whose operands are all constant is run
    once here, with the ufunc the node runs, and becomes a constant."""
    if isinstance(e, Num):
        return _constant(e.value)
    if isinstance(e, Const):
        return _constant(CONSTANTS[e.name])
    if isinstance(e, Var):
        return _var(e.name)
    if isinstance(e, Unary):
        operands = (_compile(e.a),)
        if e.op == "not":
            code = _not(_truth(operands[0]))
        else:
            code = _unary(e.op, _num(operands[0]))
    elif isinstance(e, Binary):
        operands = (_compile(e.a), _compile(e.b))
        if e.op in ("and", "or"):
            code = _logic(e.op, *map(_truth, operands))
        else:
            code = _binary(e.op, *map(_num, operands))
    else:
        raise TypeError(f"not an Expr: {e!r}")
    if any(c.const is _VARYING for c in operands):
        return code
    return _constant(code.run({}), code.boolean, code.to_float)


class Compiled(NamedTuple):
    """An expression compiled once into closures over a binding dict.

    ``value(binding)`` evaluates as :func:`eval_array` does, predicates
    as 1.0 / 0.0.  ``test(binding)`` is the truth of the value as numpy
    bools, ``value != 0.0`` without the float round trip.  ``constant``
    is the folded value of an expression without variables, else None.
    The closures run under the caller's ``np.errstate``."""

    value: Callable
    test: Callable
    constant: object


def compile_expr(e: Expr) -> Compiled:
    """Compile ``e`` into typed closures (see :class:`Compiled`)."""
    with np.errstate(all="ignore"):
        code = _compile(e)
        num = _num(code)
    value = num.run
    if isinstance(num.const, np.ndarray):
        const = num.const
        value = lambda b: const.copy()  # noqa: E731 - callers own results
    return Compiled(value, _truth(code).run,
                    None if num.const is _VARYING else num.const)


def evaluate(e: Expr, binding: dict[str, float]) -> float:
    """:func:`eval_array` on a binding of floats, as one float: a domain
    violation gives NaN or inf.  Missing variables raise
    :class:`UnboundVariableError`."""
    value = compile_expr(e).value
    with np.errstate(all="ignore"):
        return float(value({k: float(v) for k, v in binding.items()}))


def eval_array(e: Expr, binding: dict[str, np.ndarray | float]):
    """Vectorized evaluation over numpy arrays (broadcasting applies).

    Domain violations (division by zero, log of a non-positive, sqrt of a
    negative, fractional power of a negative) produce NaN/inf instead of
    raising; callers filter by validity masks.  Missing variables still
    raise :class:`UnboundVariableError`.  Compiles ``e`` on every call:
    code that evaluates one expression often keeps its
    :func:`compile_expr` closures instead.
    """
    value = compile_expr(e).value
    with np.errstate(all="ignore"):
        return value(binding)


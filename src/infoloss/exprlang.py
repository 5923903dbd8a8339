"""Small expression language for regions, maps, Jacobians and densities.

Expressions are plain text like ``"abs(x1 - x2)"`` or
``"1.5*exp(-1.5*x1)"``.  They parse to an immutable AST, which one
tree walk evaluates with numpy's IEEE rules.  ``eval_array`` runs it on
array bindings, where domain violations yield NaN/inf so callers can
mask them out; ``evaluate`` runs it on a scalar binding in strict mode,
where the declared singularities (division by zero, sqrt of a negative,
log of a non-positive, a negative base to a fractional power, zero to a
negative power) raise :class:`EvalError` instead.

Grammar, loosest to tightest binding:

    or  <  and  <  not  <  comparisons (< <= > >=)  <  + -  <  * /
        <  unary minus  <  ^ (right associative)  <  atoms

so ``-2^2`` is ``-(2^2)`` and ``2^3^2`` is ``2^(3^2)``.  Booleans are
encoded as 1.0 / 0.0 so region predicates run through the same
evaluator.  Printing an AST and re-parsing it reproduces the tree
structurally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "EvalError",
    "UnboundVariableError",
    "parse",
    "evaluate",
    "eval_array",
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


class EvalError(ArithmeticError):
    """Evaluation hit a declared singularity (strict scalar mode only)."""

    def __init__(self, kind: str, location: str):
        self.kind = kind          # div_zero | log_nonpos | sqrt_neg | pow_domain
        self.location = location  # offending subexpression, printed
        super().__init__(f"{kind} in {location}")


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
        if e.op in ("and", "or"):
            return f"({to_string(e.a)} {e.op} {to_string(e.b)})"
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


def evaluate(e: Expr, binding: dict[str, float]) -> float:
    """Evaluate on a scalar binding in strict mode: the rules of
    :func:`eval_array`, except that the declared singularities (see the
    module docstring) raise :class:`EvalError`.  Missing variables raise
    :class:`UnboundVariableError`."""
    with np.errstate(all="ignore"):
        return float(_eval(e, {k: float(v) for k, v in binding.items()}, True))


def eval_array(e: Expr, binding: dict[str, np.ndarray | float]):
    """Vectorized evaluation over numpy arrays (broadcasting applies).

    Domain violations (division by zero, log of a non-positive, sqrt of a
    negative, fractional power of a negative) produce NaN/inf instead of
    raising; callers filter by validity masks.  Missing variables still
    raise :class:`UnboundVariableError`.
    """
    with np.errstate(all="ignore"):
        return _eval(e, binding, False)


def _singular(op: str, a, b=None) -> str | None:
    """The declared singularity that ``op`` hits at scalar operands, if any."""
    if op == "sqrt" and a < 0.0:
        return "sqrt_neg"
    if op in ("ln", "log2") and a <= 0.0:
        return "log_nonpos"
    if (op == "/" and b == 0.0) or (op == "^" and a == 0.0 and b < 0.0):
        return "div_zero"
    if op == "^" and a < 0.0 and b != np.floor(b):
        return "pow_domain"
    return None


def _eval(e: Expr, binding, strict: bool):
    """The one tree walk behind :func:`evaluate` and :func:`eval_array`;
    ``strict`` checks each node's operands for a declared singularity
    (post-order, left operand first)."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Var):
        try:
            return binding[e.name]
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if isinstance(e, Unary):
        a = _eval(e.a, binding, strict)
        if strict and (kind := _singular(e.op, a)):
            raise EvalError(kind, to_string(e))
        if e.op == "not":
            return np.where(np.asarray(a) != 0.0, 0.0, 1.0)
        return _UNARY_NP[e.op](a)
    if isinstance(e, Binary):
        a = _eval(e.a, binding, strict)
        b = _eval(e.b, binding, strict)
        op = e.op
        if strict and (kind := _singular(op, a, b)):
            raise EvalError(kind, to_string(e))
        if op in _BINARY_NP:
            return _BINARY_NP[op](a, b)
        if op in _COMPARE_NP:
            return _COMPARE_NP[op](a, b).astype(float)
        if op == "and":
            return ((np.asarray(a) != 0.0) & (np.asarray(b) != 0.0)).astype(float)
        if op == "or":
            return ((np.asarray(a) != 0.0) | (np.asarray(b) != 0.0)).astype(float)
        raise ValueError(f"bad binary op {op!r}")
    raise TypeError(f"not an Expr: {e!r}")

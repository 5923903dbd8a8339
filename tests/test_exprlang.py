"""Expression language: grammar, evaluation, round-trips."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoloss.exprlang import (
    Binary,
    Const,
    EvalError,
    ExprSyntaxError,
    Num,
    Unary,
    UnboundVariableError,
    UnknownFunctionError,
    Var,
    eval_array,
    evaluate,
    free_vars,
    parse,
    substitute,
    to_string,
)


# --- an independent tree-walking evaluator used as the oracle ----------------

def oracle_eval(e, env):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return {"pi": math.pi, "e": math.e, "gamma": 0.5772156649015329}[e.name]
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariableError(e.name)
        return env[e.name]
    if isinstance(e, Unary):
        a = oracle_eval(e.a, env)
        table = {
            "neg": lambda v: -v,
            "not": lambda v: 1.0 - float(v != 0.0),
            "abs": abs,
            "exp": math.exp,
            "floor": lambda v: float(math.floor(v)),
            "sign": lambda v: float((v > 0) - (v < 0)),
            "arctan": math.atan,
            "sin": math.sin,
            "cos": math.cos,
        }
        if e.op == "sqrt":
            if a < 0:
                raise EvalError("sqrt_neg", "oracle")
            return math.sqrt(a)
        if e.op in ("ln", "log2"):
            if a <= 0:
                raise EvalError("log_nonpos", "oracle")
            return math.log(a) if e.op == "ln" else math.log2(a)
        return table[e.op](a)
    a, b = oracle_eval(e.a, env), oracle_eval(e.b, env)
    if e.op == "/":
        if b == 0:
            raise EvalError("div_zero", "oracle")
        return a / b
    if e.op == "^":
        if a < 0 and b != math.floor(b):
            raise EvalError("pow_domain", "oracle")
        if a == 0 and b < 0:
            raise EvalError("div_zero", "oracle")
        return a ** b
    table = {
        "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
        "min": lambda: min(a, b), "max": lambda: max(a, b),
        "atan2": lambda: math.atan2(a, b),
        "<": lambda: float(a < b), "<=": lambda: float(a <= b),
        ">": lambda: float(a > b), ">=": lambda: float(a >= b),
        "and": lambda: float(a != 0 and b != 0),
        "or": lambda: float(a != 0 or b != 0),
    }
    return table[e.op]()


def random_expr(rng, depth):
    # the parser never produces negative Num leaves (minus parses to neg)
    if depth == 0 or rng.random() < 0.25:
        leaf = rng.randrange(4)
        if leaf == 0:
            return Num(abs(round(rng.uniform(-5, 5), 3)))
        if leaf == 1:
            return Var(rng.choice(["x1", "x2", "y1", "k"]))
        if leaf == 2:
            return Const(rng.choice(["pi", "e", "gamma"]))
        return Num(float(rng.randrange(0, 9)))
    if rng.random() < 0.4:
        op = rng.choice(["neg", "not", "abs", "sqrt", "exp", "ln", "log2",
                         "floor", "sign", "arctan", "sin", "cos"])
        return Unary(op, random_expr(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "/", "^", "min", "max", "atan2",
                     "<", "<=", ">", ">=", "and", "or"])
    return Binary(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


# --- parsing -----------------------------------------------------------------

def test_parse_single_variable():
    assert parse("x1") == Var("x1")


def test_parse_abs_difference():
    assert parse("abs(x1 - x2)") == Unary("abs", Binary("-", Var("x1"), Var("x2")))


def test_parse_sawtooth():
    e = parse("x1 - floor(1.5*x1)/1.5")
    assert evaluate(e, {"x1": 1.2}) == pytest.approx(1.2 - math.floor(1.8) / 1.5)
    assert free_vars(e) == {"x1"}


def test_parse_call_arity_checked():
    with pytest.raises(ExprSyntaxError):
        parse("min(x1)")
    with pytest.raises(ExprSyntaxError):
        parse("abs(x1, x2)")


def test_unknown_function():
    with pytest.raises(UnknownFunctionError) as err:
        parse("sinh(x1)")
    assert err.value.name == "sinh"


def test_syntax_error_offset_and_expected():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + * 3")
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError) as err:
        parse("(x1 + 3")
    assert ")" in err.value.expected


def test_precedence_pinned():
    assert evaluate(parse("2+3*4"), {}) == 14.0
    assert evaluate(parse("2^3^2"), {}) == 512.0
    assert evaluate(parse("-2^2"), {}) == -4.0
    assert evaluate(parse("2^-2"), {}) == 0.25
    # comparisons bind tighter than not, which binds tighter than and/or
    assert evaluate(parse("not 1 < 3"), {}) == 0.0
    assert evaluate(parse("1 < 3 and not 2 < 1 or 0 > 5"), {}) == 1.0


# --- evaluation ---------------------------------------------------------------

def test_eval_square():
    assert evaluate(parse("x1^2"), {"x1": 3}) == 9.0


def test_eval_sign():
    assert evaluate(parse("sign(x1-x2)"), {"x1": 1, "x2": 2}) == -1.0


def test_eval_exponential_pdf_at_zero():
    assert evaluate(parse("1.5*exp(-1.5*x1)"), {"x1": 0}) == 1.5


def test_eval_booleans_are_floats():
    assert evaluate(parse("x1 > 0 and x1 < 1"), {"x1": 0.5}) == 1.0
    assert evaluate(parse("x1 > 0 and x1 < 1"), {"x1": 2.0}) == 0.0


@pytest.mark.parametrize("text, kind", [
    ("1/0", "div_zero"),
    ("ln(0)", "log_nonpos"),
    ("log2(-1)", "log_nonpos"),
    ("sqrt(-1)", "sqrt_neg"),
    ("(-2)^0.5", "pow_domain"),
])
def test_eval_errors(text, kind):
    with pytest.raises(EvalError) as err:
        evaluate(parse(text), {})
    assert err.value.kind == kind


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        evaluate(parse("x1 + x7"), {"x1": 1.0})


# --- free_vars / substitute ----------------------------------------------------

def test_free_vars_constant():
    assert free_vars(parse("3.0")) == set()


def test_free_vars_two_vars():
    assert free_vars(parse("abs(x1-x2)")) == {"x1", "x2"}


def test_free_vars_family_inverse_and_composition():
    inv = parse("y1 + (k-1)/1.5")
    assert free_vars(inv) == {"y1", "k"}
    # composing the sawtooth forward with this inverse returns the input
    fwd = parse("x1 - (k-1)/1.5")
    for k in (1, 2, 5):
        for x in (0.05, 0.4, 0.66):
            x_abs = x + (k - 1) / 1.5
            y = evaluate(fwd, {"x1": x_abs, "k": k})
            assert evaluate(inv, {"y1": y, "k": k}) == pytest.approx(x_abs, abs=1e-12)


def test_substitute():
    e = parse("y1 + y2")
    out = substitute(e, {"y1": parse("(z - 1)/3")})
    assert evaluate(out, {"z": 7.0, "y2": 1.0}) == pytest.approx(3.0)


# --- round-trip and oracle corpus ----------------------------------------------

def test_print_parse_roundtrip_corpus():
    rng = random.Random(20240817)
    for _ in range(1000):
        e = random_expr(rng, rng.randrange(0, 7))
        assert parse(to_string(e)) == e


def test_eval_matches_independent_oracle():
    rng = random.Random(987123)
    env = {"x1": 0.0, "x2": 0.0, "y1": 0.0, "k": 0.0}
    checked = 0
    for _ in range(1000):
        e = random_expr(rng, rng.randrange(0, 6))
        for name in env:
            env[name] = rng.uniform(-3, 3)
        try:
            want = oracle_eval(e, env)
        except EvalError as err:
            with pytest.raises(EvalError) as got:
                evaluate(e, env)
            assert got.value.kind == err.kind
            continue
        except (OverflowError, ValueError):
            continue
        got = evaluate(e, env)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        checked += 1
    assert checked > 500


def test_eval_array_matches_scalar():
    rng = random.Random(5150)
    for _ in range(200):
        e = random_expr(rng, rng.randrange(0, 5))
        cols = {name: np.array([rng.uniform(-3, 3) for _ in range(8)])
                for name in ("x1", "x2", "y1", "k")}
        arr = np.asarray(eval_array(e, cols), dtype=float)
        arr = np.broadcast_to(arr, (8,))
        for i in range(8):
            env = {name: float(col[i]) for name, col in cols.items()}
            try:
                want = evaluate(e, env)
            except EvalError:
                continue  # vectorized mode encodes singularities as nan/inf
            if math.isfinite(want):
                assert arr[i] == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("text", [
    "(" * 3000 + "1" + ")" * 3000,
    "-" * 3000 + "1",
    "2^" * 3000 + "2",
    "not " * 3000 + "1",
], ids=["parens", "minus", "power", "not"])
def test_parser_depth_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError, match="nests too deeply"):
        parse(text)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_parser_total_over_arbitrary_text(text):
    try:
        parse(text)
    except (ExprSyntaxError, UnknownFunctionError):
        pass

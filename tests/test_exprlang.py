"""Expression language: grammar, evaluation, round-trips."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from infoloss.exprlang import (
    BINARY_FUNCTIONS,
    COMPARISONS,
    UNARY_FUNCTIONS,
    Binary,
    Const,
    ExprSyntaxError,
    Num,
    Unary,
    UnboundVariableError,
    UnknownFunctionError,
    Var,
    compile_expr,
    eval_array,
    evaluate,
    free_vars,
    parse,
    substitute,
    to_string,
)


# --- an independent tree-walking evaluator used as the oracle ----------------

def oracle_eval(e, env):
    # math raises where numpy gives NaN or inf: a ValueError at a domain
    # violation, a ZeroDivisionError at a division by zero
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
            "sqrt": math.sqrt,
            "ln": math.log,
            "log2": math.log2,
        }
        return table[e.op](a)
    a, b = oracle_eval(e.a, env), oracle_eval(e.b, env)
    table = {
        "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
        "/": lambda: a / b, "^": lambda: math.pow(a, b),
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


@pytest.mark.parametrize("text, want", [
    ("1/0", math.inf),
    ("ln(0)", -math.inf),
    ("log2(-1)", math.nan),
    ("sqrt(-1)", math.nan),
    ("(-2)^0.5", math.nan),
    ("sqrt(x1) + 1/0", math.inf),
], ids=["1/0-div_zero", "ln(0)-log_nonpos", "log2(-1)-log_nonpos",
        "sqrt(-1)-sqrt_neg", "(-2)^0.5-pow_domain", "folded_inf_beside_a_variable"])
def test_eval_errors(text, want):
    # a domain violation on a scalar binding is the IEEE value eval_array gives
    e = parse(text)
    got = evaluate(e, {"x1": 1.0})
    assert got == want or (math.isnan(got) and math.isnan(want))
    assert np.float64(got).tobytes() == np.float64(eval_array(e, {"x1": 1.0})).tobytes()


def test_unbound_variable():
    # a folded constant does not hide the unbound variable
    for text in ("x1 + x7", "x7 + 1/0"):
        with pytest.raises(UnboundVariableError):
            evaluate(parse(text), {"x1": 1.0})


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
        except (OverflowError, ValueError, ZeroDivisionError):
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
            want = evaluate(e, env)
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


# --- differential: the compiled closures against the tree walk -------------------
#
# ``walk_eval`` is the tree walk the compiler replaced: booleans as
# 1.0 / 0.0 floats.  The compiled closures must give the same bytes,
# dtype and type, and raise the same errors.

_WALK_UNARY = {"neg": np.negative, "abs": np.abs, "sqrt": np.sqrt,
               "exp": np.exp, "ln": np.log, "log2": np.log2,
               "floor": np.floor, "sign": np.sign, "arctan": np.arctan,
               "sin": np.sin, "cos": np.cos}
_WALK_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply,
                "/": np.divide, "^": np.power, "min": np.minimum,
                "max": np.maximum, "atan2": np.arctan2}
_WALK_COMPARE = {"<": np.less, "<=": np.less_equal, ">": np.greater,
                 ">=": np.greater_equal}
_CONSTANTS = {"pi": math.pi, "e": math.e, "gamma": 0.5772156649015329}


def walk_eval(e, binding):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return _CONSTANTS[e.name]
    if isinstance(e, Var):
        try:
            return binding[e.name]
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if isinstance(e, Unary):
        a = walk_eval(e.a, binding)
        if e.op == "not":
            return np.where(np.asarray(a) != 0.0, 0.0, 1.0)
        return _WALK_UNARY[e.op](a)
    a = walk_eval(e.a, binding)
    b = walk_eval(e.b, binding)
    op = e.op
    if op in _WALK_BINARY:
        return _WALK_BINARY[op](a, b)
    if op in _WALK_COMPARE:
        return _WALK_COMPARE[op](a, b).astype(float)
    if op == "and":
        return ((np.asarray(a) != 0.0) & (np.asarray(b) != 0.0)).astype(float)
    return ((np.asarray(a) != 0.0) | (np.asarray(b) != 0.0)).astype(float)


def _outcome(fn):
    """The value, or the error's type and identifying fields."""
    try:
        with np.errstate(all="ignore"):
            return "value", fn()
    except UnboundVariableError as err:
        return "error", ("UnboundVariableError", err.name)
    except ValueError as err:  # numpy's own, e.g. an int to a negative int power
        return "error", ("ValueError", str(err))


def assert_same_value(got, want):
    assert type(got) is type(want)
    g, w = np.asarray(got), np.asarray(want)
    assert (g.dtype, g.shape) == (w.dtype, w.shape)
    assert g.tobytes() == w.tobytes()


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got == want
    else:
        assert_same_value(got[1], want[1])


SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -2.5, 3.0, math.nan, math.inf,
           -math.inf, 5e-324, -5e-324, 2.2e-308, 1e308, -1e300]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats())
VARS = ("x1", "x2", "y1", "k")
UNARY_OPS = ("neg", "not", *UNARY_FUNCTIONS)
BINARY_OPS = ("+", "-", "*", "/", "^", "and", "or", *COMPARISONS,
              *BINARY_FUNCTIONS)

exprs = st.recursive(
    st.one_of(st.builds(Num, st.one_of(st.sampled_from(SPECIAL),
                                       st.floats(0.0, 10.0))),
              st.builds(Const, st.sampled_from(sorted(_CONSTANTS))),
              st.builds(Var, st.sampled_from(VARS))),
    lambda kids: st.one_of(st.builds(Unary, st.sampled_from(UNARY_OPS), kids),
                           st.builds(Binary, st.sampled_from(BINARY_OPS),
                                     kids, kids)),
    max_leaves=14)


@st.composite
def bindings(draw):
    """Python floats, numpy scalars, arrays, broadcasting shapes and int
    or float32 arrays, one kind per variable; now and then a variable
    is left unbound."""
    out = {}
    for name in VARS:
        kind = draw(st.sampled_from(["float", "float64", "row", "column",
                                     "zero_d", "int", "float32", "unbound"]))
        if kind == "float":
            out[name] = draw(VALUES)
        elif kind == "float64":
            out[name] = np.float64(draw(VALUES))
        elif kind == "row":
            out[name] = np.array(draw(st.lists(VALUES, min_size=4, max_size=4)))
        elif kind == "column":
            out[name] = np.array(draw(st.lists(VALUES, min_size=3, max_size=3)))[:, None]
        elif kind == "zero_d":
            out[name] = np.array(draw(VALUES))
        elif kind == "int":
            out[name] = np.array(draw(st.lists(st.integers(-3, 3), min_size=4,
                                               max_size=4)), dtype=np.int64)
        elif kind == "float32":
            with np.errstate(over="ignore"):  # large values round to inf
                out[name] = np.array(draw(st.lists(VALUES, min_size=4,
                                                   max_size=4)), dtype=np.float32)
    return out


@settings(max_examples=1000, deadline=None)
@given(exprs, bindings())
def test_eval_array_matches_the_tree_walk(e, binding):
    want = _outcome(lambda: walk_eval(e, binding))
    assert_same_outcome(_outcome(lambda: eval_array(e, binding)), want)


@settings(max_examples=1000, deadline=None)
@given(exprs, st.dictionaries(st.sampled_from(VARS), VALUES))
def test_evaluate_matches_the_tree_walk(e, binding):
    floats = {k: float(v) for k, v in binding.items()}
    want = _outcome(lambda: float(walk_eval(e, floats)))
    assert_same_outcome(_outcome(lambda: evaluate(e, binding)), want)


@pytest.mark.parametrize("text, want", [
    ("(x1 > 0) + (x2 > 0)", [2.0, 1.0, 0.0]),
    ("(x1 > 0) * 3 - (not x2 > 0)", [3.0, 2.0, -1.0]),
    ("-(x1 > 0 and x2 > 0)", [-1.0, -0.0, -0.0]),
    ("(x1 > 0) ^ 2 + ((x2 > 0) < (x1 > 0))", [1.0, 2.0, 0.0]),
])
def test_predicates_read_by_arithmetic_are_floats(text, want):
    binding = {"x1": np.array([1.0, 2.0, -1.0]), "x2": np.array([1.0, -1.0, -1.0])}
    got = eval_array(parse(text), binding)
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(want).tobytes()


def test_logic_on_nan_operands():
    nan = math.nan
    binding = {"x1": np.array([nan, nan, 0.0, 1.0]), "x2": np.array([nan, 0.0, nan, 0.0])}
    cases = {"not x1": [0.0, 0.0, 1.0, 0.0],
             "x1 and x2": [1.0, 0.0, 0.0, 0.0],
             "x1 or x2": [1.0, 1.0, 1.0, 1.0],
             "x1 < 1 or x2": [1.0, 0.0, 1.0, 0.0]}
    for text, want in cases.items():
        e = parse(text)
        assert eval_array(e, binding).tobytes() == np.array(want).tobytes(), text
        assert compile_expr(e).test(binding).tolist() == [w != 0.0 for w in want]


def test_predicate_test_gives_bools_and_value_floats():
    c = compile_expr(parse("x1 >= 0 and x1 < 1"))
    binding = {"x1": np.array([-0.5, 0.0, 0.5, 1.0, math.nan])}
    assert c.test(binding).dtype == bool
    assert c.test(binding).tolist() == [False, True, True, False, False]
    assert c.value(binding).tobytes() == np.array([0.0, 1.0, 1.0, 0.0, 0.0]).tobytes()
    numeric = compile_expr(parse("x1 - 0.5"))
    assert numeric.test(binding).tolist() == [True, True, False, True, True]


def test_constants_fold_with_the_walks_ufuncs():
    for text in ("2*pi", "-(3^0.5)", "exp(1)/3", "1 < 2 and not 0", "log2(e)",
                 "1/0", "min(gamma, 0.5) + atan2(1, 2)"):
        c = compile_expr(parse(text))
        assert c.constant is not None, text
        with np.errstate(all="ignore"):
            assert_same_value(c.value({}), walk_eval(parse(text), {}))
    assert compile_expr(parse("k + 1")).constant is None


def test_unbound_variable_in_every_mode():
    e = parse("x1 > 0 and y2 < 1")
    for run in (lambda: eval_array(e, {"x1": np.ones(3)}),
                lambda: evaluate(e, {"x1": 1.0}),
                lambda: compile_expr(e).test({"x1": np.ones(3)})):
        with pytest.raises(UnboundVariableError) as err:
            run()
        assert err.value.name == "y2"


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    VALUES,
    hnp.arrays(np.float64, st.integers(0, 40), elements=VALUES),
    hnp.arrays(np.float64, st.integers(1, 40),
               elements=st.floats(allow_nan=True, allow_infinity=True,
                                  allow_subnormal=True)).map(lambda a: a[::2])))
def test_square_is_power_two_bytes_on_float64(v):
    x = np.float64(v) if isinstance(v, float) else v
    for operand in (x, v):
        got = eval_array(parse("x1^2"), {"x1": operand})
        with np.errstate(over="ignore"):
            want = np.power(operand, 2.0)
        assert_same_value(got, want)


@pytest.mark.parametrize("operand", [
    np.arange(-3, 4), np.arange(-3, 4).astype(np.float32), 3, np.array(2.5),
    np.array([1.5, 2.5], dtype=">f8")])
def test_square_keeps_powers_dtype_on_other_operands(operand):
    assert_same_value(eval_array(parse("x1^2"), {"x1": operand}),
                      np.power(operand, 2.0))


def test_compiled_constant_results_are_the_callers():
    c = compile_expr(parse("not 1"))
    first = c.value({})
    first[...] = 7.0
    assert c.value({}) == 0.0

"""Generated models whose information loss is known exactly.

Each model maps X ~ U[0, 1] through K = 2-5 affine pieces.  The pieces
are cut at multiples of 1/64, and piece i maps [a_i, b_i] onto
[c_i, c_i + w_i], with c_i and w_i multiples of 1/8 and a random slope
sign.  Between the sorted range ends f_Y and the posterior over the
pieces are constant: piece i covering an interval carries posterior
weight proportional to 1/|s_i| = (b_i - a_i) / w_i.  So the loss
H(W | Y), E[log2 |pre|], log2 E[|pre|], the max bound and H(W) are each
one ``math.fsum`` over those intervals.  Every cut is a multiple of
1/64, so each dyadic cell of depth 6 or more lies in one piece, and the
partition sweep at those depths estimates the loss itself.

Every Monte-Carlo number must lie within ``Z`` of its own stderr of the
exact value; a stderr of 0 claims the exact value.  The quadrature at
512 nodes must lie within ``QUAD_TOL_BITS``.  The known defects are
strict xfails; their tolerances stay as they are.
"""

import functools
import math
import random

import pytest

from infoloss.config import load_config
from infoloss.loss import ESTIMATORS, estimate, loss_eq5_quadrature

N = 20_000
SEED = 1
Z = 4.0               # stderrs a Monte-Carlo number may lie off
QUAD_TOL_BITS = 0.003  # the quadrature's tolerance at 512 nodes
SWEEP_DEPTHS = (6, 8)


def _draw_pieces(rng: random.Random) -> list[tuple[float, float, float, float, int]]:
    """(a, b, c, w, sign) per piece."""
    k = rng.randint(2, 5)
    ends = [0, *sorted(rng.sample(range(1, 64), k - 1)), 64]
    return [(a / 64, b / 64, rng.randint(0, 8) / 8, rng.randint(1, 8) / 8,
             rng.choice((1, -1))) for a, b in zip(ends, ends[1:])]


_rng = random.Random(0)
MODELS = [_draw_pieces(_rng) for _ in range(20)]


def _config(pieces) -> dict:
    parts = []
    for i, (a, b, c, w, sign) in enumerate(pieces):
        length = b - a
        top = "<=" if i == len(pieces) - 1 else "<"
        start = c if sign > 0 else c + w
        op = "+" if sign > 0 else "-"
        rise = f"(y1 - {start!r})" if sign > 0 else f"({start!r} - y1)"
        slope = f"({w!r} / {length!r})"
        parts.append({
            "type": "branch", "name": f"p{i}", "kind": "bijective",
            "region": {"predicate": f"x1 >= {a!r} and x1 {top} {b!r}",
                       "bbox": [[a, b]]},
            "forward": [f"{start!r} {op} (x1 - {a!r}) * {slope}"],
            "inverse": [f"{a!r} + {rise} * ({length!r} / {w!r})"],
            "jac_abs_det": slope,
        })
    unit = {"predicate": "x1 >= 0 and x1 <= 1", "bbox": [[0.0, 1.0]]}
    return {"dim": 1, "parts": parts,
            "density": {"form": "uniform_box", "support": unit,
                        "exact_diffent_bits": 0.0}}


def _exact(pieces) -> dict:
    """The exact loss, cardinality bounds and H(W) of one model."""
    ends = sorted({e for _, _, c, w, _ in pieces for e in (c, c + w)})
    loss, e_log, e_card, card_max = [], [], [], 0
    for lo, hi in zip(ends, ends[1:]):
        weights = [(b - a) / w for a, b, c, w, _ in pieces
                   if c <= lo and hi <= c + w]
        if not weights:
            continue
        f_y = math.fsum(weights)
        mass = (hi - lo) * f_y
        loss.append(-mass * math.fsum(
            q / f_y * math.log2(q / f_y) for q in weights))
        e_log.append(mass * math.log2(len(weights)))
        e_card.append(mass * len(weights))
        card_max = max(card_max, len(weights))
    return {
        "loss": math.fsum(loss),
        "e_log_card": math.fsum(e_log),
        "log_e_card": math.log2(math.fsum(e_card)),
        "max_log_card": math.log2(card_max),
        "h_W": -math.fsum((b - a) * math.log2(b - a)
                          for a, b, _, _, _ in pieces),
        "masses": {f"p{i}": b - a for i, (a, b, _, _, _) in enumerate(pieces)},
    }


@functools.lru_cache(maxsize=None)
def _run(i: int):
    setup = load_config(_config(MODELS[i]))
    est = estimate(setup.pmap, setup.density, N, SEED, ESTIMATORS,
                   depths=SWEEP_DEPTHS)
    return setup, est


def _within(value: float, stderr: float, exact: float) -> bool:
    return abs(value - exact) <= Z * stderr


ROUTES = ["eq5_mc", "corollary1", "branch_posterior",
          *(f"sweep{depth}" for depth in SWEEP_DEPTHS)]
# model 1 has two pieces whose ranges do not overlap: it loses nothing
ROUNDING_Z = pytest.mark.xfail(strict=True, reason=(
    "rounding-level stderr: on a zero-loss model corollary1 reads "
    "-1.2e-17 bits with stderr 6.5e-20 (z = -183), the rounding of "
    "log2(1/s) + log2(s)"))
# models 15 and 16 are off by +0.0041 and +0.0038 bits at 512 nodes
QUADRATURE_O_H = pytest.mark.xfail(strict=True, reason=(
    "the midpoint rule's error is O(h) and not monotone in the node "
    "count where g crosses another piece's range end, while the "
    "quadrature reports stderr 0"))


def test_the_models_cover_zero_and_positive_losses():
    losses = [_exact(p)["loss"] for p in MODELS]
    assert [len(p) for p in MODELS].count(5) >= 3
    assert min(losses) == 0.0 and max(losses) > 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("i, route", [
    pytest.param(i, route, marks=ROUNDING_Z)
    if (i, route) == (1, "corollary1") else (i, route)
    for i in range(len(MODELS)) for route in ROUTES])
def test_monte_carlo_routes_match_the_exact_loss(i, route):
    _, est = _run(i)
    if route.startswith("sweep"):
        sw = est["sweep"]
        j = sw.depths.index(int(route[5:]))
        value, stderr = sw.losses_bits[j], sw.stderrs_bits[j]
    else:
        value, stderr = est[route].loss_bits, est[route].stderr_bits
    assert _within(value, stderr, _exact(MODELS[i])["loss"]), (value, stderr)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("i", range(len(MODELS)))
def test_bounds_match_their_exact_values(i):
    _, est = _run(i)
    b, exact = est["bounds"], _exact(MODELS[i])
    for key, value in (("e_log_card", b.e_log_card_bits),
                       ("log_e_card", b.log_e_card_bits),
                       ("h_W", b.h_W_bits)):
        assert _within(value, b.stderrs[key], exact[key]), (key, value)
    assert b.max_log_card_bits == exact["max_log_card"]
    assert b.stderrs["max_log_card"] == 0.0
    assert not any(b.infinite_flags.values())
    assert b.branch_masses.keys() == exact["masses"].keys()
    for label, mass in b.branch_masses.items():
        p = exact["masses"][label]
        assert _within(mass, math.sqrt(p * (1 - p) / N), p), (label, mass)
    assert exact["e_log_card"] <= exact["log_e_card"] <= exact["max_log_card"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("i", [
    pytest.param(i, marks=QUADRATURE_O_H) if i in (15, 16) else i
    for i in range(len(MODELS))])
def test_quadrature_matches_the_exact_loss(i):
    setup, _ = _run(i)
    q = loss_eq5_quadrature(setup.pmap, setup.density, 512)
    assert abs(q.loss_bits - _exact(MODELS[i])["loss"]) <= QUAD_TOL_BITS

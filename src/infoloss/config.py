"""JSON model configuration: schema checks, loading, preset resolution.

One self-contained JSON document describes a model: the input density,
the list of map parts, and default analysis parameters.  Every
expression is parsed (syntax errors surface with their byte offset) and
arities are checked against the declared dimension before any analysis
runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import exprlang, loss
from .errors import ConfigError
from .exprlang import Expr
from .geometry import Box, Region, box_volume
from .model import (DEFAULT_K_MAX, DENSITY_FORMS, Branch, BranchFamily,
                    InputDensity, PiecewiseMap)
from .numerics import EMPTY_SUPPORT_PROPOSALS, make_generator
from .transform import DEFAULT_TOL

__all__ = [
    "AnalysisParams",
    "ModelSetup",
    "load_config",
    "load_config_file",
    "preset_dir",
    "preset_path",
    "list_presets",
    "resolve_config_path",
    "triangle_abs_config",
]

_VOLUME_ESTIMATE_SEED = 0xA11CE


@dataclass(frozen=True)
class AnalysisParams:
    n: int = 1_000_000
    seed: int = 1
    nodes_per_dim: int = 512
    depths: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8)
    k_max: int = DEFAULT_K_MAX
    tol: float = DEFAULT_TOL


@dataclass(frozen=True)
class ModelSetup:
    name: str
    pmap: PiecewiseMap
    density: InputDensity
    analysis: AnalysisParams
    digest: str


def _fail(where: str, msg: str) -> ConfigError:
    return ConfigError(f"{where}: {msg}")


def at_least_one(where: str, value: int) -> int:
    """``value`` if it is at least 1, else a ConfigError naming ``where``."""
    if value < 1:
        raise ConfigError(f"{where} must be at least 1, got {value}")
    return value


def check_depths(where: str, depths: tuple[int, ...],
                 dim: int) -> tuple[int, ...]:
    """``loss.check_depths`` with its ValueError as a ConfigError."""
    try:
        return loss.check_depths(where, depths, dim)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _real(value, where: str) -> float:
    """A finite JSON number (booleans excluded) as a float."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise _fail(where, f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if not _real(value, where).is_integer():
        raise _fail(where, f"expected an integer, got {value!r}")
    return int(value)


def _names(prefix: str, dim: int) -> set[str]:
    return {f"{prefix}{i + 1}" for i in range(dim)}


def _parse_expr(text, where: str, allowed: set[str]) -> Expr:
    if not isinstance(text, str):
        raise _fail(where, f"expected an expression string, got {type(text).__name__}")
    try:
        e = exprlang.parse(text)
    except exprlang.ExprSyntaxError as err:
        raise _fail(where, str(err)) from err
    stray = exprlang.free_vars(e) - allowed
    if stray:
        raise _fail(where, f"unknown variable(s) {sorted(stray)}; "
                           f"allowed: {sorted(allowed)}")
    return e


def _box(obj, dim: int, where: str) -> Box:
    if (not isinstance(obj, list) or len(obj) != dim
            or not all(isinstance(p, list) and len(p) == 2 for p in obj)):
        raise _fail(where, f"bbox must be {dim} [lo, hi] pairs")
    lo = tuple(_real(p[0], where) for p in obj)
    hi = tuple(_real(p[1], where) for p in obj)
    try:
        return Box(lo, hi)
    except ValueError as err:
        raise _fail(where, str(err)) from err


def _region(obj, dim: int, where: str, extra_vars: set[str] = frozenset()) -> Region:
    if not isinstance(obj, dict) or "predicate" not in obj or "bbox" not in obj:
        raise _fail(where, "region needs 'predicate' and 'bbox'")
    bbox = _box(obj["bbox"], dim, f"{where}.bbox")
    allowed = _names("x", dim) | set(extra_vars)
    return Region(_parse_expr(obj["predicate"], f"{where}.predicate", allowed),
                  bbox)


def _exprs(obj, dim: int, where: str, allowed: set[str]) -> tuple[Expr, ...]:
    if not isinstance(obj, list) or len(obj) != dim:
        raise _fail(where, f"expected {dim} expression(s)")
    return tuple(_parse_expr(t, f"{where}[{i}]", allowed)
                 for i, t in enumerate(obj))


def _default_support(form: str, params: dict, dim: int) -> dict:
    if form == "gaussian_iid":
        mu = float(params.get("mu", 0.0))
        sigma = float(params.get("sigma", 1.0))
        lo, hi = mu - 8.5 * sigma, mu + 8.5 * sigma
    elif form == "exponential":
        lam = float(params["lambda"])
        lo, hi = 0.0, 37.0 / lam
    else:
        raise _fail("density", f"form {form!r} needs an explicit support")
    pred = " and ".join(f"x{i + 1} >= {lo!r} and x{i + 1} <= {hi!r}"
                        for i in range(dim))
    return {"predicate": pred, "bbox": [[lo, hi]] * dim}


def _density(obj, dim: int) -> InputDensity:
    if not isinstance(obj, dict):
        raise _fail("density", "expected an object")
    form = obj.get("form")
    if form not in DENSITY_FORMS:
        raise _fail("density.form", f"unknown form {form!r}")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise _fail("density.params", "expected an object")
    params = dict(params)
    for key in ("mu", "sigma", "lambda", "volume"):
        v = _real(params.get(key, 1.0), f"density.params.{key}")
        if v <= 0 and key != "mu":
            raise _fail(f"density.params.{key}", "must be positive")
    support_obj = obj.get("support")
    if support_obj is None:
        support_obj = _default_support(form, params, dim)
    elif not isinstance(support_obj, dict):
        raise _fail("density.support", "expected an object")
    support = _region(support_obj, dim, "density.support")

    pdf_expr = None
    pdf_bound = None
    if form == "expression":
        if "pdf" not in obj or "pdf_bound" not in obj:
            raise _fail("density", "expression form needs 'pdf' and 'pdf_bound'")
        pdf_expr = _parse_expr(obj["pdf"], "density.pdf", _names("x", dim))
        pdf_bound = _real(obj["pdf_bound"], "density.pdf_bound")
        if pdf_bound <= 0:
            raise _fail("density.pdf_bound", "must be positive")
    if form == "exponential" and "lambda" not in params:
        raise _fail("density.params", "exponential needs 'lambda'")
    if form == "uniform_region" and "volume" not in params:
        # estimate the region volume once, deterministically, by the
        # acceptance fraction of uniform box samples
        lo, hi = support.bbox.arrays()
        rng = make_generator(_VOLUME_ESTIMATE_SEED)
        pts = lo + rng.random((EMPTY_SUPPORT_PROPOSALS, dim)) * (hi - lo)
        frac = float(support.contains_batch(pts).mean())
        if frac == 0.0:
            raise _fail("density.support", "no box sample satisfies the predicate")
        params["volume"] = frac * box_volume(support.bbox)

    exact = obj.get("exact_diffent_bits")
    return InputDensity(dim=dim, form=form, support=support, params=params,
                        pdf_expr=pdf_expr, pdf_bound=pdf_bound,
                        exact_diffent_bits=None if exact is None else _real(
                            exact, "density.exact_diffent_bits"))


def _part(obj, dim: int, idx: int):
    where = f"parts[{idx}]"
    if not isinstance(obj, dict):
        raise _fail(where, "expected an object")
    ptype = obj.get("type", "branch")
    name = obj.get("name", f"part{idx}")
    if not isinstance(name, str):
        raise _fail(f"{where}.name", f"expected a string, got {type(name).__name__}")
    # the bbox is checked before the dim-sized name sets: a huge dim fails fast
    if ptype == "branch":
        kind = obj.get("kind", "bijective")
        region = _region(obj.get("region"), dim, f"{where}.region")
        xvars, yvars = _names("x", dim), _names("y", dim)
        forward = _exprs(obj.get("forward"), dim, f"{where}.forward", xvars)
        inverse = None
        if "inverse" in obj:
            inverse = _exprs(obj["inverse"], dim, f"{where}.inverse", yvars)
        jac = None
        if "jac_abs_det" in obj:
            jac = _parse_expr(obj["jac_abs_det"], f"{where}.jac_abs_det", xvars)
        try:
            return Branch(name, region, forward, inverse, jac, kind)
        except ValueError as err:
            raise _fail(where, str(err)) from err
    if ptype == "family":
        kr = obj.get("k_range")
        if (not isinstance(kr, list) or len(kr) != 2
                or type(kr[0]) is not int
                or not (kr[1] is None or type(kr[1]) is int)):
            raise _fail(f"{where}.k_range", "expected [k_lo, k_hi] with "
                        "integer k_lo and integer-or-null k_hi")
        k_lo, k_hi = kr
        if k_hi is not None and k_hi < k_lo:
            raise _fail(f"{where}.k_range", "k_hi < k_lo")
        bbox = _box(obj.get("bbox"), dim, f"{where}.bbox")
        xvars = _names("x", dim)
        xk = xvars | {"k"}
        yk = _names("y", dim) | {"k"}
        index_of = _parse_expr(obj.get("index_of"), f"{where}.index_of", xvars)
        region_of_k = _parse_expr(obj.get("region_of_k"),
                                  f"{where}.region_of_k", xk)
        forward = _exprs(obj.get("forward"), dim, f"{where}.forward", xk)
        inverse = _exprs(obj.get("inverse"), dim, f"{where}.inverse", yk)
        jac = None
        if "jac_abs_det" in obj:
            jac = _parse_expr(obj["jac_abs_det"], f"{where}.jac_abs_det", xk)
        return BranchFamily(name, index_of, k_lo, k_hi, region_of_k, bbox,
                            forward, inverse, jac)
    raise _fail(where, f"unknown part type {ptype!r}")


def _analysis(obj, dim: int) -> AnalysisParams:
    if obj is None:
        obj = {}  # the defaults pass the same checks (depth * dim too)
    if not isinstance(obj, dict):
        raise _fail("analysis", "expected an object")

    def integer(key: str) -> int:
        return _integer(obj.get(key, getattr(AnalysisParams, key)),
                        f"analysis.{key}")

    depths = obj.get("depths", list(AnalysisParams.depths))
    if not isinstance(depths, list):
        raise _fail("analysis.depths", "expected a list of integers")
    tol = _real(obj.get("tol", AnalysisParams.tol), "analysis.tol")
    if not tol > 0:  # finite already; 0 drops every inexact round trip
        raise _fail("analysis.tol", f"must be positive, got {tol!r}")
    return AnalysisParams(
        n=at_least_one("analysis.n", integer("n")),
        seed=integer("seed"),
        nodes_per_dim=at_least_one("analysis.nodes_per_dim",
                                   integer("nodes_per_dim")),
        depths=check_depths("analysis.depths", tuple(
            _integer(v, "analysis.depths") for v in depths), dim),
        k_max=at_least_one("analysis.k_max", integer("k_max")),
        tol=tol,
    )


def load_config(doc: dict, name_hint: str = "") -> ModelSetup:
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a JSON object")
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:  # a bool is no dim
        raise _fail("dim", "must be a positive integer")
    # parts first: their bboxes pin dim before a default support is built
    parts_obj = doc.get("parts")
    if not isinstance(parts_obj, list) or not parts_obj:
        raise _fail("parts", "expected a nonempty list")
    parts = tuple(_part(p, dim, i) for i, p in enumerate(parts_obj))
    density = _density(doc.get("density"), dim)
    try:
        pmap = PiecewiseMap(dim, parts)
    except ValueError as err:
        raise _fail("parts", str(err)) from err
    analysis = _analysis(doc.get("analysis"), dim)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    name = doc.get("name", name_hint or "model")
    if not isinstance(name, str):
        raise _fail("name", f"expected a string, got {type(name).__name__}")
    return ModelSetup(name=name, pmap=pmap, density=density,
                      analysis=analysis, digest=digest)


def load_config_file(path) -> ModelSetup:
    p = Path(path)
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except OSError as err:
        raise ConfigError(f"cannot read {p}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{p} is not valid JSON: {err}") from err
    return load_config(doc, name_hint=p.stem)


# --- preset resolution -------------------------------------------------------

def preset_dir() -> Path:
    override = os.environ.get("INFOLOSS_PRESET_DIR")
    if override:
        return Path(override)
    return Path(__file__).parent / "presets"


def list_presets() -> list[str]:
    return sorted(p.stem for p in preset_dir().glob("*.json"))


def preset_path(name: str) -> Path:
    p = preset_dir() / f"{name}.json"
    if not p.exists():
        raise ConfigError(f"no preset named {name!r} in {preset_dir()}")
    return p


def resolve_config_path(arg: str) -> Path:
    """A config argument is a file path or a bare preset name."""
    p = Path(arg)
    if p.exists():
        return p
    name = p.stem if p.suffix == ".json" else arg
    return preset_path(name)


# --- parametric builders ------------------------------------------------------

def triangle_abs_config(m: float, a: float) -> dict:
    """Uniform triangle folded by taking coordinatewise magnitudes.

    The triangle has legs meeting at (m-a, -(m-a)); the loss drops from
    one bit at m=0 to zero at m=a as a growing part of the domain maps
    injectively.  Requires 0 <= m <= a.
    """
    if not (0 <= m <= a) or a <= 0:
        raise ValueError("need 0 <= m <= a and a > 0")
    lo1, hi1 = m - a, m + a
    lo2, hi2 = -m - a, a - m
    bbox = [[float(lo1), float(hi1)], [float(lo2), float(hi2)]]
    tri = f"x1 >= {lo1!r} and x1 <= {hi1!r} and x2 >= {lo2!r} and x2 <= -x1"
    return {
        "name": f"ex6_m{m:g}",
        "dim": 2,
        "density": {
            "form": "uniform_region",
            "params": {"volume": 2.0 * a * a},
            "support": {"predicate": tri, "bbox": bbox},
            "exact_diffent_bits": math.log2(2 * a * a),
        },
        "parts": [
            {"type": "branch", "name": "left_top", "kind": "bijective",
             "region": {"predicate": f"x1 <= 0 and x2 >= 0 and x1 >= {lo1!r} and x2 <= -x1",
                        "bbox": bbox},
             "forward": ["-x1", "x2"], "inverse": ["-y1", "y2"],
             "jac_abs_det": "1"},
            {"type": "branch", "name": "left_bottom", "kind": "bijective",
             "region": {"predicate": f"x1 <= 0 and x2 < 0 and x1 >= {lo1!r} and x2 >= {lo2!r}",
                        "bbox": bbox},
             "forward": ["-x1", "-x2"], "inverse": ["-y1", "-y2"],
             "jac_abs_det": "1"},
            {"type": "branch", "name": "right_bottom", "kind": "bijective",
             "region": {"predicate": f"x1 > 0 and x2 < 0 and x1 <= {hi1!r} and x2 >= {lo2!r} and x2 <= -x1",
                        "bbox": bbox},
             "forward": ["x1", "-x2"], "inverse": ["y1", "-y2"],
             "jac_abs_det": "1"},
        ],
        "analysis": {"n": 1_000_000, "seed": 1, "nodes_per_dim": 512,
                     "depths": [0, 1, 2, 3, 4, 5, 6, 7, 8]},
    }

"""Piecewise map model, input densities, and model validation.

A :class:`PiecewiseMap` is an ordered list of parts.  A :class:`Branch`
owns one subdomain with a forward map, its inverse, and (optionally) an
expression for |det J|; a :class:`BranchFamily` describes a countable
collection of such subdomains indexed by an integer ``k`` (for example
the period cells of a sawtooth).  Parts may be declared ``bijective``,
``constant_point`` (the whole region collapses to one output point) or
``rank_deficient`` (the Jacobian loses rank on the region); the declared
kind is cross-checked numerically in :func:`validate`.

Everything is immutable after construction and safe to evaluate from
multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import exprlang
from .errors import (
    AmbiguousBranchError,
    BoundViolationError,
    NoBranchError,
    SingularJacobianError,
)
from .exprlang import Expr, eval_array
from .geometry import Box, Region, box_volume
from .numerics import (
    exponential_sample,
    gaussian_iid_sample,
    make_generator,
    rejection_sample,
    row_max,
    row_prod,
    tensor_quadrature,
    uniform_box_sample,
)

__all__ = [
    "Branch",
    "BranchFamily",
    "PiecewiseMap",
    "InputDensity",
    "PartRef",
    "ValidationReport",
    "forward_eval",
    "jac_abs_det_at",
    "validate",
    "postcompose_affine",
    "JAC_SINGULAR_TOL",
    "DEFAULT_K_MAX",
]

JAC_SINGULAR_TOL = 1e-12
DEFAULT_K_MAX = 64
_CODE_SHIFT = 1 << 32  # part index above, family member offset below


@dataclass(frozen=True)
class Branch:
    name: str
    region: Region
    forward: tuple[Expr, ...]
    inverse: Optional[tuple[Expr, ...]] = None
    jac_abs_det: Optional[Expr] = None
    kind: str = "bijective"  # bijective | constant_point | rank_deficient

    def __post_init__(self):
        if self.kind not in ("bijective", "constant_point", "rank_deficient"):
            raise ValueError(f"bad branch kind {self.kind!r}")
        if self.kind == "bijective" and self.inverse is None:
            raise ValueError(f"branch {self.name!r} is bijective but has no inverse")


@dataclass(frozen=True)
class BranchFamily:
    """One-parameter countable family of bijective branches.

    ``index_of`` is an integer-valued expression k(x) naming the member
    containing x; ``region_of_k``, ``forward``, ``inverse`` and
    ``jac_abs_det`` may all mention ``k``.  ``k_hi=None`` means the index
    is only bounded below.
    """

    name: str
    index_of: Expr
    k_lo: int
    k_hi: Optional[int]
    region_of_k: Expr
    bbox: Box
    forward: tuple[Expr, ...]
    inverse: tuple[Expr, ...]
    jac_abs_det: Optional[Expr] = None

    @property
    def kind(self) -> str:
        return "bijective"

    def member_region(self, k) -> Region:
        """The region of member ``k``; an array ``k`` names one member per
        row of the points tested."""
        return Region(self.region_of_k, self.bbox,
                      extra_binding={"k": np.asarray(k, dtype=float)})


Part = Union[Branch, BranchFamily]


@dataclass(frozen=True)
class PartRef:
    """Identifies the part containing a point (family member via k)."""

    index: int
    name: str
    k: Optional[int] = None

    def label(self) -> str:
        return self.name if self.k is None else f"{self.name}[k={self.k}]"


@dataclass(frozen=True)
class PiecewiseMap:
    dim: int
    parts: tuple[Part, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a map needs at least one part")
        names = [p.name for p in self.parts]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate part names: {names}")

    def code_label(self, code: int) -> str:
        idx, off = divmod(int(code), _CODE_SHIFT)
        p = self.parts[idx]
        if isinstance(p, BranchFamily):
            return f"{p.name}[k={p.k_lo + off}]"
        return p.name

    def codes_batch(self, part_idx: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Unique int64 subdomain code per row (family members distinct)."""
        is_fam = np.array([isinstance(p, BranchFamily) for p in self.parts],
                          dtype=bool)
        k_lo = np.array([p.k_lo if isinstance(p, BranchFamily) else 0
                         for p in self.parts], dtype=np.int64)
        codes = part_idx.astype(np.int64) * _CODE_SHIFT
        return codes + np.where(is_fam[part_idx], k - k_lo[part_idx], 0)

    # -- vectorized membership / dispatch --------------------------------

    def _member_k(self, fam: BranchFamily, x: np.ndarray) -> np.ndarray:
        binding = {f"x{d + 1}": x[:, d] for d in range(self.dim)}
        k = np.rint(np.asarray(eval_array(fam.index_of, binding), dtype=float))
        k = np.where(np.isfinite(k), k, fam.k_lo - 1)
        return k.astype(np.int64)

    def membership_masks(self, x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per part: (mask, k) with k only meaningful for family parts."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = []
        zeros = np.zeros(x.shape[0], dtype=np.int64)
        for p in self.parts:
            if isinstance(p, Branch):
                out.append((p.region.contains_batch(x), zeros))
            else:
                k = self._member_k(p, x)
                ok = k >= p.k_lo
                if p.k_hi is not None:
                    ok &= k <= p.k_hi
                binding = {f"x{d + 1}": x[:, d] for d in range(self.dim)}
                binding["k"] = k.astype(float)
                inside = np.asarray(eval_array(p.region_of_k, binding)) != 0.0
                out.append((ok & inside, k))
        return out

    def dispatch_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Assign each row its containing part.

        Returns (part_idx, k), k the family member (0 for a branch).  A row
        in no part raises :class:`NoBranchError`, a row in more than one
        :class:`AmbiguousBranchError`.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        masks = self.membership_masks(x)
        count = np.zeros(x.shape[0], dtype=np.int64)
        part_idx = np.full(x.shape[0], -1, dtype=np.int64)
        k = np.zeros(x.shape[0], dtype=np.int64)
        for i, (mask, kk) in enumerate(masks):
            count += mask
            fresh = mask & (part_idx < 0)
            part_idx[fresh] = i
            k[fresh] = kk[fresh]
        if np.any(count == 0):
            j = int(np.argmax(count == 0))
            raise NoBranchError(x[j])
        if np.any(count > 1):
            j = int(np.argmax(count > 1))
            claimed = [self.parts[i].name for i, (mask, _) in enumerate(masks)
                       if bool(mask[j])]
            raise AmbiguousBranchError(x[j], claimed)
        return part_idx, k

    def forward_batch(self, x: np.ndarray, part_idx: np.ndarray,
                      k: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.full_like(x, np.nan)
        for i, p in enumerate(self.parts):
            rows = part_idx == i
            if not np.any(rows):
                continue
            xb = x[rows]
            binding = {f"x{d + 1}": xb[:, d] for d in range(self.dim)}
            if isinstance(p, BranchFamily):
                binding["k"] = k[rows].astype(float)
            for d, fe in enumerate(p.forward):
                y[rows, d] = np.broadcast_to(eval_array(fe, binding), (xb.shape[0],))
        return y

    def _fd_matrices(self, p: Part, x: np.ndarray,
                     k: np.ndarray | None) -> np.ndarray:
        """Central-difference Jacobian matrices (n, N, N) for one part."""
        n, dim = x.shape
        hs = 1e-5 * np.maximum(1.0, row_max(np.abs(x)))
        mat = np.empty((n, dim, dim))
        for j in range(dim):
            for s in (1.0, -1.0):
                xs = x.copy()
                xs[:, j] += s * hs
                binding = {f"x{d + 1}": xs[:, d] for d in range(dim)}
                if k is not None:
                    binding["k"] = k.astype(float)
                for i, fe in enumerate(p.forward):
                    col = np.broadcast_to(eval_array(fe, binding), (n,))
                    if s > 0:
                        mat[:, i, j] = col
                    else:
                        mat[:, i, j] -= col
        mat /= (2.0 * hs)[:, None, None]
        return mat

    def part_jac(self, part_index: int, x: np.ndarray,
                 k: np.ndarray | None = None) -> np.ndarray:
        """|det J| of one part at every row of x; no singularity check."""
        p = self.parts[part_index]
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if p.jac_abs_det is not None:
            binding = {f"x{d + 1}": x[:, d] for d in range(self.dim)}
            if k is not None:
                binding["k"] = k.astype(float)
            vals = np.abs(np.asarray(
                eval_array(p.jac_abs_det, binding), dtype=float))
            return np.broadcast_to(vals, (x.shape[0],)).copy()
        mat = self._fd_matrices(p, x, k)
        if self.dim == 1:
            return np.abs(mat[:, 0, 0])
        return np.abs(np.linalg.det(mat))

    def jac_batch(self, x: np.ndarray, part_idx: np.ndarray,
                  k: np.ndarray) -> np.ndarray:
        """|det J| per row for the assigned parts; no singularity check."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.full(x.shape[0], np.nan)
        for i, p in enumerate(self.parts):
            rows = part_idx == i
            if not np.any(rows):
                continue
            kk = k[rows] if isinstance(p, BranchFamily) else None
            out[rows] = self.part_jac(i, x[rows], kk)
        return out


# --- spec-level scalar operations ----------------------------------------------

def forward_eval(m: PiecewiseMap, x) -> np.ndarray:
    xa = np.asarray(x, dtype=float).reshape(1, -1)
    return m.forward_batch(xa, *m.dispatch_batch(xa))[0]


def jac_abs_det_at(m: PiecewiseMap, x) -> float:
    """|det J| at x as ``part_jac`` computes it (the part's expression, else
    central differences); NaN or a value below ``JAC_SINGULAR_TOL`` raises
    :class:`SingularJacobianError`."""
    xa = np.asarray(x, dtype=float).reshape(1, -1)
    part_idx, k = m.dispatch_batch(xa)
    i = int(part_idx[0])
    kk = k if isinstance(m.parts[i], BranchFamily) else None
    val = float(m.part_jac(i, xa, kk)[0])
    if not val >= JAC_SINGULAR_TOL:
        raise SingularJacobianError(xa[0], val)
    return val


# --- input densities ------------------------------------------------------------

_BUILTIN_FORMS = ("uniform_box", "uniform_region", "gaussian_iid", "exponential")


@dataclass(frozen=True)
class InputDensity:
    """Input distribution: a builtin family or an explicit pdf expression.

    The pdf is zero outside ``support`` by construction.  For rejection
    sampling of expression pdfs, ``pdf_bound`` must dominate the pdf on
    the support box.
    """

    dim: int
    form: str
    support: Region
    params: dict = field(default_factory=dict)
    pdf_expr: Optional[Expr] = None
    pdf_bound: Optional[float] = None
    exact_diffent_bits: Optional[float] = None

    def __post_init__(self):
        if self.form not in _BUILTIN_FORMS + ("expression",):
            raise ValueError(f"bad density form {self.form!r}")
        if self.form == "expression":
            if self.pdf_expr is None or self.pdf_bound is None:
                raise ValueError("expression densities need pdf and pdf_bound")
        if self.form == "uniform_region" and "volume" not in self.params:
            raise ValueError("uniform_region needs a volume (exact or estimated)")

    # -- evaluation -------------------------------------------------------

    def pdf_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        with np.errstate(all="ignore"):
            inside = self.support.contains_batch(x)
            if self.form == "uniform_box":
                v = 1.0 / box_volume(self.support.bbox)
                vals = np.full(x.shape[0], v)
            elif self.form == "uniform_region":
                vals = np.full(x.shape[0], 1.0 / float(self.params["volume"]))
            elif self.form == "gaussian_iid":
                mu = float(self.params.get("mu", 0.0))
                sigma = float(self.params.get("sigma", 1.0))
                z = (x - mu) / sigma
                vals = row_prod(
                    np.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi)))
            elif self.form == "exponential":
                lam = float(self.params["lambda"])
                vals = row_prod(lam * np.exp(-lam * x))
            else:
                binding = {f"x{d + 1}": x[:, d] for d in range(self.dim)}
                vals = np.broadcast_to(
                    np.asarray(eval_array(self.pdf_expr, binding), dtype=float),
                    (x.shape[0],)).copy()
            vals = np.where(inside, vals, 0.0)
            return np.where(np.isfinite(vals), vals, 0.0)

    def pdf(self, x) -> float:
        return float(self.pdf_batch(np.asarray(x, dtype=float).reshape(1, -1))[0])

    # -- sampling ---------------------------------------------------------

    def sample_with_rate(self, n: int, seed: int) -> tuple[np.ndarray, float]:
        rng = make_generator(seed)
        lo, hi = self.support.bbox.arrays()
        if self.form == "uniform_box":
            return uniform_box_sample(lo, hi, n, rng), 1.0
        if self.form == "gaussian_iid":
            mu = float(self.params.get("mu", 0.0))
            sigma = float(self.params.get("sigma", 1.0))
            return gaussian_iid_sample(mu, sigma, self.dim, n, rng), 1.0
        if self.form == "exponential":
            return exponential_sample(float(self.params["lambda"]),
                                      self.dim, n, rng), 1.0
        if self.form == "uniform_region":
            return rejection_sample(
                lambda x, _: self.support.contains_batch(x), lo, hi, n, rng)
        return rejection_sample(self._accept_under_bound, lo, hi, n, rng)

    def _accept_under_bound(self, x: np.ndarray,
                            rng: np.random.Generator) -> np.ndarray:
        """Accept each proposal with probability pdf / ``pdf_bound``.
        Raises :class:`BoundViolationError` if the pdf exceeds the bound
        anywhere: the declared envelope is part of the model and must
        dominate the pdf."""
        bound = float(self.pdf_bound)
        f = self.pdf_batch(x)
        bad = f > bound * (1.0 + 1e-12)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise BoundViolationError(x[i], float(f[i]), bound)
        return rng.random(x.shape[0]) * bound < f

    def sample(self, n: int, seed: int) -> np.ndarray:
        return self.sample_with_rate(n, seed)[0]


# --- validation ------------------------------------------------------------------

INV_REL_TOL = 1e-9
JAC_EXPR_FD_REL_TOL = 1e-4
CONST_VARIANCE_TOL = 1e-18
RANK_DEFICIENT_SV_TOL = 1e-9


@dataclass
class ValidationReport:
    n_probe: int
    seed: int
    part_reports: list[dict]
    coverage_gaps: int
    overlaps: int
    gap_example: Optional[list] = None
    overlap_example: Optional[list] = None
    pdf_normalization: float = math.nan
    normalization_method: str = ""
    sampler_acceptance: float = 1.0
    bbox_violations: int = 0
    pdf_negative: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "n_probe": self.n_probe,
            "seed": self.seed,
            "parts": self.part_reports,
            "coverage_gaps": self.coverage_gaps,
            "overlaps": self.overlaps,
            "gap_example": self.gap_example,
            "overlap_example": self.overlap_example,
            "pdf_normalization": self.pdf_normalization,
            "normalization_method": self.normalization_method,
            "sampler_acceptance": self.sampler_acceptance,
            "bbox_violations": self.bbox_violations,
            "pdf_negative": self.pdf_negative,
            "failures": self.failures,
        }


def _family_checks(m: PiecewiseMap, fam_index: int, fam: BranchFamily,
                   x: np.ndarray, k: np.ndarray, report: dict,
                   failures: list[str]) -> None:
    # index_of must name a member that actually contains the point
    binding = {f"x{d + 1}": x[:, d] for d in range(m.dim)}
    binding["k"] = k.astype(float)
    inside = np.asarray(eval_array(fam.region_of_k, binding)) != 0.0
    bad = int(np.count_nonzero(~inside))
    report["index_consistency_failures"] = bad
    if bad:
        failures.append(f"{fam.name}: index_of names a non-containing member "
                        f"for {bad} sampled points")
    # neighbours must not also claim the point (sampled disjointness)
    for dk in (-1, 1):
        kn = k + dk
        ok_range = kn >= fam.k_lo
        if fam.k_hi is not None:
            ok_range &= kn <= fam.k_hi
        binding["k"] = kn.astype(float)
        overlap = (np.asarray(eval_array(fam.region_of_k, binding)) != 0.0) & ok_range
        cnt = int(np.count_nonzero(overlap))
        if cnt:
            failures.append(f"{fam.name}: members k and k{dk:+d} overlap "
                            f"at {cnt} sampled points")


def validate(m: PiecewiseMap, d: InputDensity, n_probe: int = 10_000,
             seed: int = 0) -> ValidationReport:
    """Probe the model: coverage, disjointness, inverse consistency,
    Jacobian positivity, declared-kind cross-checks, masses, and pdf
    normalization.  Failures are reported, never raised."""
    x, acc_rate = d.sample_with_rate(n_probe, seed)
    failures: list[str] = []

    masks = m.membership_masks(x)
    count = np.zeros(n_probe, dtype=np.int64)
    for mask, _ in masks:
        count += mask
    gaps = int(np.count_nonzero(count == 0))
    overlaps = int(np.count_nonzero(count > 1))
    gap_example = overlap_example = None
    if gaps:
        gap_example = [float(v) for v in x[int(np.argmax(count == 0))]]
        failures.append(f"coverage: {gaps}/{n_probe} sampled points in no part")
    if overlaps:
        overlap_example = [float(v) for v in x[int(np.argmax(count > 1))]]
        failures.append(f"regions overlap at {overlaps}/{n_probe} sampled points")

    part_reports: list[dict] = []
    bbox_violations = 0
    for i, p in enumerate(m.parts):
        mask, k_all = masks[i]
        n_in = int(np.count_nonzero(mask))
        mass = n_in / n_probe
        mass_stderr = math.sqrt(max(mass * (1 - mass), 0.0) / n_probe)
        rep: dict = {"name": p.name, "kind": p.kind, "n_in_region": n_in,
                     "mass": mass, "mass_stderr": mass_stderr}
        xb = x[mask]
        kb = k_all[mask]
        if isinstance(p, Branch):
            inside_box = p.region.bbox.contains_points(xb)
            bad_box = int(np.count_nonzero(~inside_box))
            bbox_violations += bad_box
            if bad_box:
                failures.append(f"{p.name}: {bad_box} member points fall "
                                "outside the region bbox")
        if n_in == 0:
            part_reports.append(rep)
            continue
        part_idx = np.full(n_in, i, dtype=np.int64)
        if p.kind == "bijective":
            y = m.forward_batch(xb, part_idx, kb)
            binding = {f"y{dd + 1}": y[:, dd] for dd in range(m.dim)}
            if isinstance(p, BranchFamily):
                binding["k"] = kb.astype(float)
            x_back = np.column_stack([
                np.broadcast_to(eval_array(inv, binding), (n_in,))
                for inv in p.inverse])
            rel = row_max(np.abs(x_back - xb)) / (
                1.0 + row_max(np.abs(xb)))
            rep["inverse_max_rel_err"] = float(np.max(rel))
            if rep["inverse_max_rel_err"] > INV_REL_TOL:
                failures.append(
                    f"{p.name}: inverse(forward(x)) misses x by "
                    f"{rep['inverse_max_rel_err']:.3g} (tol {INV_REL_TOL:g})")
            jac = m.jac_batch(xb, part_idx, kb)
            viol = int(np.count_nonzero(~(jac > JAC_SINGULAR_TOL)))
            rep["jac_nonpositive"] = viol
            if viol > max(1, 0.001 * n_in):
                failures.append(f"{p.name}: |det J| not positive at "
                                f"{viol}/{n_in} sampled points")
            if p.jac_abs_det is not None:
                kk = kb if isinstance(p, BranchFamily) else None
                mats = m._fd_matrices(p, xb, kk)
                fd = np.abs(np.linalg.det(mats) if m.dim > 1 else mats[:, 0, 0])
                rel_jac = np.abs(fd - jac) / np.maximum(np.abs(jac), 1e-300)
                # finite differences are garbage within h of a forward-map
                # discontinuity (for example an angle branch cut), a null
                # set; a handful of such points must not fail the model
                mismatch = float(np.count_nonzero(
                    rel_jac > JAC_EXPR_FD_REL_TOL) / n_in)
                rep["jac_expr_vs_fd_rel_err_q995"] = float(
                    np.quantile(rel_jac, 0.995))
                rep["jac_expr_vs_fd_worst"] = float(np.max(rel_jac))
                rep["jac_fd_mismatch_fraction"] = mismatch
                if mismatch > 0.005:
                    failures.append(
                        f"{p.name}: |det J| expression disagrees with finite "
                        f"differences on {mismatch:.2%} of sampled points "
                        f"(worst {rep['jac_expr_vs_fd_worst']:.3g})")
        elif p.kind == "constant_point":
            y = m.forward_batch(xb, part_idx, kb)
            var = float(np.max(np.var(y, axis=0))) if n_in > 1 else 0.0
            rep["forward_variance"] = var
            if var >= CONST_VARIANCE_TOL:
                failures.append(f"{p.name}: declared constant_point but forward "
                                f"varies (variance {var:.3g})")
        elif p.kind == "rank_deficient":
            mats = m._fd_matrices(p, xb, None)
            sv = np.linalg.svd(mats, compute_uv=False)
            smin = sv[:, -1]
            frac = float(np.count_nonzero(smin < RANK_DEFICIENT_SV_TOL) / n_in)
            rep["rank_deficient_fraction"] = frac
            if frac < 0.99:
                failures.append(f"{p.name}: declared rank_deficient but the "
                                f"Jacobian is full rank on {1 - frac:.1%} of samples")
        if isinstance(p, BranchFamily):
            _family_checks(m, i, p, xb, kb, rep, failures)
        part_reports.append(rep)

    # pdf checks: nonnegative on support samples, normalized on the bbox
    fx = d.pdf_batch(x)
    neg = int(np.count_nonzero(fx < 0))
    if neg:
        failures.append(f"pdf negative at {neg} sampled points")
    if m.dim <= 2:
        # discontinuous pdfs converge O(h) under the midpoint rule; these
        # node counts keep boundary-cut error safely inside the 1e-3 gate
        nodes = 8192 if m.dim == 1 else 2048
        norm = tensor_quadrature(d.support.bbox, d.pdf_batch, nodes)
        method = f"midpoint-{nodes}"
    else:
        lo, hi = d.support.bbox.arrays()
        rng = make_generator((seed + 0x9E3779B9) & ((1 << 64) - 1))
        pts = lo + rng.random((n_probe, m.dim)) * (hi - lo)
        norm = float(np.mean(d.pdf_batch(pts))) * box_volume(d.support.bbox)
        method = "mc-bbox"
    if abs(norm - 1.0) > 1e-3:
        failures.append(f"pdf integrates to {norm:.6f} over the support box")

    return ValidationReport(
        n_probe=n_probe, seed=seed, part_reports=part_reports,
        coverage_gaps=gaps, overlaps=overlaps,
        gap_example=gap_example, overlap_example=overlap_example,
        pdf_normalization=norm, normalization_method=method,
        sampler_acceptance=acc_rate, bbox_violations=bbox_violations,
        pdf_negative=neg, failures=failures)


# --- output relabeling ------------------------------------------------------------

def postcompose_affine(m: PiecewiseMap, scale: float, offset: float) -> PiecewiseMap:
    """The map followed by y -> scale*y + offset componentwise (scale != 0).

    An invertible relabeling of the output; useful for invariance checks.
    """
    if scale == 0:
        raise ValueError("scale must be nonzero")
    sc = exprlang.Num(float(scale))
    off = exprlang.Num(float(offset))
    inv_sub = {f"y{d + 1}": exprlang.Binary(
        "/", exprlang.Binary("-", exprlang.Var(f"y{d + 1}"), off), sc)
        for d in range(m.dim)}
    factor = abs(scale) ** m.dim
    parts: list[Part] = []
    for p in m.parts:
        fwd = tuple(exprlang.Binary("+", exprlang.Binary("*", sc, f), off)
                    for f in p.forward)
        jac = None
        if p.jac_abs_det is not None:
            jac = exprlang.Binary("*", exprlang.Num(factor), p.jac_abs_det)
        if isinstance(p, Branch):
            inv = None if p.inverse is None else tuple(
                exprlang.substitute(e, inv_sub) for e in p.inverse)
            parts.append(Branch(p.name, p.region, fwd, inv, jac, p.kind))
        else:
            inv = tuple(exprlang.substitute(e, inv_sub) for e in p.inverse)
            parts.append(BranchFamily(p.name, p.index_of, p.k_lo, p.k_hi,
                                      p.region_of_k, p.bbox, fwd, inv, jac))
    return PiecewiseMap(m.dim, tuple(parts))

"""Piecewise map model, input densities, and model validation.

A :class:`PiecewiseMap` is an ordered list of parts.  A :class:`Branch`
owns one subdomain with a forward map, its inverse, and (optionally) an
expression for |det J|; a :class:`BranchFamily` describes a countable
collection of such subdomains indexed by an integer ``k`` (for example
the period cells of a sawtooth).  Parts may be declared ``bijective``,
``constant_point`` (the whole region collapses to one output point) or
``rank_deficient`` (the Jacobian loses rank on the region); the declared
kind is cross-checked numerically in :func:`validate`.

Every part, region and density compiles its expressions once, when it
is built (:func:`exprlang.compile_expr`), and evaluates only through
those closures.  Everything is immutable after construction and safe to
evaluate from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from . import exprlang
from .errors import (
    AmbiguousBranchError,
    BoundViolationError,
    NoBranchError,
    SingularJacobianError,
)
# eval_array stays bound here: the benchmark's layer tracer
# (perfbench/tracer.py) rebinds it in every importing module and its
# tests expect it in this one
from .exprlang import Compiled, Expr, compile_expr, eval_array  # noqa: F401
from .geometry import Box, Region, box_volume
from .numerics import (
    exponential_sample,
    gaussian_iid_sample,
    make_generator,
    point_row,
    rejection_sample,
    row_max,
    row_prod,
    take_rows,
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


class PartCode(NamedTuple):
    """A part's expressions, compiled when the part is built."""

    forward: tuple[Compiled, ...]
    inverse: tuple[Compiled, ...]   # empty for a part without an inverse
    jac: Optional[Compiled]
    jac_const: Optional[np.float64]  # |det J| where the expression is constant
    region: Region   # a family's tests the member that the binding's k names
    index_of: Optional[Compiled]


def _part_code(part, region: Region) -> PartCode:
    """Compile one part's expressions; ``region`` tests its membership."""
    def every(exprs):
        return tuple(map(compile_expr, exprs or ()))

    jac = None if part.jac_abs_det is None else compile_expr(part.jac_abs_det)
    jac_const = None
    if jac is not None and jac.constant is not None:
        jac_const = np.abs(np.asarray(jac.constant, dtype=float))[()]
    index_of = part.index_of if isinstance(part, BranchFamily) else None
    return PartCode(every(part.forward), every(part.inverse), jac, jac_const,
                    region, None if index_of is None else compile_expr(index_of))


def bind_columns(a: np.ndarray, k=None, prefix: str = "x") -> dict:
    """The columns of ``a`` bound as ``prefix``1, ``prefix``2, ..., and the
    family member ``k`` bound as floats (a number stays a number)."""
    binding = {f"{prefix}{d + 1}": a[:, d] for d in range(a.shape[1])}
    if k is not None:
        binding["k"] = k if isinstance(k, float) else np.asarray(k, dtype=float)
    return binding


@dataclass(frozen=True)
class Branch:
    name: str
    region: Region
    forward: tuple[Expr, ...]
    inverse: Optional[tuple[Expr, ...]] = None
    jac_abs_det: Optional[Expr] = None
    kind: str = "bijective"  # bijective | constant_point | rank_deficient
    code: PartCode = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("bijective", "constant_point", "rank_deficient"):
            raise ValueError(f"bad branch kind {self.kind!r}")
        if self.kind == "bijective" and self.inverse is None:
            raise ValueError(f"branch {self.name!r} is bijective but has no inverse")
        object.__setattr__(self, "code", _part_code(self, self.region))


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
    code: PartCode = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        region = Region(self.region_of_k, self.bbox)
        object.__setattr__(self, "code", _part_code(self, region))

    @property
    def kind(self) -> str:
        return "bijective"


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
        """Unique int64 subdomain code per row (family members distinct),
        from ``dispatch_batch``'s part and member (k is 0 on a branch)."""
        k_lo = np.array([p.k_lo if isinstance(p, BranchFamily) else 0
                         for p in self.parts], dtype=np.int64)
        return part_idx.astype(np.int64) * _CODE_SHIFT + (k - k_lo[part_idx])

    # -- vectorized membership / dispatch --------------------------------

    def _member_k(self, fam: BranchFamily, x: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            k = np.rint(np.asarray(fam.code.index_of.value(bind_columns(x)),
                                   dtype=float))
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
                out.append((ok & p.code.region.test(bind_columns(x, k)), k))
        return out

    def dispatch_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Assign each row its containing part.

        Returns (part_idx, k), k the family member (0 for a branch).  A row
        in no part raises :class:`NoBranchError`, a row in more than one
        :class:`AmbiguousBranchError`, each at the first such row.  Once
        every row is in exactly one part, ``part_idx`` is the sum of
        i * mask_i over the parts and ``k`` the sum of k_i * mask_i over
        the families, in exact int64 arithmetic, with no scatter.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        masks = self.membership_masks(x)
        count = np.zeros(x.shape[0], dtype=np.int64)
        for mask, _ in masks:
            count += mask
        if np.any(count == 0):
            j = int(np.argmax(count == 0))
            raise NoBranchError(x[j])
        if np.any(count > 1):
            j = int(np.argmax(count > 1))
            claimed = [self.parts[i].name for i, (mask, _) in enumerate(masks)
                       if bool(mask[j])]
            raise AmbiguousBranchError(x[j], claimed)
        part_idx = np.zeros(x.shape[0], dtype=np.int64)
        k = np.zeros(x.shape[0], dtype=np.int64)
        for i, (p, (mask, kk)) in enumerate(zip(self.parts, masks)):
            if i:
                part_idx += i * mask
            if isinstance(p, BranchFamily):
                k += kk * mask
        return part_idx, k

    def _part_rows(self, part_idx: np.ndarray, k: np.ndarray):
        """(index, part, rows, k) per part that owns rows: ``rows`` True if
        it owns every row, else its mask; ``k`` None on a branch.  Callers
        evaluate the part on all rows and ``np.copyto(out, v, where=rows)``."""
        for i, p in enumerate(self.parts):
            rows = part_idx == i
            owned = np.count_nonzero(rows)
            if owned:
                yield (i, p, True if owned == rows.size else rows,
                       k if isinstance(p, BranchFamily) else None)

    def forward_batch(self, x: np.ndarray, part_idx: np.ndarray,
                      k: np.ndarray) -> np.ndarray:
        """g(x) per row by the part ``part_idx`` names (NaN where none),
        through ``_part_rows``; ``y`` has the layout of ``x``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.full_like(x, np.nan)
        for _, p, rows, kk in self._part_rows(part_idx, k):
            binding = bind_columns(x, kk)
            with np.errstate(all="ignore"):
                for d, fe in enumerate(p.code.forward):
                    np.copyto(y[:, d], fe.value(binding), where=rows)
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
                binding = bind_columns(xs, k)
                for i, fe in enumerate(p.code.forward):
                    with np.errstate(all="ignore"):
                        col = np.broadcast_to(fe.value(binding), (n,))
                    if s > 0:
                        mat[:, i, j] = col
                    else:
                        mat[:, i, j] -= col
        mat /= (2.0 * hs)[:, None, None]
        return mat

    def _fd_jac(self, p: Part, x: np.ndarray,
                k: np.ndarray | float | None) -> np.ndarray:
        """|det J| per row from the central-difference Jacobian matrices."""
        mat = self._fd_matrices(p, x, k)
        return np.abs(mat[:, 0, 0] if self.dim == 1 else np.linalg.det(mat))

    def part_jac(self, part_index: int, x: np.ndarray,
                 k: np.ndarray | float | None = None):
        """|det J| of one part at the rows of ``x``, from the part's
        expression, else by central differences; no singularity check.
        ``k`` is the family member per row, or one member for every row.
        Returns one number where |det J| is constant over the rows (a
        folded constant, or an expression in a single member ``k``), else
        one value per row."""
        code = self.parts[part_index].code
        if code.jac_const is not None:
            return code.jac_const
        x = np.atleast_2d(np.asarray(x, dtype=float))
        with np.errstate(all="ignore"):  # rows outside the part are read too
            if code.jac is None:
                return self._fd_jac(self.parts[part_index], x, k)
            return np.abs(np.asarray(code.jac.value(bind_columns(x, k)),
                                     dtype=float))

    def jac_batch(self, x: np.ndarray, part_idx: np.ndarray,
                  k: np.ndarray) -> np.ndarray:
        """|det J| per row for the assigned parts (NaN where ``part_idx``
        names none), through ``_part_rows``; no singularity check."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.full(x.shape[0], np.nan)
        for i, _, rows, kk in self._part_rows(part_idx, k):
            np.copyto(out, self.part_jac(i, x, kk), where=rows)
        return out


# --- spec-level scalar operations ----------------------------------------------

def forward_eval(m: PiecewiseMap, x) -> np.ndarray:
    xa = point_row(x, m.dim)
    return m.forward_batch(xa, *m.dispatch_batch(xa))[0]


def jac_abs_det_at(m: PiecewiseMap, x) -> float:
    """|det J| at x as ``jac_batch`` computes it (the part's expression,
    else central differences); a singular value raises
    :class:`SingularJacobianError`."""
    xa = point_row(x, m.dim)
    jac = m.jac_batch(xa, *m.dispatch_batch(xa))
    check_jacobian(xa, jac)
    return float(jac[0])


def jac_singular(jac):
    """The one rule for a singular Jacobian, per value: |det J| not above
    ``JAC_SINGULAR_TOL``, NaN included."""
    return ~(np.asarray(jac) > JAC_SINGULAR_TOL)


def check_jacobian(x: np.ndarray, jac, rows=True) -> None:
    """Raise :class:`SingularJacobianError` at the first row of ``x`` in
    the mask ``rows`` whose |det J| is singular.  ``jac`` is one value
    per row, or one number for every row."""
    bad = jac_singular(jac)
    if bad.any():  # else no row is singular: the mask is not read
        bad = np.broadcast_to(bad & rows, x.shape[:1])
        if bad.any():
            i = int(np.argmax(bad))
            raise SingularJacobianError(
                x[i], float(np.broadcast_to(jac, bad.shape)[i]))


# --- input densities ------------------------------------------------------------

DENSITY_FORMS = ("uniform_box", "uniform_region", "gaussian_iid", "exponential",
                 "expression")


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
    pdf_code: Optional[Compiled] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.form not in DENSITY_FORMS:
            raise ValueError(f"bad density form {self.form!r}")
        if self.form == "expression":
            if self.pdf_expr is None or self.pdf_bound is None:
                raise ValueError("expression densities need pdf and pdf_bound")
        object.__setattr__(self, "pdf_code", None if self.pdf_expr is None
                           else compile_expr(self.pdf_expr))
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
                vals = np.broadcast_to(
                    np.asarray(self.pdf_code.value(bind_columns(x)), dtype=float),
                    (x.shape[0],)).copy()
            # vals is this call's own array: zero it in place outside the
            # support and where it is not finite, by one indexed write (a
            # masked fill gives the same bytes, walking short runs)
            keep = np.isfinite(vals)
            keep &= inside
            vals[(~keep).nonzero()[0]] = 0.0
            return vals

    def pdf(self, x) -> float:
        return float(self.pdf_batch(point_row(x, self.dim))[0])

    # -- sampling ---------------------------------------------------------

    def sample_with_rate(self, n: int, seed: int) -> tuple[np.ndarray, float]:
        """n draws and the sampler's acceptance rate (1 without rejection).
        Every estimate divides by its sample size, so n < 1 raises."""
        if n < 1:
            raise ValueError("need n >= 1")
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

DEFAULT_N_PROBE = 10_000
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
        out = asdict(self)
        out["parts"] = out.pop("part_reports")
        out["ok"] = self.ok
        return out


def _family_checks(fam: BranchFamily, x: np.ndarray, k: np.ndarray,
                   report: dict, failures: list[str]) -> None:
    # index_of must name a member that actually contains the point
    region = fam.code.region
    inside = region.test(bind_columns(x, k))
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
        overlap = region.test(bind_columns(x, kn)) & ok_range
        cnt = int(np.count_nonzero(overlap))
        if cnt:
            failures.append(f"{fam.name}: members k and k{dk:+d} overlap "
                            f"at {cnt} sampled points")


def validate(m: PiecewiseMap, d: InputDensity, n_probe: int = DEFAULT_N_PROBE,
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
        rows = np.flatnonzero(mask)
        xb = take_rows(x, rows)
        kb = k_all[rows]
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
            binding = bind_columns(
                y, kb if isinstance(p, BranchFamily) else None, "y")
            with np.errstate(all="ignore"):
                x_back = np.column_stack([
                    np.broadcast_to(inv.value(binding), (n_in,))
                    for inv in p.code.inverse])
            rel = row_max(np.abs(x_back - xb)) / (
                1.0 + row_max(np.abs(xb)))
            rep["inverse_max_rel_err"] = float(np.max(rel))
            if rep["inverse_max_rel_err"] > INV_REL_TOL:
                failures.append(
                    f"{p.name}: inverse(forward(x)) misses x by "
                    f"{rep['inverse_max_rel_err']:.3g} (tol {INV_REL_TOL:g})")
            jac = m.jac_batch(xb, part_idx, kb)
            viol = int(np.count_nonzero(jac_singular(jac)))
            rep["jac_nonpositive"] = viol
            if viol > max(1, 0.001 * n_in):
                failures.append(f"{p.name}: |det J| not positive at "
                                f"{viol}/{n_in} sampled points")
            if p.jac_abs_det is not None:
                fd = m._fd_jac(p, xb, kb if isinstance(p, BranchFamily) else None)
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
            _family_checks(p, xb, kb, rep, failures)
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

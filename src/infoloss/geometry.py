"""Predicate-defined regions with axis-aligned bounding boxes.

Subdomains of the map and density supports are arbitrary boolean
expressions over x1..xN paired with a bounding box.  Quadrature and
sampling only ever need membership tests and the box; no exact region
geometry is computed.  A region compiles its predicate once, when it is
built, and tests membership on the predicate's bools.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exprlang import Compiled, Expr, compile_expr
from .numerics import point_row, row_all

__all__ = ["Box", "Region", "box_volume"]


@dataclass(frozen=True)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo, hi = self.arrays()
        if lo.size != hi.size or lo.size == 0:
            raise ValueError("lo and hi must have the same nonzero length")
        if not np.all(lo < hi):
            raise ValueError(f"degenerate box: lo={lo} hi={hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)

    def contains_points(self, x: np.ndarray) -> np.ndarray:
        lo, hi = self.arrays()
        x = np.atleast_2d(x)
        return row_all((x >= lo) & (x <= hi))


def box_volume(b: Box) -> float:
    lo, hi = b.arrays()
    return float(np.prod(hi - lo))


@dataclass(frozen=True)
class Region:
    """Membership predicate over x1..xN plus an enclosing box.

    Boundary points follow the predicate verbatim (strict vs non-strict
    inequalities); boundaries are null sets, so integrals do not care.
    """

    predicate: Expr
    bbox: Box
    compiled: Compiled = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "compiled", compile_expr(self.predicate))

    def contains(self, x) -> bool:
        return bool(self.contains_batch(point_row(x, self.bbox.dim))[0])

    def contains_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.test({f"x{d + 1}": x[:, d] for d in range(x.shape[1])})

    def test(self, binding: dict) -> np.ndarray:
        """The predicate's bools on a binding of x1..xN (and k in a family)."""
        with np.errstate(all="ignore"):
            return self.compiled.test(binding)

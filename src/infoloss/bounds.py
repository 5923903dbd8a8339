"""Upper bounds on the information loss.

Three bounds come from the cardinality of the preimage of the output:
the mean log-cardinality, the log of the mean cardinality (Jensen), and
the log of the maximum sampled cardinality.  A fourth, independent bound
is the entropy H(W) of the subdomain index itself.  Countable families
can make every cardinality bound infinite while the loss stays finite;
truncated enumerations are therefore flagged and the affected terms
reported as lower bounds of the true (infinite) values.

The sum of the per-subdomain output masses is computed as the expected
preimage cardinality (the output lands in a subdomain's image exactly
when the preimage meets that subdomain), so no image-set geometry is
ever represented.
"""

from __future__ import annotations

from typing import Optional

from .classify import Classification, classify  # noqa: F401
from .loss import BoundsReport, estimate
from .model import DEFAULT_K_MAX, InputDensity, PiecewiseMap
from .numerics import run_chunks  # noqa: F401
from .transform import DEFAULT_TOL, build_candidates  # noqa: F401

# The chunk work, the Infinite gate and the report itself come from
# ``loss.estimate``; ``BoundsReport`` is defined there and bound here.
# classify, run_chunks and build_candidates stay bound here because the
# benchmark's layer tracer (perfbench/tracer.py) rebinds them in every
# importing module and its tests expect them in this one.

__all__ = ["BoundsReport", "bounds_report"]


def bounds_report(m: PiecewiseMap, d: InputDensity, n: int, seed: int,
                  tol: float = DEFAULT_TOL, k_max: int = DEFAULT_K_MAX,
                  workers: int = 1,
                  classification: Optional[Classification] = None
                  ) -> BoundsReport:
    """Sample x ~ f_X, count preimages of g(x), and tally subdomains.
    Raises :class:`InfiniteLossError` for a map classified Infinite."""
    return estimate(m, d, n, seed, ("bounds",), tol=tol, k_max=k_max,
                    workers=workers, classification=classification)["bounds"]

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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classify import Classification, classify  # noqa: F401
from .loss import CardinalityTally, estimate
from .model import DEFAULT_K_MAX, InputDensity, PiecewiseMap
from .numerics import CHUNK_SIZE, run_chunks  # noqa: F401
from .transform import DEFAULT_TOL, build_candidates  # noqa: F401

# The chunk work and the Infinite gate run in ``loss.estimate``.
# classify, run_chunks and build_candidates stay bound here because the
# benchmark's layer tracer (perfbench/tracer.py) rebinds them in every
# importing module and its tests expect them in this one.

__all__ = ["BoundsReport", "bounds_report"]


@dataclass(frozen=True)
class BoundsReport:
    e_log_card_bits: float     # E[log2 |preimage|]
    log_e_card_bits: float     # log2 E[|preimage|]
    max_log_card_bits: float   # log2 max sampled |preimage|
    h_W_bits: float            # plug-in entropy of the subdomain index
    stderrs: dict
    infinite_flags: dict
    branch_masses: dict
    n_samples: int
    seed: int

    @classmethod
    def from_tally(cls, m: PiecewiseMap, tally: CardinalityTally, n: int,
                   seed: int) -> "BoundsReport":
        e_log, e_card, counts = tally.log_card, tally.card, tally.code_counts
        log_e_card_stderr = e_card.stderr / (e_card.mean * math.log(2))
        h_w, h_w_stderr = _plugin_entropy(counts, n)
        trunc = tally.truncated
        return cls(
            e_log_card_bits=e_log.mean,
            log_e_card_bits=math.log2(e_card.mean),
            max_log_card_bits=math.log2(tally.max_card),
            h_W_bits=h_w,
            stderrs={"e_log_card": e_log.stderr,
                     "log_e_card": log_e_card_stderr,
                     "max_log_card": 0.0, "h_W": h_w_stderr},
            infinite_flags={"e_log_card": trunc, "log_e_card": trunc,
                            "max_log_card": trunc, "h_W": False},
            branch_masses={m.code_label(code): counts[code] / n
                           for code in sorted(counts)},
            n_samples=n, seed=seed)

    def to_dict(self) -> dict:
        return {
            "e_log_card_bits": self.e_log_card_bits,
            "log_e_card_bits": self.log_e_card_bits,
            "max_log_card_bits": self.max_log_card_bits,
            "h_W_bits": self.h_W_bits,
            "stderrs": dict(self.stderrs),
            "infinite_flags": dict(self.infinite_flags),
            "branch_masses": dict(self.branch_masses),
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def _plugin_entropy(counts: dict[int, int], n: int) -> tuple[float, float]:
    p = np.array([c / n for c in counts.values()])
    logp = np.log2(p)
    h = float(-(p * logp).sum())
    # delta method: Var(H_hat) ~ Var(-log2 p(W)) / n, taken about its
    # mean h: E[x**2] - h**2 cancels when the index is nearly certain
    dev = logp + h
    var = float((p * dev * dev).sum())
    return h, math.sqrt(var / n)


def bounds_report(m: PiecewiseMap, d: InputDensity, n: int, seed: int,
                  tol: float = DEFAULT_TOL, k_max: int = DEFAULT_K_MAX,
                  chunk_size: int = CHUNK_SIZE, workers: int = 1,
                  classification: Optional[Classification] = None
                  ) -> BoundsReport:
    """Sample x ~ f_X, count preimages of g(x), and tally subdomains.
    Raises :class:`InfiniteLossError` for a map classified Infinite."""
    tally = estimate(m, d, n, seed, ("bounds",), tol=tol, k_max=k_max,
                     chunk_size=chunk_size, workers=workers,
                     classification=classification)["bounds"]
    return BoundsReport.from_tally(m, tally, n, seed)


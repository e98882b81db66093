"""Association risk, adaptive threshold, and uncertainty metrics.

Given an assignment with similarity c1 and runner-up similarity c2, the
association risk is

    sigma = -log(c1) - log(1 - c2)

and is compared against the margin-derived adaptive threshold

    gamma = -log(m1) - log(1 + m2 - c1).

The association uncertainty delta = sigma - gamma is positive exactly when
the match should be reconsidered. Cosine similarities can fall outside
(0, 1), so all log arguments are clamped first. Natural logs throughout.
Each function takes one pair or equal-length arrays of pairs, so the
tracker scores all of a stage's pairs in one call with the same formula.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import EmptyHistory, InvalidConfig

CLAMP_EPS = 1e-6  # smallest argument any log here is given


@dataclass(frozen=True)
class UncertaintyMargins:
    m1: float = 0.5
    m2: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.m1 < 1.0:
            raise InvalidConfig(f"m1 must be in (0,1), got {self.m1}")
        if not 0.0 < self.m2 < 1.0:
            raise InvalidConfig(f"m2 must be in (0,1), got {self.m2}")


class AssociationVerdict(NamedTuple):
    """The scores of one pair, or of arrays of pairs, in log-row order."""
    c1: float
    c2: float
    sigma: float
    gamma: float
    delta: float


def association_risk(c1, c2):
    """Risk of an assignment: low c1 and a strong runner-up both raise it."""
    # the two ufuncs clamp like np.clip, at about half its cost on a frame's few pairs
    c1 = np.minimum(np.maximum(c1, CLAMP_EPS), 1.0 - CLAMP_EPS)
    c2 = np.minimum(np.maximum(c2, CLAMP_EPS), 1.0 - CLAMP_EPS)
    return -np.log(c1) - np.log(1.0 - c2)


def adaptive_threshold(c1, margins: UncertaintyMargins):
    """Similarity-dependent cutoff the risk is compared against."""
    return -np.log(margins.m1) - np.log(np.maximum(1.0 + margins.m2 - c1, CLAMP_EPS))


def association_uncertainty(c1, c2,
                            margins: UncertaintyMargins | None = None) -> AssociationVerdict:
    """delta = sigma - gamma; the match is uncertain iff delta > 0."""
    if margins is None:
        margins = UncertaintyMargins()
    sigma = association_risk(c1, c2)
    gamma = adaptive_threshold(c1, margins)
    return AssociationVerdict(c1, c2, sigma, gamma, sigma - gamma)


def second_best(sim, rows, cols) -> np.ndarray:
    """Runner-up of each assigned pair (rows[i], cols[i]): the highest
    similarity in row rows[i] excluding column cols[i].

    A single-column matrix has no competitor, which counts as zero risk."""
    if sim.shape[1] < 2:
        return np.zeros(len(rows))
    masked = sim.take(rows, axis=0)   # a copy; `take` gathers rows faster than indexing
    masked[np.arange(len(rows)), cols] = -np.inf
    return masked.max(axis=1)


def tracklet_uncertainty(deltas) -> float:
    """Mean of exp(delta) over a tracklet's association history, summed left
    to right with plain float additions (the builtin `sum` compensates
    rounding from Python 3.12 on)."""
    exps = [math.exp(d) for d in deltas]
    if not exps:
        raise EmptyHistory("tracklet uncertainty needs at least one delta")
    return reduce(operator.add, exps) / len(exps)

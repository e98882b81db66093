"""Association risk, adaptive threshold, and uncertainty metrics.

Given an assignment with similarity c1 and runner-up similarity c2, the
association risk is

    sigma = -log(c1) - log(1 - c2)

and is compared against the margin-derived adaptive threshold

    gamma = -log(m1) - log(1 + m2 - c1).

The association uncertainty delta = sigma - gamma is positive exactly when
the match should be reconsidered. Cosine similarities can fall outside
(0, 1), so all log arguments are clamped first. Natural logs throughout.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

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


@dataclass(frozen=True)
class AssociationVerdict:
    c1: float
    c2: float
    sigma: float
    gamma: float
    delta: float
    uncertain: bool


def _clamp(x: float) -> float:
    return min(max(x, CLAMP_EPS), 1.0 - CLAMP_EPS)


def association_risk(c1: float, c2: float) -> float:
    """Risk of an assignment: low c1 and a strong runner-up both raise it."""
    c1 = _clamp(c1)
    c2 = _clamp(c2)
    return -math.log(c1) - math.log(1.0 - c2)


def adaptive_threshold(c1: float, margins: UncertaintyMargins) -> float:
    """Similarity-dependent cutoff the risk is compared against."""
    arg = max(1.0 + margins.m2 - c1, CLAMP_EPS)
    return -math.log(margins.m1) - math.log(arg)


def association_uncertainty(c1: float, c2: float,
                            margins: UncertaintyMargins | None = None) -> AssociationVerdict:
    """delta = sigma - gamma; the match is uncertain iff delta > 0."""
    if margins is None:
        margins = UncertaintyMargins()
    sigma = association_risk(c1, c2)
    gamma = adaptive_threshold(c1, margins)
    delta = sigma - gamma
    return AssociationVerdict(c1=c1, c2=c2, sigma=sigma, gamma=gamma,
                              delta=delta, uncertain=delta > 0.0)


def second_best(sim, rows, cols) -> np.ndarray:
    """Runner-up of each assigned pair (rows[i], cols[i]): the highest
    similarity in row rows[i] excluding column cols[i].

    A single-column matrix has no competitor, which counts as zero risk."""
    if sim.shape[1] < 2:
        return np.zeros(len(rows))
    masked = sim[np.asarray(rows, dtype=int)]
    masked[np.arange(len(rows)), np.asarray(cols, dtype=int)] = -np.inf
    return masked.max(axis=1)


def tracklet_uncertainty(deltas) -> float:
    """Mean of exp(delta) over a tracklet's association history, summed left
    to right with plain float additions (as `Tracklet.exp_delta_sum` is;
    the builtin `sum` compensates rounding from Python 3.12 on)."""
    exps = [math.exp(d) for d in deltas]
    if not exps:
        raise EmptyHistory("tracklet uncertainty needs at least one delta")
    return reduce(operator.add, exps) / len(exps)

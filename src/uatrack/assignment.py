"""Optimal bipartite matching over similarity matrices.

`hungarian_max` maximizes total similarity over one-to-one assignments of a
rectangular matrix (rows = detections, cols = tracks) with scipy's compiled
`linear_sum_assignment` (the shortest augmenting path algorithm of Crouse,
2016, in `scipy/optimize/_lsap`); `brute_force_max` is the exhaustive oracle
with the identical contract.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import TooLarge

NEG_INF = float("-inf")


@dataclass
class Matching:
    """The matched (row, col) pairs: one (pairs × 2) intp array, ascending
    by row, of shape (0, 2) when nothing is matched."""
    pairs: np.ndarray


def _empty() -> Matching:
    return Matching(np.zeros((0, 2), dtype=np.intp))


def _finish(rows, cols, matrix, floor) -> Matching:
    """The pairs (rows[i], cols[i]), rows ascending, whose similarity is
    above `floor`."""
    return Matching(np.array([rows, cols]).T[matrix[rows, cols] > floor])


@functools.cache
def _linear_sum_assignment():
    """scipy's `linear_sum_assignment`, loaded without `scipy.optimize`.

    Importing `scipy.optimize` costs ~0.6 s and ~49 MB, while the solver is
    one extension module, `scipy/optimize/_lsap`, that needs only numpy. It
    is found through scipy's directory (which `find_spec` reads without
    importing scipy), loaded from its file and registered under its own
    name, so a later `import scipy.optimize` reuses it; if that import came
    first, its module is reused here. A scipy laid out otherwise gets the
    public import, so the solver is the same function either way."""
    name = "scipy.optimize._lsap"
    module = sys.modules.get(name)
    if module is None:
        scipy_dirs = getattr(importlib.util.find_spec("scipy"), "submodule_search_locations", None)
        dirs = [os.path.join(d, "optimize") for d in scipy_dirs or ()]
        found = importlib.machinery.PathFinder.find_spec("_lsap", dirs)
        if found is None or not isinstance(found.loader, importlib.machinery.ExtensionFileLoader):
            from scipy.optimize import linear_sum_assignment
            return linear_sum_assignment
        spec = importlib.util.spec_from_file_location(name, found.origin)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.linear_sum_assignment


def hungarian_max(matrix, floor: float = NEG_INF) -> Matching:
    """Max-similarity assignment of min(rows, cols) pairs, then drop any
    pair with similarity <= floor. Empty matrices yield no pairs rather
    than an error."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
    n_rows, n_cols = m.shape
    if n_rows == 0 or n_cols == 0:
        return _empty()
    rows, cols = _linear_sum_assignment()(m, maximize=True)
    if floor == NEG_INF:
        # the solver never assigns a -inf cell (where every complete
        # assignment needs one, it raises), so this floor drops nothing
        return Matching(np.array([rows, cols]).T)
    return _finish(rows, cols, m, floor)


def brute_force_max(matrix, floor: float = NEG_INF) -> Matching:
    """Exhaustive oracle over all injections of the smaller side.

    Candidates are enumerated in lexicographic pair order and a strictly
    greater total is required to displace the incumbent, so ties resolve to
    the lexicographically smallest assignment."""
    m = np.asarray(matrix, dtype=float)
    n_rows, n_cols = m.shape
    if n_rows == 0 or n_cols == 0:
        return _empty()
    if min(n_rows, n_cols) > 8:
        raise TooLarge(f"brute force limited to min dimension 8, got {min(n_rows, n_cols)}")

    k = min(n_rows, n_cols)
    best_total = -math.inf
    best_pairs: list[tuple[int, int]] | None = None
    if n_rows <= n_cols:
        row_sets = [tuple(range(n_rows))]
    else:
        from itertools import combinations
        row_sets = list(combinations(range(n_rows), k))
    for rows in row_sets:
        for cols in permutations(range(n_cols), k):
            pairs = list(zip(rows, cols))
            total = float(sum(m[r, c] for r, c in pairs))
            if (best_pairs is None or total > best_total
                    or (total == best_total and pairs < best_pairs)):
                best_total = total
                best_pairs = pairs
    assert best_pairs is not None
    rows, cols = np.array(best_pairs, dtype=np.intp).T   # rows ascend in every candidate
    return _finish(rows, cols, m, floor)

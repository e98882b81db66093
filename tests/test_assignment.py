"""Tests for maximum-similarity assignment (production and oracle routes)."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uatrack
from uatrack.assignment import brute_force_max, hungarian_max
from uatrack.errors import TooLarge


def pair_sum(matrix, matching) -> float:
    return float(matrix[tuple(matching.pairs.T)].sum())


SOLVERS = (hungarian_max, brute_force_max)


class TestHungarian:
    def test_identity_matrix(self):
        m = np.eye(3)
        got = hungarian_max(m)
        assert got.pairs.tolist() == [[0, 0], [1, 1], [2, 2]]
        assert pair_sum(m, got) == pytest.approx(3.0)

    def test_anti_diagonal(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        got = hungarian_max(m)
        assert got.pairs.tolist() == [[0, 1], [1, 0]]

    def test_rectangular_more_rows(self):
        m = np.array([[0.9, 0.1], [0.8, 0.7], [0.2, 0.3]])
        got = hungarian_max(m)
        assert got.pairs.tolist() == [[0, 0], [1, 1]]   # row 2 unmatched

    def test_empty_inputs(self):
        for solve in SOLVERS:
            for shape in ((0, 3), (2, 0), (0, 0)):
                got = solve(np.zeros(shape))
                assert got.pairs.shape == (0, 2)
                assert got.pairs.dtype == np.intp

    def test_floor_drops_low_pairs(self):
        m = np.array([[0.9, 0.0], [0.0, -0.5]])
        for solve in SOLVERS:
            assert solve(m, floor=0.0).pairs.tolist() == [[0, 0]]

    def test_floor_zero_treats_zero_as_forbidden(self):
        m = np.zeros((2, 2))
        for solve in SOLVERS:
            assert solve(m, floor=0.0).pairs.shape == (0, 2)


class TestBruteForce:
    def test_matches_known_optimum(self):
        m = np.array([[0.5, 0.9], [0.9, 0.6]])
        got = brute_force_max(m)
        # 0.9 + 0.9 beats 0.5 + 0.6
        assert got.pairs.tolist() == [[0, 1], [1, 0]]
        assert got.pairs.dtype == np.intp

    def test_too_large_raises(self):
        with pytest.raises(TooLarge):
            brute_force_max(np.zeros((9, 9)))

    def test_tie_break_lexicographic(self):
        # both diagonals score 1.0; lexicographically smaller pair list wins
        m = np.array([[0.5, 0.5], [0.5, 0.5]])
        got = brute_force_max(m)
        assert got.pairs.tolist() == [[0, 0], [1, 1]]


class TestDualRouteAgreement:
    """Production Hungarian equals the exhaustive oracle in total score."""

    def test_square_random(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            m = rng.uniform(-1, 1, size=(n, n))
            h = hungarian_max(m)
            b = brute_force_max(m)
            assert pair_sum(m, h) == pytest.approx(pair_sum(m, b), abs=1e-12)

    def test_rectangular_random(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            r = int(rng.integers(1, 5))
            c = int(rng.integers(1, 8))
            m = rng.uniform(-1, 1, size=(r, c))
            h = hungarian_max(m)
            b = brute_force_max(m)
            assert pair_sum(m, h) == pytest.approx(pair_sum(m, b), abs=1e-12)
            assert len(h.pairs) == min(r, c) == len(b.pairs)

    def test_with_floor_random(self):
        rng = np.random.default_rng(303)
        for _ in range(200):
            m = rng.uniform(-1, 1, size=(4, 4))
            h = hungarian_max(m, floor=0.0)
            for r, c in h.pairs:
                assert m[r, c] > 0.0


class TestMatchingInvariants:
    def test_partition_of_rows_and_cols(self):
        """Rows and cols are each matched at most once, and the smaller
        side is matched in full."""
        rng = np.random.default_rng(404)
        for _ in range(200):
            r = int(rng.integers(1, 6))
            c = int(rng.integers(1, 6))
            m = rng.uniform(0, 1, size=(r, c))
            got = hungarian_max(m)
            assert got.pairs.shape == (min(r, c), 2)
            rows, cols = got.pairs.T
            assert len(set(rows.tolist())) == len(rows)
            assert len(set(cols.tolist())) == len(cols)
            assert rows.min() >= 0 and rows.max() < r and cols.min() >= 0 and cols.max() < c

    def test_pairs_sorted(self):
        rng = np.random.default_rng(505)
        for _ in range(100):
            m = rng.uniform(0, 1, size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            for solve in SOLVERS:
                got = solve(m)
                assert got.pairs.dtype == np.intp
                assert np.all(np.diff(got.pairs[:, 0]) > 0)


def test_cli_import_leaves_scipy_optimize_unloaded():
    """`scipy.optimize` is imported on the first match, so commands that
    never match (`--help`, `simulate`, `eval`, `stats`) start without it."""
    pkg_root = str(Path(uatrack.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {pkg_root!r}); import uatrack.cli; "
            "print('scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

"""Tests for maximum-similarity assignment (production and oracle routes)."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uatrack
from uatrack.assignment import Matching, brute_force_max, hungarian_max
from uatrack.errors import TooLarge


class TestHungarian:
    def test_identity_matrix(self):
        m = np.eye(3)
        got = hungarian_max(m)
        assert got.pairs == [(0, 0), (1, 1), (2, 2)]
        assert got.total(m) == pytest.approx(3.0)

    def test_anti_diagonal(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        got = hungarian_max(m)
        assert got.pairs == [(0, 1), (1, 0)]

    def test_rectangular_more_rows(self):
        m = np.array([[0.9, 0.1], [0.8, 0.7], [0.2, 0.3]])
        got = hungarian_max(m)
        assert len(got.pairs) == 2
        assert got.unmatched_rows == [2]
        assert got.unmatched_cols == []

    def test_empty_inputs(self):
        got = hungarian_max(np.zeros((0, 3)))
        assert got.pairs == []
        assert got.unmatched_cols == [0, 1, 2]
        got = hungarian_max(np.zeros((2, 0)))
        assert got.unmatched_rows == [0, 1]

    def test_floor_drops_low_pairs(self):
        m = np.array([[0.9, 0.0], [0.0, -0.5]])
        got = hungarian_max(m, floor=0.0)
        assert got.pairs == [(0, 0)]
        assert got.unmatched_rows == [1]
        assert got.unmatched_cols == [1]

    def test_floor_zero_treats_zero_as_forbidden(self):
        m = np.zeros((2, 2))
        got = hungarian_max(m, floor=0.0)
        assert got.pairs == []


class TestBruteForce:
    def test_matches_known_optimum(self):
        m = np.array([[0.5, 0.9], [0.9, 0.6]])
        got = brute_force_max(m)
        # 0.9 + 0.9 beats 0.5 + 0.6
        assert got.pairs == [(0, 1), (1, 0)]

    def test_too_large_raises(self):
        with pytest.raises(TooLarge):
            brute_force_max(np.zeros((9, 9)))

    def test_tie_break_lexicographic(self):
        # both diagonals score 1.0; lexicographically smaller pair list wins
        m = np.array([[0.5, 0.5], [0.5, 0.5]])
        got = brute_force_max(m)
        assert got.pairs == [(0, 0), (1, 1)]


class TestDualRouteAgreement:
    """Production Hungarian equals the exhaustive oracle in total score."""

    def test_square_random(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            m = rng.uniform(-1, 1, size=(n, n))
            h = hungarian_max(m)
            b = brute_force_max(m)
            assert h.total(m) == pytest.approx(b.total(m), abs=1e-12)

    def test_rectangular_random(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            r = int(rng.integers(1, 5))
            c = int(rng.integers(1, 8))
            m = rng.uniform(-1, 1, size=(r, c))
            h = hungarian_max(m)
            b = brute_force_max(m)
            assert h.total(m) == pytest.approx(b.total(m), abs=1e-12)
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
        rng = np.random.default_rng(404)
        for _ in range(200):
            r = int(rng.integers(1, 6))
            c = int(rng.integers(1, 6))
            m = rng.uniform(0, 1, size=(r, c))
            got = hungarian_max(m)
            rows = sorted([p[0] for p in got.pairs] + got.unmatched_rows)
            cols = sorted([p[1] for p in got.pairs] + got.unmatched_cols)
            assert rows == list(range(r))
            assert cols == list(range(c))

    def test_pairs_sorted(self):
        rng = np.random.default_rng(505)
        for _ in range(100):
            m = rng.uniform(0, 1, size=(5, 5))
            got = hungarian_max(m)
            assert got.pairs == sorted(got.pairs)

    def test_total_empty(self):
        assert Matching([], [], []).total(np.zeros((0, 0))) == 0.0


def test_cli_import_leaves_scipy_optimize_unloaded():
    """`scipy.optimize` is imported on the first match, so commands that
    never match (`--help`, `simulate`, `eval`, `stats`) start without it."""
    pkg_root = str(Path(uatrack.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {pkg_root!r}); import uatrack.cli; "
            "print('scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

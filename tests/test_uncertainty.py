"""Tests for the association risk, adaptive threshold, and verdicts.

The frozen reference values were derived independently (high-precision
arithmetic) before the implementation existed.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from uatrack.errors import EmptyHistory, InvalidConfig
from uatrack.uncertainty import (CLAMP_EPS, UncertaintyMargins,
                                 adaptive_threshold, association_risk,
                                 association_uncertainty, second_best,
                                 tracklet_uncertainty)

M = UncertaintyMargins()


class TestFrozenValues:
    def test_risk_at_half_and_005(self):
        assert association_risk(0.5, 0.05) == pytest.approx(0.7444405, abs=1e-6)

    def test_threshold_at_half(self):
        assert adaptive_threshold(0.5, M) == pytest.approx(1.2909842, abs=1e-6)

    def test_delta_uncertain_case(self):
        v = association_uncertainty(0.4, 0.38, M)
        assert v.delta == pytest.approx(0.2703964, abs=1e-6)
        assert v.delta > 0

    def test_delta_certain_case(self):
        v = association_uncertainty(0.9, 0.8, M)
        assert v.delta == pytest.approx(-0.8754688, abs=1e-6)
        assert not v.delta > 0

    def test_threshold_at_perfect_match(self):
        # -ln(0.5) - ln(0.05 + 1 - 1)
        assert adaptive_threshold(1.0, M) == pytest.approx(
            -math.log(0.5) - math.log(0.05), abs=1e-6)

    def test_near_tie_is_uncertain(self):
        v = association_uncertainty(0.58, 0.60, M)
        assert v.delta == pytest.approx(0.0129, abs=1e-3)
        assert v.delta > 0


class TestClamping:
    def test_risk_finite_at_extremes(self):
        assert math.isfinite(association_risk(0.0, 0.0))
        assert math.isfinite(association_risk(1.0, 1.0))
        assert math.isfinite(association_risk(-0.2, 1.2))

    def test_threshold_clamps_log_argument(self):
        # c1 = 1 + m2 makes the raw log argument zero; the clamp keeps it finite
        t = adaptive_threshold(1.0 + M.m2, M)
        assert math.isfinite(t)
        assert t == pytest.approx(-math.log(M.m1) - math.log(CLAMP_EPS))

    def test_verdict_fields_consistent(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            c1, c2 = rng.uniform(0.01, 0.99, 2)
            v = association_uncertainty(float(c1), float(c2), M)
            assert v.delta == pytest.approx(v.sigma - v.gamma)
            assert v.c1 == c1 and v.c2 == c2


class TestMonotonicity:
    def test_delta_decreasing_in_c1(self):
        c2 = 0.4
        deltas = [association_uncertainty(c1, c2, M).delta
                  for c1 in np.linspace(0.01, 0.99, 200)]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_delta_increasing_in_c2(self):
        c1 = 0.6
        deltas = [association_uncertainty(c1, c2, M).delta
                  for c2 in np.linspace(0.01, 0.99, 200)]
        assert all(a < b for a, b in zip(deltas, deltas[1:]))


SCORE = st.floats(-0.5, 1.5, allow_nan=False)


class TestArrayForm:
    @given(st.lists(st.tuples(SCORE, SCORE), min_size=1, max_size=40),
           st.sampled_from([M, UncertaintyMargins(m1=0.3, m2=0.2)]))
    # c1 <= 0, c1 >= 1, c2 >= 1, and c1 at and past 1 + m2 (the threshold's clamp)
    @example([(-0.2, 0.3), (0.0, 0.0), (1.0, 0.5), (1.3, 0.2), (0.4, 1.0), (0.4, 1.2),
              (1.0 + M.m2, 0.1), (1.0 + M.m2 + 1e-7, 0.1), (0.58, 0.6)], M)
    def test_array_equals_scalar_elementwise(self, pairs, margins):
        c1, c2 = (np.array(col) for col in zip(*pairs))
        arrays = association_uncertainty(c1, c2, margins)
        for i, (a, b) in enumerate(pairs):
            scalar = association_uncertainty(a, b, margins)
            assert tuple(col[i] for col in arrays) == scalar


class TestSecondBest:
    def test_excludes_assigned_column(self):
        sim = np.array([[0.9, 0.7, 0.3],
                        [0.2, 0.1, 0.6]])
        assert second_best(sim, [0, 0, 1], [0, 1, 2]).tolist() == [0.7, 0.9, 0.2]

    def test_ties(self):
        # a tied maximum is its own runner-up, whichever copy is assigned
        sim = np.array([[0.5, 0.5, 0.1],
                        [0.4, 0.8, 0.8]])
        assert second_best(sim, [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2]).tolist() == \
            [0.5, 0.5, 0.5, 0.8, 0.8, 0.8]

    def test_single_entry_row(self):
        # a single-column matrix has no competitor in any row
        sim = np.array([[0.8], [-0.3]])
        assert second_best(sim, [0, 1], [0, 0]).tolist() == [0.0, 0.0]

    def test_no_pairs(self):
        assert second_best(np.ones((2, 3)), [], []).tolist() == []

    def test_sim_left_unchanged(self):
        sim = np.array([[0.9, 0.7], [0.2, 0.4]])
        second_best(sim, [0, 1], [0, 1])
        assert sim.tolist() == [[0.9, 0.7], [0.2, 0.4]]

    def test_random_rows(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n_rows, n_cols = int(rng.integers(1, 6)), int(rng.integers(2, 8))
            sim = rng.uniform(-3, 3, size=(n_rows, n_cols))   # not only cosines
            rows = rng.integers(n_rows, size=4).tolist()
            cols = rng.integers(n_cols, size=4).tolist()
            expect = [max(x for i, x in enumerate(sim[r].tolist()) if i != c)
                      for r, c in zip(rows, cols)]
            assert second_best(sim, rows, cols).tolist() == expect


class TestTrackletUncertainty:
    def test_frozen_value(self):
        # mean of exp over [0, ln 2, ln 3] = (1 + 2 + 3) / 3
        assert tracklet_uncertainty([0.0, math.log(2), math.log(3)]) == \
            pytest.approx(2.0, abs=1e-6)

    def test_single_zero_delta(self):
        assert tracklet_uncertainty([0.0]) == pytest.approx(1.0)

    def test_empty_history_raises(self):
        with pytest.raises(EmptyHistory):
            tracklet_uncertainty([])

    def test_monotone_in_deltas(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            d = rng.normal(size=5)
            assert tracklet_uncertainty(d + 0.1) > tracklet_uncertainty(d)


class TestMarginsValidation:
    @pytest.mark.parametrize("m1,m2", [(0.0, 0.05), (1.5, 0.05), (0.5, -0.1)])
    def test_bad_margins_rejected(self, m1, m2):
        with pytest.raises(InvalidConfig):
            UncertaintyMargins(m1=m1, m2=m2)

    def test_defaults(self):
        assert M.m1 == 0.5
        assert M.m2 == 0.05

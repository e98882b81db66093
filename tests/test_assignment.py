"""Tests for maximum-similarity assignment (production and oracle routes)."""

import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uatrack
from uatrack import cli
from uatrack.assignment import NEG_INF, Matching, brute_force_max, hungarian_max
from uatrack.errors import TooLarge

PKG_ROOT = str(Path(uatrack.__file__).resolve().parent.parent)


def python_code(code: str) -> str:
    """`code` for a fresh interpreter that imports this checkout's uatrack."""
    return f"import sys; sys.path.insert(0, {PKG_ROOT!r})\n{code}"


def run_python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", python_code(code)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def pair_sum(matrix, matching) -> float:
    return float(matrix[tuple(matching.pairs.T)].sum())


SOLVERS = (hungarian_max, brute_force_max)

# `hungarian_max` behind a pipe, in an interpreter whose path finder cannot
# see `_lsap`, so the solver comes from the public `scipy.optimize` import.
# It answers one pickled (matrix, floor) with the pickled pairs.
FALLBACK_SERVER = """
import pickle
from importlib.machinery import PathFinder

find_spec = PathFinder.find_spec.__func__


def find_spec_without_lsap(cls, name, path=None, target=None):
    return None if name == "_lsap" else find_spec(cls, name, path, target)


PathFinder.find_spec = classmethod(find_spec_without_lsap)
from uatrack.assignment import hungarian_max

hungarian_max([[1.0]])
pickle.dump("scipy.optimize" in sys.modules, sys.stdout.buffer)
sys.stdout.flush()
while True:
    try:
        matrix, floor = pickle.load(sys.stdin.buffer)
    except EOFError:
        break
    pickle.dump(hungarian_max(matrix, floor).pairs, sys.stdout.buffer)
    sys.stdout.flush()
"""


@pytest.fixture(scope="module")
def fallback_max():
    """`hungarian_max` as the loader's fallback computes it."""
    with subprocess.Popen([sys.executable, "-c", python_code(FALLBACK_SERVER)],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        assert pickle.load(proc.stdout) is True, "the fallback did not import scipy.optimize"

        def solve(matrix, floor: float = NEG_INF) -> Matching:
            pickle.dump((np.asarray(matrix, dtype=float), floor), proc.stdin)
            proc.stdin.flush()
            return Matching(pickle.load(proc.stdout))

        yield solve
        proc.stdin.close()


@pytest.fixture
def solvers(fallback_max):
    return (*SOLVERS, fallback_max)


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

    def test_empty_inputs(self, solvers):
        for solve in solvers:
            for shape in ((0, 3), (2, 0), (0, 0)):
                got = solve(np.zeros(shape))
                assert got.pairs.shape == (0, 2)
                assert got.pairs.dtype == np.intp

    def test_floor_drops_low_pairs(self, solvers):
        m = np.array([[0.9, 0.0], [0.0, -0.5]])
        for solve in solvers:
            assert solve(m, floor=0.0).pairs.tolist() == [[0, 0]]

    def test_floor_zero_treats_zero_as_forbidden(self, solvers):
        m = np.zeros((2, 2))
        for solve in solvers:
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

    def test_forbidden_first_candidate(self):
        """The first candidate enumerated may total -inf; a finite one
        later still wins."""
        m = np.array([[NEG_INF, 1.0], [2.0, NEG_INF]])
        assert brute_force_max(m).pairs.tolist() == [[0, 1], [1, 0]]


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

    def test_forbidden_cells_at_default_floor(self):
        """At the default floor `hungarian_max` keeps every pair the solver
        returns, and the oracle drops pairs <= floor: on matrices with -inf
        cells that still allow a full assignment the two agree pair for
        pair, and no -inf cell is matched."""
        rng = np.random.default_rng(404)
        forbidden = 0
        for _ in range(300):
            r, c = (int(x) for x in rng.integers(1, 7, size=2))
            m = rng.uniform(-1, 1, size=(r, c))
            k = min(r, c)
            allowed = np.zeros((r, c), bool)   # one full assignment stays finite
            allowed[rng.permutation(r)[:k], rng.permutation(c)[:k]] = True
            m[~allowed & (rng.random((r, c)) < 0.6)] = -np.inf
            h, b = hungarian_max(m), brute_force_max(m)
            assert h.pairs.tolist() == b.pairs.tolist()
            assert len(h.pairs) == k and np.isfinite(m[tuple(h.pairs.T)]).all()
            forbidden += int(np.isinf(m).sum())
        assert forbidden > 1000

    def test_only_forbidden_cells_complete_raises(self):
        """Where every full assignment needs a -inf cell the solver raises,
        so the default floor never has such a pair to drop."""
        with pytest.raises(ValueError):
            hungarian_max(np.array([[1.0, NEG_INF], [NEG_INF, NEG_INF]]))


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

    def test_pairs_sorted(self, solvers):
        rng = np.random.default_rng(505)
        for _ in range(100):
            m = rng.uniform(0, 1, size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            for solve in solvers:
                got = solve(m)
                assert got.pairs.dtype == np.intp
                assert np.all(np.diff(got.pairs[:, 0]) > 0)


class TestSolverLoader:
    """`hungarian_max` loads scipy's compiled solver without `scipy.optimize`."""

    @pytest.mark.parametrize("first", ["uatrack", "scipy.optimize"])
    def test_loaded_function_is_scipys(self, first):
        """Either import may come first: the second reuses the first's
        `_lsap` module, and both end with the one function."""
        solve = ("from uatrack.assignment import _linear_sum_assignment, hungarian_max\n"
                 "hungarian_max([[1.0]])\n")
        if first == "uatrack":
            imports = [solve + "assert 'scipy.optimize' not in sys.modules\n",
                       "import scipy.optimize\n"]
        else:
            imports = ["import scipy.optimize\n", solve]
        code = (imports[0] + "lsap = sys.modules['scipy.optimize._lsap']\n" + imports[1]
                + "print(sys.modules['scipy.optimize._lsap'] is lsap, "
                  "scipy.optimize.linear_sum_assignment is _linear_sum_assignment() "
                  "is lsap.linear_sum_assignment)")
        assert run_python(code) == "True True"

    def test_fallback_gives_the_same_pairs(self, fallback_max):
        """Random, tied, zero-heavy and rectangular matrices, with and
        without a floor, give the loaded solver's pairs exactly."""
        rng = np.random.default_rng(606)
        matrices = [np.full((4, 4), 0.5), np.ones((3, 5)), np.zeros((5, 2))]
        for _ in range(60):
            shape = tuple(int(n) for n in rng.integers(1, 9, size=2))
            matrices += [
                rng.uniform(-1, 1, size=shape),
                rng.integers(0, 3, size=shape) / 2.0,                    # ties
                rng.uniform(0, 1, size=shape) * (rng.uniform(size=shape) < 0.2),   # zero-heavy
            ]
        for m in matrices:
            for floor in (NEG_INF, 0.0):
                want = hungarian_max(m, floor).pairs
                got = fallback_max(m, floor).pairs
                assert got.dtype == want.dtype and np.array_equal(got, want), (m, floor)


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    """`import uatrack.cli` loads nothing of scipy, so commands that never
    match (`--help`, `simulate`, `eval`, `stats`) start without it; `track`
    loads only the compiled solver, `scipy.optimize._lsap`."""
    loaded = "print('scipy.optimize' in sys.modules, 'scipy.optimize._lsap' in sys.modules)"
    assert run_python(f"import uatrack.cli\n{loaded}") == "False False"

    (tmp_path / "scenario.txt").write_text("seed = 3\nnum_objects = 4\nnum_frames = 20\n")
    bundle = tmp_path / "bundle"
    assert cli.main(["simulate", "--config", str(tmp_path / "scenario.txt"),
                     "--out", str(bundle)]) == 0
    argv = ["track", "--dets", str(bundle / "det.txt"), "--embs", str(bundle / "emb.csv"),
            "--out", str(tmp_path / "results.txt")]
    assert run_python(f"import uatrack.cli\nassert uatrack.cli.main({argv!r}) == 0\n"
                      f"{loaded}") == "False True"

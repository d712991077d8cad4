"""Randomized cross-check of the Kuhn-Munkres solver against brute force.

The device mapper trusts :mod:`repro.matching.hungarian` to be *optimal*;
this suite verifies optimality exhaustively on small rectangular matrices
(where all assignments can be enumerated), including the degenerate shapes
the mapper actually produces: empty graphs, single rows/columns, heavy ties
and near-infinite sentinel costs.
"""

import itertools

import numpy as np
import pytest

from repro.matching import hungarian
from repro.matching.hungarian import (
    _SCALAR_THRESHOLD,
    _solve_square,
    _solve_square_scalar,
    assignment_weight,
    greedy_assignment,
    maximum_weight_assignment,
    minimum_cost_assignment,
)


def reference_solve_square(cost):
    """The original scalar-loop Jonker-Volgenant solver, kept verbatim.

    The production solver routes small matrices through a scalar fast path
    and larger ones through numpy-vectorized inner loops; both must
    reproduce this reference *assignment* (not merely its cost), pinning
    the tie-breaking order of the vectorized argmin.
    """
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    INF = float("inf")
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match_col = np.full(n + 1, 0, dtype=int)
    way = np.zeros(n + 1, dtype=int)
    padded = np.zeros((n + 1, n + 1))
    padded[1:, 1:] = cost
    for row in range(1, n + 1):
        match_col[0] = row
        j0 = 0
        minv = np.full(n + 1, INF)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = padded[i0, j] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_col[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while True:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
            if j0 == 0:
                break
    assignment = [0] * n
    for j in range(1, n + 1):
        if match_col[j] != 0:
            assignment[match_col[j] - 1] = j - 1
    return assignment


def brute_force_min_cost(cost):
    """Exhaustive minimum-cost assignment on a small rectangular matrix."""
    cost = np.asarray(cost, dtype=float)
    rows, cols = cost.shape
    best = None
    if rows <= cols:
        for combo in itertools.permutations(range(cols), rows):
            total = sum(cost[r, c] for r, c in enumerate(combo))
            if best is None or total < best:
                best = total
    else:
        for combo in itertools.permutations(range(rows), cols):
            total = sum(cost[r, c] for c, r in enumerate(combo))
            if best is None or total < best:
                best = total
    return best


def solver_cost(cost):
    assignment = minimum_cost_assignment(cost)
    cost = np.asarray(cost, dtype=float)
    assert len(assignment) == min(cost.shape)
    rows = [r for r, _ in assignment]
    cols = [c for _, c in assignment]
    assert len(set(rows)) == len(rows)
    assert len(set(cols)) == len(cols)
    return sum(cost[r, c] for r, c in assignment)


class TestDegenerateShapes:
    def test_empty_matrix(self):
        assert minimum_cost_assignment([]) == []
        assert maximum_weight_assignment([]) == []

    def test_single_cell(self):
        assert minimum_cost_assignment([[7.0]]) == [(0, 0)]

    def test_one_by_n_picks_cheapest_column(self):
        assert minimum_cost_assignment([[5.0, 1.0, 3.0]]) == [(0, 1)]

    def test_n_by_one_picks_cheapest_row(self):
        assignment = minimum_cost_assignment([[5.0], [1.0], [3.0]])
        assert assignment == [(1, 0)]

    def test_all_ties_assigns_everyone_once(self):
        cost = np.ones((4, 4))
        assignment = minimum_cost_assignment(cost)
        assert sorted(r for r, _ in assignment) == [0, 1, 2, 3]
        assert sorted(c for _, c in assignment) == [0, 1, 2, 3]
        assert solver_cost(cost) == pytest.approx(4.0)

    def test_infinite_costs_rejected(self):
        with pytest.raises(ValueError):
            minimum_cost_assignment([[1.0, float("inf")], [2.0, 3.0]])
        with pytest.raises(ValueError):
            maximum_weight_assignment([[float("nan"), 1.0]])

    def test_large_sentinel_costs_avoided(self):
        # The mapper encodes "forbidden" edges as huge-but-finite costs; the
        # solver must route around them when an alternative exists.
        big = 1e15
        cost = [[big, 1.0], [2.0, big]]
        assignment = sorted(minimum_cost_assignment(cost))
        assert assignment == [(0, 1), (1, 0)]


class TestRandomizedCrossCheck:
    @pytest.mark.parametrize("seed", range(20))
    def test_square_matrices_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        cost = rng.uniform(0.0, 10.0, size=(n, n))
        assert solver_cost(cost) == pytest.approx(brute_force_min_cost(cost))

    @pytest.mark.parametrize("seed", range(20, 40))
    def test_rectangular_matrices_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        cost = rng.uniform(0.0, 10.0, size=(rows, cols))
        assert solver_cost(cost) == pytest.approx(brute_force_min_cost(cost))

    @pytest.mark.parametrize("seed", range(40, 52))
    def test_tie_heavy_matrices_match_brute_force(self, seed):
        # Integer costs from a tiny alphabet force many optimal ties; the
        # solver must still land on *an* optimum.
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(2, 6))
        cols = int(rng.integers(2, 6))
        cost = rng.integers(0, 3, size=(rows, cols)).astype(float)
        assert solver_cost(cost) == pytest.approx(brute_force_min_cost(cost))

    @pytest.mark.parametrize("seed", range(52, 64))
    def test_maximum_weight_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        weights = rng.uniform(0.0, 5.0, size=(rows, cols))
        assignment = maximum_weight_assignment(weights)
        best = -brute_force_min_cost(-weights)
        assert assignment_weight(weights, assignment) == pytest.approx(best)

    @pytest.mark.parametrize("seed", range(64, 72))
    def test_optimal_never_worse_than_greedy(self, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.0, 5.0, size=(5, 5))
        optimal = assignment_weight(weights, maximum_weight_assignment(weights))
        greedy = assignment_weight(weights, greedy_assignment(weights))
        assert optimal >= greedy - 1e-9


class TestVectorizedSolver:
    """Pin the vectorized solver against the scalar reference implementation.

    These matrices exercise the numpy fast path (sizes beyond the scalar
    threshold), the scalar fast path, and the shapes the device mapper
    produces at scale: rectangular fleets, all-zero (stateless) graphs and
    tie-heavy duplicate weights.  Assignments -- not just costs -- must match
    so the vectorized argmin tie-breaking is pinned exactly.
    """

    @pytest.mark.parametrize("seed", range(100, 120))
    def test_assignments_identical_to_reference_across_threshold(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 2 * _SCALAR_THRESHOLD))
        cost = rng.uniform(0.0, 10.0, size=(n, n))
        assert _solve_square(cost.copy()) == reference_solve_square(cost)

    @pytest.mark.parametrize("seed", range(120, 136))
    def test_tie_heavy_assignments_identical_to_reference(self, seed):
        # Integer costs from a tiny alphabet maximise duplicate weights; the
        # exact optimum chosen depends entirely on tie-breaking order.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 14))
        cost = rng.integers(0, 2, size=(n, n)).astype(float)
        assert _solve_square(cost.copy()) == reference_solve_square(cost)

    @pytest.mark.parametrize("n", [1, 4, _SCALAR_THRESHOLD, _SCALAR_THRESHOLD + 1, 12])
    def test_all_zero_square_yields_identity(self, n):
        # The device mapper skips inner solves for stateless instances on the
        # grounds that KM on an all-zero matrix is the identity pairing; this
        # pins that equivalence on both solver paths.
        assert _solve_square(np.zeros((n, n))) == list(range(n))

    @pytest.mark.parametrize("shape", [(3, 7), (7, 3), (2, 12), (12, 2)])
    def test_all_zero_rectangular_yields_identity_prefix(self, shape):
        assignment = minimum_cost_assignment(np.zeros(shape))
        expected = [(i, i) for i in range(min(shape))]
        assert sorted(assignment) == expected

    @pytest.mark.parametrize("seed", range(136, 148))
    def test_large_square_matches_scipy(self, seed):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 16))
        cost = rng.uniform(0.0, 10.0, size=(n, n))
        assignment = minimum_cost_assignment(cost)
        rows, cols = scipy_opt.linear_sum_assignment(cost)
        assert sum(cost[r, c] for r, c in assignment) == pytest.approx(
            cost[rows, cols].sum()
        )

    @pytest.mark.parametrize("seed", range(148, 160))
    def test_large_rectangular_matches_scipy(self, seed):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(2, 14))
        cols = int(rng.integers(2, 14))
        cost = rng.uniform(0.0, 10.0, size=(rows, cols))
        assignment = minimum_cost_assignment(cost)
        assert len(assignment) == min(rows, cols)
        srows, scols = scipy_opt.linear_sum_assignment(cost)
        assert sum(cost[r, c] for r, c in assignment) == pytest.approx(
            cost[srows, scols].sum()
        )

    @pytest.mark.parametrize("seed", range(160, 170))
    def test_duplicate_weight_maximum_matching_is_optimal(self, seed):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(4, 12))
        cols = int(rng.integers(4, 12))
        # Few distinct values -> many optimal assignments.
        weights = rng.choice([0.0, 1.0, 2.5], size=(rows, cols))
        assignment = maximum_weight_assignment(weights)
        srows, scols = scipy_opt.linear_sum_assignment(weights, maximize=True)
        assert assignment_weight(weights, assignment) == pytest.approx(
            weights[srows, scols].sum()
        )


class TestSolverPathsAgree:
    """Run the scalar and the vectorized sweep on the same matrices.

    :func:`_solve_square` picks its path by size alone, so the tests above
    check each path only on its own side of ``_SCALAR_THRESHOLD``.  The
    device mapper solves every flat-matching component cold, and a component
    of eight rows or fewer takes the scalar path: both paths must give the
    same assignment at every size, on both sides of the threshold.
    """

    @staticmethod
    def vectorized(cost, monkeypatch):
        monkeypatch.setattr(hungarian, "_SCALAR_THRESHOLD", 0)
        return _solve_square(cost.copy())

    @pytest.mark.parametrize("seed", range(170, 178))
    def test_paths_agree_on_uniform_costs(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 2 * _SCALAR_THRESHOLD))
        cost = rng.uniform(0.0, 10.0, size=(n, n))
        scalar = _solve_square_scalar(cost)
        assert scalar == reference_solve_square(cost)
        assert self.vectorized(cost, monkeypatch) == scalar

    @pytest.mark.parametrize("seed", range(178, 186))
    def test_paths_agree_on_tie_heavy_costs(self, seed, monkeypatch):
        # The mapper's costs are ``max - weight`` over mostly-zero weights, so
        # most cells tie and the chosen optimum rests on tie-breaking order.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 2 * _SCALAR_THRESHOLD))
        cost = rng.integers(0, 2, size=(n, n)).astype(float)
        scalar = _solve_square_scalar(cost)
        assert scalar == reference_solve_square(cost)
        assert self.vectorized(cost, monkeypatch) == scalar

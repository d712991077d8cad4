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

from repro.matching.hungarian import (
    _solve_square,
    assignment_weight,
    greedy_assignment,
    maximum_weight_assignment,
    minimum_cost_assignment,
)


def reference_solve_square(cost):
    """The original scalar-loop Jonker-Volgenant solver, kept verbatim.

    It walks every column on every step, 1-based, with column 0 as the
    start of each augmenting path.  The production solver walks only the
    free columns; it must reproduce this reference *assignment* (not merely
    its cost), which pins its tie-breaking order.
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


def uniform_costs(rng, n):
    return rng.uniform(0.0, 10.0, size=(n, n))


def tie_heavy_costs(rng, n):
    # Integer costs from a tiny alphabet maximise duplicate weights; the
    # exact optimum chosen depends entirely on tie-breaking order.
    return rng.integers(0, 2, size=(n, n)).astype(float)


def mapper_shaped_costs(rng, n):
    # What the device mapper solves: ``max - w`` over mostly-zero integer
    # weights (byte counts), so most cells tie at the maximum.
    weights = np.floor(rng.uniform(0.0, 4.0, size=(n, n))) * 2.0**27
    weights[rng.random((n, n)) < 0.75] = 0.0
    return weights.max() - weights


class TestSolverMatchesReference:
    """Pin the solver's assignments against the verbatim reference loop.

    The device mapper solves matrices of 1 to 33 rows, mostly the 4x4
    intra-instance blocks.  Every size from 1 to 40 runs on three kinds of
    cost: uniform, tie-heavy, and shaped like the mapper's.  Assignments --
    not just costs -- must match, so the tie-breaking order is pinned.
    """

    @pytest.mark.parametrize("n", range(1, 41))
    @pytest.mark.parametrize(
        "costs", [uniform_costs, tie_heavy_costs, mapper_shaped_costs]
    )
    def test_assignment_identical_to_reference(self, n, costs):
        rng = np.random.default_rng(1000 + n)
        for _ in range(3):
            cost = costs(rng, n)
            assert _solve_square(cost.copy()) == reference_solve_square(cost)

    @pytest.mark.parametrize("n", [1, 4, 8, 9, 12, 33])
    def test_all_zero_square_yields_identity(self, n):
        # The device mapper skips inner solves for stateless instances on the
        # grounds that KM on an all-zero matrix is the identity pairing.
        assert _solve_square(np.zeros((n, n))) == list(range(n))

    @pytest.mark.parametrize("shape", [(3, 7), (7, 3), (2, 12), (12, 2)])
    def test_all_zero_rectangular_yields_identity_prefix(self, shape):
        assignment = minimum_cost_assignment(np.zeros(shape))
        expected = [(i, i) for i in range(min(shape))]
        assert sorted(assignment) == expected


class TestMatchesScipy:
    """Optimal totals against ``scipy.optimize.linear_sum_assignment``."""

    @pytest.mark.parametrize("seed", range(136, 148))
    def test_square_matches_scipy(self, seed):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 41))
        cost = rng.uniform(0.0, 10.0, size=(n, n))
        assignment = minimum_cost_assignment(cost)
        rows, cols = scipy_opt.linear_sum_assignment(cost)
        assert sum(cost[r, c] for r, c in assignment) == pytest.approx(
            cost[rows, cols].sum()
        )

    @pytest.mark.parametrize("seed", range(148, 160))
    def test_rectangular_matches_scipy(self, seed):
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

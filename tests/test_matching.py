"""Tests for the Kuhn-Munkres matching substrate (cross-checked against scipy)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from repro.matching.hungarian import (
    assignment_weight,
    greedy_assignment,
    maximum_weight_assignment,
    minimum_cost_assignment,
)

from oracles.bipartite import BipartiteGraph


def scipy_min_cost(matrix):
    rows, cols = linear_sum_assignment(matrix)
    return float(np.asarray(matrix)[rows, cols].sum())


def scipy_max_weight(matrix):
    rows, cols = linear_sum_assignment(-np.asarray(matrix))
    return float(np.asarray(matrix)[rows, cols].sum())


class TestHungarian:
    def test_simple_known_case(self):
        cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
        pairs = minimum_cost_assignment(cost)
        total = sum(cost[r][c] for r, c in pairs)
        assert total == scipy_min_cost(cost)

    def test_rectangular_more_rows(self):
        weights = [[5, 1], [4, 8], [7, 6]]
        pairs = maximum_weight_assignment(weights)
        assert len(pairs) == 2
        assert assignment_weight(weights, pairs) == scipy_max_weight(weights)

    def test_rectangular_more_columns(self):
        weights = [[5, 1, 9, 2], [4, 8, 1, 3]]
        pairs = maximum_weight_assignment(weights)
        assert len(pairs) == 2
        assert assignment_weight(weights, pairs) == scipy_max_weight(weights)

    def test_empty_matrix(self):
        assert minimum_cost_assignment(np.zeros((0, 0))) == []
        assert maximum_weight_assignment(np.zeros((0, 3))) == []

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            minimum_cost_assignment([[1.0, float("inf")]])

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            maximum_weight_assignment([1.0, 2.0])

    def test_assignment_is_a_matching(self):
        rng = np.random.default_rng(0)
        weights = rng.random((6, 6))
        pairs = maximum_weight_assignment(weights)
        rows = [r for r, _ in pairs]
        cols = [c for _, c in pairs]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)

    @given(
        rows=st.integers(min_value=1, max_value=7),
        cols=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_on_random_instances(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.random((rows, cols)) * rng.integers(1, 50)
        mine_min = sum(matrix[r, c] for r, c in minimum_cost_assignment(matrix))
        assert mine_min == pytest.approx(scipy_min_cost(matrix), abs=1e-8)
        mine_max = assignment_weight(matrix, maximum_weight_assignment(matrix))
        assert mine_max == pytest.approx(scipy_max_weight(matrix), abs=1e-8)

    @given(
        rows=st.integers(min_value=1, max_value=6),
        cols=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_greedy_never_beats_optimal(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.random((rows, cols))
        optimal = assignment_weight(matrix, maximum_weight_assignment(matrix))
        greedy = assignment_weight(matrix, greedy_assignment(matrix))
        assert greedy <= optimal + 1e-9

    def test_greedy_suboptimal_example(self):
        """A classic instance where the greedy heuristic loses to KM."""
        weights = [[10, 9], [9, 1]]
        greedy = assignment_weight(weights, greedy_assignment(weights))
        optimal = assignment_weight(weights, maximum_weight_assignment(weights))
        assert optimal == 18
        assert greedy == 11
        assert greedy < optimal


class TestBipartiteGraph:
    def test_weights_default_to_zero(self):
        graph = BipartiteGraph()
        graph.add_left("u0")
        graph.add_right("v0")
        assert graph.weight("u0", "v0") == 0.0

    def test_negative_weight_rejected(self):
        graph = BipartiteGraph()
        with pytest.raises(ValueError):
            graph.set_weight("u0", "v0", -1.0)

    def test_matrix_layout(self):
        graph = BipartiteGraph()
        graph.set_weight("u0", "v0", 3.0)
        graph.set_weight("u1", "v1", 5.0)
        matrix = graph.weight_matrix()
        assert matrix.shape == (2, 2)
        assert matrix[0, 0] == 3.0
        assert matrix[1, 1] == 5.0

    def test_maximum_matching_prefers_heavy_edges(self):
        graph = BipartiteGraph()
        graph.set_weight("u0", "v0", 10.0)
        graph.set_weight("u0", "v1", 1.0)
        graph.set_weight("u1", "v0", 9.0)
        graph.set_weight("u1", "v1", 8.0)
        matching = graph.maximum_weight_matching()
        assert matching["u0"] == "v0"
        assert matching["u1"] == "v1"
        assert graph.matching_weight(matching) == 18.0

    def test_empty_graph_matches_nothing(self):
        assert BipartiteGraph().maximum_weight_matching() == {}
        assert BipartiteGraph().greedy_matching() == {}

    def test_num_edges(self):
        graph = BipartiteGraph()
        graph.set_weight("u0", "v0", 1.0)
        graph.set_weight("u0", "v1", 1.0)
        assert graph.num_edges == 2

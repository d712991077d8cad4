"""Kuhn-Munkres (Hungarian) algorithm for optimal assignment.

SpotServe's device mapper formulates the "which GPU goes to which
pipeline-stage-shard position" decision as maximum-weight bipartite matching
and solves it with the Kuhn-Munkres algorithm (Section 3.3).  This module
implements the O(n^3) Jonker-style shortest-augmenting-path variant from
scratch (no scipy dependency in the library code; the test-suite
cross-checks against ``scipy.optimize.linear_sum_assignment``).

Two public entry points are provided:

* :func:`minimum_cost_assignment` -- classic rectangular assignment
  minimising total cost.
* :func:`maximum_weight_assignment` -- the form the device mapper uses:
  maximise the total amount of reusable context.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

_INF = float("inf")

#: Below this size the scalar solver beats the vectorized one (numpy call
#: overhead exceeds the loop cost on tiny matrices, and the device mapper's
#: inner intra-instance matchings are typically 4x4).  Both solvers perform
#: the identical arithmetic in the identical order, so the choice of path
#: never changes an assignment (pinned by tests/test_matching_bruteforce.py).
_SCALAR_THRESHOLD = 8


def _extract_assignment(match_col: Sequence[int], n: int) -> List[int]:
    """Row -> column assignment (0-based) from the 1-based matched columns."""
    assignment = [0] * n
    for j in range(1, n + 1):
        if match_col[j] != 0:
            assignment[match_col[j] - 1] = j - 1
    return assignment


def _solve_square_scalar(cost: np.ndarray) -> List[int]:
    """Scalar-loop variant of :func:`_solve_square` for tiny matrices."""
    n = cost.shape[0]
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match_col = [0] * (n + 1)
    way = [0] * (n + 1)
    padded = [[0.0] * (n + 1)] + [
        [0.0] + [float(cost[i, j]) for j in range(n)] for i in range(n)
    ]

    for row in range(1, n + 1):
        match_col[0] = row
        j0 = 0
        minv = [_INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            row_i0 = padded[i0]
            u_i0 = u[i0]
            delta = _INF
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row_i0[j] - u_i0 - v[j]
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

    return _extract_assignment(match_col, n)


def _solve_square(cost: np.ndarray) -> List[int]:
    """Solve the square assignment problem, returning column of each row.

    Implementation of the Jonker-Volgenant style shortest augmenting path
    formulation of the Hungarian method with potentials, O(n^3).  The inner
    loops are vectorized with numpy; tiny matrices take the scalar path.
    """
    n = cost.shape[0]
    if n <= _SCALAR_THRESHOLD:
        return _solve_square_scalar(cost)
    # Potentials for rows (u) and columns (v); way[j] remembers the previous
    # column on the augmenting path to column j.
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match_col = np.full(n + 1, 0, dtype=int)  # p[j] = row matched to column j (1-based)
    way = np.zeros(n + 1, dtype=int)

    # 1-based padded cost matrix for cleaner index arithmetic.
    padded = np.zeros((n + 1, n + 1))
    padded[1:, 1:] = cost
    for row in range(1, n + 1):
        match_col[0] = row
        j0 = 0
        minv = np.full(n + 1, _INF)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            # Relax every free column against the newly used column j0.  The
            # element-wise arithmetic and the strict ``<`` comparisons mirror
            # the scalar loop exactly, so potentials, reduced costs and the
            # final assignment are bit-for-bit identical to the scalar path.
            free = ~used
            free[0] = False
            cur = padded[i0] - u[i0] - v
            improved = free & (cur < minv)
            minv[improved] = cur[improved]
            way[improved] = j0
            # Among free columns pick the smallest reduced cost; argmin
            # returns the first (lowest-index) minimiser, matching the
            # strict-inequality running minimum of the scalar loop.
            candidates = np.where(free, minv, _INF)
            j1 = int(np.argmin(candidates[1:])) + 1
            delta = candidates[j1]
            # match_col is injective on the used columns (each matched column
            # holds a distinct row and column 0 holds the yet-unmatched
            # current row), so the fancy-indexed += touches each row once.
            u[match_col[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        # Augment along the found path.
        while True:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
            if j0 == 0:
                break
    return _extract_assignment(match_col, n)


def minimum_cost_assignment(
    cost_matrix: Sequence[Sequence[float]],
) -> List[Tuple[int, int]]:
    """Minimum-cost assignment on a rectangular cost matrix.

    Returns a list of ``(row, column)`` pairs covering ``min(n_rows, n_cols)``
    assignments with the smallest possible total cost.
    """
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.size == 0:
        return []
    if cost.ndim != 2:
        raise ValueError("cost_matrix must be two-dimensional")
    if not np.isfinite(cost).all():
        raise ValueError("cost_matrix entries must be finite")
    rows, cols = cost.shape
    size = max(rows, cols)
    # Pad to a square matrix with zeros: padded cells are "dummy" assignments.
    padded = np.zeros((size, size))
    padded[:rows, :cols] = cost
    return [
        (row, col)
        for row, col in enumerate(_solve_square(padded))
        if row < rows and col < cols
    ]


def maximum_weight_assignment(
    weight_matrix: Sequence[Sequence[float]],
) -> List[Tuple[int, int]]:
    """Maximum-weight assignment (the device mapper's objective).

    Every row (GPU) is matched to at most one column (topology position) and
    vice versa, maximising the total weight (reusable context bytes).
    """
    weights = np.asarray(weight_matrix, dtype=float)
    if weights.size == 0:
        return []
    if weights.ndim != 2:
        raise ValueError("weight_matrix must be two-dimensional")
    if not np.isfinite(weights).all():
        raise ValueError("weight_matrix entries must be finite")
    # Maximising weight == minimising (max_weight - weight).
    return minimum_cost_assignment(weights.max() - weights)


def assignment_weight(
    weight_matrix: Sequence[Sequence[float]], assignment: Sequence[Tuple[int, int]]
) -> float:
    """Total weight of *assignment* under *weight_matrix*."""
    weights = np.asarray(weight_matrix, dtype=float)
    return float(sum(weights[row, col] for row, col in assignment))


def greedy_assignment(weight_matrix: Sequence[Sequence[float]]) -> List[Tuple[int, int]]:
    """Greedy maximum-weight matching baseline (used in mapper ablations).

    Repeatedly picks the globally heaviest remaining edge.  Cheaper than KM
    but not optimal; SpotServe's ablation motivates the optimal matcher.

    Zero-weight edges are skipped outright: they cannot change the matched
    weight, and materialising every cell of the matrix allocated O(n*m)
    tuples on heavy-traffic fleets just to "match" pairs with no reuse.
    Devices the greedy pass leaves unmatched flow through the mapper's
    zone-aware fill instead of receiving an arbitrary zero-reuse position.
    """
    weights = np.asarray(weight_matrix, dtype=float)
    if weights.ndim != 2:
        raise ValueError("weight_matrix must be two-dimensional")
    if weights.size == 0:
        return []
    # np.nonzero walks the matrix in row-major order, so the edge list is
    # deterministic before the sort and the (row, col) tie-break matches the
    # dense enumeration the scalar loop used to produce.
    pos_rows, pos_cols = np.nonzero(weights > 0)
    edges = [
        (weights[row, col], row, col)
        for row, col in zip(pos_rows.tolist(), pos_cols.tolist())
    ]
    edges.sort(key=lambda item: (-item[0], item[1], item[2]))
    used_rows: set = set()
    used_cols: set = set()
    result: List[Tuple[int, int]] = []
    for _, row, col in edges:
        if row in used_rows or col in used_cols:
            continue
        used_rows.add(row)
        used_cols.add(col)
        result.append((row, col))
    return result

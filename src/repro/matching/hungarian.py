"""Kuhn-Munkres (Hungarian) algorithm for optimal assignment.

SpotServe's device mapper formulates the "which GPU goes to which
pipeline-stage-shard position" decision as maximum-weight bipartite matching
and solves it with the Kuhn-Munkres algorithm (Section 3.3).  This module
implements the O(n^3) Jonker-style shortest-augmenting-path variant from
scratch (no scipy dependency in the library code; the test-suite
cross-checks against ``scipy.optimize.linear_sum_assignment``).

The solver is one plain Python loop over lists.  The mapper's matrices are
small: most are the 4x4 intra-instance blocks, and no perfbench workload or
run_perf scenario solves one with more than 33 rows.  A numpy sweep of the
inner loops pays a fixed cost per call that it only earns back from about
130-170 rows up; at 9 to 33 rows this loop is 3-10x faster than one.

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


def _solve_square(cost: np.ndarray) -> List[int]:
    """Solve the square assignment problem, returning the column of each row.

    Rows join one at a time.  Each joins along a shortest augmenting path
    found with row potentials ``u`` and column potentials ``v``; column
    ``n`` is the virtual column every path starts from.  A step relaxes the
    free columns against the row matched to the newest column on the path
    and moves to the free column of smallest reduced cost.  The free columns
    are walked in index order with strict ``<`` updates, so among equal
    reduced costs the lowest column wins.
    """
    n = cost.shape[0]
    rows = cost.tolist()
    u = [0.0] * n
    v = [0.0] * (n + 1)
    match_col = [-1] * (n + 1)  # row matched to each column, -1 when free
    way = [0] * (n + 1)  # previous column on the augmenting path
    for row in range(n):
        match_col[n] = row
        j0 = n
        minv = [_INF] * n
        free = list(range(n))
        used = [n]
        while True:
            i0 = match_col[j0]
            row_i0 = rows[i0]
            u_i0 = u[i0]
            delta = _INF
            j1 = -1
            for j in free:
                cur = row_i0[j] - u_i0 - v[j]
                low = minv[j]
                if cur < low:
                    minv[j] = low = cur
                    way[j] = j0
                if low < delta:
                    delta = low
                    j1 = j
            # Each used column holds a distinct row, so each of these
            # potentials moves by delta once, whatever the order.
            for j in used:
                u[match_col[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if match_col[j0] < 0:
                break
            free.remove(j0)
            used.append(j0)
        # Augment along the found path.
        while j0 != n:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1
    assignment = [0] * n
    for col in range(n):
        assignment[match_col[col]] = col
    return assignment


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

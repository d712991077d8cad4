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

Both accept an optional *warm start* (``initial_assignment=``): an
:class:`AssignmentState` captured from a previous solve
(``return_state=True``).  Consecutive adaptation rounds solve nearly
identical matrices -- the fleet changes by a few instances, so most cost
rows are byte-for-byte unchanged -- and the warm path resumes the
row-by-row sweep after the longest unchanged row prefix instead of
starting from scratch (the sweep's state after ``k`` rows is a pure
function of the first ``k`` cost rows).  Because the warm path replays the
reference arithmetic exactly from a recorded intermediate state, its
result is **bit-identical** to a cold solve of the same matrix -- never
merely "another optimal assignment" (pinned by ``TestWarmStartSolver`` in
``tests/test_mapper_fast_path.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

_INF = float("inf")

#: Below this size the scalar solver beats the vectorized one (numpy call
#: overhead exceeds the loop cost on tiny matrices, and the device mapper's
#: inner intra-instance matchings are typically 4x4).  Both solvers perform
#: the identical arithmetic in the identical order, so the choice of path
#: never changes an assignment (pinned by tests/test_matching_bruteforce.py).
_SCALAR_THRESHOLD = 8


class AssignmentState:
    """Warm-start state of a Kuhn-Munkres solve.

    Captures, for one solved (padded, 1-based) cost matrix, the row/column
    potentials and the partial matching after every row of the sweep, plus
    the final assignment.  Feeding the state of round ``t`` into the solve
    of round ``t+1`` seeds the potentials and partial matching from the
    previous solution: the rows that are byte-identical between the two
    matrices are skipped entirely and the sweep resumes from the first
    changed row.

    ``resumed_from`` records how many leading rows the *producing* solve
    reused from its seed (0 for a cold solve, ``n`` for a full cache hit).
    """

    __slots__ = ("padded", "snapshots", "assignment", "resumed_from")

    def __init__(
        self,
        padded: np.ndarray,
        snapshots: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        assignment: List[int],
        resumed_from: int,
    ) -> None:
        self.padded = padded
        self.snapshots = snapshots
        self.assignment = assignment
        self.resumed_from = resumed_from


def _jv_rows(
    padded: np.ndarray,
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    match_col: np.ndarray,
    start_row: int,
    snapshots: Optional[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]],
) -> None:
    """Process rows ``start_row+1 .. n`` of the shortest-augmenting-path sweep.

    Mutates ``u``/``v``/``match_col`` in place.  When *snapshots* is given,
    appends a copy of the state after every processed row (the sweep's state
    after ``k`` rows depends only on the first ``k`` cost rows, which is what
    makes prefix-resume warm starts exact).
    """
    way = np.zeros(n + 1, dtype=int)
    for row in range(start_row + 1, n + 1):
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
            # final assignment are bit-for-bit identical to the original
            # Python implementation.
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
        if snapshots is not None:
            snapshots.append((u.copy(), v.copy(), match_col.copy()))


def _extract_assignment(match_col: np.ndarray, n: int) -> List[int]:
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

    assignment = [0] * n
    for j in range(1, n + 1):
        if match_col[j] != 0:
            assignment[match_col[j] - 1] = j - 1
    return assignment


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

    # 1-based padded cost matrix for cleaner index arithmetic.
    padded = np.zeros((n + 1, n + 1))
    padded[1:, 1:] = cost
    _jv_rows(padded, n, u, v, match_col, start_row=0, snapshots=None)
    return _extract_assignment(match_col, n)


def _solve_square_stateful(
    square: np.ndarray,
    seed: Optional[AssignmentState],
    record: bool,
) -> Tuple[List[int], Optional[AssignmentState]]:
    """Warm-startable square solve (always the vectorized sweep).

    Finds the longest prefix of cost rows that is byte-identical to the
    *seed* state's matrix, restores the recorded potentials and partial
    matching after that prefix, and sweeps only the remaining rows.  A full
    prefix is a cache hit: the previous assignment is returned without any
    work.  Falls back to a cold sweep when the seed is absent or its shape
    differs (config or fleet-size change).

    The scalar/vectorized paths are bit-identical (see ``_SCALAR_THRESHOLD``),
    so routing warm solves through the vectorized sweep never changes an
    assignment relative to :func:`_solve_square`.
    """
    n = square.shape[0]
    padded = np.zeros((n + 1, n + 1))
    padded[1:, 1:] = square

    prefix = 0
    if seed is not None and seed.padded.shape == padded.shape and seed.snapshots:
        row_equal = np.all(seed.padded == padded, axis=1)
        # Longest run of equal leading *cost* rows (row 0 is the shared
        # zero padding), capped by how many snapshots the seed recorded.
        limit = min(n, len(seed.snapshots) - 1)
        for i in range(1, limit + 1):
            if not row_equal[i]:
                break
            prefix = i
        if prefix == n:
            # Identical matrix: the previous solution is *the* solution.
            seed.resumed_from = n
            return list(seed.assignment), seed

    if prefix > 0:
        u0, v0, mc0 = seed.snapshots[prefix]
        u = u0.copy()
        v = v0.copy()
        match_col = mc0.copy()
        snapshots = list(seed.snapshots[: prefix + 1]) if record else None
    else:
        u = np.zeros(n + 1)
        v = np.zeros(n + 1)
        match_col = np.full(n + 1, 0, dtype=int)
        snapshots = (
            [(u.copy(), v.copy(), match_col.copy())] if record else None
        )

    _jv_rows(padded, n, u, v, match_col, start_row=prefix, snapshots=snapshots)
    assignment = _extract_assignment(match_col, n)
    state = None
    if record:
        state = AssignmentState(
            padded=padded,
            snapshots=snapshots,
            assignment=assignment,
            resumed_from=prefix,
        )
    return assignment, state


def minimum_cost_assignment(
    cost_matrix: Sequence[Sequence[float]],
    initial_assignment: Optional[AssignmentState] = None,
    return_state: bool = False,
):
    """Minimum-cost assignment on a rectangular cost matrix.

    Returns a list of ``(row, column)`` pairs covering ``min(n_rows, n_cols)``
    assignments with the smallest possible total cost.

    ``initial_assignment`` warm-starts the solve from a previous round's
    :class:`AssignmentState` (bit-identical to a cold solve by construction);
    ``return_state=True`` returns ``(pairs, state)`` so the caller can seed
    the next round.
    """
    cost = np.asarray(cost_matrix, dtype=float)
    if cost.size == 0:
        return ([], None) if return_state else []
    if cost.ndim != 2:
        raise ValueError("cost_matrix must be two-dimensional")
    if not np.isfinite(cost).all():
        raise ValueError("cost_matrix entries must be finite")
    rows, cols = cost.shape
    size = max(rows, cols)
    # Pad to a square matrix with zeros: padded cells are "dummy" assignments.
    padded = np.zeros((size, size))
    padded[:rows, :cols] = cost
    state = None
    if initial_assignment is not None or return_state:
        assignment, state = _solve_square_stateful(
            padded, initial_assignment, record=return_state
        )
    else:
        assignment = _solve_square(padded)
    pairs = [
        (row, col)
        for row, col in enumerate(assignment)
        if row < rows and col < cols
    ]
    if return_state:
        return pairs, state
    return pairs


def maximum_weight_assignment(
    weight_matrix: Sequence[Sequence[float]],
    initial_assignment: Optional[AssignmentState] = None,
    return_state: bool = False,
):
    """Maximum-weight assignment (the device mapper's objective).

    Every row (GPU) is matched to at most one column (topology position) and
    vice versa, maximising the total weight (reusable context bytes).  The
    warm-start parameters mirror :func:`minimum_cost_assignment`.
    """
    weights = np.asarray(weight_matrix, dtype=float)
    if weights.size == 0:
        return ([], None) if return_state else []
    if weights.ndim != 2:
        raise ValueError("weight_matrix must be two-dimensional")
    if not np.isfinite(weights).all():
        raise ValueError("weight_matrix entries must be finite")
    # Maximising weight == minimising (max_weight - weight).
    return minimum_cost_assignment(
        weights.max() - weights,
        initial_assignment=initial_assignment,
        return_state=return_state,
    )


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

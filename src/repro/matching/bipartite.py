"""Positive-edge structure of the device mapper's bipartite reuse matrix.

Section 3.3 of the paper models device mapping as a complete weighted
bipartite graph ``G = (V_a, V_t, E)`` where ``V_a`` is the set of available
GPU devices, ``V_t`` the set of pipeline-stage-shard positions of the target
configuration, and the weight of an edge ``(u, v)`` is the number of bytes of
model and cache context that could be reused if device ``u`` were placed at
position ``v``.  The mapper holds that graph as a dense weight matrix; this
module splits its positive edges into independently solvable components.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def positive_components(
    weights: np.ndarray,
) -> List[Tuple[List[int], List[int]]]:
    """Connected components of the positive-edge bipartite structure.

    Treats *weights* as a bipartite adjacency (rows on one side, columns on
    the other, an edge wherever the weight is strictly positive) and returns
    one ``(row_indices, column_indices)`` pair per connected component, rows
    and columns sorted ascending, components ordered by their smallest row.

    Rows and columns that touch no positive edge belong to no component and
    are omitted: they are exactly the vertices a maximum-weight matching can
    ignore, because every edge incident to them contributes nothing.

    The device mapper uses this to split one global assignment solve into
    independent per-component solves: cross-component weights are identically
    zero by construction (that is the *dominance condition* -- no positive
    edge leaves a component), so solving each component separately is exact
    at the total-weight level while the solved matrices shrink from the
    whole fleet to one zone-local submesh each.
    """
    adjacency = np.asarray(weights) > 0
    if adjacency.ndim != 2:
        raise ValueError("weights must be two-dimensional")
    n_rows, n_cols = adjacency.shape
    row_seen = np.zeros(n_rows, dtype=bool)
    row_has_edge = adjacency.any(axis=1)
    components: List[Tuple[List[int], List[int]]] = []
    for start in range(n_rows):
        if row_seen[start] or not row_has_edge[start]:
            continue
        rows = np.zeros(n_rows, dtype=bool)
        cols = np.zeros(n_cols, dtype=bool)
        rows[start] = True
        # Alternating BFS, one whole frontier per numpy reduction.
        while True:
            new_cols = adjacency[rows].any(axis=0) & ~cols
            if not new_cols.any():
                break
            cols |= new_cols
            new_rows = adjacency[:, cols].any(axis=1) & ~rows
            if not new_rows.any():
                break
            rows |= new_rows
        row_seen |= rows
        components.append(
            (np.flatnonzero(rows).tolist(), np.flatnonzero(cols).tolist())
        )
    return components

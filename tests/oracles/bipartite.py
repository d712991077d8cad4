"""A small weighted bipartite graph, the scalar device mapper's solver front end.

Section 3.3 of the paper models device mapping as a complete weighted
bipartite graph ``G = (V_a, V_t, E)`` between available GPUs and the target
configuration's positions, weighted by reusable context bytes.  The
production mapper builds that graph directly as a numpy matrix; this typed
wrapper keeps the node-by-node form the reference mapper in
:mod:`oracles.device_mapper` is written in.
"""

from dataclasses import dataclass, field
from typing import Dict, Generic, Hashable, List, Tuple, TypeVar

import numpy as np

from repro.matching.hungarian import greedy_assignment, maximum_weight_assignment

LeftNode = TypeVar("LeftNode", bound=Hashable)
RightNode = TypeVar("RightNode", bound=Hashable)


@dataclass
class BipartiteGraph(Generic[LeftNode, RightNode]):
    """A weighted bipartite graph between devices and topology positions."""

    left_nodes: List[LeftNode] = field(default_factory=list)
    right_nodes: List[RightNode] = field(default_factory=list)
    _weights: Dict[Tuple[LeftNode, RightNode], float] = field(default_factory=dict)
    # Set mirrors of the node lists so membership checks are O(1) while the
    # lists keep the deterministic insertion order the matchers rely on.
    _left_set: set = field(default_factory=set)
    _right_set: set = field(default_factory=set)

    def __post_init__(self) -> None:
        self._left_set = set(self.left_nodes)
        self._right_set = set(self.right_nodes)

    def add_left(self, node: LeftNode) -> None:
        """Register a device node."""
        if node not in self._left_set:
            self._left_set.add(node)
            self.left_nodes.append(node)

    def add_right(self, node: RightNode) -> None:
        """Register a topology-position node."""
        if node not in self._right_set:
            self._right_set.add(node)
            self.right_nodes.append(node)

    def set_weight(self, left: LeftNode, right: RightNode, weight: float) -> None:
        """Set the reuse weight of edge ``(left, right)``."""
        if weight < 0:
            raise ValueError("edge weights must be non-negative")
        self.add_left(left)
        self.add_right(right)
        self._weights[(left, right)] = float(weight)

    def weight(self, left: LeftNode, right: RightNode) -> float:
        """Weight of edge ``(left, right)`` (0 for absent edges)."""
        return self._weights.get((left, right), 0.0)

    def weight_matrix(self) -> np.ndarray:
        """Dense weight matrix (rows = left/devices, columns = right/positions)."""
        matrix = np.zeros((len(self.left_nodes), len(self.right_nodes)))
        row_of = {node: row for row, node in enumerate(self.left_nodes)}
        col_of = {node: col for col, node in enumerate(self.right_nodes)}
        for (left, right), weight in self._weights.items():
            matrix[row_of[left], col_of[right]] = weight
        return matrix

    def maximum_weight_matching(self) -> Dict[LeftNode, RightNode]:
        """Optimal matching maximising total reused context (Kuhn-Munkres)."""
        if not self.left_nodes or not self.right_nodes:
            return {}
        pairs = maximum_weight_assignment(self.weight_matrix())
        return {self.left_nodes[row]: self.right_nodes[col] for row, col in pairs}

    def greedy_matching(self) -> Dict[LeftNode, RightNode]:
        """Greedy matching baseline used by the mapper ablation."""
        if not self.left_nodes or not self.right_nodes:
            return {}
        pairs = greedy_assignment(self.weight_matrix())
        return {self.left_nodes[row]: self.right_nodes[col] for row, col in pairs}

    def matching_weight(self, matching: Dict[LeftNode, RightNode]) -> float:
        """Total weight of *matching*."""
        return float(sum(self.weight(left, right) for left, right in matching.items()))

    @property
    def num_edges(self) -> int:
        """Number of explicitly weighted edges."""
        return len(self._weights)

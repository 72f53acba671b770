"""Immutable undirected graph with edge-list and CSR views."""

from __future__ import annotations

import numpy as np

from ..errors import GraphError

__all__ = ["Graph"]


class Graph:
    """An undirected graph stored as a symmetric directed edge list.

    Parameters
    ----------
    num_nodes:
        Node count.
    edges:
        ``(E, 2)`` array of undirected edges (each stored once); self-loops
        and duplicates are rejected.

    Attributes
    ----------
    edge_index:
        ``(2, 2E)`` symmetric directed edge list (both directions),
        lexicographically sorted by (dst, src) — a canonical order so the
        deterministic experiments are stable across sessions.
    """

    def __init__(self, num_nodes: int, edges) -> None:
        if num_nodes < 1:
            raise GraphError(f"num_nodes must be >= 1, got {num_nodes}")
        e = np.asarray(edges)
        if e.size == 0:
            e = np.empty((0, 2), dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2:
            raise GraphError(f"edges must be (E, 2), got {e.shape}")
        if not np.issubdtype(e.dtype, np.integer):
            raise GraphError(f"edges must be integer, got dtype {e.dtype}")
        if e.size and (e.min() < 0 or e.max() >= num_nodes):
            raise GraphError(f"edge endpoints must be in [0, {num_nodes})")
        if e.size and np.any(e[:, 0] == e[:, 1]):
            raise GraphError("self-loops are not allowed")
        canon = np.sort(e, axis=1)
        if e.size and np.unique(canon, axis=0).shape[0] != canon.shape[0]:
            raise GraphError("duplicate edges are not allowed")
        self.num_nodes = int(num_nodes)
        self._undirected = canon.astype(np.int64)
        both = np.concatenate([canon, canon[:, ::-1]], axis=0)
        order = np.lexsort((both[:, 0], both[:, 1]))
        both = both[order]
        self.edge_index = both.T.copy()  # (2, 2E): row0 = src, row1 = dst
        self._degree = np.bincount(self.edge_index[1], minlength=num_nodes)

    # ------------------------------------------------------------ accessors
    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return self._undirected.shape[0]

    def degree(self) -> np.ndarray:
        """In-degree (= out-degree) per node."""
        return self._degree.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

"""A read-only directed social graph, held as compressed sparse rows.

The paper builds its incentive tree from a Twitter follower graph
(reference [21], SNAP ego-Twitter): an edge ``P_i → P_j`` means *"P_j
follows P_i"*, i.e. ``P_i`` has influence over ``P_j`` and may recruit
``P_j`` into the crowdsensing job.  This module provides the graph
container the tree builder needs — adjacency by *influencer*, and by
follower — plus summary statistics used to calibrate the synthetic
generators against the original dataset's published profile.

The graph is built once, from two edge columns, into CSR form: int64
offset and neighbour arrays by influencer and by follower, 16 bytes per
edge and 16 per node, with no Python object per node or edge.  It never
changes after construction.  A generator whose draws read the graph it is
growing (membership tests, neighbour lists) keeps that state itself and
builds the graph once at the end; see :mod:`repro.socialnet.generators`.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import GraphError

__all__ = ["SocialGraph", "GraphStats"]

#: One column of node ids: a list, an ``array('q')`` or a numpy array.
Column = Union[Sequence[int], np.ndarray]


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a social graph."""

    num_nodes: int
    num_edges: int
    max_out_degree: int
    mean_out_degree: float
    isolated_nodes: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"nodes={self.num_nodes} edges={self.num_edges} "
            f"max_out={self.max_out_degree} mean_out={self.mean_out_degree:.2f} "
            f"isolated={self.isolated_nodes}"
        )


def _column(values: Column, name: str) -> np.ndarray:
    """``values`` as a 1-D integer array (not yet cast; see the caller)."""
    try:
        column = np.asarray(values)
    except (OverflowError, TypeError, ValueError) as err:
        raise GraphError(f"{name}: node ids must be integers ({err})") from None
    if column.size == 0:
        return np.zeros(0, dtype=np.int64)
    if column.ndim != 1 or column.dtype.kind not in "iu":
        raise GraphError(f"{name} must be one column of integer node ids")
    return column


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class SocialGraph:
    """Directed graph over dense node ids ``0 … n-1``, read-only.

    An edge ``u → v`` means "u influences v": during solicitation ``u`` may
    refer ``v`` into the incentive tree.  The edges arrive as two
    equal-length columns, ``sources[i] → targets[i]`` (any integer
    sequences: lists, ``array('q')``, numpy arrays); :meth:`from_edges`
    takes ``(u, v)`` pairs instead.  Parallel edges are collapsed;
    self-loops and ids outside ``0 … n-1`` raise :class:`GraphError`.
    """

    __slots__ = ("_n", "_out_offsets", "_out_targets", "_in_offsets", "_in_sources")

    def __init__(self, num_nodes: int, sources: Column = (), targets: Column = ()):
        n = operator.index(num_nodes)
        if n < 0:
            raise GraphError(f"num_nodes must be >= 0, got {num_nodes}")
        src = _column(sources, "sources")
        dst = _column(targets, "targets")
        if src.size != dst.size:
            raise GraphError(f"{src.size} sources but {dst.size} targets")
        if src.size:
            outside = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
            if outside.any():
                at = int(np.argmax(outside))
                node = int(src[at]) if not 0 <= src[at] < n else int(dst[at])
                raise GraphError(f"node {node} out of range 0..{n - 1}")
            loops = src == dst
            if loops.any():
                raise GraphError(f"self-loop on node {int(src[np.argmax(loops)])}")
        # One int64 key per edge, influencer-major, so one sort orders the
        # edges by (influencer, follower) and puts parallel edges side by
        # side.  n² stays below 2**63 for any n whose offsets fit in memory.
        # Each step below allocates as little as it can: a large temporary
        # freed between two arrays the graph keeps stays resident.
        width = max(n, 1)
        keys = src.astype(np.int64, copy=False) * width + dst.astype(np.int64, copy=False)
        keys.sort()
        if keys.size > 1:
            repeated = keys[1:] == keys[:-1]
            if repeated.any():
                keys = keys[np.concatenate(([True], ~repeated))]
        row_starts = np.arange(n + 1, dtype=np.int64) * width
        self._n = n
        self._out_offsets = _frozen(np.searchsorted(keys, row_starts))
        self._out_targets = _frozen(keys % width)
        # Re-key every edge follower-major, (follower, influencer), and sort
        # again for the in-adjacency.
        np.floor_divide(keys, width, out=keys)
        by_follower = self._out_targets * width
        by_follower += keys
        del keys
        by_follower.sort()
        self._in_offsets = _frozen(np.searchsorted(by_follower, row_starts))
        np.remainder(by_follower, width, out=by_follower)
        self._in_sources = _frozen(by_follower)

    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: Iterable[Tuple[int, int]]
    ) -> "SocialGraph":
        """The graph over ``num_nodes`` nodes with these ``(u, v)`` pairs."""
        pairs = list(edges)
        return cls(num_nodes, [u for u, _ in pairs], [v for _, v in pairs])

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return int(self._out_targets.size)

    def nodes(self) -> range:
        return range(self._n)

    def successors(self, node: int) -> List[int]:
        """Nodes that ``node`` can recruit, in sorted order (deterministic)."""
        self._check(node)
        offsets = self._out_offsets
        return self._out_targets[offsets[node] : offsets[node + 1]].tolist()

    def predecessors(self, node: int) -> List[int]:
        """Nodes with influence over ``node``, in sorted order."""
        self._check(node)
        offsets = self._in_offsets
        return self._in_sources[offsets[node] : offsets[node + 1]].tolist()

    def out_degree(self, node: int) -> int:
        self._check(node)
        return int(self._out_offsets[node + 1] - self._out_offsets[node])

    def in_degree(self, node: int) -> int:
        self._check(node)
        return int(self._in_offsets[node + 1] - self._in_offsets[node])

    def out_degrees(self) -> np.ndarray:
        """Every node's out-degree: a read-only int64 column indexed by node."""
        return _frozen(np.diff(self._out_offsets))

    def in_degrees(self) -> np.ndarray:
        """Every node's in-degree: a read-only int64 column indexed by node."""
        return _frozen(np.diff(self._in_offsets))

    def has_edge(self, influencer: int, follower: int) -> bool:
        self._check(influencer)
        self._check(follower)
        offsets = self._out_offsets
        row = self._out_targets[offsets[influencer] : offsets[influencer + 1]]
        at = int(np.searchsorted(row, follower))
        return at < row.size and int(row[at]) == follower

    def stats(self) -> GraphStats:
        out_degrees = self.out_degrees()
        isolated = (out_degrees == 0) & (self.in_degrees() == 0)
        num_edges = self.num_edges
        return GraphStats(
            num_nodes=self._n,
            num_edges=num_edges,
            max_out_degree=int(out_degrees.max()) if self._n else 0,
            mean_out_degree=(num_edges / self._n) if self._n else 0.0,
            isolated_nodes=int(np.count_nonzero(isolated)),
        )

    def out_degree_histogram(self) -> Dict[int, int]:
        """``{degree: count}`` over all nodes."""
        return dict(Counter(self.out_degrees().tolist()))

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All edges ``(influencer, follower)``, node-sorted order."""
        targets = self._out_targets
        offsets = self._out_offsets.tolist()
        for u in range(self._n):
            for v in targets[offsets[u] : offsets[u + 1]].tolist():
                yield (u, v)

    def _check(self, node: int) -> None:
        if not 0 <= node < self._n:
            raise GraphError(f"node {node} out of range 0..{self._n - 1}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SocialGraph(nodes={self._n}, edges={self.num_edges})"

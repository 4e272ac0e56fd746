"""The incentive tree ``T`` (paper Section 3-A).

The tree records the solicitation process: the platform is the root, users
who joined spontaneously are children of the root, and there is an edge
``P_i → P_j`` when ``P_j`` joined by the solicitation of ``P_i``.  The
payment determination phase of RIT consumes two structural quantities:

* ``r_j`` — the *depth* of ``P_j`` (distance to the platform root), and
* ``T_j`` — the set of *descendants* of ``P_j``.

The tree is mutable while being grown (nodes are attached one by one during
the solicitation process).  Every breadth-first quantity — BFS order,
depths, parent positions, level bounds — comes from one level-by-level
walk that yields an immutable :class:`BFSView`; the tree caches it until
the next :meth:`~IncentiveTree.attach`, :meth:`~IncentiveTree.reattach` or
:meth:`~IncentiveTree.remove_leaf`.  :meth:`BFSView.from_parents` builds
the same view from a parent column with array operations only; the
epoch service's snapshots use it instead of a tree.  Payments, profile
validation and the service's epoch gauges all read a view.  Sybil
attacks are *structural rewrites* of the tree; they are implemented in
:mod:`repro.attacks.sybil` using the primitives here (:meth:`attach`,
:meth:`reattach_children`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.exceptions import TreeError

__all__ = ["ROOT", "BFSView", "IncentiveTree"]

#: Sentinel node id for the platform root.  User ids are non-negative, so
#: ``-1`` can never collide with a real participant.
ROOT: int = -1


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class BFSView:
    """Immutable breadth-first array form of one tree state.

    Position ``i`` is the ``i``-th node of the BFS walk from the root, with
    each node's children in their (insertion) order.  Level ``d`` (depth
    ``d``, 1-based) occupies positions ``level_bounds[d-1]:level_bounds[d]``
    and every parent position lies in the level above its child, so the
    ``parent`` column is non-decreasing.  All arrays are read-only.
    """

    #: Node ids in BFS order.
    uids: np.ndarray
    #: BFS position of each node's parent (-1 for children of the root).
    parent: np.ndarray
    #: ``r_j`` of each node (distance to the root, root children = 1).
    depth: np.ndarray
    #: ``len(level_bounds) - 1`` levels; ``level_bounds[0] == 0``.
    level_bounds: Tuple[int, ...]
    #: ``uids`` sorted ascending and the BFS position of each (the lookup).
    _sorted_uids: np.ndarray
    _sorted_positions: np.ndarray

    @classmethod
    def walk(cls, children: Dict[int, List[int]]) -> "BFSView":
        """One level-by-level BFS over a ``{node: [children]}`` map.

        Nodes missing from ``children`` are leaves.
        """
        level = children.get(ROOT, [])
        order = list(level)
        counts: List[int] = []  # children per node, in BFS order
        bounds = [0]
        while level:
            bounds.append(len(order))
            kid_lists = list(map(children.get, level, repeat(())))
            counts += map(len, kid_lists)
            level = list(chain.from_iterable(kid_lists))
            order += level
        return cls._assemble(np.array(order, dtype=np.int64), counts, bounds)

    @classmethod
    def from_parents(cls, uids: np.ndarray, parent: np.ndarray) -> "BFSView":
        """The same BFS over a parent column, in array operations only.

        ``parent[i]`` is the index of node ``uids[i]``'s parent in these
        arrays, -1 for a child of the root; each node's children are taken
        in index order, as :meth:`walk` takes them in list order.  Raises
        :class:`~repro.core.exceptions.TreeError` when a node cannot be
        reached from the root (the column has a cycle).
        """
        n = int(parent.shape[0])
        # Children grouped by parent, each group in index order; the root's
        # group (parent -1) comes first.
        by_parent = np.argsort(parent, kind="stable")
        kids = np.bincount(parent + 1, minlength=n + 1)
        first_kid = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(kids, out=first_kid[1:])
        level = by_parent[: kids[0]]
        levels = [level]
        bounds = [0]
        while level.size:
            bounds.append(bounds[-1] + int(level.shape[0]))
            # Level d+1 is the concatenation of the children groups of
            # level d's nodes, in level order: gather those index ranges.
            counts = kids[level + 1]
            ends = np.cumsum(counts)
            total = int(ends[-1])
            starts = first_kid[level + 1] - ends + counts
            level = by_parent[np.repeat(starts, counts) + np.arange(total)]
            levels.append(level)
        order = np.concatenate(levels)
        if order.shape[0] != n:
            raise TreeError("parent column has nodes unreachable from the root")
        return cls._assemble(uids[order], kids[order + 1], bounds)

    @classmethod
    def _assemble(
        cls, uids: np.ndarray, counts: Sequence[int], bounds: List[int]
    ) -> "BFSView":
        """The view of node ids in BFS order, given each one's child count."""
        n = int(uids.shape[0])
        # Level d+1 lists the children of level d node by node, so the
        # parent of each non-root-child position is a run-length expansion.
        parent = np.full(n, -1, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        parent[n - int(counts.sum()):] = np.repeat(
            np.arange(n, dtype=np.int64), counts
        )
        uids = _frozen(uids)
        by_uid = np.argsort(uids)
        return cls(
            uids=uids,
            parent=_frozen(parent),
            depth=_frozen(
                np.repeat(np.arange(1, len(bounds), dtype=np.int64), np.diff(bounds))
            ),
            level_bounds=tuple(bounds),
            _sorted_uids=_frozen(uids[by_uid]),
            _sorted_positions=_frozen(by_uid),
        )

    def __len__(self) -> int:
        return int(self.uids.shape[0])

    @property
    def max_depth(self) -> int:
        """Height of the tree (0 when empty)."""
        return len(self.level_bounds) - 1

    def same_nodes(self, sorted_uids: np.ndarray) -> bool:
        """True when ``sorted_uids`` are exactly the node ids.

        ``sorted_uids`` must hold distinct ids in ascending order (a
        profile caches them so).  One element-wise compare against the
        sorted lookup column.
        """
        return sorted_uids.shape[0] == len(self) and bool(
            np.array_equal(sorted_uids, self._sorted_uids)
        )

    def positions(self, uids: np.ndarray) -> np.ndarray:
        """BFS positions of ``uids``; -1 for ids that are not nodes."""
        uids = np.asarray(uids, dtype=np.int64)
        if not len(self):
            return np.full(uids.shape, -1, dtype=np.int64)
        slot = np.searchsorted(self._sorted_uids, uids)
        np.minimum(slot, len(self) - 1, out=slot)
        found = self._sorted_uids[slot] == uids
        return np.where(found, self._sorted_positions[slot], -1)

    def scatter(
        self, uids: np.ndarray, values: np.ndarray, fill: float
    ) -> np.ndarray:
        """``values[k]`` at the BFS position of ``uids[k]``, ``fill`` elsewhere.

        Ids that are not nodes are ignored.
        """
        pos = self.positions(uids)
        inside = pos >= 0
        out = np.full(len(self), fill, dtype=values.dtype)
        out[pos[inside]] = values[inside]
        return out


class IncentiveTree:
    """Rooted tree over participant ids, root = the platform (:data:`ROOT`).

    Node ids are arbitrary non-negative integers (user ids, and identity ids
    for sybil scenarios).  The root is implicit and always present.
    """

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}
        #: node → its children, in insertion order.  Only nodes that have
        #: had a child get an entry, so building a large tree allocates no
        #: list per leaf.
        self._children: Dict[int, List[int]] = {}
        #: Cached :meth:`bfs_view`; every structural mutation drops it.
        self._view: Optional[BFSView] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def attach(self, node: int, parent: int = ROOT) -> None:
        """Add ``node`` as a child of ``parent``.

        ``parent`` must already be in the tree (or be the root); ``node``
        must be new.  Children order is insertion order — it matters only
        for deterministic iteration, never for payments.
        """
        if node < 0:
            raise TreeError(f"node ids must be >= 0, got {node}")
        if node in self._parent:
            raise TreeError(f"node {node} is already in the tree")
        if parent != ROOT and parent not in self._parent:
            raise TreeError(f"parent {parent} is not in the tree")
        self._parent[node] = parent
        self._add_child(parent, node)

    def reattach(self, node: int, new_parent: int) -> None:
        """Move ``node`` (with its whole subtree) under ``new_parent``.

        Used by the attack harness to hang a victim's original children
        under one of its sybil identities.  Cycles are rejected.
        """
        if node not in self._parent:
            raise TreeError(f"node {node} is not in the tree")
        if new_parent != ROOT and new_parent not in self._parent:
            raise TreeError(f"new parent {new_parent} is not in the tree")
        if node == new_parent or (
            new_parent != ROOT and self.is_descendant(new_parent, of=node)
        ):
            raise TreeError(
                f"reattaching {node} under {new_parent} would create a cycle"
            )
        old = self._parent[node]
        self._children[old].remove(node)
        self._parent[node] = new_parent
        self._add_child(new_parent, node)

    def reattach_children(self, node: int, new_parent: int) -> None:
        """Move every current child of ``node`` under ``new_parent``."""
        for child in list(self.children(node)):
            self.reattach(child, new_parent)

    def remove_leaf(self, node: int) -> None:
        """Remove a node that has no children."""
        if node not in self._parent:
            raise TreeError(f"node {node} is not in the tree")
        if self._children.get(node):
            raise TreeError(f"node {node} is not a leaf")
        parent = self._parent.pop(node)
        self._children[parent].remove(node)
        self._children.pop(node, None)
        self._view = None

    def _add_child(self, parent: int, node: int) -> None:
        siblings = self._children.get(parent)
        if siblings is None:
            self._children[parent] = [node]
        else:
            siblings.append(node)
        self._view = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def __contains__(self, node: int) -> bool:
        return node in self._parent or node == ROOT

    def __len__(self) -> int:
        """Number of participant nodes (root excluded)."""
        return len(self._parent)

    def parent(self, node: int) -> int:
        """The solicitor of ``node`` (:data:`ROOT` for spontaneous joiners)."""
        try:
            return self._parent[node]
        except KeyError:
            raise TreeError(f"node {node} is not in the tree") from None

    def children(self, node: int) -> Sequence[int]:
        """Direct solicitees of ``node`` (read-only view)."""
        if node != ROOT and node not in self._parent:
            raise TreeError(f"node {node} is not in the tree")
        return tuple(self._children.get(node, ()))

    def nodes(self) -> Iterator[int]:
        """All participant ids, in insertion order."""
        return iter(self._parent)

    def depth(self, node: int) -> int:
        """``r_j`` — edge distance from ``node`` to the platform root."""
        if node == ROOT:
            return 0
        d = 0
        while node != ROOT:
            node = self.parent(node)
            d += 1
        return d

    def depths(self) -> Dict[int, int]:
        """All depths, in BFS order, from the cached :meth:`bfs_view`."""
        view = self.bfs_view()
        return dict(zip(view.uids.tolist(), view.depth.tolist()))

    def ancestors(self, node: int) -> Iterator[int]:
        """Proper ancestors of ``node``, nearest first, root excluded."""
        node = self.parent(node)
        while node != ROOT:
            yield node
            node = self._parent[node]

    def descendants(self, node: int) -> Set[int]:
        """``T_j`` — the set of all descendants of ``node`` (node excluded)."""
        out: Set[int] = set()
        stack = list(self.children(node))
        while stack:
            cur = stack.pop()
            out.add(cur)
            stack.extend(self._children.get(cur, ()))
        return out

    def subtree_size(self, node: int) -> int:
        """``|T_j| + 1`` — nodes in the subtree rooted at ``node``."""
        return len(self.descendants(node)) + (0 if node == ROOT else 1)

    def is_descendant(self, node: int, *, of: int) -> bool:
        """True when ``node`` lies strictly below ``of``."""
        if node == of:
            return False
        if of == ROOT:
            return node in self._parent
        cur = self._parent.get(node)
        while cur is not None and cur != ROOT:
            if cur == of:
                return True
            cur = self._parent.get(cur)
        return False

    def bfs_view(self) -> BFSView:
        """The breadth-first array form, built once per tree state — O(N)."""
        view = self._view
        if view is None:
            view = self._view = BFSView.walk(self._children)
        return view

    def bfs_order(self) -> List[int]:
        """Participant ids in breadth-first (top-down) order."""
        return self.bfs_view().uids.tolist()

    def max_depth(self) -> int:
        """Height of the tree (0 when empty)."""
        return self.bfs_view().max_depth

    def validate(self) -> None:
        """Check internal consistency; raises :class:`TreeError` on damage."""
        seen = 0
        for parent, kids in self._children.items():
            for kid in kids:
                if self._parent.get(kid) != parent:
                    raise TreeError(f"child link {parent}->{kid} has no back-link")
                seen += 1
        if seen != len(self._parent):
            raise TreeError("parent/children maps disagree on node count")
        # A fresh walk, not the cache: this checks the maps as they are.
        if len(BFSView.walk(self._children)) != len(self._parent):
            raise TreeError("tree contains unreachable nodes (cycle?)")

    # ------------------------------------------------------------------ #
    # Serialization / conversion
    # ------------------------------------------------------------------ #

    def to_edges(self) -> List[Tuple[int, int]]:
        """``(parent, child)`` pairs, root edges included, insertion order."""
        return [(p, c) for c, p in self._parent.items()][::1]

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[int, int]]) -> "IncentiveTree":
        """Build a tree from ``(parent, child)`` pairs.

        Edges may arrive in any order; children whose parent has not been
        seen yet are buffered.
        """
        tree = cls()
        pending: Dict[int, List[Tuple[int, int]]] = {}
        ready: deque[Tuple[int, int]] = deque(edges)
        while ready:
            parent, child = ready.popleft()
            if parent == ROOT or parent in tree:
                tree.attach(child, parent)
                for edge in pending.pop(child, []):
                    ready.append(edge)
            else:
                # Buffer until the parent itself is attached; every edge is
                # buffered at most once, so the loop always terminates.
                pending.setdefault(parent, []).append((parent, child))
        if pending:
            raise TreeError("edge list contains orphaned subtrees")
        return tree

    def to_parent_map(self) -> Dict[int, int]:
        """``{child: parent}`` mapping (copy)."""
        return dict(self._parent)

    @classmethod
    def from_parent_map(cls, parents: Dict[int, int]) -> "IncentiveTree":
        """Build a tree from a ``{child: parent}`` mapping.

        Equal to :meth:`from_edges` over the map's items.  When every parent
        precedes its children in the map (as :class:`~repro.service.state.
        ServiceState` guarantees) the tree is built in one pass; the first
        child listed before its parent falls back to :meth:`from_edges`.
        """
        tree = cls()
        known = tree._parent
        children = tree._children
        for child, parent in parents.items():
            if parent != ROOT and parent not in known:
                return cls.from_edges((p, c) for c, p in parents.items())
            if child < 0:
                raise TreeError(f"node ids must be >= 0, got {child}")
            known[child] = parent
            siblings = children.get(parent)
            if siblings is None:
                children[parent] = [child]
            else:
                siblings.append(child)
        return tree

    def copy(self) -> "IncentiveTree":
        """Deep structural copy (children order preserved)."""
        clone = IncentiveTree()
        clone._parent = dict(self._parent)
        clone._children = {k: list(v) for k, v in self._children.items()}
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IncentiveTree(nodes={len(self)}, height={self.max_depth()})"

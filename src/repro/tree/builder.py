"""Building the incentive tree from a social graph (paper §7-A).

The paper's construction: *"We generate a spanning forest of the social
network where each user refers all of its un-joined neighbors into the
incentive tree.  We set the platform as the root and attach all roots of
the spanning forest as the children of the root.  If multiple invitations
arrive at a user at the same time, we break the ties by choosing the one
with the smallest index among the inviters as the parent."*

:func:`build_spanning_forest` implements exactly that: a level-synchronous
BFS where every joined user simultaneously invites all of its un-joined
out-neighbors, ties broken by the smallest inviter id.  Seeds (the users
who "join at the very beginning") default to the graph's in-degree-zero
nodes; when the BFS stalls before reaching the requested size, the smallest
unreached node joins spontaneously as a new child of the platform — this is
how the forest covers every weakly-reachable component, mirroring "attach
all roots of the spanning forest".

Growth can be stopped early by the threshold ``N`` (the paper's stopping
rule) or by an arbitrary predicate (used by
:mod:`repro.tree.growth` for the Remark 6.1 capacity rule).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set

import numpy as np

from repro.core.exceptions import TreeError
from repro.socialnet.graph import SocialGraph
from repro.tree.incentive_tree import ROOT, IncentiveTree

__all__ = ["build_spanning_forest", "random_tree", "chain_tree", "star_tree"]

StopCondition = Callable[[IncentiveTree, int], bool]


def build_spanning_forest(
    graph: SocialGraph,
    *,
    seeds: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
    stop_condition: Optional[StopCondition] = None,
) -> IncentiveTree:
    """Grow the incentive tree over ``graph`` per the paper's §7-A process.

    Parameters
    ----------
    graph:
        The social graph; edge ``u → v`` lets a joined ``u`` invite ``v``.
    seeds:
        Users who join at the very beginning (children of the platform
        root).  Defaults to all in-degree-zero nodes, or node 0 when the
        graph has none.
    limit:
        Threshold ``N``: stop as soon as the tree holds this many users.
        ``None`` grows until every node has joined.
    stop_condition:
        Optional predicate ``f(tree, newly_joined_id) -> bool`` evaluated
        after each join; returning True ends growth (used for the
        Remark 6.1 capacity-based threshold).  Checked in addition to
        ``limit``.

    Returns
    -------
    IncentiveTree
        The solicitation tree.  Joins happen level-synchronously: within a
        BFS level, invitees are processed in increasing node id, each
        adopting its smallest-id inviter as parent.
    """
    n = graph.num_nodes
    if limit is not None and limit < 0:
        raise TreeError(f"limit must be >= 0, got {limit}")
    tree = IncentiveTree()
    if n == 0 or (limit is not None and limit == 0):
        return tree

    if seeds is None:
        seeds = np.flatnonzero(graph.in_degrees() == 0).tolist()
        if not seeds:
            seeds = [0]
    else:
        seeds = list(dict.fromkeys(seeds))  # dedupe, keep order
        for s in seeds:
            if not 0 <= s < n:
                raise TreeError(f"seed {s} out of range 0..{n - 1}")

    joined: Set[int] = set()

    def join(node: int, parent: int) -> bool:
        """Attach; True means growth must stop now."""
        tree.attach(node, parent)
        joined.add(node)
        if limit is not None and len(tree) >= limit:
            return True
        if stop_condition is not None and stop_condition(tree, node):
            return True
        return False

    # Seeds join first (spontaneous joiners, children of the platform).
    frontier: List[int] = []
    for s in sorted(seeds):
        if s in joined:
            continue
        if join(s, ROOT):
            return tree
        frontier.append(s)

    next_spontaneous = 0  # smallest node id to try as a fresh root on stall
    while len(joined) < n:
        if not frontier:
            # BFS stalled: the smallest unreached node joins spontaneously.
            while next_spontaneous < n and next_spontaneous in joined:
                next_spontaneous += 1
            if next_spontaneous >= n:
                break
            node = next_spontaneous
            if join(node, ROOT):
                return tree
            frontier = [node]
            continue
        # One synchronous round: collect every invitation sent by the
        # current frontier, then resolve ties by smallest inviter id.
        invitations: dict[int, int] = {}
        for inviter in frontier:
            for invitee in graph.successors(inviter):
                if invitee in joined:
                    continue
                best = invitations.get(invitee)
                if best is None or inviter < best:
                    invitations[invitee] = inviter
        frontier = []
        for invitee in sorted(invitations):
            if join(invitee, invitations[invitee]):
                return tree
            frontier.append(invitee)
    return tree


def random_tree(
    num_nodes: int,
    rng,
    *,
    max_children: Optional[int] = None,
) -> IncentiveTree:
    """A uniform random recursive tree over ids ``0 … num_nodes-1``.

    Node ``i`` attaches to a uniformly random earlier node (or the root),
    optionally respecting a branching cap.  Handy for tests and for
    workloads that do not model a social graph.
    """
    from repro.core.rng import as_generator

    gen = as_generator(rng)
    if num_nodes < 0:
        raise TreeError(f"num_nodes must be >= 0, got {num_nodes}")
    tree = IncentiveTree()
    for node in range(num_nodes):
        if node == 0:
            tree.attach(node, ROOT)
            continue
        parent = int(gen.integers(-1, node))  # -1 = ROOT
        if max_children is not None:
            attempts = 0
            while parent != ROOT and len(tree.children(parent)) >= max_children:
                parent = int(gen.integers(-1, node))
                attempts += 1
                if attempts > 64:
                    parent = ROOT
                    break
        tree.attach(node, parent if parent >= 0 else ROOT)
    return tree


def chain_tree(num_nodes: int) -> IncentiveTree:
    """A path ``0 → 1 → … → num_nodes-1`` hanging off the root (worst depth)."""
    tree = IncentiveTree()
    prev = ROOT
    for node in range(num_nodes):
        tree.attach(node, prev)
        prev = node
    return tree


def star_tree(num_nodes: int) -> IncentiveTree:
    """All nodes directly under the platform root (no solicitation)."""
    tree = IncentiveTree()
    for node in range(num_nodes):
        tree.attach(node, ROOT)
    return tree

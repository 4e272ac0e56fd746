"""Payment determination phase (Algorithm 3, lines 22-28).

Given auction payments ``p^A`` and the incentive tree ``T``, the final
payment of user ``P_j`` is

    p_j = p^A_j + Σ_{P_i ∈ T_j, t_i ≠ t_j} (1/2)^{r_i} · p^A_i

where ``T_j`` is the descendant set of ``P_j`` and ``r_i`` the depth of the
*descendant* ``P_i`` (its distance to the platform root).  Three properties
of this rule matter and are exercised by the test suite:

* **Same-type exclusion** (``t_i ≠ t_j``): a user earns solicitation reward
  only from descendants serving *other* task types.  Sybil identities share
  the attacker's type, so an attacker can never route its own auction
  payment back to itself through the tree.
* **Depth decay** (``(1/2)^{r_i}``): splitting into a chain pushes every
  descendant one level deeper, halving their contribution to each ancestor
  while adding only one more recipient identity — Lemma 6.4's first attack
  is weakly losing precisely because ``(z+1)/2 <= z`` for ``z >= 1``.
* **Budget bound**: total referral outlay is at most
  ``Σ_j (r_j - 1)(1/2)^{r_j} p^A_j <= Σ_j p^A_j`` (§7-C discussion) since a
  depth-``r`` node has ``r - 1`` non-root ancestors.

Only winners' root paths carry money: ``p_j`` can be non-zero only when
``P_j`` or one of its descendants has ``p^A ≠ 0``.  The production
implementation is one array kernel (:func:`payment_kernel`).  It forms the
ancestor closure of the nodes with a non-zero auction payment from the
parent column of the tree's cached
:class:`~repro.tree.incentive_tree.BFSView`, then runs a bottom-up pass,
level by level, over the closure's rows only, maintaining for each row the
per-type weighted subtree sums — O(W·d·m) time and space for W paid nodes
at depth at most d and m type columns, independent of the tree size N.
Every node outside the closure is paid exactly 0.  :func:`tree_payments`,
:meth:`repro.core.rit.RIT.join_shards` and
:func:`repro.core.columnar.tree_payments_columnar` all run it.  A
transparent quadratic implementation (:func:`tree_payments_naive`) is kept
for differential testing.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.exceptions import TreeError
from repro.core.types import TaskType
from repro.obs.tracer import NullTracer
from repro.tree.incentive_tree import BFSView, IncentiveTree

__all__ = [
    "tree_payments",
    "tree_payments_naive",
    "payment_kernel",
    "bfs_types",
    "DEFAULT_DECAY",
]

#: The paper's decay base.  Sybil-proofness of the chain attack needs the
#: base to be at most 1/2 (Lemma 6.4: the split changes the reward by a
#: factor (z+1)·γ / z evaluated against 1, which is <= 1 for γ <= 1/2 and
#: z >= 1); the ablation benchmark explores other values.
DEFAULT_DECAY: float = 0.5


def tree_payments(
    tree: IncentiveTree,
    auction_payments: Mapping[int, float],
    task_types: Mapping[int, TaskType],
    *,
    decay: float = DEFAULT_DECAY,
    tracer: Optional[NullTracer] = None,
) -> Dict[int, float]:
    """Compute final payments ``p`` from auction payments and the tree.

    Parameters
    ----------
    tree:
        The incentive tree; every key of ``auction_payments`` and
        ``task_types`` that should earn or contribute must be a node.
    auction_payments:
        ``{user_id: p^A_j}``; ids missing from the mapping contribute and
        earn an auction payment of 0.
    task_types:
        ``{user_id: t_j}`` for every node in the tree (needed for the
        same-type exclusion).
    decay:
        The geometric decay base γ (paper: 1/2).
    tracer:
        Optional :mod:`repro.obs` tracer; when enabled the pass runs under
        a ``payments`` span and counts ``tree_payment_nodes``.

    Returns
    -------
    dict
        ``{user_id: p_j}`` for every node of the tree, in BFS order (zero
        payments included — callers prune if they wish).
    """
    view = tree.bfs_view()
    m = len(task_types)
    types = bfs_types(
        view,
        np.fromiter(task_types.keys(), dtype=np.int64, count=m),
        np.fromiter(task_types.values(), dtype=np.int64, count=m),
    )
    positions, paid = payment_kernel(
        view,
        auction_payments,
        types.__getitem__,
        int(types.max(initial=-1)) + 1,
        decay,
        tracer=tracer,
    )
    final = np.zeros(len(view), dtype=np.float64)
    final[positions] = paid
    return dict(zip(view.uids.tolist(), final.tolist()))


def payment_kernel(
    view: BFSView,
    auction_payments: Mapping[int, float],
    types_at: Callable[[np.ndarray], np.ndarray],
    width: int,
    decay: float,
    *,
    tracer: Optional[NullTracer] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Final payments on winners' root paths — the one Alg. 3 l.22–25 kernel.

    Returns ``(positions, payments)``: the ascending BFS positions of the
    ancestor closure of the nodes with ``p^A ≠ 0`` and their final
    payments.  Every other node's final payment is exactly 0.  Ids of
    ``auction_payments`` that are not nodes are ignored.

    ``types_at(positions)`` returns ``t_j`` at the given BFS positions;
    it is called once, with the closure.  ``width`` is the profile's
    highest task type + 1: the per-type rows keep that width because
    numpy's pairwise row sum groups its terms by the row length, so the
    width fixes the float result.  When ``tracer`` is enabled the pass
    runs under a ``payments`` span and counts ``tree_payment_nodes``.
    """
    if tracer is not None and tracer.enabled:
        with tracer.span("payments", nodes=len(view), decay=decay):
            tracer.count("tree_payment_nodes", len(view))
            return _settle(view, auction_payments, types_at, width, decay)
    return _settle(view, auction_payments, types_at, width, decay)


def _settle(
    view: BFSView,
    auction_payments: Mapping[int, float],
    types_at: Callable[[np.ndarray], np.ndarray],
    width: int,
    decay: float,
) -> Tuple[np.ndarray, np.ndarray]:
    if not 0.0 < decay < 1.0:
        raise TreeError(f"decay must be in (0, 1), got {decay}")
    m = len(auction_payments)
    pos = view.positions(
        np.fromiter(auction_payments.keys(), dtype=np.int64, count=m)
    )
    amount = np.fromiter(auction_payments.values(), dtype=np.float64, count=m)
    # Exact, not tolerant: any p^A ≠ 0 reaches its ancestors' rows.
    hit = np.flatnonzero(amount)
    hit = hit[pos[hit] >= 0]
    if not hit.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    order = np.argsort(pos[hit])
    seeds = pos[hit][order]
    parent = view.parent
    top = int(view.depth[seeds[-1]])  # BFS order is level order

    # Ancestor closure, one level at a time from the deepest paid node up:
    # level d holds its paid nodes plus the parents of level d + 1.
    cut = np.searchsorted(seeds, view.level_bounds[: top + 1])
    levels = []
    above = np.zeros(0, dtype=np.int64)
    for d in range(top, 0, -1):
        level = np.union1d(seeds[cut[d - 1]:cut[d]], above)
        levels.append(level)
        above = parent[level]
    levels.reverse()
    closure = np.concatenate(levels)
    starts = np.searchsorted(closure, view.level_bounds[: top + 1])
    rows = closure.shape[0]
    own = np.zeros(rows, dtype=np.float64)
    own[np.searchsorted(closure, seeds)] = amount[hit][order]
    parent_row = np.searchsorted(closure, parent[closure])
    types = types_at(closure)

    # Per-depth decay weights via scalar pow — the exact floats of the
    # per-node ``decay ** depth`` the accumulation below multiplies with.
    decay_pow = np.array([decay ** d for d in range(top + 1)], dtype=np.float64)
    contrib = decay_pow[view.depth[closure]] * own

    # sub[k, t] = Σ over the subtree rooted at closure row k (node
    # included) of (decay ** r_u) * p^A_u restricted to nodes u of type t.
    # Nodes outside the closure would add all-zero rows, which change no
    # cell, so they are skipped.
    #
    # The bottom-up pass runs level by level: each level's rows are
    # finalized with the nodes' own contributions, then pushed onto the
    # parents' rows with an unbuffered ``np.add.at``.  Iterating each
    # level in reverse BFS order makes the per-cell addition sequence
    # identical to a node-at-a-time reverse-BFS pass over the whole tree:
    # children in reverse BFS order, then the node's own term.  That fixes
    # the float result bit for bit.
    sub = np.zeros((rows, width), dtype=np.float64)
    for d in range(top, 0, -1):
        idx = np.arange(starts[d] - 1, starts[d - 1] - 1, -1)
        sub[idx, types[idx]] += contrib[idx]
        if d > 1:  # root children have no parent row
            np.add.at(sub, parent_row[idx], sub[idx])

    # Descendant sum excluding same-type nodes; the node's own term is of
    # its own type, so it is excluded together with them.
    referral = sub.sum(axis=1) - sub[np.arange(rows), types]
    return closure, own + referral


def bfs_types(
    view: BFSView, uids: np.ndarray, types: np.ndarray
) -> np.ndarray:
    """``types[k]`` (the type of ``uids[k]``) placed at BFS positions.

    Ids that are not nodes are ignored; a node without a type raises
    :class:`~repro.core.exceptions.TreeError`.  Task types are
    non-negative, so -1 marks a node nobody typed.
    """
    out = view.scatter(uids, types, -1)
    missing = np.flatnonzero(out < 0)
    if missing.size:
        raise TreeError(f"node {int(view.uids[missing[0]])} has no task type")
    return out


# Differential-test reference, never on the serving path; the production
# payment_kernel carries the span.
def tree_payments_naive(  # rit: noqa[RIT013]
    tree: IncentiveTree,
    auction_payments: Mapping[int, float],
    task_types: Mapping[int, TaskType],
    *,
    decay: float = DEFAULT_DECAY,
) -> Dict[int, float]:
    """Direct transcription of Algorithm 3 line 24 — O(N^2) reference.

    Iterates every node's descendant set explicitly.  Used in differential
    tests against :func:`tree_payments`; do not call on large trees.
    """
    if not 0.0 < decay < 1.0:
        raise TreeError(f"decay must be in (0, 1), got {decay}")
    depths = tree.depths()
    payments: Dict[int, float] = {}
    for node in tree.nodes():
        total = auction_payments.get(node, 0.0)
        for desc in tree.descendants(node):
            if task_types[desc] != task_types[node]:
                total += (decay ** depths[desc]) * auction_payments.get(desc, 0.0)
        payments[node] = total
    return payments

"""Columnar struct-of-arrays core: array kernels for the RIT hot stages.

The per-user object model (:mod:`repro.core.types` dataclasses, dict-keyed
tree nodes) prices every mechanism run at O(N) *Python* work — flattening
the ask profile, re-validating it, re-sorting each type pool, walking the
tree node by node for payments.  At the ROADMAP scale (millions of users
per epoch) that Python floor dominates the actual auction math.

:class:`ColumnarStore` moves all of it to construction time.  Built **once
per epoch** from the existing ``Population``/``Ask`` objects, it holds the
whole scenario as flat numpy arrays:

========================  ============================================
profile arrays            ``uids`` / ``types`` / ``values`` / ``caps``
                          in profile (admission) order — the arrays
                          :func:`profile_arrays` produces;
Extract kernel            one stable ``lexsort`` by ``(type, value)``
                          plus per-type prefix-sum capacity cutoffs —
                          Algorithm 2's per-user scan and the per-pool
                          ``argsort`` are both precomputed, so a fresh
                          per-run pool is just a capacity copy and a
                          Fenwick build (:meth:`ColumnarStore.pool`);
tree arrays               the tree's :class:`~repro.tree.
                          incentive_tree.BFSView` (node ids, parent
                          positions, depths, level bounds, uid lookup)
                          plus the store's own CSR children offsets,
                          subtree-size aggregates and BFS-ordered types.
========================  ============================================

RNG-stream compatibility
------------------------
The CRA rounds of the columnar engine run :func:`repro.core.engine.
cra_presorted` over pools the store materializes with
:meth:`~repro.core.engine.SortedTypePool.from_presorted`.  The pools carry
the *same* stable value order a per-run construction would compute, so
every round consumes the bit-identical random stream of the ``"sorted"``
engine (grid offset → one uniform per alive unit → the branch-for-branch
keep/subsample draws).  Differential goldens and the property sweep in
``tests/core`` enforce outcome equality seed by seed.

Payments (:func:`tree_payments_columnar`) run the single kernel
:func:`repro.core.payments.payment_kernel` over the store's view, reading
the BFS-ordered type column at the winners' root paths only, so final
payments are bitwise equal to :func:`~repro.core.payments.tree_payments`
by construction.

Ownership
---------
A store is **epoch-scoped and frozen**: every array is marked read-only at
construction (``writeable=False``), the epoch pipeline builds it once
before the shard fan-out, and worker threads only ever *read* it —
per-round mutable state lives in the pools :meth:`ColumnarStore.pool`
hands out, one per shard.  ``rit analyze`` (RIT011) recognises this
``epoch`` ownership role for the store's arrays.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Protocol, Tuple

import numpy as np

from repro.core.engine import SortedTypePool
from repro.core.exceptions import ModelError
from repro.core.extract import UnitAsks
from repro.core.numeric import PAYMENT_ATOL
from repro.core.payments import bfs_types, payment_kernel
from repro.core.types import Ask, Job, Population, TaskType
from repro.obs.tracer import NullTracer
from repro.tree.incentive_tree import BFSView, IncentiveTree

__all__ = [
    "ColumnarStore",
    "ProfileColumns",
    "profile_arrays",
    "validate_profile",
    "tree_payments_columnar",
]


# One O(N) flatten per RIT.run or store build, inside the caller's timing
# (RIT.run's elapsed times, the store build's).
def profile_arrays(  # rit: noqa[RIT013]
    asks: Mapping[int, Ask],
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Flatten the ask profile into aligned arrays, in profile order."""
    n = len(asks)
    uid_arr = np.fromiter(asks.keys(), dtype=np.int64, count=n)
    profile = list(asks.values())
    type_arr = np.fromiter((a.task_type for a in profile), dtype=np.int64, count=n)
    val_arr = np.fromiter((a.value for a in profile), dtype=np.float64, count=n)
    cap_arr = np.fromiter((a.capacity for a in profile), dtype=np.int64, count=n)
    return uid_arr, type_arr, val_arr, cap_arr


# Part of the caller's build step (RIT.run, the store's construction),
# which the caller times.
def validate_profile(  # rit: noqa[RIT013]
    job: Job, uid_arr: np.ndarray, type_arr: np.ndarray, view: BFSView
) -> None:
    """Check a flattened ask profile against the tree and the job.

    ``uid_arr`` holds distinct ids (a profile's keys).  Raises
    :class:`~repro.core.exceptions.ModelError`, in this order of
    precedence: for asks from ids that are not tree nodes, for tree nodes
    without an ask (each naming the five smallest such ids), and for the
    first ask, in profile order, that bids for a type the job lacks.  A
    valid profile costs one sort and two vectorized compares.
    """
    if not view.same_nodes(uid_arr):
        extra = np.setdiff1d(uid_arr, view.uids)
        if extra.size:
            raise ModelError(
                "asks from participants not in the incentive tree: "
                f"{extra[:5].tolist()}…"
            )
        missing = np.setdiff1d(view.uids, uid_arr)
        raise ModelError(
            f"tree nodes without asks: {missing[:5].tolist()}… (every user "
            "submits an ask upon joining)"
        )
    num_types = job.num_types
    bad = np.flatnonzero(type_arr >= num_types)
    if bad.size:
        first = int(bad[0])
        raise ModelError(
            f"user {int(uid_arr[first])} bids for type "
            f"{int(type_arr[first])}, but the job has only "
            f"{num_types} types"
        )


class ProfileColumns(Protocol):
    """An ask profile in array form, as :class:`ColumnarStore` and an
    epoch's :class:`~repro.service.state.StateSnapshot` both hold it.

    ``uids``, ``types``, ``values`` and ``caps`` are aligned columns in
    profile order; ``view`` is the incentive tree's BFS form,
    ``bfs_types`` the task type at each of its positions and
    ``type_width`` the highest task type + 1.
    """

    @property
    def uids(self) -> np.ndarray: ...
    @property
    def types(self) -> np.ndarray: ...
    @property
    def values(self) -> np.ndarray: ...
    @property
    def caps(self) -> np.ndarray: ...
    @property
    def view(self) -> BFSView: ...
    @property
    def bfs_types(self) -> np.ndarray: ...
    @property
    def type_width(self) -> int: ...


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an epoch-scoped store array read-only (shared across shards)."""
    arr.setflags(write=False)
    return arr


class _TypeBlock:
    """Precomputed per-type slice of the store (the Extract kernel output).

    Holds the profile slice for one task type together with its stable
    value order — everything :meth:`ColumnarStore.pool` needs to hand a
    shard a ready :class:`~repro.core.engine.SortedTypePool` without
    re-sorting.
    """

    __slots__ = (
        "uids",
        "values",
        "caps",
        "sorted_users",
        "sorted_values",
        "rank",
    )

    def __init__(
        self,
        uids: np.ndarray,
        values: np.ndarray,
        caps: np.ndarray,
        sorted_users: np.ndarray,
    ) -> None:
        self.uids = _frozen(uids)
        self.values = _frozen(values)
        self.caps = _frozen(caps)
        self.sorted_users = _frozen(sorted_users)
        self.sorted_values = _frozen(values[sorted_users])
        rank = np.empty(sorted_users.shape[0], dtype=np.int64)
        rank[sorted_users] = np.arange(sorted_users.shape[0])
        self.rank = _frozen(rank)

    @property
    def nbytes(self) -> int:
        return (
            self.uids.nbytes
            + self.values.nbytes
            + self.caps.nbytes
            + self.sorted_users.nbytes
            + self.sorted_values.nbytes
            + self.rank.nbytes
        )


class ColumnarStore:
    """Frozen struct-of-arrays view of one epoch's asks and incentive tree.

    Construct with :meth:`build` (from an ask profile with its tree, or
    from an epoch snapshot's columns and view) or :meth:`from_population`
    (directly from a truthful population — same store, no intermediate
    ``Ask`` objects).  Construction validates the
    scenario with :func:`validate_profile`, as ``RIT.run`` does for every
    engine, then precomputes every per-run quantity the mechanism needs;
    see the module docstring for the layout.
    """

    __slots__ = (
        "num_users",
        "num_types",
        "k_max",
        "type_width",
        "uids",
        "types",
        "values",
        "caps",
        "type_supply",
        "_blocks",
        "view",
        "bfs_types",
        "child_start",
        "child_index",
        "subtree_sizes",
    )

    def __init__(
        self,
        job: Job,
        uid_arr: np.ndarray,
        type_arr: np.ndarray,
        val_arr: np.ndarray,
        cap_arr: np.ndarray,
        view: BFSView,
    ) -> None:
        n = int(uid_arr.shape[0])
        self.num_users = n
        self.num_types = job.num_types
        self.uids = _frozen(np.ascontiguousarray(uid_arr, dtype=np.int64))
        self.types = _frozen(np.ascontiguousarray(type_arr, dtype=np.int64))
        validate_profile(job, self.uids, self.types, view)
        self.values = _frozen(np.ascontiguousarray(val_arr, dtype=np.float64))
        self.caps = _frozen(np.ascontiguousarray(cap_arr, dtype=np.int64))
        self.k_max = int(self.caps.max()) if n else 0
        #: Row width of the payment kernel: the highest task type + 1.
        self.type_width = int(self.types.max(initial=-1)) + 1

        # Extract kernel: one stable (type, value) lexsort and per-type
        # prefix-sum capacity cutoffs replace Algorithm 2's per-user scan
        # and the per-pool construction argsort.  ``lexsort`` is stable,
        # so within each type block the order equals the per-type stable
        # ``argsort(values)`` the sorted engine computes — the RNG-stream
        # compatibility hinges on exactly this.
        type_order = np.argsort(self.types, kind="stable")
        vt_order = np.lexsort((self.values, self.types))
        starts = np.searchsorted(
            self.types[type_order], np.arange(self.num_types + 1)
        )
        supply = np.zeros(self.num_types, dtype=np.int64)
        self._blocks: List[Optional[_TypeBlock]] = [None] * self.num_types
        for tau in range(self.num_types):
            lo, hi = int(starts[tau]), int(starts[tau + 1])
            if lo == hi:
                continue
            sel = type_order[lo:hi]  # ascending profile positions
            # Local stable value order: map the lexsorted profile
            # positions back into the slice (``sel`` is sorted, so
            # ``searchsorted`` inverts the selection exactly).
            local_order = np.searchsorted(sel, vt_order[lo:hi])
            block = _TypeBlock(
                self.uids[sel], self.values[sel], self.caps[sel], local_order
            )
            self._blocks[tau] = block
            supply[tau] = int(block.caps.sum())
        self.type_supply = _frozen(supply)

        self._init_tree_arrays(view)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    # Construction is timed by the caller (bench's store_build_seconds,
    # the service's epoch executor) and accounted by columnar_store_bytes.
    @classmethod
    def build(  # rit: noqa[RIT013]
        cls,
        job: Job,
        profile: "Mapping[int, Ask] | ProfileColumns",
        tree: Optional[IncentiveTree] = None,
    ) -> "ColumnarStore":
        """Build the store from a sealed ask profile (profile order kept).

        ``profile`` is an ask dict, flattened by :func:`profile_arrays`,
        with its incentive ``tree``; or profile columns that are already
        flat, with their view and no ``tree`` (an epoch's
        :class:`~repro.service.state.StateSnapshot`), used as they are.
        """
        if isinstance(profile, Mapping):
            if tree is None:
                raise ModelError("an ask dict needs its incentive tree")
            return cls(job, *profile_arrays(profile), tree.bfs_view())
        return cls(
            job,
            profile.uids,
            profile.types,
            profile.values,
            profile.caps,
            profile.view,
        )

    # Same accounting as build(): caller-timed, size on columnar_store_bytes.
    @classmethod
    def from_population(  # rit: noqa[RIT013]
        cls, job: Job, population: Population, tree: IncentiveTree
    ) -> "ColumnarStore":
        """Build the truthful-profile store without materializing asks.

        Equivalent to ``build(job, scenario.truthful_asks(), tree)`` but
        the profile arrays are gathered by direct dense-id indexing
        (:meth:`repro.core.types.Population.dense_ids`), skipping one
        :class:`~repro.core.types.Ask` object per user.  The profile order
        is the tree's node insertion order — exactly the order
        ``Scenario.truthful_asks`` produces, so the store (and every RNG
        draw downstream) is identical either way.
        """
        ids = population.dense_ids()
        n = ids.shape[0]
        users = population.users
        type_by_id = np.fromiter(
            (u.task_type for u in users), dtype=np.int64, count=n
        )
        cap_by_id = np.fromiter(
            (u.capacity for u in users), dtype=np.int64, count=n
        )
        cost_by_id = np.fromiter(
            (u.cost for u in users), dtype=np.float64, count=n
        )
        node_arr = np.fromiter(tree.nodes(), dtype=np.int64, count=len(tree))
        if node_arr.size and (node_arr.min() < 0 or node_arr.max() >= n):
            missing = sorted(
                int(v) for v in node_arr[(node_arr < 0) | (node_arr >= n)][:5]
            )
            raise ModelError(
                f"tree nodes without asks: {missing}… (every user submits an "
                "ask upon joining)"
            )
        return cls(
            job,
            node_arr,
            type_by_id[node_arr],
            cost_by_id[node_arr],
            cap_by_id[node_arr],
            tree.bfs_view(),
        )

    # ------------------------------------------------------------------ #
    # Tree arrays (BFS order, CSR children, level bounds, aggregates)
    # ------------------------------------------------------------------ #

    def _init_tree_arrays(self, view: BFSView) -> None:
        # BFS order must come from the tree itself: children order is
        # insertion order *as rewritten by reattach* (withdrawal grafting,
        # sybil rewires), so it cannot be re-derived from attach order.
        n = len(view)
        self.view = view
        # Validation above made the profile and the tree the same id set.
        self.bfs_types = _frozen(bfs_types(view, self.uids, self.types))
        parent_arr = view.parent

        # CSR children view: positions grouped by parent, offsets per node
        # (root children — parent -1 — excluded from the offsets table).
        child_order = np.argsort(parent_arr, kind="stable")
        non_root = parent_arr[child_order] >= 0
        child_index = child_order[non_root].astype(np.int64)
        counts = np.bincount(
            parent_arr[child_index], minlength=n
        ) if n else np.empty(0, dtype=np.int64)
        child_start = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(counts, out=child_start[1:])
        self.child_start = _frozen(child_start)
        self.child_index = _frozen(child_index)

        # Subtree-size aggregates via one reverse level sweep (node + all
        # descendants) — the store's structural summary column.
        bounds = view.level_bounds
        sizes = np.ones(n, dtype=np.int64)
        for d in range(view.max_depth, 1, -1):
            lo, hi = bounds[d - 1], bounds[d]
            np.add.at(sizes, parent_arr[lo:hi], sizes[lo:hi])
        self.subtree_sizes = _frozen(sizes)

    # ------------------------------------------------------------------ #
    # Kernels / views
    # ------------------------------------------------------------------ #

    def pool(self, tau: TaskType) -> Optional[SortedTypePool]:
        """A fresh per-run auction pool for ``tau`` (None when no bidders).

        The pool carries the precomputed stable value order, so per-run
        work is one capacity copy plus a Fenwick build — no argsort.
        """
        block = self._blocks[tau]
        if block is None:
            return None
        return SortedTypePool.from_presorted(
            block.uids,
            block.values,
            block.caps,
            block.sorted_users,
            block.sorted_values,
            block.rank,
        )

    def extract_units(self, tau: TaskType) -> UnitAsks:
        """Vectorized Algorithm 2: the ``(α, λ)`` unit-ask vector for ``tau``.

        Equal to :func:`repro.core.extract.extract` over the profile —
        same values, same owners, same (profile) order — via ``np.repeat``
        on the precomputed type slice.
        """
        block = self._blocks[tau]
        if block is None:
            empty_v = np.empty(0, dtype=np.float64)
            empty_o = np.empty(0, dtype=np.int64)
            return UnitAsks(task_type=tau, values=empty_v, owners=empty_o)
        return UnitAsks(
            task_type=tau,
            values=np.repeat(block.values, block.caps),
            owners=np.repeat(block.uids, block.caps),
        )

    @property
    def nbytes(self) -> int:
        """Total bytes held by the store's arrays (the epoch footprint)."""
        total = (
            self.uids.nbytes
            + self.types.nbytes
            + self.values.nbytes
            + self.caps.nbytes
            + self.type_supply.nbytes
            + self.view.nbytes
            + self.bfs_types.nbytes
            + self.child_start.nbytes
            + self.child_index.nbytes
            + self.subtree_sizes.nbytes
        )
        for block in self._blocks:
            if block is not None:
                total += block.nbytes
        return int(total)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarStore(users={self.num_users}, types={self.num_types}, "
            f"bytes={self.nbytes})"
        )


def tree_payments_columnar(
    store: ColumnarStore,
    auction_payments: Mapping[int, float],
    decay: float,
    *,
    tracer: Optional[NullTracer] = None,
) -> Tuple[Dict[int, float], int]:
    """Payment determination over the store's view and BFS-ordered types.

    Returns ``(kept, num_nodes)`` where ``kept`` holds exactly the
    non-zero final payments in BFS order (what
    :meth:`repro.core.rit.RIT.join_shards` keeps) and ``num_nodes`` is the
    tree size (for the pruning counters).  Runs the single kernel
    :func:`repro.core.payments.payment_kernel`, so results are bitwise
    identical to ``tree_payments`` followed by the ``is_zero`` prune.
    """
    view = store.view
    positions, final = payment_kernel(
        view,
        auction_payments,
        store.bfs_types.__getitem__,
        store.type_width,
        decay,
        tracer=tracer,
    )
    keep = np.abs(final) > PAYMENT_ATOL
    kept = dict(zip(view.uids[positions[keep]].tolist(), final[keep].tolist()))
    return kept, len(view)

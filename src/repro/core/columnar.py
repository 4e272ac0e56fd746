"""Columnar struct-of-arrays core: one epoch's profile and tree as arrays.

The per-user object model (:mod:`repro.core.types` dataclasses, dict-keyed
tree nodes) prices every mechanism run at O(N) *Python* work — flattening
the ask profile, re-validating it, re-sorting each type pool.  At the
ROADMAP scale (millions of users per epoch) that Python floor dominates
the actual auction math.

:class:`ColumnarStore` moves all of it to construction time.  Built **once
per epoch** from an ask profile with its tree, or from an epoch snapshot's
columns and view, it holds the whole scenario as flat numpy arrays:

========================  ============================================
profile arrays            ``uids`` / ``types`` / ``values`` / ``caps``
                          in profile (admission) order — the arrays
                          :func:`profile_arrays` produces;
auction pools             one :class:`~repro.core.engine.SortedTypePool`
                          per task type, built by the sorted engine's
                          :func:`~repro.core.engine.pools_from_arrays`
                          (Algorithm 2's per-type split plus the stable
                          value sort), so a run's pool is a
                          :meth:`~repro.core.engine.SortedTypePool.fork`
                          — one capacity copy, no argsort
                          (:meth:`ColumnarStore.pool`);
tree arrays               the tree's :class:`~repro.tree.
                          incentive_tree.BFSView` (node ids, parent
                          positions, depths, level bounds, uid lookup)
                          plus the task type at each BFS position.
========================  ============================================

RNG-stream compatibility
------------------------
The CRA rounds of the columnar engine run :func:`repro.core.engine.
cra_presorted` over forks of pools that ``pools_from_arrays`` built
exactly as the ``"sorted"`` engine builds its per-run pools, so every
round consumes the bit-identical random stream (grid offset → one
uniform per alive unit → the branch-for-branch keep/subsample draws).
Payments run the single kernel :func:`repro.core.payments.payment_kernel`
over the store's view and BFS-ordered types
(:meth:`repro.core.rit.RIT.join_shards` with ``columns=store``).
Differential goldens and the property sweep in ``tests/core`` enforce
outcome equality seed by seed.

Ownership
---------
A store is **epoch-scoped and frozen**: every array, the pools' included,
is marked read-only at construction (``writeable=False``), the epoch
pipeline builds it once before the shard fan-out, and worker threads only
ever *read* it — per-run mutable capacity state lives in the pool forks
:meth:`ColumnarStore.pool` hands out, one per shard.  ``rit analyze``
(RIT011) recognises this ``epoch`` ownership role for the store's arrays.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Protocol

import numpy as np

from repro.core.engine import SortedTypePool, pools_from_arrays
from repro.core.exceptions import ModelError
from repro.core.payments import bfs_types
from repro.core.types import Ask, Job, TaskType
from repro.tree.incentive_tree import BFSView, IncentiveTree

__all__ = [
    "ColumnarStore",
    "ProfileColumns",
    "profile_arrays",
    "validate_profile",
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


class ColumnarStore:
    """Frozen struct-of-arrays view of one epoch's asks and incentive tree.

    Construct with :meth:`build`, from an ask profile with its tree or
    from an epoch snapshot's columns and view.  Construction validates
    the scenario with :func:`validate_profile`, as ``RIT.run`` does for
    every engine, then precomputes every per-run quantity the mechanism
    needs; see the module docstring for the layout.
    """

    __slots__ = (
        "num_users",
        "k_max",
        "type_width",
        "uids",
        "types",
        "values",
        "caps",
        "_pools",
        "view",
        "bfs_types",
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
        self.uids = _frozen(np.ascontiguousarray(uid_arr, dtype=np.int64))
        self.types = _frozen(np.ascontiguousarray(type_arr, dtype=np.int64))
        validate_profile(job, self.uids, self.types, view)
        self.values = _frozen(np.ascontiguousarray(val_arr, dtype=np.float64))
        self.caps = _frozen(np.ascontiguousarray(cap_arr, dtype=np.int64))
        self.k_max = int(self.caps.max()) if n else 0
        #: Row width of the payment kernel: the highest task type + 1.
        self.type_width = int(self.types.max(initial=-1)) + 1
        # The sorted engine's own per-type pools, built once per store.
        self._pools: Dict[int, SortedTypePool] = pools_from_arrays(
            self.uids, self.types, self.values, self.caps
        )
        for template in self._pools.values():
            template.freeze()
        # Validation above made the profile and the tree the same id set.
        self.view = view
        self.bfs_types = _frozen(bfs_types(view, self.uids, self.types))

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

    def pool(self, tau: TaskType) -> Optional[SortedTypePool]:
        """A fresh per-run auction pool for ``tau`` (None when no bidders).

        The pool is a fork of the store's: it shares the read-only asks
        and stable value order and owns its capacities, so per-run work is
        one capacity copy — no argsort.
        """
        template = self._pools.get(tau)
        return None if template is None else template.fork()

    @property
    def nbytes(self) -> int:
        """Total bytes held by the store's arrays (the epoch footprint)."""
        return int(
            self.uids.nbytes
            + self.types.nbytes
            + self.values.nbytes
            + self.caps.nbytes
            + self.view.nbytes
            + self.bfs_types.nbytes
            + sum(pool.nbytes for pool in self._pools.values())
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarStore(users={self.num_users}, bytes={self.nbytes})"

"""Columnar core: the ask profile as frozen arrays.

Held as ``Ask`` objects, a profile would cost every mechanism run O(N)
*Python* work — flattening it, validating it, re-sorting each type pool.
This module holds it as arrays and does that work once per profile.

:class:`AskProfile` is the form every run reads: an immutable
``Mapping[int, Ask]`` over four read-only columns in profile order
(``uids``, ``types``, ``ask_values``, ``caps``).  On first use it builds
and keeps

* a sorted-id lookup: validation against a tree's
  :class:`~repro.tree.incentive_tree.BFSView`, ``in``/``[]`` and the
  types of the payment closure's nodes (:meth:`AskProfile.types_of`);
* one frozen :class:`~repro.core.engine.SortedTypePool` per task type,
  built by :func:`~repro.core.engine.pools_from_arrays` (Algorithm 2's
  split plus the stable value sort); each run consumes a
  :meth:`~repro.core.engine.SortedTypePool.fork` (:meth:`AskProfile.pool`)
  — one capacity copy, no argsort;
* ``k_max`` and ``type_width`` (the payment kernel's row width).

An ``Ask`` is built only when a caller reads one, at most once per user;
validation, pools, the auction and payments never build one.
:meth:`AskProfile.of` is the one conversion point: a profile passes as
is, any other mapping is flattened once by :func:`profile_arrays`.

RNG-stream compatibility
------------------------
Every run's CRA rounds run over forks of the pools that
``pools_from_arrays`` built from the profile's columns in profile order,
so every round consumes the bit-identical random stream (grid offset →
one uniform per alive unit → the branch-for-branch keep/subsample draws).
Differential goldens and the property sweeps in ``tests/core`` enforce
outcome equality seed by seed, dict input against profile input and the
production engine against the reference oracle.

Ownership
---------
A profile copies every writeable column it is given and marks the copy
read-only (``writeable=False``); a column that is already read-only, such
as an epoch snapshot's, is shared without a copy.  The caller's arrays are
never modified.  The pools' arrays are read-only too: per-run mutable
capacity state lives in the pool forks, one per shard.  A lock per
profile makes each ``Ask`` and the pools be built once even when runs on
several threads ask for them at once.  ``rit analyze`` (RIT011)
recognises this ``epoch`` ownership role for the profile's arrays.
"""

from __future__ import annotations

import operator
import threading
from collections.abc import ItemsView, ValuesView
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.engine import SortedTypePool, pools_from_arrays
from repro.core.exceptions import ModelError, TreeError
from repro.core.payments import bfs_types
from repro.core.types import Ask, Job, TaskType
from repro.tree.incentive_tree import BFSView, IncentiveTree

__all__ = [
    "AskProfile",
    "ColumnarStore",
    "profile_arrays",
]


# One O(N) flatten per dict handed to AskProfile.of, inside the caller's
# timing (RIT.run's elapsed times).
def profile_arrays(  # rit: noqa[RIT013]
    asks: Mapping[int, Ask],
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """The ask profile as aligned ``(uids, types, values, caps)`` arrays.

    A dict is flattened in its order; an :class:`AskProfile` returns its
    own read-only columns without building an ``Ask``.
    """
    if isinstance(asks, AskProfile):
        return asks.uids, asks.types, asks.ask_values, asks.caps
    n = len(asks)
    uid_arr = np.fromiter(asks.keys(), dtype=np.int64, count=n)
    profile = list(asks.values())
    type_arr = np.fromiter((a.task_type for a in profile), dtype=np.int64, count=n)
    val_arr = np.fromiter((a.value for a in profile), dtype=np.float64, count=n)
    cap_arr = np.fromiter((a.capacity for a in profile), dtype=np.int64, count=n)
    return uid_arr, type_arr, val_arr, cap_arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array this module owns read-only (shared across shards)."""
    arr.setflags(write=False)
    return arr


def _column(name: str, data: object, dtype: type) -> np.ndarray:
    """A read-only 1-D column: a read-only array of ``dtype`` is shared,
    anything else is copied (never cast across kinds) and the copy frozen."""
    if (
        isinstance(data, np.ndarray)
        and data.dtype == dtype
        and not data.flags.writeable
    ):
        col = data
    else:
        src = np.asarray(data)
        if src.size and not np.can_cast(src.dtype, dtype, casting="same_kind"):
            raise ModelError(f"{name} must be {np.dtype(dtype).name}, got {src.dtype}")
        col = _frozen(np.array(src, dtype=dtype))
    if col.ndim != 1:
        raise ModelError(f"{name} must be one-dimensional, got shape {col.shape}")
    return col


class _Values(ValuesView):
    """``profile.values()``: every ask, built in one pass on first use."""

    __slots__ = ()

    def __iter__(self) -> Iterator[Ask]:
        return iter(self._mapping._all_asks())


class _Items(ItemsView):
    """``profile.items()``: ``(uid, ask)`` pairs in profile order."""

    __slots__ = ()

    def __iter__(self) -> Iterator[Tuple[int, Ask]]:
        profile = self._mapping
        return zip(profile.uids.tolist(), profile._all_asks())


class AskProfile(Mapping[int, Ask]):
    """An immutable ask profile: ``{user id: Ask}`` over read-only columns.

    ``uids``, ``types``, ``ask_values`` and ``caps`` are aligned columns
    in profile order — the order in which Extract (Algorithm 2) reads the
    asks, hence the pools' tie-break order.  Construction checks what
    :class:`~repro.core.types.Ask` checks, column-wise: distinct ids,
    non-negative types, positive integer capacities and finite positive
    values.  See the module docstring for the caches and ownership.
    """

    __slots__ = (
        "uids",
        "types",
        "ask_values",
        "caps",
        "_sorted_uids",
        "_sorted_rows",
        "_asks",
        "_pools",
        "_k_max",
        "_type_width",
        "_lock",
    )

    uids: np.ndarray
    types: np.ndarray
    #: Ask values.  Not ``values``, which would shadow ``Mapping.values``.
    ask_values: np.ndarray
    caps: np.ndarray

    def __init__(
        self,
        uids: "np.ndarray | List[int]",
        types: "np.ndarray | List[int]",
        ask_values: "np.ndarray | List[float]",
        caps: "np.ndarray | List[int]",
    ) -> None:
        set_ = object.__setattr__
        uid_col = _column("uids", uids, np.int64)
        type_col = _column("types", types, np.int64)
        val_col = _column("ask_values", ask_values, np.float64)
        cap_col = _column("caps", caps, np.int64)
        n = uid_col.shape[0]
        if not n == type_col.shape[0] == val_col.shape[0] == cap_col.shape[0]:
            raise ModelError("profile columns must have equal lengths")
        for bad, what, col in (
            (type_col < 0, "task_type must be >= 0", type_col),
            (cap_col <= 0, "capacity must be a positive integer", cap_col),
            (
                ~(np.isfinite(val_col) & (val_col > 0)),
                "ask value must be finite and > 0",
                val_col,
            ),
        ):
            rows = np.flatnonzero(bad)
            if rows.size:
                row = int(rows[0])
                raise ModelError(
                    f"user {int(uid_col[row])}: {what}, got {col[row].item()}"
                )
        # Ids are checked distinct below, so any sort gives the one
        # permutation; numpy's default is several times faster than a
        # stable sort here.
        order = np.argsort(uid_col)
        sorted_uids = uid_col[order]
        dup = np.flatnonzero(sorted_uids[1:] == sorted_uids[:-1])
        if dup.size:
            raise ModelError(f"duplicate user id {int(sorted_uids[dup[0]])}")
        set_(self, "uids", uid_col)
        set_(self, "types", type_col)
        set_(self, "ask_values", val_col)
        set_(self, "caps", cap_col)
        set_(self, "_sorted_uids", _frozen(sorted_uids))
        set_(self, "_sorted_rows", _frozen(order))
        set_(self, "_asks", None)
        set_(self, "_pools", None)
        set_(self, "_k_max", None)
        set_(self, "_type_width", None)
        #: Guards the ask and pool caches, which runs on several threads
        #: may fill at once.
        set_(self, "_lock", threading.Lock())

    @classmethod
    def of(cls, asks: Mapping[int, Ask]) -> "AskProfile":
        """The profile form of ``asks``: a profile as is, a mapping flattened.

        This is the one conversion point from an ask dict.  The dict's
        order becomes the profile order.
        """
        if isinstance(asks, AskProfile):
            return asks
        return cls(*(_frozen(col) for col in profile_arrays(asks)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"AskProfile is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"AskProfile is immutable (cannot delete {name!r})")

    def __reduce__(self) -> "tuple[type, tuple[np.ndarray, ...]]":
        return (AskProfile, (self.uids, self.types, self.ask_values, self.caps))

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self.uids.shape[0])

    def __iter__(self) -> Iterator[int]:
        return iter(self.uids.tolist())

    def __contains__(self, key: object) -> bool:
        return self._row(key) >= 0

    def __getitem__(self, key: int) -> Ask:
        row = self._row(key)
        if row < 0:
            raise KeyError(key)
        cache = self._asks
        ask = None if cache is None else cache[row]
        if ask is None:
            with self._lock:
                cache = self._asks
                if cache is None:
                    cache = [None] * len(self)
                    object.__setattr__(self, "_asks", cache)
                ask = cache[row]
                if ask is None:
                    ask = cache[row] = Ask(
                        task_type=int(self.types[row]),
                        capacity=int(self.caps[row]),
                        value=float(self.ask_values[row]),
                    )
        return ask

    def values(self) -> "ValuesView[Ask]":
        return _Values(self)

    def items(self) -> "ItemsView[int, Ask]":
        return _Items(self)

    def __repr__(self) -> str:
        return f"AskProfile(users={len(self)})"

    def _row(self, key: object) -> int:
        """Row of user ``key``, -1 when it has no ask."""
        sorted_uids = self._sorted_uids
        try:
            uid = operator.index(key)  # type: ignore[arg-type]
            k = sorted_uids.searchsorted(uid)
        except (TypeError, OverflowError):
            return -1
        if k < sorted_uids.shape[0] and sorted_uids[k] == uid:
            return int(self._sorted_rows[k])
        return -1

    def _all_asks(self) -> Sequence[Ask]:
        """Every ask in profile order; builds the missing ones in one pass.

        The ask cache is None, then a list with holes, and a tuple once
        every ask is built.
        """
        cache = self._asks
        if not isinstance(cache, tuple):
            with self._lock:
                cache = self._asks
                if not isinstance(cache, tuple):
                    cache = tuple(
                        Ask(task_type=t, capacity=k, value=v) if ask is None else ask
                        for ask, t, k, v in zip(
                            cache or [None] * len(self),
                            self.types.tolist(),
                            self.caps.tolist(),
                            self.ask_values.tolist(),
                        )
                    )
                    object.__setattr__(self, "_asks", cache)
        return cache

    # ------------------------------------------------------------------ #
    # What every run reads
    # ------------------------------------------------------------------ #

    @property
    def k_max(self) -> int:
        """The largest claimed capacity (0 for an empty profile)."""
        if self._k_max is None:
            object.__setattr__(self, "_k_max", int(self.caps.max(initial=0)))
        return self._k_max

    @property
    def type_width(self) -> int:
        """The highest task type + 1 (the payment kernel's row width)."""
        if self._type_width is None:
            width = int(self.types.max(initial=-1)) + 1
            object.__setattr__(self, "_type_width", width)
        return self._type_width

    # Part of RIT.run's build step, which the run times.
    def validate(self, job: Job, view: BFSView) -> None:  # rit: noqa[RIT013]
        """Check the profile against the tree's view and the job.

        Raises :class:`~repro.core.exceptions.ModelError`, in this order of
        precedence: for asks from ids that are not tree nodes, for tree
        nodes without an ask (each naming the five smallest such ids), and
        for the first ask, in profile order, that bids for a type the job
        lacks.  A valid profile costs one compare of the cached sorted ids.
        """
        if not view.same_nodes(self._sorted_uids):
            extra = np.setdiff1d(self.uids, view.uids)
            if extra.size:
                raise ModelError(
                    "asks from participants not in the incentive tree: "
                    f"{extra[:5].tolist()}…"
                )
            missing = np.setdiff1d(view.uids, self.uids)
            raise ModelError(
                f"tree nodes without asks: {missing[:5].tolist()}… (every user "
                "submits an ask upon joining)"
            )
        num_types = job.num_types
        if self.type_width > num_types:
            first = int(np.flatnonzero(self.types >= num_types)[0])
            raise ModelError(
                f"user {int(self.uids[first])} bids for type "
                f"{int(self.types[first])}, but the job has only "
                f"{num_types} types"
            )

    # Built once per profile, inside the first run's timing (RIT.run's
    # elapsed times); later calls return the cache.
    def pools(self) -> Dict[int, SortedTypePool]:  # rit: noqa[RIT013]
        """The frozen per-type pools, built on first use (read them only)."""
        pools = self._pools
        if pools is None:
            with self._lock:
                pools = self._pools
                if pools is None:
                    pools = pools_from_arrays(
                        self.uids, self.types, self.ask_values, self.caps
                    )
                    for template in pools.values():
                        template.freeze()
                    object.__setattr__(self, "_pools", pools)
        return pools

    def pool(self, tau: TaskType) -> Optional[SortedTypePool]:
        """A fresh per-run auction pool for ``tau`` (None when no bidders).

        The pool is a fork of the cached one: it shares the read-only asks
        and stable value order and owns its capacities.
        """
        template = self.pools().get(tau)
        return None if template is None else template.fork()

    def _rows_of(self, uids: np.ndarray) -> np.ndarray:
        """Profile rows of ``uids``; -1 for ids without an ask."""
        n = len(self)
        if n == 0:
            return np.full(uids.shape, -1, dtype=np.int64)
        slot = np.minimum(np.searchsorted(self._sorted_uids, uids), n - 1)
        return np.where(
            self._sorted_uids[slot] == uids, self._sorted_rows[slot], -1
        )

    def types_of(self, uids: np.ndarray) -> np.ndarray:
        """Task types of ``uids``, read from the columns.

        Raises :class:`~repro.core.exceptions.TreeError` for an id without
        an ask (a tree node the payment phase cannot type).
        """
        rows = self._rows_of(uids)
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            raise TreeError(f"node {int(uids[missing[0]])} has no task type")
        return self.types[rows]

    def gather(self, uids: np.ndarray) -> "AskProfile":
        """The profile of ``uids``, in that order; ids without an ask are
        left out.  Column gathers only: no ``Ask`` is built."""
        rows = self._rows_of(uids)
        rows = rows[rows >= 0]
        return AskProfile(
            *(
                _frozen(col[rows])
                for col in (self.uids, self.types, self.ask_values, self.caps)
            )
        )


class ColumnarStore:
    """A validated profile with its tree's BFS arrays, frozen.

    No run reads one: offline runs read the profile and the tree's view,
    and epochs read their snapshot.  The class stays while perfbench's
    layer table names ``ColumnarStore.build``, because perfbench checks
    that every entry point it lists still resolves.
    """

    __slots__ = ("asks", "view", "bfs_types")

    def __init__(
        self, asks: AskProfile, view: BFSView, node_types: np.ndarray
    ) -> None:
        self.asks = asks
        self.view = view
        #: Task type at each BFS position of ``view``.
        self.bfs_types = node_types

    # Construction is timed by its caller.
    @classmethod
    def build(  # rit: noqa[RIT013]
        cls, job: Job, asks: Mapping[int, Ask], tree: IncentiveTree
    ) -> "ColumnarStore":
        """Validate ``asks`` against ``tree`` and ``job``, as ``RIT.run``
        does, and build the profile's pools."""
        profile = AskProfile.of(asks)
        view = tree.bfs_view()
        profile.validate(job, view)
        profile.pools()
        return cls(
            profile, view, _frozen(bfs_types(view, profile.uids, profile.types))
        )

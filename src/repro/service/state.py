"""Cumulative service state: the asks and incentive tree built by a stream.

One :class:`ServiceState` instance is the single source of truth for
"what would the platform auction if an epoch closed right now".  It is a
*deterministic state machine*: :meth:`ServiceState.apply` either applies
an event or refuses it with a reason string, purely as a function of the
events applied so far.  The online service and the offline replay harness
(:mod:`repro.service.replay`) drive the *same* class over the same event
sequence, which is what makes the differential bit-identity test
meaningful — there is no second implementation to drift.

Admission rules (all refusals are counted upstream, never silent):

* an ask is admitted once per user id; duplicate submissions are refused
  (sealed-bid semantics — no revisions inside a solicitation); an ask
  whose user id is outside int64 or that breaks
  :func:`~repro.core.types.validate_ask` raises
  :class:`~repro.core.exceptions.ModelError`, since the frontend refuses
  it before the queue and only a stream that skipped the frontend can
  carry one;
* a referral is recorded only when the referrer has already joined (or is
  the platform ROOT) and the child has neither joined nor been referred —
  the incentive tree assigns at most one solicitor per user (§4);
* the referral takes effect when the child's ask arrives; a child who
  joins without a recorded referral attaches to ROOT (spontaneous join);
* a withdrawal removes the user's ask and grafts their children (both
  joined subtrees and still-pending referrals) onto the withdrawn user's
  parent, preserving everyone else's solicitation chain.

Storage.  Admitted asks live in append-only typed columns, one row per
admission: user id, task type, capacity, value, parent row (-1 under the
root) and a live flag.  A withdrawal clears the leaver's live flag; a
rejoin appends a fresh row, so the live rows in row order are exactly the
admission order a delete-and-reinsert dict would keep.  That order is
load-bearing: it is the profile order the auction pools inherit and the
child order of the tree, hence BFS order and the order in which payments
are summed.  Two indexes sit beside the columns — parent row → joined
child rows and referrer → pending children — so a withdrawal costs
O(the leaver's children and pending referrals), never a scan of every
participant.  A graft only moves a child up to an older ancestor, so every
parent row precedes its children's rows, which lets a snapshot's tree form
be built in one pass (:meth:`~repro.tree.incentive_tree.IncentiveTree.
from_parent_map`).

Snapshots.  :meth:`ServiceState.snapshot` copies the live rows' columns
into read-only numpy arrays and builds their
:class:`~repro.tree.incentive_tree.BFSView` with
:meth:`~repro.tree.incentive_tree.BFSView.from_parents` and the
:class:`~repro.core.columnar.AskProfile` that every epoch's run reads,
with its per-type auction pools — O(rows) array work, no pass over users
in Python.  The profile shares the snapshot's columns without a copy;
the :class:`~repro.tree.incentive_tree.IncentiveTree` that offline
callers take is built from them on first use.

Carried order.  Each pool sorts its type's asks stably by value.  The
state keeps that order between snapshots: per type, the rows live at the
last snapshot in (value, row) order.  A snapshot sorts only the rows
admitted since, merges them in after the kept rows of equal value (every
kept row is older) and drops dead rows by mask, so no epoch sorts a
type's values afresh.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Set, Union

import numpy as np

from repro.core.columnar import AskProfile
from repro.core.engine import SortedTypePool, sorted_unique
from repro.core.exceptions import ModelError
from repro.core.types import INT64_MAX, Job, validate_ask
from repro.service.events import (
    EVENT_CLASSES,
    AskSubmitted,
    ReferralEdge,
    ServiceEvent,
    Withdrawal,
    event_class,
    validate_event,
)
from repro.tree.incentive_tree import ROOT, BFSView, IncentiveTree

__all__ = ["ServiceState", "StateSnapshot"]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateSnapshot:
    """The admitted asks and their tree at one instant, as read-only arrays.

    The five columns hold one entry per participant, in admission order;
    they are copies, never views of the state's growing columns, so an
    epoch's worker thread may read them (and the view and profile built
    over them) while the state keeps admitting events.
    """

    uids: np.ndarray
    types: np.ndarray
    values: np.ndarray
    caps: np.ndarray
    #: Column index of each participant's parent, -1 under the root.
    parents: np.ndarray
    #: The tree's breadth-first form, built from ``parents``.
    view: BFSView
    #: The ask profile in admission order: an
    #: :class:`~repro.core.columnar.AskProfile` over the snapshot's own
    #: columns, shared without a copy, with its id lookup and frozen
    #: per-type pools already built; it builds an ``Ask`` only for a
    #: caller that reads one.
    asks: AskProfile

    def __len__(self) -> int:
        return int(self.uids.shape[0])

    @cached_property
    def tree(self) -> IncentiveTree:
        """The incentive tree, built on first use from the parent column.

        Its own :meth:`~repro.tree.incentive_tree.IncentiveTree.bfs_view`
        walks the tree afresh; it never reuses :attr:`view`.
        """
        parent_uids = np.where(
            self.parents >= 0, self.uids[self.parents], ROOT
        )
        return IncentiveTree.from_parent_map(
            dict(zip(self.uids.tolist(), parent_uids.tolist()))
        )


class ServiceState:
    """Mutable cumulative state in append-only columns (see module docs).

    :meth:`snapshot` freezes the live rows for one epoch: read-only copies
    of their columns plus their BFS view and ask profile, O(rows) array
    work.
    """

    def __init__(self, job: Job) -> None:
        self.job = job
        # One row per admitted ask, in admission order.
        self._uid = array("q")
        self._type = array("q")
        self._cap = array("q")
        self._value = array("d")
        #: Row of each row's parent (ROOT, i.e. -1, under the root).
        self._parent = array("q")
        self._live = bytearray()
        #: user id → row, for joined users only.
        self._rows: Dict[int, int] = {}
        #: child → referrer for referred users who have not joined yet.
        self._pending: Dict[int, int] = {}
        #: Indexes by non-ROOT parent row / referrer id (ROOT never
        #: withdraws); entries exist only while non-empty.
        self._children: Dict[int, Set[int]] = {}
        self._referred: Dict[int, Set[int]] = {}
        #: type → its rows, live at the last snapshot, in (value, row)
        #: order; rows from ``_merged`` on are not merged in yet.
        self._order: Dict[int, np.ndarray] = {}
        self._merged = 0

    # ------------------------------------------------------------------ #
    # Event application
    # ------------------------------------------------------------------ #

    def apply(self, event: ServiceEvent) -> Optional[str]:
        """Apply one event; returns a refusal reason, or None on success."""
        kind = type(event)
        if kind not in EVENT_CLASSES:
            kind = event_class(event)
        if kind is AskSubmitted:
            return self._apply_ask(event)
        if kind is ReferralEdge:
            return self._apply_referral(event)
        if kind is Withdrawal:
            return self._apply_withdrawal(event)
        return f"unknown event type {type(event).__name__}"

    def _apply_ask(self, event: AskSubmitted) -> Optional[str]:
        uid = event.user_id
        rows = self._rows
        if uid in rows:
            return f"user {uid} already submitted an ask"
        # The frontend admitted this ask under the same rule; a replay of
        # a stream that was never admitted must still fail loudly, before
        # an out-of-range id, type or capacity reaches the int64 columns.
        # The id compares are inline (this runs once per ask); the
        # frontend's rule says what is wrong with an id outside them.
        if uid < 0 or uid > INT64_MAX:
            reason = validate_event(event, self.job)
        else:
            reason = validate_ask(event.task_type, event.capacity, event.value)
        if reason is not None:
            raise ModelError(reason)
        row = len(self._uid)
        parent = self._pending.pop(uid, ROOT)
        parent_row = ROOT
        if parent != ROOT:
            # Drop the pending referral and link the child row, inline:
            # every referred ask runs this.
            referred = self._referred
            siblings = referred[parent]
            siblings.discard(uid)
            if not siblings:
                del referred[parent]
            # The referrer may have withdrawn since the referral was
            # recorded; withdrawal grafting rewrites pending entries, so a
            # stale parent here means corruption, not a race — guard anyway.
            parent_row = rows.get(parent, ROOT)
            if parent_row != ROOT:
                children = self._children.get(parent_row)
                if children is None:
                    self._children[parent_row] = {row}
                else:
                    children.add(row)
        rows[uid] = row
        self._uid.append(uid)
        self._type.append(event.task_type)
        self._cap.append(int(event.capacity))
        self._value.append(float(event.value))
        self._parent.append(parent_row)
        self._live.append(1)
        return None

    def _apply_referral(self, event: ReferralEdge) -> Optional[str]:
        child, parent = event.child_id, event.parent_id
        if child in self._rows:
            return f"user {child} already joined; referral must precede the ask"
        if child in self._pending:
            return f"user {child} already has a recorded referrer"
        if parent != ROOT and parent not in self._rows:
            return f"referrer {parent} has not joined"
        self._pending[child] = parent
        if parent != ROOT:
            siblings = self._referred.get(parent)
            if siblings is None:
                self._referred[parent] = {child}
            else:
                siblings.add(child)
        return None

    def _apply_withdrawal(self, event: Withdrawal) -> Optional[str]:
        uid = event.user_id
        row = self._rows.pop(uid, None)
        if row is None:
            return f"user {uid} is not an active participant"
        self._live[row] = 0
        grandparent_row = self._parent[row]
        grandparent = ROOT
        if grandparent_row != ROOT:
            _unlink(self._children, grandparent_row, row)
            grandparent = self._uid[grandparent_row]
        _graft(self._parent, self._children, row, grandparent_row)
        _graft(self._pending, self._referred, uid, grandparent)
        return None

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def snapshot(self) -> StateSnapshot:
        """The live rows, copied read-only, their BFS view and their ask
        profile with its pools — O(rows) array work, no value sort.

        The ``np.frombuffer`` views of the columns live only inside this
        call: an ``array`` refuses to grow while a view of it is alive.
        """
        live = np.frombuffer(self._live, dtype=np.bool_)
        uids = _frozen(np.frombuffer(self._uid, dtype=np.int64)[live])
        types = _frozen(np.frombuffer(self._type, dtype=np.int64)[live])
        values = _frozen(np.frombuffer(self._value, dtype=np.float64)[live])
        caps = _frozen(np.frombuffer(self._cap, dtype=np.int64)[live])
        parent_rows = np.frombuffer(self._parent, dtype=np.int64)[live]
        if uids.shape[0] == live.shape[0]:
            parents = parent_rows
            live_rows = None
        else:
            # Renumber parent rows into positions among the live rows.
            position = np.cumsum(live, dtype=np.int64) - 1
            parents = np.where(parent_rows >= 0, position[parent_rows], ROOT)
            live_rows = np.flatnonzero(live)
        # One id sort serves the profile's lookup and the view's.
        by_uid = np.argsort(uids)
        lookup = (_frozen(uids[by_uid]), _frozen(by_uid))
        pools: Dict[int, SortedTypePool] = {}
        slot = np.empty(live.shape[0], dtype=np.int64)
        carried = self._carry(live)
        for tau in sorted(carried):
            rows = carried[tau]
            # The type's pool holds its live rows in row order, as
            # ``pools_from_arrays`` selects them; ``slot`` maps each of
            # those rows to its pool position.
            sel = np.flatnonzero(types == tau)
            slot[sel if live_rows is None else live_rows[sel]] = np.arange(
                sel.shape[0], dtype=np.int64
            )
            pool = SortedTypePool(uids[sel], values[sel], caps[sel], slot[rows])
            pool.freeze()
            pools[tau] = pool
        return StateSnapshot(
            uids=uids,
            types=types,
            values=values,
            caps=caps,
            parents=_frozen(parents),
            view=BFSView.from_parents(uids, parents, lookup),
            asks=AskProfile.presorted((uids, types, values, caps), lookup, pools),
        )

    def _carry(self, live: np.ndarray) -> Dict[int, np.ndarray]:
        """Each type's live rows in (value, row) order, carried forward.

        Rows admitted since the last snapshot are sorted among themselves
        (stably, so ties keep row order) and merged into the kept order
        after its equal values, since every kept row is older; rows that
        died since are dropped by mask.  The result equals a stable value
        sort of the type's live rows, and is kept for the next snapshot.
        """
        values = np.frombuffer(self._value, dtype=np.float64)
        start = self._merged
        fresh = start + np.flatnonzero(live[start:])
        fresh = fresh[np.argsort(values[fresh], kind="stable")]
        fresh_types = np.frombuffer(self._type, dtype=np.int64)[fresh]
        self._merged = live.shape[0]
        carried = self._order
        for tau in set(carried).union(sorted_unique(fresh_types).tolist()):
            kept = carried.get(tau)
            arrivals = fresh[fresh_types == tau]
            if kept is None:
                merged = arrivals
            else:
                kept = kept[live[kept]]
                merged = _merge(kept, arrivals, values)
            if merged.shape[0]:
                carried[tau] = merged
            else:
                del carried[tau]
        return carried

    def snapshot_asks(self) -> AskProfile:
        """The admitted ask profile, in admission order."""
        return self.snapshot().asks

    def snapshot_tree(self) -> IncentiveTree:
        """The incentive tree over currently joined users."""
        return self.snapshot().tree

    @property
    def num_participants(self) -> int:
        return len(self._rows)

    @property
    def num_pending_referrals(self) -> int:
        return len(self._pending)


def _merge(kept: np.ndarray, arrivals: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``kept`` and ``arrivals``, both rows in (value, row) order and every
    arrival newer than every kept row, merged into that order.

    Each arrival goes after the kept rows of equal value
    (``side="right"``); the positions are index arithmetic, no sort.
    """
    if not arrivals.shape[0]:
        return kept
    total = kept.shape[0] + arrivals.shape[0]
    at = values[kept].searchsorted(values[arrivals], side="right")
    at += np.arange(arrivals.shape[0])
    merged = np.empty(total, dtype=np.int64)
    merged[at] = arrivals
    old = np.ones(total, dtype=np.bool_)
    old[at] = False
    merged[old] = kept
    return merged


def _unlink(index: Dict[int, Set[int]], parent: int, child: int) -> None:
    """Drop ``child`` from ``index[parent]``, and the entry once empty."""
    siblings = index[parent]
    siblings.discard(child)
    if not siblings:
        del index[parent]


def _graft(
    parents: Union[Dict[int, int], "array[int]"],
    index: Dict[int, Set[int]],
    leaver: int,
    grandparent: int,
) -> None:
    """Re-point the leaver's indexed children at ``grandparent``.

    Values change in place: rows keep their order and a dict its
    insertion order.
    """
    moved = index.pop(leaver, None)
    if moved is None:
        return
    for child in moved:
        parents[child] = grandparent
    if grandparent == ROOT:
        return
    siblings = index.get(grandparent)
    if siblings is None:
        index[grandparent] = moved
    else:
        siblings.update(moved)

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
  (sealed-bid semantics — no revisions inside a solicitation);
* a referral is recorded only when the referrer has already joined (or is
  the platform ROOT) and the child has neither joined nor been referred —
  the incentive tree assigns at most one solicitor per user (§4);
* the referral takes effect when the child's ask arrives; a child who
  joins without a recorded referral attaches to ROOT (spontaneous join);
* a withdrawal removes the user's ask and grafts their children (both
  joined subtrees and still-pending referrals) onto the withdrawn user's
  parent, preserving everyone else's solicitation chain.

Costs.  Two indexes sit beside the parent map — parent → joined children
and referrer → pending children — so a withdrawal costs O(the leaver's
children and pending referrals), never a scan of every participant.  The
parent map's insertion order is left exactly as admission made it: it
fixes the snapshot tree's child order, hence BFS order and the order in
which payments are summed.  Every parent precedes its children in that
order (a parent joined first, and a graft only moves a child up to an
older ancestor), which lets :meth:`ServiceState.snapshot_tree` build the
tree in one O(N) pass.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.types import Ask, Job
from repro.service.events import (
    AskSubmitted,
    ReferralEdge,
    ServiceEvent,
    Withdrawal,
)
from repro.tree.incentive_tree import ROOT, IncentiveTree

__all__ = ["ServiceState"]


class ServiceState:
    """Mutable cumulative state; each snapshot is an O(N) copy for one epoch."""

    def __init__(self, job: Job) -> None:
        self.job = job
        #: Admitted asks in admission order — this ordering is load-bearing:
        #: ``repro.core.rit.profile_arrays`` flattens it positionally, so the
        #: online service and the offline replay must agree on it exactly.
        self._asks: Dict[int, Ask] = {}
        #: child → parent for every joined user (ROOT for spontaneous joins).
        self._parents: Dict[int, int] = {}
        #: child → referrer for referred users who have not joined yet.
        self._pending: Dict[int, int] = {}
        #: Indexes of the two maps above, by non-ROOT parent / referrer
        #: (ROOT never withdraws); entries exist only while non-empty.
        self._children: Dict[int, Set[int]] = {}
        self._referred: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------ #
    # Event application
    # ------------------------------------------------------------------ #

    def apply(self, event: ServiceEvent) -> Optional[str]:
        """Apply one event; returns a refusal reason, or None on success."""
        if isinstance(event, AskSubmitted):
            return self._apply_ask(event)
        if isinstance(event, ReferralEdge):
            return self._apply_referral(event)
        if isinstance(event, Withdrawal):
            return self._apply_withdrawal(event)
        return f"unknown event type {type(event).__name__}"

    def _apply_ask(self, event: AskSubmitted) -> Optional[str]:
        uid = event.user_id
        if uid in self._asks:
            return f"user {uid} already submitted an ask"
        self._asks[uid] = event.ask()
        parent = self._pending.pop(uid, ROOT)
        if parent != ROOT:
            _unlink(self._referred, parent, uid)
            # The referrer may have withdrawn since the referral was
            # recorded; withdrawal grafting rewrites pending entries, so a
            # stale parent here means corruption, not a race — guard anyway.
            if parent in self._asks:
                _link(self._children, parent, uid)
            else:
                parent = ROOT
        self._parents[uid] = parent
        return None

    def _apply_referral(self, event: ReferralEdge) -> Optional[str]:
        child, parent = event.child_id, event.parent_id
        if child in self._asks:
            return f"user {child} already joined; referral must precede the ask"
        if child in self._pending:
            return f"user {child} already has a recorded referrer"
        if parent != ROOT and parent not in self._asks:
            return f"referrer {parent} has not joined"
        self._pending[child] = parent
        if parent != ROOT:
            _link(self._referred, parent, child)
        return None

    def _apply_withdrawal(self, event: Withdrawal) -> Optional[str]:
        uid = event.user_id
        if uid not in self._asks:
            return f"user {uid} is not an active participant"
        del self._asks[uid]
        grandparent = self._parents.pop(uid)
        if grandparent != ROOT:
            _unlink(self._children, grandparent, uid)
        _graft(self._parents, self._children, uid, grandparent)
        _graft(self._pending, self._referred, uid, grandparent)
        return None

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def snapshot_asks(self) -> Dict[int, Ask]:
        """Copy of the admitted ask profile, in admission order."""
        return dict(self._asks)

    def snapshot_tree(self) -> IncentiveTree:
        """The incentive tree over currently joined users — one O(N) pass."""
        return IncentiveTree.from_parent_map(self._parents)

    @property
    def num_participants(self) -> int:
        return len(self._asks)

    @property
    def num_pending_referrals(self) -> int:
        return len(self._pending)


def _link(index: Dict[int, Set[int]], parent: int, child: int) -> None:
    """Add ``child`` to ``index[parent]``."""
    siblings = index.get(parent)
    if siblings is None:
        index[parent] = {child}
    else:
        siblings.add(child)


def _unlink(index: Dict[int, Set[int]], parent: int, child: int) -> None:
    """Drop ``child`` from ``index[parent]``, and the entry once empty."""
    siblings = index[parent]
    siblings.discard(child)
    if not siblings:
        del index[parent]


def _graft(
    parents: Dict[int, int],
    index: Dict[int, Set[int]],
    leaver: int,
    grandparent: int,
) -> None:
    """Re-point the leaver's indexed children at ``grandparent``.

    Values change in place, so the map's insertion order is untouched.
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

"""Test-only oracle for :class:`repro.service.state.ServiceState`.

The state machine as it was before its child indexes: every withdrawal
scans the whole parent map and the whole pending map for the leaver's
children — O(N) per withdrawal — and the snapshot tree is built through
the order-agnostic :meth:`IncentiveTree.from_edges`.  Slow, but obviously
right, so the indexed production class is checked against it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.types import Ask
from repro.service.events import (
    AskSubmitted,
    ReferralEdge,
    ServiceEvent,
    Withdrawal,
)
from repro.tree.incentive_tree import ROOT, IncentiveTree


class ScanningState:
    """Reference cumulative state with a scanning withdrawal graft."""

    def __init__(self) -> None:
        self.asks: Dict[int, Ask] = {}
        self.parents: Dict[int, int] = {}
        self.pending: Dict[int, int] = {}

    def apply(self, event: ServiceEvent) -> Optional[str]:
        if isinstance(event, AskSubmitted):
            uid = event.user_id
            if uid in self.asks:
                return f"user {uid} already submitted an ask"
            self.asks[uid] = event.ask()
            parent = self.pending.pop(uid, ROOT)
            self.parents[uid] = (
                parent if parent == ROOT or parent in self.asks else ROOT
            )
            return None
        if isinstance(event, ReferralEdge):
            child, parent = event.child_id, event.parent_id
            if child in self.asks:
                return f"user {child} already joined; referral must precede the ask"
            if child in self.pending:
                return f"user {child} already has a recorded referrer"
            if parent != ROOT and parent not in self.asks:
                return f"referrer {parent} has not joined"
            self.pending[child] = parent
            return None
        if isinstance(event, Withdrawal):
            uid = event.user_id
            if uid not in self.asks:
                return f"user {uid} is not an active participant"
            grandparent = self.parents[uid]
            del self.asks[uid]
            del self.parents[uid]
            for child, parent in self.parents.items():
                if parent == uid:
                    self.parents[child] = grandparent
            for child, parent in self.pending.items():
                if parent == uid:
                    self.pending[child] = grandparent
            return None
        return f"unknown event type {type(event).__name__}"

    def snapshot_tree(self) -> IncentiveTree:
        return IncentiveTree.from_edges((p, c) for c, p in self.parents.items())

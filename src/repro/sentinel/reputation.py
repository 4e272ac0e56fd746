"""Per-user beta-reputation trust scores as a pure fold over epochs.

The Sustainable Incentives survey (arXiv:1701.00248) frames reputation
as the third incentive pillar beside payments and gamification; the
standard construction is the *beta reputation* posterior: count a user's
positive and negative interactions ``(α, β)`` and score them by the
posterior mean ``(α + 1) / (α + β + 2)`` of a Beta(α+1, β+1) prior.

Here the interactions are epoch outcomes:

* winning at least one task in an epoch → ``α += 1``;
* participating (a live ask in the epoch's cumulative state) without
  winning → ``β += 1``;
* withdrawing → ``β += withdrawal_penalty`` (abandoning a subtree is
  worse than merely losing a round).

Counters are integers and the score is a single IEEE division of two
integers, so the fold is bit-reproducible across platforms and replay —
the property that lets reputation gauges live in the canonical trace and
lets the admission gate stay deterministic.

Storage.  The book keeps every observed id once, in ascending order, in
an int64 column with aligned int64 ``α`` and ``β`` columns.  An epoch
fold sorts the epoch's participants, finds them in the book with one
``searchsorted`` of sorted keys into sorted ids, adds the wins and losses
to the rows it found and inserts the rest in order: O(N log N) array work
over the epoch's N participants, no Python loop per user.  A withdrawal
costs O(1): it adds its penalty to a small pending dict, which
:meth:`ReputationBook.score` reads and the next fold (or any whole-book
read) merges into the columns.  The summary divides the columns once and
sums the scores left to right in sorted-id order
(``np.add.accumulate``), so its mean is the float of the one-by-one sum.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError

__all__ = ["ReputationBook"]


def _id_column(ids: Iterable[int]) -> np.ndarray:
    """``ids`` as an int64 array (an int64 array itself is not copied)."""
    if isinstance(ids, np.ndarray):
        return ids.astype(np.int64, copy=False)
    return np.fromiter(ids, dtype=np.int64)


def _lookup(keys: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Insertion rows of ``values`` in the sorted ``keys``, and which are
    present there."""
    rows = np.searchsorted(keys, values)
    if not keys.shape[0]:
        return rows, np.zeros(values.shape, dtype=np.bool_)
    return rows, keys[np.minimum(rows, keys.shape[0] - 1)] == values


class ReputationBook:
    """Integer beta-reputation counters folded over served epochs.

    Sorted id, ``α`` and ``β`` columns plus a pending-withdrawal dict
    (see the module docs).
    """

    def __init__(self, *, withdrawal_penalty: int = 2) -> None:
        if withdrawal_penalty < 1:
            raise ConfigurationError(
                f"withdrawal_penalty must be >= 1, got {withdrawal_penalty}"
            )
        self.withdrawal_penalty = withdrawal_penalty
        #: Observed ids, ascending, and their success/failure counters.
        self._ids = np.zeros(0, dtype=np.int64)
        self._alpha = np.zeros(0, dtype=np.int64)
        self._beta = np.zeros(0, dtype=np.int64)
        #: ``{user_id: β}`` of withdrawals not yet merged into the columns.
        self._pending: Dict[int, int] = {}

    def __len__(self) -> int:
        self._merge_pending()
        return int(self._ids.shape[0])

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._pending or self._row(user_id) >= 0

    def _row(self, user_id: int) -> int:
        """Row of ``user_id`` in the columns, or -1 (one binary search)."""
        ids = self._ids
        row = int(ids.searchsorted(user_id))
        if row < ids.shape[0] and ids.item(row) == user_id:
            return row
        return -1

    def _add(self, ids: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> None:
        """Add counters for the sorted, distinct ``ids``; unseen ids are
        inserted in order."""
        rows, known = _lookup(self._ids, ids)
        if not known.all():
            fresh = ~known
            at = rows[fresh]
            self._ids = np.insert(self._ids, at, ids[fresh])
            self._alpha = np.insert(self._alpha, at, 0)
            self._beta = np.insert(self._beta, at, 0)
            # Each id moves past the unseen ids inserted before it.
            rows += np.cumsum(fresh) - fresh
        self._alpha[rows] += alpha
        self._beta[rows] += beta

    def _merge_pending(self) -> None:
        """Move the pending withdrawal penalties into the columns."""
        if not self._pending:
            return
        count = len(self._pending)
        ids = np.fromiter(self._pending.keys(), dtype=np.int64, count=count)
        beta = np.fromiter(self._pending.values(), dtype=np.int64, count=count)
        self._pending.clear()
        order = np.argsort(ids)
        self._add(ids[order], np.zeros(count, dtype=np.int64), beta[order])

    # ------------------------------------------------------------------ #
    # Fold points
    # ------------------------------------------------------------------ #

    def observe_epoch(
        self, participants: Iterable[int], winners: Iterable[int]
    ) -> None:
        """Fold one epoch: winners gain an α, losers gain a β.

        ``participants`` may come in any order; an int64 array such as the
        snapshot's uid column is read as is, never turned into a list.
        Each listing of an id counts once; winners outside the
        participants are ignored.
        """
        self._merge_pending()
        ids = np.sort(_id_column(participants))
        if not ids.shape[0]:
            return
        # Group repeated listings of one id (the service lists each once).
        first = np.empty(ids.shape, dtype=np.bool_)
        first[0] = True
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        listed = np.diff(starts, append=ids.shape[0])
        ids = ids[starts]
        rows, found = _lookup(ids, _id_column(winners))
        won = rows[found]
        alpha = np.zeros(ids.shape, dtype=np.int64)
        alpha[won] = listed[won]
        self._add(ids, alpha, listed - alpha)

    def observe_withdrawal(self, user_id: int) -> None:
        """Fold one applied withdrawal (penalized β increment), in O(1)."""
        self._pending[user_id] = (
            self._pending.get(user_id, 0) + self.withdrawal_penalty
        )

    # ------------------------------------------------------------------ #
    # Scores and summaries
    # ------------------------------------------------------------------ #

    def score(self, user_id: int) -> Optional[float]:
        """Posterior-mean trust score, or None for an unobserved user."""
        pending = self._pending.get(user_id)
        row = self._row(user_id)
        if row < 0:
            if pending is None:
                return None
            alpha, beta = 0, pending
        else:
            alpha = self._alpha.item(row)
            beta = self._beta.item(row) + (pending or 0)
        return (alpha + 1) / (alpha + beta + 2)

    def summary(self, floor: float) -> Dict[str, float]:
        """Aggregate gauge surface: mean/min score and flagged count.

        The scores are summed left to right in sorted-id order, so the
        float mean is one deterministic summation whatever order users
        joined in.
        """
        self._merge_pending()
        users = int(self._ids.shape[0])
        if not users:
            return {"users": 0.0, "mean": 0.5, "minimum": 0.5, "flagged": 0.0}
        scores = (self._alpha + 1) / (self._alpha + self._beta + 2)
        return {
            "users": float(users),
            "mean": float(np.add.accumulate(scores)[-1]) / users,
            "minimum": float(scores.min()),
            "flagged": float(np.count_nonzero(scores < floor)),
        }

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot (string keys, sorted for stable dumps)."""
        self._merge_pending()
        return {
            "withdrawal_penalty": self.withdrawal_penalty,
            "counters": {
                str(uid): [alpha, beta]
                for uid, alpha, beta in zip(
                    self._ids.tolist(),
                    self._alpha.tolist(),
                    self._beta.tolist(),
                )
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ReputationBook":
        book = cls(withdrawal_penalty=int(data["withdrawal_penalty"]))
        counters = {
            int(key): (int(alpha), int(beta))
            for key, (alpha, beta) in dict(data.get("counters", {})).items()
        }
        ids = sorted(counters)
        book._ids = np.array(ids, dtype=np.int64)
        book._alpha = np.array([counters[uid][0] for uid in ids], dtype=np.int64)
        book._beta = np.array([counters[uid][1] for uid in ids], dtype=np.int64)
        return book

"""Test oracle: the beta-reputation book as one dict entry per user.

:class:`DictReputationBook` keeps ``{user_id: [α, β]}`` and folds every
epoch with a Python loop over the participants; its summary sums the
scores one by one in sorted-id order.  It is the direct transcription of
the fold that :class:`repro.sentinel.reputation.ReputationBook` stores
in sorted columns, and the production book must match it bit for bit:
scores, summary floats and their types, ``to_dict`` and ``len``.
"""

from typing import Any, Dict, Iterable, Mapping, Optional

from repro.core.exceptions import ConfigurationError


class DictReputationBook:
    """Integer beta-reputation counters in a dict (test oracle)."""

    def __init__(self, *, withdrawal_penalty: int = 2) -> None:
        if withdrawal_penalty < 1:
            raise ConfigurationError(
                f"withdrawal_penalty must be >= 1, got {withdrawal_penalty}"
            )
        self.withdrawal_penalty = withdrawal_penalty
        self._counters: Dict[int, list] = {}

    def __len__(self) -> int:
        return len(self._counters)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._counters

    def _entry(self, user_id: int) -> list:
        entry = self._counters.get(user_id)
        if entry is None:
            entry = [0, 0]
            self._counters[user_id] = entry
        return entry

    def observe_epoch(
        self, participants: Iterable[int], winners: Iterable[int]
    ) -> None:
        winner_set = set(winners)
        for uid in participants:
            entry = self._entry(uid)
            if uid in winner_set:
                entry[0] += 1
            else:
                entry[1] += 1

    def observe_withdrawal(self, user_id: int) -> None:
        self._entry(user_id)[1] += self.withdrawal_penalty

    def score(self, user_id: int) -> Optional[float]:
        entry = self._counters.get(user_id)
        if entry is None:
            return None
        alpha, beta = entry
        return (alpha + 1) / (alpha + beta + 2)

    def summary(self, floor: float) -> Dict[str, float]:
        if not self._counters:
            return {"users": 0.0, "mean": 0.5, "minimum": 0.5, "flagged": 0.0}
        total = 0.0
        minimum = 1.0
        flagged = 0
        for uid in sorted(self._counters):
            alpha, beta = self._counters[uid]
            value = (alpha + 1) / (alpha + beta + 2)
            total += value
            if value < minimum:
                minimum = value
            if value < floor:
                flagged += 1
        return {
            "users": float(len(self._counters)),
            "mean": total / len(self._counters),
            "minimum": minimum,
            "flagged": float(flagged),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "withdrawal_penalty": self.withdrawal_penalty,
            "counters": {
                str(uid): list(self._counters[uid])
                for uid in sorted(self._counters)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DictReputationBook":
        book = cls(withdrawal_penalty=int(data["withdrawal_penalty"]))
        for key, entry in dict(data.get("counters", {})).items():
            alpha, beta = entry
            book._counters[int(key)] = [int(alpha), int(beta)]
        return book

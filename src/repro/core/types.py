"""Core value types of the crowdsensing model (paper Section 3-A).

The model has four first-class objects:

* a set of *task types* ``τ_1 … τ_m`` (areas of interest);
* a *job* ``J``: a multiset over task types, ``m_i`` tasks of type ``τ_i``;
* *users* ``P_j`` with a private profile ``(t_j, K_j, c_j)`` — chosen type,
  true capacity, and private unit cost;
* sealed *asks* ``(t_j, k_j, a_j)`` — the claimed type, claimed capacity and
  per-task ask value a user submits to the platform.

All types are immutable dataclasses: simulation code copies-on-write, which
keeps honest/attacked scenario pairs trivially comparable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.exceptions import ConfigurationError, ModelError

if TYPE_CHECKING:  # repro.core.columnar imports this module
    from repro.core.columnar import AskProfile

__all__ = [
    "INT64_MAX",
    "TaskType",
    "Job",
    "Ask",
    "validate_ask",
    "User",
    "Population",
]


# Task types are plain integers (0-based indices).  A tiny NewType-like alias
# keeps signatures self-documenting without the runtime cost of a wrapper.
TaskType = int

#: The largest user id, task type or capacity the profile's int64
#: columns can hold.
INT64_MAX = 2**63 - 1
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class Job:
    """A crowdsensing job ``J``: a multiset of tasks over ``m`` task types.

    ``counts[i]`` is ``m_i``, the number of indivisible tasks of type ``τ_i``
    requested by the platform.  The job is *finished* only when every one of
    these tasks has been allocated and completed.

    Parameters
    ----------
    counts:
        Number of tasks requested per type.  Must be non-empty; every entry
        must be a non-negative integer and at least one entry positive.
    """

    counts: Tuple[int, ...]
    _size: int = field(init=False, repr=False, compare=False, default=0)

    def __init__(self, counts: Iterable[int]):
        counts = tuple(int(c) for c in counts)
        if not counts:
            raise ConfigurationError("a job needs at least one task type")
        if any(c < 0 for c in counts):
            raise ConfigurationError(f"task counts must be >= 0, got {counts}")
        total = sum(counts)
        if total == 0:
            raise ConfigurationError("a job must request at least one task")
        object.__setattr__(self, "counts", counts)
        # |J| is read on every mechanism run (span attrs, completion
        # checks); cache the sum the validation above already computed.
        object.__setattr__(self, "_size", total)

    @property
    def num_types(self) -> int:
        """``m``, the number of task types."""
        return len(self.counts)

    @property
    def size(self) -> int:
        """``|J|``, the total number of tasks (cached at construction)."""
        return self._size

    def tasks_of(self, task_type: TaskType) -> int:
        """``m_i`` for the given type; raises for an unknown type."""
        self._check_type(task_type)
        return self.counts[task_type]

    def types(self) -> Iterator[TaskType]:
        """Iterate over all type indices ``0 … m-1``."""
        return iter(range(self.num_types))

    def _check_type(self, task_type: TaskType) -> None:
        if not 0 <= task_type < self.num_types:
            raise ModelError(
                f"task type {task_type} out of range for a job with "
                f"{self.num_types} types"
            )

    @classmethod
    def uniform(cls, num_types: int, tasks_per_type: int) -> "Job":
        """Job with the same number of tasks in every type (paper §7 setup)."""
        if num_types <= 0:
            raise ConfigurationError("num_types must be positive")
        return cls([tasks_per_type] * num_types)

    @classmethod
    def from_multiset(cls, type_list: Sequence[TaskType], num_types: int | None = None) -> "Job":
        """Build a job from an explicit multiset, e.g. ``[τ1,τ2,τ3,τ3]``.

        >>> Job.from_multiset([0, 1, 2, 2]).counts
        (1, 1, 2)
        """
        if not type_list and num_types is None:
            raise ConfigurationError("empty multiset with no num_types")
        m = (max(type_list) + 1) if num_types is None else num_types
        counts = [0] * m
        for t in type_list:
            if not 0 <= t < m:
                raise ModelError(f"type {t} out of range 0..{m - 1}")
            counts[t] += 1
        return cls(counts)

    def as_multiset(self) -> List[TaskType]:
        """Explicit multiset view, inverse of :meth:`from_multiset`."""
        out: List[TaskType] = []
        for t, c in enumerate(self.counts):
            out.extend([t] * c)
        return out


def validate_ask(task_type: TaskType, capacity: int, value: float) -> Optional[str]:
    """Why ``(task_type, capacity, value)`` is not a valid ask, or None.

    The one ask rule: :class:`Ask` raises :class:`ModelError` with this
    reason, and the service checks it without building an ``Ask``.  The
    type must be non-negative and the capacity a positive integer (an
    integral float such as ``3.0`` passes), both at most
    :data:`INT64_MAX` (the profile keeps them in int64 columns); the value
    must be positive and a finite float (an int past the largest float
    fails too).  NaN and infinities fail every numeric check.
    """
    if task_type < 0:
        return f"task_type must be >= 0, got {task_type}"
    if task_type > INT64_MAX:
        return f"task_type must be <= {INT64_MAX}, got {task_type}"
    if not capacity > 0 or capacity % 1:
        return f"capacity must be a positive integer, got {capacity}"
    if capacity > INT64_MAX:
        return f"capacity must be <= {INT64_MAX}, got {capacity}"
    if not 0 < value <= _FLOAT_MAX:
        return f"ask value must be finite and > 0, got {value}"
    return None


@dataclass(frozen=True)
class Ask:
    """A sealed ask ``(t, k, a)`` submitted by one (possibly fake) identity.

    Attributes
    ----------
    task_type:
        ``t_j`` — the single type the identity bids for.
    capacity:
        ``k_j`` — maximum number of tasks the identity claims to complete
        (strictly positive integer).
    value:
        ``a_j`` — minimum acceptable reward per task (strictly positive).
    """

    task_type: TaskType
    capacity: int
    value: float

    def __post_init__(self) -> None:
        reason = validate_ask(self.task_type, self.capacity, self.value)
        if reason is not None:
            raise ModelError(reason)
        object.__setattr__(self, "capacity", int(self.capacity))
        object.__setattr__(self, "value", float(self.value))

    def with_value(self, value: float) -> "Ask":
        """Copy with a different ask value (misreporting helper)."""
        return replace(self, value=value)

    def with_capacity(self, capacity: int) -> "Ask":
        """Copy with a different claimed capacity."""
        return replace(self, capacity=capacity)


@dataclass(frozen=True)
class User:
    """A crowdsensing user ``P_j`` with private profile ``(t_j, K_j, c_j)``.

    Attributes
    ----------
    user_id:
        Stable integer identifier (the paper's subscript ``j``).  Identifiers
        are dense ``0 … n-1`` within a :class:`Population`; sybil identities
        created by the attack harness receive fresh ids beyond ``n``.
    task_type:
        ``t_j`` — the single type the user can serve (geographic area).
    capacity:
        ``K_j`` — true maximum number of tasks the user can complete.
    cost:
        ``c_j`` — true private cost to complete one task.
    """

    user_id: int
    task_type: TaskType
    capacity: int
    cost: float

    def __post_init__(self) -> None:
        if self.user_id < 0:
            raise ModelError(f"user_id must be >= 0, got {self.user_id}")
        if self.task_type < 0:
            raise ModelError(f"task_type must be >= 0, got {self.task_type}")
        if int(self.capacity) != self.capacity or self.capacity <= 0:
            raise ModelError(f"capacity K_j must be a positive integer, got {self.capacity}")
        if not (self.cost > 0) or not math.isfinite(self.cost):
            raise ModelError(f"cost must be finite and > 0, got {self.cost}")
        object.__setattr__(self, "capacity", int(self.capacity))
        object.__setattr__(self, "cost", float(self.cost))

    def truthful_ask(self) -> Ask:
        """The honest ask ``(t_j, K_j, c_j)``."""
        return Ask(task_type=self.task_type, capacity=self.capacity, value=self.cost)

    def ask(self, capacity: int | None = None, value: float | None = None) -> Ask:
        """An ask with optional deviations from the truthful report.

        The claimed capacity may not exceed the true capability ``K_j``
        (model assumption in §3-A: ``k_j <= K_j``).
        """
        k = self.capacity if capacity is None else capacity
        a = self.cost if value is None else value
        if k > self.capacity:
            raise ModelError(
                f"user {self.user_id} cannot claim capacity {k} > K_j={self.capacity}"
            )
        return Ask(task_type=self.task_type, capacity=k, value=a)


@dataclass(frozen=True)
class Population:
    """An immutable collection of users with fast id-based lookup.

    The population also exposes the model-level aggregates the mechanism
    needs: ``K_max`` and per-type capacity totals (used by the Remark 6.1
    threshold rule — the tree must grow until each type can cover
    ``2·m_i`` unit asks).
    """

    users: Tuple[User, ...]
    _by_id: Mapping[int, User] = field(repr=False, compare=False, default=None)  # type: ignore[assignment]
    #: :meth:`truthful_asks`, built on first use.
    _asks: Optional["AskProfile"] = field(repr=False, compare=False, default=None)
    #: Type, capacity and cost columns of :meth:`from_columns`, until
    #: :meth:`truthful_asks` builds its profile from them.
    _columns: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        repr=False, compare=False, default=None
    )

    def __init__(self, users: Iterable[User]):
        users = tuple(users)
        by_id: Dict[int, User] = {}
        for u in users:
            if u.user_id in by_id:
                raise ModelError(f"duplicate user_id {u.user_id}")
            by_id[u.user_id] = u
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_asks", None)
        object.__setattr__(self, "_columns", None)

    @classmethod
    def from_columns(
        cls, task_types: np.ndarray, capacities: np.ndarray, costs: np.ndarray
    ) -> "Population":
        """Users ``0 … n-1`` from aligned type, capacity and cost columns.

        The population keeps copies of the columns, so :meth:`truthful_asks`
        builds its profile from them instead of reading every ``User`` back.
        """
        columns = (np.array(task_types), np.array(capacities), np.array(costs))
        if not len(columns[0]) == len(columns[1]) == len(columns[2]):
            raise ModelError("population columns must have equal lengths")
        population = cls(
            User(user_id=i, task_type=t, capacity=k, cost=c)
            for i, (t, k, c) in enumerate(zip(*(col.tolist() for col in columns)))
        )
        object.__setattr__(population, "_columns", columns)
        return population

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self) -> Iterator[User]:
        return iter(self.users)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._by_id

    def __getitem__(self, user_id: int) -> User:
        try:
            return self._by_id[user_id]
        except KeyError:
            raise ModelError(f"unknown user_id {user_id}") from None

    @property
    def ids(self) -> List[int]:
        return [u.user_id for u in self.users]

    @property
    def k_max(self) -> int:
        """``K_max = max_j K_j`` — the coalition-size bound of the paper."""
        if not self.users:
            raise ModelError("K_max of an empty population is undefined")
        return max(u.capacity for u in self.users)

    def capacity_by_type(self, num_types: int) -> List[int]:
        """Total true capacity available per task type."""
        totals = [0] * num_types
        for u in self.users:
            if u.task_type < num_types:
                totals[u.task_type] += u.capacity
        return totals

    def of_type(self, task_type: TaskType) -> List[User]:
        """All users whose chosen type is ``task_type``."""
        return [u for u in self.users if u.task_type == task_type]

    def truthful_asks(self) -> "AskProfile":
        """The honest ask profile ``A = {(t_j, K_j, c_j)}_j``, in user order.

        An immutable :class:`~repro.core.columnar.AskProfile` built on first
        use, then kept; no ``Ask`` is built.  A population made by
        :meth:`from_columns` builds it from those columns, any other reads
        the users' fields.  Copy it with ``dict(...)`` to edit.
        """
        if self._asks is None:
            from repro.core.columnar import AskProfile

            if self._columns is not None:
                types, caps, costs = self._columns
                uids = np.arange(len(types), dtype=np.int64)
            else:
                users = self.users
                n = len(users)
                uids = np.fromiter((u.user_id for u in users), np.int64, count=n)
                types = np.fromiter((u.task_type for u in users), np.int64, count=n)
                costs = np.fromiter((u.cost for u in users), np.float64, count=n)
                caps = np.fromiter((u.capacity for u in users), np.int64, count=n)
            object.__setattr__(self, "_asks", AskProfile(uids, types, costs, caps))
            object.__setattr__(self, "_columns", None)
        return self._asks

    def subset(self, user_ids: Iterable[int]) -> "Population":
        """Population restricted to the given ids (order preserved)."""
        wanted = set(user_ids)
        return Population(u for u in self.users if u.user_id in wanted)

    def extended(self, extra: Iterable[User]) -> "Population":
        """Population with additional users appended (sybil identities)."""
        return Population(list(self.users) + list(extra))

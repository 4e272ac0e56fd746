"""Float-comparison discipline for payments, utilities and asks.

Payments in RIT are sums of products of float asks with powers of the decay
base, so two mathematically equal quantities (e.g. a payment computed by
:func:`~repro.core.payments.tree_payments` and by its naive counterpart)
routinely differ in the last few ulps.  Raw ``==`` / ``!=`` on such values
makes truthfulness and sybil-proofness checks order-dependent and
platform-dependent; every comparison of monetary quantities must go through
the helpers below.  The ``rit analyze`` rule RIT002 enforces this statically.

The default tolerances are deliberately tight: they forgive accumulation
error (~1e-9 relative) without masking real mechanism differences, which in
the paper's regimes are at least the smallest ask increment (>= 1e-3).
"""

from __future__ import annotations

import math
from typing import Mapping

__all__ = [
    "PAYMENT_RTOL",
    "PAYMENT_ATOL",
    "close",
    "is_zero",
    "payments_close",
]

#: Default relative tolerance for monetary comparisons.
PAYMENT_RTOL: float = 1e-9

#: Default absolute tolerance — needed when one side is exactly zero, where
#: a relative tolerance alone can never succeed.
PAYMENT_ATOL: float = 1e-12


def close(
    a: float,
    b: float,
    *,
    rtol: float = PAYMENT_RTOL,
    atol: float = PAYMENT_ATOL,
) -> bool:
    """Tolerant equality for two monetary quantities."""
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def is_zero(x: float, *, atol: float = PAYMENT_ATOL) -> bool:
    """Is a payment/utility indistinguishable from zero?"""
    return abs(x) <= atol


def payments_close(
    a: Mapping[int, float],
    b: Mapping[int, float],
    *,
    rtol: float = PAYMENT_RTOL,
    atol: float = PAYMENT_ATOL,
) -> bool:
    """Tolerant equality for two payment vectors.

    Ids missing from one side are treated as zero payments, matching the
    convention of :class:`~repro.core.outcome.MechanismOutcome` that zero
    entries may be omitted.
    """
    for key in set(a) | set(b):
        if not close(a.get(key, 0.0), b.get(key, 0.0), rtol=rtol, atol=atol):
            return False
    return True

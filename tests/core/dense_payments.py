"""Dense payment sweep: the bit-exact oracle of the root-path kernel.

:func:`dense_payments` fills one per-type row for *every* tree node and
sweeps all of them bottom-up — O(N·m) time and space.  It is the payment
kernel as it stood before payments were restricted to winners' root paths,
kept verbatim so :func:`repro.core.payments.payment_kernel` can be held to
bitwise equality with it.
"""

import numpy as np

from repro.tree.incentive_tree import BFSView


def dense_payments(
    view: BFSView, types: np.ndarray, pay: np.ndarray, decay: float
) -> np.ndarray:
    """Final payments at every BFS position.

    ``types`` and ``pay`` hold ``t_j`` and ``p^A_j`` at each node's BFS
    position; the row width is ``int(types.max()) + 1``.
    """
    n = len(view)
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    bounds = view.level_bounds
    parent = view.parent
    decay_pow = np.array(
        [decay ** d for d in range(view.max_depth + 1)], dtype=np.float64
    )
    contrib = decay_pow[view.depth] * pay
    sub = np.zeros((n, int(types.max()) + 1), dtype=np.float64)
    for d in range(view.max_depth, 0, -1):
        idx = np.arange(bounds[d] - 1, bounds[d - 1] - 1, -1)
        sub[idx, types[idx]] += contrib[idx]
        parents = parent[idx]
        push = parents >= 0
        np.add.at(sub, parents[push], sub[idx[push]])
    referral = sub.sum(axis=1) - sub[np.arange(n), types]
    return pay + referral

"""CRA — Collusion Resistant Auction (Algorithm 1).

One CRA round auctions at most ``q`` identical tasks of a single type among
unit asks ``α``.  It is the randomized building block that gives RIT its
``(K_max, H)``-truthfulness:

1. *Sampling* (lines 2–3): every unit ask independently enters a sample
   ``S`` with probability ``1/(q + m_i)``; the price candidate ``s`` is the
   smallest sampled value.  A coalition of ``k`` asks touches the sample at
   all with probability only ``1 - (1 - 1/(q+m_i))^k``.
2. *Consensus rounding* (lines 4–5): the supply-side count
   ``z_s(α) = |{ω : α_ω <= s}|`` is rounded **down** onto the randomized
   grid ``{2^(z+y)}`` (see :mod:`repro.core.consensus`), yielding ``n_s``.
   Small coalitions cannot usually move ``n_s``.
3. *Potential-winner selection* (lines 6–12): if ``n_s <= q + m_i`` the
   smallest ``n_s`` asks are chosen; otherwise each of the smallest ``n_s``
   asks is chosen independently with probability ``(q + m_i)/(2·n_s)``
   (expected ``(q+m_i)/2`` chosen; exceeding ``q + m_i`` is exponentially
   unlikely by Chernoff).
4. *Overflow trim* (lines 13–16): if more than ``q + m_i`` asks were chosen,
   keep the smallest ``q + m_i`` and reset the price ``s`` to the
   ``(q+m_i+1)``-st smallest chosen value.
5. *Winner subsampling* (lines 17–19): if more than ``q`` asks remain
   chosen, pick exactly ``q`` winners uniformly at random.
6. Winners are paid ``s`` each (lines 20–24).

Ties in ask values are broken by position in ``α`` (stable order), which is
the user-id order produced by :func:`repro.core.extract.extract`.

Every winning ask has value at most the final price ``s`` — the property
behind Lemma 6.1 (individual rationality of the auction phase).

:func:`cra` is the *pure reference implementation*: it takes the fully
materialized unit-ask vector and re-sorts it from scratch.
:func:`repro.core.engine.cra_presorted` is the production fast path — it
runs the same algorithm against a pool sorted once at construction and is
differentially tested to consume the identical RNG stream and return the
identical :class:`CRAResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from repro.core import consensus
from repro.core.exceptions import ConfigurationError
from repro.core.rng import SeedLike, as_generator
from repro.obs.tracer import NullTracer

__all__ = ["CRAResult", "SampleSource", "cra"]

#: A round's price sample: its unit indices, or a zero-argument callable
#: that draws them (see :attr:`CRAResult.sample`).
SampleSource = Union[np.ndarray, Callable[[], np.ndarray]]


@dataclass(frozen=True)
class CRAResult:
    """Outcome of one CRA round.

    Attributes
    ----------
    winners:
        Indices into ``α`` of the winning unit asks (sorted, each wins one
        task).  Empty when the round produced no allocation.
    price:
        The uniform per-task payment ``s`` for every winner; ``nan`` when
        there are no winners.
    sample:
        Where :attr:`sample_indices` comes from: the indices themselves,
        or a zero-argument callable that draws them.  The presorted
        engine's jump-ahead probe reads only the uniforms that decide the
        price, so its rounds defer the sample (see
        :meth:`repro.core.engine.SortedTypePool.sample_price`).
    n_s:
        The consensus-rounded supply estimate (0 when the sample was empty
        or no ask was at most the sampled price).
    offset:
        The grid offset ``y`` drawn for the consensus rounding.
    overflow_trimmed:
        True when the rare line-13 overflow path executed (event ``E_o`` in
        Lemma 6.2 — the price was re-derived from the chosen asks).
    """

    winners: np.ndarray
    price: float
    sample: SampleSource = field(
        repr=False, default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    n_s: int = 0
    offset: float = 0.0
    overflow_trimmed: bool = False

    @cached_property
    def sample_indices(self) -> np.ndarray:
        """Indices sampled into ``S`` (diagnostics; empty sample → no winners).

        A deferred :attr:`sample` is drawn on the first read and kept in
        the instance, so later reads are plain attribute lookups.  No run
        reads it: the differential tests and the traced
        ``sample_units_drawn`` counter do.
        """
        sample = self.sample
        return sample if isinstance(sample, np.ndarray) else sample()

    @property
    def num_winners(self) -> int:
        return int(self.winners.shape[0])

    def total_payment(self) -> float:
        """Sum of payments made by this round."""
        return 0.0 if self.num_winners == 0 else self.price * self.num_winners


def _empty_result(offset: float, sample: SampleSource) -> CRAResult:
    return CRAResult(
        winners=np.empty(0, dtype=np.int64),
        price=math.nan,
        sample=sample,
        n_s=0,
        offset=offset,
    )


def _smallest_indices(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` smallest values, stable on ties."""
    order = np.argsort(values, kind="stable")
    return order[:count]


def cra(
    values: np.ndarray,
    q: int,
    m_i: int,
    rng: SeedLike = None,
    *,
    sample_rate_scale: float = 1.0,
    tracer: Optional[NullTracer] = None,
) -> CRAResult:
    """Run one CRA round (Algorithm 1) over unit-ask values ``α``.

    Parameters
    ----------
    values:
        1-D array of unit ask values (``α``); each entry bids for one task.
    q:
        Number of tasks still unallocated for the type (``q >= 1``; a round
        with ``q = 0`` has nothing to sell and is rejected).
    m_i:
        Number of tasks of the type requested by the job (drives the sample
        rate and the potential-winner cap ``q + m_i``).
    rng:
        Seed or generator for the three random draws (sample, grid offset,
        Bernoulli selection / winner subsampling).
    sample_rate_scale:
        Ablation knob multiplying the paper's sample probability
        ``1/(q+m_i)`` (clamped to 1).  Larger samples drive the price
        candidate down (min of more draws) but enlarge the coalition's
        chance of touching the sample — the ``E_s`` term of Lemma 6.2
        scales with it.  Keep the default 1.0 for the paper's mechanism.
    tracer:
        Optional :mod:`repro.obs` tracer receiving the sample-stage
        counters (``sample_units_drawn``, ``empty_samples``); the default
        records nothing and costs nothing.

    Returns
    -------
    CRAResult
        Winner indices into ``values`` plus the uniform price.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ConfigurationError(f"values must be 1-D, got shape {values.shape}")
    if q <= 0:
        raise ConfigurationError(f"q must be >= 1, got {q}")
    if m_i <= 0:
        raise ConfigurationError(f"m_i must be >= 1, got {m_i}")
    if sample_rate_scale <= 0:
        raise ConfigurationError(
            f"sample_rate_scale must be > 0, got {sample_rate_scale}"
        )
    gen = as_generator(rng)
    cap = q + m_i
    tracing = tracer is not None and tracer.enabled

    # Lines 2-3: sample each ask independently with probability 1/(q+m_i);
    # the price candidate is the smallest sampled value.
    offset = float(gen.uniform(0.0, 1.0))  # line 4 (drawn up-front)
    rate = min(1.0, sample_rate_scale / cap)
    mask = gen.random(values.shape[0]) < rate
    sample = np.flatnonzero(mask)
    if tracing:
        tracer.count("sample_units_drawn", int(sample.size))
    if sample.size == 0:
        # The paper leaves an empty sample implicit; with no price candidate
        # the round cannot clear — no winners.
        if tracing:
            tracer.count("empty_samples")
        return _empty_result(offset, sample)
    s = float(values[sample].min())

    # Line 5: consensus-round the count of asks priced at most s.
    z_s = int(np.count_nonzero(values <= s))
    n_s_real = consensus.round_down_to_grid(float(z_s), offset)
    n_s = int(math.floor(n_s_real))
    if n_s <= 0:
        return _empty_result(offset, sample)

    # Lines 6-12: potential-winner selection among the smallest asks.
    if n_s <= cap:
        chosen = _smallest_indices(values, n_s)
    else:
        pool = _smallest_indices(values, n_s)
        keep = gen.random(pool.shape[0]) < (cap / (2.0 * n_s))
        chosen = pool[keep]
        if chosen.size == 0:
            return _empty_result(offset, sample)

    overflow = False
    if chosen.size > cap:
        # Lines 13-16: trim to the smallest q+m_i chosen asks; the price
        # becomes the (q+m_i+1)-st smallest chosen value.
        order = chosen[np.argsort(values[chosen], kind="stable")]
        s = float(values[order[cap]])
        chosen = order[:cap]
        overflow = True

    # Lines 17-19: subsample exactly q winners when oversubscribed.
    if chosen.size > q:
        chosen = gen.choice(chosen, size=q, replace=False)

    winners = np.sort(chosen.astype(np.int64))
    return CRAResult(
        winners=winners,
        price=s,
        sample=sample,
        n_s=n_s,
        offset=offset,
        overflow_trimmed=overflow,
    )

"""Pluggable TTI schedulers behind a string-keyed registry.

Each scheduler answers one question per TTI: how are the carrier's
``n_prb`` PRBs split across the UEs that currently have data and a
usable link?  Three classic disciplines are provided:

``round_robin``
    Equal PRB split over schedulable UEs; the remainder PRBs rotate
    with the TTI index so long-run shares are exactly fair (the seed's
    one-shot scheduler always gave the remainder to the lowest ids).
``proportional_fair``
    Per-PRB greedy argmax of ``rate / average_served`` with the
    average updated *within* the TTI as PRBs are granted (virtual
    pending bytes) and across TTIs by an EWMA.  The within-TTI update
    makes the discipline degenerate **exactly** to round-robin —
    including the rotated remainder — when every UE has the same rate
    and backlog, which is the identity the property tests pin.
``max_min``
    Per-PRB greedy argmin of bytes granted so far this TTI: equalizes
    granted capacity in bytes, so low-rate UEs get more PRBs.

A scheduler implements four methods: ``reset``, ``grants`` (one
TTI's int64 PRB split), ``grants_slab`` and ``update`` (observe the
TTI's served bytes).  Round-robin grants are numpy over UEs; the
greedy PF and max-min grants are plain Python loops over the handful
of schedulable UEs, which at the cell sizes any caller runs (≤ 10
UEs, 50 PRBs) beats one numpy reduction per PRB several times over.
Ties in the greedy argmax/argmin resolve to the first UE in *rotated*
schedulable order (rotation = ``tti mod n_active``), which is what
aligns all three disciplines on the same grant under full symmetry.

Stateless disciplines answer ``grants_slab`` with a whole (UEs x TTIs)
grant matrix in one shot, which the kernel uses when the schedulable
set cannot change within a batch (full-buffer runs); stateful ones
return None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

#: Denominator floor for the PF metric when a UE's EWMA average is
#: still zero (never served, zero-rate history).
TINY_BYTES = 1e-12


def rotated_schedulable(schedulable: np.ndarray, tti: int) -> np.ndarray:
    """Schedulable UE indices, ascending, rotated by ``tti``.

    The rotation is the tie-break order every discipline shares: UE at
    rotated position 0 wins ties, gets the first remainder PRB, etc.
    """
    idx = np.flatnonzero(np.asarray(schedulable, dtype=bool))
    n_a = len(idx)
    if n_a == 0:
        return idx
    rho = int(tti) % n_a
    if rho == 0:
        return idx
    return np.concatenate([idx[rho:], idx[:rho]])


@dataclass
class RoundRobinScheduler:
    """Equal split with TTI-rotated remainder PRBs."""

    name: str = field(default="round_robin", init=False)

    def reset(self, n_ues: int) -> None:
        pass

    def grants(
        self,
        schedulable: np.ndarray,
        bytes_per_prb: np.ndarray,
        n_prb: int,
        tti: int,
    ) -> np.ndarray:
        n = len(schedulable)
        out = np.zeros(n, dtype=np.int64)
        idx = np.flatnonzero(np.asarray(schedulable, dtype=bool))
        n_a = len(idx)
        if n_a == 0:
            return out
        base, rem = divmod(int(n_prb), n_a)
        out[idx] = base
        if rem:
            rho = int(tti) % n_a
            pos = np.arange(n_a)
            out[idx[((pos - rho) % n_a) < rem]] += 1
        return out

    def grants_slab(
        self,
        schedulable: np.ndarray,
        bytes_per_prb: np.ndarray,
        n_prb: int,
        tti0: int,
        n_tti: int,
    ) -> Optional[np.ndarray]:
        """All TTIs of a constant-schedulable-set batch at once."""
        n = len(schedulable)
        out = np.zeros((n, n_tti), dtype=np.int64)
        idx = np.flatnonzero(np.asarray(schedulable, dtype=bool))
        n_a = len(idx)
        if n_a == 0:
            return out
        base, rem = divmod(int(n_prb), n_a)
        out[idx, :] = base
        if rem:
            rho = (int(tti0) + np.arange(n_tti)) % n_a
            pos = np.arange(n_a)[:, None]
            out[idx[:, None], np.arange(n_tti)[None, :]] += (
                ((pos - rho[None, :]) % n_a) < rem
            ).astype(np.int64)
        return out

    def update(self, served_bytes: np.ndarray) -> None:
        pass


@dataclass(kw_only=True)
class ProportionalFairScheduler:
    """Per-PRB greedy PF with an EWMA served-rate average.

    Attributes
    ----------
    time_constant_tti:
        EWMA horizon of the per-UE average served rate (TTIs); the
        canonical PF ``T`` of the metric ``r / T``.
    """

    time_constant_tti: int = 100
    name: str = field(default="proportional_fair", init=False)
    _avg_bytes: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.time_constant_tti < 1:
            raise ValueError(
                f"time_constant_tti must be >= 1, got {self.time_constant_tti}"
            )

    def reset(self, n_ues: int) -> None:
        self._avg_bytes = None

    def _ensure_avg(self, bytes_per_prb: np.ndarray) -> None:
        # Lazy init to one PRB's worth of rate: nonzero for any UE
        # that can be scheduled, and symmetric when the rates are.
        if self._avg_bytes is None:
            self._avg_bytes = np.asarray(bytes_per_prb, dtype=float).copy()

    def grants(
        self,
        schedulable: np.ndarray,
        bytes_per_prb: np.ndarray,
        n_prb: int,
        tti: int,
    ) -> np.ndarray:
        rates = np.asarray(bytes_per_prb, dtype=float)
        self._ensure_avg(rates)
        out = np.zeros(len(schedulable), dtype=np.int64)
        order = [int(i) for i in rotated_schedulable(schedulable, tti)]
        n_a = len(order)
        if n_a == 0:
            return out
        r = [float(rates[i]) for i in order]
        avg = [float(self._avg_bytes[i]) for i in order]
        pending = [0.0] * n_a
        counts = [0] * n_a
        for _ in range(int(n_prb)):
            best_k = 0
            best_m = -1.0
            for k in range(n_a):
                denom = avg[k] + pending[k]
                if not denom > 0.0:
                    denom = TINY_BYTES
                m = r[k] / denom
                if m > best_m:
                    best_m = m
                    best_k = k
            pending[best_k] += r[best_k]
            counts[best_k] += 1
        out[order] = counts
        return out

    def grants_slab(self, schedulable, bytes_per_prb, n_prb, tti0, n_tti):
        return None  # EWMA state couples TTIs

    def update(self, served_bytes: np.ndarray) -> None:
        served = np.asarray(served_bytes, dtype=float)
        self._ensure_avg(np.zeros_like(served))
        alpha = 1.0 / float(self.time_constant_tti)
        self._avg_bytes = (1.0 - alpha) * self._avg_bytes + alpha * served


@dataclass
class MaxMinScheduler:
    """Equalize granted bytes within each TTI (max-min in capacity)."""

    name: str = field(default="max_min", init=False)

    def reset(self, n_ues: int) -> None:
        pass

    def grants(
        self,
        schedulable: np.ndarray,
        bytes_per_prb: np.ndarray,
        n_prb: int,
        tti: int,
    ) -> np.ndarray:
        rates = np.asarray(bytes_per_prb, dtype=float)
        out = np.zeros(len(schedulable), dtype=np.int64)
        order = [int(i) for i in rotated_schedulable(schedulable, tti)]
        n_a = len(order)
        if n_a == 0:
            return out
        r = [float(rates[i]) for i in order]
        pending = [0.0] * n_a
        counts = [0] * n_a
        for _ in range(int(n_prb)):
            best_k = 0
            best_p = pending[0]
            for k in range(1, n_a):
                if pending[k] < best_p:
                    best_p = pending[k]
                    best_k = k
            pending[best_k] += r[best_k]
            counts[best_k] += 1
        out[order] = counts
        return out

    def grants_slab(
        self,
        schedulable: np.ndarray,
        bytes_per_prb: np.ndarray,
        n_prb: int,
        tti0: int,
        n_tti: int,
    ) -> Optional[np.ndarray]:
        """Stateless across TTIs: only ``tti mod n_active`` matters, so
        a batch is ``n_active`` distinct per-TTI allocations, tiled."""
        idx = np.flatnonzero(np.asarray(schedulable, dtype=bool))
        n_a = len(idx)
        n = len(schedulable)
        if n_a == 0:
            return np.zeros((n, n_tti), dtype=np.int64)
        patterns = np.stack(
            [self.grants(schedulable, bytes_per_prb, n_prb, rho) for rho in range(n_a)],
            axis=1,
        )
        return patterns[:, (int(tti0) + np.arange(n_tti)) % n_a]

    def update(self, served_bytes: np.ndarray) -> None:
        pass


_REGISTRY: Dict[str, Callable[..., object]] = {}


def register_scheduler(
    name: str, factory: Callable[..., object], *, override: bool = False
) -> None:
    """Register a scheduler factory under a string name.

    Registering a name that already exists raises unless
    ``override=True`` — a silently clobbered registration is a config
    that quietly runs the wrong discipline.
    """
    if not name:
        raise ValueError("scheduler name must be non-empty")
    if name in _REGISTRY and not override:
        raise ValueError(
            f"scheduler {name!r} is already registered "
            "(pass override=True to replace it)"
        )
    _REGISTRY[name] = factory


def available_schedulers() -> Tuple[str, ...]:
    """Registered scheduler names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_scheduler(name: str, **params):
    """Instantiate a registered scheduler by name.

    Unknown keyword parameters are ignored for dataclass factories so
    one config can carry the union of every discipline's knobs
    (``time_constant_tti`` means nothing to round-robin).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_schedulers())
        raise ValueError(f"unknown scheduler {name!r} (known: {known})") from None
    accepted = getattr(factory, "__dataclass_fields__", None)
    if accepted is not None:
        params = {
            k: v
            for k, v in params.items()
            if k in accepted and accepted[k].init
        }
    return factory(**params)


register_scheduler("round_robin", RoundRobinScheduler)
register_scheduler("proportional_fair", ProportionalFairScheduler)
register_scheduler("max_min", MaxMinScheduler)

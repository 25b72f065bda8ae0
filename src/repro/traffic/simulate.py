"""The TTI-batch MAC kernel: offered bytes -> grants -> served bytes.

:func:`run_tti_batch` evolves every UE's RLC queue through a batch of
TTIs under a pluggable scheduler, producing full (n_ues, n_tti)
matrices of offered / dropped / granted / served bytes.  Each TTI's
admit/grant/drain is elementwise numpy over UEs, and — when the
schedulable set cannot change within the batch (full-buffer traffic)
— the scheduler is asked for a whole-batch grant *slab* so thousands
of TTIs collapse into a handful of array ops.

Every path performs the same IEEE-754 operations in the same order
(``avail = backlog + accepted``, ``served = min(avail, cap)``,
``backlog = avail - served``; no cumsum/prefix tricks anywhere), so
its outputs are bit-identical to replaying the recurrence one UE and
one TTI at a time in Python floats — the equivalence the tests and
``scripts/traffic_smoke.py`` assert.

:class:`MACSimulation` wraps sources + queues + scheduler into the
stateful per-epoch object the controller and the experiments drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.lte.throughput import PRB_PER_10MHZ, throughput_mbps
from repro.perf import perf
from repro.traffic.generators import (
    BYTES_PER_TTI_PER_MBPS,
    TrafficSource,
    make_traffic_model,
)
from repro.traffic.queueing import QueueBank
from repro.traffic.schedulers import make_scheduler


def rate_per_prb_bytes(snr_db: Sequence[float]) -> np.ndarray:
    """Per-UE deliverable bytes per PRB per TTI at the given SNRs."""
    snr = np.asarray(list(snr_db), dtype=float)
    mbps = np.array([throughput_mbps(s, n_prb=1) for s in snr], dtype=float)
    return mbps * BYTES_PER_TTI_PER_MBPS


@dataclass(frozen=True)
class MACBatchResult:
    """Everything one TTI batch did, per UE and per TTI.

    All byte matrices are (n_ues, n_tti) float64 with rows in
    ``ue_ids`` order; ``grants`` is the PRB allocation (int64).
    """

    ue_ids: Tuple[int, ...]
    tti0: int
    n_tti: int
    n_prb: int
    grants: np.ndarray
    offered_bytes: np.ndarray
    dropped_bytes: np.ndarray
    served_bytes: np.ndarray
    backlog_end_bytes: np.ndarray

    def offered_mbps(self) -> np.ndarray:
        """Per-UE offered rate over the batch (inf-safe: full buffer offers 0)."""
        return self.offered_bytes.sum(axis=1) / (self.n_tti * BYTES_PER_TTI_PER_MBPS)

    def served_mbps(self) -> np.ndarray:
        """Per-UE served rate over the batch."""
        return self.served_bytes.sum(axis=1) / (self.n_tti * BYTES_PER_TTI_PER_MBPS)

    def aggregate_offered_mbps(self) -> float:
        return float(self.offered_mbps().sum())

    def aggregate_served_mbps(self) -> float:
        return float(self.served_mbps().sum())

    def total_dropped_bytes(self) -> float:
        return float(self.dropped_bytes.sum())

    def total_backlog_bytes(self) -> float:
        """End-of-batch aggregate backlog (inf under full buffer)."""
        return float(self.backlog_end_bytes.sum())

    def fairness(self) -> float:
        """Jain's index over per-UE served rates."""
        from repro.sim.metrics import jain_fairness

        return jain_fairness(self.served_mbps())


def draw_offered_bytes(
    sources: Sequence[TrafficSource],
    n_tti: int,
    faults=None,
) -> np.ndarray:
    """Stack each source's next ``n_tti`` offered bytes into (n_ues, n_tti).

    ``faults`` (a :class:`repro.faults.injector.FaultInjector`) may
    amplify the result through its traffic-burst channel; with no
    injector or a zero burst rate the matrix passes through untouched
    and no RNG is drawn.
    """
    if n_tti < 0:
        raise ValueError(f"n_tti must be >= 0, got {n_tti}")
    with perf.span("traffic.generate"):
        offered = np.stack([s.offered_bytes(n_tti) for s in sources], axis=0)
    if faults is not None:
        offered = faults.traffic_bursts(offered)
    perf.count("traffic.offered_tti", int(n_tti))
    return offered


def run_tti_batch(
    *,
    bytes_per_prb: np.ndarray,
    offered_bytes: np.ndarray,
    scheduler,
    queues: QueueBank,
    n_prb: int = PRB_PER_10MHZ,
    tti0: int = 0,
) -> MACBatchResult:
    """Run one TTI batch and fold the result into ``queues``.

    The per-TTI recurrence, identical in every path:

    1. admit: tail-drop ``offered`` against the queue limit;
    2. schedulable = (backlog + accepted > 0) and (rate > 0);
    3. grant: scheduler splits ``n_prb`` PRBs over schedulable UEs;
    4. drain: ``served = min(avail, grants * bytes_per_prb)``;
    5. ``backlog = avail - served``; scheduler observes ``served``.
    """
    rates = np.asarray(bytes_per_prb, dtype=float)
    offered = np.asarray(offered_bytes, dtype=float)
    n = queues.n_ues
    if rates.shape != (n,):
        raise ValueError(f"bytes_per_prb shape {rates.shape} != ({n},)")
    if offered.ndim != 2 or offered.shape[0] != n:
        raise ValueError(f"offered_bytes shape {offered.shape} != ({n}, n_tti)")
    if n_prb < 1:
        raise ValueError(f"n_prb must be >= 1, got {n_prb}")
    n_tti = offered.shape[1]

    with perf.span("sched.kernel"):
        grants, dropped, served, backlog = _run_kernel(
            rates, offered, scheduler, queues, int(n_prb), int(tti0)
        )

    queues.account_batch(offered, dropped, served, backlog)
    perf.count("sched.tti", int(n_tti))
    perf.count("traffic.dropped_bytes", int(dropped.sum()))
    served_total = served.sum()
    if np.isfinite(served_total):
        perf.count("traffic.served_bytes", int(served_total))
    return MACBatchResult(
        ue_ids=queues.ue_ids,
        tti0=int(tti0),
        n_tti=int(n_tti),
        n_prb=int(n_prb),
        grants=grants,
        offered_bytes=offered,
        dropped_bytes=dropped,
        served_bytes=served,
        backlog_end_bytes=backlog,
    )


def _constant_schedulable(
    rate_ok: np.ndarray, offered: np.ndarray, queues: QueueBank
) -> Optional[np.ndarray]:
    """The schedulable set, iff it provably cannot change in-batch.

    A UE is schedulable at TTI ``t`` when ``avail > 0`` and its rate is
    positive.  That predicate is time-invariant when every UE falls in
    one of three classes: full buffer (``avail`` stays infinite),
    offering bytes *every* TTI (``avail >= backlog >= 0`` plus a
    positive arrival, or a backlog pinned at a positive limit), or
    never schedulable (zero rate, or nothing offered over an empty
    queue).  Any UE outside these classes — e.g. a finite backlog
    draining with no arrivals — couples the set to the queue dynamics,
    and the caller must fall back to the per-TTI scheduler loop.
    """
    fb = queues.full_buffer_mask
    positive = offered > 0.0
    always = positive.all(axis=1)
    never = ~positive.any(axis=1) & (queues.backlog_bytes == 0.0) & ~fb
    if not bool(np.all(fb | always | never | ~rate_ok)):
        return None
    return rate_ok & (fb | always)


def _mac_slab_serve(
    grants: np.ndarray,
    rates: np.ndarray,
    backlog0: np.ndarray,
    accepted: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Drain a whole full-buffer TTI slab in one shot.

    ``grants`` is ``(n_ues, n_tti)`` int64, ``rates``/``backlog0`` are
    per-UE, ``accepted`` is the admitted arrivals matrix.  Returns
    ``(served, backlog_end)`` with the exact recurrence of the scalar
    kernel: ``avail = backlog + accepted``,
    ``served = min(avail, grants * rates)`` — independent per TTI
    because an infinite backlog never changes.
    """
    cap = grants * rates[:, None]
    avail = backlog0[:, None] + accepted
    served = np.minimum(avail, cap)
    if accepted.shape[1]:
        backlog_end = (avail - served)[:, -1]
    else:
        backlog_end = backlog0.copy()
    return served, backlog_end


def _run_kernel(
    rates: np.ndarray,
    offered: np.ndarray,
    scheduler,
    queues: QueueBank,
    n_prb: int,
    tti0: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    n, n_tti = offered.shape
    rate_ok = rates > 0.0
    limit = float(queues.limit_bytes)

    schedulable = _constant_schedulable(rate_ok, offered, queues)
    if schedulable is not None:
        # The schedulable set is frozen, so a stateless scheduler can
        # emit the whole batch in one grant slab.
        slab = scheduler.grants_slab(schedulable, rates, n_prb, tti0, n_tti)
    else:
        slab = None

    if slab is not None and queues.full_buffer:
        grants = slab
        # room over an infinite backlog is 0, so a finite limit
        # drops every offered byte; unbounded queues accept all.
        if limit > 0:
            dropped = offered.copy()
        else:
            dropped = np.zeros_like(offered)
        served, backlog = _mac_slab_serve(
            grants, rates, queues.backlog_bytes, offered - dropped
        )
        perf.count("sched.slab_tti", int(n_tti))
        return grants, dropped, served, backlog

    if slab is not None:
        # Mixed full-buffer/always-offering population: grants are
        # hoisted out of the loop, but finite backlogs couple one TTI
        # to the next (a Lindley recurrence), so the admit/drain walk
        # stays per-TTI — elementwise numpy, no scheduler calls.
        grants = slab
        caps = grants * rates[:, None]
        dropped = np.zeros((n, n_tti), dtype=float)
        served = np.zeros((n, n_tti), dtype=float)
        backlog = queues.backlog_bytes.copy()
        for t in range(n_tti):
            off_t = offered[:, t]
            if limit > 0:
                room = np.maximum(limit - backlog, 0.0)
                accepted = np.minimum(off_t, room)
                dropped[:, t] = off_t - accepted
            else:
                accepted = off_t
            avail = backlog + accepted
            served_t = np.minimum(avail, caps[:, t])
            backlog = avail - served_t
            served[:, t] = served_t
        perf.count("sched.slab_tti", int(n_tti))
        return grants, dropped, served, backlog

    grants = np.zeros((n, n_tti), dtype=np.int64)
    dropped = np.zeros((n, n_tti), dtype=float)
    served = np.zeros((n, n_tti), dtype=float)
    backlog = queues.backlog_bytes.copy()
    for t in range(n_tti):
        off_t = offered[:, t]
        if limit > 0:
            room = np.maximum(limit - backlog, 0.0)
            accepted = np.minimum(off_t, room)
            drop_t = off_t - accepted
        else:
            accepted = off_t
            drop_t = np.zeros(n, dtype=float)
        avail = backlog + accepted
        schedulable = (avail > 0.0) & rate_ok
        g = scheduler.grants(schedulable, rates, n_prb, tti0 + t)
        cap = g * rates
        served_t = np.minimum(avail, cap)
        backlog = avail - served_t
        scheduler.update(served_t)
        grants[:, t] = g
        dropped[:, t] = drop_t
        served[:, t] = served_t
    return grants, dropped, served, backlog


class MACSimulation:
    """Sources + queues + scheduler for one epoch's serving time.

    Built once per epoch for a fixed UE set; :meth:`run` advances the
    MAC by a batch of TTIs against the epoch's per-UE SNRs.  The TTI
    clock, queue backlogs, generator streams and scheduler state all
    persist across calls, so chunked runs match one long run exactly.
    """

    def __init__(
        self,
        ue_ids: Sequence[int],
        *,
        traffic_model: str | object = "full_buffer",
        scheduler: str | object = "round_robin",
        seed: int = 0,
        n_prb: int = PRB_PER_10MHZ,
        buffer_bytes: float = 0.0,
        traffic_params: Optional[Mapping[str, object]] = None,
        scheduler_params: Optional[Mapping[str, object]] = None,
    ) -> None:
        ids = tuple(sorted(int(u) for u in ue_ids))
        if isinstance(traffic_model, str):
            traffic_model = make_traffic_model(
                traffic_model, **dict(traffic_params or {})
            )
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler, **dict(scheduler_params or {}))
        self.sources: List[TrafficSource] = [
            traffic_model.source(u, seed=seed) for u in ids
        ]
        full_buffer = bool(self.sources and self.sources[0].full_buffer)
        self.queues = QueueBank(ids, limit_bytes=buffer_bytes, full_buffer=full_buffer)
        self.scheduler = scheduler
        self.scheduler.reset(len(ids))
        self.n_prb = int(n_prb)
        self.tti = 0

    @property
    def ue_ids(self) -> Tuple[int, ...]:
        return self.queues.ue_ids

    def run(
        self,
        snr_db_per_ue: Mapping[int, float],
        n_tti: int,
        *,
        faults=None,
    ) -> MACBatchResult:
        """Advance the MAC by ``n_tti`` TTIs at the given per-UE SNRs."""
        try:
            snr = [float(snr_db_per_ue[u]) for u in self.queues.ue_ids]
        except KeyError as exc:
            raise KeyError(f"missing SNR for UE {exc.args[0]}") from None
        rates = rate_per_prb_bytes(snr)
        offered = draw_offered_bytes(self.sources, n_tti, faults=faults)
        result = run_tti_batch(
            bytes_per_prb=rates,
            offered_bytes=offered,
            scheduler=self.scheduler,
            queues=self.queues,
            n_prb=self.n_prb,
            tti0=self.tti,
        )
        self.tti += int(n_tti)
        return result

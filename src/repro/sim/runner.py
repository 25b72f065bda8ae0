"""Multi-epoch experiment runner.

Drives any controller (SkyRAN, the baselines, a fleet) through
successive epochs with UE dynamics between them, accounting flight
distance/time, relative throughput and REM accuracy per epoch — the
engine behind the Section 5 scale-up figures (26-31).  One epoch step
serves both the fixed-count loop (:func:`run_epochs`) and the
event-driven one (``scheme="events"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.perf import perf
from repro.sim.metrics import median_rem_error
from repro.sim.scenario import Scenario

#: Fixed operating altitude for schemes without an altitude search
#: (and for pinned like-for-like comparisons).
DEFAULT_FIXED_ALTITUDE_M = 60.0


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch outcome of a runner pass.

    Attributes
    ----------
    epoch:
        Epoch index.
    flight_distance_m / flight_time_s:
        Overhead spent this epoch.
    cumulative_distance_m / cumulative_time_s:
        Overhead spent so far, across epochs.
    relative_throughput:
        True mean-UE throughput at the chosen position over the
        optimum at the same altitude.
    rem_error_db:
        Median REM error vs ground truth (NaN for schemes without
        REMs).
    moved_ues:
        UE ids relocated before this epoch.
    altitude_m:
        Operating altitude served at after this epoch (None in traces
        saved before the field existed).
    min_throughput_mbps:
        True worst-UE throughput at the served position — the KPI the
        chaos smoke watches for graceful degradation (None in old
        traces).
    offered_mbps / served_mbps:
        Aggregate offered and served rates from the epoch's traffic
        MAC batch (None for legacy full-buffer/capacity configs and in
        old traces — the controller builds no MAC simulation then).
    backlog_bytes / dropped_bytes:
        End-of-batch aggregate RLC backlog (inf under full-buffer
        workloads) and cumulative tail-dropped bytes (None as above).
    attached_ues:
        UEs attached when this epoch was planned (None outside
        ``scheme="events"`` — the epoch loop then serves a fixed
        population).
    attaches / detaches / rach_collisions / barred:
        Event-layer control-plane counters accumulated since the
        previous epoch (None outside ``scheme="events"``).
    rem_groups:
        REM-key dedup groups the controller's epoch used (None for
        controllers without REM-key dedup and in old traces).
    """

    epoch: int
    flight_distance_m: float
    flight_time_s: float
    cumulative_distance_m: float
    cumulative_time_s: float
    relative_throughput: float
    rem_error_db: float
    moved_ues: tuple
    altitude_m: Optional[float] = None
    min_throughput_mbps: Optional[float] = None
    offered_mbps: Optional[float] = None
    served_mbps: Optional[float] = None
    backlog_bytes: Optional[float] = None
    dropped_bytes: Optional[float] = None
    attached_ues: Optional[int] = None
    attaches: Optional[int] = None
    detaches: Optional[int] = None
    rach_collisions: Optional[int] = None
    barred: Optional[int] = None
    rem_groups: Optional[int] = None


@dataclass(frozen=True)
class FleetEpochRecord:
    """Per-epoch outcome of a fleet runner pass.

    The fleet analogue of :class:`EpochRecord`: KPIs are SINR-based
    (co-channel cells interfere under the run's frequency plan) and
    reported per cell as well as fleet-wide.

    Attributes
    ----------
    epoch:
        Epoch index.
    n_uavs / reuse_factor:
        Fleet size and frequency plan of the run.
    flight_distance_m / flight_time_s:
        Overhead summed over every cell this epoch.
    cumulative_distance_m / cumulative_time_s:
        Overhead so far, across epochs.
    aggregate_throughput_mbps / min_throughput_mbps:
        Mean and worst per-UE full-cell throughput from the true-SINR
        evaluation of the epoch's final deployment.
    cells:
        Cell indices that served UEs this epoch, ascending; the
        ``per_cell_*`` and ``ue_counts`` tuples align with it.
    per_cell_aggregate_mbps / per_cell_min_mbps:
        Mean / worst per-UE throughput inside each cell.
    ue_counts:
        UEs served per cell.
    handovers / attaches:
        Sky-cell handovers and first-time attaches this epoch.
    moved_ues:
        UE ids relocated before this epoch.
    """

    epoch: int
    n_uavs: int
    reuse_factor: int
    flight_distance_m: float
    flight_time_s: float
    cumulative_distance_m: float
    cumulative_time_s: float
    aggregate_throughput_mbps: float
    min_throughput_mbps: float
    cells: tuple
    per_cell_aggregate_mbps: tuple
    per_cell_min_mbps: tuple
    ue_counts: tuple
    handovers: int
    attaches: int
    moved_ues: tuple


def _evaluate_epoch(scenario: Scenario, result, rem_grid) -> tuple:
    """Relative/min throughput + REM error + altitude for one epoch result."""
    position = getattr(result, "placement", None)
    if position is not None:
        pos = position.position
    else:
        pos = result.position  # Centroid-style results
    rel = scenario.relative_throughput(pos)
    min_tput = scenario.evaluate(pos).min_throughput_mbps
    rem_maps = getattr(result, "rem_maps", None)
    if rem_maps:
        altitude = float(pos.z)
        truth = scenario.truth_maps(altitude, rem_grid)
        order = sorted(rem_maps)
        # Rows of truth follow scenario.ues order (by construction ids
        # are 1..n sorted), matching sorted map keys.  Under the events
        # scheme only the attached subset has maps, so pick its rows.
        all_ids = sorted(ue.ue_id for ue in scenario.ues)
        if len(order) != len(all_ids):
            truth = truth[[all_ids.index(k) for k in order]]
        err = median_rem_error(rem_maps, truth, ue_order=order)
    else:
        err = float("nan")
    return rel, err, float(pos.z), min_tput


def _cumulative(prev, distance_m: float, time_s: float) -> Dict[str, float]:
    """Overhead so far: the previous record's totals plus this epoch's."""
    d0, t0 = (0.0, 0.0) if prev is None else (prev.cumulative_distance_m, prev.cumulative_time_s)
    return {"cumulative_distance_m": d0 + distance_m, "cumulative_time_s": t0 + time_s}


def _epoch_record(scenario: Scenario, controller, result, prev, **fields) -> EpochRecord:
    """Score a single-cell epoch result against the oracle and record it."""
    with perf.span("runner.evaluate"):
        rel, err, alt, min_tput = _evaluate_epoch(
            scenario, result, getattr(controller, "rem_grid", scenario.eval_grid)
        )
    mac = getattr(controller, "last_mac_summary", None) or {}
    return EpochRecord(
        flight_distance_m=result.flight_distance_m,
        flight_time_s=result.flight_time_s,
        **_cumulative(prev, result.flight_distance_m, result.flight_time_s),
        relative_throughput=rel,
        rem_error_db=err,
        altitude_m=alt,
        min_throughput_mbps=min_tput,
        offered_mbps=mac.get("offered_mbps"),
        served_mbps=mac.get("served_mbps"),
        backlog_bytes=mac.get("backlog_bytes"),
        dropped_bytes=mac.get("dropped_bytes"),
        rem_groups=getattr(result, "n_rem_groups", None),
        **fields,
    )


def _fleet_record(scenario: Scenario, fleet, result, prev, **fields) -> FleetEpochRecord:
    """Record a fleet epoch from its own true-SINR KPIs (no oracle pass)."""
    del scenario
    per_cell_agg = result.per_cell_aggregate_throughput_mbps
    per_cell_min = result.per_cell_min_throughput_mbps
    counts = result.ue_counts
    cells = tuple(sorted(per_cell_agg))
    return FleetEpochRecord(
        n_uavs=fleet.n_uavs,
        reuse_factor=result.reuse_factor,
        flight_distance_m=result.total_flight_distance_m,
        flight_time_s=result.total_flight_time_s,
        **_cumulative(prev, result.total_flight_distance_m, result.total_flight_time_s),
        aggregate_throughput_mbps=result.aggregate_throughput_mbps,
        min_throughput_mbps=result.min_throughput_mbps,
        cells=cells,
        per_cell_aggregate_mbps=tuple(per_cell_agg[c] for c in cells),
        per_cell_min_mbps=tuple(per_cell_min[c] for c in cells),
        ue_counts=tuple(counts[c] for c in cells),
        handovers=result.handovers,
        attaches=result.attaches,
        **fields,
    )


def _epoch_step(
    scenario: Scenario,
    controller,
    budget_m: Optional[float],
    records: list,
    on_epoch: Optional[Callable],
    **fields,
) -> None:
    """Run one controller epoch, append its record and report it.

    The one epoch step every run loop shares.  ``fields`` are the
    loop's own record fields (moved UEs, event-layer counters); a
    :class:`~repro.core.fleet.FleetController` epoch becomes a
    :class:`FleetEpochRecord`, any other an :class:`EpochRecord`.
    """
    from repro.core.fleet import FleetController

    with perf.span("runner.epoch"):
        result = controller.run_epoch(budget_m)
    build = _fleet_record if isinstance(controller, FleetController) else _epoch_record
    prev = records[-1] if records else None
    record = build(scenario, controller, result, prev, epoch=len(records), **fields)
    records.append(record)
    if on_epoch is not None:
        on_epoch(record)


def run_epochs(
    scenario: Scenario,
    controller,
    n_epochs: int,
    budget_per_epoch_m: Optional[float] = None,
    move_fraction: float = 0.0,
    seed: int = 0,
    on_epoch: Optional[Callable[[EpochRecord], None]] = None,
) -> List[EpochRecord]:
    """Run a controller for several epochs with optional UE dynamics.

    Before every epoch after the first, ``move_fraction`` of the UEs
    teleport to fresh walkable positions
    (:meth:`~repro.sim.scenario.Scenario.relocate_ues`, the Section 5.2
    dynamics model) under a mobility RNG seeded with ``seed``.  Drives
    any controller exposing ``run_epoch(budget_m)``: SkyRAN, Uniform
    and Centroid yield :class:`EpochRecord` rows; a
    :class:`~repro.core.fleet.FleetController` yields
    :class:`FleetEpochRecord` rows and, for a given seed, sees exactly
    the UE motion a single-cell run sees.
    """
    rng = np.random.default_rng(seed)
    records: list = []
    for epoch in range(n_epochs):
        moved: tuple = ()
        if epoch > 0 and move_fraction > 0:
            moved = scenario.relocate_ues(move_fraction, rng)
        _epoch_step(
            scenario, controller, budget_per_epoch_m, records, on_epoch, moved_ues=moved
        )
    return records


def _run_event_epochs(
    scenario: Scenario,
    controller,
    events_config,
    serve_time_s: float,
    n_epochs: int,
    budget_per_epoch_m: Optional[float] = None,
    arrival_params: Optional[Dict] = None,
    seed: int = 0,
    on_epoch: Optional[Callable[[EpochRecord], None]] = None,
    faults=None,
):
    """Drive a controller from the event-driven attach/churn layer.

    The inversion of :func:`run_epochs`: instead of a fixed population
    and a fixed epoch count, the :class:`~repro.events.simulate.
    AttachSimulation` owns time.  UEs arrive, fight through the RACH
    and attach; every registration change rebuilds the controller's
    serving-time MAC state; every KPI heartbeat feeds the epoch
    trigger, and a re-plan (the shared epoch step, recording the
    control-plane counters since the previous one) runs the moment the
    first UE attaches and again whenever the trigger fires — up to
    ``n_epochs`` re-plans in ``serve_time_s`` simulated seconds.

    Returns ``(records, sim)`` so callers can inspect the final
    population census and counters.
    """
    from repro.events.simulate import AttachSimulation

    # The event layer owns attachment for the run: UEs start detached
    # and must earn their registration through the RACH.
    for ue in list(scenario.enodeb.ues):
        scenario.enodeb.deregister_ue(ue.ue_id)

    records: List[EpochRecord] = []
    counter_mark: Dict[str, int] = {}

    def replan() -> None:
        delta = {k: sim.counters[k] - counter_mark.get(k, 0) for k in sim.counters}
        counter_mark.update(sim.counters)
        _epoch_step(
            scenario,
            controller,
            budget_per_epoch_m,
            records,
            on_epoch,
            moved_ues=(),
            attached_ues=len(scenario.enodeb.connected_ues()),
            attaches=delta["attaches"],
            detaches=delta["detaches"],
            rach_collisions=delta["rach_collisions"],
            barred=delta["barred"],
        )

    def on_population_change(t_s: float) -> None:
        del t_s
        controller.refresh_population()

    def on_kpi(t_s: float) -> None:
        if len(records) >= n_epochs:
            return
        if not scenario.enodeb.connected_ues():
            return
        if controller.epoch_index == 0:
            # First UEs are in: plan the initial deployment.
            replan()
            return
        if controller.needs_new_epoch(t_s):
            perf.count("events.trigger_replan")
            replan()

    sim = AttachSimulation(
        scenario.enodeb,
        list(scenario.ues),
        events_config,
        seed=seed,
        arrival_params=arrival_params,
        faults=faults,
        on_population_change=on_population_change,
        on_kpi=on_kpi,
    )
    sim.run(serve_time_s)
    return records, sim


def overhead_to_target(
    records: List[EpochRecord],
    target_relative: float = 0.9,
    metric: str = "throughput",
    target_rem_db: float = 5.0,
    value: str = "time",
) -> Optional[float]:
    """Cumulative overhead when a target was first met.

    ``metric="throughput"``: first epoch with relative throughput >=
    ``target_relative``.  ``metric="rem"``: first epoch with REM error
    <= ``target_rem_db``.  None if never met.

    ``value`` selects the overhead unit: ``"time"`` returns cumulative
    flight seconds (wall clock, including slow localization flights);
    ``"distance"`` returns cumulative meters flown — the paper's
    overhead axes are measurement-flight time at cruise speed, which
    distance/cruise-speed matches more faithfully than wall clock.
    """
    if value not in ("time", "distance"):
        raise ValueError(f"unknown value kind {value!r}")
    for rec in records:
        hit = (
            metric == "throughput" and rec.relative_throughput >= target_relative
        ) or (metric == "rem" and rec.rem_error_db <= target_rem_db)
        if hit:
            return rec.cumulative_time_s if value == "time" else rec.cumulative_distance_m
    return None


# -- the one-call entrypoint ------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    """Typed outcome of :func:`run_simulation`.

    Attributes
    ----------
    scheme:
        Which controller ran
        (``"skyran"``/``"uniform"``/``"centroid"``/``"fleet"``/``"events"``).
    records:
        One :class:`EpochRecord` per epoch, in order (empty for fleet
        runs, which fill ``fleet_records`` instead).
    fault_counters / fallback_counters:
        ``faults.*`` / ``fallback.*`` perf-counter deltas accumulated
        over this run (empty for fault-free runs).
    learn_counters:
        ``learn.*`` perf-counter deltas (predictive fires,
        ``learn.fallback.*`` refusals, residual applications) for runs
        using :mod:`repro.learn` components; empty otherwise.
    fleet_records:
        One :class:`FleetEpochRecord` per epoch for ``scheme="fleet"``
        runs; empty otherwise.
    event_counters:
        The attach/churn layer's control-plane counters (arrivals,
        attaches, collisions, barring, storms) for ``scheme="events"``
        runs; empty otherwise.
    population:
        End-of-run lifecycle census (state name -> UE count, summing
        to the spawned population) for ``scheme="events"`` runs; empty
        otherwise.
    """

    scheme: str
    records: Tuple[EpochRecord, ...]
    fault_counters: Dict[str, int] = field(default_factory=dict)
    fallback_counters: Dict[str, int] = field(default_factory=dict)
    learn_counters: Dict[str, int] = field(default_factory=dict)
    fleet_records: Tuple[FleetEpochRecord, ...] = ()
    event_counters: Dict[str, int] = field(default_factory=dict)
    population: Dict[str, int] = field(default_factory=dict)

    @property
    def final(self) -> EpochRecord:
        """The last epoch's record."""
        return self.records[-1]

    @property
    def relative_throughput(self) -> float:
        """Relative throughput achieved after the final epoch."""
        return self.final.relative_throughput

    @property
    def total_distance_m(self) -> float:
        return self.final.cumulative_distance_m

    @property
    def total_time_s(self) -> float:
        return self.final.cumulative_time_s

    @property
    def total_faults(self) -> int:
        return sum(self.fault_counters.values())

    @property
    def total_fallbacks(self) -> int:
        return sum(self.fallback_counters.values())

    @property
    def final_fleet(self) -> FleetEpochRecord:
        """The last epoch's fleet record (fleet runs only)."""
        return self.fleet_records[-1]

    @property
    def total_handovers(self) -> int:
        """Sky-cell handovers across the whole run (0 for non-fleet)."""
        return sum(r.handovers for r in self.fleet_records)


def run_simulation(
    scenario: Scenario,
    config=None,
    faults=None,
    *,
    scheme: str = "skyran",
    n_epochs: int = 1,
    budget_per_epoch_m: Optional[float] = None,
    move_fraction: float = 0.0,
    seed: int = 0,
    altitude: Optional[float] = None,
    on_epoch: Optional[Callable[[EpochRecord], None]] = None,
    n_uavs: int = 1,
    association: str = "best_sinr",
    reuse_factor: int = 1,
    handover_hysteresis_db: float = 3.0,
    events=None,
    arrival_params: Optional[Dict] = None,
    serve_time_s: float = 120.0,
    mobility=None,
) -> RunResult:
    """Build a controller, run it for ``n_epochs``, return a :class:`RunResult`.

    The one public entrypoint experiments and smoke scripts share: it
    owns controller construction (so every caller wires faults and
    config the same way) and snapshots the ``faults.*``/``fallback.*``
    perf counters around the run.

    Parameters
    ----------
    scenario:
        The radio world to run against.
    config:
        :class:`~repro.core.config.SkyRANConfig` (defaults to paper
        defaults).
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` (or prepared
        :class:`~repro.faults.injector.FaultInjector`); None runs
        fault-free, bit-identical to a controller built directly.
    scheme:
        ``"skyran"``, ``"uniform"``, ``"centroid"``, ``"fleet"`` or
        ``"events"``.
    altitude:
        Pin the operating altitude (required semantics for the
        fixed-altitude baselines, optional for SkyRAN, which otherwise
        runs its own first-epoch search).
    n_uavs / association / reuse_factor / handover_hysteresis_db:
        Fleet knobs, used by ``scheme="fleet"`` only: fleet size,
        association-policy name
        (:func:`repro.core.association.available_associations`),
        frequency reuse factor and handover hysteresis.  The fleet
        scheme takes over cell attachment — UEs are moved off the
        scenario's eNodeB onto per-cell eNodeBs — and reports
        SINR-based :class:`FleetEpochRecord` rows under
        ``RunResult.fleet_records``.  ``n_uavs=1`` is the degenerate
        fleet: the single cell flies exactly the standalone SkyRAN
        controller's path.
    events / arrival_params / serve_time_s / mobility:
        Event-layer knobs, used by ``scheme="events"`` only.
        ``events`` is an :class:`~repro.events.simulate.EventConfig`
        (defaults to one with paper-ish RACH numerology);
        ``arrival_params`` feeds the arrival-process factory;
        ``serve_time_s`` is the simulated serving window the event
        loop runs for; ``mobility`` is an optional
        :class:`~repro.mobility.models.MobilityModel` stepping
        attached UEs.  The events scheme takes over attachment — UEs
        start detached and earn registration through the RACH — and
        ``n_epochs`` becomes a *cap* on trigger-driven re-plans rather
        than an exact count.
    """
    from repro.baselines.centroid import CentroidController
    from repro.baselines.uniform import UniformController
    from repro.core.config import SkyRANConfig
    from repro.core.controller import SkyRANController
    from repro.core.fleet import FleetController
    from repro.faults.injector import as_injector

    cfg = config if config is not None else SkyRANConfig()
    common = dict(seed=seed, faults=as_injector(faults))
    cell = (scenario.channel, scenario.enodeb, cfg)
    fixed = float(altitude if altitude is not None else DEFAULT_FIXED_ALTITUDE_M)
    build = {
        "skyran": lambda: SkyRANController(*cell, **common),
        "events": lambda: SkyRANController(*cell, **common),
        "uniform": lambda: UniformController(*cell, altitude=fixed, **common),
        "centroid": lambda: CentroidController(*cell, altitude=fixed, **common),
        "fleet": lambda: FleetController(
            channel=scenario.channel,
            ues=list(scenario.ues),
            n_uavs=n_uavs,
            config=cfg,
            association=association,
            reuse_factor=reuse_factor,
            handover_hysteresis_db=handover_hysteresis_db,
            **common,
        ),
    }
    if scheme not in build:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "fleet":
        # The fleet owns cell attachment: detach every UE from the
        # scenario's (single-cell) eNodeB so association can hand them
        # to per-cell eNodeBs.
        for ue in list(scenario.enodeb.ues):
            scenario.enodeb.deregister_ue(ue.ue_id)
    controller = build[scheme]()
    if altitude is not None:
        cells = controller.controllers if scheme == "fleet" else [controller]
        for ctrl in cells:
            ctrl.altitude = float(altitude)

    sim = None
    before = perf.counters()
    if scheme == "events":
        from repro.events.simulate import EventConfig

        if mobility is not None:
            scenario.enodeb.mobility = mobility
        records, sim = _run_event_epochs(
            scenario,
            controller,
            events if events is not None else EventConfig(),
            serve_time_s=serve_time_s,
            n_epochs=n_epochs,
            budget_per_epoch_m=budget_per_epoch_m,
            arrival_params=arrival_params,
            seed=seed,
            on_epoch=on_epoch,
            faults=common["faults"],
        )
    else:
        records = run_epochs(
            scenario,
            controller,
            n_epochs,
            budget_per_epoch_m=budget_per_epoch_m,
            move_fraction=move_fraction,
            seed=seed,
            on_epoch=on_epoch,
        )
    deltas = perf.counters_since(before)
    fault, fallback, learn = (
        {k: v for k, v in deltas.items() if k.startswith(prefix)}
        for prefix in ("faults.", "fallback.", "learn.")
    )
    fleet = scheme == "fleet"
    return RunResult(
        scheme=scheme,
        records=() if fleet else tuple(records),
        fault_counters=fault,
        fallback_counters=fallback,
        learn_counters=learn,
        fleet_records=tuple(records) if fleet else (),
        event_counters={} if sim is None else dict(sim.counters),
        population={} if sim is None else sim.population(),
    )

"""The SkyRAN epoch controller (paper Fig. 10).

:class:`SkyRANController` owns the UAV, the eNodeB/EPC, the REM store
and the trajectory history, and executes epochs against a
:class:`~repro.channel.model.ChannelModel` standing in for the real
radio environment.  Everything the controller *knows* comes from
simulated measurements (SRS symbols, PHY SNR reports, noisy GPS); the
true UE positions are only used to report localization error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.channel.model import ChannelModel
from repro.core.config import SkyRANConfig
from repro.core.epoch import EpochTrigger
from repro.core.placement import PlacementResult, find_optimal_altitude
from repro.core.rem_store import REMStore
from repro.faults.injector import FaultInjector, as_injector
from repro.flight.energy import EnergyBudget
from repro.flight.sampler import collect_snr_samples, localize_all_ues
from repro.flight.uav import UAV
from repro.geo.grid import GridSpec
from repro.lte.enodeb import ENodeB
from repro.lte.throughput import throughput_mbps
from repro.localization.calibration import OffsetCalibrator
from repro.lte.tof import ToFEstimator
from repro.lte.ue import UE
from repro.perf import perf
from repro.rem.aggregate import aggregate_rem_running
from repro.rem.interpolate import make_interpolator
from repro.rem.streaming import streamed_discounted_max_min_placement
from repro.traffic.simulate import MACBatchResult, MACSimulation
from repro.trajectory.information import TrajectoryHistory
from repro.trajectory.random_flight import random_flight
from repro.trajectory.skyran import PlanResult, SkyRANPlanner


@dataclass(frozen=True)
class EpochResult:
    """Everything one epoch produced.

    Attributes
    ----------
    epoch_index:
        0-based epoch counter.
    ue_estimates:
        Estimated UE positions by UE id.
    localization_errors_m:
        True horizontal localization error per UE id.
    altitude_m:
        Operating altitude used this epoch.
    plan:
        Trajectory-planner diagnostics (None if no measurement flight
        was flown).
    placement:
        Chosen operating position and predicted worst-UE SNR.
    rem_maps:
        Interpolated per-UE SNR maps after the measurement flight.  UEs
        sharing a REM-key dedup group share one map *object* — the dict
        stays per-UE-keyed but holds only ``n_rem_groups`` distinct
        arrays.
    flight_distance_m / flight_time_s:
        Total overhead (localization + altitude search + measurement
        + reposition) of the epoch.
    n_rem_groups:
        Distinct REM-key dedup groups this epoch (one per UE unless
        ``config.rem_key_pitch_m`` is set).
    """

    epoch_index: int
    ue_estimates: Dict[int, np.ndarray]
    localization_errors_m: Dict[int, float]
    altitude_m: float
    plan: Optional[PlanResult]
    placement: PlacementResult
    rem_maps: Dict[int, np.ndarray]
    flight_distance_m: float
    flight_time_s: float
    n_rem_groups: int


@dataclass
class SkyRANController:
    """Runs the SkyRAN algorithm against a simulated radio environment.

    Parameters
    ----------
    channel:
        The "real world": generates all measurements.
    enodeb:
        Airborne LTE stack; UEs must already be registered.
    config:
        Operational knobs (paper defaults).
    rem_grid:
        Grid for estimated REMs; defaults to the terrain grid
        coarsened to ``config.rem_cell_size_m``.
    uav:
        Flight platform; defaults to one parked at the area center at
        the FAA ceiling.
    seed:
        Seed for all controller-side randomness.
    faults:
        Optional fault injector (a :class:`~repro.faults.plan.FaultPlan`
        is accepted and wrapped).  When wired in, measurements pass
        through its injection points and the degraded-mode fallbacks
        (localization retry, last-good reuse, blind seeding) arm; when
        None the controller behaves bit-identically to a fault-free
        build.
    known_positions:
        Optional externally-supplied UE positions by UE id (e.g. a
        city generator's ground truth, or an operator database).  UEs
        present here are never flown for: the localization flight
        covers only the *unknown* UEs — and is skipped entirely when
        there are none — while known positions enter the epoch as
        zero-cost estimates.  ``None`` (the default) leaves every run
        byte-identical to a build without this field.
    """

    channel: ChannelModel
    enodeb: ENodeB
    config: SkyRANConfig = field(default_factory=SkyRANConfig)
    rem_grid: Optional[GridSpec] = None
    uav: Optional[UAV] = None
    seed: int = 0
    faults: Optional[FaultInjector] = None
    known_positions: Optional[Dict[int, np.ndarray]] = None

    def __post_init__(self) -> None:
        terrain_grid = self.channel.terrain.grid
        if self.rem_grid is None:
            factor = max(1, int(round(self.config.rem_cell_size_m / terrain_grid.cell_size)))
            self.rem_grid = terrain_grid.coarsen(factor)
        if self.uav is None:
            cx = terrain_grid.origin_x + terrain_grid.width / 2
            cy = terrain_grid.origin_y + terrain_grid.height / 2
            self.uav = UAV(position=np.array([cx, cy, self.config.max_altitude_m]))
        self.faults = as_injector(self.faults)
        self.rng = np.random.default_rng(self.seed)
        self.estimator = ToFEstimator(self.enodeb.srs_config, self.config.tof_upsampling)
        self.planner = SkyRANPlanner(
            k_min=self.config.k_min,
            k_max=self.config.k_max,
            gradient_quantile=self.config.gradient_quantile,
            seed=self.seed,
        )
        self.history = TrajectoryHistory(reuse_radius_m=self.config.reuse_radius_m)
        self.rem_store = REMStore(self.rem_grid, self.config.reuse_radius_m)
        self.trigger = EpochTrigger(
            self.config.epoch_margin,
            debounce=self.config.epoch_debounce,
            metric=self.config.epoch_trigger_metric,
        )
        if self.config.epoch_trigger_metric == "learned":
            # Import inside the branch: the default path must never
            # import repro.learn (byte-identity of default runs).
            from repro.learn.trigger import make_predictor

            self.trigger.predictor = make_predictor(
                self.config.learn_trigger_model_path,
                self.config.epoch_margin,
                self.faults,
            )
        self.interpolator = make_interpolator(
            self.config.interpolator,
            power=self.config.idw_power,
            k_neighbors=self.config.idw_neighbors,
            model_path=self.config.learn_model_path,
        )
        self.altitude: Optional[float] = None
        self.epoch_index = 0
        self._last_estimates: Dict[int, np.ndarray] = {}
        self.offset_calibrator = OffsetCalibrator()
        self._mac: Optional[MACSimulation] = None
        self.last_mac_summary: Optional[Dict[str, float]] = None

    @property
    def _chaos(self) -> bool:
        """True when an *active* fault injector is wired in.

        Every degraded-mode behaviour change gates on this, so
        fault-free runs stay bit-identical to a build without the
        fault subsystem.
        """
        return self.faults is not None and self.faults.active

    @property
    def _traffic_enabled(self) -> bool:
        """True when the config departs from the legacy MAC idealization.

        With the defaults (``full_buffer`` + ``round_robin`` +
        capacity trigger) no traffic state is ever constructed and no
        traffic RNG is drawn, so default runs stay byte-identical to
        builds without the traffic subsystem.
        """
        return (
            self.config.traffic_model != "full_buffer"
            or self.config.scheduler != "round_robin"
            or self.config.epoch_trigger_metric == "served"
        )

    # -- building blocks -----------------------------------------------------------

    def _ues_to_localize(self) -> List[UE]:
        """Connected UEs whose position the controller must measure.

        Everything when ``known_positions`` is unset; otherwise only
        the UEs absent from it.
        """
        ues = self.enodeb.connected_ues()
        if not self.known_positions:
            return ues
        return [u for u in ues if u.ue_id not in self.known_positions]

    def _merge_known_positions(
        self, estimates: Dict[int, np.ndarray], errors: Dict[int, float]
    ) -> None:
        """Fold externally-known UE positions into the epoch estimates.

        Errors are still reported against ground truth so the KPI
        surface stays uniform; a no-op when ``known_positions`` is
        unset.
        """
        if not self.known_positions:
            return
        for ue in self.enodeb.connected_ues():
            kp = self.known_positions.get(ue.ue_id)
            if kp is None:
                continue
            p = np.asarray(kp, dtype=float)
            estimates[ue.ue_id] = p
            errors[ue.ue_id] = float(
                np.hypot(p[0] - ue.position.x, p[1] - ue.position.y)
            )

    def _fly_localization_leg(self) -> tuple:
        """One localization flight + joint solve.

        Flown at the (lower) localization altitude for better ranging
        geometry; the descent is part of the epoch's overhead.  Returns
        ``(estimates, errors, trusted_ids, distance, duration)`` —
        ``trusted_ids`` is the set of UEs whose fresh solve passed the
        degraded-mode quality gates (all of them in fault-free runs).
        """
        extra_distance = 0.0
        loc_alt = self.config.localization_altitude_m
        # Fly from above the last-known UE centroid: ranging geometry
        # degrades sharply when all UEs sit far to one side, and after
        # the first epoch the controller knows roughly where they are.
        if self._last_estimates:
            cx, cy = np.mean(
                [p[:2] for p in self._last_estimates.values()], axis=0
            )
        else:
            cx, cy = self.uav.position[0], self.uav.position[1]
        target = np.array([cx, cy, loc_alt])
        if np.linalg.norm(self.uav.position - target) > 1.0:
            move = self.uav.goto(target, self.rng, faults=self.faults)
            extra_distance += move.distance_m
        traj = random_flight(
            self.rem_grid,
            self.uav.position[:2],
            self.config.localization_flight_m,
            altitude=float(self.uav.position[2]),
            rng=self.rng,
        )
        cruise = self.uav.speed_mps
        self.uav.speed_mps = self.config.localization_speed_mps
        try:
            log = self.uav.fly(traj, self.rng, faults=self.faults)
        finally:
            self.uav.speed_mps = cruise
        ues = self._ues_to_localize()
        margin = 20.0  # UEs just outside the nominal box are still real
        bounds = (
            (self.rem_grid.origin_x - margin, self.rem_grid.max_x + margin),
            (self.rem_grid.origin_y - margin, self.rem_grid.max_y + margin),
        )
        min_quality = None
        if self._chaos and self.config.tof_quality_floor > 0:
            min_quality = self.config.tof_quality_floor
        joint = localize_all_ues(
            log,
            ues,
            self.channel,
            self.enodeb,
            self.estimator,
            self.rng,
            bounds_xy=bounds,
            offset_prior=self.offset_calibrator.prior(),
            faults=self.faults,
            min_quality=min_quality,
        )
        # The offset is a chain constant: feed this epoch's estimate
        # back into the running calibration for the next epoch — but a
        # starved chaos solve has no offset information to feed.
        if joint.per_ue or not self._chaos:
            self.offset_calibrator.update(joint.offset_m)
        estimates: Dict[int, np.ndarray] = {}
        errors: Dict[int, float] = {}
        trusted: set = set()
        for ue in ues:
            result = joint.per_ue.get(ue.ue_id)
            if result is None:
                continue  # starved under faults; wrapper falls back
            estimates[ue.ue_id] = result.position
            errors[ue.ue_id] = float(
                np.hypot(
                    result.position[0] - ue.position.x,
                    result.position[1] - ue.position.y,
                )
            )
            if not self._chaos:
                trusted.add(ue.ue_id)
            elif (
                result.residual_rms_m <= self.config.localization_residual_limit_m
                and result.inlier_fraction >= self.config.min_inlier_fraction
            ):
                trusted.add(ue.ue_id)
        return estimates, errors, trusted, extra_distance + log.distance_m, log.duration_s

    def _blind_estimate(self) -> np.ndarray:
        """Positionless fallback: the operating-area center at UE height.

        Only used when a UE has never been localized and the current
        flight produced nothing for it either.
        """
        cx = self.rem_grid.origin_x + self.rem_grid.width / 2
        cy = self.rem_grid.origin_y + self.rem_grid.height / 2
        return np.array([cx, cy, 1.5])

    def _localization_flight(self) -> tuple:
        """Steps 1-4 with degraded-mode hardening (chaos runs only).

        Fault-free, this is exactly one leg.  Under an active injector:
        if a leg leaves any UE without a *trusted* fresh estimate, the
        leg is re-flown up to ``config.localization_max_retries`` times
        (``fallback.localization_retry``); whatever is still missing or
        untrusted after that falls back to the last-good estimate
        (``fallback.reuse_last_estimate``) or, with no history, a blind
        area-center seed (``fallback.blind_estimate``).

        With ``known_positions`` covering every connected UE there is
        nothing to measure, so no flight happens at all; the caller
        merges the known positions afterwards.
        """
        if self.known_positions and not self._ues_to_localize():
            return {}, {}, 0.0, 0.0
        estimates, errors, trusted, distance, duration = self._fly_localization_leg()
        if not self._chaos:
            return estimates, errors, distance, duration
        ues = self._ues_to_localize()
        retries = 0
        while (
            len(trusted) < len(ues)
            and retries < self.config.localization_max_retries
        ):
            retries += 1
            perf.count("fallback.localization_retry")
            est2, err2, trusted2, d2, t2 = self._fly_localization_leg()
            distance += d2
            duration += t2
            # A fresh trusted solve beats anything; a fresh untrusted
            # one only fills holes.
            for ue_id, pos in est2.items():
                if ue_id in trusted2 or ue_id not in estimates:
                    estimates[ue_id] = pos
                    errors[ue_id] = err2[ue_id]
            trusted |= trusted2
        for ue in ues:
            if ue.ue_id in trusted:
                continue
            if ue.ue_id in estimates and ue.ue_id not in self._last_estimates:
                continue  # untrusted but fresh, and nothing better exists
            if ue.ue_id in self._last_estimates:
                perf.count("fallback.reuse_last_estimate")
                estimates[ue.ue_id] = self._last_estimates[ue.ue_id]
            else:
                perf.count("fallback.blind_estimate")
                estimates[ue.ue_id] = self._blind_estimate()
            errors[ue.ue_id] = float(
                np.hypot(
                    estimates[ue.ue_id][0] - ue.position.x,
                    estimates[ue.ue_id][1] - ue.position.y,
                )
            )
        return estimates, errors, distance, duration

    def _search_altitude(self, centroid_xy: np.ndarray) -> tuple:
        """First-epoch altitude search above the estimated UE centroid.

        The UAV flies to the ceiling over the centroid and descends
        step by step, *measuring* mean path loss to its attached UEs at
        each stop — the measurement is of the real world (true UE
        positions), as it would be on hardware.  Every probe actually
        moves the UAV (descending during the search, then climbing back
        to the best altitude found), so the charged distance equals the
        flown path — no analytic descent term double-counting the
        ceiling-to-optimum leg on top of the repositioning flight.
        """
        ues = self.enodeb.connected_ues()
        ue_xyz = np.array([ue.xyz for ue in ues])
        start_clock_s = self.uav.clock_s

        top = np.array([centroid_xy[0], centroid_xy[1], self.config.max_altitude_m])
        distance = self.uav.goto(top, self.rng, faults=self.faults).distance_m

        # Each probe averages ~1 s of 100 Hz PHY reports, so the
        # residual probe noise is small.
        probe_noise = 0.2

        def path_loss_at(alt: float) -> float:
            pos = np.array([centroid_xy[0], centroid_xy[1], alt])
            nonlocal distance
            if abs(float(self.uav.position[2]) - alt) > 1e-9:
                distance += self.uav.goto(pos, self.rng, faults=self.faults).distance_m
            # One batched one-Tx-many-Rx probe; bit-identical to the
            # per-UE path_loss_db loop by the to_many contract.
            losses = self.channel.path_loss_to_many(pos, ue_xyz)
            return float(np.mean(losses) + self.rng.normal(0.0, probe_noise))

        altitude = find_optimal_altitude(
            path_loss_at,
            self.config.max_altitude_m,
            self.config.min_altitude_m,
            self.config.altitude_step_m,
        )
        # Climb back from wherever the search stopped to the optimum.
        log2 = self.uav.goto(
            np.array([centroid_xy[0], centroid_xy[1], altitude]),
            self.rng,
            faults=self.faults,
        )
        distance += log2.distance_m
        duration = self.uav.clock_s - start_clock_s
        return altitude, distance, duration

    def _prior_for(self, ue_xyz: np.ndarray) -> np.ndarray:
        """FSPL-seed SNR map for a never-measured UE position.

        Served from the channel's LRU prior cache, so re-seeding the
        same (or a returning) UE position across epochs is free.
        """
        pl = self.channel.fspl_prior_map(ue_xyz, self.altitude, self.rem_grid)
        return self.channel.link.snr_db(pl)

    # -- the epoch --------------------------------------------------------------------

    def _rem_groups(
        self, estimates: Dict[int, np.ndarray]
    ) -> Tuple[Dict[int, List[int]], Dict[int, int]]:
        """REM-key dedup groups over the epoch's estimates.

        UEs whose estimates fall in the same ``config.rem_key_pitch_m``
        cell (anchored at the REM grid origin) share one REM and one
        interpolated map; the group representative is its smallest UE
        id.  With no pitch (the default) every UE is its own group —
        the paper's per-UE REMs.  Returns ``(members by rep id, rep id
        by UE id)``; reps ascend with ``sorted(members)``.  At the city
        generator's key pitch this grouping is exact — same-cell UEs
        already share position-keyed REMs.
        """
        pitch = self.config.rem_key_pitch_m
        if pitch is None:
            return {u: [u] for u in sorted(estimates)}, {u: u for u in estimates}
        x0, y0 = self.rem_grid.origin_x, self.rem_grid.origin_y
        by_cell: Dict[Tuple[int, int], List[int]] = {}
        for ue_id in sorted(estimates):
            p = estimates[ue_id]
            cell = (
                int(np.floor((float(p[0]) - x0) / pitch)),
                int(np.floor((float(p[1]) - y0) / pitch)),
            )
            by_cell.setdefault(cell, []).append(ue_id)
        members: Dict[int, List[int]] = {}
        rep_of: Dict[int, int] = {}
        for ids in by_cell.values():
            rep = ids[0]
            members[rep] = ids
            for ue_id in ids:
                rep_of[ue_id] = rep
        return members, rep_of

    def run_epoch(
        self,
        budget_m: Optional[float] = None,
        energy_budget: Optional["EnergyBudget"] = None,
    ) -> EpochResult:
        """Execute one full SkyRAN epoch (Fig. 10, steps 1-8).

        ``energy_budget`` (a :class:`~repro.flight.energy.EnergyBudget`)
        caps the measurement budget by what the battery can fund while
        still reserving service time — the Section 2.5 trade made
        operational.

        One REM is looked up, seeded and measured per REM-key dedup
        group (:meth:`_rem_groups`; one group per UE by default), so
        with a key pitch set, work and REM state saturate at the
        key-grid size instead of growing with the population.
        Planning consumes a running aggregate
        (:func:`repro.rem.aggregate.aggregate_rem_running`) of the
        per-UE map references (group maps repeated per member, in
        sorted-UE order), and placement folds each group's discounted
        map into a running min-SNR surface
        (:func:`repro.rem.streaming.streamed_discounted_max_min_placement`),
        so no per-UE map stack is ever built.
        """
        if not self.enodeb.connected_ues():
            raise RuntimeError("no connected UEs to serve")
        budget = budget_m if budget_m is not None else self.config.measurement_budget_m
        if energy_budget is not None:
            budget = max(energy_budget.clamp(budget, self.uav.battery), 1.0)
        total_distance = 0.0
        t_start = self.uav.clock_s

        # Steps 1-4: localization flight and multilateration.
        estimates, errors, dist, _ = self._localization_flight()
        total_distance += dist
        self._merge_known_positions(estimates, errors)
        if not estimates:
            raise RuntimeError("no connected UEs to serve")
        self._last_estimates = dict(estimates)

        # Step 5: optimal altitude (first epoch only, Section 3.3.1).
        if self.altitude is None:
            centroid = np.mean([estimates[k][:2] for k in sorted(estimates)], axis=0)
            self.altitude, dist, _ = self._search_altitude(centroid)
            total_distance += dist

        # REM-key dedup + lookup/seeding (Section 3.5), one per group.
        groups, rep_of = self._rem_groups(estimates)
        perf.count("epoch.rem_groups", len(groups))
        rems = {
            rep: self.rem_store.get_or_create(
                estimates[rep], self.altitude, self._prior_for
            )
            for rep in sorted(groups)
        }

        # Step 6: plan over the running per-UE aggregate (group maps
        # broadcast to members) and the group waypoints.
        with perf.span("epoch.plan"):
            group_maps = {
                rep: rems[rep].interpolated(method=self.interpolator)
                for rep in sorted(rems)
            }
            agg = aggregate_rem_running(
                (group_maps[rep_of[ue_id]] for ue_id in sorted(estimates)),
                self.rem_grid.shape,
            )
            del group_maps
            rep_positions = [estimates[rep] for rep in sorted(groups)]
            plan = self.planner.plan(
                self.rem_grid,
                [],
                rep_positions,
                self.uav.position[:2],
                self.altitude,
                budget,
                self.history,
                aggregate=agg,
            )

        # Step 7: fly it, measure, update each group's REM through its
        # representative.
        log = self.uav.fly(plan.trajectory, self.rng, faults=self.faults)
        total_distance += log.distance_m
        for ue in self.enodeb.connected_ues():
            if ue.ue_id not in rems:
                continue
            before = rems[ue.ue_id].n_measured_cells
            xy, snr = collect_snr_samples(
                log, ue, self.channel, self.rng, faults=self.faults
            )
            if len(snr):
                rems[ue.ue_id].add_measurements(xy, snr)
            if self._chaos and rems[ue.ue_id].n_measured_cells == before:
                # The flight fed this map nothing (all samples dropped
                # or unbinnable); serve from whatever it already holds
                # — reused/prior cells — instead of failing the epoch.
                perf.count("fallback.rem_starved")
        for rep in sorted(rems):
            self.history.record(estimates[rep], plan.trajectory)
            self.rem_store.commit(rems[rep])

        # Step 8: uncertainty-discounted max-min placement.
        with perf.span("epoch.place"):
            placement, group_final = streamed_discounted_max_min_placement(
                self.rem_grid,
                [rems[rep] for rep in sorted(rems)],
                self.interpolator,
                self.altitude,
                penalty_rate_db_per_m=self.config.uncertainty_penalty_db_per_m,
                penalty_cap_db=self.config.uncertainty_penalty_cap_db,
            )
        by_rep = dict(zip(sorted(rems), group_final))
        final_maps = {
            ue_id: by_rep[rep_of[ue_id]] for ue_id in sorted(estimates)
        }

        # Reposition and arm the trigger.  Under a traffic-aware config
        # a fresh MAC simulation is built for this epoch's UE set (queue
        # backlogs and generator streams do not survive a re-plan;
        # per-UE streams restart deterministically from (seed, ue_id)).
        move_log = self.uav.goto(placement.position.as_array(), self.rng, faults=self.faults)
        total_distance += move_log.distance_m

        self.last_mac_summary = None
        if self._traffic_enabled:
            self._mac = self._make_mac(
                [u.ue_id for u in self.enodeb.connected_ues()]
            )
            batch = self._serve_tti_batch()
            self.last_mac_summary = self._summarize_batch(batch)
        if self.trigger.metric == "served":
            self.trigger.reset(self.last_mac_summary["served_mbps"])
        else:
            self.trigger.reset(self.aggregate_throughput_mbps())

        result = EpochResult(
            epoch_index=self.epoch_index,
            ue_estimates=estimates,
            localization_errors_m=errors,
            altitude_m=self.altitude,
            plan=plan,
            placement=placement,
            rem_maps=final_maps,
            flight_distance_m=total_distance,
            flight_time_s=self.uav.clock_s - t_start,
            n_rem_groups=len(groups),
        )
        self.epoch_index += 1
        return result

    # -- serving-time monitoring ---------------------------------------------------------

    def _make_mac(self, ue_ids: List[int]) -> MACSimulation:
        """A fresh MAC simulation for the given UE population.

        Per-UE generator streams restart deterministically from
        ``(seed, ue_id)``, so rebuilding for the same population is
        bit-identical to the original build.
        """
        return MACSimulation(
            ue_ids,
            traffic_model=self.config.traffic_model,
            scheduler=self.config.scheduler,
            seed=self.seed,
            n_prb=self.enodeb.n_prb,
            buffer_bytes=self.config.traffic_buffer_bytes,
            traffic_params={"rate_mbps": self.config.traffic_rate_mbps},
            scheduler_params={
                "time_constant_tti": self.config.pf_time_constant_tti
            },
        )

    def refresh_population(self) -> None:
        """Rebuild serving-time state after the attached set changed.

        The event layer calls this on every attach/detach/storm
        knock-off: queue backlogs belong to UEs that may be gone and
        the scheduler's fairness history is for the old population, so
        under a traffic-aware config the MAC simulation is rebuilt for
        the current connected set (``None`` while the cell is empty —
        :meth:`served_throughput_mbps` would have nothing to serve).
        With the default full-buffer config this is a no-op, keeping
        non-event runs untouched.
        """
        if not self._traffic_enabled:
            return
        ids = [u.ue_id for u in self.enodeb.connected_ues()]
        self._mac = self._make_mac(ids) if ids else None
        perf.count("events.mac_rebuild")

    def aggregate_throughput_mbps(self) -> float:
        """Mean full-cell throughput over UEs at the current position.

        This is the live KPI the epoch trigger watches while serving.
        Computed through one batched one-Tx-many-Rx ray pass
        (:meth:`~repro.channel.model.ChannelModel.snr_to_many`) —
        bit-identical to the historical per-UE ``snr_db`` loop by the
        to_many contract and the elementwise CQI mapping.
        """
        ues = self.enodeb.connected_ues()
        if not ues:
            return 0.0
        snrs = self.channel.snr_to_many(
            self.uav.position, np.array([ue.xyz for ue in ues])
        )
        return float(np.mean(throughput_mbps(snrs)))

    def _serve_tti_batch(self) -> MACBatchResult:
        """Advance the epoch's MAC simulation by one TTI batch.

        SNRs are sampled at the current position per batch, so UE
        mobility between checks shows up in the served rate.  Offered
        traffic passes through the fault injector's traffic-burst
        channel (inert when the plan's burst rate is zero).
        """
        snrs = {
            ue.ue_id: float(self.channel.snr_db(self.uav.position, ue.xyz))
            for ue in self.enodeb.connected_ues()
            if ue.ue_id in self._mac.ue_ids
        }
        return self._mac.run(snrs, self.config.tti_batch, faults=self.faults)

    @staticmethod
    def _summarize_batch(batch: MACBatchResult) -> Dict[str, float]:
        backlog = batch.total_backlog_bytes()
        return {
            "offered_mbps": batch.aggregate_offered_mbps(),
            "served_mbps": batch.aggregate_served_mbps(),
            "backlog_bytes": backlog if np.isfinite(backlog) else float("inf"),
            "dropped_bytes": batch.total_dropped_bytes(),
            "fairness": batch.fairness(),
        }

    def served_throughput_mbps(self) -> float:
        """Aggregate served rate over one fresh TTI batch.

        Requires a traffic-aware config (an epoch must have armed the
        MAC simulation); this is the live KPI of the ``"served"``
        trigger metric.
        """
        if self._mac is None:
            raise RuntimeError(
                "no MAC simulation armed (run an epoch with a traffic-aware config)"
            )
        batch = self._serve_tti_batch()
        self.last_mac_summary = self._summarize_batch(batch)
        return self.last_mac_summary["served_mbps"]

    def needs_new_epoch(self, t_s: float = 0.0) -> bool:
        """Check the trigger against the current aggregate KPI."""
        if self.trigger.metric == "served":
            return self.trigger.update(self.served_throughput_mbps(), t_s)
        return self.trigger.update(self.aggregate_throughput_mbps(), t_s)

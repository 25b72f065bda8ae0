"""The fleet control plane (paper Sections 7-8, SkyLiTE).

The paper argues SkyRAN "directly supports multi-UAV deployments: the
REM are cooperatively constructed and shared amongst multiple SkyRAN
UAVs"; SkyLiTE (PAPERS.md) works out what that actually requires —
co-channel UAV cells *interfere*, so UE association and placement must
be optimized jointly over SINR, not per-cell SNR.
:class:`FleetController` is that control plane, promoted to the
first-class abstraction:

* it owns N :class:`~repro.core.controller.SkyRANController` cells,
  each with its own eNodeB, all sharing one radio world, one
  :class:`~repro.core.rem_store.REMStore` and one
  :class:`~repro.trajectory.information.TrajectoryHistory` (a UE
  wandering between sectors keeps its map; no UAV re-probes airspace
  another has covered);
* every epoch it runs a UE → cell **association** step over the
  candidate-SINR matrix through the policy registry of
  :mod:`repro.core.association` (``best_sinr`` / ``sticky`` /
  ``load_aware``), counting sky-cell handovers under ``perf``
  (``fleet.handover`` / ``fleet.attach``);
* each cell then runs the standard single-UAV epoch inside its
  sector, followed by an interference-aware **joint placement**
  refinement that re-scores each cell's estimated REM stack by the
  rise-over-thermal from the rest of the fleet (the
  :func:`~repro.rem.streaming.streamed_interference_max_min_placement`
  fold, reusing the PR 6 tile machinery);
* frequency planning is a modular reuse factor
  (:func:`~repro.channel.interference.reuse_carriers`): cell ``i``
  transmits on carrier ``i % reuse_factor``, so ``reuse_factor=1`` is
  the fully co-channel worst case and ``reuse_factor >= n_uavs``
  recovers independent, interference-free cells.

``n_uavs=1`` is the degenerate fleet: one cell, no co-channel
interferers, no refinement pass — the wrapped
:class:`SkyRANController` draws exactly the RNG stream it draws when
run standalone, so single-UAV runs are bit-identical through this
abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.channel.interference import (
    fleet_sinr_db,
    fleet_rx_power_dbm,
    interference_penalty_db,
    reuse_carriers,
    sinr_db_from_rx_stack,
)
from repro.channel.model import ChannelModel
from repro.core.association import UNATTACHED, available_associations, make_association
from repro.core.config import SkyRANConfig
from repro.core.controller import EpochResult, SkyRANController
from repro.faults.injector import FaultInjector
from repro.geo.grid import GridSpec
from repro.geo.kmeans import kmeans
from repro.lte.enodeb import ENodeB
from repro.lte.throughput import throughput_mbps
from repro.lte.ue import UE
from repro.perf import perf
from repro.rem.streaming import streamed_interference_max_min_placement


@dataclass(frozen=True)
class SectorAssignment:
    """Which UEs each UAV serves this epoch.

    Attributes
    ----------
    ue_ids_by_uav:
        UE ids per UAV index.
    centers:
        Sector centers — K-means centroids on the bootstrap epoch,
        member centroids (or the cell's UAV position for an empty
        cell) on association epochs.
    """

    ue_ids_by_uav: Dict[int, List[int]]
    centers: np.ndarray

    def serving(self) -> Dict[int, int]:
        """The ``ue_id -> cell index`` map this assignment encodes."""
        return {
            ue_id: cell
            for cell, ue_ids in self.ue_ids_by_uav.items()
            for ue_id in ue_ids
        }


class _FleetKPIMixin:
    """Shared SINR-derived KPIs for fleet results and evaluations.

    Expects ``serving: Dict[int, int]`` and ``sinr_db: Dict[int, float]``
    attributes on the concrete class.
    """

    @property
    def ue_throughput_mbps(self) -> Dict[int, float]:
        """Full-cell throughput per UE from its SINR (paper's metric)."""
        return {u: float(throughput_mbps(s)) for u, s in self.sinr_db.items()}

    @property
    def aggregate_throughput_mbps(self) -> float:
        """Mean per-UE throughput across the whole fleet (0.0 if empty)."""
        tput = self.ue_throughput_mbps
        return float(np.mean(list(tput.values()))) if tput else 0.0

    @property
    def min_throughput_mbps(self) -> float:
        """Worst-UE throughput across the whole fleet (0.0 if empty)."""
        tput = self.ue_throughput_mbps
        return float(min(tput.values())) if tput else 0.0

    @property
    def ue_counts(self) -> Dict[int, int]:
        """UEs served per cell index."""
        counts: Dict[int, int] = {}
        for cell in self.serving.values():
            counts[cell] = counts.get(cell, 0) + 1
        return counts

    @property
    def per_cell_aggregate_throughput_mbps(self) -> Dict[int, float]:
        """Mean per-UE throughput per cell (cells with UEs only)."""
        tput = self.ue_throughput_mbps
        out: Dict[int, List[float]] = {}
        for u, cell in self.serving.items():
            out.setdefault(cell, []).append(tput[u])
        return {c: float(np.mean(v)) for c, v in sorted(out.items())}

    @property
    def per_cell_min_throughput_mbps(self) -> Dict[int, float]:
        """Worst-UE throughput per cell (cells with UEs only)."""
        tput = self.ue_throughput_mbps
        out: Dict[int, float] = {}
        for u, cell in self.serving.items():
            val = tput[u]
            out[cell] = val if cell not in out else min(out[cell], val)
        return dict(sorted(out.items()))


@dataclass(frozen=True)
class FleetEvaluation(_FleetKPIMixin):
    """SINR KPIs of a *fixed* deployment under one frequency plan.

    Produced by :meth:`FleetController.evaluate` — no flights, no RNG,
    no state change — so reuse factors can be swept evaluation-only
    over one deployment (the monotonic reuse sweep of the
    ``fleet_scale`` experiment).
    """

    serving: Dict[int, int]
    sinr_db: Dict[int, float]
    reuse_factor: int


@dataclass(frozen=True)
class FleetEpochResult(_FleetKPIMixin):
    """Per-UAV epoch results plus the fleet-level outcome.

    Attributes
    ----------
    assignment:
        The sectorization this epoch ran under.
    per_uav:
        Each cell's :class:`EpochResult` (cells with no UEs skip their
        epoch and are absent).
    serving:
        ``ue_id -> cell index`` after association.
    sinr_db:
        Per-UE SINR (dB) at the true UE positions under the epoch's
        final fleet deployment and frequency plan.
    handovers / attaches:
        Sky-cell handovers (serving cell changed) and first-time
        attaches this epoch.
    reuse_factor:
        The frequency plan the SINRs were computed under.
    """

    assignment: SectorAssignment
    per_uav: Dict[int, EpochResult]
    serving: Dict[int, int] = field(default_factory=dict)
    sinr_db: Dict[int, float] = field(default_factory=dict)
    handovers: int = 0
    attaches: int = 0
    reuse_factor: int = 1

    @property
    def total_flight_distance_m(self) -> float:
        return float(sum(r.flight_distance_m for r in self.per_uav.values()))

    @property
    def total_flight_time_s(self) -> float:
        return float(sum(r.flight_time_s for r in self.per_uav.values()))


@dataclass(kw_only=True)
class FleetController:
    """Runs ``n_uavs`` SkyRAN cells as one SINR-aware control plane.

    Parameters
    ----------
    channel:
        The shared radio environment.
    ues:
        All UEs in the operating area.  The controller owns their cell
        attachment; they must not be registered on another eNodeB.
    n_uavs:
        Fleet size (1 is the degenerate single-UAV fleet).
    config:
        Per-cell SkyRAN configuration.
    seed:
        Base seed; cell ``i`` runs with ``seed + i``.
    association:
        Association-policy name from the
        :mod:`repro.core.association` registry.
    handover_hysteresis_db:
        Hysteresis passed to policies that take it — a UE hands over
        only when another cell beats its serving cell by more than
        this.
    load_penalty_db:
        Load discount passed to the ``load_aware`` policy.
    reuse_factor:
        Frequency reuse factor; cell ``i`` transmits on carrier
        ``i % reuse_factor``.
    activity:
        Per-cell downlink activity factors in [0, 1]; defaults to
        fully loaded (the conservative busy-hour assumption).
    faults:
        Optional fault injector shared by every cell.
    """

    channel: ChannelModel
    ues: List[UE]
    n_uavs: int = 1
    config: SkyRANConfig = field(default_factory=SkyRANConfig)
    seed: int = 0
    association: str = "best_sinr"
    handover_hysteresis_db: float = 3.0
    load_penalty_db: float = 3.0
    reuse_factor: int = 1
    activity: Optional[Sequence[float]] = None
    faults: Optional[FaultInjector] = None

    def __post_init__(self) -> None:
        if self.n_uavs < 1:
            raise ValueError(f"need at least one UAV, got {self.n_uavs}")
        if len(self.ues) < self.n_uavs:
            raise ValueError(
                f"{self.n_uavs} UAVs need at least as many UEs, got {len(self.ues)}"
            )
        if self.reuse_factor < 1:
            raise ValueError(f"reuse_factor must be >= 1, got {self.reuse_factor}")
        if self.handover_hysteresis_db < 0:
            raise ValueError(
                f"handover_hysteresis_db must be >= 0, got {self.handover_hysteresis_db}"
            )
        if self.association not in available_associations():
            known = ", ".join(available_associations())
            raise ValueError(
                f"unknown association policy {self.association!r} (known: {known})"
            )
        if self.activity is not None and len(list(self.activity)) != self.n_uavs:
            raise ValueError(
                f"activity must have length {self.n_uavs}, got {len(list(self.activity))}"
            )
        seen = set()
        for ue in self.ues:
            if ue.ue_id in seen:
                raise ValueError(f"duplicate UE id {ue.ue_id}")
            seen.add(ue.ue_id)
        self.policy = make_association(
            self.association,
            hysteresis_db=self.handover_hysteresis_db,
            load_penalty_db=self.load_penalty_db,
        )
        terrain_grid = self.channel.terrain.grid
        factor = max(
            1, int(round(self.config.rem_cell_size_m / terrain_grid.cell_size))
        )
        self.rem_grid: GridSpec = terrain_grid.coarsen(factor)
        self.controllers: List[SkyRANController] = []
        self._enodebs: List[ENodeB] = []
        for i in range(self.n_uavs):
            enodeb = ENodeB()
            ctrl = SkyRANController(
                self.channel,
                enodeb,
                self.config,
                rem_grid=self.rem_grid,
                seed=self.seed + i,
                faults=self.faults,
            )
            self.controllers.append(ctrl)
            self._enodebs.append(enodeb)
        # Cooperative state: one store, one history, shared by all.
        shared_store = self.controllers[0].rem_store
        shared_history = self.controllers[0].history
        for ctrl in self.controllers[1:]:
            ctrl.rem_store = shared_store
            ctrl.history = shared_history
        self.rem_store = shared_store
        self._ue_ids: List[int] = sorted(ue.ue_id for ue in self.ues)
        self._serving = np.full(len(self._ue_ids), UNATTACHED, dtype=int)
        self.epoch_index = 0
        self.total_handovers = 0
        self.total_attaches = 0

    # -- frequency plan ------------------------------------------------------------

    def carriers(self, reuse_factor: Optional[int] = None) -> np.ndarray:
        """Per-cell carrier indices under the (given) reuse factor."""
        return reuse_carriers(
            self.n_uavs, self.reuse_factor if reuse_factor is None else reuse_factor
        )

    def uav_positions(self) -> List[np.ndarray]:
        """Current fleet positions, cell order."""
        return [ctrl.uav.position for ctrl in self.controllers]

    @property
    def _co_channel(self) -> bool:
        """True when any two cells share a carrier (interference exists)."""
        return self.n_uavs > 1 and self.reuse_factor < self.n_uavs

    def serving_dict(self) -> Dict[int, int]:
        """Current ``ue_id -> cell index`` assignment (attached UEs only)."""
        return {
            ue_id: int(cell)
            for ue_id, cell in zip(self._ue_ids, self._serving)
            if cell != UNATTACHED
        }

    # -- sectorization / association -----------------------------------------------

    def assign_sectors(
        self, positions: Optional[Dict[int, np.ndarray]] = None
    ) -> SectorAssignment:
        """Bootstrap partition of UEs into sectors by balanced K-means.

        ``positions`` defaults to the true UE positions for the first
        epoch (in a deployment, the previous epoch's estimates).  Later
        epochs re-associate over candidate SINR instead — this is the
        cold-start path only, kept public for the sectorization tests.
        """
        if positions is None:
            positions = {ue.ue_id: ue.xyz for ue in self.ues}
        ids = sorted(positions)
        pts = np.array([positions[i][:2] for i in ids])
        km = kmeans(pts, self.n_uavs, seed=self.seed)
        by_uav: Dict[int, List[int]] = {i: [] for i in range(self.n_uavs)}
        for ue_id, label in zip(ids, km.labels):
            by_uav[int(label)].append(ue_id)
        # A sector can come out empty when clusters collapse; steal the
        # nearest UE from the largest sector so every UAV has work.
        for uav_idx in range(self.n_uavs):
            if not by_uav[uav_idx]:
                donor = max(by_uav, key=lambda k: len(by_uav[k]))
                if len(by_uav[donor]) > 1:
                    center = km.centers[uav_idx]
                    best = min(
                        by_uav[donor],
                        key=lambda uid: float(
                            np.hypot(*(positions[uid][:2] - center))
                        ),
                    )
                    by_uav[donor].remove(best)
                    by_uav[uav_idx].append(best)
        return SectorAssignment(ue_ids_by_uav=by_uav, centers=km.centers)

    def candidate_sinr_db(
        self, positions: Dict[int, np.ndarray]
    ) -> np.ndarray:
        """The ``(n_cell, n_ue)`` candidate-SINR matrix for association.

        Entry ``[c, k]`` is UE ``k``'s SINR *if cell c served it*, with
        every other co-channel cell interfering from its current
        position — one received-power stack (one ray batch per cell),
        then one serving hypothesis per row.  UE axis follows sorted
        ``positions`` keys.
        """
        ids = sorted(positions)
        xyz = np.array([positions[i] for i in ids])
        rx = fleet_rx_power_dbm(self.channel, self.uav_positions(), xyz)
        carr = self.carriers()
        out = np.empty((self.n_uavs, len(ids)), dtype=float)
        for c in range(self.n_uavs):
            out[c] = sinr_db_from_rx_stack(
                self.channel.link,
                rx,
                np.full(len(ids), c, dtype=int),
                self.activity,
                carr,
            )
        return out

    def _associate(self, positions: Dict[int, np.ndarray]) -> SectorAssignment:
        """One association step over the candidate-SINR matrix.

        Applies the configured policy with per-cell load fractions from
        the previous assignment, rescues empty cells (stealing the
        best-candidate UE from the largest cell so every UAV has work,
        matching the K-means bootstrap's behaviour), counts handovers
        and attaches under ``perf``, and updates the serving state.
        """
        ids = sorted(positions)
        if ids != self._ue_ids:
            raise ValueError("association positions must cover exactly the fleet's UEs")
        candidate = self.candidate_sinr_db(positions)
        loads = np.zeros(self.n_uavs, dtype=float)
        attached = self._serving != UNATTACHED
        if np.any(attached):
            counts = np.bincount(self._serving[attached], minlength=self.n_uavs)
            loads = counts / len(self._ue_ids)
        new = self.policy.associate(candidate, self._serving, loads=loads)
        # Empty-cell rescue: a parked cell serves nobody forever under
        # hysteresis, so give it the UE it would serve best.
        for c in range(self.n_uavs):
            if np.any(new == c):
                continue
            donor_counts = np.bincount(new, minlength=self.n_uavs)
            donor = int(np.argmax(donor_counts))
            if donor_counts[donor] <= 1:
                continue
            members = np.flatnonzero(new == donor)
            steal = members[int(np.argmax(candidate[c, members]))]
            new[steal] = c

        was_attached = self._serving != UNATTACHED
        handovers = int(np.sum(was_attached & (new != self._serving)))
        attaches = int(np.sum(~was_attached))
        if handovers:
            perf.count("fleet.handover", handovers)
        if attaches:
            perf.count("fleet.attach", attaches)
        self.total_handovers += handovers
        self.total_attaches += attaches
        self._serving = new

        by_uav: Dict[int, List[int]] = {i: [] for i in range(self.n_uavs)}
        for ue_id, cell in zip(self._ue_ids, new):
            by_uav[int(cell)].append(ue_id)
        centers = np.array(
            [
                np.mean([positions[u][:2] for u in by_uav[c]], axis=0)
                if by_uav[c]
                else self.controllers[c].uav.position[:2]
                for c in range(self.n_uavs)
            ]
        )
        return SectorAssignment(ue_ids_by_uav=by_uav, centers=centers)

    def _bootstrap(self) -> SectorAssignment:
        """First-epoch sectorization (no estimates yet): balanced K-means."""
        assignment = self.assign_sectors()
        serving = assignment.serving()
        new = np.array([serving[u] for u in self._ue_ids], dtype=int)
        attaches = len(self._ue_ids)
        perf.count("fleet.attach", attaches)
        self.total_attaches += attaches
        self._serving = new
        return assignment

    def _rehome_ues(self, assignment: SectorAssignment) -> None:
        """Move every UE onto its cell's eNodeB (idempotent)."""
        ue_by_id = {ue.ue_id: ue for ue in self.ues}
        for enodeb in self._enodebs:
            for ue in list(enodeb.ues):
                enodeb.deregister_ue(ue.ue_id)
        for uav_idx, ue_ids in assignment.ue_ids_by_uav.items():
            for ue_id in ue_ids:
                self._enodebs[uav_idx].register_ue(ue_by_id[ue_id])

    # -- joint placement -----------------------------------------------------------

    def _refine_placements(
        self, results: Dict[int, EpochResult]
    ) -> Dict[int, EpochResult]:
        """Interference-aware joint placement over the estimated REMs.

        Sequential best-response: each cell re-solves max–min placement
        over its own estimated SNR stack with every co-channel cell's
        rise-over-thermal subtracted
        (:func:`streamed_interference_max_min_placement`), then flies
        there.  Earlier cells' refined positions feed later cells'
        penalties — one pass of the usual coordinate-descent heuristic.
        Skipped entirely when no two cells share a carrier, so the
        degenerate 1-UAV fleet flies exactly the standalone
        controller's path.
        """
        if not self._co_channel:
            return results
        carr = self.carriers()
        refined = dict(results)
        for c, ctrl in enumerate(self.controllers):
            res = refined.get(c)
            if res is None:
                continue
            co = [j for j in range(self.n_uavs) if j != c and carr[j] == carr[c]]
            if not co:
                continue
            ue_ids = sorted(res.rem_maps)
            est = np.array([res.ue_estimates[u] for u in ue_ids])
            act = None
            if self.activity is not None:
                act = [list(self.activity)[j] for j in co]
            penalty = interference_penalty_db(
                self.channel,
                est,
                [self.controllers[j].uav.position for j in co],
                act,
            )
            stack = np.stack([res.rem_maps[u] for u in ue_ids])
            tiles = [(slice(0, len(ue_ids)), slice(0, stack.shape[1]), stack)]
            placement = streamed_interference_max_min_placement(
                self.rem_grid, tiles, res.altitude_m, penalty
            )
            move = ctrl.uav.goto(
                placement.position.as_array(), ctrl.rng, faults=ctrl.faults
            )
            perf.count("fleet.joint_refine")
            refined[c] = replace(
                res,
                placement=placement,
                flight_distance_m=res.flight_distance_m + move.distance_m,
                flight_time_s=res.flight_time_s + move.duration_s,
            )
        return refined

    # -- the fleet epoch -----------------------------------------------------------

    def run_epoch(
        self, budget_per_uav_m: Optional[float] = None
    ) -> FleetEpochResult:
        """One cooperative epoch: associate, per-cell SkyRAN, joint placement.

        Cells run sequentially in simulation; each flies its own
        localization/measurement flights inside its sector, then the
        fleet jointly refines placements against each other's
        interference.  The returned result carries the honest fleet
        KPI: per-UE SINR at the true positions under the final
        deployment and frequency plan.
        """
        with perf.span("fleet.epoch"):
            h0, a0 = self.total_handovers, self.total_attaches
            estimates = self._last_estimates()
            if self.epoch_index == 0 or not estimates:
                assignment = self._bootstrap()
            else:
                # UEs can relocate between epochs; fall back to the
                # blindest thing we know (last estimate) per UE.
                positions = {
                    u: estimates.get(u, ue_xyz)
                    for u, ue_xyz in ((ue.ue_id, ue.xyz) for ue in self.ues)
                }
                assignment = self._associate(positions)
            self._rehome_ues(assignment)
            results: Dict[int, EpochResult] = {}
            for uav_idx, ctrl in enumerate(self.controllers):
                if not assignment.ue_ids_by_uav[uav_idx]:
                    continue
                results[uav_idx] = ctrl.run_epoch(budget_per_uav_m)
            results = self._refine_placements(results)
            serving = self.serving_dict()
            sinr = self.per_ue_sinr_db(serving)
            result = FleetEpochResult(
                assignment=assignment,
                per_uav=results,
                serving=serving,
                sinr_db=sinr,
                handovers=self.total_handovers - h0,
                attaches=self.total_attaches - a0,
                reuse_factor=self.reuse_factor,
            )
            self.epoch_index += 1
            return result

    def _last_estimates(self) -> Dict[int, np.ndarray]:
        merged: Dict[int, np.ndarray] = {}
        for ctrl in self.controllers:
            merged.update(ctrl._last_estimates)
        return merged

    # -- fleet-level KPIs ----------------------------------------------------------

    def per_ue_snr_db(self) -> Dict[int, float]:
        """Best-serving-cell SNR per UE at the current fleet positions.

        Batched: one :meth:`~ChannelModel.snr_to_many` ray batch per
        cell, max over the cell axis (exactly invariant to cell order —
        max commutes).
        """
        if not self.ues:
            return {}
        ues = sorted(self.ues, key=lambda u: u.ue_id)
        xyz = np.array([ue.xyz for ue in ues])
        stack = np.stack(
            [self.channel.snr_to_many(ctrl.uav.position, xyz) for ctrl in self.controllers]
        )
        best = stack.max(axis=0)
        return {ue.ue_id: float(s) for ue, s in zip(ues, best)}

    def per_ue_sinr_db(
        self,
        serving: Optional[Dict[int, int]] = None,
        activity: Optional[Sequence[float]] = None,
        reuse_factor: Optional[int] = None,
    ) -> Dict[int, float]:
        """Per-UE SINR under co-channel operation of the whole fleet.

        Unlike :meth:`per_ue_snr_db`, this charges each link with the
        co-channel cells' downlink as interference — the honest fleet
        KPI.  Batched via the SINR stack.
        """
        serving = self.serving_dict() if serving is None else serving
        ue_positions = {ue.ue_id: ue.xyz for ue in self.ues if ue.ue_id in serving}
        return fleet_sinr_db(
            self.channel,
            self.uav_positions(),
            ue_positions,
            serving,
            self.activity if activity is None else activity,
            self.carriers(reuse_factor),
        )

    def evaluate(
        self,
        reuse_factor: Optional[int] = None,
        activity: Optional[Sequence[float]] = None,
    ) -> FleetEvaluation:
        """Score the *current* deployment under a frequency plan.

        Pure evaluation — no flights, no RNG, no state change — so a
        reuse-factor sweep over one fixed deployment is
        apples-to-apples: dropping the reuse factor only ever adds
        interference terms, so min/aggregate throughput degrade
        monotonically as reuse approaches 1.
        """
        rf = self.reuse_factor if reuse_factor is None else reuse_factor
        serving = self.serving_dict()
        return FleetEvaluation(
            serving=serving,
            sinr_db=self.per_ue_sinr_db(serving, activity, rf),
            reuse_factor=rf,
        )

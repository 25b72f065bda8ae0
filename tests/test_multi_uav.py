"""Tests for the fleet control plane."""

import numpy as np
import pytest

from repro.core.config import SkyRANConfig
from repro.core.fleet import FleetController
from repro.lte.throughput import throughput_mbps
from repro.sim.scenario import Scenario
from tests.oracles import per_ue_sinr_db_reference, per_ue_snr_db_reference


@pytest.fixture()
def world():
    scenario = Scenario.create("campus", n_ues=6, cell_size=4.0, seed=12)
    # Detach from the scenario's own eNodeB: the fleet re-homes UEs
    # onto per-cell eNodeBs.
    for ue in list(scenario.enodeb.ues):
        scenario.enodeb.deregister_ue(ue.ue_id)
    return scenario


class TestSectorization:
    def test_every_ue_assigned_once(self, world):
        fleet = FleetController(
            channel=world.channel,
            ues=world.ues,
            n_uavs=2,
            config=SkyRANConfig(rem_cell_size_m=8.0),
        )
        assignment = fleet.assign_sectors()
        all_ids = sorted(i for ids in assignment.ue_ids_by_uav.values() for i in ids)
        assert all_ids == sorted(u.ue_id for u in world.ues)

    def test_no_empty_sectors(self, world):
        fleet = FleetController(
            channel=world.channel,
            ues=world.ues,
            n_uavs=3,
            config=SkyRANConfig(rem_cell_size_m=8.0),
        )
        assignment = fleet.assign_sectors()
        for ids in assignment.ue_ids_by_uav.values():
            assert len(ids) >= 1

    def test_validates_fleet_size(self, world):
        with pytest.raises(ValueError):
            FleetController(channel=world.channel, ues=world.ues, n_uavs=0)
        with pytest.raises(ValueError):
            FleetController(channel=world.channel, ues=world.ues, n_uavs=99)

    def test_validates_knobs(self, world):
        with pytest.raises(ValueError):
            FleetController(
                channel=world.channel, ues=world.ues, n_uavs=2, reuse_factor=0
            )
        with pytest.raises(ValueError):
            FleetController(
                channel=world.channel,
                ues=world.ues,
                n_uavs=2,
                handover_hysteresis_db=-1.0,
            )
        with pytest.raises(ValueError):
            FleetController(
                channel=world.channel, ues=world.ues, n_uavs=2, association="nope"
            )
        with pytest.raises(ValueError):
            FleetController(
                channel=world.channel, ues=world.ues, n_uavs=2, activity=[1.0]
            )


class TestFleetEpoch:
    def test_epoch_runs_all_uavs(self, world):
        fleet = FleetController(
            channel=world.channel,
            ues=world.ues,
            n_uavs=2,
            config=SkyRANConfig(rem_cell_size_m=8.0),
            seed=1,
        )
        result = fleet.run_epoch(budget_per_uav_m=250.0)
        assert len(result.per_uav) == 2
        assert result.total_flight_distance_m > 0
        # Every UE has a serving cell and an SINR.
        assert sorted(result.serving) == sorted(u.ue_id for u in world.ues)
        assert sorted(result.sinr_db) == sorted(result.serving)
        assert result.attaches == len(world.ues)
        assert result.handovers == 0  # nothing to hand over from on epoch 0

    def test_shared_rem_store(self, world):
        fleet = FleetController(
            channel=world.channel,
            ues=world.ues,
            n_uavs=2,
            config=SkyRANConfig(rem_cell_size_m=8.0),
            seed=1,
        )
        assert fleet.controllers[0].rem_store is fleet.controllers[1].rem_store
        fleet.run_epoch(budget_per_uav_m=200.0)
        # Both UAVs' UEs land in the one store.
        assert len(fleet.rem_store) == len(world.ues)

    def test_fleet_beats_single_uav_min_snr(self, world):
        cfg = SkyRANConfig(rem_cell_size_m=8.0)
        fleet = FleetController(
            channel=world.channel, ues=world.ues, n_uavs=2, config=cfg, seed=1
        )
        fleet.run_epoch(budget_per_uav_m=250.0)
        fleet_snr = fleet.per_ue_snr_db()
        fleet_min_tput = min(throughput_mbps(s) for s in fleet_snr.values())

        # Single-UAV best possible (oracle) min throughput:
        stack = world.truth_maps(fleet.controllers[0].altitude or 60.0)
        single_best_min = throughput_mbps(float(stack.min(axis=0).max()))
        # Two UAVs serving sectors should match or beat the single
        # UAV's oracle worst-UE throughput (modulo estimation noise).
        assert fleet_min_tput >= 0.5 * single_best_min

    def test_per_cell_kpi_properties(self, world):
        fleet = FleetController(
            channel=world.channel,
            ues=world.ues,
            n_uavs=2,
            config=SkyRANConfig(rem_cell_size_m=8.0),
            seed=1,
        )
        result = fleet.run_epoch(budget_per_uav_m=200.0)
        agg = result.per_cell_aggregate_throughput_mbps
        mn = result.per_cell_min_throughput_mbps
        assert sorted(agg) == sorted(result.per_uav)
        for cell in agg:
            assert mn[cell] <= agg[cell] + 1e-12
        assert result.min_throughput_mbps == min(mn.values())
        counts = result.ue_counts
        assert sum(counts.values()) == len(world.ues)


class TestBatchedKPIs:
    def test_snr_and_sinr_match_references(self, world):
        fleet = FleetController(
            channel=world.channel,
            ues=world.ues,
            n_uavs=3,
            config=SkyRANConfig(rem_cell_size_m=8.0),
            seed=2,
            reuse_factor=2,
        )
        fleet.run_epoch(budget_per_uav_m=150.0)
        assert fleet.per_ue_snr_db() == per_ue_snr_db_reference(fleet)
        assert fleet.per_ue_sinr_db() == per_ue_sinr_db_reference(fleet)

    def test_sinr_leq_snr(self, world):
        fleet = FleetController(
            channel=world.channel,
            ues=world.ues,
            n_uavs=2,
            config=SkyRANConfig(rem_cell_size_m=8.0),
            seed=2,
        )
        fleet.run_epoch(budget_per_uav_m=150.0)
        snr = fleet.per_ue_snr_db()
        sinr = fleet.per_ue_sinr_db()
        for ue_id in sinr:
            # Interference can only hurt, and the serving cell is at
            # best the strongest cell.
            assert sinr[ue_id] <= snr[ue_id] + 1e-9

    def test_reuse_sweep_monotonic(self, world):
        fleet = FleetController(
            channel=world.channel,
            ues=world.ues,
            n_uavs=3,
            config=SkyRANConfig(rem_cell_size_m=8.0),
            seed=2,
        )
        fleet.run_epoch(budget_per_uav_m=150.0)
        evals = [fleet.evaluate(reuse_factor=k) for k in (1, 2, 3)]
        for lo, hi in zip(evals, evals[1:]):
            assert lo.min_throughput_mbps <= hi.min_throughput_mbps + 1e-12
            assert (
                lo.aggregate_throughput_mbps <= hi.aggregate_throughput_mbps + 1e-12
            )


class TestShimRemoved:
    def test_deprecated_coordinator_is_gone(self):
        # PR 7 turned MultiUAVCoordinator into a warn-once shim; this
        # PR removes it.  The import path must be dead so stragglers
        # fail loudly at import time instead of silently diverging
        # from FleetController.
        with pytest.raises(ImportError):
            from repro.core.multi_uav import MultiUAVCoordinator  # noqa: F401
        import repro.core

        assert "MultiUAVCoordinator" not in repro.core.__all__
        assert not hasattr(repro.core, "MultiUAVCoordinator")

"""Tests for energy budgeting and inter-cell interference."""

import numpy as np
import pytest

from repro.channel.interference import fleet_sinr_db, fleet_sinr_db_stack
from repro.channel.model import ChannelModel
from repro.flight.energy import EnergyBudget
from repro.flight.uav import Battery
from tests.oracles import sinr_db as sinr_db_loop


def sinr_db(channel, uav_positions, ue, serving_index, activity=None):
    """One UE's SINR through the batched fleet stack.

    Also checks the stack against the scalar per-(UAV, UE) loop, bit
    for bit, on every configuration these tests build.
    """
    out = float(
        fleet_sinr_db_stack(channel, uav_positions, [ue], [serving_index], activity)[0]
    )
    assert out == sinr_db_loop(channel, uav_positions, ue, serving_index, activity)
    return out


class TestEnergyBudget:
    def test_full_battery_affords_plenty(self):
        eb = EnergyBudget(min_service_s=600.0)
        budget = eb.affordable_budget_m(Battery())
        assert budget > 1000.0

    def test_drained_battery_affords_nothing(self):
        b = Battery()
        b.used_wh = b.capacity_wh * 0.9
        eb = EnergyBudget(min_service_s=600.0)
        assert eb.affordable_budget_m(b) == 0.0

    def test_service_reservation_reduces_budget(self):
        b = Battery()
        short = EnergyBudget(min_service_s=60.0).affordable_budget_m(b)
        long = EnergyBudget(min_service_s=1200.0).affordable_budget_m(b)
        assert long < short

    def test_clamp(self):
        eb = EnergyBudget()
        b = Battery()
        assert eb.clamp(10.0, b) == 10.0
        b.used_wh = b.capacity_wh
        assert eb.clamp(10.0, b) == 0.0
        with pytest.raises(ValueError):
            eb.clamp(-1.0, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyBudget(min_service_s=-1.0)
        with pytest.raises(ValueError):
            EnergyBudget(reserve_fraction=1.0)
        with pytest.raises(ValueError):
            EnergyBudget(speed_mps=0.0)


class TestInterference:
    @pytest.fixture()
    def channel(self, flat_terrain):
        return ChannelModel(flat_terrain, shadowing_sigma_db=0.0, common_sigma_db=0.0)

    def test_single_uav_sinr_equals_snr(self, channel):
        uav = np.array([30.0, 30.0, 50.0])
        ue = np.array([50.0, 50.0, 1.5])
        assert sinr_db(channel, [uav], ue, 0) == pytest.approx(
            float(channel.snr_db(uav, ue)), abs=1e-6
        )

    def test_interferer_reduces_sinr(self, channel):
        serving = np.array([45.0, 50.0, 50.0])
        interferer = np.array([60.0, 50.0, 50.0])
        ue = np.array([50.0, 50.0, 1.5])
        alone = sinr_db(channel, [serving], ue, 0)
        crowded = sinr_db(channel, [serving, interferer], ue, 0)
        assert crowded < alone - 3.0

    def test_activity_scales_interference(self, channel):
        serving = np.array([45.0, 50.0, 50.0])
        interferer = np.array([60.0, 50.0, 50.0])
        ue = np.array([50.0, 50.0, 1.5])
        idle = sinr_db(channel, [serving, interferer], ue, 0, activity=[1.0, 0.0])
        busy = sinr_db(channel, [serving, interferer], ue, 0, activity=[1.0, 1.0])
        assert idle > busy
        assert idle == pytest.approx(sinr_db(channel, [serving], ue, 0), abs=1e-6)

    def test_farther_interferer_hurts_less(self, channel):
        serving = np.array([45.0, 50.0, 50.0])
        near = np.array([60.0, 50.0, 50.0])
        far = np.array([5.0, 5.0, 50.0])
        ue = np.array([50.0, 50.0, 1.5])
        with_near = sinr_db(channel, [serving, near], ue, 0)
        with_far = sinr_db(channel, [serving, far], ue, 0)
        assert with_far > with_near

    def test_fleet_helper(self, channel):
        uavs = [np.array([30.0, 30.0, 50.0]), np.array([70.0, 70.0, 50.0])]
        ues = {1: np.array([30.0, 35.0, 1.5]), 2: np.array([70.0, 65.0, 1.5])}
        serving = {1: 0, 2: 1}
        out = fleet_sinr_db(channel, uavs, ues, serving)
        assert set(out) == {1, 2}
        assert all(np.isfinite(v) for v in out.values())

    def test_validation(self, channel):
        ue = np.array([50.0, 50.0, 1.5])
        with pytest.raises(ValueError):
            sinr_db(channel, [np.zeros(3)], ue, 1)
        with pytest.raises(ValueError):
            sinr_db(channel, [np.zeros(3)], ue, 0, activity=[2.0])

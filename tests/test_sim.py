"""Unit tests for scenario construction and metrics."""

import numpy as np
import pytest

from repro.geo.points import Point3D
from repro.lte.ue import UE_ANTENNA_HEIGHT_M
from repro.mobility.models import relocate_fraction
from repro.sim.metrics import median_rem_error, relative_series, summarize
from repro.sim.runner import run_simulation
from repro.sim.scenario import WALKABLE_CLEARANCE_M, Scenario


class TestScenario:
    def test_create_registers_ues(self, small_scenario):
        assert len(small_scenario.ues) == 3
        assert len(small_scenario.enodeb.connected_ues()) == 3

    def test_ues_on_walkable_ground(self, small_scenario):
        for ue in small_scenario.ues:
            surface = small_scenario.terrain.height_at(ue.position.x, ue.position.y)
            assert surface < 2.0
            assert ue.position.z == pytest.approx(surface + 1.5)

    def test_layouts(self):
        uni = Scenario.create("campus", 6, layout="uniform", cell_size=4.0, seed=1)
        clu = Scenario.create("campus", 6, layout="clustered", cell_size=4.0, seed=1)
        ring = Scenario.create("campus", 6, layout="ring", cell_size=4.0, seed=1)
        pock = Scenario.create("campus", 6, layout="pockets", cell_size=4.0, seed=1)

        def spread(s):
            pts = np.array([[u.position.x, u.position.y] for u in s.ues])
            return np.mean(np.hypot(*(pts - pts.mean(axis=0)).T))

        assert spread(clu) < spread(uni)
        assert len(ring.ues) == len(pock.ues) == 6

    def test_unknown_layout(self):
        with pytest.raises(ValueError):
            Scenario.create("campus", 3, layout="swarm", cell_size=4.0)

    def test_truth_maps_cached_and_mobility_aware(self, small_scenario):
        a = small_scenario.truth_maps(60.0)
        b = small_scenario.truth_maps(60.0)
        assert a is b  # cache hit
        small_scenario.ues[0].move_to(10.0, 10.0)
        c = small_scenario.truth_maps(60.0)
        assert c is not a  # UE moved: fresh oracle

    def test_evaluate_aggregates(self, small_scenario):
        ev = small_scenario.evaluate(Point3D(60.0, 60.0, 60.0))
        assert set(ev.snr_db) == {u.ue_id for u in small_scenario.ues}
        assert ev.min_throughput_mbps <= ev.avg_throughput_mbps

    def test_optimal_position_objectives(self, small_scenario):
        pos_avg, val_avg = small_scenario.optimal_position(60.0, "avg")
        pos_mm, val_mm = small_scenario.optimal_position(60.0, "maxmin")
        assert small_scenario.grid.contains(pos_avg.x, pos_avg.y)
        # The avg objective's value is the best achievable average.
        assert small_scenario.evaluate(pos_mm).avg_throughput_mbps <= val_avg + 1e-6
        with pytest.raises(ValueError):
            small_scenario.optimal_position(60.0, "entropy")

    def test_relative_throughput_bounds(self, small_scenario):
        pos, _ = small_scenario.optimal_position(60.0, "maxmin")
        rel = small_scenario.relative_throughput(pos)
        assert rel == pytest.approx(1.0)


class TestDynamics:
    def test_relocate_all_lands_on_walkable_ground(self):
        scenario = Scenario.create("campus", n_ues=6, cell_size=4.0, seed=2)
        moved = scenario.relocate_ues(1.0, np.random.default_rng(5))
        assert sorted(moved) == [ue.ue_id for ue in scenario.ues]
        for ue in scenario.ues:
            ground = scenario.terrain.height_at(ue.position.x, ue.position.y)
            assert ground < WALKABLE_CLEARANCE_M
            assert ue.position.z == ground + UE_ANTENNA_HEIGHT_M

    def test_relocate_keeps_the_mobility_draw_order(self):
        """Same RNG, same picks: the scenario step is relocate_fraction."""
        a = Scenario.create("campus", n_ues=6, cell_size=4.0, seed=2)
        b = Scenario.create("campus", n_ues=6, cell_size=4.0, seed=2)
        moved = a.relocate_ues(0.5, np.random.default_rng(9))
        want = relocate_fraction(
            b.ues,
            0.5,
            b.grid,
            np.random.default_rng(9),
            lambda x, y: b.terrain.height_at(x, y) < WALKABLE_CLEARANCE_M,
        )
        assert moved == tuple(want)
        for ua, ub in zip(a.ues, b.ues):
            assert (ua.position.x, ua.position.y) == (ub.position.x, ub.position.y)

    def test_one_uav_fleet_sees_the_single_cell_dynamics(self):
        """Fleet and SkyRAN runs of one seed move the same UEs and fly alike."""
        kw = dict(n_epochs=3, move_fraction=0.5, seed=4)
        single = run_simulation(
            Scenario.create("campus", n_ues=4, cell_size=4.0, seed=4), **kw
        ).records
        fleet = run_simulation(
            Scenario.create("campus", n_ues=4, cell_size=4.0, seed=4),
            scheme="fleet",
            n_uavs=1,
            **kw,
        ).fleet_records
        assert len(single) == len(fleet) == 3
        assert any(r.moved_ues for r in single)
        for s_rec, f_rec in zip(single, fleet):
            assert s_rec.moved_ues == f_rec.moved_ues
            assert s_rec.flight_distance_m == f_rec.flight_distance_m
            assert s_rec.flight_time_s == f_rec.flight_time_s


class TestMetrics:
    def test_median_rem_error(self):
        truth = np.stack([np.zeros((4, 4)), np.zeros((4, 4))])
        maps = {1: np.full((4, 4), 2.0), 2: np.full((4, 4), 6.0)}
        assert median_rem_error(maps, truth) == pytest.approx(4.0)

    def test_median_rem_error_validates(self):
        with pytest.raises(ValueError):
            median_rem_error({1: np.zeros((2, 2))}, np.zeros((2, 2, 2)))

    def test_relative_series(self):
        assert relative_series([5.0, 10.0], 10.0) == [0.5, 1.0]
        assert relative_series([5.0], 0.0) == [0.0]

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s["median"] == 3.0
        assert s["min"] == 1.0 and s["max"] == 5.0
        with pytest.raises(ValueError):
            summarize([])

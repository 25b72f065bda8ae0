"""Controller epochs under REM-key dedup.

By default every UE gets its own REM group (the paper's per-UE REMs).
A key pitch collapses UEs whose estimates share a key cell into one
group: work saturates at the number of occupied key cells and group
members share one map object.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SkyRANConfig
from repro.core.controller import SkyRANController
from repro.core.rem_store import REMStore
from repro.geo.grid import GridSpec
from repro.lte.throughput import throughput_mbps
from repro.rem.map import REM
from repro.sim.scenario import Scenario


def _controller(*, pitch=0.25, seed=1, n_ues=4, known=None):
    scenario = Scenario.create("campus", n_ues=n_ues, cell_size=4.0, seed=5)
    cfg = SkyRANConfig(rem_cell_size_m=8.0, rem_key_pitch_m=pitch)
    ctrl = SkyRANController(
        scenario.channel,
        scenario.enodeb,
        cfg,
        seed=seed,
        known_positions=known,
    )
    return scenario, ctrl


class TestDefaultGrouping:
    def test_one_group_per_ue(self):
        """No key pitch (the default): the paper's per-UE REMs."""
        scenario = Scenario.create("campus", n_ues=4, cell_size=4.0, seed=5)
        ctrl = SkyRANController(
            scenario.channel,
            scenario.enodeb,
            SkyRANConfig(rem_cell_size_m=8.0),
            seed=1,
        )
        assert ctrl.config.rem_key_pitch_m is None
        result = ctrl.run_epoch(budget_m=300.0)
        assert result.n_rem_groups == len(result.ue_estimates)
        maps = list(result.rem_maps.values())
        assert len({id(m) for m in maps}) == len(maps)


class TestCollapse:
    def test_coarse_pitch_collapses_to_one_group(self):
        # Pitch wider than the campus: every UE lands in one key cell.
        _, ctrl = _controller(pitch=10_000.0, seed=1)
        result = ctrl.run_epoch(budget_m=300.0)
        assert result.n_rem_groups == 1
        maps = list(result.rem_maps.values())
        assert len(maps) == len(result.ue_estimates)
        # Members share the group's map *object*, not copies of it.
        assert all(m is maps[0] for m in maps)
        assert np.isfinite(result.placement.min_snr_db)

    def test_group_count_tracks_pitch(self):
        _, fine = _controller(pitch=0.25, seed=1)
        fine_result = fine.run_epoch(budget_m=300.0)
        _, coarse = _controller(pitch=10_000.0, seed=1)
        coarse_result = coarse.run_epoch(budget_m=300.0)
        assert coarse_result.n_rem_groups < fine_result.n_rem_groups
        assert fine_result.n_rem_groups == len(fine_result.ue_estimates)


class TestKnownPositions:
    def test_all_known_skips_localization_flight(self):
        scenario, _ = _controller()
        known = {
            ue.ue_id: np.array([ue.position.x, ue.position.y, ue.position.z])
            for ue in scenario.ues
        }
        scenario2 = Scenario.create("campus", n_ues=4, cell_size=4.0, seed=5)
        ctrl = SkyRANController(
            scenario2.channel,
            scenario2.enodeb,
            SkyRANConfig(rem_cell_size_m=8.0),
            seed=1,
            known_positions=known,
        )
        assert ctrl._ues_to_localize() == []
        estimates, errors, dist, t = ctrl._localization_flight()
        assert (estimates, errors, dist, t) == ({}, {}, 0.0, 0.0)

    def test_known_positions_enter_epoch_as_estimates(self):
        scenario = Scenario.create("campus", n_ues=4, cell_size=4.0, seed=5)
        known = {
            ue.ue_id: np.array([ue.position.x, ue.position.y, ue.position.z])
            for ue in scenario.ues
        }
        ctrl = SkyRANController(
            scenario.channel,
            scenario.enodeb,
            SkyRANConfig(rem_cell_size_m=8.0),
            seed=1,
            known_positions=known,
        )
        result = ctrl.run_epoch(budget_m=300.0)
        assert set(result.ue_estimates) == set(known)
        for ue_id, pos in known.items():
            assert np.array_equal(result.ue_estimates[ue_id], pos)
            # Ground truth in, so reported error is exactly zero.
            assert result.localization_errors_m[ue_id] == 0.0

    def test_partial_knowledge_localizes_the_rest(self):
        scenario = Scenario.create("campus", n_ues=4, cell_size=4.0, seed=5)
        first = scenario.ues[0]
        known = {
            first.ue_id: np.array(
                [first.position.x, first.position.y, first.position.z]
            )
        }
        ctrl = SkyRANController(
            scenario.channel,
            scenario.enodeb,
            SkyRANConfig(rem_cell_size_m=8.0),
            seed=1,
            known_positions=known,
        )
        assert {u.ue_id for u in ctrl._ues_to_localize()} == {
            u.ue_id for u in scenario.ues[1:]
        }
        result = ctrl.run_epoch(budget_m=300.0)
        assert set(result.ue_estimates) == {u.ue_id for u in scenario.ues}
        assert result.localization_errors_m[first.ue_id] == 0.0

    def test_none_is_inert(self):
        _, ctrl = _controller(known=None)
        assert len(ctrl._ues_to_localize()) == 4
        estimates, errors = {1: np.zeros(3)}, {1: 2.0}
        ctrl._merge_known_positions(estimates, errors)
        assert list(estimates) == [1] and np.array_equal(estimates[1], np.zeros(3))
        assert errors == {1: 2.0}


class TestAggregateThroughputVectorized:
    @pytest.mark.parametrize("shadowing", [0.0, 6.0])
    def test_matches_scalar_loop(self, shadowing):
        """snr_to_many keeps the KPI bit-identical to the per-UE loop."""
        scenario = Scenario.create(
            "campus",
            n_ues=4,
            cell_size=4.0,
            seed=5,
            channel_kwargs={"shadowing_sigma_db": shadowing, "common_sigma_db": 0.0},
        )
        cfg = SkyRANConfig(rem_cell_size_m=8.0)
        ctrl = SkyRANController(scenario.channel, scenario.enodeb, cfg, seed=1)
        ctrl.run_epoch(budget_m=300.0)
        got = ctrl.aggregate_throughput_mbps()
        rates = [
            float(
                throughput_mbps(
                    float(ctrl.channel.snr_db(ctrl.uav.position, ue.xyz))
                )
            )
            for ue in ctrl.enodeb.connected_ues()
        ]
        assert got == float(np.mean(rates))


class TestREMStoreBucketedLookup:
    """The bucket grid must reproduce the linear scan exactly."""

    @staticmethod
    def _linear_lookup(store: REMStore, p: np.ndarray):
        best, best_d = None, store.reuse_radius_m
        for rem in store._store.values():
            d = rem.distance_to_position(p)
            if d <= best_d:
                best, best_d = rem, d
        return best

    def _filled_store(self, n=60, seed=11, radius=10.0):
        grid = GridSpec.from_extent(100.0, 100.0, cell_size=4.0)
        store = REMStore(grid, reuse_radius_m=radius)
        rng = np.random.default_rng(seed)
        for _ in range(n):
            xyz = np.append(rng.uniform(0.0, 100.0, 2), 1.5)
            store.commit(REM(grid, xyz, 60.0))
        return store, rng

    def test_random_queries_match_linear_scan(self):
        store, rng = self._filled_store()
        for _ in range(200):
            q = np.append(rng.uniform(-10.0, 110.0, 2), 1.5)
            assert store.lookup(q) is self._linear_lookup(store, q)

    def test_equidistant_tie_goes_to_latest_inserted(self):
        grid = GridSpec.from_extent(100.0, 100.0, cell_size=4.0)
        store = REMStore(grid, reuse_radius_m=10.0)
        first = REM(grid, np.array([0.0, 0.0, 1.5]), 60.0)
        second = REM(grid, np.array([10.0, 0.0, 1.5]), 60.0)
        store.commit(first)
        store.commit(second)
        # Query equidistant (5 m) from both: the linear scan's
        # ``d <= best_d`` rule hands the tie to the later insertion.
        got = store.lookup(np.array([5.0, 0.0, 1.5]))
        assert got is second

    def test_recommit_keeps_scan_position(self):
        store, rng = self._filled_store(n=20, seed=3)
        rems = store.all_rems()
        # Re-commit an early REM; like dict reassignment, its scan
        # order must not move, so every query still matches the scan.
        store.commit(rems[2])
        for _ in range(50):
            q = np.append(rng.uniform(0.0, 100.0, 2), 1.5)
            assert store.lookup(q) is self._linear_lookup(store, q)

    def test_out_of_radius_returns_none(self):
        grid = GridSpec.from_extent(100.0, 100.0, cell_size=4.0)
        store = REMStore(grid, reuse_radius_m=5.0)
        store.commit(REM(grid, np.array([0.0, 0.0, 1.5]), 60.0))
        assert store.lookup(np.array([50.0, 50.0, 1.5])) is None

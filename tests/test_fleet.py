"""Fleet control plane: handover hysteresis, SINR tiles, invariances.

The fleet promises three things worth pinning down hard:

* the hysteresis knob prevents boundary UEs from ping-ponging between
  cells under SINR jitter smaller than the hysteresis margin;
* an SINR map (an SNR map minus the per-UE interference penalty) is
  exactly the SNR map without interferers and never above it with;
* nothing physical depends on the arbitrary order cells are listed in
  — permuting the fleet permutes the labels and changes no SINR.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.interference import interference_penalty_db, sinr_db_from_rx_stack
from repro.channel.linkbudget import LinkBudget
from repro.core.association import (
    UNATTACHED,
    available_associations,
    make_association,
)
from repro.core.config import SkyRANConfig
from repro.core.controller import SkyRANController
from repro.core.fleet import FleetController
from repro.sim.scenario import Scenario

pytestmark = pytest.mark.fleet


# -- handover hysteresis -------------------------------------------------------


class TestHandoverHysteresis:
    def _jittered_scores(self, n_epochs=20):
        """A boundary UE: cells 0/1 alternate being better by 1 dB."""
        scores = []
        for t in range(n_epochs):
            edge = 1.0 if t % 2 == 0 else -1.0
            scores.append(np.array([[10.0 + edge], [10.0 - edge]]))
        return scores

    def test_no_ping_pong_with_hysteresis(self):
        policy = make_association("best_sinr", hysteresis_db=3.0)
        serving = np.array([UNATTACHED])
        handovers = 0
        for candidate in self._jittered_scores():
            new = policy.associate(candidate, serving)
            handovers += int(serving[0] != UNATTACHED and new[0] != serving[0])
            serving = new
        # Attach once, then hold: 2 dB of jitter never clears 3 dB.
        assert handovers == 0
        assert serving[0] == 0  # the first epoch's best cell

    def test_zero_hysteresis_ping_pongs(self):
        policy = make_association("best_sinr", hysteresis_db=0.0)
        serving = np.array([UNATTACHED])
        handovers = 0
        for candidate in self._jittered_scores():
            new = policy.associate(candidate, serving)
            handovers += int(serving[0] != UNATTACHED and new[0] != serving[0])
            serving = new
        # Without the margin the same jitter flips the UE every epoch.
        assert handovers == 19

    def test_large_gain_still_hands_over(self):
        policy = make_association("best_sinr", hysteresis_db=3.0)
        serving = np.array([0])
        candidate = np.array([[5.0], [15.0]])  # 10 dB gain clears 3 dB
        assert policy.associate(candidate, serving)[0] == 1

    def test_sticky_never_hands_over(self):
        policy = make_association("sticky")
        serving = np.array([0])
        candidate = np.array([[5.0], [50.0]])
        assert policy.associate(candidate, serving)[0] == 0

    def test_registry_lists_policies(self):
        names = available_associations()
        assert {"best_sinr", "sticky", "load_aware"} <= set(names)


# -- SINR maps: SNR maps minus the interference penalty ------------------------


class TestSinrTiles:
    @pytest.fixture(scope="class")
    def world(self):
        scenario = Scenario.create("campus", n_ues=3, cell_size=4.0, seed=21)
        interferers = [
            np.array([60.0, 80.0, 60.0]),
            np.array([240.0, 220.0, 60.0]),
        ]
        return scenario, interferers

    @staticmethod
    def _sinr_maps(scenario, interferers):
        ues = scenario.ue_positions()
        snr = scenario.channel.snr_maps(ues, 60.0, scenario.eval_grid)
        penalty = interference_penalty_db(scenario.channel, ues, interferers)
        return snr - penalty[:, None, None], snr

    def test_no_interferers_is_exactly_snr(self, world):
        scenario, _ = world
        sinr, snr = self._sinr_maps(scenario, [])
        assert np.array_equal(sinr, snr)

    def test_interference_only_costs(self, world):
        scenario, interferers = world
        sinr, snr = self._sinr_maps(scenario, interferers)
        assert (sinr <= snr + 1e-12).all()
        assert (sinr < snr).any()


# -- cell-order invariance -----------------------------------------------------


@st.composite
def rx_stacks(draw):
    n_uav = draw(st.integers(min_value=2, max_value=4))
    n_ue = draw(st.integers(min_value=1, max_value=6))
    rx = draw(
        st.lists(
            st.floats(min_value=-120.0, max_value=-40.0),
            min_size=n_uav * n_ue,
            max_size=n_uav * n_ue,
        )
    )
    serving = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_uav - 1),
            min_size=n_ue,
            max_size=n_ue,
        )
    )
    perm = draw(st.permutations(range(n_uav)))
    return (
        np.array(rx).reshape(n_uav, n_ue),
        np.array(serving),
        np.array(perm),
    )


class TestCellOrderInvariance:
    @given(rx_stacks())
    @settings(max_examples=60, deadline=None)
    def test_sinr_invariant_under_cell_relabeling(self, case):
        rx, serving, perm = case
        link = LinkBudget()
        base = sinr_db_from_rx_stack(link, rx, serving)
        # Relabel cells by perm: row i of the permuted stack is old
        # cell perm[i], so old serving cell s becomes inverse[s].
        inverse = np.argsort(perm)
        permuted = sinr_db_from_rx_stack(link, rx[perm], inverse[serving])
        # Interference terms accumulate in a different order, so the
        # sums may differ in the last ulp — but nothing more.
        np.testing.assert_allclose(permuted, base, rtol=1e-12, atol=0.0)

    @given(rx_stacks())
    @settings(max_examples=60, deadline=None)
    def test_best_cell_choice_invariant(self, case):
        rx, _serving, perm = case
        cols = np.arange(rx.shape[1])
        best = np.argmax(rx, axis=0)
        best_permuted = np.argmax(rx[perm], axis=0)
        # The winning *link* is invariant under relabeling (ties may
        # resolve to a different but equally-good cell, so compare the
        # received power, not the label).
        assert np.array_equal(rx[perm[best_permuted], cols], rx[best, cols])


# -- city-scale fleet SINR via REM-key dedup -----------------------------------


class TestCityFleetSinr:
    def test_fine_key_pitch_matches_exact_tracing(self):
        from repro.channel.interference import (
            fleet_rx_power_dbm,
            sinr_db_from_rx_stack,
        )
        from repro.city import CityScenario

        # Key pitch == terrain cell: every UE is its own representative,
        # so the dedup path must be bit-identical to tracing all UEs.
        city = CityScenario.create(
            terrain_name="campus", cell_size_m=4.0, n_ues=30, seed=5,
            rem_cell_m=4.0,
        )
        uavs = [np.array([80.0, 80.0, 60.0]), np.array([220.0, 220.0, 60.0])]
        rng = np.random.default_rng(1)
        serving = rng.integers(0, 2, size=city.population.n_ues)
        dedup = city.fleet_sinr_db(uavs, serving)
        rx = fleet_rx_power_dbm(city.channel, uavs, [p for p in city.population.xyz])
        exact = sinr_db_from_rx_stack(city.channel.link, rx, serving)
        assert np.array_equal(dedup, exact)

    def test_interference_aware_place_costs_min_snr(self):
        from repro.city import CityScenario

        city = CityScenario.create(
            terrain_name="campus", cell_size_m=4.0, n_ues=30, seed=5
        )
        plain = city.place()
        jammed = city.place(
            interferer_positions=[np.array([150.0, 150.0, 60.0])]
        )
        # The penalized surface can only be lower, and no interferers
        # must take the exact SNR path.
        assert jammed.min_snr_db <= plain.min_snr_db + 1e-12
        assert city.place(interferer_positions=[]) == plain

    def test_serving_validation(self):
        from repro.city import CityScenario

        city = CityScenario.create(
            terrain_name="campus", cell_size_m=4.0, n_ues=10, seed=5
        )
        uavs = [np.array([80.0, 80.0, 60.0])]
        with pytest.raises(ValueError):
            city.fleet_sinr_db(uavs, np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            city.fleet_sinr_db(uavs, np.full(10, 2))


# -- the degenerate fleet ------------------------------------------------------


class TestDegenerateFleet:
    def test_single_uav_fleet_flies_like_skyran(self):
        cfg = SkyRANConfig(rem_cell_size_m=8.0)

        scenario = Scenario.create("campus", n_ues=4, cell_size=4.0, seed=9)
        solo = SkyRANController(scenario.channel, scenario.enodeb, cfg, seed=3)
        solo_results = [solo.run_epoch(budget_m=250.0) for _ in range(2)]

        scenario2 = Scenario.create("campus", n_ues=4, cell_size=4.0, seed=9)
        for ue in list(scenario2.enodeb.ues):
            scenario2.enodeb.deregister_ue(ue.ue_id)
        fleet = FleetController(
            channel=scenario2.channel,
            ues=list(scenario2.ues),
            n_uavs=1,
            config=cfg,
            seed=3,
        )
        fleet_results = [fleet.run_epoch(budget_per_uav_m=250.0) for _ in range(2)]

        # One cell, no co-channel neighbours: the refinement pass is a
        # no-op and the fleet's flight is exactly the standalone
        # controller's (same seed, same RNG draw schedule).
        for solo_res, fleet_res in zip(solo_results, fleet_results):
            cell = fleet_res.per_uav[0]
            assert cell.flight_distance_m == solo_res.flight_distance_m
            assert cell.flight_time_s == solo_res.flight_time_s
            assert cell.placement.position == solo_res.placement.position

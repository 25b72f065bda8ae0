"""Tile-streamed map oracle vs the materialized path: exact equivalence.

The streaming contract is *bit*-identity, not closeness: each streamed
tile must carry exactly the values of the corresponding slab of the
materialized ``(n_ue, ny, nx)`` stack, for every tiling — including
row counts that do not divide the grid height and UE chunks that do
not divide the population.  The folds (min, placement) must
then commute with the tiling, and the REM-by-REM discounted placement
fold must equal discounting and reducing the materialized stack.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import max_min_placement, uncertainty_penalty_db
from repro.geo.grid import GridSpec
from repro.rem.aggregate import min_snr_map
from repro.rem.interpolate import (
    IDWInterpolator,
    available_interpolators,
    make_interpolator,
)
from repro.rem.map import REM
from repro.rem.streaming import (
    streamed_discounted_max_min_placement,
    streamed_discounted_min_map,
    streamed_max_min_placement,
    streamed_min_snr_map,
)

ALTITUDE = 60.0


@pytest.fixture()
def ues(box_terrain):
    """Five UEs scattered over the one-building world."""
    rng = np.random.default_rng(7)
    g = box_terrain.grid
    xy = rng.uniform(5.0, 95.0, size=(5, 2))
    z = box_terrain.heights_at_xy(xy[:, 0], xy[:, 1]) + 1.5
    return np.column_stack([xy, z])


def _reassemble(tiles, n_ue, shape):
    out = np.full((n_ue,) + shape, np.nan)
    for ue_sl, row_sl, block in tiles:
        assert np.all(np.isnan(out[ue_sl, row_sl])), "tiles overlap"
        out[ue_sl, row_sl] = block
    return out


# -- tile generator vs materialized stack ---------------------------------------


@pytest.mark.parametrize("tile_rows", [7, 13, 50])
@pytest.mark.parametrize("ue_chunk", [None, 1, 2])
def test_snr_tiles_bit_identical_to_snr_maps(box_channel, ues, tile_rows, ue_chunk):
    """Every tiling reassembles to exactly the materialized stack.

    50 rows is the full grid height of the 100 m / 2 m world; 7 and 13
    do not divide it, exercising the ragged last band.
    """
    grid = box_channel.terrain.grid
    stack = box_channel.snr_maps(ues, ALTITUDE, use_cache=False)
    tiles = box_channel.iter_snr_map_tiles(
        ues, ALTITUDE, tile_rows=tile_rows, ue_chunk=ue_chunk
    )
    rebuilt = _reassemble(tiles, len(ues), grid.shape)
    assert np.array_equal(rebuilt, stack)


def test_tiles_on_coarse_grid(box_channel, ues):
    grid = box_channel.terrain.grid.coarsen(4)
    stack = box_channel.snr_maps(ues, ALTITUDE, grid, use_cache=False)
    tiles = box_channel.iter_snr_map_tiles(ues, ALTITUDE, grid, tile_rows=5)
    rebuilt = _reassemble(tiles, len(ues), grid.shape)
    assert np.array_equal(rebuilt, stack)


def test_empty_population_yields_no_tiles(box_channel):
    assert list(box_channel.iter_snr_map_tiles([], ALTITUDE)) == []


def test_tile_rows_validation(box_channel, ues):
    with pytest.raises(ValueError, match="tile_rows"):
        list(box_channel.iter_snr_map_tiles(ues, ALTITUDE, tile_rows=0))
    with pytest.raises(ValueError, match="ue_chunk"):
        list(box_channel.iter_snr_map_tiles(ues, ALTITUDE, ue_chunk=0))


# -- streamed folds vs materialized aggregations --------------------------------


@pytest.mark.parametrize("tile_rows,ue_chunk", [(7, None), (13, 1), (50, 2)])
def test_streamed_min_map_and_placement(box_channel, ues, tile_rows, ue_chunk):
    grid = box_channel.terrain.grid
    stack = box_channel.snr_maps(ues, ALTITUDE, use_cache=False)

    def tiles():
        return box_channel.iter_snr_map_tiles(
            ues, ALTITUDE, tile_rows=tile_rows, ue_chunk=ue_chunk
        )

    mm = streamed_min_snr_map(tiles(), grid.shape)
    assert np.array_equal(mm, min_snr_map(stack))

    placed = streamed_max_min_placement(grid, tiles(), ALTITUDE)
    reference = max_min_placement(grid, list(stack), ALTITUDE)
    assert placed.cell == reference.cell
    assert placed.min_snr_db == reference.min_snr_db
    assert np.array_equal(
        placed.position.as_array(), reference.position.as_array()
    )


def test_streamed_folds_reject_empty():
    with pytest.raises(ValueError, match="at least one tile"):
        streamed_min_snr_map(iter([]), (4, 4))


def test_streamed_min_map_nan_poisons_cell():
    block = np.ones((2, 2, 3))
    block[1, 0, 1] = np.nan
    out = streamed_min_snr_map([(slice(0, 2), slice(0, 2), block)], (2, 3))
    assert np.isnan(out[0, 1])
    assert out[1, 2] == 1.0


# -- streamed uncertainty-discounted fold vs the materialized path --------------

#: A 10x10 grid keeps every registry interpolator (kriging included)
#: fast enough for the property sweep.
_FOLD_GRID = GridSpec.from_extent(40.0, 40.0, cell_size=4.0)
_FOLD_ALT = 60.0


@st.composite
def _rem_sets(draw):
    """1-3 REMs: sparse measurement sets (possibly empty) over priors."""
    n_rems = draw(st.integers(min_value=1, max_value=3))
    rems = []
    for i in range(n_rems):
        prior = np.full(_FOLD_GRID.shape, -5.0 + 2.0 * i)
        rem = REM(_FOLD_GRID, np.array([5.0 + 10.0 * i, 12.0, 1.5]), _FOLD_ALT, prior=prior)
        n_meas = draw(st.integers(min_value=0, max_value=12))
        if n_meas:
            rng = np.random.default_rng(draw(st.integers(0, 2**16)))
            xy = rng.uniform(0.5, 39.5, size=(n_meas, 2))
            rem.add_measurements(xy, rng.normal(5.0, 6.0, n_meas))
        rems.append(rem)
    return rems


def _materialized_discounted(rems, interp, rate, cap):
    """Reference Step 8: interpolate each REM, discount, min over the stack."""
    maps, discounted = [], []
    for rem in rems:
        full = interp.interpolate(
            _FOLD_GRID, rem.measured_values(), fallback=rem.prior
        )
        maps.append(full)
        penalty = uncertainty_penalty_db(_FOLD_GRID, rem.measured_mask, rate, cap)
        discounted.append(full if penalty is None else full - penalty)
    return np.min(np.stack(discounted), axis=0), maps, discounted


class TestStreamedDiscountedFold:
    @given(
        _rem_sets(),
        st.sampled_from(available_interpolators()),
        st.sampled_from([0.0, 0.4]),
        st.sampled_from([float("inf"), 3.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_min_map_matches_materialized_bitwise(self, rems, name, rate, cap):
        interp = make_interpolator(name)
        mm, maps = streamed_discounted_min_map(
            _FOLD_GRID,
            rems,
            interp,
            penalty_rate_db_per_m=rate,
            penalty_cap_db=cap,
        )
        ref_mm, ref_maps, _ = _materialized_discounted(rems, interp, rate, cap)
        assert np.array_equal(mm, ref_mm, equal_nan=True)
        assert len(maps) == len(ref_maps)
        for got, want in zip(maps, ref_maps):
            assert np.array_equal(got, want, equal_nan=True)

    @given(
        _rem_sets(),
        st.sampled_from(available_interpolators()),
    )
    @settings(max_examples=15, deadline=None)
    def test_placement_matches_materialized(self, rems, name):
        interp = make_interpolator(name)
        placed, _ = streamed_discounted_max_min_placement(
            _FOLD_GRID,
            rems,
            interp,
            _FOLD_ALT,
            penalty_rate_db_per_m=0.4,
            penalty_cap_db=3.0,
        )
        _, _, discounted = _materialized_discounted(rems, interp, 0.4, 3.0)
        reference = max_min_placement(_FOLD_GRID, discounted, _FOLD_ALT)
        assert placed.cell == reference.cell
        assert placed.min_snr_db == reference.min_snr_db
        assert np.array_equal(
            placed.position.as_array(), reference.position.as_array()
        )

    def test_empty_measurement_rem_uses_prior(self):
        prior = np.full(_FOLD_GRID.shape, -7.5)
        rem = REM(_FOLD_GRID, np.array([10.0, 10.0, 1.5]), _FOLD_ALT, prior=prior)
        mm, maps = streamed_discounted_min_map(
            _FOLD_GRID,
            [rem],
            IDWInterpolator(),
            penalty_rate_db_per_m=0.5,
        )
        # Nothing measured: no discount, map is exactly the prior.
        assert np.array_equal(mm, prior)
        assert np.array_equal(maps[0], prior)

    def test_rejects_empty_rem_sequence(self):
        with pytest.raises(ValueError, match="at least one REM"):
            streamed_discounted_min_map(_FOLD_GRID, [], IDWInterpolator())

"""Streaming folds over map tiles and REMs.

City-scale populations make the ``(n_ue, ny, nx)`` stack the memory
bottleneck of every map consumer, but the aggregation max–min placement
needs — the cell-wise minimum SNR surface — is a fold: it can consume
the tiles of :meth:`~repro.channel.model.ChannelModel.iter_snr_map_tiles`
(or one REM's interpolated map at a time) as they arrive and keep only
O(grid) state.

Exactness
---------

Tiles carry a ``(ue_slice, row_slice, block)`` triple and each cell
value is bit-identical to the materialized stack (the tile generator's
contract), so the only question is whether the *fold* commutes with
chunking.  ``min`` is exact under any chunking: the minimum of minima
is the minimum, and both numpy's axis-0 reduce and the chunked fold
visit UEs in ascending index order.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.placement import PlacementResult, _place_at_argmax, uncertainty_penalty_db
from repro.geo.grid import GridSpec

#: A streamed map tile: which UEs, which grid rows, and the
#: ``(n_ue_chunk, n_rows, nx)`` block of values.
Tile = Tuple[slice, slice, np.ndarray]


def streamed_min_snr_map(tiles: Iterable[Tile], shape: Tuple[int, int]) -> np.ndarray:
    """Cell-wise minimum over streamed per-UE map tiles.

    Bit-identical to ``np.min(stack, axis=0)`` over the materialized
    stack: min folds exactly under chunking, NaN poisons a cell in both
    paths, and rows no tile covers stay ``+inf`` (a coverage bug the
    caller's tile source should make impossible).
    """
    out = np.full(shape, np.inf)
    seen = False
    for _ue_sl, row_sl, block in tiles:
        seen = True
        np.minimum(out[row_sl], block.min(axis=0), out=out[row_sl])
    if not seen:
        raise ValueError("need at least one tile (empty UE population?)")
    return out


def streamed_max_min_placement(
    grid: GridSpec,
    tiles: Iterable[Tile],
    altitude: float,
) -> PlacementResult:
    """Max–min placement folded from streamed tiles (Section 3.4).

    The streamed counterpart of
    :func:`repro.core.placement.max_min_placement`: the min-SNR surface
    is folded tile-by-tile (O(grid) peak memory, never O(n_ue * grid))
    and its argmax — same first-max row-major tie-break — is the
    chosen cell.
    """
    return _place_at_argmax(grid, streamed_min_snr_map(tiles, grid.shape), altitude)


def streamed_interference_max_min_placement(
    grid: GridSpec,
    tiles: Iterable[Tile],
    altitude: float,
    penalty_db: np.ndarray,
) -> PlacementResult:
    """Interference-aware max–min placement folded from SNR tiles.

    Joint fleet placement re-scores a cell's candidate SNR map by each
    UE's rise-over-thermal from the *other* cells of the fleet
    (:func:`repro.channel.interference.interference_penalty_db`):
    ``SINR ≈ SNR - penalty``, a per-UE constant over the candidate
    axis.  Because the penalty is constant per UE, subtracting it
    inside the fold commutes with any tiling — the result is
    bit-identical to materializing ``stack - penalty[:, None, None]``
    and reducing, so the PR 6 tile machinery (O(grid) peak memory) is
    reused unchanged.  ``penalty_db`` must align with the tile
    source's UE axis; all-zero penalties recover
    :func:`streamed_max_min_placement` exactly.
    """
    penalty_db = np.asarray(penalty_db, dtype=float)

    def penalized() -> Iterable[Tile]:
        for ue_sl, row_sl, block in tiles:
            yield ue_sl, row_sl, block - penalty_db[ue_sl, None, None]

    return _place_at_argmax(grid, streamed_min_snr_map(penalized(), grid.shape), altitude)


def streamed_discounted_min_map(
    grid: GridSpec,
    rems: Sequence,
    interpolator,
    *,
    penalty_rate_db_per_m: float = 0.0,
    penalty_cap_db: float = float("inf"),
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Uncertainty-discounted min-SNR surface folded REM-by-REM.

    The heart of the controller's Step 8: each REM's interpolated map
    (:meth:`repro.rem.map.REM.interpolated`) is discounted by its
    distance-to-nearest-measurement penalty
    (:func:`repro.core.placement.uncertainty_penalty_db`) and folded
    into the running cell-wise minimum, so the discounted map *stack*
    is never built.  Bit-identical to ``np.min`` over the stack of
    discounted maps (a min-fold is exact, and NaN poisons a cell in
    both).  A non-positive penalty rate or a measurement-free REM
    skips the discount.

    ``rems`` are :class:`repro.rem.map.REM` objects.  Returns
    ``(min_map, maps)``: ``maps`` holds each REM's *undiscounted*
    interpolated map, in order.
    """
    out = np.full(grid.shape, np.inf)
    maps: List[np.ndarray] = []
    for rem in rems:
        full = rem.interpolated(method=interpolator)
        maps.append(full)
        penalty = uncertainty_penalty_db(
            grid, rem.measured_mask, penalty_rate_db_per_m, penalty_cap_db
        )
        np.minimum(out, full if penalty is None else full - penalty, out=out)
    if not maps:
        raise ValueError("need at least one REM")
    return out, maps


def streamed_discounted_max_min_placement(
    grid: GridSpec,
    rems: Sequence,
    interpolator,
    altitude: float,
    *,
    penalty_rate_db_per_m: float = 0.0,
    penalty_cap_db: float = float("inf"),
) -> Tuple[PlacementResult, List[np.ndarray]]:
    """Max–min placement over uncertainty-discounted REMs.

    Folds :func:`streamed_discounted_min_map` and takes its argmax —
    the same first-max row-major tie-break as
    :func:`repro.core.placement.max_min_placement` over the discounted
    maps.  Returns ``(placement, maps)`` with each REM's undiscounted
    interpolated map.
    """
    mm, maps = streamed_discounted_min_map(
        grid,
        rems,
        interpolator,
        penalty_rate_db_per_m=penalty_rate_db_per_m,
        penalty_cap_db=penalty_cap_db,
    )
    return _place_at_argmax(grid, mm, altitude), maps

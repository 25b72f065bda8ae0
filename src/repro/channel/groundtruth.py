"""Ground-truth REM construction.

The paper scores every scheme against an oracle REM obtained from an
exhaustive measurement flight (testbed, Fig. 15) or full ray tracing
(scale-up study).  Here the oracle is the channel model's mean SNR on
every grid cell — no fading, no measurement noise — which is what an
infinitely long averaging flight would converge to.

The stack builder rides the batched map oracle
(:meth:`~repro.channel.model.ChannelModel.snr_maps`): all UEs are
traced in chunked vectorized batches, per-UE maps are memoized across
calls, and ``workers``/``REPRO_NUM_WORKERS`` can fan the work out over
a process pool — the serial, batched and parallel paths all produce
identical stacks.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.channel.model import ChannelModel
from repro.geo.grid import GridSpec
from repro.perf import perf


def ground_truth_rem(
    model: ChannelModel,
    ue_xyz: np.ndarray,
    altitude: float,
    grid: Optional[GridSpec] = None,
) -> np.ndarray:
    """Oracle SNR map for one UE at the given operating altitude.

    Returns a ``(ny, nx)`` array of mean SNR in dB.
    """
    return model.snr_map(ue_xyz, altitude, grid)


def ground_truth_stack(
    model: ChannelModel,
    ue_positions: Sequence,
    altitude: float,
    grid: Optional[GridSpec] = None,
    *,
    workers: Optional[int] = None,
    use_cache: bool = True,
) -> np.ndarray:
    """Oracle SNR maps for all UEs, stacked ``(n_ue, ny, nx)``."""
    if len(ue_positions) == 0:
        g = grid or model.terrain.grid
        # Pin the dtype: an empty np.empty would default to float64 by
        # accident, not by contract with snr_maps' output.
        return np.empty((0,) + g.shape, dtype=float)
    with perf.span("groundtruth.stack"):
        return model.snr_maps(
            ue_positions, altitude, grid, workers=workers, use_cache=use_cache
        )

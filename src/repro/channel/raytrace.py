"""Vectorized ray/terrain intersection.

For each direct ray from a transmitter to a receiver we sample points
along the ray and compare the ray height against the terrain surface.
The total length of the obstructed portion drives the excess (beyond
free-space) attenuation, mirroring the paper's LiDAR-driven model:
"We use the LiDAR data to determine the portion of each ray that is
obstructed by terrain features, and the portion that experiences only
free space attenuation" (Section 5.1).

The kernel is the single hottest code path of the reproduction (every
ground-truth map, every measurement sample and every placement
evaluation funnels through it), so it is written batch-first with two
structural optimizations that keep results independent of how rays are
batched together:

* **per-ray sampling density** — each ray is sampled at ``step``
  meters of its *own* arc length (bucketed to a few canonical sample
  counts so the work stays vectorized), instead of oversampling every
  short ray at the density the longest ray in the batch needs;
* **ceiling pruning** — sample columns whose ray height is everywhere
  above the terrain's global maximum height cannot be obstructed and
  are skipped before any surface lookup.  For a UAV well above the
  clutter this drops the majority of samples, and it is exact: a
  skipped sample can never satisfy ``z < surface``.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from repro.perf import perf
from repro.terrain.heightmap import Terrain

def _count_below(zs: np.ndarray, surface: np.ndarray) -> np.ndarray:
    """Per-row int64 count of ray samples strictly below the surface."""
    return np.count_nonzero(zs < surface, axis=1)


#: Default arc-length between ray samples, in meters.  Half the 1 m
#: grid pitch comfortably catches single-cell obstacles.
DEFAULT_STEP_M = 1.0

#: Endpoints are excluded from the obstruction test by this margin so a
#: ray never counts the terrain cell the UE itself stands on.
_ENDPOINT_MARGIN = 0.02

#: Peak sample-point budget per vectorized chunk.  Small enough that
#: the working set (ray coords, surface gather, comparison masks) stays
#: cache-resident — empirically ~2x faster than multi-megabyte chunks —
#: while large enough to amortize the Python-level loop.
_CHUNK_SAMPLES = 262_144

#: Sample counts are rounded up to a multiple of this (above 32) so
#: rays group into a handful of equal-width batches.
_BUCKET_QUANTUM = 32


class LinkState(NamedTuple):
    """Per-ray link state from a single trace.

    Attributes
    ----------
    obstructed_m:
        Horizontally-projected meters of each ray below the surface.
    los:
        Boolean line-of-sight flag per ray (``obstructed_m <= 0``).
    """

    obstructed_m: np.ndarray
    los: np.ndarray


def _bucket_steps(n_steps: np.ndarray) -> np.ndarray:
    """Round per-ray sample counts up to a canonical bucket size.

    Small counts go to the next power of two, larger ones to the next
    multiple of :data:`_BUCKET_QUANTUM`.  The bucket of a ray depends
    only on that ray's own length, so results never depend on which
    other rays happen to share the batch.
    """
    n = np.maximum(np.asarray(n_steps, dtype=np.int64), 2)
    small = n <= _BUCKET_QUANTUM
    out = np.empty_like(n)
    out[small] = 2 ** np.ceil(np.log2(n[small])).astype(np.int64)
    big = ~small
    q = _BUCKET_QUANTUM
    out[big] = ((n[big] + q - 1) // q) * q
    return out


def _as_ray_batch(tx_xyz: np.ndarray, rx_xyz: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Validate/broadcast endpoints into matching ``(n, 3)`` arrays."""
    tx = np.atleast_2d(np.asarray(tx_xyz, dtype=float))
    rx = np.atleast_2d(np.asarray(rx_xyz, dtype=float))
    if tx.shape[0] == 1 and rx.shape[0] > 1:
        tx = np.broadcast_to(tx, rx.shape)
    if rx.shape[0] == 1 and tx.shape[0] > 1:
        rx = np.broadcast_to(rx, tx.shape)
    if tx.shape != rx.shape:
        raise ValueError(f"tx shape {tx.shape} incompatible with rx shape {rx.shape}")
    return tx, rx


def obstructed_lengths(
    terrain: Terrain,
    tx_xyz: np.ndarray,
    rx_xyz: np.ndarray,
    step: float = DEFAULT_STEP_M,
) -> np.ndarray:
    """Obstructed path length for each Tx->Rx ray, in meters.

    The returned length is the *horizontally projected* run of the ray
    below the terrain surface.  This captures the elevation-angle
    dependence every air-to-ground measurement campaign reports
    (Al-Hourani et al.): a steep ray from a UAV overhead clips only
    the crowns/eaves around the UE and suffers little excess loss,
    while a grazing ray ploughs through long stretches of clutter.
    Using the 3D obstructed length instead would charge a vertical ray
    through a tree canopy the full canopy height — making a UE under a
    tree unservable even from straight above, which contradicts both
    the physics and the paper's testbed (its forest UE was served).

    Parameters
    ----------
    terrain:
        The surface to test against.
    tx_xyz:
        ``(n, 3)`` array (or a single ``(3,)`` point broadcast to n) of
        transmitter positions - typically candidate UAV cells.
    rx_xyz:
        ``(n, 3)`` array or single ``(3,)`` receiver position(s) -
        typically the UE.
    step:
        Sampling interval along the ray.

    Returns
    -------
    ``(n,)`` array: horizontally-projected meters of each ray that
    pass below the terrain surface.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    tx, rx = _as_ray_batch(tx_xyz, rx_xyz)

    n = tx.shape[0]
    dist = np.linalg.norm(rx - tx, axis=1)
    horiz = np.linalg.norm((rx - tx)[:, :2], axis=1)
    if n == 0 or float(dist.max()) == 0.0:
        return np.zeros(n)

    perf.count("raytrace.calls")
    perf.count("raytrace.rays", n)
    with perf.span("raytrace"):
        frac = _blocked_fractions(terrain, tx, rx, dist, step)
    # Near-vertical rays keep a floor of 15% of the slant length so a
    # blocked overhead ray (directly through a crown or roof) still
    # pays a realistic one-obstacle penetration loss instead of zero.
    effective = np.maximum(horiz, 0.15 * dist)
    return frac * effective * (1.0 - 2 * _ENDPOINT_MARGIN)


def _blocked_fractions(
    terrain: Terrain,
    tx: np.ndarray,
    rx: np.ndarray,
    dist: np.ndarray,
    step: float,
) -> np.ndarray:
    """Fraction of each ray's samples that fall below the surface.

    Rays are grouped into equal-sample-count buckets (per-ray density,
    see :func:`_bucket_steps`) and each bucket is processed in
    memory-bounded chunks with one ``heights_at_xy`` gather per chunk.
    """
    n = tx.shape[0]
    hmax = terrain.max_height
    buckets = _bucket_steps(np.ceil(dist / step))
    out = np.zeros(n, dtype=float)
    for b in np.unique(buckets):
        idx = np.flatnonzero(buckets == b)
        n_steps = int(b)
        t = np.linspace(_ENDPOINT_MARGIN, 1.0 - _ENDPOINT_MARGIN, n_steps)
        chunk = max(1, _CHUNK_SAMPLES // n_steps)
        for lo in range(0, len(idx), chunk):
            sel = idx[lo : lo + chunk]
            txc, rxc = tx[sel], rx[sel]
            zs = txc[:, None, 2] + t[None, :] * (rxc[:, 2] - txc[:, 2])[:, None]
            # Ceiling pruning: a sample above the terrain's global max
            # height can never be below the surface.
            cols = np.flatnonzero((zs < hmax).any(axis=0))
            perf.count("raytrace.samples", len(sel) * n_steps)
            if cols.size == 0:
                continue
            tc = t[cols]
            xs = txc[:, None, 0] + tc[None, :] * (rxc[:, 0] - txc[:, 0])[:, None]
            ys = txc[:, None, 1] + tc[None, :] * (rxc[:, 1] - txc[:, 1])[:, None]
            surface = terrain.heights_at_xy(xs, ys)
            zsel = zs[:, cols]
            perf.count("raytrace.samples_traced", zsel.size)
            out[sel] = _count_below(zsel, surface) / n_steps
    return out


def ray_profile_batch(
    terrain: Terrain,
    tx_xyz: np.ndarray,
    rx_xyz: np.ndarray,
    step: float = DEFAULT_STEP_M,
) -> LinkState:
    """Obstructed length *and* LOS state for each ray in one pass.

    This is the API the channel model's measurement path uses: SNR
    sampling needs both the mean path loss (driven by the obstructed
    length) and the LOS state (selecting the fading distribution), and
    both come from the same trace — tracing twice, as separate
    ``path_loss`` / ``is_los`` calls would, doubles the cost of the
    hottest loop in the system for no information.
    """
    obstructed = obstructed_lengths(terrain, tx_xyz, rx_xyz, step)
    return LinkState(obstructed_m=obstructed, los=obstructed <= 0.0)


def link_state(
    terrain: Terrain,
    tx_xyz: np.ndarray,
    rx_xyz: np.ndarray,
    step: float = DEFAULT_STEP_M,
) -> LinkState:
    """Alias of :func:`ray_profile_batch` (single-pass length + LOS)."""
    return ray_profile_batch(terrain, tx_xyz, rx_xyz, step)


def trace_profile(
    terrain: Terrain,
    tx_xyz: np.ndarray,
    rx_xyz: np.ndarray,
    step: float = DEFAULT_STEP_M,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled ray profile for a single Tx->Rx pair (debug/plot helper).

    Returns
    -------
    (arc, ray_z, surface_z):
        ``arc`` - distance along the ray at each sample (m);
        ``ray_z`` - ray height at each sample;
        ``surface_z`` - terrain surface height under each sample.
    """
    tx = np.asarray(tx_xyz, dtype=float).reshape(3)
    rx = np.asarray(rx_xyz, dtype=float).reshape(3)
    dist = float(np.linalg.norm(rx - tx))
    n_steps = max(2, int(np.ceil(dist / step)))
    t = np.linspace(0.0, 1.0, n_steps)
    xs = tx[0] + t * (rx[0] - tx[0])
    ys = tx[1] + t * (rx[1] - tx[1])
    zs = tx[2] + t * (rx[2] - tx[2])
    surface = terrain.heights_at_xy(xs, ys)
    return t * dist, zs, surface


def is_los(
    terrain: Terrain,
    tx_xyz: np.ndarray,
    rx_xyz: np.ndarray,
    step: float = DEFAULT_STEP_M,
) -> np.ndarray:
    """Boolean line-of-sight test for each Tx->Rx ray."""
    return obstructed_lengths(terrain, tx_xyz, rx_xyz, step) <= 0.0

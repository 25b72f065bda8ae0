"""Inverse Distance Weighting interpolation.

The paper picks IDW over Gaussian-process regression / Kriging because
it is lightweight and the accuracy difference on radio maps is marginal
(footnote 3, citing Molinari et al.).  Weights are the *square* of the
inverse distance between cell centers, per Section 3.3.3.

Implementation: a KD-tree query for the ``k`` nearest measured cells of
every unmeasured cell, then the weighted mean.  Exact-hit cells keep
their measured value.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from repro.geo.grid import GridSpec


def idw_interpolate(
    grid: GridSpec,
    values: np.ndarray,
    power: float = 2.0,
    k_neighbors: int = 12,
    max_distance_m: Optional[float] = None,
    fallback: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fill the NaN cells of a map by IDW from its measured cells.

    Parameters
    ----------
    grid:
        Grid the map lies over.
    values:
        ``(ny, nx)`` array; NaN marks unmeasured cells.
    power:
        Distance exponent (2 = paper's inverse-square weights).
    k_neighbors:
        Number of nearest measured cells contributing to each estimate.
    max_distance_m:
        If set, cells farther than this from every measurement are not
        extrapolated; they take ``fallback`` (or stay NaN).
    fallback:
        Optional full map of prior values (e.g. an FSPL seed) used
        where IDW declines to extrapolate or no measurements exist.

    Returns
    -------
    ``(ny, nx)`` interpolated map.
    """
    if power <= 0:
        raise ValueError(f"power must be positive, got {power}")
    if k_neighbors < 1:
        raise ValueError(f"k_neighbors must be >= 1, got {k_neighbors}")
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")

    out = values.copy()
    measured = ~np.isnan(values)
    missing = ~measured
    if not missing.any():
        return out
    if not measured.any():
        if fallback is not None:
            return np.asarray(fallback, dtype=float).copy()
        return out

    centers = grid.centers_flat()  # row-major (iy, ix) order
    measured_flat = measured.ravel()
    tree = cKDTree(centers[measured_flat])
    measured_vals = values.ravel()[measured_flat]

    query_pts = centers[missing.ravel()]
    k = min(k_neighbors, int(measured_flat.sum()))
    dist, idx = tree.query(query_pts, k=k)
    dist = np.atleast_2d(dist.T).T if dist.ndim == 1 else dist
    idx = np.atleast_2d(idx.T).T if idx.ndim == 1 else idx

    # Guard exact hits (shouldn't happen for NaN cells, but cheap).
    dist = np.maximum(dist, 1e-9)
    weights = 1.0 / dist**power
    est = np.sum(weights * measured_vals[idx], axis=1) / np.sum(weights, axis=1)

    if max_distance_m is not None:
        too_far = dist[:, 0] > max_distance_m
        if fallback is not None:
            fb = np.asarray(fallback, dtype=float).ravel()[missing.ravel()]
            est[too_far] = fb[too_far]
        else:
            est[too_far] = np.nan

    out[missing] = est
    return out

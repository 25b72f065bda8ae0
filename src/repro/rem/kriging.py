"""Ordinary kriging interpolation.

The paper's footnote 3 notes that "sophisticated and more
computationally intensive interpolation techniques like Gaussian
Process Regression or Ordinary Kriging have been used to interpolate
radio maps but it has been shown to offer marginal improvement over
IDW".  This module implements ordinary kriging with an exponential
variogram so the reproduction can *test* that claim (see the
interpolation ablation) instead of taking it on faith.

The implementation solves the standard OK system

    | G  1 | | w |   | g |
    | 1' 0 | | m | = | 1 |

per target cell, with ``G`` the semivariogram between measured points
and ``g`` between the target and the measured points.  To keep the
cost practical on map-sized problems, each cell is interpolated from
its ``k`` nearest measured neighbours (local kriging), the same
neighbourhood structure the IDW path uses.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from repro.geo.grid import GridSpec


def exponential_variogram(h: np.ndarray, sill: float, range_m: float, nugget: float) -> np.ndarray:
    """Exponential semivariogram ``nugget + sill (1 - exp(-3h/range))``."""
    return nugget + sill * (1.0 - np.exp(-3.0 * np.asarray(h, dtype=float) / range_m))


def fit_variogram(
    points: np.ndarray, values: np.ndarray, n_bins: int = 12
) -> tuple:
    """Crude empirical variogram fit: returns ``(sill, range_m, nugget)``.

    Bins squared half-differences by pair distance and reads the sill
    as the high-distance plateau, the range as where the curve reaches
    ~95% of it.  Robust enough for radio maps; not a geostatistics
    package.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(points)
    if n < 4:
        return (max(float(np.var(values)), 1e-6), 30.0, 1e-3)
    # Subsample pairs for large inputs.
    rng = np.random.default_rng(0)
    max_pairs = 4000
    idx_a = rng.integers(0, n, max_pairs)
    idx_b = rng.integers(0, n, max_pairs)
    keep = idx_a != idx_b
    idx_a, idx_b = idx_a[keep], idx_b[keep]
    d = np.hypot(*(points[idx_a] - points[idx_b]).T)
    gamma = 0.5 * (values[idx_a] - values[idx_b]) ** 2
    if d.max() <= 0:
        return (max(float(np.var(values)), 1e-6), 30.0, 1e-3)
    bins = np.linspace(0.0, float(d.max()), n_bins + 1)
    centers, means = [], []
    for lo, hi in zip(bins[:-1], bins[1:]):
        mask = (d >= lo) & (d < hi)
        if mask.sum() >= 5:
            centers.append(0.5 * (lo + hi))
            means.append(float(gamma[mask].mean()))
    if len(means) < 3:
        return (max(float(np.var(values)), 1e-6), 30.0, 1e-3)
    means_arr = np.array(means)
    sill = float(np.median(means_arr[len(means_arr) // 2 :]))
    sill = max(sill, 1e-6)
    reach = next(
        (c for c, m in zip(centers, means) if m >= 0.95 * sill), centers[-1]
    )
    nugget = max(min(means[0], 0.5 * sill), 0.0)
    return (sill, max(float(reach), 1.0), nugget)


def _krige_points(
    q_pts: np.ndarray,
    m_pts: np.ndarray,
    m_vals: np.ndarray,
    tree: cKDTree,
    k_neighbors: int,
    variogram: tuple,
) -> np.ndarray:
    """Local-OK estimates at ``q_pts`` from the global measured set.

    Each target point is solved independently from its ``k`` nearest
    measured neighbours.
    """
    sill, range_m, nugget = variogram
    k = min(k_neighbors, len(m_pts))
    dist, idx = tree.query(q_pts, k=k)
    dist = np.atleast_2d(dist.T).T if dist.ndim == 1 else dist
    idx = np.atleast_2d(idx.T).T if idx.ndim == 1 else idx

    est = np.empty(len(q_pts))
    ones = np.ones(k)
    for i in range(len(q_pts)):
        nb = m_pts[idx[i]]
        # Semivariogram matrix among neighbours (+ Lagrange row/col).
        dd = np.hypot(
            nb[:, 0][:, None] - nb[:, 0][None, :],
            nb[:, 1][:, None] - nb[:, 1][None, :],
        )
        G = exponential_variogram(dd, sill, range_m, nugget)
        np.fill_diagonal(G, 0.0)
        A = np.empty((k + 1, k + 1))
        A[:k, :k] = G
        A[k, :k] = 1.0
        A[:k, k] = 1.0
        A[k, k] = 0.0
        b = np.empty(k + 1)
        b[:k] = exponential_variogram(dist[i], sill, range_m, nugget)
        b[k] = 1.0
        try:
            w = np.linalg.solve(A, b)[:k]
        except np.linalg.LinAlgError:
            w = ones / k
        est[i] = float(w @ m_vals[idx[i]])
    return est


def kriging_interpolate(
    grid: GridSpec,
    values: np.ndarray,
    k_neighbors: int = 12,
    variogram: Optional[tuple] = None,
    fallback: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fill the NaN cells of a map by local ordinary kriging.

    Parameters
    ----------
    grid:
        Grid the map lies over.
    values:
        ``(ny, nx)`` array; NaN marks unmeasured cells.
    k_neighbors:
        Measured neighbours per target cell.
    variogram:
        Optional ``(sill, range_m, nugget)``; fitted from the data
        when omitted.
    fallback:
        Full prior map used when there are no measurements at all.

    Returns
    -------
    ``(ny, nx)`` interpolated map.
    """
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

    centers = grid.centers_flat()
    m_flat = measured.ravel()
    m_pts = centers[m_flat]
    m_vals = values.ravel()[m_flat]
    if variogram is None:
        variogram = fit_variogram(m_pts, m_vals)

    tree = cKDTree(m_pts)
    q_pts = centers[missing.ravel()]
    out[missing] = _krige_points(q_pts, m_pts, m_vals, tree, k_neighbors, variogram)
    return out

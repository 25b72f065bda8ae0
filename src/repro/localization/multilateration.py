"""Offset-augmented multilateration (paper Section 3.2.3).

Each observation gives a range ``r_i`` from a known UAV anchor ``a_i``
to the unknown UE position ``p``, corrupted by a *constant* processing
offset ``b`` plus noise:

    r_i = ||p - a_i|| + b + n_i

The paper folds ``b`` into the unknowns and solves the least-squares
problem iteratively.  The joint problem is sharply ill-conditioned for
short flights: to first order a small aperture only determines the
*direction* to the UE, while the range and offset separate only
through the second-order curvature of ``||p - a_i||`` along the
flight.  Plain gradient descent crawls in that valley, so the solver
here is a trust-region least-squares (Levenberg-Marquardt style, via
SciPy) with a Huber loss against heavy-tailed NLOS outliers, plus
multiple restarts because the robust objective is non-convex.

The UE height is fixed to a known antenna height (UEs are on the
ground; the UAV flies 40-120 m above, so the geometry has almost no
vertical diversity and estimating z would be ill-conditioned).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from repro.localization.ranging import GpsRange


@dataclass(frozen=True)
class MultilaterationResult:
    """Solution of the offset-augmented multilateration.

    Attributes
    ----------
    position:
        Estimated UE position ``(x, y, z)``; z is the fixed input.
    offset_m:
        Estimated constant range offset.
    residual_rms_m:
        RMS of the final range residuals.
    n_iter:
        Residual-function evaluations used by the winning restart.
    converged:
        Whether the winning solve reported convergence.
    inlier_fraction:
        Fraction of the input observations the solve actually trusted
        (1.0 when no outlier rejection ran).  Together with
        ``residual_rms_m`` this is the per-UE quality score the
        degraded-mode controller gates its fallbacks on.
    """

    position: np.ndarray
    offset_m: float
    residual_rms_m: float
    n_iter: int
    converged: bool
    inlier_fraction: float = 1.0

    @property
    def quality_ok(self) -> bool:
        """Crude sanity gate: solve converged and kept most of its data."""
        return self.converged and self.inlier_fraction >= 0.5


def _residuals(theta: np.ndarray, anchors: np.ndarray, ranges: np.ndarray, ue_z: float):
    p = np.array([theta[0], theta[1], ue_z])
    dist = np.linalg.norm(anchors - p[None, :], axis=1)
    return dist + theta[2] - ranges


def _jac(theta: np.ndarray, anchors: np.ndarray, ranges: np.ndarray, ue_z: float):
    """Analytic Jacobian of :func:`_residuals`.

    ``d res_i / d (x, y) = (p_xy - a_xy) / dist_i`` and
    ``d res_i / d b = 1``; one vectorized evaluation replaces SciPy's
    three finite-difference residual sweeps per trust-region step.
    """
    dx = theta[0] - anchors[:, 0]
    dy = theta[1] - anchors[:, 1]
    dz = ue_z - anchors[:, 2]
    dist = np.maximum(np.sqrt(dx * dx + dy * dy + dz * dz), 1e-12)
    J = np.empty((len(ranges), 3))
    J[:, 0] = dx / dist
    J[:, 1] = dy / dist
    J[:, 2] = 1.0
    return J


def ransac_inlier_mask(
    anchors: np.ndarray,
    ranges: np.ndarray,
    ue_z: float = 1.5,
    threshold_m: float = 12.0,
    iters: int = 12,
    sample_size: int = 8,
    seed: Optional[int] = 0,
) -> np.ndarray:
    """RANSAC consensus mask over range observations.

    Repeatedly fits the (position, offset) model to a small random
    subset and scores it by how many of *all* observations it explains
    within ``threshold_m``.  Returns the inlier mask of the best
    consensus.  Unlike the Huber loss — which merely down-weights
    outliers — a consensus vote survives fault regimes where a third of
    the ranges are multipath spikes hundreds of meters long.
    """
    n = len(ranges)
    mask = np.ones(n, dtype=bool)
    if n < 5 or iters < 1:
        return mask
    rng = np.random.default_rng(seed)
    k = min(max(4, sample_size), n)
    best_count = -1
    for _ in range(iters):
        pick = rng.choice(n, size=k, replace=False)
        a, r = anchors[pick], ranges[pick]
        p0 = a[:, :2].mean(axis=0)
        dz = ue_z - a[:, 2]
        dist0 = np.sqrt(np.sum((p0[None, :] - a[:, :2]) ** 2, axis=1) + dz * dz)
        b0 = float(np.median(r - dist0))
        sol = least_squares(
            _residuals,
            x0=np.array([p0[0], p0[1], b0]),
            jac=_jac,
            args=(a, r, ue_z),
            max_nfev=60,
        )
        res_all = np.abs(_residuals(sol.x, anchors, ranges, ue_z))
        inliers = res_all <= threshold_m
        if int(inliers.sum()) > best_count:
            best_count = int(inliers.sum())
            mask = inliers
    if best_count < 3:
        return np.ones(n, dtype=bool)
    return mask


def solve_multilateration(
    observations: Sequence[GpsRange],
    ue_z: float = 1.5,
    huber_delta_m: float = 10.0,
    max_iter: int = 400,
    tol: float = 1e-8,
    restarts: int = 4,
    seed: Optional[int] = 0,
    ransac_iters: int = 0,
    ransac_threshold_m: float = 12.0,
) -> MultilaterationResult:
    """Solve for the UE position and the constant range offset.

    Parameters
    ----------
    observations:
        GPS-range tuples from the localization flight (>= 3 required;
        more anchors and more flight-path curvature improve geometry).
    ue_z:
        Assumed UE antenna height (meters above datum).
    huber_delta_m:
        Residual scale beyond which the loss becomes linear.
    max_iter:
        Cap on residual evaluations per restart.
    tol:
        Convergence tolerance (cost and parameter change).
    restarts:
        Number of starting points; the best final robust cost wins.
    seed:
        RNG seed for restart jitter (and RANSAC sampling).
    ransac_iters:
        If > 0, run :func:`ransac_inlier_mask` first and solve only on
        the consensus inliers; the result's ``inlier_fraction``
        reports how much data survived.  0 (default) preserves the
        classic Huber-only behavior exactly.
    ransac_threshold_m:
        Inlier residual threshold for the consensus vote.

    Returns
    -------
    MultilaterationResult
    """
    obs = list(observations)
    if len(obs) < 3:
        raise ValueError(f"need at least 3 observations, got {len(obs)}")
    anchors = np.array([o.gps_xyz for o in obs], dtype=float)
    ranges = np.array([o.range_m for o in obs], dtype=float)

    inlier_fraction = 1.0
    if ransac_iters > 0:
        mask = ransac_inlier_mask(
            anchors,
            ranges,
            ue_z=ue_z,
            threshold_m=ransac_threshold_m,
            iters=ransac_iters,
            seed=seed,
        )
        if mask.sum() >= 3:
            inlier_fraction = float(mask.mean())
            anchors, ranges = anchors[mask], ranges[mask]

    rng = np.random.default_rng(seed)
    centroid = anchors[:, :2].mean(axis=0)
    spread = max(float(anchors[:, :2].std()), 10.0)

    # Starting points: the anchor centroid, the closest-range anchor,
    # and jittered variants (the Huber objective is non-convex).
    closest = anchors[np.argmin(ranges), :2]
    starts = [centroid, closest]
    for _ in range(max(0, restarts - len(starts))):
        starts.append(centroid + rng.normal(0.0, 3.0 * spread, 2))

    best = None
    for p0 in starts:
        dz = ue_z - anchors[:, 2]
        dist0 = np.sqrt(np.sum((p0[None, :] - anchors[:, :2]) ** 2, axis=1) + dz * dz)
        b0 = float(np.median(ranges - dist0))
        sol = least_squares(
            _residuals,
            x0=np.array([p0[0], p0[1], b0]),
            jac=_jac,
            args=(anchors, ranges, ue_z),
            loss="huber",
            f_scale=huber_delta_m,
            max_nfev=max_iter,
            xtol=tol,
            ftol=tol,
            gtol=tol,
        )
        if best is None or sol.cost < best.cost:
            best = sol

    theta = best.x
    position = np.array([theta[0], theta[1], ue_z])
    res = _residuals(theta, anchors, ranges, ue_z)
    return MultilaterationResult(
        position=position,
        offset_m=float(theta[2]),
        residual_rms_m=float(np.sqrt(np.mean(res**2))),
        n_iter=int(best.nfev),
        converged=bool(best.success),
        inlier_fraction=inlier_fraction,
    )

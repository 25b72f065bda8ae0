"""The ``learned`` interpolator: a model residual riding on plain IDW.

Registered (by :mod:`repro.learn`) under the name ``"learned"`` in the
same registry as ``"idw"`` and ``"kriging"``, so it threads through
:class:`~repro.core.config.SkyRANConfig` and the interpolation ablation
exactly like the analytic schemes.

The degeneration contract, which the property tests pin bitwise: with
no model (``model_path=None``), a model that fails to load, a zero
model, or nothing to correct, :meth:`LearnedInterpolator.interpolate`
returns **the object produced by the same** :func:`idw_interpolate`
**call an** :class:`~repro.rem.interpolate.IDWInterpolator` **with the
same knobs would make** — not a recomputation, not a copy — so the
learned scheme at rest is bit-identical to the paper baseline and the
default configuration cannot drift by existing.

When a real model is loaded, its predicted residual is added only at
unmeasured cells, soft-thresholded by ``RESIDUAL_DEADBAND_DB`` (small
predictions are bias + noise; only confident ones act) and clipped to
``±RESIDUAL_CAP_DB`` (bounding worst-case damage to IDW error + cap),
with non-finite predictions zeroed and counted.  Every refusal path
bumps a ``learn.fallback.*`` perf counter so runs can prove how often
the model actually spoke.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.geo.grid import GridSpec
from repro.learn.constants import (
    REM_FEATURE_NAMES,
    RESIDUAL_CAP_DB,
    RESIDUAL_DEADBAND_DB,
)
from repro.learn.features import rem_features
from repro.perf import perf
from repro.rem.idw import idw_interpolate
from repro.rem.interpolate import _masked_values

#: Memoized model loads, keyed by path.  ``None`` marks a load that
#: failed (we warn once, count every use, and never retry the path).
_MODEL_CACHE: Dict[str, Optional[object]] = {}


def _load_model_cached(path: str) -> Optional[object]:
    if path in _MODEL_CACHE:
        return _MODEL_CACHE[path]
    from repro.learn.models import load_model

    try:
        model = load_model(path)
    except Exception as exc:  # noqa: BLE001 - any load failure degrades
        warnings.warn(
            f"learned interpolator: cannot load model {path!r} ({exc}); "
            "degrading to plain IDW",
            RuntimeWarning,
            stacklevel=3,
        )
        model = None
    _MODEL_CACHE[path] = model
    return model


def clear_model_cache() -> None:
    """Drop memoized model loads (tests re-point paths at new files)."""
    _MODEL_CACHE.clear()


@dataclass(frozen=True, kw_only=True)
class LearnedInterpolator:
    """Residual-correction interpolation: IDW plus a learned term.

    Carries the IDW knobs (same names as
    :class:`~repro.rem.interpolate.IDWInterpolator`, so one config
    serves both) plus ``model_path`` pointing at a serialized
    REM-residual model from :mod:`repro.learn.models`.
    """

    power: float = 2.0
    k_neighbors: int = 12
    max_distance_m: Optional[float] = None
    model_path: Optional[str] = None

    def interpolate(
        self,
        grid: GridSpec,
        values: np.ndarray,
        measured_mask: Optional[np.ndarray] = None,
        fallback: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        masked = _masked_values(values, measured_mask)
        base = idw_interpolate(
            grid,
            masked,
            power=self.power,
            k_neighbors=self.k_neighbors,
            max_distance_m=self.max_distance_m,
            fallback=fallback,
        )
        if self.model_path is None:
            perf.count("learn.fallback.no_model")
            return base
        model = _load_model_cached(str(self.model_path))
        if model is None:
            perf.count("learn.fallback.model_load")
            return base
        names = getattr(model, "feature_names", None)
        if names is not None and tuple(names) != REM_FEATURE_NAMES:
            perf.count("learn.fallback.feature_mismatch")
            return base
        if getattr(model, "is_zero", False):
            perf.count("learn.fallback.zero_model")
            return base
        measured = ~np.isnan(masked)
        if not measured.any():
            perf.count("learn.fallback.no_measurements")
            return base
        if measured.all():
            return base
        X, missing = rem_features(grid, masked, base, fallback)
        resid = np.asarray(model.predict(X), dtype=float)
        bad = ~np.isfinite(resid)
        if bad.any():
            perf.count("learn.rem.nonfinite_pred", int(bad.sum()))
            resid = np.where(bad, 0.0, resid)
        resid = np.sign(resid) * np.maximum(
            0.0, np.abs(resid) - RESIDUAL_DEADBAND_DB
        )
        resid = np.clip(resid, -RESIDUAL_CAP_DB, RESIDUAL_CAP_DB)
        out = base.copy()
        out[missing] = base[missing] + resid
        perf.count("learn.rem.applied")
        return out

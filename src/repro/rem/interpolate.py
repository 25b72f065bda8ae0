"""The unified interpolation API.

Every REM interpolation scheme — the paper's IDW, the footnote-3
ordinary kriging, and anything a future PR adds — implements one
protocol::

    interpolate(grid, values, measured_mask=None, fallback=None) -> map

where ``values`` is a ``(ny, nx)`` array with NaN marking unmeasured
cells (or ``measured_mask`` marking measured ones explicitly) and
``fallback`` is an optional full prior map used when there is nothing
to interpolate from.

Schemes register under a string name (``"idw"``, ``"kriging"``) so the
choice threads through :class:`~repro.core.config.SkyRANConfig` and the
interpolation ablation as configuration instead of call-site branching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.geo.grid import GridSpec
from repro.rem.idw import idw_interpolate
from repro.rem.kriging import kriging_interpolate


@runtime_checkable
class Interpolator(Protocol):
    """Anything that can fill the unmeasured cells of a radio map."""

    def interpolate(
        self,
        grid: GridSpec,
        values: np.ndarray,
        measured_mask: Optional[np.ndarray] = None,
        fallback: Optional[np.ndarray] = None,
    ) -> np.ndarray: ...


def _masked_values(values: np.ndarray, measured_mask: Optional[np.ndarray]) -> np.ndarray:
    """NaN-mark the unmeasured cells if an explicit mask is given."""
    values = np.asarray(values, dtype=float)
    if measured_mask is None:
        return values
    mask = np.asarray(measured_mask, dtype=bool)
    if mask.shape != values.shape:
        raise ValueError(f"mask shape {mask.shape} != values shape {values.shape}")
    out = values.copy()
    out[~mask] = np.nan
    return out


@dataclass(frozen=True, kw_only=True)
class IDWInterpolator:
    """Inverse-distance weighting (the paper's Section 3.3.3 choice)."""

    power: float = 2.0
    k_neighbors: int = 12
    max_distance_m: Optional[float] = None

    def interpolate(
        self,
        grid: GridSpec,
        values: np.ndarray,
        measured_mask: Optional[np.ndarray] = None,
        fallback: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return idw_interpolate(
            grid,
            _masked_values(values, measured_mask),
            power=self.power,
            k_neighbors=self.k_neighbors,
            max_distance_m=self.max_distance_m,
            fallback=fallback,
        )


@dataclass(frozen=True, kw_only=True)
class KrigingInterpolator:
    """Local ordinary kriging (the footnote-3 alternative)."""

    k_neighbors: int = 12
    variogram: Optional[Tuple[float, float, float]] = None

    def interpolate(
        self,
        grid: GridSpec,
        values: np.ndarray,
        measured_mask: Optional[np.ndarray] = None,
        fallback: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return kriging_interpolate(
            grid,
            _masked_values(values, measured_mask),
            k_neighbors=self.k_neighbors,
            variogram=self.variogram,
            fallback=fallback,
        )


_REGISTRY: Dict[str, Callable[..., Interpolator]] = {}


def register_interpolator(
    name: str, factory: Callable[..., Interpolator], *, override: bool = False
) -> None:
    """Register an interpolator factory under a string name.

    Registering a name that already exists raises unless
    ``override=True`` — a silently clobbered registration is a config
    that quietly runs the wrong scheme.
    """
    if not name:
        raise ValueError("interpolator name must be non-empty")
    if name in _REGISTRY and not override:
        raise ValueError(
            f"interpolator {name!r} is already registered "
            "(pass override=True to replace it)"
        )
    _REGISTRY[name] = factory


def available_interpolators() -> Tuple[str, ...]:
    """Registered names, sorted."""
    return tuple(sorted(_REGISTRY))


def make_interpolator(name: str, **params) -> Interpolator:
    """Instantiate a registered interpolator by name.

    Unknown keyword parameters are ignored for dataclass factories (so
    one config can carry the union of every scheme's knobs — e.g.
    ``idw_power`` is meaningless to kriging and silently unused by it).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_interpolators())
        raise ValueError(f"unknown interpolator {name!r} (known: {known})") from None
    accepted = getattr(factory, "__dataclass_fields__", None)
    if accepted is not None:
        params = {k: v for k, v in params.items() if k in accepted}
    return factory(**params)


register_interpolator("idw", IDWInterpolator)
register_interpolator("kriging", KrigingInterpolator)

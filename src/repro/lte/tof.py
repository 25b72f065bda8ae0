"""Time-of-flight estimation from SRS symbols (paper Eqs. 1-3).

The estimator is a faithful implementation of Section 3.2.2:

1. Cross-correlate the received and known SRS symbols in the frequency
   domain: ``y = ifft(s * conj(h))`` (Eq. 1).  The magnitude peak of
   ``y`` sits at the delay in time-domain samples.
2. To beat the 19.5 m per-sample resolution of a 10 MHz LTE carrier,
   zero-pad the middle of the frequency-domain product by a factor
   ``K`` before the IFFT (Eq. 2), which interpolates the correlation
   by ``K``x.
3. The delay is ``argmax(|y|) / K`` samples (Eq. 3).  Larger ``K``
   costs correlation-peak SNR (the IFFT magnitude scales as 1/(KN)
   while noise does not), which is why the paper settles on K = 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.lte.srs import SRSConfig


def upsample_freq(x: np.ndarray, factor: int) -> np.ndarray:
    """Zero-pad the middle of a frequency-domain vector (paper Eq. 2).

    With the standard FFT layout (positive frequencies first, negative
    at the top), inserting ``N (K - 1)`` zeros between the two halves
    interpolates the time-domain signal by ``K``.  Accepts a batch of
    rows (``(n, m)``) and pads every row along the last axis.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    x = np.asarray(x)
    if factor == 1:
        return x.copy()
    n = x.shape[-1]
    half = n // 2
    pad = n * (factor - 1)
    out = np.empty(x.shape[:-1] + (n * factor,), dtype=x.dtype)
    out[..., :half] = x[..., :half]
    out[..., half : half + pad] = 0
    out[..., half + pad :] = x[..., half:]
    return out


def _background_guard(total: int, guard: Optional[int]) -> int:
    """Half-width of the excluded window around the correlation peak."""
    if guard is None:
        # Wide enough to cover the upsampled main lobe (width
        # ~ K * n_fft / n_active bins) at every practical numerology,
        # narrow enough to keep the background median representative.
        guard = max(1, total // 128)
    if guard < 0:
        raise ValueError(f"guard must be >= 0, got {guard}")
    return int(guard)


def correlation_quality_batch(
    mag: np.ndarray, peaks: np.ndarray, guard: Optional[int] = None
) -> np.ndarray:
    """Peak-to-background ratio of each ``(n, total)`` correlation profile.

    The ratio of each row's peak magnitude to its median magnitude away
    from the peak: a circular guard window of ``guard`` bins on each
    side of the (upsampled) peak is excluded from the median, so the
    peak's own main lobe cannot inflate the background estimate
    (``guard`` defaults to ``total // 128``, at least 1).  A clean SRS
    reception correlates to a sharp spike (high ratio); a burst buried
    in noise or shredded by interference yields a flat profile (ratio
    near 1).  Degraded-mode localization uses this to discard
    receptions whose "delay" is really an argmax over noise.
    """
    mag = np.asarray(mag)
    peaks = np.asarray(peaks, dtype=int)
    n, total = mag.shape
    guard = _background_guard(total, guard)
    if 2 * guard + 1 >= total or n == 0:
        return np.full(n, np.inf)
    # Gather each row's background span: the circular
    # [peak + guard + 1, peak + total - guard) window.
    idx = (peaks[:, None] + np.arange(guard + 1, total - guard)[None, :]) % total
    background = np.median(mag[np.arange(n)[:, None], idx], axis=-1)
    peak_mag = mag[np.arange(n), peaks]
    out = np.empty(n, dtype=float)
    tiny = background <= 1e-30
    out[tiny] = np.inf
    out[~tiny] = peak_mag[~tiny] / background[~tiny]
    return out


def estimate_delay_samples(
    received: np.ndarray,
    known: np.ndarray,
    upsampling: int = 4,
    refine: bool = True,
) -> float:
    """Delay of ``received`` w.r.t. ``known``, in (fractional) samples.

    Implements Eqs. 1-3.  Delays beyond half the symbol wrap negative
    (circular correlation); SkyRAN's operating ranges (< 1 km, i.e.
    < ~52 samples) are far from the wrap point.

    With ``refine`` (default), the integer-bin argmax of Eq. 3 is
    followed by a three-point parabolic fit over the peak's
    neighbours — the standard sub-bin refinement every practical ToF
    correlator applies.  Without it, ranges quantize to
    ``meters_per_sample / K`` (4.88 m at 10 MHz, K=4), which is too
    coarse for the multilateration to separate the range curvature
    from the constant offset over a short 20 m flight.  Set
    ``refine=False`` to reproduce the raw-argmax ablation.

    One reception through :func:`estimate_delays_batch`.
    """
    delays, _ = estimate_delays_batch(
        np.asarray(received)[None, :], known, upsampling, refine, quality=False
    )
    return float(delays[0])


def estimate_delays_batch(
    received_2d: np.ndarray,
    known: np.ndarray,
    upsampling: int = 4,
    refine: bool = True,
    quality: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Eq. 1-3 delays (and qualities) for a whole batch of receptions.

    Every row of ``received_2d`` (``(n, n_fft)``) is correlated against
    the same ``known`` symbol: one row-wise frequency-domain product
    (Eq. 1), one middle zero-pad (Eq. 2), one batched IFFT, then
    vectorized argmax + three-point parabolic refinement (Eq. 3; see
    :func:`estimate_delay_samples`) and the peak-to-background
    :func:`correlation_quality_batch`.

    Returns ``(delays_samples, qualities)``; ``qualities`` is None when
    ``quality=False`` (skipping the background medians, the most
    expensive part, for callers that do not gate on quality).
    """
    received = np.asarray(received_2d, dtype=complex)
    known = np.asarray(known, dtype=complex)
    if received.ndim != 2 or known.ndim != 1 or received.shape[1] != known.shape[0]:
        raise ValueError(
            f"received must be (n, {known.shape[0] if known.ndim == 1 else '?'}), "
            f"got {received.shape} against known {known.shape}"
        )
    n = received.shape[0]
    if n == 0:
        empty = np.zeros(0)
        return empty, (empty.copy() if quality else None)
    if upsampling < 1:
        raise ValueError(f"factor must be >= 1, got {upsampling}")
    # Eqs. 1-2 fused: the row-wise frequency-domain product is written
    # straight into the two halves of the middle-zero-padded buffer,
    # skipping the intermediate product array (the same elementwise
    # multiplies as :func:`upsample_freq` of the product).
    known_conj = np.conj(known)
    m = known.shape[0]
    half = m // 2
    pad = m * (upsampling - 1)
    padded = np.empty((n, m * upsampling), dtype=complex)
    np.multiply(received[:, :half], known_conj[None, :half], out=padded[:, :half])
    padded[:, half : half + pad] = 0
    np.multiply(received[:, half:], known_conj[None, half:], out=padded[:, half + pad :])
    mag = np.abs(np.fft.ifft(padded, axis=-1))
    total = mag.shape[1]
    rows = np.arange(n)
    peaks = np.argmax(mag, axis=-1)  # Eq. 3
    delta = np.zeros(n)
    if refine:
        # Parabolic vertex through (peak-1, peak, peak+1), circular.
        y0 = mag[rows, (peaks - 1) % total]
        y1 = mag[rows, peaks]
        y2 = mag[rows, (peaks + 1) % total]
        denom = y0 - 2.0 * y1 + y2
        ok = np.abs(denom) > 1e-12
        delta[ok] = np.clip(0.5 * (y0[ok] - y2[ok]) / denom[ok], -0.5, 0.5)
    pos = peaks + delta
    pos = np.where(pos > total / 2, pos - total, pos)
    qualities = correlation_quality_batch(mag, peaks) if quality else None
    return pos / upsampling, qualities


@dataclass(frozen=True)
class ToFEstimator:
    """SRS-based ranging front end.

    Wraps :func:`estimate_delay_samples` with the numerology needed to
    convert sample delays into meters.

    Attributes
    ----------
    config:
        SRS numerology (sample rate sets meters-per-sample).
    upsampling:
        The ``K`` of Eqs. 2-3 (paper default 4).
    """

    config: SRSConfig
    upsampling: int = 4

    def __post_init__(self) -> None:
        if self.upsampling < 1:
            raise ValueError(f"upsampling must be >= 1, got {self.upsampling}")

    @property
    def range_resolution_m(self) -> float:
        """Smallest representable range step: meters/sample divided by K."""
        return self.config.meters_per_sample / self.upsampling

    def delay_samples(self, received: np.ndarray, known: np.ndarray) -> float:
        """Estimated delay in samples."""
        return estimate_delay_samples(received, known, self.upsampling)

    def range_m(self, received: np.ndarray, known: np.ndarray) -> float:
        """Estimated one-way range in meters.

        Includes whatever constant processing offset the transmit
        chain added; the multilateration solver estimates and removes
        that offset jointly with the position (Section 3.2.3).
        """
        return self.delay_samples(received, known) * self.config.meters_per_sample

    def ranges_batch_m(
        self, received_2d: np.ndarray, known: np.ndarray, quality: bool = True
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(ranges_m, qualities)`` for a whole batch of receptions.

        One vectorized Eq. 1-3 pass over ``(n, n_fft)`` rows.  The
        quality (peak-to-background ratio of the correlation profile)
        lets degraded-mode consumers discard receptions that are
        noise-only — e.g. SRS bursts shredded by interference in a
        chaos run — before they poison the multilateration; pass
        ``quality=False`` to skip the background medians when no
        quality gate will consume them.
        """
        delays, qualities = estimate_delays_batch(
            received_2d, known, self.upsampling, quality=quality
        )
        return delays * self.config.meters_per_sample, qualities

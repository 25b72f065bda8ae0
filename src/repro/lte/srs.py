"""Uplink Sounding Reference Signal (SRS) synthesis and channel.

The SRS is a known PHY-layer signal the UE sends so the eNodeB can
sound the uplink channel; LTE builds it from Zadoff-Chu sequences,
whose constant amplitude and ideal cyclic autocorrelation are exactly
what a correlation-based ToF estimator wants.  We synthesize
frequency-domain SRS symbols on the 10 MHz LTE numerology the paper
uses (1024-point FFT, 15.36 MS/s) and push them through a delay +
multipath + AWGN channel, so the ToF estimator downstream faces the
same physics as the real system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.channel.fspl import SPEED_OF_LIGHT
from repro.perf import perf


def _cis(theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = exp(1j * theta)`` written into ``out`` (which may be a view).

    cos/sin are the bit-exactness contract of the SRS chain.
    """
    out.real = np.cos(theta)
    out.imag = np.sin(theta)
    return out


def zadoff_chu(root: int, length: int) -> np.ndarray:
    """Zadoff-Chu sequence of a given root and length.

    ``length`` should be coprime with ``root`` for the ideal constant
    -amplitude zero-autocorrelation property; LTE uses prime lengths.
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    if not 0 < root < length:
        raise ValueError(f"root must satisfy 0 < root < length, got {root}")
    if gcd(root, length) != 1:
        raise ValueError(f"root {root} must be coprime with length {length}")
    n = np.arange(length)
    if length % 2 == 0:
        phase = -np.pi * root * n * n / length
    else:
        phase = -np.pi * root * n * (n + 1) / length
    return np.exp(1j * phase)


@dataclass(frozen=True)
class SRSConfig:
    """Numerology for SRS symbols.

    Defaults model the paper's setup: 10 MHz LTE carrier, 1024-point
    FFT sampled at 15.36 MS/s, SRS sounding 576 subcarriers (48 RBs).

    Attributes
    ----------
    n_fft:
        FFT size (number of OFDM samples per symbol).
    n_subcarriers:
        Number of subcarriers the SRS occupies (centered on DC).
    sample_rate_hz:
        Baseband sampling rate.
    zc_root:
        Zadoff-Chu root for the base sequence.
    """

    n_fft: int = 1024
    n_subcarriers: int = 576
    sample_rate_hz: float = 15.36e6
    zc_root: int = 25

    def __post_init__(self) -> None:
        if self.n_fft <= 0 or self.n_fft & (self.n_fft - 1):
            raise ValueError(f"n_fft must be a positive power of two, got {self.n_fft}")
        if not 0 < self.n_subcarriers <= self.n_fft:
            raise ValueError(
                f"n_subcarriers must be in (0, n_fft], got {self.n_subcarriers}"
            )
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")

    @property
    def sample_period_s(self) -> float:
        return 1.0 / self.sample_rate_hz

    @property
    def meters_per_sample(self) -> float:
        """Real-world distance per time-domain sample (19.5 m at 10 MHz)."""
        return SPEED_OF_LIGHT / self.sample_rate_hz

    def subcarrier_bins(self) -> np.ndarray:
        """FFT bin indices the SRS occupies (centered on DC).

        Uses the standard FFT layout: positive frequencies in bins
        ``1 .. n/2``, negative frequencies at the top.  DC is skipped,
        as LTE leaves the DC subcarrier unused.
        """
        half = self.n_subcarriers // 2
        pos = np.arange(1, half + 1)
        neg = np.arange(self.n_fft - (self.n_subcarriers - half), self.n_fft)
        return np.concatenate([pos, neg])


def synthesize_srs_symbol(config: SRSConfig, root: int) -> np.ndarray:
    """Uncached SRS synthesis (ZC sequence + prime search + bin mapping).

    :func:`make_srs_symbol` memoizes this per ``(config, root)``; the
    per-symbol reference benchmark calls it directly to reproduce the
    seed cost of re-synthesizing the symbol for every reception.
    """
    # Largest prime <= n_subcarriers keeps the ZC property; repeat-pad
    # the tail as the LTE spec does for sequence length mismatches.
    length = _largest_prime_at_most(config.n_subcarriers)
    zc = zadoff_chu(root, length)
    seq = np.resize(zc, config.n_subcarriers)
    symbol = np.zeros(config.n_fft, dtype=complex)
    symbol[config.subcarrier_bins()] = seq
    return symbol


#: Memoized SRS symbols per (config, root).  The symbol depends only on
#: the numerology and the ZC root, so every SRS reception of a flight
#: (and the correlator's reference copy) shares one array.
_SRS_SYMBOL_CACHE: Dict[Tuple[SRSConfig, int], np.ndarray] = {}


def make_srs_symbol(config: SRSConfig, root: Optional[int] = None) -> np.ndarray:
    """Frequency-domain SRS symbol: a Zadoff-Chu sequence on the SRS bins.

    Returns a complex ``(n_fft,)`` vector; bins outside the sounding
    bandwidth are zero.  Memoized per ``(config, root)`` — the returned
    array is shared and marked read-only, so copy before mutating.
    Cache traffic is observable as ``srs.symbol_cache.hit/miss`` in
    :data:`repro.perf.perf`.
    """
    root = config.zc_root if root is None else root
    key = (config, root)
    symbol = _SRS_SYMBOL_CACHE.get(key)
    if symbol is not None:
        perf.count("srs.symbol_cache.hit")
        return symbol
    perf.count("srs.symbol_cache.miss")
    symbol = synthesize_srs_symbol(config, root)
    symbol.setflags(write=False)
    _SRS_SYMBOL_CACHE[key] = symbol
    return symbol


@lru_cache(maxsize=None)
def _largest_prime_at_most(n: int) -> int:
    """Largest prime <= n (n >= 2)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    for candidate in range(n, 1, -1):
        if candidate < 4:
            return candidate
        if candidate % 2 == 0:
            continue
        is_prime = True
        for d in range(3, int(candidate**0.5) + 1, 2):
            if candidate % d == 0:
                is_prime = False
                break
        if is_prime:
            return candidate
    return 2


def _delay_phase(config: SRSConfig, delay_samples: float) -> np.ndarray:
    """Per-bin phase ramp implementing a (possibly fractional) delay.

    A time delay of ``d`` samples multiplies frequency bin ``f_k`` by
    ``exp(-j 2 pi f_k d / N)`` where ``f_k`` is the *signed* frequency
    of the bin (``fftfreq`` convention), which is the band-limited
    interpolation of the delay.
    """
    freqs = np.fft.fftfreq(config.n_fft) * config.n_fft
    return np.exp(-2j * np.pi * freqs * delay_samples / config.n_fft)


def apply_channel(
    symbol: np.ndarray,
    config: SRSConfig,
    delay_samples: float,
    snr_db: float,
    rng: np.random.Generator,
    multipath: Sequence[Tuple[float, float]] = (),
) -> np.ndarray:
    """Propagate a frequency-domain SRS symbol through the channel.

    Parameters
    ----------
    symbol:
        Transmitted frequency-domain SRS symbol, ``(n_fft,)``.
    config:
        Numerology (for the bin frequencies).
    delay_samples:
        Direct-path propagation delay in (fractional) samples.
    snr_db:
        Per-subcarrier SNR of the direct path at the receiver.
    rng:
        Noise generator.
    multipath:
        Extra taps as ``(excess_delay_samples, relative_power_db)``
        pairs; each adds a delayed, attenuated copy with random phase.
        NLOS links put most energy into positive-excess-delay taps,
        which is what biases ToF high in obstructed environments.

    Returns
    -------
    Received frequency-domain symbol ``(n_fft,)``.
    """
    symbol = np.asarray(symbol, dtype=complex)
    if symbol.shape != (config.n_fft,):
        raise ValueError(f"symbol must be ({config.n_fft},), got {symbol.shape}")
    rx = symbol * _delay_phase(config, delay_samples)
    for excess, power_db in multipath:
        if excess < 0:
            raise ValueError(f"multipath excess delay must be >= 0, got {excess}")
        amp = 10.0 ** (power_db / 20.0)
        phase = np.exp(2j * np.pi * rng.random())
        rx = rx + amp * phase * symbol * _delay_phase(config, delay_samples + excess)
    # AWGN scaled against the average active-subcarrier signal power.
    active = np.abs(symbol) > 0
    sig_power = float(np.mean(np.abs(symbol[active]) ** 2)) if active.any() else 1.0
    noise_power = sig_power / (10.0 ** (snr_db / 10.0))
    noise = rng.normal(0.0, np.sqrt(noise_power / 2.0), (config.n_fft, 2))
    rx = rx + noise[:, 0] + 1j * noise[:, 1]
    return rx


def _pow10(x: np.ndarray, div: float) -> np.ndarray:
    """Elementwise ``10.0 ** (x / div)`` via CPython float pow.

    NumPy's vectorized pow and CPython's libm pow disagree in the last
    ulp for a few percent of inputs; the per-symbol reference channel
    (:func:`apply_channel`) computes its noise sigma and tap amplitudes
    with Python-float pow, so the batch kernel must do the same for
    bit-exact parity.  Evaluated once per distinct value.
    """
    vals, inv = np.unique(np.asarray(x, dtype=float), return_inverse=True)
    table = np.array([10.0 ** (float(v) / div) for v in vals], dtype=float)
    return table[inv].reshape(np.shape(x))


def pack_taps(
    taps_per_symbol: Sequence[Sequence[Tuple[float, float]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack per-symbol multipath tap lists into masked arrays.

    Turns ``n`` variable-length ``[(excess_delay, power_db), ...]``
    tap lists into the left-packed ``(excess, power_db, mask)`` arrays
    :func:`apply_channel_batch` consumes, padding with inactive taps.
    """
    n = len(taps_per_symbol)
    width = max((len(t) for t in taps_per_symbol), default=0)
    excess = np.zeros((n, width), dtype=float)
    power = np.zeros((n, width), dtype=float)
    mask = np.zeros((n, width), dtype=bool)
    for i, taps in enumerate(taps_per_symbol):
        for j, (e, p) in enumerate(taps):
            excess[i, j] = e
            power[i, j] = p
            mask[i, j] = True
    return excess, power, mask


def apply_channel_batch(
    symbol: np.ndarray,
    config: SRSConfig,
    delays_samples: np.ndarray,
    snrs_db: np.ndarray,
    rng: np.random.Generator,
    tap_excess: Optional[np.ndarray] = None,
    tap_power_db: Optional[np.ndarray] = None,
    tap_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Propagate many SRS symbols through per-symbol channels in one shot.

    Vectorized equivalent of calling :func:`apply_channel` once per
    symbol: row ``i`` of the result is the reception of ``symbol`` at
    direct-path delay ``delays_samples[i]``, SNR ``snrs_db[i]`` and the
    row-``i`` multipath tap set.  Tap sets are masked arrays — rows of
    ``(tap_excess, tap_power_db)`` with ``tap_mask`` marking the active
    taps, **left-packed** (active taps occupy the leading columns, in
    the order their random phases should be drawn).

    **RNG draw schedule (the reproducibility contract).**  Draws are
    consumed per symbol, in row (time) order; for each symbol, first
    the tap phases — one uniform per *active* tap, in tap-column
    order — then the ``(n_fft, 2)`` Gaussian noise block.  This is
    exactly the order a per-symbol :func:`apply_channel` loop consumes
    draws in, so for the same generator state the batch is
    bit-identical to the loop — and a symbol that is absent from the
    batch (e.g. dropped by fault injection before reaching the eNodeB)
    consumes no draws, leaving every later symbol's channel unchanged.

    Returns the received frequency-domain symbols, ``(n, n_fft)``.
    """
    symbol = np.asarray(symbol, dtype=complex)
    if symbol.shape != (config.n_fft,):
        raise ValueError(f"symbol must be ({config.n_fft},), got {symbol.shape}")
    delays = np.atleast_1d(np.asarray(delays_samples, dtype=float))
    snrs = np.atleast_1d(np.asarray(snrs_db, dtype=float))
    n = len(delays)
    if snrs.shape != (n,):
        raise ValueError(f"snrs_db must be ({n},), got {snrs.shape}")
    if tap_mask is None:
        tap_excess = np.zeros((n, 0))
        tap_power_db = np.zeros((n, 0))
        tap_mask = np.zeros((n, 0), dtype=bool)
    else:
        tap_excess = np.asarray(tap_excess, dtype=float)
        tap_power_db = np.asarray(tap_power_db, dtype=float)
        tap_mask = np.asarray(tap_mask, dtype=bool)
        if tap_excess.shape != (n, tap_mask.shape[1]) or tap_excess.shape != tap_mask.shape:
            raise ValueError("tap arrays must share one (n, n_taps) shape")
        if tap_power_db.shape != tap_mask.shape:
            raise ValueError("tap arrays must share one (n, n_taps) shape")
        if (tap_excess[tap_mask] < 0).any():
            raise ValueError("multipath excess delay must be >= 0")
        counts = tap_mask.sum(axis=1)
        if tap_mask.shape[1] and not np.array_equal(
            tap_mask, np.arange(tap_mask.shape[1])[None, :] < counts[:, None]
        ):
            raise ValueError("tap_mask must be left-packed (active taps first)")
    n_taps = tap_mask.shape[1]
    counts = tap_mask.sum(axis=1)
    n_fft = config.n_fft

    # -- RNG draws, per symbol in time order (see docstring contract) --
    # The noise normals are drawn straight into the output buffer (the
    # interleaved re/im float view of a complex row IS the (n_fft, 2)
    # block the per-symbol path draws) and scaled by sigma afterwards —
    # ``rng.normal(0, s, size)`` is bit-identical to
    # ``s * rng.standard_normal(size)`` and consumes the same stream.
    active = np.abs(symbol) > 0
    sig_power = float(np.mean(np.abs(symbol[active]) ** 2)) if active.any() else 1.0
    noise_power = sig_power / _pow10(snrs, 10.0)
    noise_sigma = np.sqrt(noise_power / 2.0)
    phase_u = np.zeros((n, n_taps), dtype=float)
    rx = np.empty((n, n_fft), dtype=complex)
    float_rows = rx.view(np.float64)
    for i in range(n):
        k = int(counts[i])
        if k:
            phase_u[i, :k] = rng.random(k)
        rng.standard_normal(out=float_rows[i])
    rx *= noise_sigma[:, None]

    # -- vectorized channel math (no draws below this line) ------------
    # Only the active subcarriers carry signal: inactive bins are zero
    # until the noise lands on them, and adding noise to a zero washes
    # out the +-0.0 sign the per-symbol path leaves there — so the
    # phase ramps (the bulk of the kernel) are evaluated on the active
    # bins only, each tap column only on the rows where that tap is
    # live, and the signal is added into the noise at the end over the
    # active bins alone (float addition commutes bit-for-bit).
    freqs = np.fft.fftfreq(n_fft) * n_fft
    bins = np.flatnonzero(active)
    f_act = freqs[bins]
    sym_act = symbol[bins]
    w = len(bins)
    # -2j*pi*f scalar-by-array products leave the imaginary component
    # exactly (-2.0*pi)*f, so the phase angle can be carried in a real
    # array and exponentiated via cos/sin, which numpy evaluates with
    # the same libm routines npy_cexp uses for a purely imaginary
    # argument (exp(+-0.0) == 1.0 exactly) — bit-identical to the
    # complex exp of the per-symbol path at a fraction of the cost.
    fa = (-2.0 * np.pi) * f_act
    # The SRS occupies symmetric +-f pairs (DC unused): cos is even and
    # sin is odd bit-for-bit, so the ramp on the negative-frequency
    # half is the conjugate mirror of the positive half.
    half = w // 2 if w % 2 == 0 and np.array_equal(
        f_act[w // 2 :], -f_act[: w // 2][::-1]
    ) else None

    def ramp_for(scaled_delays: np.ndarray) -> np.ndarray:
        """Phase ramp exp(-2j pi f d / N) over the active bins."""
        cols = half if half is not None else w
        theta = (fa[:cols][None, :] * scaled_delays[:, None]) / n_fft
        out = np.empty((len(scaled_delays), w), dtype=complex)
        front = out[:, :cols]
        _cis(theta, front)
        if half is not None:
            out[:, half:] = np.conj(front[:, ::-1])
        return out

    # symbol * ramp, in the per-symbol operand order (complex multiply
    # is not bitwise commutative under FMA contraction).
    work = ramp_for(delays)
    np.multiply(sym_act[None, :], work, out=work)
    for j in range(n_taps):
        live = np.flatnonzero(tap_mask[:, j])
        if not len(live):
            continue
        amp = _pow10(tap_power_db[live, j], 20.0)
        phase = np.exp(2j * np.pi * phase_u[live, j])
        contrib = (amp * phase)[:, None] * sym_act[None, :]
        contrib *= ramp_for(delays[live] + tap_excess[live, j])
        if len(live) == n:
            work += contrib
        else:
            work[live] += contrib
    # Scatter signal into the noise.  The sounded bins form a few
    # contiguous runs (two for the standard DC-straddling layout), so
    # the scatter is sliced adds rather than fancy indexing.
    if w:
        splits = np.flatnonzero(np.diff(bins) != 1) + 1
        start = 0
        for stop in list(splits) + [w]:
            lo, hi = bins[start], bins[stop - 1] + 1
            rx[:, lo:hi] += work[:, start:stop]
            start = stop
    return rx

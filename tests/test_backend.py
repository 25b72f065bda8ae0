"""Hot-kernel inner ops vs their inline references.

The ray tracer's sample-below-surface count, the SRS kernel's
phase-ramp synthesis and the MAC full-buffer slab drain are each one
small private op next to its kernel; these tests pin every op to the
inline numpy it must reproduce bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.channel.raytrace import _count_below
from repro.lte.srs import _cis
from repro.traffic.simulate import _mac_slab_serve


def test_count_below_matches_inline_reference():
    rng = np.random.default_rng(0)
    zs = rng.normal(10.0, 5.0, size=(37, 19))
    surface = rng.normal(10.0, 5.0, size=(37, 19))
    got = _count_below(zs, surface)
    expected = np.count_nonzero(zs < surface, axis=1)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


def test_cis_matches_inline_reference_including_views():
    rng = np.random.default_rng(1)
    theta = rng.uniform(-np.pi, np.pi, size=24)
    buf = np.zeros(48, dtype=complex)
    out = _cis(theta, buf[:24])  # view, as the SRS kernel does
    expected = np.cos(theta) + 1j * np.sin(theta)
    assert np.array_equal(out, expected)
    assert np.array_equal(buf[:24], expected)
    assert np.all(buf[24:] == 0)


def test_mac_slab_serve_matches_scalar_recurrence():
    rng = np.random.default_rng(2)
    n, t = 11, 23
    grants = rng.integers(0, 5, size=(n, t))
    rates = rng.uniform(0.0, 2000.0, size=n)
    backlog0 = np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0, 1e5, n))
    accepted = rng.uniform(0.0, 3000.0, size=(n, t))
    served, backlog_end = _mac_slab_serve(grants, rates, backlog0, accepted)
    exp_served = np.empty((n, t))
    exp_backlog = backlog0.copy()
    for i in range(n):
        b = backlog0[i]
        for j in range(t):
            avail = b + accepted[i, j]
            cap = grants[i, j] * rates[i]
            s = min(avail, cap)
            exp_served[i, j] = s
            b = avail - s
        exp_backlog[i] = b
    # The scalar drain above carries backlog across TTIs; the slab op
    # is only valid when the backlog is invariant (full-buffer inf, or
    # arrivals exactly drained).  Use the full-buffer rows for the
    # carried comparison and all rows for the per-TTI service.
    fb = np.isinf(backlog0)
    assert np.array_equal(served[fb], exp_served[fb])
    assert np.array_equal(backlog_end[fb], exp_backlog[fb])
    # Per-TTI service with an invariant backlog is the documented
    # independent form: min(b0 + accepted, cap).
    cap = grants * rates[:, None]
    assert np.array_equal(served, np.minimum(backlog0[:, None] + accepted, cap))


def test_mac_slab_serve_zero_tti():
    backlog0 = np.array([np.inf, 123.0])
    served, backlog_end = _mac_slab_serve(
        np.zeros((2, 0), dtype=np.int64),
        np.array([100.0, 50.0]),
        backlog0,
        np.zeros((2, 0)),
    )
    assert served.shape == (2, 0)
    assert np.array_equal(backlog_end, backlog0)
    assert backlog_end is not backlog0

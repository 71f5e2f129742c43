"""The numpy kernels against scalar per-element references."""

import numpy as np

from thermalqkd import kernels


def _channel_case(rng, n, n_taps, delay):
    src = rng.normal(size=n) + 1j * rng.normal(size=n)
    theta = rng.normal(size=n)
    taps = rng.integers(1, 9, n_taps).astype(np.int64)
    return dict(src=src, amp=0.7, delay=delay,
                cos_t=np.cos(theta), sin_t=np.sin(theta),
                tap_delays=taps, tap_cr=rng.normal(size=n_taps) * 0.1,
                tap_ci=rng.normal(size=n_taps) * 0.1,
                noise=rng.normal(size=(n, 2)))


def _channel_reference(src, amp, delay, cos_t, sin_t, tap_delays, tap_cr, tap_ci, noise):
    """Scalar per-element reference, independent of the vectorised kernel."""
    n = src.size
    out = np.zeros(n, dtype=complex)
    for t in range(n):
        j = t - delay
        acc = 0.0 + 0.0j
        if j >= 0:
            rot = complex(cos_t[t], sin_t[t])
            acc += amp * rot * src[j]
        for k in range(tap_delays.size):
            j2 = j - tap_delays[k]
            if j2 >= 0:
                acc += complex(tap_cr[k], tap_ci[k]) * src[j2]
        out[t] = acc + complex(noise[t, 0], noise[t, 1])
    return out


def test_channel_combine_matches_reference():
    rng = np.random.default_rng(0)
    for delay, n_taps in ((0, 0), (3, 1), (5, 3), (40, 2), (250, 1)):
        case = _channel_case(rng, 200, n_taps, delay)
        out = kernels.channel_combine(**case)
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, _channel_reference(**case), atol=1e-12)


def test_demod_fold_matches_rotation():
    rng = np.random.default_rng(2)
    x = rng.normal(size=300)
    p = rng.normal(size=300)
    angle = rng.uniform(-np.pi, np.pi, 300)
    xr, pr, z = kernels.demod_fold(x, p, np.cos(angle), np.sin(angle))
    expect = (x + 1j * p) * np.exp(-1j * angle)
    np.testing.assert_allclose(xr + 1j * pr, expect, atol=1e-12)
    np.testing.assert_allclose(z, np.abs(expect), atol=1e-12)


def _distill_reference(a, b, r, block):
    a_kept, b_kept = [], []
    for j in range(r.size):
        blk_a = a[j * block:(j + 1) * block]
        blk_b = b[j * block:(j + 1) * block]
        pub = blk_a ^ r[j]
        c = blk_b ^ pub
        if np.all(c == c[0]):
            a_kept.append(r[j])
            b_kept.append(c[0])
    return (np.array(a_kept, dtype=np.uint8), np.array(b_kept, dtype=np.uint8),
            len(a_kept))


def test_distill_scan_matches_reference():
    rng = np.random.default_rng(4)
    for block in (2, 3, 5):
        n = 40 * block
        a = rng.integers(0, 2, n, dtype=np.uint8)
        b = rng.integers(0, 2, n, dtype=np.uint8)
        r = rng.integers(0, 2, n // block, dtype=np.uint8)
        got = kernels.distill_scan(a, b, r, block)
        expect = _distill_reference(a, b, r, block)
        assert np.array_equal(got[0], expect[0])
        assert np.array_equal(got[1], expect[1])
        assert got[2] == expect[2]

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


def _copied(case):
    """``case`` with every array copied: the kernel overwrites ``cos_t`` and
    ``sin_t``."""
    return {key: value.copy() if isinstance(value, np.ndarray) else value
            for key, value in case.items()}


def test_channel_combine_matches_reference():
    rng = np.random.default_rng(0)
    for delay, n_taps in ((0, 0), (3, 1), (5, 3), (40, 2), (250, 1)):
        case = _channel_case(rng, 200, n_taps, delay)
        out = kernels.channel_combine(**_copied(case))
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, _channel_reference(**case), atol=1e-12)


def _channel_combine_strided(src, amp, delay, cos_t, sin_t, tap_delays, tap_cr, tap_ci,
                             noise):
    """The kernel written with one expression per sum into a zeroed complex
    result, the noise added part by part through strided views."""
    n = src.shape[0]
    out = np.zeros(n, dtype=complex)
    src_re, src_im = src.real, src.imag
    out_re, out_im = out.real, out.imag
    if delay < n:
        m = n - delay
        out_re[delay:] = amp * (cos_t[delay:] * src_re[:m] - sin_t[delay:] * src_im[:m])
        out_im[delay:] = amp * (sin_t[delay:] * src_re[:m] + cos_t[delay:] * src_im[:m])
    for k in range(tap_delays.shape[0]):
        off = delay + int(tap_delays[k])
        if off < n:
            m = n - off
            out_re[off:] += tap_cr[k] * src_re[:m] - tap_ci[k] * src_im[:m]
            out_im[off:] += tap_cr[k] * src_im[:m] + tap_ci[k] * src_re[:m]
    out_re += noise[:, 0]
    out_im += noise[:, 1]
    return out


def test_channel_combine_matches_strided_form_byte_for_byte():
    # Sums built in the cosine and sine buffers, then one add through the
    # noise's complex view, give the bytes of the one-expression form with
    # per-part noise adds, signed zeros included (a zero-amplitude input and
    # zero noise), at delays inside and past the stream.
    rng = np.random.default_rng(6)
    for delay, n_taps in ((0, 0), (3, 1), (5, 3), (198, 2), (250, 1)):
        case = _channel_case(rng, 200, n_taps, delay)
        for scale in (1.0, 0.0, -0.0):
            case["noise"] = rng.normal(size=(200, 2)) * scale
            for src in (case["src"], np.zeros(200, dtype=complex) * -1.0):
                case["src"] = src
                got = kernels.channel_combine(**_copied(case))
                assert got.tobytes() == _channel_combine_strided(**case).tobytes()


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

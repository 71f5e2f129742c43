"""Hot per-symbol kernels, in numpy.

Each kernel consumes pre-drawn random arrays and pre-computed trigonometry
and performs only IEEE add/mul/sqrt in a fixed order, so its output for a
given input is fixed byte for byte.
"""

from __future__ import annotations

import numpy as np


def channel_combine(src, amp, delay, cos_t, sin_t, tap_delays, tap_cr, tap_ci, noise):
    """Delayed, phase-rotated, tap-echoed copy of the complex ``src`` plus noise.

    out[t] = amp*e^{i*theta(t)}*src[t-delay]
             + sum_k (tap_cr[k]+i*tap_ci[k])*src[t-delay-tap_delays[k]]
             + noise[t, 0] + i*noise[t, 1]
    Out-of-range history reads as zero amplitude. The arithmetic is split
    into real and imaginary parts, done on views of ``src`` and of the
    complex128 result.
    """
    n = src.shape[0]
    out = np.zeros(n, dtype=complex)
    src_re, src_im = src.real, src.imag
    out_re, out_im = out.real, out.imag
    if delay < n:
        m = n - delay
        c = cos_t[delay:]
        s = sin_t[delay:]
        out_re[delay:] = amp * (c * src_re[:m] - s * src_im[:m])
        out_im[delay:] = amp * (s * src_re[:m] + c * src_im[:m])
    for k in range(tap_delays.shape[0]):
        off = delay + int(tap_delays[k])
        if off >= n:
            continue
        m = n - off
        out_re[off:] += tap_cr[k] * src_re[:m] - tap_ci[k] * src_im[:m]
        out_im[off:] += tap_cr[k] * src_im[:m] + tap_ci[k] * src_re[:m]
    out_re += noise[:, 0]
    out_im += noise[:, 1]
    return out


def demod_fold(x, p, cos_a, sin_a):
    """Rotate (x, p) by -psi where (cos_a, sin_a) = (cos psi, sin psi).

    Returns the rotated pair plus the amplitude sqrt(x'^2 + p'^2).
    """
    xr = x * cos_a + p * sin_a
    pr = p * cos_a - x * sin_a
    z = np.sqrt(xr * xr + pr * pr)
    return xr, pr, z


def distill_scan(a_bits, b_bits, r_bits, block):
    """Repetition-code advantage-distillation scan over fixed-size blocks.

    A block is accepted when a XOR b is constant across it; the decoded pair
    is (r, a0 XOR b0 XOR r). Returns kept bits for both sides plus the
    number of accepted blocks. Trailing partial blocks are dropped upstream.
    """
    n_blocks = r_bits.shape[0]
    d = (a_bits[:n_blocks * block] ^ b_bits[:n_blocks * block]).reshape(n_blocks, block)
    accept = (d == d[:, :1]).all(axis=1)
    a_kept = r_bits[accept]
    b_kept = (d[accept, 0] ^ r_bits[accept])
    return a_kept, b_kept, int(accept.sum())

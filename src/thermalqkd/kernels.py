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
    Out-of-range history reads as zero amplitude. ``noise`` is C-contiguous
    of shape ``(n, 2)``, one ``(re, im)`` pair per symbol. The real and
    imaginary sums are built in ``cos_t`` and ``sin_t``, which are
    overwritten: each rotated sample is written over the cosine and sine it
    was made from, and the echoes are added there. The sums are then
    copied into the complex128 result and the noise is added through its
    complex view. Every sum takes the operands of the one-expression form in
    the same order, so the bytes are the same.
    """
    n = src.shape[0]
    src_re, src_im = src.real, src.imag
    acc_re, acc_im = cos_t, sin_t
    if delay < n:
        m = n - delay
        c, s = cos_t[delay:], sin_t[delay:]
        s_im = s * src_im[:m]
        c_im = c * src_im[:m]
        np.multiply(c, src_re[:m], out=c)
        np.multiply(s, src_re[:m], out=s)
        c -= s_im
        c *= amp
        s += c_im
        s *= amp
        del s_im, c_im
    acc_re[:delay] = 0.0
    acc_im[:delay] = 0.0
    for k in range(tap_delays.shape[0]):
        off = delay + int(tap_delays[k])
        if off >= n:
            continue
        m = n - off
        acc_re[off:] += tap_cr[k] * src_re[:m] - tap_ci[k] * src_im[:m]
        acc_im[off:] += tap_cr[k] * src_im[:m] + tap_ci[k] * src_re[:m]
    out = np.empty(n, dtype=complex)
    out.real = acc_re
    out.imag = acc_im
    out += noise.view(complex)[:, 0]
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

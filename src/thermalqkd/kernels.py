"""Hot per-symbol kernels, in numpy.

Each kernel consumes pre-drawn random arrays and pre-computed trigonometry
and performs only IEEE add/mul/sqrt in a fixed order, so its output for a
given input is fixed byte for byte. A field is a pair of contiguous float64
arrays, ``(re, im)``. The per-symbol kernels work ``BLOCK`` symbols at a
time, so their temporaries are a few blocks long whatever the run length;
each element still takes the operands of the whole-array form in the same
order, so the block size changes no byte.
"""

from __future__ import annotations

import numpy as np

# Symbols per block of every blocked per-symbol pass (the source draws, the
# combine, the fold, and the pilots of one phase estimate in the harness):
# bounds their temporaries whatever the run length.
BLOCK = 65_536


def channel_combine(src_re, src_im, chain, amp, delay, cos_t, sin_t, tap_delays, tap_cr,
                    tap_ci, noise, noise_sd):
    """Delayed, phase-rotated, tap-echoed copy of the port of ``src`` plus noise.

    out[t] = amp*e^{i*theta(t)}*port[t-delay]
             + sum_k (tap_cr[k]+i*tap_ci[k])*port[t-delay-tap_delays[k]]
             + noise[t, 0]*noise_sd + i*noise[t, 1]*noise_sd
    ``port`` is the field ``src`` times each amplitude of ``chain`` in
    turn, the product a beam splitter's output holds; it is made for each
    block and the history its delay and echoes reach, never whole.
    Out-of-range history reads as zero amplitude. ``noise`` is either an
    array of shape ``(n, 2)``, one ``(re, im)`` pair per symbol, which is
    only read, as is ``src``, or a ``numpy.random.Generator``, from which
    each block draws its ``(hi - lo, 2)`` pairs as ``normal(0.0, 1.0)``:
    blocked normal draws give the values of one ``(n, 2)`` draw, so either
    form gives the same bytes. The result is built in ``cos_t`` and
    ``sin_t``, which are overwritten and returned as ``(re, im)``: block by
    block, each rotated sample is written over the cosine and sine it was
    made from, then the echoes and the scaled noise are added there. Every
    sum takes the operands of the one-expression form in the same order, so
    the bytes are the same.
    """
    n = src_re.shape[0]
    reach = delay + max(tap_delays.tolist(), default=0)
    from_rng = isinstance(noise, np.random.Generator)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        main = min(max(lo, delay), hi)   # first symbol of the block with a main path
        cos_t[lo:main] = 0.0
        sin_t[lo:main] = 0.0
        # The port over the input indices the block reads, [base, top).
        base, top = max(0, lo - reach), max(0, hi - delay)
        port_re, port_im = src_re[base:top], src_im[base:top]
        if chain:
            port_re, port_im = port_re * chain[0], port_im * chain[0]
            for gain in chain[1:]:
                port_re *= gain
                port_im *= gain
        if main < hi:
            c, s = cos_t[main:hi], sin_t[main:hi]
            re = port_re[main - delay - base:hi - delay - base]
            im = port_im[main - delay - base:hi - delay - base]
            s_im = s * im
            c_im = c * im
            np.multiply(c, re, out=c)
            np.multiply(s, re, out=s)
            c -= s_im
            c *= amp
            s += c_im
            s *= amp
        for k in range(tap_delays.shape[0]):
            off = delay + int(tap_delays[k])
            first = max(lo, off)
            if first >= hi:
                continue
            re = port_re[first - off - base:hi - off - base]
            im = port_im[first - off - base:hi - off - base]
            cos_t[first:hi] += tap_cr[k] * re - tap_ci[k] * im
            sin_t[first:hi] += tap_cr[k] * im + tap_ci[k] * re
        pairs = noise.normal(0.0, 1.0, (hi - lo, 2)) if from_rng else noise[lo:hi]
        cos_t[lo:hi] += pairs[:, 0] * noise_sd
        sin_t[lo:hi] += pairs[:, 1] * noise_sd
    return cos_t, sin_t


def demod_fold(x, p, syms, lag, first, count, seg_len, pilot_len, cos_cells, sin_cells):
    """Fold ``count`` data symbols from the ``first``-th in place: rotate
    each one's ``(x, p)`` by minus its cell's angle and take the amplitude.

    Data symbols are numbered on the transmitted clock, skipping the
    ``pilot_len`` pilots that open each ``seg_len`` segment: the ``k``-th
    is ``tx = k + (k // (seg_len - pilot_len) + 1) * pilot_len``, received
    at ``tx + lag`` and in segment ``tx // seg_len``. Its cell is ``4 *
    segment + syms[tx]``, and ``(cos_cells, sin_cells)`` hold each cell's
    ``(cos psi, sin psi)``. Returns ``(x', p', z)``, where
    ``x' = x*cos psi + p*sin psi``, ``p' = p*cos psi - x*sin psi`` and
    ``z = sqrt(x'^2 + p'^2)``, gathered and folded block by block.

    ``x'`` and ``p'`` are written over the first ``count`` entries of ``x``
    and ``p`` and returned as views of them; only ``z`` is a new array.
    Every received index ``tx + lag`` must lie in ``[0, x.size)``. Then,
    since ``tx`` grows by at least one per data symbol, data symbol
    ``first + j`` is read from received index ``tx + lag >= j``: a block
    writes only entries that no later block reads, and it gathers all its
    reads before it writes.
    """
    data_len = seg_len - pilot_len
    z = np.empty(count)
    for lo in range(0, count, BLOCK):
        hi = min(lo + BLOCK, count)
        seg = np.arange(first + lo, first + hi)
        tx = seg + pilot_len
        seg //= data_len
        tx += seg * pilot_len
        cell = syms[tx] + 4 * seg
        tx += lag
        xb, pb = x[tx], p[tx]
        cos_a, sin_a = cos_cells[cell], sin_cells[cell]
        xr, pr = x[lo:hi], p[lo:hi]
        np.multiply(xb, cos_a, out=xr)
        xr += pb * sin_a
        np.multiply(pb, cos_a, out=pr)
        pr -= xb * sin_a
        np.multiply(xr, xr, out=z[lo:hi])
        z[lo:hi] += pr * pr
        np.sqrt(z[lo:hi], out=z[lo:hi])
    return x[:count], p[:count], z


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

"""QPSK symbol handling: Gray mapping, cluster rotation, alignment recovery.

Symbols live in {0, 1, 2, 3} with cluster phases pi/4 + k*pi/2 (mid-quadrant),
so quadrant decisions and symbol indices coincide. Bit pairs map through the
Gray code 00->0, 01->1, 11->2, 10->3, making adjacent clusters differ in one
bit. Delay estimation counts exact symbol matches at every candidate lag via
FFT cross-correlation of indicator phasors, which also yields the match
counts under all four quarter-turn relabelings at no extra cost.

The FFT length only has to keep the lags that are read apart from their
circular aliases, not hold the whole linear correlation. The linear
correlation of an ``n_rx`` stream against an ``n_ref`` stream is supported on
lags ``-(n_ref - 1) .. n_rx - 1``; a length-``N`` circular correlation at lag
``L`` adds in the values at ``L +/- N``. With ``N >= max(n_ref, n_rx) +
max_lag`` and ``|L| <= max_lag``, ``L + N >= n_rx`` and ``L - N <= -n_ref``
both fall outside that support, so every kept lag is exact. ``N`` is the
smallest 5-smooth number (``2^a 3^b 5^c``) at least that large: 67,500
rather than the power of two 131,072 above ``n_ref + n_rx - 1`` for a
65,536-symbol window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMBOL_PHASES = np.pi / 4 + (np.pi / 2) * np.arange(4)
_GRAY_ENCODE = np.array([0, 1, 3, 2], dtype=np.uint8)      # index = 2*b0 + b1
_PHASE_COS = np.cos(SYMBOL_PHASES)
_PHASE_SIN = np.sin(SYMBOL_PHASES)

# Fewest pilots a phase estimate takes; a segment with fewer keeps the
# previous segment's phase.
MIN_PILOTS = 16

# Largest distance of an FFT match count from its integer that is trusted.
_COUNT_TOLERANCE = 0.25


@dataclass(frozen=True)
class AlignmentResult:
    """Best lag, quarter-turn relabeling and their symbol-match fraction."""

    lag: int
    quarter_turns: int
    match_fraction: float


def bits_to_symbols(bits) -> np.ndarray:
    """Map consecutive bit pairs to symbols; an odd tail is padded with 0."""
    b = np.asarray(bits, dtype=np.uint8).ravel()
    if b.size and (b.max() > 1):
        raise ValueError("bits must be 0/1")
    if b.size % 2:
        b = np.concatenate([b, np.zeros(1, dtype=np.uint8)])
    return _GRAY_ENCODE[2 * b[0::2] + b[1::2]]


def quadrant_decision(x, p):
    """Symbols (uint8) whose quadrants contain (x, p); axis ties go to the positive side."""
    # Quadrants 0, 1, 2, 3 are the sign pairs (+,+), (-,+), (-,-), (+,-) of
    # (x, p): bit 1 is "p < 0" and bit 0 is "x < 0" xor "p < 0".
    xn = (np.asarray(x) < 0).view(np.uint8)
    pn = (np.asarray(p) < 0).view(np.uint8)
    return np.asarray((pn << 1) | (xn ^ pn))


def estimate_delay_and_rotation(ref_symbols, rx_symbols, max_lag: int) -> AlignmentResult:
    """Joint search over lags and quarter-turn relabelings.

    Returns the (lag, k) maximizing the fraction of positions where
    (rx - k) mod 4 == ref, with ties resolved toward small |lag|, positive
    lag, then small k. Used to absorb an unknown k*pi/2 carrier rotation.
    """
    ref, rx = _alignment_inputs(ref_symbols, rx_symbols, max_lag)
    lags, counts, overlap = _match_counts(ref, rx, max_lag)
    frac = counts / overlap
    order = np.lexsort((lags < 0, np.abs(lags)))
    flat = frac[:, order].T.ravel()
    best = int(np.argmax(flat))
    lag_i, k = divmod(best, 4)
    idx = order[lag_i]
    return AlignmentResult(lag=int(lags[idx]), quarter_turns=int(k),
                           match_fraction=float(frac[k, idx]))


def estimate_global_phase(pilot_x, pilot_y, pilot_symbols) -> float:
    """Channel phase in (-pi, pi].

    Estimated as the angle of the mean received sample after derotating each
    pilot by its known cluster phase. The pilots are known, so the angle is
    the whole phase, with no k*pi/2 ambiguity.
    """
    x = np.asarray(pilot_x, dtype=float)
    y = np.asarray(pilot_y, dtype=float)
    syms = _check_symbols(pilot_symbols)
    if not (x.shape == y.shape == syms.shape):
        raise ValueError("pilot sequences must have matching lengths")
    if x.size < MIN_PILOTS:
        raise ValueError(f"need at least {MIN_PILOTS} pilot samples, got {x.size}")
    c = _PHASE_COS[syms]
    s = _PHASE_SIN[syms]
    re = np.sum(x * c + y * s)
    im = np.sum(y * c - x * s)
    return float(np.arctan2(im, re))


def _check_symbols(symbols) -> np.ndarray:
    s = np.asarray(symbols)
    if s.size and (s.min() < 0 or s.max() > 3):
        raise ValueError("symbols must lie in 0..3")
    return s.astype(np.int64)


def _alignment_inputs(ref_symbols, rx_symbols, max_lag):
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    ref = _check_symbols(ref_symbols)
    rx = _check_symbols(rx_symbols)
    need = max(4 * max_lag, 1)
    if ref.size < need or rx.size < need:
        raise ValueError(
            f"streams too short for max_lag={max_lag}: need >= {need}, "
            f"got {ref.size} and {rx.size}")
    return ref, rx


def _match_counts(ref, rx, max_lag):
    """Exact match counts for all lags and all four relabelings.

    With unit phasors u = i^rx and v = i^ref, the cross-correlation
    C(L) = sum_t u[t] * conj(v[t-L]) equals sum_k m_k(L) * i^k where m_k(L)
    counts positions with (rx - ref) mod 4 == k. Together with the same
    correlation of (-1)^symbol sequences and the known overlap length this
    linear system yields every m_k exactly. FFT round-off is far below the
    0.5 needed for integer rounding; a count further than
    ``_COUNT_TOLERANCE`` from an integer raises RuntimeError.
    """
    n_ref, n_rx = ref.size, rx.size
    nfft = _fft_size(max(n_ref, n_rx) + max_lag)
    phasor = np.array([1, 1j, -1, -1j])
    u = phasor[rx]
    v = phasor[ref]
    corr = np.fft.ifft(np.fft.fft(u, nfft) * np.conj(np.fft.fft(v, nfft)))
    qu = 1.0 - 2.0 * (rx & 1)
    qv = 1.0 - 2.0 * (ref & 1)
    dcorr = np.fft.irfft(np.fft.rfft(qu, nfft) * np.conj(np.fft.rfft(qv, nfft)), nfft)
    lags = np.arange(-max_lag, max_lag + 1)
    c_l = corr[lags % nfft]
    d_l = dcorr[lags % nfft]
    # Both streams hold at least 4*max_lag symbols (_alignment_inputs), so
    # every overlap is at least 3*max_lag, and at least 1 at max_lag = 0.
    overlap = np.minimum(n_rx, n_ref + lags) - np.maximum(0, lags)
    even = (overlap + d_l) / 4.0
    odd = (overlap - d_l) / 4.0
    raw = np.stack([
        even + c_l.real / 2.0,
        odd + c_l.imag / 2.0,
        even - c_l.real / 2.0,
        odd - c_l.imag / 2.0,
    ])
    counts = np.rint(raw)
    off = float(np.max(np.abs(raw - counts)))
    if not off <= _COUNT_TOLERANCE:
        raise RuntimeError(
            f"FFT match counts are {off:.3g} from an integer (nfft={nfft}); "
            f"tolerance is {_COUNT_TOLERANCE}")
    return lags, counts.astype(np.int64), overlap.astype(np.int64)


def _fft_size(m: int) -> int:
    """Smallest 2^a * 3^b * 5^c that is >= m (1 for m <= 1)."""
    best = 1 << max(m - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        odd = p5                      # 3^b * 5^c
        while odd < best:
            # odd times the smallest power of two >= ceil(m / odd)
            best = min(best, odd << max(-(-m // odd) - 1, 0).bit_length())
            odd *= 3
        p5 *= 5
    return best

"""QPSK symbol handling: Gray mapping, cluster rotation, alignment recovery.

Symbols live in {0, 1, 2, 3} with cluster phases pi/4 + k*pi/2 (mid-quadrant),
so quadrant decisions and symbol indices coincide. Bit pairs map through the
Gray code 00->0, 01->1, 11->2, 10->3, making adjacent clusters differ in one
bit. Delay estimation counts exact symbol matches at every candidate lag via
FFT cross-correlation of indicator phasors, which also yields the match
counts under all four quarter-turn relabelings at no extra cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMBOL_PHASES = np.pi / 4 + (np.pi / 2) * np.arange(4)
_GRAY_ENCODE = np.array([0, 1, 3, 2], dtype=np.uint8)      # index = 2*b0 + b1
_PHASE_COS = np.cos(SYMBOL_PHASES)
_PHASE_SIN = np.sin(SYMBOL_PHASES)


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
    xn = np.asarray(x) < 0
    pn = np.asarray(p) < 0
    return np.where(pn, np.where(xn, 2, 3), np.where(xn, 1, 0)).astype(np.uint8)


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
    """Channel phase modulo pi/2, folded into [-pi/4, pi/4).

    Estimated as the angle of the mean received sample after derotating each
    pilot by its known cluster phase. The residual k*pi/2 ambiguity is left
    to the quadrant-bit alignment stage.
    """
    x = np.asarray(pilot_x, dtype=float)
    y = np.asarray(pilot_y, dtype=float)
    syms = _check_symbols(pilot_symbols)
    if not (x.shape == y.shape == syms.shape):
        raise ValueError("pilot sequences must have matching lengths")
    if x.size < 16:
        raise ValueError(f"need at least 16 pilot samples, got {x.size}")
    c = _PHASE_COS[syms]
    s = _PHASE_SIN[syms]
    re = np.sum(x * c + y * s)
    im = np.sum(y * c - x * s)
    theta = float(np.arctan2(im, re))
    return (theta + np.pi / 4) % (np.pi / 2) - np.pi / 4


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
    linear system yields every m_k exactly; FFT round-off is far below the
    0.5 needed for integer rounding.
    """
    n_ref, n_rx = ref.size, rx.size
    nfft = 1 << int(np.ceil(np.log2(n_ref + n_rx - 1)))
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
    overlap = np.minimum(n_rx, n_ref + lags) - np.maximum(0, lags)
    if overlap.min() <= 0:
        raise ValueError("empty overlap inside the lag window")
    even = (overlap + d_l) / 4.0
    odd = (overlap - d_l) / 4.0
    counts = np.rint(np.stack([
        even + c_l.real / 2.0,
        odd + c_l.imag / 2.0,
        even - c_l.real / 2.0,
        odd - c_l.imag / 2.0,
    ])).astype(np.int64)
    return lags, counts, overlap.astype(np.int64)

"""QPSK symbol handling: Gray mapping and alignment recovery.

Symbols live in {0, 1, 2, 3} with cluster phases pi/4 + k*pi/2 (mid-quadrant).
Bit pairs map through the Gray code 00->0, 01->1, 11->2, 10->3, making
adjacent clusters differ in one bit. A party finds its delay against the
public symbol reference by one complex cross-correlation of its received
field ``x + ip`` with the reference's unit phasors. The correlation at the
right lag sums every symbol in phase up to one common carrier rotation, so
the search needs no symbol decisions and does not depend on that rotation.

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

import threading
from dataclasses import dataclass

import numpy as np

SYMBOL_PHASES = np.pi / 4 + (np.pi / 2) * np.arange(4)
_GRAY_ENCODE = np.array([0, 1, 3, 2], dtype=np.uint8)      # index = 2*b0 + b1
_PHASE_COS = np.cos(SYMBOL_PHASES)
_PHASE_SIN = np.sin(SYMBOL_PHASES)
_PHASORS = np.exp(1j * SYMBOL_PHASES)

# Relative gap below which two lag scores count as tied.
_TIE_TOLERANCE = 1e-9

# Fewest pilots a phase estimate takes; a segment with fewer keeps the
# previous segment's phase.
MIN_PILOTS = 16


@dataclass(frozen=True)
class AlignmentResult:
    """Best lag and the share of symbols it puts within pi/4 of their cluster."""

    lag: int
    match_fraction: float


def bits_to_symbols(bits) -> np.ndarray:
    """Map consecutive bit pairs to symbols; an odd tail is padded with 0."""
    b = np.asarray(bits, dtype=np.uint8).ravel()
    if b.size and (b.max() > 1):
        raise ValueError("bits must be 0/1")
    if b.size % 2:
        b = np.concatenate([b, np.zeros(1, dtype=np.uint8)])
    return _GRAY_ENCODE[2 * b[0::2] + b[1::2]]


class ReferenceSpectra:
    """The reference transforms of one public symbol stream, shared.

    Holds the conjugate spectrum of the phasors of each prefix of the
    stream it is asked for, made once per (prefix length, FFT size) however
    many receives ask and from whichever threads. Only prefixes of one
    stream may be passed to one instance.
    """

    def __init__(self):
        self._made = {}
        self._lock = threading.Lock()

    def get(self, ref, nfft):
        with self._lock:
            key = (ref.size, nfft)
            if key not in self._made:
                self._made[key] = _reference_spectrum(ref, nfft)
            return self._made[key]


def estimate_delay_and_rotation(ref_symbols, rx, max_lag: int,
                                spectra: ReferenceSpectra | None = None) -> AlignmentResult:
    """Lag of the received field ``rx`` (``x + ip``) against ``ref_symbols``.

    Maximizes ``|C(L)|^2 / overlap(L)`` over ``|L| <= max_lag``, where
    ``C(L) = sum_t rx[t + L] * conj(e^{i phase(ref[t])})``. Scores within a
    relative ``_TIE_TOLERANCE`` of the best tie; ties go to small ``|lag|``,
    then to the positive lag. ``match_fraction`` is the share of
    the overlapping symbols that lie within pi/4 of their cluster once
    derotated by ``arg C(lag)``, the carrier rotation the lag absorbs.
    With ``spectra``, the reference's transform is taken from it, so
    receives of one transmission transform the reference once.
    """
    ref, rx = _alignment_inputs(ref_symbols, rx, max_lag)
    lags, corr, overlap = _correlation(ref, rx, max_lag, spectra)
    order = np.lexsort((lags < 0, np.abs(lags)))
    score = (corr.real ** 2 + corr.imag ** 2) / overlap
    # Lags that tie exactly carry different FFT round-off, so every score
    # within a billionth of the best ties and the tie order decides.
    best = order[int(np.argmax(score[order] >= score.max() * (1 - _TIE_TOLERANCE)))]
    lag = int(lags[best])
    lo, hi = max(0, lag), min(rx.size, ref.size + lag)
    derotated = rx[lo:hi] * np.conj(_PHASORS[ref[lo - lag:hi - lag]] * corr[best])
    within = np.count_nonzero(derotated.real > np.abs(derotated.imag))
    return AlignmentResult(lag=lag, match_fraction=float(within / (hi - lo)))


def estimate_global_phase(pilot_x, pilot_y, pilot_symbols) -> np.ndarray:
    """Channel phase in (-pi, pi] of each row of pilots.

    Estimated as the angle of the row's mean received sample after derotating
    each pilot by its known cluster phase. The pilots are known, so the angle
    is the whole phase, with no k*pi/2 ambiguity. The arrays are one shape,
    the symbols in 0..3, and each row holds at least ``MIN_PILOTS``.
    """
    c = _PHASE_COS[pilot_symbols]
    s = _PHASE_SIN[pilot_symbols]
    re = np.sum(pilot_x * c + pilot_y * s, axis=-1)
    im = np.sum(pilot_y * c - pilot_x * s, axis=-1)
    return np.arctan2(im, re)


def _alignment_inputs(ref_symbols, rx, max_lag):
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    ref = np.asarray(ref_symbols)
    if ref.size and (ref.min() < 0 or ref.max() > 3):
        raise ValueError("symbols must lie in 0..3")
    ref = ref.astype(np.int64)
    rx = np.asarray(rx, dtype=complex)
    need = max(4 * max_lag, 1)
    if ref.size < need or rx.size < need:
        raise ValueError(
            f"streams too short for max_lag={max_lag}: need >= {need}, "
            f"got {ref.size} and {rx.size}")
    return ref, rx


def _reference_spectrum(ref, nfft):
    return np.conj(np.fft.fft(_PHASORS[ref], nfft))


def _correlation(ref, rx, max_lag, spectra=None):
    """Lags ``-max_lag..max_lag``, ``C`` at each and the overlap lengths."""
    n_ref, n_rx = ref.size, rx.size
    nfft = _fft_size(max(n_ref, n_rx) + max_lag)
    ref_spectrum = (_reference_spectrum(ref, nfft) if spectra is None
                    else spectra.get(ref, nfft))
    corr = np.fft.ifft(np.fft.fft(rx, nfft) * ref_spectrum)
    lags = np.arange(-max_lag, max_lag + 1)
    # Both streams hold at least 4*max_lag symbols (_alignment_inputs), so
    # every overlap is at least 3*max_lag, and at least 1 at max_lag = 0.
    overlap = np.minimum(n_rx, n_ref + lags) - np.maximum(0, lags)
    return lags, corr[lags % nfft], overlap


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

import itertools

import numpy as np
import pytest

from thermalqkd import modem
from thermalqkd.modem import (SYMBOL_PHASES, bits_to_symbols, estimate_delay_and_rotation,
                              estimate_global_phase, quadrant_decision)

_GRAY = {(0, 0): 0, (0, 1): 1, (1, 1): 2, (1, 0): 3}


def test_gray_mapping_examples():
    assert bits_to_symbols([0, 0, 1, 1]).tolist() == [0, 2]
    assert bits_to_symbols([]).tolist() == []
    assert bits_to_symbols([1, 0, 0, 1, 1, 1]).tolist() == [3, 1, 2]
    # odd length: trailing zero pad
    assert bits_to_symbols([1]).tolist() == [3]
    for pair in itertools.product((0, 1), repeat=2):
        assert bits_to_symbols(pair).tolist() == [_GRAY[pair]]
    with pytest.raises(ValueError, match="0/1"):
        bits_to_symbols([2])


def test_gray_round_trip():
    # every bit pair has its own symbol, so the pairs can be read back
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 10_000, dtype=np.uint8)
    decode = {sym: pair for pair, sym in _GRAY.items()}
    assert len(decode) == 4
    back = [bit for sym in bits_to_symbols(bits).tolist() for bit in decode[sym]]
    assert back == bits.tolist()


def test_gray_adjacency():
    # one quadrant step flips exactly one bit of the pair
    decode = {int(bits_to_symbols(pair)[0]): pair
              for pair in itertools.product((0, 1), repeat=2)}
    for k in range(4):
        a, b = decode[k], decode[(k + 1) % 4]
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_quadrant_decision():
    assert quadrant_decision(1.0, 1.0) == 0
    assert quadrant_decision(-2.0, 0.5) == 1
    assert quadrant_decision(0.3, -4.0) == 3
    assert quadrant_decision(-1.0, -1.0) == 2
    # boundary ties resolve toward the positive axis
    assert quadrant_decision(0.0, 0.5) == 0
    assert quadrant_decision(0.3, 0.0) == 0
    assert quadrant_decision(0.0, -1.0) == 3
    assert quadrant_decision(0.0, 0.0) == 0


def _quadrant_reference(x, p):
    """The nested np.where that quadrant_decision's bit arithmetic replaced."""
    xn = np.asarray(x) < 0
    pn = np.asarray(p) < 0
    return np.where(pn, np.where(xn, 2, 3), np.where(xn, 1, 0)).astype(np.uint8)


_EDGE_VALUES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.5, -1.5, 5e-324, -5e-324]


def test_quadrant_decision_edge_values_match_reference():
    # +-0.0 and NaN are not < 0, so they take the positive side like any tie
    for xv, pv in itertools.product(_EDGE_VALUES, repeat=2):
        got = quadrant_decision(xv, pv)
        want = _quadrant_reference(xv, pv)
        assert isinstance(got, np.ndarray) and got.shape == () and got.dtype == np.uint8
        assert got.tobytes() == want.tobytes(), (xv, pv)
    x, p = np.meshgrid(np.array(_EDGE_VALUES), np.array(_EDGE_VALUES))
    got = quadrant_decision(x, p)
    assert got.shape == x.shape and got.dtype == np.uint8
    assert got.tobytes() == _quadrant_reference(x, p).tobytes()
    # non-contiguous views, integer input and broadcasting against a scalar
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 40))
    b = rng.integers(-3, 4, size=(6, 40))
    for xv, pv in ((a[:, ::3], a.T[::3].T), (b, a), (a, 0.0), (-0.0, b[2])):
        got = quadrant_decision(xv, pv)
        assert got.dtype == np.uint8
        assert got.tobytes() == _quadrant_reference(xv, pv).tobytes()


def test_fold_then_unfold_recovers_quadrant():
    # a folded (phase-0) point sent back to cluster s lands in quadrant s
    for s in range(4):
        phi = SYMBOL_PHASES[s]
        x = 1.3 * np.cos(phi) - 0.2 * np.sin(phi)
        p = 1.3 * np.sin(phi) + 0.2 * np.cos(phi)
        assert quadrant_decision(x, p) == s


def _naive_delay(ref, rx, max_lag):
    """Brute-force oracle for estimate_delay_and_rotation, O(lags * n).

    Visits (lag, k) in the documented tie order: small |lag|, then the
    positive lag, then small k; a later candidate must be strictly better.
    """
    best = None
    n_ref, n_rx = len(ref), len(rx)
    for lag in sorted(range(-max_lag, max_lag + 1), key=lambda l: (abs(l), l < 0)):
        lo = max(0, lag)
        hi = min(n_rx, n_ref + lag)
        diff = (rx[lo:hi] - ref[lo - lag:hi - lag]) % 4
        for k in range(4):
            frac = int(np.count_nonzero(diff == k)) / (hi - lo)
            if best is None or frac > best[2]:
                best = (lag, k, frac)
    return best


def test_estimate_delay_agrees_with_bruteforce():
    # Besides independent streams: periodic streams over few symbols, where
    # many lags tie, and streams relabeled by k1 in the first half and k2 in
    # the second, where k1 and k2 tie at lag 0 when the length is even.
    rng = np.random.default_rng(2)
    for i in range(60):
        n_ref = int(rng.integers(80, 200))
        n_rx = int(rng.integers(80, 200))
        if i % 3 == 0:
            ref = rng.integers(0, 4, n_ref)
            rx = rng.integers(0, 4, n_rx)
        elif i % 3 == 1:
            pattern = rng.integers(0, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            ref = np.resize(pattern, n_ref)
            rx = (np.resize(np.roll(pattern, 1), n_rx) + int(rng.integers(0, 4))) % 4
        else:
            ref = rng.integers(0, 4, n_ref)
            rx = (ref + np.repeat(rng.integers(0, 4, 2), [n_ref // 2, n_ref - n_ref // 2])) % 4
        got = estimate_delay_and_rotation(ref, rx, 20)
        assert (got.lag, got.quarter_turns, got.match_fraction) == _naive_delay(ref, rx, 20)
    # lags +1 and -1 both match every symbol; the positive lag wins
    ref = np.resize([0, 1], 100)
    rx = np.resize([1, 0], 100)
    got = estimate_delay_and_rotation(ref, rx, 10)
    assert (got.lag, got.quarter_turns, got.match_fraction) == (1, 0, 1.0)


def _naive_counts(ref, rx, max_lag):
    """Brute-force (4, 2*max_lag+1) count matrix: positions with (rx - ref) % 4 == k."""
    counts = np.zeros((4, 2 * max_lag + 1), dtype=np.int64)
    for j, lag in enumerate(range(-max_lag, max_lag + 1)):
        lo, hi = max(0, lag), min(len(rx), len(ref) + lag)
        counts[:, j] = np.bincount((rx[lo:hi] - ref[lo - lag:hi - lag]) % 4, minlength=4)
    return counts


def _smooth(m):
    for f in (2, 3, 5):
        while m % f == 0:
            m //= f
    return m == 1


def _count_cases():
    """(ref, rx, max_lag) with max(n) + max_lag just below, at and just above a
    5-smooth number, unequal lengths either way round, and the planted
    shift at +-max_lag."""
    rng = np.random.default_rng(12)
    cases = []
    for target in (12, 100, 243, 1000, 1024, 1125, 2187):
        for delta in (-1, 0, 1):
            m = target + delta
            max_lag = max(1, m // 9)
            n_long = m - max_lag
            n_short = n_long - int(rng.integers(0, n_long // 3 + 1))
            for n_ref, n_rx in ((n_long, n_short), (n_short, n_long)):
                for shift in (max_lag, -max_lag, 0):
                    base = rng.integers(0, 4, max(n_ref, n_rx) + max_lag)
                    ref = base[max_lag:max_lag + n_ref]
                    rx = (base[max_lag - shift:max_lag - shift + n_rx] + 1) % 4
                    cases.append((ref, rx, max_lag))
    return cases


def test_fft_size_is_smallest_5_smooth_at_least_m():
    smooth = [k for k in range(1, 8193) if _smooth(k)]
    for m in range(1, 4097):
        assert modem._fft_size(m) == next(k for k in smooth if k >= m), m
    assert modem._fft_size(65_536 + 1024) == 67_500


def test_match_counts_equal_bruteforce_matrix():
    for ref, rx, max_lag in _count_cases():
        assert _smooth(modem._fft_size(max(ref.size, rx.size) + max_lag))
        lags, counts, overlap = modem._match_counts(ref, rx, max_lag)
        assert lags.tolist() == list(range(-max_lag, max_lag + 1))
        np.testing.assert_array_equal(counts, _naive_counts(ref, rx, max_lag))
        np.testing.assert_array_equal(overlap, counts.sum(axis=0))


def test_match_counts_need_the_whole_size(monkeypatch):
    # max(n) + max_lag bins are enough, 5-smooth or not. One bin short, the
    # lag at -max_lag (or +max_lag) picks up a wrapped term: its counts come
    # out wrong, or off an integer, which raises.
    monkeypatch.setattr(modem, "_fft_size", lambda m: m)
    for ref, rx, max_lag in _count_cases():
        np.testing.assert_array_equal(modem._match_counts(ref, rx, max_lag)[1],
                                      _naive_counts(ref, rx, max_lag))
    monkeypatch.setattr(modem, "_fft_size", lambda m: m - 1)
    for ref, rx, max_lag in _count_cases():
        try:
            counts = modem._match_counts(ref, rx, max_lag)[1]
        except RuntimeError:
            continue
        assert not np.array_equal(counts, _naive_counts(ref, rx, max_lag))


def test_match_counts_reject_inexact_transform(monkeypatch):
    rng = np.random.default_rng(13)
    ref = rng.integers(0, 4, 500)
    rx = rng.integers(0, 4, 500)
    ifft, irfft = np.fft.ifft, np.fft.irfft
    # +0.4 on both inverse transforms moves the k = 0 count by 0.4/4 + 0.4/2
    monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: ifft(*a, **k) + 0.4)
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.4)
    with pytest.raises(RuntimeError, match="from an integer"):
        modem._match_counts(ref, rx, 20)


def test_estimate_delay_identical_streams():
    rng = np.random.default_rng(3)
    ref = rng.integers(0, 4, 4000)
    res = estimate_delay_and_rotation(ref, ref, 100)
    assert (res.lag, res.quarter_turns) == (0, 0)
    assert res.match_fraction == 1.0


def _plant_shift(ref, shift, rng):
    rx = np.roll(ref, shift)
    if shift > 0:
        rx[:shift] = rng.integers(0, 4, shift)
    elif shift < 0:
        rx[shift:] = rng.integers(0, 4, -shift)
    return rx


def test_estimate_delay_planted_shift():
    rng = np.random.default_rng(4)
    ref = rng.integers(0, 4, 10_000)
    rx = _plant_shift(ref, 7, rng)
    res = estimate_delay_and_rotation(ref, rx, 50)
    assert (res.lag, res.quarter_turns) == (7, 0)
    assert res.match_fraction == 1.0


def test_estimate_delay_with_symbol_errors():
    rng = np.random.default_rng(5)
    ref = rng.integers(0, 4, 10_000)
    rx = _plant_shift(ref, 7, rng)
    hit = rng.random(rx.size) < 0.10
    rx[hit] = (rx[hit] + rng.integers(1, 4, int(hit.sum()))) % 4
    res = estimate_delay_and_rotation(ref, rx, 50)
    assert (res.lag, res.quarter_turns) == (7, 0)
    assert res.match_fraction == pytest.approx(0.9, abs=0.02)


def test_estimate_delay_recovers_large_shifts():
    rng = np.random.default_rng(6)
    for _ in range(60):
        ref = rng.integers(0, 4, 10_000)
        shift = int(rng.integers(-1000, 1001))
        rx = _plant_shift(ref, shift, rng)
        assert estimate_delay_and_rotation(ref, rx, 1000).lag == shift


def test_estimate_delay_rejects_short_streams():
    with pytest.raises(ValueError):
        estimate_delay_and_rotation(np.zeros(30, dtype=int), np.zeros(30, dtype=int), 10)
    with pytest.raises(ValueError):
        estimate_delay_and_rotation(np.zeros(100, dtype=int), np.zeros(100, dtype=int), -1)
    with pytest.raises(ValueError, match="0..3"):
        estimate_delay_and_rotation(np.zeros(100, dtype=int), np.full(100, 4), 10)


def test_rotation_search_recovers_relabeling():
    rng = np.random.default_rng(7)
    for k in range(4):
        ref = rng.integers(0, 4, 5000)
        rx = (_plant_shift(ref, 13, rng) + k) % 4
        res = estimate_delay_and_rotation(ref, rx, 40)
        assert (res.lag, res.quarter_turns) == (13, k)
        assert res.match_fraction > 0.99


def _pilot_samples(symbols, channel_phase, nbar, d0, rng):
    from thermalqkd.modem import SYMBOL_PHASES
    mean = d0 * np.exp(1j * (SYMBOL_PHASES[symbols] + channel_phase))
    noise = (rng.normal(0, np.sqrt(nbar), symbols.size)
             + 1j * rng.normal(0, np.sqrt(nbar), symbols.size)) if nbar else 0.0
    field = mean + (noise * np.exp(1j * channel_phase) if nbar else 0.0)
    return field.real, field.imag


def test_global_phase_noiseless():
    rng = np.random.default_rng(8)
    syms = rng.integers(0, 4, 64)
    x, p = _pilot_samples(syms, 0.0, 0.0, 2.0, rng)
    assert estimate_global_phase(x, p, syms) == pytest.approx(0.0, abs=1e-12)
    x, p = _pilot_samples(syms, 0.2, 0.0, 2.0, rng)
    assert estimate_global_phase(x, p, syms) == pytest.approx(0.2, abs=1e-9)


def test_global_phase_keeps_quarter_turns():
    # Known pilots leave no k*pi/2 ambiguity: the whole angle comes back.
    rng = np.random.default_rng(9)
    syms = rng.integers(0, 4, 64)
    for k in range(4):
        phase = 0.2 + k * np.pi / 2
        x, p = _pilot_samples(syms, phase, 0.0, 2.0, rng)
        want = phase - 2 * np.pi if phase > np.pi else phase
        assert estimate_global_phase(x, p, syms) == pytest.approx(want, abs=1e-9)


def test_global_phase_noisy():
    rng = np.random.default_rng(10)
    syms = rng.integers(0, 4, 1000)
    x, p = _pilot_samples(syms, 0.2, 2.0, 5.0, rng)
    assert estimate_global_phase(x, p, syms) == pytest.approx(0.2, abs=0.03)


def test_global_phase_validation():
    syms = np.zeros(10, dtype=int)
    with pytest.raises(ValueError):
        estimate_global_phase(np.ones(10), np.ones(10), syms)  # too short
    with pytest.raises(ValueError):
        estimate_global_phase(np.ones(20), np.ones(19), np.zeros(20, dtype=int))

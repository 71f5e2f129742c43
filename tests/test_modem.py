import itertools

import numpy as np
import pytest

from thermalqkd import modem
from thermalqkd.modem import (SYMBOL_PHASES, bits_to_symbols, estimate_delay_and_rotation,
                              estimate_global_phase)

_GRAY = {(0, 0): 0, (0, 1): 1, (1, 1): 2, (1, 0): 3}
_PHASORS = np.exp(1j * SYMBOL_PHASES)


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


def test_fold_then_unfold_recovers_quadrant():
    # a folded (phase-0) point sent back to cluster s lies within pi/4 of
    # cluster s; sent a quarter turn further, it does not
    rng = np.random.default_rng(1)
    ref = rng.integers(0, 4, 400)
    rx = (1.3 + 0.2j) * _PHASORS[ref]
    assert estimate_delay_and_rotation(ref, rx, 0).match_fraction == 1.0
    rx[:100] *= 1j
    assert estimate_delay_and_rotation(ref, rx, 0).match_fraction == 0.75


def _naive_correlation(ref, rx, max_lag):
    """Brute-force C(L) = sum_t rx[t+L] * conj(e^{i phase(ref[t])}) and the
    overlap at each lag -max_lag..max_lag, O(lags * n)."""
    corr, overlap = [], []
    for lag in range(-max_lag, max_lag + 1):
        lo, hi = max(0, lag), min(len(rx), len(ref) + lag)
        corr.append(np.sum(rx[lo:hi] * np.conj(_PHASORS[ref[lo - lag:hi - lag]])))
        overlap.append(hi - lo)
    return np.array(corr), np.array(overlap)


def _naive_delay(ref, rx, max_lag):
    """Brute-force oracle for estimate_delay_and_rotation: the first lag in
    the documented tie order (small |lag|, then positive) whose
    |C|^2 / overlap is within a relative 1e-9 of the largest, and the share
    of its overlap within pi/4 of the cluster after derotating by arg C."""
    corr, overlap = _naive_correlation(ref, rx, max_lag)
    score = np.abs(corr) ** 2 / overlap
    lags = sorted(range(-max_lag, max_lag + 1), key=lambda l: (abs(l), l < 0))
    lag = next(l for l in lags if score[l + max_lag] >= score.max() * (1 - 1e-9))
    lo, hi = max(0, lag), min(len(rx), len(ref) + lag)
    turned = rx[lo:hi] * np.conj(_PHASORS[ref[lo - lag:hi - lag]] * corr[lag + max_lag])
    return lag, np.count_nonzero(np.abs(np.angle(turned)) < np.pi / 4) / (hi - lo)


def _noisy(symbols, rng, phase=0.0, sigma=0.5):
    """Received field of ``symbols`` at carrier offset ``phase`` plus noise."""
    noise = rng.normal(0, sigma, (symbols.size, 2)) @ [1, 1j]
    return np.exp(1j * phase) * _PHASORS[symbols] + noise


def _periodic(pattern, n_ref, n_rx, k):
    """A periodic reference and, as its noiseless field, the same pattern
    turned one place and relabeled by k quarter turns: every lag one past a
    whole period matches every symbol, so lags of equal overlap tie."""
    ref = np.resize(pattern, n_ref)
    return ref, _PHASORS[(np.resize(np.roll(pattern, 1), n_rx) + k) % 4]


def test_estimate_delay_agrees_with_bruteforce():
    # Independent streams and streams relabeled by k1 in the first half and
    # k2 in the second, each at a random carrier offset with noise; and
    # noiseless periodic streams over few symbols, where many lags tie.
    rng = np.random.default_rng(2)
    for i in range(90):
        n_ref = int(rng.integers(80, 200))
        n_rx = int(rng.integers(80, 200))
        ref = rng.integers(0, 4, n_ref)
        if i % 3 == 0:
            rx = _noisy(rng.integers(0, 4, n_rx), rng, phase=rng.uniform(-np.pi, np.pi))
        elif i % 3 == 1:
            pattern = rng.integers(0, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            ref, rx = _periodic(pattern, n_ref, n_rx, int(rng.integers(0, 4)))
        else:
            sent = (ref + np.repeat(rng.integers(0, 4, 2), [n_ref // 2, n_ref - n_ref // 2])) % 4
            rx = _noisy(sent, rng, phase=rng.uniform(-np.pi, np.pi))
        got = estimate_delay_and_rotation(ref, rx, 20)
        assert (got.lag, got.match_fraction) == _naive_delay(ref, rx, 20)
    # lags +1 and -1 both match every symbol; the positive lag wins
    ref = np.resize([0, 1], 100)
    rx = _PHASORS[np.resize([1, 0], 100)]
    got = estimate_delay_and_rotation(ref, rx, 10)
    assert (got.lag, got.match_fraction) == (1, 1.0)
    # lags -1, -3, ..., -19 all overlap the whole field and match every
    # symbol; the smallest |lag| wins whatever the round-off
    ref, rx = _periodic(np.array([0, 1]), 150, 120, 0)
    got = estimate_delay_and_rotation(ref, rx, 20)
    assert (got.lag, got.match_fraction) == (-1, 1.0)


def _smooth(m):
    for f in (2, 3, 5):
        while m % f == 0:
            m //= f
    return m == 1


def _correlation_cases():
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
                    rx = _noisy(base[max_lag - shift:max_lag - shift + n_rx], rng, phase=1.0)
                    cases.append((ref, rx, max_lag))
    # periodic streams over few symbols, where many lags tie
    for _ in range(10):
        pattern = rng.integers(0, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        ref, rx = _periodic(pattern, int(rng.integers(80, 200)), int(rng.integers(80, 200)), 1)
        cases.append((ref, rx, 20))
    return cases


def test_fft_size_is_smallest_5_smooth_at_least_m():
    smooth = [k for k in range(1, 8193) if _smooth(k)]
    for m in range(1, 4097):
        assert modem._fft_size(m) == next(k for k in smooth if k >= m), m
    assert modem._fft_size(65_536 + 1024) == 67_500


def test_correlation_equals_bruteforce_at_every_kept_lag():
    for ref, rx, max_lag in _correlation_cases():
        assert _smooth(modem._fft_size(max(ref.size, rx.size) + max_lag))
        lags, corr, overlap = modem._correlation(ref, rx, max_lag)
        assert lags.tolist() == list(range(-max_lag, max_lag + 1))
        want, want_overlap = _naive_correlation(ref, rx, max_lag)
        np.testing.assert_allclose(corr, want, rtol=0, atol=1e-9 * ref.size)
        np.testing.assert_array_equal(overlap, want_overlap)


def test_correlation_needs_the_whole_size(monkeypatch):
    # max(n) + max_lag bins are enough, 5-smooth or not. One bin short, the
    # lag at -max_lag (or +max_lag) picks up a wrapped term.
    monkeypatch.setattr(modem, "_fft_size", lambda m: m)
    for ref, rx, max_lag in _correlation_cases():
        np.testing.assert_allclose(modem._correlation(ref, rx, max_lag)[1],
                                   _naive_correlation(ref, rx, max_lag)[0],
                                   rtol=0, atol=1e-9 * ref.size)
    monkeypatch.setattr(modem, "_fft_size", lambda m: m - 1)
    for ref, rx, max_lag in _correlation_cases():
        corr = modem._correlation(ref, rx, max_lag)[1]
        want = _naive_correlation(ref, rx, max_lag)[0]
        ends = [0, -1]
        assert not np.allclose(corr[ends], want[ends], rtol=0, atol=1e-6)


def test_estimate_delay_identical_streams():
    rng = np.random.default_rng(3)
    ref = rng.integers(0, 4, 4000)
    res = estimate_delay_and_rotation(ref, _PHASORS[ref], 100)
    assert res == modem.AlignmentResult(lag=0, match_fraction=1.0)


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
    rx = _PHASORS[_plant_shift(ref, 7, rng)]
    res = estimate_delay_and_rotation(ref, rx, 50)
    assert (res.lag, res.match_fraction) == (7, 1.0)


def test_estimate_delay_with_symbol_errors():
    rng = np.random.default_rng(5)
    ref = rng.integers(0, 4, 10_000)
    sent = _plant_shift(ref, 7, rng)
    hit = rng.random(sent.size) < 0.10
    sent[hit] = (sent[hit] + rng.integers(1, 4, int(hit.sum()))) % 4
    res = estimate_delay_and_rotation(ref, _PHASORS[sent], 50)
    assert res.lag == 7
    assert res.match_fraction == pytest.approx(0.9, abs=0.02)


def test_estimate_delay_recovers_large_shifts():
    rng = np.random.default_rng(6)
    for _ in range(60):
        ref = rng.integers(0, 4, 10_000)
        shift = int(rng.integers(-1000, 1001))
        rx = _noisy(_plant_shift(ref, shift, rng), rng, phase=rng.uniform(-np.pi, np.pi))
        assert estimate_delay_and_rotation(ref, rx, 1000).lag == shift


def test_estimate_delay_rejects_short_streams():
    with pytest.raises(ValueError):
        estimate_delay_and_rotation(np.zeros(30, dtype=int), np.zeros(30), 10)
    with pytest.raises(ValueError):
        estimate_delay_and_rotation(np.zeros(100, dtype=int), np.zeros(100), -1)
    with pytest.raises(ValueError, match="0..3"):
        estimate_delay_and_rotation(np.full(100, 4), np.zeros(100), 10)


def test_rotation_search_recovers_relabeling():
    # a relabeling by k quarter turns is a carrier rotation by k*pi/2
    rng = np.random.default_rng(7)
    for k in range(4):
        ref = rng.integers(0, 4, 5000)
        rx = _PHASORS[(_plant_shift(ref, 13, rng) + k) % 4]
        res = estimate_delay_and_rotation(ref, rx, 40)
        assert res.lag == 13
        assert res.match_fraction > 0.99


def test_alignment_does_not_depend_on_the_carrier_offset():
    # One received field turned through offsets that include pi/4, where
    # every symbol sits on a quadrant boundary: the lag and the match
    # fraction stay what they are at offset 0.
    rng = np.random.default_rng(14)
    ref = rng.integers(0, 4, 20_000)
    rx = _noisy(_plant_shift(ref, -29, rng), rng, sigma=0.6)
    want = estimate_delay_and_rotation(ref, rx, 400)
    assert want.lag == -29 and want.match_fraction > 0.75
    for offset in np.linspace(-np.pi, np.pi, 17):
        got = estimate_delay_and_rotation(ref, np.exp(1j * offset) * rx, 400)
        assert got.lag == want.lag
        assert got.match_fraction == pytest.approx(want.match_fraction, abs=1e-4)


def _pilot_samples(symbols, channel_phase, nbar, d0, rng):
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

import itertools

import numpy as np
import pytest

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


def test_global_phase_folds_quarter_turns():
    rng = np.random.default_rng(9)
    syms = rng.integers(0, 4, 64)
    for k in range(1, 4):
        x, p = _pilot_samples(syms, 0.2 + k * np.pi / 2, 0.0, 2.0, rng)
        assert estimate_global_phase(x, p, syms) == pytest.approx(0.2, abs=1e-9)


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

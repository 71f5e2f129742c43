import numpy as np
import pytest

from thermalqkd.modem import (SYMBOL_PHASES, bits_to_symbols, estimate_delay,
                              estimate_delay_and_rotation, estimate_global_phase,
                              quadrant_decision, symbols_to_bits)


def test_gray_mapping_examples():
    assert bits_to_symbols([0, 0, 1, 1]).tolist() == [0, 2]
    assert bits_to_symbols([]).tolist() == []
    assert bits_to_symbols([1, 0, 0, 1, 1, 1]).tolist() == [3, 1, 2]
    # odd length: trailing zero pad
    assert bits_to_symbols([1]).tolist() == [3]


def test_gray_round_trip():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 10_000, dtype=np.uint8)
    assert np.array_equal(symbols_to_bits(bits_to_symbols(bits)), bits)


def test_gray_adjacency():
    # one quadrant step flips exactly one bit of the pair
    for k in range(4):
        a = symbols_to_bits([k])
        b = symbols_to_bits([(k + 1) % 4])
        assert int(np.sum(a != b)) == 1


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
    """Brute-force oracle for estimate_delay, O(lags * n)."""
    best = None
    n_ref, n_rx = len(ref), len(rx)
    for lag in sorted(range(-max_lag, max_lag + 1), key=lambda l: (abs(l), l < 0)):
        lo = max(0, lag)
        hi = min(n_rx, n_ref + lag)
        seg_rx = rx[lo:hi]
        seg_ref = ref[lo - lag:hi - lag]
        matches = int(np.sum(seg_rx == seg_ref))
        frac = matches / (hi - lo)
        if best is None or frac > best[1] + 1e-15:
            best = (lag, frac)
    return best


def test_estimate_delay_agrees_with_bruteforce():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n_ref = int(rng.integers(80, 200))
        n_rx = int(rng.integers(80, 200))
        ref = rng.integers(0, 4, n_ref)
        rx = rng.integers(0, 4, n_rx)
        max_lag = 20
        got = estimate_delay(ref, rx, max_lag)
        lag, frac = _naive_delay(ref, rx, max_lag)
        assert got.lag == lag
        assert got.match_fraction == pytest.approx(frac, abs=1e-12)


def test_estimate_delay_identical_streams():
    rng = np.random.default_rng(3)
    ref = rng.integers(0, 4, 4000)
    res = estimate_delay(ref, ref, 100)
    assert res.lag == 0
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
    res = estimate_delay(ref, rx, 50)
    assert res.lag == 7
    assert res.match_fraction == 1.0


def test_estimate_delay_with_symbol_errors():
    rng = np.random.default_rng(5)
    ref = rng.integers(0, 4, 10_000)
    rx = _plant_shift(ref, 7, rng)
    hit = rng.random(rx.size) < 0.10
    rx[hit] = (rx[hit] + rng.integers(1, 4, int(hit.sum()))) % 4
    res = estimate_delay(ref, rx, 50)
    assert res.lag == 7
    assert res.match_fraction == pytest.approx(0.9, abs=0.02)


def test_estimate_delay_recovers_large_shifts():
    rng = np.random.default_rng(6)
    for _ in range(60):
        ref = rng.integers(0, 4, 10_000)
        shift = int(rng.integers(-1000, 1001))
        rx = _plant_shift(ref, shift, rng)
        assert estimate_delay(ref, rx, 1000).lag == shift


def test_estimate_delay_rejects_short_streams():
    with pytest.raises(ValueError):
        estimate_delay(np.zeros(30, dtype=int), np.zeros(30, dtype=int), 10)
    with pytest.raises(ValueError):
        estimate_delay(np.zeros(100, dtype=int), np.zeros(100, dtype=int), -1)


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

import numpy as np
import pytest

from thermalqkd.channels import (ChannelParams, PhaseDriftParams, TapSpec,
                                 apply_channel, draw_channel, sample_phase_walk)
from thermalqkd.harness import freespace_scenario, waveguide_scenario


def _channel(stream, params, rng):
    """The link's draws from ``rng``, applied to the complex ``stream`` as
    the field ``(stream.real, stream.imag)``; returns the complex result."""
    re, im = apply_channel((stream.real, stream.imag), params,
                           draw_channel(params.drift, len(stream), rng))
    return re + 1j * im


def test_param_validation():
    with pytest.raises(ValueError):
        TapSpec(delay=0, amplitude=0.1, phase=0.0)
    with pytest.raises(ValueError):
        TapSpec(delay=3, amplitude=1.0, phase=0.0)
    with pytest.raises(ValueError):
        PhaseDriftParams(walk_sigma=-1e-3)
    with pytest.raises(ValueError):
        PhaseDriftParams(hop_prob=1.5)
    with pytest.raises(ValueError):
        ChannelParams(transmittance=1.2)
    with pytest.raises(ValueError):
        ChannelParams(delay=-1)
    with pytest.raises(ValueError):
        ChannelParams(rx_noise_var=-0.5)


def test_identity_channel_is_exact():
    rng = np.random.default_rng(0)
    stream = rng.normal(size=300) + 1j * rng.normal(size=300)
    out = _channel(stream, ChannelParams(), rng)
    assert np.array_equal(out, stream)


def test_pure_attenuation():
    rng = np.random.default_rng(1)
    stream = np.full(100, 2.0 + 0.0j)
    out = _channel(stream, ChannelParams(transmittance=0.25), rng)
    np.testing.assert_allclose(out, np.full(100, 1.0 + 0.0j), atol=1e-14)


def test_intensity_scales_with_transmittance():
    rng = np.random.default_rng(2)
    stream = rng.normal(size=500) + 1j * rng.normal(size=500)
    out = _channel(stream, ChannelParams(transmittance=0.36), rng)
    np.testing.assert_allclose(np.abs(out) ** 2, 0.36 * np.abs(stream) ** 2, atol=1e-12)


def test_impulse_response_with_tap():
    rng = np.random.default_rng(3)
    stream = np.zeros(32, dtype=complex)
    stream[0] = 1.0
    params = ChannelParams(transmittance=0.81, delay=2,
                           taps=(TapSpec(delay=5, amplitude=0.1, phase=0.0),))
    out = _channel(stream, params, rng)
    expect = np.zeros(32, dtype=complex)
    expect[2] = 0.9            # sqrt(T) at the main delay
    expect[7] = 0.1 * 0.9      # echo: amplitude * sqrt(T), 5 symbols later
    np.testing.assert_allclose(out, expect, atol=1e-14)


def test_tap_phase_rotates_echo():
    rng = np.random.default_rng(4)
    stream = np.zeros(16, dtype=complex)
    stream[0] = 1.0
    params = ChannelParams(taps=(TapSpec(delay=3, amplitude=0.2, phase=np.pi / 2),))
    out = _channel(stream, params, rng)
    assert out[3] == pytest.approx(0.2j, abs=1e-14)


def test_linearity_with_frozen_noise():
    drift = PhaseDriftParams(walk_sigma=1e-3, hop_prob=1e-3, hop_scale=0.3)
    params = ChannelParams(transmittance=0.7, delay=4, drift=drift,
                           taps=(TapSpec(delay=2, amplitude=0.1, phase=1.0),),
                           rx_noise_var=0.0)
    rng = np.random.default_rng(5)
    a = rng.normal(size=400) + 1j * rng.normal(size=400)
    b = rng.normal(size=400) + 1j * rng.normal(size=400)
    out_sum = _channel(a + b, params, np.random.default_rng(99))
    out_a = _channel(a, params, np.random.default_rng(99))
    out_b = _channel(b, params, np.random.default_rng(99))
    np.testing.assert_allclose(out_sum, out_a + out_b, atol=1e-12)


def test_out_of_range_history_reads_vacuum():
    rng = np.random.default_rng(6)
    stream = np.ones(10, dtype=complex)
    out = _channel(stream, ChannelParams(delay=4), rng)
    assert np.array_equal(out[:4], np.zeros(4, dtype=complex))
    assert np.array_equal(out[4:], np.ones(6, dtype=complex))


def test_apply_channel_rejects_empty():
    with pytest.raises(ValueError):
        _channel(np.array([], dtype=complex), ChannelParams(), np.random.default_rng(0))
    drawn = draw_channel(PhaseDriftParams(), 9, np.random.default_rng(0))
    with pytest.raises(ValueError, match="draws cover 9 symbols, the stream 10"):
        apply_channel((np.ones(10), np.zeros(10)), ChannelParams(), drawn)
    with pytest.raises(ValueError, match="one shape"):
        apply_channel((np.ones(9), np.zeros(10)), ChannelParams(), drawn)


def test_phase_walk_variance_growth():
    # hop_prob = 0 leaves a pure Gaussian random walk: Var(theta_t) grows as
    # walk_sigma^2 * t on top of the random carrier offset (intercept only).
    sigma = 0.05
    drift = PhaseDriftParams(walk_sigma=sigma)
    n, runs = 10_000, 6000
    rng = np.random.default_rng(7)
    s1 = np.zeros(n)
    s2 = np.zeros(n)
    for _ in range(runs):
        theta = sample_phase_walk(drift, n, rng)
        s1 += theta
        s2 += theta * theta
    var_t = s2 / runs - (s1 / runs) ** 2
    slope = np.polyfit(np.arange(1, n + 1), var_t, 1)[0]
    assert slope == pytest.approx(sigma ** 2, rel=0.05)


def test_phase_walk_inactive_is_zero():
    drift = PhaseDriftParams()
    theta = sample_phase_walk(drift, 100, np.random.default_rng(8))
    assert np.array_equal(theta, np.zeros(100))


def test_hops_appear_at_stated_rate():
    drift = PhaseDriftParams(walk_sigma=0.0, hop_prob=0.01, hop_scale=0.5)
    theta = sample_phase_walk(drift, 200_000, np.random.default_rng(9))
    jumps = np.diff(theta)
    n_hops = np.count_nonzero(np.abs(jumps) > 0.25)
    assert n_hops == pytest.approx(2000, abs=200)
    np.testing.assert_allclose(np.abs(jumps[np.abs(jumps) > 0.25]), 0.5, atol=1e-12)


def test_presets_validate_and_have_documented_character():
    wg = waveguide_scenario().bob_link
    fs = freespace_scenario().bob_link
    assert wg.transmittance > fs.transmittance
    assert wg.drift.walk_sigma < fs.drift.walk_sigma
    assert len(wg.taps) == 1
    assert 2 <= len(fs.taps) <= 3
    assert wg.rx_noise_var < fs.rx_noise_var


def _phase_walk_reference(drift, n, rng):
    """The phase walk written out of place, as one expression per step."""
    theta0 = rng.uniform(0.0, 2.0 * np.pi)
    steps = rng.normal(0.0, 1.0, n)
    hop_u = rng.random(n)
    hop_sign = rng.integers(0, 2, n) * 2.0 - 1.0
    inc = drift.walk_sigma * steps
    inc += (hop_u < drift.hop_prob) * drift.hop_scale * hop_sign
    start = theta0 if drift.active else 0.0
    return start + np.cumsum(inc)


def test_phase_walk_matches_reference_byte_for_byte():
    drifts = {
        "waveguide": waveguide_scenario().alice_link.drift,
        "freespace": freespace_scenario().bob_link.drift,
        "inactive": PhaseDriftParams(),
        "always-hop": PhaseDriftParams(walk_sigma=1e-3, hop_prob=1.0, hop_scale=0.3),
        # No walk, so every step but a hop is a signed zero.
        "hops-only": PhaseDriftParams(walk_sigma=0.0, hop_prob=0.01, hop_scale=0.35),
        # Hops of zero size: each adds a signed zero.
        "zero-hops": PhaseDriftParams(walk_sigma=2e-4, hop_prob=0.5, hop_scale=0.0),
    }
    for seed, (name, drift) in enumerate(drifts.items()):
        rng_new = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        theta = sample_phase_walk(drift, 50_001, rng_new)
        expect = _phase_walk_reference(drift, 50_001, rng_ref)
        assert theta.dtype == expect.dtype and theta.shape == expect.shape, name
        assert theta.tobytes() == expect.tobytes(), name
        # both consumed the same draws
        assert rng_new.random() == rng_ref.random(), name


def test_apply_channel_matches_scalar_reference_on_a_preset_link():
    from test_kernels import _channel_reference
    link = freespace_scenario().bob_link
    n = 3000
    rng = np.random.default_rng(12)
    stream = rng.normal(size=n) + 1j * rng.normal(size=n)
    out = _channel(stream, link, np.random.default_rng(13))
    rng_ref = np.random.default_rng(13)
    theta = _phase_walk_reference(link.drift, n, rng_ref)
    noise = rng_ref.normal(0.0, 1.0, (n, 2))
    amp = np.sqrt(link.transmittance)
    expect = _channel_reference(
        stream.real, stream.imag, amp, link.delay, np.cos(theta), np.sin(theta),
        np.array([t.delay for t in link.taps], dtype=np.int64),
        np.array([t.amplitude * np.cos(t.phase) * amp for t in link.taps]),
        np.array([t.amplitude * np.sin(t.phase) * amp for t in link.taps]),
        noise, np.sqrt(link.rx_noise_var))
    np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12)

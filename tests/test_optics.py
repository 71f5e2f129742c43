import numpy as np
import pytest

from thermalqkd.infotheory import g2
from thermalqkd.optics import (SourceParams, apply_beamsplitter, heterodyne,
                               joint_covariance_oracle, sample_source_field)


def test_source_params_rejects_negative():
    with pytest.raises(ValueError):
        SourceParams(nbar=-1.0, d0=0.0)
    with pytest.raises(ValueError):
        SourceParams(nbar=1.0, d0=-2.0)


def test_source_field_noiseless_is_pure_displacement():
    params = SourceParams(nbar=0.0, d0=1.0)
    rng = np.random.default_rng(0)
    value = sample_source_field(params, 0.0, rng)
    assert value == 1.0 + 0.0j


def test_source_field_thermal_variance():
    # Monte Carlo consistency: per-quadrature variance of the fluctuation is nbar.
    rng = np.random.default_rng(42)
    field = sample_source_field(SourceParams(nbar=2.0, d0=0.0), np.zeros(10 ** 6), rng)
    assert abs(field.real.var() - 2.0) < 0.02
    assert abs(field.imag.var() - 2.0) < 0.02


def test_source_field_displaced_mean():
    rng = np.random.default_rng(7)
    field = sample_source_field(SourceParams(nbar=2.0, d0=3.0),
                                np.full(10 ** 6, np.pi / 2), rng)
    assert abs(field.real.mean() - 0.0) < 0.01
    assert abs(field.imag.mean() - 3.0) < 0.01


def test_beamsplitter_identity_and_split():
    out1, out2 = apply_beamsplitter(1.0 + 0.0j, 1.0)
    assert out1 == 1.0 + 0.0j and out2 == 0.0j
    out1, out2 = apply_beamsplitter(1.0 + 0.0j, 0.5)
    assert out1 == pytest.approx(0.70710678118654752, abs=1e-12)
    assert out2 == pytest.approx(0.70710678118654752, abs=1e-12)


def test_beamsplitter_conserves_intensity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=500) + 1j * rng.normal(size=500)
    for t in (0.0, 0.17, 0.5, 0.83, 1.0):
        o1, o2 = apply_beamsplitter(a, t)
        np.testing.assert_allclose(np.abs(o1) ** 2 + np.abs(o2) ** 2, np.abs(a) ** 2,
                                   atol=1e-12)


def test_beamsplitter_rejects_bad_transmittance():
    with pytest.raises(ValueError):
        apply_beamsplitter(1.0 + 0j, 1.1)
    with pytest.raises(ValueError):
        apply_beamsplitter(1.0 + 0j, -0.1)


def test_beamsplitter_vacuum_port_limits_and_conservation():
    # The eavesdropper tap: Bob keeps sqrt(T) of the broadcast, Eve takes
    # sqrt(1-T), and the second input port is vacuum (zero amplitude).
    rng = np.random.default_rng(10)
    stream = rng.normal(size=200) + 1j * rng.normal(size=200)
    bob, eve = apply_beamsplitter(stream, 1.0)
    assert np.array_equal(bob, stream)
    assert np.array_equal(eve, np.zeros_like(stream))
    bob, eve = apply_beamsplitter(np.full(5, 1.0 + 0j), 0.5)
    np.testing.assert_allclose(bob, np.full(5, np.sqrt(0.5)), atol=1e-14)
    np.testing.assert_allclose(eve, np.full(5, np.sqrt(0.5)), atol=1e-14)
    bob, eve = apply_beamsplitter(stream, 0.37)
    np.testing.assert_allclose(np.abs(bob) ** 2 + np.abs(eve) ** 2,
                               np.abs(stream) ** 2, atol=1e-12)
    with pytest.raises(ValueError):
        apply_beamsplitter(stream, -0.1)


def test_heterodyne_noiseless_and_moments():
    rng = np.random.default_rng(5)
    assert heterodyne(1.0 + 1.0j, 0.0, rng) == (1.0, 1.0)
    x, p = heterodyne(np.zeros(10 ** 6, dtype=complex), 1.0, rng)
    assert abs(x.var() - 1.0) < 0.01
    assert abs(p.var() - 1.0) < 0.01
    x, p = heterodyne(np.full(10 ** 6, 5.0 + 0.0j), 1.0, rng)
    assert abs(x.mean() - 5.0) < 0.01
    assert abs(p.mean()) < 0.01
    with pytest.raises(ValueError):
        heterodyne(1.0 + 0j, -0.5, rng)


def test_oracle_no_thermal_light_is_pure_detection_noise():
    links = [(0.8, 1.0), (0.6, 2.0), (0.9, 0.5)]
    cov = joint_covariance_oracle(links, nbar=0.0, eve_transmittance=0.3)
    expect = np.diag([1.0, 1.0, 2.0, 2.0, 0.5, 0.5])
    np.testing.assert_allclose(cov, expect, atol=1e-15)


def test_oracle_cross_covariance_hand_value():
    # Hand propagation for the symmetric network, eta_A = eta_B = 1, tap 0.5:
    # gain_A = sqrt(0.5), gain_B = sqrt(0.25), cross = gain_A*gain_B*nbar.
    cov = joint_covariance_oracle([(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)],
                                  nbar=2.0, eve_transmittance=0.5)
    assert cov[0, 2] == pytest.approx(np.sqrt(0.5) * 0.5 * 2.0, rel=1e-12)
    assert cov[1, 3] == cov[0, 2]
    assert cov[0, 1] == 0.0  # x-p uncorrelated
    assert cov[0, 0] == pytest.approx(0.5 * 2.0 + 1.0, rel=1e-12)


def test_oracle_rejects_invalid():
    with pytest.raises(ValueError):
        joint_covariance_oracle([(1.2, 1.0), (1.0, 1.0), (1.0, 1.0)], 1.0)
    with pytest.raises(ValueError):
        joint_covariance_oracle([(1.0, 1.0), (1.0, 1.0)], 1.0)
    with pytest.raises(ValueError):
        joint_covariance_oracle([(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)], 1.0, 1.4)
    with pytest.raises(ValueError, match="nbar"):
        joint_covariance_oracle([(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)], -1.0)
    with pytest.raises(ValueError, match="link 1 noise_var"):
        joint_covariance_oracle([(1.0, 1.0), (1.0, -0.5), (1.0, 1.0)], 1.0)


def _simulate_rounds(links, nbar, t_eve, n, rng, d0=0.0):
    field = sample_source_field(SourceParams(nbar=nbar, d0=d0), np.zeros(n), rng)
    alice, broadcast = apply_beamsplitter(field, 0.5)
    bob, eve = apply_beamsplitter(broadcast, t_eve)
    rows = []
    for arm, (eta, noise) in zip((alice, bob, eve), links):
        x, p = heterodyne(np.sqrt(eta) * arm, noise, rng)
        rows += [x, p]
    return np.stack(rows)


def test_sampler_matches_oracle():
    rng = np.random.default_rng(11)
    links = [(0.7, 1.0), (0.9, 1.5), (0.5, 0.8)]
    nbar, t_eve, n = 3.0, 0.4, 400_000
    oracle = joint_covariance_oracle(links, nbar, t_eve)
    emp = np.cov(_simulate_rounds(links, nbar, t_eve, n, rng))
    se = np.sqrt((np.outer(np.diag(oracle), np.diag(oracle)) + oracle ** 2) / n)
    assert np.all(np.abs(emp - oracle) < 5 * se)


def test_fluctuations_independent_of_displacement():
    links = [(0.8, 1.0), (0.8, 1.0), (0.8, 1.0)]
    small = np.cov(_simulate_rounds(links, 2.0, 0.5, 300_000,
                                    np.random.default_rng(21), d0=0.0))
    large = np.cov(_simulate_rounds(links, 2.0, 0.5, 300_000,
                                    np.random.default_rng(21), d0=10.0))
    assert np.all(np.abs(small - large) < 0.02)


def test_thermal_heterodyne_shows_bunching():
    # Hanbury Brown-Twiss signature: g2(0) = 2 for thermal light, 1 at long lag.
    rng = np.random.default_rng(33)
    field = sample_source_field(SourceParams(nbar=5.0, d0=0.0), np.zeros(10 ** 6), rng)
    x, p = heterodyne(field, 1.0, rng)
    intensity = x * x + p * p
    assert abs(g2(intensity, 0) - 2.0) < 0.05
    assert abs(g2(intensity, 1000) - 1.0) < 0.05


@pytest.mark.parametrize("nbar, d0, bar", [
    (1.0, 0.0, 0.01),                  # g2 = 2
    (2.0, 3.0, 0.004),                 # g2 = 1.5207
    (5.0, 10.0 * np.sqrt(5.0), 3e-4),  # g2 = 1.0388, criterion 1b without sqrt(2)
    (1.0, 30.0, 3e-5),                 # g2 = 1.0044
])
def test_displaced_thermal_g2_pins_d0_unit(nbar, d0, bar):
    # d0 in field units (E|s|^2 = 2*nbar): g2(0) = 1 + (4 d0^2 nbar + 4 nbar^2)
    # / (d0^2 + 2 nbar)^2. Each bar is about five standard deviations of the
    # estimator at 10^6 samples; reading d0 as a photon-number amplitude
    # (displacement sqrt(2)*d0) moves every displaced point far past its bar.
    expected = 1.0 + (4 * d0 ** 2 * nbar + 4 * nbar ** 2) / (d0 ** 2 + 2 * nbar) ** 2
    rng = np.random.default_rng(71)
    field = sample_source_field(SourceParams(nbar=nbar, d0=d0), np.zeros(10 ** 6), rng)
    assert abs(g2(np.abs(field) ** 2, 0) - expected) < bar

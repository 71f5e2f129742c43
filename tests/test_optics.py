import numpy as np
import pytest

from thermalqkd import kernels
from thermalqkd.infotheory import g2
from thermalqkd.modem import SYMBOL_PHASES
from thermalqkd.optics import (SourceParams, apply_beamsplitter, draw_detector_noise,
                               heterodyne, joint_covariance_oracle, sample_source_field)
from thermalqkd.selftest import _source_at_phase_zero


def test_source_params_rejects_negative():
    with pytest.raises(ValueError):
        SourceParams(nbar=-1.0, d0=0.0)
    with pytest.raises(ValueError):
        SourceParams(nbar=1.0, d0=-2.0)


def test_source_field_noiseless_is_pure_displacement():
    params = SourceParams(nbar=0.0, d0=1.0)
    rng = np.random.default_rng(0)
    re, im = sample_source_field(params, [0.0], [0], rng)
    assert (re.tobytes(), im.tobytes()) == (np.array([1.0]).tobytes(), np.array([0.0]).tobytes())


def test_source_field_thermal_variance():
    # Monte Carlo consistency: per-quadrature variance of the fluctuation is nbar.
    rng = np.random.default_rng(42)
    re, im = _source_at_phase_zero(2.0, 0.0, 10 ** 6, rng)
    assert abs(re.var() - 2.0) < 0.02
    assert abs(im.var() - 2.0) < 0.02


def test_source_field_displaced_mean():
    rng = np.random.default_rng(7)
    re, im = sample_source_field(SourceParams(nbar=2.0, d0=3.0), [0.1, np.pi / 2],
                                 np.ones(10 ** 6, dtype=np.uint8), rng)
    assert abs(re.mean() - 0.0) < 0.01
    assert abs(im.mean() - 3.0) < 0.01


@pytest.mark.parametrize("nbar, d0", [(60.0, 40.0), (0.0, 40.0), (60.0, 0.0), (1e-300, 0.0)])
def test_source_table_matches_per_symbol_exp_byte_for_byte(nbar, d0):
    # The phase table gathered by the symbols and added part by part to the
    # draws, made a block at a time, gives the bytes of the parts of the
    # per-symbol expression over one whole draw, with a coherent source, a
    # thermal one and a thermal one so faint that its draws round to zero,
    # in one block and in three.
    for n in (20_001, 2 * kernels.BLOCK + 1):
        syms = np.random.default_rng(1).integers(0, 4, n).astype(np.uint8)
        params = SourceParams(nbar=nbar, d0=d0)
        rng = np.random.default_rng(3)
        fluct = rng.normal(0.0, 1.0, syms.shape + (2,)) * np.sqrt(nbar)
        expect = d0 * np.exp(1j * SYMBOL_PHASES[syms]) + fluct[..., 0] + 1j * fluct[..., 1]
        got = sample_source_field(params, SYMBOL_PHASES, syms, np.random.default_rng(3))
        for part, want in zip(got, (expect.real, expect.imag)):
            assert part.dtype == want.dtype and part.shape == want.shape, n
            assert part.flags.c_contiguous and part.tobytes() == want.tobytes(), n


def test_dark_source_differs_from_per_symbol_exp_only_in_zero_signs():
    # With d0 = nbar = 0 every amplitude is zero, and the per-symbol
    # expression's later adds can flip the sign of a zero part by the sign
    # of a draw for the other part, which one add per part cannot copy. The
    # unit detection noise of every receiver absorbs the sign, so a run's
    # bytes do not change (tests/test_golden_arrays.py, "dark-source").
    syms = np.random.default_rng(1).integers(0, 4, 20_001).astype(np.uint8)
    rng = np.random.default_rng(3)
    fluct = rng.normal(0.0, 1.0, syms.shape + (2,)) * 0.0
    expect = 0.0 * np.exp(1j * SYMBOL_PHASES[syms]) + fluct[..., 0] + 1j * fluct[..., 1]
    got = sample_source_field(SourceParams(0.0, 0.0), SYMBOL_PHASES, syms,
                              np.random.default_rng(3))
    assert not np.any(got) and not np.any(expect)


def test_a_scalar_symbol_gives_a_zero_d_field():
    re, im = sample_source_field(SourceParams(nbar=0.0, d0=2.0), [np.pi / 2], 0,
                                 np.random.default_rng(0))
    assert re.shape == im.shape == () and abs(re) < 1e-15 and im == 2.0


def test_heterodyne_matches_strided_adds_byte_for_byte():
    # Adding each quadrature of the noise into the field's part gives the
    # bytes of the per-quadrature sums, signed zeros included; the field's
    # arrays become the quadratures and the noise is left as it was.
    rng = np.random.default_rng(8)
    re, im = rng.normal(size=5000), rng.normal(size=5000)
    re[::7] = -0.0
    im[::11] = -0.0
    for var in (1.0, 0.0):
        w = rng.normal(0.0, 1.0, re.shape + (2,)) * np.sqrt(var)
        kept = w.copy()
        expect = (re + w[..., 0], im + w[..., 1])
        field = (re.copy(), im.copy())
        got = heterodyne(field, w)
        assert got[0] is field[0] and got[1] is field[1]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expect], var
        assert w.tobytes() == kept.tobytes()


def _intensity(field):
    re, im = field
    return re * re + im * im


def test_beamsplitter_identity_and_split():
    out1, out2 = apply_beamsplitter((1.0, 0.0), 1.0)
    assert out1 == (1.0, 0.0) and out2 == (0.0, 0.0)
    out1, out2 = apply_beamsplitter((1.0, 0.0), 0.5)
    assert out1 == pytest.approx((0.70710678118654752, 0.0), abs=1e-12)
    assert out2 == pytest.approx((0.70710678118654752, 0.0), abs=1e-12)


def test_beamsplitter_conserves_intensity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=500), rng.normal(size=500)
    for t in (0.0, 0.17, 0.5, 0.83, 1.0):
        o1, o2 = apply_beamsplitter(a, t)
        np.testing.assert_allclose(_intensity(o1) + _intensity(o2), _intensity(a), atol=1e-12)


def test_beamsplitter_parts_are_the_complex_products():
    # Each part of a port is the matching part of the complex product by
    # the real amplitude, byte for byte, away from exact zeros.
    rng = np.random.default_rng(4)
    re, im = rng.normal(size=1000), rng.normal(size=1000)
    for t in (0.17, 0.5, 0.83):
        ports = apply_beamsplitter((re, im), t)
        for (got_re, got_im), scale in zip(ports, (np.sqrt(t), np.sqrt(1.0 - t))):
            want = scale * (re + 1j * im)
            assert got_re.tobytes() == want.real.tobytes()
            assert got_im.tobytes() == want.imag.tobytes()


def test_beamsplitter_rejects_bad_transmittance():
    with pytest.raises(ValueError):
        apply_beamsplitter((1.0, 0.0), 1.1)
    with pytest.raises(ValueError):
        apply_beamsplitter((1.0, 0.0), -0.1)


def test_beamsplitter_vacuum_port_limits_and_conservation():
    # The eavesdropper tap: Bob keeps sqrt(T) of the broadcast, Eve takes
    # sqrt(1-T), and the second input port is vacuum (zero amplitude).
    rng = np.random.default_rng(10)
    stream = rng.normal(size=200), rng.normal(size=200)
    bob, eve = apply_beamsplitter(stream, 1.0)
    assert np.array_equal(bob, stream)
    assert np.array_equal(eve, np.zeros((2, 200)))
    bob, eve = apply_beamsplitter((np.full(5, 1.0), np.zeros(5)), 0.5)
    np.testing.assert_allclose(bob, [np.full(5, np.sqrt(0.5)), np.zeros(5)], atol=1e-14)
    np.testing.assert_allclose(eve, [np.full(5, np.sqrt(0.5)), np.zeros(5)], atol=1e-14)
    bob, eve = apply_beamsplitter(stream, 0.37)
    np.testing.assert_allclose(_intensity(bob) + _intensity(eve), _intensity(stream),
                               atol=1e-12)
    with pytest.raises(ValueError):
        apply_beamsplitter(stream, -0.1)


def test_heterodyne_noiseless_and_moments():
    rng = np.random.default_rng(5)
    assert heterodyne((np.array(1.0), np.array(1.0)),
                      draw_detector_noise(0.0, (), rng)) == (1.0, 1.0)
    x, p = heterodyne((np.zeros(10 ** 6), np.zeros(10 ** 6)),
                      draw_detector_noise(1.0, (10 ** 6,), rng))
    assert abs(x.var() - 1.0) < 0.01
    assert abs(p.var() - 1.0) < 0.01
    x, p = heterodyne((np.full(10 ** 6, 5.0), np.zeros(10 ** 6)),
                      draw_detector_noise(1.0, (10 ** 6,), rng))
    assert abs(x.mean() - 5.0) < 0.01
    assert abs(p.mean()) < 0.01
    with pytest.raises(ValueError):
        draw_detector_noise(-0.5, (), rng)


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
    field = _source_at_phase_zero(nbar, d0, n, rng)
    alice, broadcast = apply_beamsplitter(field, 0.5)
    bob, eve = apply_beamsplitter(broadcast, t_eve)
    rows = []
    for arm, (eta, noise) in zip((alice, bob, eve), links):
        x, p = heterodyne([np.sqrt(eta) * part for part in arm],
                          draw_detector_noise(noise, (n,), rng))
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
    field = _source_at_phase_zero(5.0, 0.0, 10 ** 6, rng)
    x, p = heterodyne(field, draw_detector_noise(1.0, (10 ** 6,), rng))
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
    field = _source_at_phase_zero(nbar, d0, 10 ** 6, rng)
    assert abs(g2(np.hypot(*field) ** 2, 0) - expected) < bar

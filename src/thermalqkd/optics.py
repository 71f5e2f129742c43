"""Displaced-thermal field sampling, beam splitting and heterodyne detection.

Conventions (shot-noise units): the vacuum state has identity covariance,
a thermal state with mean photon number ``nbar`` has covariance
``(2*nbar + 1) * I``, and its sampled field amplitude carries a circular
complex Gaussian fluctuation with per-quadrature variance ``nbar``.
Heterodyne detection adds one vacuum unit of noise per quadrature by
default. Field amplitudes are plain complex numbers; streams of symbols are
1-D complex128 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SourceParams:
    """Displaced-thermal source: thermal photon number and ring radius.

    ``d0`` is the cluster-ring radius in field (heterodyne-output) units, the
    units in which the thermal fluctuation has per-quadrature variance
    ``nbar``. The coherent photon number is ``d0**2 / 2``; the thermal photon
    number is ``nbar``.
    """

    nbar: float
    d0: float

    def __post_init__(self):
        # pearson_r multiplies two sums of n squares of order nbar; 1e12 keeps that finite.
        if not 0.0 <= self.nbar <= 1e12:
            raise ValueError(f"nbar must be in [0, 1e12], got {self.nbar}")
        # pearson_r centres z ~ d0 over unit detection noise; 1e6 costs <= 6 of 16 digits.
        if not 0.0 <= self.d0 <= 1e6:
            raise ValueError(f"d0 must be in [0, 1e6], got {self.d0}")


def sample_source_field(params: SourceParams, symbol_phase, rng):
    """Sample the displaced-thermal field d0*e^{i*phase} + s.

    ``s`` is circular complex Gaussian with per-quadrature variance
    ``params.nbar``, so E|s|^2 = 2*nbar. ``d0`` is in the same field units:
    the coherent photon number is ``d0**2 / 2`` and the thermal photon number
    is ``nbar``. The result is a complex array of ``symbol_phase``'s shape.
    """
    phase = np.asarray(symbol_phase, dtype=float)
    sigma = np.sqrt(params.nbar)
    fluct = rng.normal(0.0, 1.0, phase.shape + (2,)) * sigma
    return params.d0 * np.exp(1j * phase) + fluct[..., 0] + 1j * fluct[..., 1]


def apply_beamsplitter(a, b, transmittance: float):
    """Two-port beam splitter with the real orthogonal convention.

    out1 = sqrt(T)*a + sqrt(1-T)*b, out2 = sqrt(1-T)*a - sqrt(T)*b.
    A vacuum port is the zero amplitude. Accepts scalars or arrays.
    """
    if not (0.0 <= transmittance <= 1.0):
        raise ValueError(f"transmittance must be in [0, 1], got {transmittance}")
    t = np.sqrt(transmittance)
    r = np.sqrt(1.0 - transmittance)
    return t * a + r * b, r * a - t * b


def heterodyne(a, noise_var: float, rng):
    """Heterodyne outcome (re(a) + wx, im(a) + wp), noise variance per quadrature."""
    if not (np.isfinite(noise_var) and noise_var >= 0):
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    field = np.asarray(a, dtype=complex)
    sigma = np.sqrt(noise_var)
    w = rng.normal(0.0, 1.0, field.shape + (2,)) * sigma
    x = field.real + w[..., 0]
    p = field.imag + w[..., 1]
    return x, p


def joint_covariance_oracle(links, nbar: float, eve_transmittance: float = 0.5) -> np.ndarray:
    """Analytic 6x6 covariance of (x_A, p_A, x_B, p_B, x_E, p_E).

    ``links`` is a sequence of three ``(transmittance, noise_var)`` pairs for
    Alice, Bob and Eve. The network is: source -> 50:50 splitter (Alice |
    broadcast) -> tap of transmittance ``eve_transmittance`` (Bob | Eve) ->
    per-party attenuation -> heterodyne with the given added noise.

    The thermal fluctuation has per-quadrature variance ``nbar`` and is
    common to all arms, so cov(x_i, x_j) = c_i * c_j * nbar where c_i is the
    net amplitude gain from source to detector, plus the detection noise on
    the diagonal. Used to cross-validate the Monte Carlo sampler.
    """
    if len(links) != 3:
        raise ValueError("links must list (transmittance, noise_var) for A, B, E")
    if not (0.0 <= eve_transmittance <= 1.0):
        raise ValueError(f"eve_transmittance must be in [0, 1], got {eve_transmittance}")
    if not (np.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    etas = []
    noises = []
    for i, (eta, nv) in enumerate(links):
        if not (0.0 <= eta <= 1.0):
            raise ValueError(f"link {i} transmittance must be in [0, 1], got {eta}")
        if nv < 0:
            raise ValueError(f"link {i} noise_var must be >= 0, got {nv}")
        etas.append(eta)
        noises.append(nv)
    t_eve = eve_transmittance
    gains = np.array([
        np.sqrt(0.5 * etas[0]),
        np.sqrt(0.5 * t_eve * etas[1]),
        np.sqrt(0.5 * (1.0 - t_eve) * etas[2]),
    ])
    cov = np.zeros((6, 6))
    for i in range(3):
        for j in range(3):
            shared = gains[i] * gains[j] * nbar
            cov[2 * i, 2 * j] += shared
            cov[2 * i + 1, 2 * j + 1] += shared
    for i in range(3):
        cov[2 * i, 2 * i] += noises[i]
        cov[2 * i + 1, 2 * i + 1] += noises[i]
    return cov

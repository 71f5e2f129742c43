"""Displaced-thermal field sampling, beam splitting and heterodyne detection.

Conventions (shot-noise units): the vacuum state has identity covariance,
a thermal state with mean photon number ``nbar`` has covariance
``(2*nbar + 1) * I``, and its sampled field amplitude carries a circular
complex Gaussian fluctuation with per-quadrature variance ``nbar``.
Heterodyne detection adds the noise variance it is given per quadrature.
A run's receivers add one vacuum unit (``harness.DETECTION_NOISE_VAR``),
but not through ``heterodyne``: nothing acts between a link's receiver
noise and the detector's, so a run draws the two as one circular Gaussian
of variance ``1 + rx_noise_var`` per quadrature, inside the channel's noise
scale (``channels.apply_channel``). ``heterodyne`` and
``draw_detector_noise`` detect fields that cross no channel, as the
sampler checks do. A field is a pair ``(re, im)`` of float64 arrays of one
shape, the real and imaginary parts of its amplitudes, from the source
through the splitters and the channel, or the heterodyne; it becomes
complex nowhere. Every beam splitter's second input is vacuum, the zero
amplitude in this positive-P sampling, so a splitter takes one input.

Random draws are made into float64 arrays of shape ``(..., 2)``, one
``(re, im)`` pair per amplitude, as a complex draw would be laid out. The
source draws its fluctuation ``kernels.BLOCK`` symbols at a time and adds
the displacement part by part into its planar result; the heterodyne adds
each quadrature of its noise into the field's part, which it consumes.
``x + y`` is ``y + x`` in IEEE arithmetic, so each sum equals the
per-quadrature one of a complex temporary. A complex product by a real
scale also multiplies the other part by zero, which the planar product
does not, so the two differ at most in the sign of an exact zero. The
source's displacement is a table of one entry per symbol phase, gathered
by the symbols. Detection noise is drawn apart from the field it is added
to (``draw_detector_noise``), so one draw can serve several fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels


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
        # pearson_rs multiplies two sums of n squares of order nbar; 1e12 keeps that finite.
        if not 0.0 <= self.nbar <= 1e12:
            raise ValueError(f"nbar must be in [0, 1e12], got {self.nbar}")
        # pearson_rs centres z ~ d0 over unit detection noise; 1e6 costs <= 6 of 16 digits.
        if not 0.0 <= self.d0 <= 1e6:
            raise ValueError(f"d0 must be in [0, 1e6], got {self.d0}")


def sample_source_field(params: SourceParams, phases, symbols, rng):
    """Sample the displaced-thermal field d0*e^{i*phases[symbols]} + s.

    ``s`` is circular complex Gaussian with per-quadrature variance
    ``params.nbar``, so E|s|^2 = 2*nbar. ``d0`` is in the same field units:
    the coherent photon number is ``d0**2 / 2`` and the thermal photon number
    is ``nbar``. ``phases`` is a short table and ``symbols`` indexes it; the
    result is the field ``(re, im)``, two arrays of ``symbols``' shape. The
    draws are those of one ``(..., 2)`` draw, made ``kernels.BLOCK`` symbols
    at a time. Each part is the sum of the same two terms as the part of
    ``d0*np.exp(1j*phase) + s``, bit for bit, except that the sign of an
    exact zero may differ when both ``d0`` and ``nbar`` are 0.
    """
    symbols = np.asarray(symbols)
    table = params.d0 * np.exp(1j * np.asarray(phases, dtype=float))
    sd = np.sqrt(params.nbar)
    flat = symbols.reshape(-1)
    re, im = np.empty(flat.shape), np.empty(flat.shape)
    for lo in range(0, flat.size, kernels.BLOCK):
        hi = min(lo + kernels.BLOCK, flat.size)
        fluct = rng.normal(0.0, 1.0, (hi - lo, 2))
        fluct *= sd
        block = flat[lo:hi]
        np.add(fluct[:, 0], table.real[block], out=re[lo:hi])
        np.add(fluct[:, 1], table.imag[block], out=im[lo:hi])
    return re.reshape(symbols.shape), im.reshape(symbols.shape)


def apply_beamsplitter(a, transmittance: float):
    """Beam splitter with vacuum at its second input: the through-port and
    reflected fields ``(sqrt(T)*a, sqrt(1-T)*a)`` of the field ``a = (re,
    im)``, each a new ``(re, im)`` pair. The parts may be scalars or arrays.
    """
    if not (0.0 <= transmittance <= 1.0):
        raise ValueError(f"transmittance must be in [0, 1], got {transmittance}")
    re, im = a
    through, reflected = np.sqrt(transmittance), np.sqrt(1.0 - transmittance)
    return (through * re, through * im), (reflected * re, reflected * im)


def draw_detector_noise(noise_var: float, shape, rng):
    """Heterodyne noise for a field of ``shape``: an array of ``shape + (2,)``
    holding ``(wx, wp)`` pairs, variance ``noise_var`` per quadrature."""
    if not (np.isfinite(noise_var) and noise_var >= 0):
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    w = rng.normal(0.0, 1.0, tuple(shape) + (2,))
    w *= np.sqrt(noise_var)
    return w


def heterodyne(field, noise):
    """Heterodyne outcome ``(x, p) = (re + wx, im + wp)`` of the field
    ``(re, im)``, two float64 arrays.

    ``noise`` comes from ``draw_detector_noise`` for the field's shape and
    is only read, so one draw can serve several fields. The field is
    consumed: each quadrature of the noise is added into its part in place,
    and ``x`` and ``p`` are its arrays.
    """
    x, p = field
    x += noise[..., 0]
    p += noise[..., 1]
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

"""Link impairments: loss, delay, phase drift with hops, echo taps, noise.

The composite channel acting on a symbol stream is

    out[t] = sqrt(T) * e^{i*theta(t)} * in[t - delay]
             + sum_taps amp_k * e^{i*phase_k} * sqrt(T) * in[t - delay - d_k]
             + w(t)

where theta(t) is a Gaussian random walk with occasional hops and w(t) is
circular Gaussian noise with per-quadrature variance rx_noise_var, plus
whatever noise the receiving detector adds (``apply_channel``'s
``detector_noise_var``): nothing acts between the two, so they are one draw.
Out-of-range history reads as vacuum (zero amplitude). An active drift
process (walk_sigma > 0 or hop_prob > 0) starts from a uniformly random
carrier offset in [0, 2*pi); an inactive one keeps theta identically zero so
that identity parameters reproduce the input exactly.

RNG consumption is independent of parameter values: a channel always draws
the same number of variates for a given stream length, so frozen-seed
comparisons across parameter changes stay sample-aligned. The draws
(``draw_channel``) read no field and of the link only its drift: the noise
is drawn at unit variance and scaled by the combine (``apply_channel``) that
applies the draws to the link's input. So links that differ only in loss,
delay, taps or noise level can share one set of draws. Fields are planar
``(re, im)`` pairs (see ``optics``); the combine builds the received field
in the draws' cosines and sines and only reads the noise. A link's input
is a beam splitter port, which the combine makes from the source field and
the port's chain of amplitudes a block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels


@dataclass(frozen=True)
class TapSpec:
    """One echo: a delayed, attenuated, phase-shifted copy of the main path."""

    delay: int
    amplitude: float
    phase: float

    def __post_init__(self):
        if int(self.delay) != self.delay or self.delay < 1:
            raise ValueError(f"tap delay must be an integer >= 1, got {self.delay}")
        if not (0.0 <= self.amplitude < 1.0):
            raise ValueError(f"tap amplitude must be in [0, 1), got {self.amplitude}")
        if not np.isfinite(self.phase):
            raise ValueError("tap phase must be finite")


@dataclass(frozen=True)
class PhaseDriftParams:
    walk_sigma: float = 0.0   # rad per sqrt(symbol)
    hop_prob: float = 0.0     # per symbol
    hop_scale: float = 0.0    # rad per hop

    def __post_init__(self):
        # theta sums n steps of a few walk_sigma plus hop_scale: 1e6 rad keeps it finite.
        if not 0.0 <= self.walk_sigma <= 1e6:
            raise ValueError(f"walk_sigma must be in [0, 1e6], got {self.walk_sigma}")
        if not (0.0 <= self.hop_prob <= 1.0):
            raise ValueError(f"hop_prob must be in [0, 1], got {self.hop_prob}")
        if not 0.0 <= self.hop_scale <= 1e6:
            raise ValueError(f"hop_scale must be in [0, 1e6], got {self.hop_scale}")

    @property
    def active(self) -> bool:
        return self.walk_sigma > 0 or self.hop_prob > 0


@dataclass(frozen=True)
class ChannelParams:
    transmittance: float = 1.0
    delay: int = 0
    drift: PhaseDriftParams = field(default_factory=PhaseDriftParams)
    taps: tuple[TapSpec, ...] = ()
    rx_noise_var: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.transmittance <= 1.0):
            raise ValueError(f"transmittance must be in [0, 1], got {self.transmittance}")
        if int(self.delay) != self.delay or self.delay < 0:
            raise ValueError(f"delay must be an integer >= 0, got {self.delay}")
        # pearson_rs multiplies two sums of n squares of order rx_noise_var; 1e12 keeps that finite.
        if not 0.0 <= self.rx_noise_var <= 1e12:
            raise ValueError(f"rx_noise_var must be in [0, 1e12], got {self.rx_noise_var}")
        object.__setattr__(self, "taps", tuple(self.taps))

    @property
    def max_history(self) -> int:
        """Deepest index the channel reaches back into its input."""
        tap_max = max((t.delay for t in self.taps), default=0)
        return self.delay + tap_max


def sample_phase_walk(drift: PhaseDriftParams, n: int, rng) -> np.ndarray:
    """Phase trajectory theta(t) for one stream of length n.

    Every hop draw is made for all n symbols, but a hop's step is added
    only where one occurs. The other symbols would add a signed zero, which
    changes at most the sign of an exact zero in the sum, and adding the
    carrier offset (or 0.0 for an inactive walk) after the cumsum absorbs
    it.
    """
    theta0 = rng.uniform(0.0, 2.0 * np.pi)
    inc = rng.normal(0.0, 1.0, n)
    inc *= drift.walk_sigma
    hop_u = rng.random(n)
    hop_sign = rng.integers(0, 2, n)
    hops = np.flatnonzero(hop_u < drift.hop_prob)
    del hop_u
    inc[hops] += drift.hop_scale * (2.0 * hop_sign[hops] - 1.0)
    np.cumsum(inc, out=inc)
    inc += (theta0 if drift.active else 0.0)
    return inc


def draw_channel(drift: PhaseDriftParams, n: int, rng):
    """A link's draws for ``n`` symbols: ``(cos theta, sin theta, noise)``.

    Reads no field and of the link only ``drift``, so it can run before the
    link's input is known. ``noise`` holds one unit-variance ``(re, im)``
    pair per symbol.
    """
    theta = sample_phase_walk(drift, n, rng)
    noise = rng.normal(0.0, 1.0, (n, 2))
    cos_t = np.cos(theta)
    return cos_t, np.sin(theta, out=theta), noise


def apply_channel(stream, params: ChannelParams, drawn, detector_noise_var: float = 0.0,
                  chain=()):
    """Apply the composite impairment model to the port that is the field
    ``stream = (re, im)`` times each amplitude of ``chain`` in turn (the
    beam splitters between the field and the link), with the link's draws
    ``drawn`` from ``draw_channel``. Returns the received field ``(re,
    im)``, built in the draws' cosines and sines, which it consumes; the
    field and the noise are only read, the port is made block by block in
    the combine, and the noise is scaled there to ``sqrt(detector_noise_var
    + rx_noise_var)``: the link's noise and the detector's, as one circular
    Gaussian."""
    re, im = (np.ascontiguousarray(part, dtype=float) for part in stream)
    if re.ndim != 1 or re.size == 0 or im.shape != re.shape:
        raise ValueError("stream must be a nonempty 1-D field (re, im) of one shape")
    cos_t, sin_t, noise = drawn
    if cos_t.shape != re.shape:
        raise ValueError(f"draws cover {cos_t.size} symbols, the stream {re.size}")
    amp = np.sqrt(params.transmittance)
    tap_delays = np.array([t.delay for t in params.taps], dtype=np.int64)
    tap_cr = np.array([t.amplitude * np.cos(t.phase) * amp for t in params.taps])
    tap_ci = np.array([t.amplitude * np.sin(t.phase) * amp for t in params.taps])
    return kernels.channel_combine(re, im, tuple(chain), amp, int(params.delay), cos_t, sin_t,
                                   tap_delays, tap_cr, tap_ci, noise,
                                   np.sqrt(detector_noise_var + params.rx_noise_var))

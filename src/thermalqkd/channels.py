"""Link impairments: loss, delay, phase drift with hops, echo taps, noise.

The composite channel acting on a symbol stream is

    out[t] = sqrt(T) * e^{i*theta(t)} * in[t - delay]
             + sum_taps amp_k * e^{i*phase_k} * sqrt(T) * in[t - delay - d_k]
             + w(t)

where theta(t) is a Gaussian random walk with occasional hops and w(t) is
circular Gaussian receiver noise with per-quadrature variance rx_noise_var.
Out-of-range history reads as vacuum (zero amplitude). An active drift
process (walk_sigma > 0 or hop_prob > 0) starts from a uniformly random
carrier offset in [0, 2*pi); an inactive one keeps theta identically zero so
that identity parameters reproduce the input exactly.

RNG consumption is independent of parameter values: a channel always draws
the same number of variates for a given stream length, so frozen-seed
comparisons across parameter changes stay sample-aligned.
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
        # pearson_r multiplies two sums of n squares of order rx_noise_var; 1e12 keeps that finite.
        if not 0.0 <= self.rx_noise_var <= 1e12:
            raise ValueError(f"rx_noise_var must be in [0, 1e12], got {self.rx_noise_var}")
        object.__setattr__(self, "taps", tuple(self.taps))

    @property
    def max_history(self) -> int:
        """Deepest index the channel reaches back into its input."""
        tap_max = max((t.delay for t in self.taps), default=0)
        return self.delay + tap_max


def sample_phase_walk(drift: PhaseDriftParams, n: int, rng) -> np.ndarray:
    """Phase trajectory theta(t) for one stream of length n."""
    theta0 = rng.uniform(0.0, 2.0 * np.pi)
    inc = rng.normal(0.0, 1.0, n)
    inc *= drift.walk_sigma
    hop_u = rng.random(n)
    hop_sign = rng.integers(0, 2, n).astype(float)
    hop_sign *= 2.0
    hop_sign -= 1.0
    inc += (hop_u < drift.hop_prob) * drift.hop_scale * hop_sign
    np.cumsum(inc, out=inc)
    inc += (theta0 if drift.active else 0.0)
    return inc


def apply_channel(stream, params: ChannelParams, rng) -> np.ndarray:
    """Apply the composite impairment model to a complex symbol stream."""
    src = np.ascontiguousarray(stream, dtype=complex)
    if src.ndim != 1 or src.size == 0:
        raise ValueError("stream must be a nonempty 1-D sequence of amplitudes")
    n = src.size
    theta = sample_phase_walk(params.drift, n, rng)
    noise = rng.normal(0.0, 1.0, (n, 2))
    noise *= np.sqrt(params.rx_noise_var)
    amp = np.sqrt(params.transmittance)
    tap_delays = np.array([t.delay for t in params.taps], dtype=np.int64)
    tap_cr = np.array([t.amplitude * np.cos(t.phase) * amp for t in params.taps])
    tap_ci = np.array([t.amplitude * np.sin(t.phase) * amp for t in params.taps])
    cos_t = np.cos(theta)
    sin_t = np.sin(theta, out=theta)
    return kernels.channel_combine(src, amp, int(params.delay), cos_t, sin_t,
                                   tap_delays, tap_cr, tap_ci, noise)


def make_waveguide_preset(**overrides) -> ChannelParams:
    """Low-loss guided link: tiny drift, rare hops, one faint ghost tap.

    Keyword overrides replace individual fields; the defaults are the
    starting point the calibration search perturbs.
    """
    defaults = dict(
        transmittance=0.9,
        delay=0,
        drift=PhaseDriftParams(walk_sigma=2e-4, hop_prob=1e-5, hop_scale=0.2),
        taps=(TapSpec(delay=12, amplitude=0.02, phase=0.6),),
        rx_noise_var=0.1,
    )
    defaults.update(overrides)
    return ChannelParams(**defaults)


def make_freespace_preset(**overrides) -> ChannelParams:
    """Lossy broadcast link: larger drift, several multipath taps, more noise."""
    defaults = dict(
        transmittance=0.25,
        delay=0,
        drift=PhaseDriftParams(walk_sigma=8e-4, hop_prob=5e-5, hop_scale=0.35),
        taps=(TapSpec(delay=3, amplitude=0.05, phase=1.9),
              TapSpec(delay=7, amplitude=0.035, phase=-2.4),
              TapSpec(delay=19, amplitude=0.02, phase=0.7)),
        rx_noise_var=1.0,
    )
    defaults.update(overrides)
    return ChannelParams(**defaults)

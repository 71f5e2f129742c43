"""A run's intensity correlations and folded means against closed forms.

Each party's heterodyne outcome is a circular complex Gaussian around
``g_i * d0 * e^{i phi}``, where the power gains from source to detector are
g_A^2 = T_A/2, g_B^2 = t*T_B/2 and g_E^2 = (1-t)*T_E/2 with
t = ``eve_transmittance`` (the tap's through-port goes to Bob). With
C_i = 2*nbar*g_i^2 + 2*(1 + rx_noise_var_i), the intensities I = z^2 have

    cov(I_i, I_j) = 4*nbar*g_i^2*g_j^2*(nbar + d0^2)
    var(I_i)      = C_i^2 + 2*g_i^2*d0^2*C_i

Phase drift does not enter: each intensity is invariant under its party's
own rotation, and the noise is circular. Echo taps do enter, so every link
here is tap-free. A wrong delay pairs unrelated symbols and a swapped tap
port swaps Bob's and Eve's gains; either moves a correlation far past the
bar.
"""

import dataclasses

import numpy as np
import pytest

from thermalqkd.channels import PhaseDriftParams
from thermalqkd.harness import PARTIES, SCENARIO_PRESETS, run_scenario
from thermalqkd.infotheory import pearson_rs

N_SYMBOLS = 200_000

# Over seeds 0-11 of every case at 200k symbols, the largest per-case SD
# of (measured - predicted) was 2.1e-3 and the largest deviation 4.2e-3.
R_BAR = 0.01

# Bar on the folded means, in standard errors. Over the same seeds their
# deviations had SDs of 0.8-1.3 SE and reached 2.9 SE.
MEAN_BAR = 4.0


def _power_gains(cfg):
    t = cfg.eve_transmittance
    return {"alice": cfg.alice_link.transmittance / 2,
            "bob": t * cfg.bob_link.transmittance / 2,
            "eve": (1 - t) * cfg.eve_link.transmittance / 2}


def _intensity_r(cfg):
    """Predicted Pearson r of (z_i^2, z_j^2) for each pair of parties."""
    nbar, d0 = cfg.source.nbar, cfg.source.d0
    g2 = _power_gains(cfg)
    c = {k: 2 * nbar * g2[k] + 2 * (1 + getattr(cfg, f"{k}_link").rx_noise_var) for k in PARTIES}
    var = {k: c[k] ** 2 + 2 * g2[k] * d0 ** 2 * c[k] for k in PARTIES}
    return {(i, j): 4 * nbar * g2[i] * g2[j] * (nbar + d0 ** 2) / np.sqrt(var[i] * var[j])
            for i, j in (("alice", "bob"), ("bob", "eve"), ("alice", "eve"))}


def _links(cfg, **changes):
    return {f"{k}_link": dataclasses.replace(getattr(cfg, f"{k}_link"), **changes)
            for k in PARTIES}


def _tap_free(preset, seed):
    cfg = SCENARIO_PRESETS[preset](seed=seed, n_symbols=N_SYMBOLS, ad_block=None)
    return dataclasses.replace(cfg, **_links(cfg, taps=()))


def _edit(cfg, link, **changes):
    return dataclasses.replace(
        cfg, **{link: dataclasses.replace(getattr(cfg, link), **changes)})


def _cases(seed=1):
    free, wave = _tap_free("freespace", seed), _tap_free("waveguide", seed)
    deep = N_SYMBOLS // 8   # the deepest delay a link may have

    def still(cfg):
        # 1000 pilots per segment make the fold's bias on the x mean,
        # g*d0*(phase error variance)/2, about a tenth of its SE.
        return dataclasses.replace(cfg, pilot_len=1000, **_links(cfg, drift=PhaseDriftParams()))

    return {
        "through-port-0.1": dataclasses.replace(free, eve_transmittance=0.1),
        "through-port-0.9": dataclasses.replace(free, eve_transmittance=0.9),
        "waveguide": wave,
        "low-transmittance": _edit(free, "bob_link", transmittance=0.02),
        "high-rx-noise": _edit(free, "eve_link", rx_noise_var=30.0),
        "largest-delays": dataclasses.replace(free, **{
            link: dataclasses.replace(getattr(free, link), delay=deep - i)
            for i, link in enumerate(("bob_link", "eve_link", "alice_link"))}),
        "hop-every-symbol": dataclasses.replace(
            free, **_links(free, drift=PhaseDriftParams(hop_prob=1.0, hop_scale=0.003))),
        "no-drift-freespace": still(free),
        "no-drift-waveguide": still(wave),
    }


def _deviations(cfg):
    """The run's alignment, its intensity-correlation deviations from the
    oracle, and, with drift off, its folded means' deviations in SEs."""
    art = run_scenario(cfg)
    z2 = {k: art.parties[k].z ** 2 for k in PARTIES}
    r_dev = {pair: pearson_rs(z2[pair[0]], z2[pair[1]])[0, 1] - want
             for pair, want in _intensity_r(cfg).items()}
    mean_dev = {}
    if not any(getattr(cfg, f"{k}_link").drift.active for k in PARTIES):
        # Each segment's pilot phase has error variance sigma^2/(g^2 d0^2 L)
        # over L pilots, which spreads the folded p mean across segments.
        segments = np.unique(art.index // cfg.coherence_len).size
        for k, g2 in _power_gains(cfg).items():
            rec = art.parties[k]
            sigma2 = cfg.source.nbar * g2 + 1 + getattr(cfg, f"{k}_link").rx_noise_var
            se_x = np.sqrt(sigma2 / rec.x.size)
            se_p = np.sqrt(sigma2 * (1 / (cfg.pilot_len * segments) + 1 / rec.p.size))
            mean_dev[k] = ((rec.x.mean() - np.sqrt(g2) * cfg.source.d0) / se_x,
                           rec.p.mean() / se_p)
    return art.alignment, r_dev, mean_dev


@pytest.mark.parametrize("case", sorted(_cases()))
def test_run_matches_intensity_oracle(case):
    cfg = _cases()[case]
    alignment, r_dev, mean_dev = _deviations(cfg)
    assert {k: alignment[k].lag for k in PARTIES} == \
        {k: getattr(cfg, f"{k}_link").delay for k in PARTIES}
    assert all(abs(d) < R_BAR for d in r_dev.values()), r_dev
    assert all(abs(x) < MEAN_BAR and abs(p) < MEAN_BAR for x, p in mean_dev.values()), mean_dev

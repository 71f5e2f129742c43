"""Every output array of the presets, pinned byte for byte.

Each run's digest covers each party's ``x``, ``p``, ``z`` and ``bits``, the
common ``index``, both distilled keys and ``report.to_json()``, in that
order, each with its dtype and shape. A change of any digest is a
reproducibility break and must be announced, never re-pinned quietly.
"""

import hashlib

import pytest

from thermalqkd.config import set_config_value
from thermalqkd.harness import SCENARIO_PRESETS, run_scenario, waveguide_scenario

SEEDS = (0, 1, 7, 109)
SIZES = (20_000, 100_000)


def _run_digest(art) -> str:
    arrays = [(f"{name}.{col}", getattr(art.parties[name], col))
              for name in ("alice", "bob", "eve") for col in ("x", "p", "z", "bits")]
    arrays += [("index", art.index), ("alice_key", art.distilled["alice_key"]),
               ("bob_key", art.distilled["bob_key"])]
    h = hashlib.sha256()
    for label, a in arrays:
        h.update(f"{label}:{a.dtype.str}:{a.shape}:".encode())
        h.update(a.tobytes())
    h.update(art.report.to_json().encode("utf-8"))
    return h.hexdigest()


# (preset, seed, n_symbols) -> digest, all at ad_block=2.
GOLDEN_ARRAYS = {
    ("freespace", 0, 20000): "8dacf0f09f434e657d79f9dfc2b6c19cb56078698a0baf6de63aa36213e2cb82",
    ("freespace", 0, 100000): "4319a1208e081d4f5dcc298fbb248ca4a5f1ce9d669bd0e0d641ffc1c1bf08c9",
    ("freespace", 1, 20000): "af3c23517c8596df2830a96de40753f8d5da4219a62b7b2ce1c1140dde775a0a",
    ("freespace", 1, 100000): "643abd1ece0ca343d019a6d4fe803e94e18c83ea3d32b55713c0cae4e9645387",
    ("freespace", 7, 20000): "96e0a9408fdbb238a75cea756fb390dd3e299834ea20e012ad6e46d6f95c325c",
    ("freespace", 7, 100000): "b9adda6479bea9c94f4e93d7ebd978e5f6af9de77b6553ba239b55a009fe21e8",
    ("freespace", 109, 20000): "d5720280694059ff872326be2c86b765128530d991c1e262b4be658a786dbd5b",
    ("freespace", 109, 100000): "ee60acbc3d3294268a1b9cfb83aa50071924f2c87ff2f8103e52f7a36d1942a6",
    ("waveguide", 0, 20000): "25d439d58922014790ce25b19be71f90ef870992a56818f4cfdbd2d2423dd015",
    ("waveguide", 0, 100000): "49354320be4d687897da24fc8ddb11fb9c731e4eb80952dcce206dd69b4e6478",
    ("waveguide", 1, 20000): "84b5b2fcb006744e07f081764a8794db1270ec52ef617b6c975e684f1537f61b",
    ("waveguide", 1, 100000): "18db0ed75dd463c99abc81a1626e63bf35cdb8754639107a7a1dcc7dc60384ef",
    ("waveguide", 7, 20000): "2b5102a2df04c03ded9efd536fe96efca83c99f491eff397bc58f3017f4f647e",
    ("waveguide", 7, 100000): "5599353198f7c82dc7bdca38d84d1b7d5e0194dd13005fde0c018fa7db3492cc",
    ("waveguide", 109, 20000): "6ce8e65e668874204ce5b45ba5463155f1a4e2b6e115b5ddf29711b252498561",
    ("waveguide", 109, 100000): "335e56fb639f03ddb865ba7a882da09f9b22aca4715f3a38d88319a48c32f09a",
}


@pytest.mark.parametrize("preset", sorted(SCENARIO_PRESETS))
def test_every_output_array_matches_its_pinned_digest(preset):
    got = {(preset, seed, n): _run_digest(run_scenario(
        SCENARIO_PRESETS[preset](seed=seed, n_symbols=n, ad_block=2)))
        for seed in SEEDS for n in SIZES}
    want = {key: digest for key, digest in GOLDEN_ARRAYS.items() if key[0] == preset}
    assert got == want


# Edges of the input space on the waveguide preset, seed 3, 20k symbols,
# ad_block=2: a source with no field at all, a coherent source, and links
# with no receiver noise whose drift only hops (Bob) or hops by zero (Eve).
GOLDEN_EDGES = {
    "dark-source": ({"source.nbar": 0.0, "source.d0": 0.0},
                    "fdd1bca030bcf6903b6c8094dbf223c3dfa22c34f9bcb82111b406a3b899ab73"),
    "coherent-source": ({"source.nbar": 0.0},
                        "3152c5a33d9ee2f3f0125db8bc23f14d73da64fa82a3932f2c990359e2403a24"),
    "hop-only-noiseless": ({"bob_link.drift.walk_sigma": 0.0, "bob_link.drift.hop_prob": 0.01,
                            "bob_link.rx_noise_var": 0.0, "eve_link.drift.hop_scale": 0.0,
                            "eve_link.drift.hop_prob": 0.5, "eve_link.rx_noise_var": 0.0},
                           "9ce7811bcada9b9bfcd09df9704dc09f33635a22d3b51d1c3ffd9ec8cd46c8bc"),
}


@pytest.mark.parametrize("edge", sorted(GOLDEN_EDGES))
def test_edge_runs_match_their_pinned_digests(edge):
    overrides, digest = GOLDEN_EDGES[edge]
    cfg = waveguide_scenario(seed=3, n_symbols=20_000, ad_block=2)
    for key, value in overrides.items():
        cfg = set_config_value(cfg, key, value)
    assert _run_digest(run_scenario(cfg)) == digest

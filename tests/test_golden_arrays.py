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
    ("freespace", 0, 20000): "88d0780822a319d81052e9b7529a3531f32557d9ef2831c5ffc788527f7fdb58",
    ("freespace", 0, 100000): "da3df4434e02da8e4b975abb8a421d18dfc29ab1cad69233bf9a86a645cfacee",
    ("freespace", 1, 20000): "6c476aabfb48abc3079f7ac0423e664847fc42206bd82621544636f9ea3b590d",
    ("freespace", 1, 100000): "dbfe8c0b72a428192ecae0f1352a328fcc6cfef8445b53fa6a045275bc009d3e",
    ("freespace", 7, 20000): "564e3b2275dc24a4085ed3e5c5c5cb0e46e69d8efd59de24dfe03a3aee7df0f4",
    ("freespace", 7, 100000): "79f2dc52b8aed3a7b624be6a2dfc9f67eae6b59f72489f5c99b2a367456b27d4",
    ("freespace", 109, 20000): "1f501c2bc03bee308d146a5bb9aec062acf92fb769a55de0c9ab3b20dfa69ed8",
    ("freespace", 109, 100000): "48aa3db890b5823e2a888e2549b899e08282a0153f497d4a48a678aa0b42bee6",
    ("waveguide", 0, 20000): "a8df9bcab2f1ffb1bc53e3ca61bffdd60f2d55a5b6f9bf1bbcc6b15ba0f942cb",
    ("waveguide", 0, 100000): "6378d2cc85a5fdb91ae1dba87b0328356c5604ede76be1b4699ebb82c883783b",
    ("waveguide", 1, 20000): "88b21f17d2c7099bc49c47fd0e35d1b0dbfb1d121434a942108766f896eb21c4",
    ("waveguide", 1, 100000): "357abd4c1e7caff800157df7f9f7ddac507f2edac0b765d524070376116577be",
    ("waveguide", 7, 20000): "b6f7d241ac877e633906a5fa2fccbd89a6ed31fe5a346d24e5d6c5d13b9d37fd",
    ("waveguide", 7, 100000): "d94b69336ba58cbb40eb5155b15cc9087fa4d878eaa24e6d9af0fef37aa3729e",
    ("waveguide", 109, 20000): "42a967c95860e45bea493fe5b09cd55183e1bab37608c65c3b58ca8f146b49da",
    ("waveguide", 109, 100000): "08255d6f080bb6af06d3927beba18a084dfc20bc87110a156d6127fe5f887b0f",
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
                    "79ca24f1c16f3b85c538e52ee40f80bd932ee2192b92c597f69e4fa9d03ce2bb"),
    "coherent-source": ({"source.nbar": 0.0},
                        "20a298a99ec7b04af4ee9314211a5ebbf6a64bdc5ce37b73368735aeaa343760"),
    "hop-only-noiseless": ({"bob_link.drift.walk_sigma": 0.0, "bob_link.drift.hop_prob": 0.01,
                            "bob_link.rx_noise_var": 0.0, "eve_link.drift.hop_scale": 0.0,
                            "eve_link.drift.hop_prob": 0.5, "eve_link.rx_noise_var": 0.0},
                           "7797bff52bd9c54da23deb91f4e6b33c84af91c75ccad52c340b987e479ff093"),
}


@pytest.mark.parametrize("edge", sorted(GOLDEN_EDGES))
def test_edge_runs_match_their_pinned_digests(edge):
    overrides, digest = GOLDEN_EDGES[edge]
    cfg = waveguide_scenario(seed=3, n_symbols=20_000, ad_block=2)
    for key, value in overrides.items():
        cfg = set_config_value(cfg, key, value)
    assert _run_digest(run_scenario(cfg)) == digest

import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest

from thermalqkd import harness
from thermalqkd.config import set_config_value
from thermalqkd.distill import PartyRecord, read_bits_packed
from thermalqkd.harness import (CSV_CHUNK_ROWS, SCENARIO_PRESETS, CalibrationError,
                                _pool_map, _write_measurement_csv, calibrate_preset,
                                derive_trial_seed, freespace_scenario,
                                run_scenario, sweep, sweep_csv, sweep_values,
                                waveguide_scenario)
from thermalqkd.infotheory import build_report


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _csv_reference(index, rec):
    """The np.char formatter the measurement CSV writer must match byte for byte."""
    cols = [
        np.char.mod("%d", index),
        np.char.mod("%.9g", rec.x),
        np.char.mod("%.9g", rec.p),
        np.char.mod("%.9g", rec.z),
        np.char.mod("%d", rec.bits),
    ]
    body = cols[0]
    for col in cols[1:]:
        body = np.char.add(np.char.add(body, ","), col)
    return ("index,x,p,z,bit\n" + "\n".join(body.tolist()) + "\n").encode("utf-8")


def _edge_record(n):
    """``n`` rows cycling through signed zeros, subnormal, huge, tied and
    non-finite values, with int64 indices up to 10**12."""
    edges = np.array([-1.5, 0.0, -0.0, 5e-324, 1e-300, 1e300, -1e300,
                      1.0000000005, 0.1234567885, -0.1234567885, np.nan,
                      np.inf, -np.inf, 123456789.5, -2.5e-7])
    rng = np.random.default_rng(11)
    index = np.linspace(0, 10 ** 12, n).astype(np.int64)
    x = np.resize(edges, n)
    p = np.roll(x, 3) * rng.choice([1.0, -1.0], n)
    z = np.where(np.arange(n) % 2, rng.normal(0, 30, n), np.roll(x, 7))
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    return index, PartyRecord(x=x, p=p, z=z, bits=bits)


@pytest.mark.parametrize("n", [1, 15, CSV_CHUNK_ROWS + 1])
def test_measurement_csv_matches_reference_formatter(tmp_path, n):
    index, rec = _edge_record(n)
    path = tmp_path / "m.csv"
    _write_measurement_csv(path, index, rec)
    assert path.read_bytes() == _csv_reference(index, rec)


def test_measurement_csv_matches_reference_on_a_run(tmp_path):
    art = run_scenario(freespace_scenario(seed=7, n_symbols=20_000))
    for name in ("alice", "bob", "eve"):
        path = tmp_path / f"{name}.csv"
        _write_measurement_csv(path, art.index, art.parties[name])
        assert path.read_bytes() == _csv_reference(art.index, art.parties[name]), name


def test_run_is_deterministic(tmp_path):
    cfg = waveguide_scenario(seed=123, n_symbols=30_000)
    first = run_scenario(cfg)
    second = run_scenario(cfg)
    assert first.report.to_json() == second.report.to_json()
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    first.write(dir_a)
    second.write(dir_b)
    for name in ("alice.csv", "bob.csv", "eve.csv", "report.json", "config.cfg"):
        assert _read_bytes(dir_a / name) == _read_bytes(dir_b / name), name


def _artifact_bytes(art, out_dir):
    art.write(out_dir)
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def test_party_threads_match_in_place_run(tmp_path, monkeypatch):
    # A run receives and folds its parties on party threads; inside a pool
    # worker (a sweep or calibration point) the same run maps in place, with
    # no nested pool. Every schedule must write the same nine files: two
    # threads, three threads (one per party) and a 1 us switch interval.
    receive = harness._receive_party
    pool_class = harness.ThreadPoolExecutor
    threads_used = set()

    def traced_receive(*args):
        threads_used.add(threading.get_ident())
        return receive(*args)

    def no_nested_pool(*args, **kwargs):
        raise AssertionError("a pool worker started a nested pool")

    def run_in_worker(cfg):
        # The outer pool already runs; any executor made from here is nested.
        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_nested_pool)
        try:
            return run_scenario(cfg), threading.get_ident()
        finally:
            monkeypatch.setattr(harness, "ThreadPoolExecutor", pool_class)

    monkeypatch.setattr(harness, "_receive_party", traced_receive)
    interval = sys.getswitchinterval()
    thread_counts = (harness.PARTY_THREADS, 3)
    for preset, make in SCENARIO_PRESETS.items():
        cfg = make(seed=7, n_symbols=20_000, ad_block=2)
        threads_used.clear()
        (in_place, worker), = _pool_map(run_in_worker, [cfg], 1)
        assert threads_used == {worker}, preset
        expect = _artifact_bytes(in_place, tmp_path / preset / "in_place")
        assert len(expect) == 9
        for party_threads in thread_counts:
            monkeypatch.setattr(harness, "PARTY_THREADS", party_threads)
            threads_used.clear()
            sys.setswitchinterval(1e-6)
            try:
                threaded = run_scenario(cfg)
            finally:
                sys.setswitchinterval(interval)
            assert threads_used and threading.get_ident() not in threads_used, preset
            files = _artifact_bytes(threaded, tmp_path / preset / f"threads{party_threads}")
            assert files == expect, (preset, party_threads)


# sha256 of every artifact file of the presets at seed 7, 20k symbols,
# ad_block=2. Any change here is a reproducibility break and must be announced.
GOLDEN_DIGESTS = {
    "waveguide": {
        "alice.csv": "d8b19bd08ae141b718d1601aa5430d76480464a676133dd217b13699ab8f8063",
        "bob.csv": "49b0366b813a83e9f64cda4bdbb9dfdd5aea46bb065fcd5611d5d7a41b4d56ab",
        "config.cfg": "2991bb5e57ed4d5969ddf767a5bd658ae8d0d23a15000a1d7779283c9e7b8e79",
        "eve.csv": "2b27022955a36b2ca07d072aec3f431afb8d721cb0039b3faae4582da4bb7e7b",
        "key_alice.bin": "eedd0ee7fbba910be1353760911f7e17b1f370dcbfb165d0656c6d55cd9b6453",
        "key_alice.txt": "80bd89b67f9e4691954334de5a68307e66944bb3d1b9bed7c25fa0cd13f7731a",
        "key_bob.bin": "f64abe28226b72a1310db8b10ced6f074d20e5cf5fe20a8d9d43ad7572a76b7e",
        "key_bob.txt": "4c785e159ca206eb2829de24c909641438674a515706d1747a92bdae95b6f1b2",
        "report.json": "261588bb7f03127c02fe2c98693cc30f1f3fdb76028689a6d3208100b9269692",
    },
    "freespace": {
        "alice.csv": "3581a0eb56f16080d106e59e16ba698384d36f66c5ae26997a2d8e4ac6f52976",
        "bob.csv": "6c8812e1865ffc403752e20a692f5f7a0c7a649cf082266796fdd0ba510f295a",
        "config.cfg": "be8c9311a65c2ac7bf95fe6bc6d3b5412f29fdd9ce10a8975492505da55b9827",
        "eve.csv": "ca32b3ae5d00a2f019154818ca805b11088074dd9b09e6716da36861893a1869",
        "key_alice.bin": "9a740e74888c69c96de259e7747afa5279b0f7a6c468d85b1a371f164da4a1d0",
        "key_alice.txt": "407f38ac8a6bd7435d59ec21123eecb732bb383fbd8e7ff3c7a22e5dc7106bba",
        "key_bob.bin": "11a9aef205709ccf167e5c1af7d68e6485f8ab3ea25e5ee67f6f3bd002a65c62",
        "key_bob.txt": "cce5d53c08d41076f9146156470a4ca8a4ef14f983bb8f8b09e4be9d4651f9c0",
        "report.json": "dfcfc514f7e91fe2be507f017bf82264b6f22ccb33a48387afbc88540382667e",
    },
}


def test_preset_artifacts_match_golden_digests(tmp_path):
    for preset, make in SCENARIO_PRESETS.items():
        art = run_scenario(make(seed=7, n_symbols=20_000, ad_block=2))
        files = _artifact_bytes(art, tmp_path / preset)
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
        assert digests == GOLDEN_DIGESTS[preset], preset


def test_artifact_files_are_consistent(tmp_path):
    art = run_scenario(waveguide_scenario(seed=3, n_symbols=20_000))
    paths = art.write(tmp_path / "run")
    lines = {name: (tmp_path / "run" / f"{name}.csv").read_text().splitlines()
             for name in ("alice", "bob", "eve")}
    counts = {name: len(body) for name, body in lines.items()}
    assert len(set(counts.values())) == 1
    assert counts["alice"] - 1 == art.report.n_bits  # header plus one row per bit
    header = lines["alice"][0]
    assert header == "index,x,p,z,bit"
    row = lines["alice"][1].split(",")
    assert len(row) == 5
    assert row[4] in ("0", "1")
    # float columns carry at most 9 significant digits
    assert all(len(cell.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 11
               for cell in row[1:4])
    assert (tmp_path / "run" / "report.json").exists()
    assert (tmp_path / "run" / "config.cfg").exists()
    assert set(paths) == {"alice", "bob", "eve", "report", "config",
                          "key_alice", "key_bob"}


def test_lossless_symmetric_config_is_highly_correlated():
    # every transmittance at 1 where possible, detection noise only:
    # per-quadrature SNR = nbar/2 on both arms, so r_ab -> 10/11 at nbar=20
    from thermalqkd.channels import ChannelParams
    from thermalqkd.config import ScenarioConfig
    from thermalqkd.optics import SourceParams
    cfg = ScenarioConfig(
        seed=8, n_symbols=200_000,
        source=SourceParams(nbar=20.0, d0=100.0),
        alice_link=ChannelParams(), bob_link=ChannelParams(), eve_link=ChannelParams(),
        eve_transmittance=1.0)
    report = run_scenario(cfg).report
    assert report.r_ab > 0.9


def test_alignment_recovers_configured_delays():
    cfg = waveguide_scenario(seed=9, n_symbols=40_000)
    art = run_scenario(cfg)
    assert art.alignment["alice"].lag == cfg.alice_link.delay
    assert art.alignment["bob"].lag == cfg.bob_link.delay
    assert art.alignment["eve"].lag == cfg.eve_link.delay


def test_planted_delay_leaves_ber_unchanged():
    base = waveguide_scenario(seed=17, n_symbols=150_000)
    base = set_config_value(base, "bob_link.delay", 0)
    ber0 = run_scenario(base).report.ber_ab
    for delay in (137, 1000):
        cfg = set_config_value(base, "bob_link.delay", delay)
        art = run_scenario(cfg)
        assert art.alignment["bob"].lag == delay
        assert abs(art.report.ber_ab - ber0) <= 0.005


def test_pilot_symbols_are_excluded_from_keys():
    cfg = waveguide_scenario(seed=5, n_symbols=30_000)
    art = run_scenario(cfg)
    assert np.all(art.index % cfg.coherence_len >= cfg.pilot_len)
    assert art.report.n_bits == art.index.size


def test_more_receiver_noise_monotonically_hurts_bob():
    base = waveguide_scenario(seed=21, n_symbols=200_000, ad_block=None)
    r_values, i_values = [], []
    for noise in (0.1, 0.8, 2.0, 4.5, 9.0):
        cfg = set_config_value(base, "bob_link.rx_noise_var", noise)
        rep = run_scenario(cfg).report
        r_values.append(rep.r_ab)
        i_values.append(rep.i_ab)
    assert all(a > b for a, b in zip(r_values, r_values[1:]))
    assert all(a > b for a, b in zip(i_values, i_values[1:]))


def test_symmetric_tap_makes_bob_and_eve_exchangeable():
    cfg = freespace_scenario(seed=31, n_symbols=400_000, ad_block=None)
    cfg = dataclasses.replace(cfg, eve_link=cfg.bob_link, eve_transmittance=0.5)
    art = run_scenario(cfg)
    rep = art.report
    swapped = build_report(art.parties["alice"], art.parties["eve"], art.parties["bob"])
    assert abs(rep.i_ab - rep.i_ae) < 0.01
    assert abs(rep.r_ab - rep.r_ae) < 0.01
    assert swapped.r_ab == rep.r_ae and swapped.r_ae == rep.r_ab
    assert swapped.r_be == rep.r_be
    assert abs(swapped.i_ab_given_e - rep.i_ab_given_e) < 0.01


def test_distillation_runs_when_configured():
    cfg = waveguide_scenario(seed=2, n_symbols=60_000, ad_block=2)
    art = run_scenario(cfg)
    assert art.distilled is not None
    assert art.distilled["ber_kept"] < art.report.ber_ab
    assert 0 < art.distilled["kept_fraction"] < 1
    none_cfg = dataclasses.replace(cfg, ad_block=None)
    assert run_scenario(none_cfg).distilled is None


def test_distilled_keys_are_exported(tmp_path):
    cfg = waveguide_scenario(seed=2, n_symbols=30_000, ad_block=2)
    art = run_scenario(cfg)
    art.write(tmp_path)
    for party in ("alice", "bob"):
        key = art.distilled[f"{party}_key"]
        text = "".join(f"{bit}\n" for bit in key.tolist()).encode("ascii")
        assert (tmp_path / f"key_{party}.txt").read_bytes() == text
        from_packed = read_bits_packed(tmp_path / f"key_{party}.bin")
        assert np.array_equal(from_packed, key)


def test_calibration_prefers_zero_noise_for_perfect_target(monkeypatch):
    # r_ab = 1 is unreachable (detection noise remains), so the search must
    # end at the quietest corner and raise with the best-found result.
    monkeypatch.setitem(harness.CALIBRATION_TARGETS, "waveguide", {"r_ab": 1.0})
    monkeypatch.setitem(harness.CALIBRATION_RANGES, "waveguide",
                        {"alice_link.rx_noise_var": [0.0, 0.4, 0.8]})
    with pytest.raises(CalibrationError) as err:
        calibrate_preset("waveguide", n_symbols=40_000)
    best = err.value.best
    assert best.config.alice_link.rx_noise_var == 0.0
    assert best.achieved["r_ab"] < 1.0


def test_trial_seed_derivation_is_stable():
    assert derive_trial_seed(7, 0) == derive_trial_seed(7, 0)
    assert derive_trial_seed(7, 0) != derive_trial_seed(7, 1)
    assert derive_trial_seed(7, 0) != derive_trial_seed(8, 0)


def test_sweep_rows_and_parallel_determinism():
    base = waveguide_scenario(seed=4, n_symbols=20_000, ad_block=None)
    values = sweep_values(0.3, 0.7, 0.2)
    assert values == pytest.approx([0.3, 0.5, 0.7])
    serial = sweep(base, "eve_transmittance", values, jobs=1)
    parallel = sweep(base, "eve_transmittance", values, jobs=3)
    assert sweep_csv(serial, "eve_transmittance") == sweep_csv(parallel, "eve_transmittance")
    text = sweep_csv(serial, "eve_transmittance")
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("eve_transmittance,r_ab,")


def test_sweep_eleven_point_grid():
    assert len(sweep_values(0.0, 1.0, 0.1)) == 11


def test_eve_information_grows_as_tap_favors_her():
    # over the Eve-favored half of the range, lowering the transmittance
    # toward her strictly raises I(B;E)
    base = waveguide_scenario(seed=6, n_symbols=150_000, ad_block=None)
    i_be = []
    for t in (1.0, 0.875, 0.75, 0.625, 0.5):
        cfg = dataclasses.replace(base, eve_transmittance=t)
        i_be.append(run_scenario(cfg).report.i_be)
    assert all(b > a for a, b in zip(i_be, i_be[1:]))

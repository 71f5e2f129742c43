import dataclasses
import hashlib
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from collections import Counter
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalqkd import harness, kernels, modem
from thermalqkd.channels import ChannelParams
from thermalqkd.config import format_config, set_config_value
from thermalqkd.distill import PartyRecord, median_slice, read_bits_packed
from thermalqkd.harness import (CSV_CHUNK_ROWS, SCENARIO_PRESETS, CalibrationError,
                                _write_measurement_csv, calibrate_preset,
                                freespace_scenario, run_scenario, sweep, sweep_csv,
                                sweep_values, waveguide_scenario)
from thermalqkd.infotheory import MetricsReport, build_report
from thermalqkd.modem import MIN_PILOTS, SYMBOL_PHASES, ReferenceSpectra, bits_to_symbols


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


def _edge_record(n, seed=11):
    """``n`` rows cycling through signed zeros, subnormal, huge, tied and
    non-finite values, with int64 indices up to 10**12."""
    edges = np.array([-1.5, 0.0, -0.0, 5e-324, 1e-300, 1e300, -1e300,
                      1.0000000005, 0.1234567885, -0.1234567885, np.nan,
                      np.inf, -np.inf, 123456789.5, -2.5e-7])
    rng = np.random.default_rng(seed)
    index = np.linspace(0, 10 ** 12, n).astype(np.int64)
    x = np.resize(edges, n)
    p = np.roll(x, 3) * rng.choice([1.0, -1.0], n)
    z = np.where(np.arange(n) % 2, rng.normal(0, 30, n), np.roll(x, 7))
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    return index, PartyRecord(x=x, p=p, z=z, bits=bits)


@pytest.mark.parametrize("n", [1, 15, CSV_CHUNK_ROWS + 1, 65_537])  # one chunk, two, many
def test_measurement_csv_matches_reference_formatter(tmp_path, n):
    index, rec = _edge_record(n)
    path = tmp_path / "m.csv"
    _write_measurement_csv(path, index, rec)
    assert path.read_bytes() == _csv_reference(index, rec)


# The row format every measurement CSV row must match, fast path or not.
_PERCENT_ROW = "%d,%.9g,%.9g,%.9g,%d\n"


def _percent_csv(index, rec):
    rows = zip(*(col.tolist() for col in (index, rec.x, rec.p, rec.z, rec.bits)))
    return ("index,x,p,z,bit\n" + "".join(_PERCENT_ROW % row for row in rows)).encode("ascii")


@pytest.mark.parametrize("chunk_rows", [1, 7, CSV_CHUNK_ROWS])
def test_chunk_size_changes_no_byte(tmp_path, monkeypatch, chunk_rows):
    # Fast and fallback rows alike, at every chunk boundary and none.
    index, rec = _edge_record(3_001)
    monkeypatch.setattr(harness, "CSV_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "m.csv"
    _write_measurement_csv(path, index, rec)
    assert path.read_bytes() == _percent_csv(index, rec)


def _fast_floats():
    """Floats the fast path writes: in [1e-4, 1e9) and not near a half at the
    ninth digit. Every E from -4 to 8 at both ends of its decade (below 1e8
    the top end carries into the next decade), a carry that prints 0.001, the
    largest value short of 1e9 in the test, and halves at fewer digits."""
    out = [0.00099999999995, 999999999.4999, 12.5, 0.5, 1234567.25]
    for e in range(-4, 9):
        low = float(f"1e{e}")
        out += [low, np.nextafter(low, np.inf), low * 1.23456789]
        if e < 8:
            out.append(np.nextafter(float(f"1e{e + 1}"), 0))
    return out


# Floats ``%`` writes: near a half at the ninth digit (9.999999995 is the
# double 9.99999999499..., which prints 9.99999999, not 10; 123456789.5 and
# 1234567.125 are exact halves), rounding up to 1e9 (an exponent), out of
# range, zero, subnormal or not finite.
_PERCENT_FLOATS = [9.999999995, 99999999.95, 123456789.5, 1234567.125, 1.000000005,
                   np.nextafter(1e9, 0), 1e9, np.nextafter(1e-4, 0), 1e-5, 1e300,
                   0.0, -0.0, 5e-324, 1e-310, np.nan, np.inf, -np.inf]


def test_fast_rows_match_percent_row_by_row(tmp_path, monkeypatch):
    # Rows that fall back sit at chunk positions 0, CSV_CHUNK_ROWS - 1 and
    # CSV_CHUNK_ROWS, among others, so their place in the file is pinned.
    fast = np.array([s * v for v in _fast_floats() for s in (1.0, -1.0)])
    n = CSV_CHUNK_ROWS + 200
    index = np.arange(n, dtype=np.int64) * 7919
    index[1:8] = [0, 10 ** 10 - 1, 9_999, 10_000, 100_000_005, 10 ** 9, 10 ** 9 + 10_000]
    x, p, z = np.resize(fast, n), np.resize(fast[::-1], n), np.roll(np.resize(fast, n), 3)
    bits = np.arange(n, dtype=np.int64) % 2
    positions = iter([0, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, *range(10, n, 101)])
    slow = []
    for v in _PERCENT_FLOATS:
        for col in (x, p, z):
            slow.append(next(positions))
            col[slow[-1]] = v
    for col, v in ((index, 10 ** 10), (index, -1), (bits, 2), (bits, -1)):
        slow.append(next(positions))
        col[slow[-1]] = v
    rec = PartyRecord(x=x, p=p, z=z, bits=bits)

    formatted = []

    class Recording(str):
        def __mod__(self, row):
            formatted.append(row)
            return str.__mod__(self, row)

    monkeypatch.setattr(harness, "_CSV_ROW", Recording(_PERCENT_ROW))
    path = tmp_path / "m.csv"
    _write_measurement_csv(path, index, rec)
    want = _percent_csv(index, rec).decode("ascii").splitlines(keepends=True)
    got = path.read_text(encoding="ascii").splitlines(keepends=True)
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"line {k}"
    assert [row[0] for row in formatted] == index[sorted(slow)].tolist()


def test_fast_path_comparisons_with_powers_of_ten_are_exact():
    # Each power of ten the exponent is compared with lies on or above 10**k.
    *_, pow10, exact10 = harness._csv_tables()
    assert all(Decimal(c) >= Decimal(10) ** k for c, k in zip(pow10.tolist(), range(-4, 10)))
    assert all(c == 10 ** k for k, c in enumerate(exact10.tolist()))


def test_write_builds_the_csv_tables_once_before_the_forks(tmp_path, monkeypatch):
    # Built in the parent, the tables reach each child copy-on-write.
    fork = harness._fork_measurement_csv
    built = []

    def recording_fork(*args):
        built.append(harness._csv_tables.cache_info().currsize)
        return fork(*args)

    harness._csv_tables.cache_clear()
    monkeypatch.setattr(harness, "_fork_measurement_csv", recording_fork)
    _edge_artifacts(15).write(tmp_path)
    assert built == [1, 1, 1]


def test_importing_the_package_builds_no_csv_table():
    code = ("import thermalqkd.cli, thermalqkd.harness as h; "
            "print(h._csv_tables.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0"


_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=1e-4, max_value=1e9, exclude_max=True),
    # near a half at the ninth digit, in every decade of the fast path
    st.builds(lambda k, e: (k + 0.5) * 10.0 ** (e - 8),
              st.integers(10 ** 8, 10 ** 9 - 1), st.integers(-4, 8)),
).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_measurement_csv_matches_percent_on_arbitrary_columns(tmp_path_factory, data):
    n = data.draw(st.integers(1, 40), label="rows")

    def column(elements, dtype):
        return np.array(data.draw(st.lists(elements, min_size=n, max_size=n)), dtype)

    index = column(st.integers(0, 10 ** 10) | st.integers(-2 ** 63, 2 ** 63 - 1), np.int64)
    x, p, z = (column(_FLOAT, np.float64) for _ in range(3))
    rec = PartyRecord(x=x, p=p, z=z, bits=column(st.integers(-2, 3), np.int8))
    path = tmp_path_factory.getbasetemp() / "property.csv"
    _write_measurement_csv(path, index, rec)
    assert path.read_bytes() == _percent_csv(index, rec)


def _edge_artifacts(n):
    """RunArtifacts of ``n`` edge-value rows, a different record per party."""
    records = {name: _edge_record(n, seed)[1] for seed, name in enumerate(harness.PARTIES)}
    report = MetricsReport(r_ab=0.9, r_be=0.8, r_ae=0.7, i_ab=0.5, i_ae=0.4, i_be=0.3,
                           i_ab_given_e=0.2, delta_dr=0.1, delta_rr=0.2, ber_ab=0.1,
                           n_bits=n)
    return harness.RunArtifacts(config=waveguide_scenario(seed=1, n_symbols=10_000),
                                report=report, parties=records, index=_edge_record(n)[0],
                                alignment={})


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_write_matches_reference_across_chunks(tmp_path):
    # Each party's forked writer crosses a chunk boundary.
    art = _edge_artifacts(CSV_CHUNK_ROWS + 1)
    paths = art.write(tmp_path)
    for name in harness.PARTIES:
        assert paths[name].read_bytes() == _csv_reference(art.index, art.parties[name]), name
    _assert_no_child_left()


@pytest.mark.parametrize("name", ["alice", "bob", "eve"])
def test_unwritable_csv_raises_before_any_fork(tmp_path, monkeypatch, name):
    forks = []
    monkeypatch.setattr(harness, "_fork_measurement_csv", lambda *args: forks.append(args))
    (tmp_path / f"{name}.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        _edge_artifacts(15).write(tmp_path)
    assert not forks and not (tmp_path / "report.json").exists()
    _assert_no_child_left()


def test_disagreeing_row_counts_raise_before_any_fork(tmp_path, monkeypatch):
    forks = []
    monkeypatch.setattr(harness, "_fork_measurement_csv", lambda *args: forks.append(args))
    art = _edge_artifacts(15)
    art.index = art.index[:-1]
    with pytest.raises(ValueError, match="row counts"):
        art.write(tmp_path)
    assert not forks and not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["alice", "bob", "eve"])
def test_failed_csv_writer_is_reaped_and_named(tmp_path, monkeypatch, capfd, name):
    # Every CSV is written in a child, which exits 1 and is named by the
    # parent once all three children are reaped.
    write_csv = harness._write_measurement_csv

    def fail_one(path, index, rec):
        if path.name == f"{name}.csv":
            raise ValueError(f"formatter broke on {path.name}")
        write_csv(path, index, rec)

    monkeypatch.setattr(harness, "_write_measurement_csv", fail_one)
    art = _edge_artifacts(15)
    with pytest.raises(RuntimeError, match=rf"{name}\.csv \(exit status 1\)"):
        art.write(tmp_path)
    assert "ValueError: formatter broke on" in capfd.readouterr().err
    _assert_no_child_left()
    for other in harness.PARTIES:
        if other != name:
            want = _csv_reference(art.index, art.parties[other])
            assert (tmp_path / f"{other}.csv").read_bytes() == want, other


def test_failed_key_writer_still_reaps_every_csv_child(tmp_path, monkeypatch):
    # A failure in the parent, after all three forks, still reaps every
    # child, and each CSV is complete.
    def broken(bits, path):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(harness, "write_bits_packed", broken)
    art = _edge_artifacts(CSV_CHUNK_ROWS + 1)
    art.distilled = {"alice_key": np.ones(5, np.uint8), "bob_key": np.ones(5, np.uint8)}
    with pytest.raises(OSError, match="key_alice.bin"):
        art.write(tmp_path)
    _assert_no_child_left()
    for name in harness.PARTIES:
        want = _csv_reference(art.index, art.parties[name])
        assert (tmp_path / f"{name}.csv").read_bytes() == want, name


def test_csv_writer_children_flush_no_parent_stdio(tmp_path, monkeypatch):
    # A child that left through a normal interpreter exit would flush this
    # block-buffered stdout, writing its pending text once more.
    with open(tmp_path / "stdout.txt", "w", encoding="utf-8") as buffered:
        monkeypatch.setattr(sys, "stdout", buffered)
        print("pending", end="")
        _edge_artifacts(15).write(tmp_path / "out")
        monkeypatch.undo()
    assert (tmp_path / "stdout.txt").read_text(encoding="utf-8") == "pending"


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


def _stub_points(monkeypatch):
    """Replace ``run_scenario`` by a stub whose report is the point's seed;
    returns the list of each point's thread and its group's ``threaded``."""
    where = []

    def point(config, group):
        where.append((threading.get_ident(), group.threaded))
        return SimpleNamespace(report=config.seed)

    monkeypatch.setattr(harness, "run_scenario", point)
    return where


def test_one_thread_grids_run_threaded_groups_on_the_caller(monkeypatch):
    # At jobs=1, or with a single group at any jobs, a grid runs its points
    # on the caller and each group still receives its parties on party
    # threads; no grid pool is made.
    monkeypatch.setattr(harness, "ThreadPoolExecutor", None)
    where = _stub_points(monkeypatch)
    base = waveguide_scenario(n_symbols=20_000)
    seeds = [set_config_value(base, "seed", seed) for seed in (1, 2, 3)]
    assert harness._grid_reports(seeds, 1) == [1, 2, 3]
    noises = [set_config_value(base, "bob_link.rx_noise_var", v) for v in (0.1, 0.3)]
    assert harness._grid_reports(noises, 2) == [0, 0]
    assert where == [(threading.get_ident(), True)] * 5


@pytest.mark.parametrize("cpus, jobs, workers", [(2, 10_000, 2), (64, 3, 3), (None, 10_000, 1)])
def test_pool_threads_are_capped_at_the_cpu_count(monkeypatch, cpus, jobs, workers):
    # pool.map submits every group at once, so an uncapped pool would start
    # one thread per group up to jobs. A grid left with one thread makes no
    # pool and threads its groups; on a pool each group receives in place.
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    where = _stub_points(monkeypatch)
    configs = [waveguide_scenario(seed=seed, n_symbols=20_000) for seed in range(5)]
    assert harness._grid_reports(configs, jobs) == [0, 1, 2, 3, 4]
    assert started == ([workers] if workers > 1 else [])
    assert {threaded for _, threaded in where} == {workers == 1}


def test_segment_phases_are_whole_pilot_phases():
    # 200 segments of 200 symbols with 64 unit-amplitude pilots each, noise
    # 1.5 per quadrature and a random phase per segment: the pilot mean
    # reads every segment's phase to within pi/4, quarter turns included.
    rng = np.random.default_rng(0)
    cfg = dataclasses.replace(waveguide_scenario(n_symbols=40_000), coherence_len=200,
                              pilot_len=64)
    syms = rng.integers(0, 4, cfg.n_symbols)
    phase = rng.uniform(-np.pi, np.pi, 200)
    field = (np.exp(1j * (SYMBOL_PHASES[syms] + np.repeat(phase, 200)))
             + 1.5 * (rng.standard_normal(cfg.n_symbols) + 1j * rng.standard_normal(cfg.n_symbols)))
    psi = harness._segment_corrections(field.real, field.imag, syms, 0, cfg)
    off = np.angle(np.exp(1j * (psi - phase)))
    assert np.all(np.abs(off) < np.pi / 4), np.flatnonzero(np.abs(off) >= np.pi / 4)


def _segment_corrections_per_segment(x, p, syms, lag, config):
    """The reference pilot pass: one segment at a time, each phase from the
    sums over one pilot slice, a scalar ``arctan2`` and Python's ``divmod``."""
    n = config.n_symbols
    psi = np.zeros(-(-n // config.coherence_len))
    for s in range(psi.size):
        tx0 = s * config.coherence_len
        lo, hi = max(tx0, -lag), min(tx0 + config.pilot_len, n, n - lag)
        if hi - lo < MIN_PILOTS:
            psi[s] = psi[s - 1] if s else 0.0
            continue
        px, pp, k = x[lo + lag:hi + lag], p[lo + lag:hi + lag], syms[lo:hi]
        c, si = np.cos(SYMBOL_PHASES)[k], np.sin(SYMBOL_PHASES)[k]
        theta = float(np.arctan2(np.sum(pp * c - px * si), np.sum(px * c + pp * si)))
        turns, rem = divmod(theta + np.pi / 4, np.pi / 2)
        psi[s] = (rem - np.pi / 4) + (turns % 4) * (np.pi / 2)
    return psi


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_segment_corrections_match_the_per_segment_loop(data):
    # Segments of one pilot past the pilots, and longer than the run; lags
    # of either sign out to n/4, so that the first or the last segment has
    # only some of its pilots, or too few, in range.
    n = data.draw(st.integers(1000, 20_000), label="n")
    pilot_len = data.draw(st.integers(16, 999), label="pilot_len")
    coherence_len = data.draw(st.one_of(
        st.just(pilot_len + 1), st.integers(pilot_len + 1, 3 * pilot_len),
        st.integers(pilot_len + 1, n), st.integers(n, 10 ** 9)), label="coherence_len")
    edge = n // 4
    lag = data.draw(st.one_of(st.just(0), st.integers(-edge, edge),
                              st.integers(edge - 40, edge), st.integers(-edge, 40 - edge)),
                    label="lag")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32), label="seed"))
    syms = rng.integers(0, 4, n).astype(np.uint8)
    x, p = rng.standard_normal(n), rng.standard_normal(n)
    cfg = SimpleNamespace(n_symbols=n, coherence_len=coherence_len, pilot_len=pilot_len)
    # Small blocks split one pilot count over many calls, down to a row each.
    block = data.draw(st.sampled_from([kernels.BLOCK, 1000, 16]), label="block")
    with mock.patch.object(kernels, "BLOCK", block):
        psi = harness._segment_corrections(x, p, syms, lag, cfg)
    want = _segment_corrections_per_segment(x, p, syms, lag, cfg)
    assert psi.tobytes() == want.tobytes()


def test_pilot_phases_are_estimated_per_pilot_count_not_per_segment(monkeypatch):
    # 2,353 segments of 17 symbols per party; the delays leave the first
    # segment whole, so each party has at most two pilot counts of one block,
    # and every segment but the last has all 16 pilots in range.
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return modem.estimate_global_phase(*args)

    monkeypatch.setattr(harness, "estimate_global_phase", counted)
    cfg = dataclasses.replace(waveguide_scenario(seed=3, n_symbols=40_000, ad_block=None),
                              coherence_len=17, pilot_len=16)
    run_scenario(cfg)
    assert 3 <= len(calls) <= 6, calls
    assert sum(rows for rows, _ in calls) >= 3 * (cfg.n_symbols // 17)


def test_a_lone_run_imports_no_numpy_ma():
    # np.unique imports numpy.ma on first use (10-18 ms), a cost that a
    # process making one run pays in full.
    code = ("import sys, thermalqkd.harness as h; "
            "h.run_scenario(h.waveguide_scenario(n_symbols=20_000)); "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_party_threads_match_in_place_run(tmp_path, monkeypatch):
    # A run draws links on party threads while the caller transmits, then
    # receives and folds those parties there and any other party on the
    # caller; in a group that is not threaded (each group of a grid run on
    # a pool) the same run receives in place and makes no pool. Every
    # schedule must write the same nine files: in place, and one, two and
    # three party threads, each under a 1 us switch interval.
    receive, draw, transmit = harness._receive_party, harness._draw_link, harness._transmit
    pool_class = harness.ThreadPoolExecutor
    threads_used, draw_threads, transmit_threads = set(), set(), set()

    def traced_receive(*args):
        threads_used.add(threading.get_ident())
        return receive(*args)

    def traced_draw(*args):
        draw_threads.add(threading.get_ident())
        return draw(*args)

    def traced_transmit(*args):
        transmit_threads.add(threading.get_ident())
        return transmit(*args)

    caller = threading.get_ident()

    def no_pool(*args, **kwargs):
        raise AssertionError("a run in place started a pool")

    monkeypatch.setattr(harness, "_receive_party", traced_receive)
    monkeypatch.setattr(harness, "_draw_link", traced_draw)
    monkeypatch.setattr(harness, "_transmit", traced_transmit)
    interval = sys.getswitchinterval()
    for preset, make in SCENARIO_PRESETS.items():
        cfg = make(seed=7, n_symbols=20_000, ad_block=2)
        for used in (threads_used, draw_threads, transmit_threads):
            used.clear()
        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
        in_place = run_scenario(cfg, harness._GroupCache([cfg], threaded=False))
        monkeypatch.setattr(harness, "ThreadPoolExecutor", pool_class)
        assert threads_used == draw_threads == transmit_threads == {caller}, preset
        expect = _artifact_bytes(in_place, tmp_path / preset / "in_place")
        assert len(expect) == 9
        for party_threads in (1, 2, 3):
            monkeypatch.setattr(harness, "PARTY_THREADS", party_threads)
            for used in (threads_used, draw_threads, transmit_threads):
                used.clear()
            sys.setswitchinterval(1e-6)
            try:
                threaded = run_scenario(cfg)
            finally:
                sys.setswitchinterval(interval)
            # The caller transmits and draws and receives the parties beyond
            # the threads; which thread takes which of the others is up to
            # the scheduler.
            assert transmit_threads == {caller}, preset
            beyond = {caller} if party_threads < 3 else set()
            for used in (threads_used, draw_threads):
                assert used & {caller} == beyond, (preset, party_threads)
                assert 1 <= len(used - {caller}) <= party_threads, (preset, party_threads)
            files = _artifact_bytes(threaded, tmp_path / preset / f"threads{party_threads}")
            assert files == expect, (preset, party_threads)


def test_only_points_with_two_new_receives_start_a_pool(monkeypatch):
    # A calibration point with at most one new receive transmits (if it
    # must) and receives on the caller; the free-space grid's first point
    # of each of its 9 rows receives two or three. Points of a sweep whose
    # groups run on a pool start no pool of their own.
    run, receive, pool_class = harness.run_scenario, harness._receive_party, harness.ThreadPoolExecutor
    receives = []           # the config of each receive; appends are atomic
    pools = Counter()       # config of the point whose thread started it, or None
    current = threading.local()

    def point(config, group):
        current.config = config
        try:
            return run(config, group)
        finally:
            del current.config

    def counted_receive(name, inputs, config, *args):
        receives.append(config)
        return receive(name, inputs, config, *args)

    def counted_pool(*args, **kwargs):
        pools[getattr(current, "config", None)] += 1
        return pool_class(*args, **kwargs)

    monkeypatch.setattr(harness, "run_scenario", point)
    monkeypatch.setattr(harness, "_receive_party", counted_receive)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", counted_pool)
    # Two CPUs, so the sweep's three groups at jobs=2 run on a pool.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    calibrate_preset("freespace", n_symbols=20_000)
    per_point = Counter(receives)
    assert sorted(Counter(per_point.values()).items()) == [(1, 8), (2, 8), (3, 1)]
    assert pools == {config: 1 for config, count in per_point.items() if count >= 2}
    receives.clear()
    pools.clear()
    sweep(waveguide_scenario(n_symbols=20_000), "seed", [1, 2, 3], jobs=2)
    assert sorted(Counter(receives).values()) == [3, 3, 3]
    assert pools == {None: 1}


@pytest.mark.parametrize("t, dark", [(1.0, "eve"), (0.0, "bob")])
def test_tap_through_port_goes_to_bob(t, dark):
    # eve_transmittance is the power transmittance of the tap's through-port,
    # which feeds Bob; Eve takes 1 - t.
    cfg = dataclasses.replace(waveguide_scenario(seed=2, n_symbols=5_000), eve_transmittance=t)
    _, inputs = harness._transmit(cfg)
    lit, = {"bob", "eve"} - {dark}
    assert not np.any(inputs[dark][0]) and not np.any(inputs[dark][1])
    for name in (lit, "alice"):
        assert all(np.all(part != 0) and part.flags.c_contiguous for part in inputs[name])


@pytest.mark.parametrize("ad_block", [None, 2])
def test_each_stage_draws_only_its_own_streams(monkeypatch, ad_block):
    # Each stage makes its own streams from (seed, name) and draws every
    # stream it makes, so no stage depends on what another one drew. A
    # receive makes none: its detection noise is in its link's draws.
    cfg = freespace_scenario(seed=5, n_symbols=20_000, ad_block=ad_block)
    stream = harness._stream
    made = []

    def recorded(seed, name):
        assert seed == cfg.seed
        rng = stream(seed, name)
        made.append((name, rng, rng.bit_generator.state))
        return rng

    monkeypatch.setattr(harness, "_stream", recorded)

    def drawn(stage, *args):
        made.clear()
        out = stage(*args)
        assert all(rng.bit_generator.state != state for _, rng, state in made)
        return out, sorted(name for name, _, _ in made)

    (syms, inputs), names = drawn(harness._transmit, cfg)
    assert names == ["bits", "source"]
    received = {}
    spectra = ReferenceSpectra()
    for name in harness.PARTIES:
        draws, names = drawn(harness._draw_link, name, cfg)
        assert names == [f"chan_{name}"], name
        received[name], names = drawn(harness._receive_party, name, inputs, cfg, syms,
                                      {name: draws}, spectra)
        assert names == [], name
    _, names = drawn(harness._finish, cfg, received)
    assert names == (["distill"] if ad_block else [])
    made.clear()
    run_scenario(cfg)
    assert sorted(name for name, _, _ in made) == sorted(
        ["bits", "source"] + [f"chan_{name}" for name in harness.PARTIES]
        + (["distill"] if ad_block else []))


def _receive_alone(receive, name, inputs, config, syms):
    """``receive`` of one party from a copy of ``inputs``, with fresh draws
    and reference transforms."""
    return receive(name, dict(inputs), config, syms, {name: harness._draw_link(name, config)},
                   ReferenceSpectra())


def _assert_same_receive(got, want, name):
    """``got`` has the alignment, range start and folded bytes of ``want``."""
    assert (got.alignment, got.start) == (want.alignment, want.start), name
    for field in ("x", "p", "z"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (name, field)


@pytest.mark.parametrize("preset", sorted(SCENARIO_PRESETS))
def test_receiving_a_party_again_gives_the_same_bytes(monkeypatch, preset):
    # A party received twice more from one transmission gets the alignment,
    # range start and folded quadratures it got in the run.
    cfg = SCENARIO_PRESETS[preset](seed=7, n_symbols=20_000, ad_block=2)
    receive = harness._receive_party
    in_run = {}

    def keep(name, *args):
        in_run[name] = receive(name, *args)
        return in_run[name]

    monkeypatch.setattr(harness, "_receive_party", keep)
    run_scenario(cfg)
    syms, inputs = harness._transmit(cfg)
    for name in harness.PARTIES:
        for _ in range(2):
            _assert_same_receive(_receive_alone(receive, name, inputs, cfg, syms), in_run[name],
                                 name)


def test_a_receive_reads_only_its_own_link():
    # Eve's link moves from 9 to 5,000 symbols deep; Alice's and Bob's
    # receives from one transmission, their alignment search included, must
    # not change.
    shallow = freespace_scenario(seed=3, n_symbols=200_000, ad_block=None)
    shallow = set_config_value(shallow, "eve_link.delay", 9)
    deep = set_config_value(shallow, "eve_link.delay", 5_000)
    syms, inputs = harness._transmit(shallow)
    for name in ("alice", "bob"):
        _assert_same_receive(_receive_alone(harness._receive_party, name, inputs, deep, syms),
                             _receive_alone(harness._receive_party, name, inputs, shallow, syms),
                             name)


# sha256 of every artifact file of the presets at seed 7, 20k symbols,
# ad_block=2. Any change here is a reproducibility break and must be announced.
GOLDEN_DIGESTS = {
    "waveguide": {
        "alice.csv": "1d714937bc311dc6d63ea9bf45164fdbc45bd0ad5e4883bfe87d4486f09e9dab",
        "bob.csv": "df1c8eebf47e5a2b1ce85d7f5131751baef73a4378593240a40ffc5860f560df",
        "config.cfg": "2991bb5e57ed4d5969ddf767a5bd658ae8d0d23a15000a1d7779283c9e7b8e79",
        "eve.csv": "d8fd9d1a841763ab59959f4d334702ecc26fdea42b5b95c31c3e60365769d52d",
        "key_alice.bin": "bc13b7d697d5d9de612397514a21700ac1d28e9ccb019db0bbb56b1c26253493",
        "key_alice.txt": "22804169082c90180cff1e7a372f9e61f2f7f662d0faa8dd05335e5c1462d6df",
        "key_bob.bin": "b21d061f73be62f25b067de50468c716efefe1c363c16995373aecf1f14facbd",
        "key_bob.txt": "90feada0da0a85003e7ee5b07194af58c3df3081a3f3ebb8988b4913d1874e36",
        "report.json": "b9c5c085aa20129dd527019d7ba501a87363088a9045d4d37cb884f24773096c",
    },
    "freespace": {
        "alice.csv": "fa6630edeca3ecef31515b9b47f07695c45af561e99d9ce8c5fde5d58ff2f6c8",
        "bob.csv": "fa43fc7774e4c5dea61b5ae87e7c93d953aba5204291f561027883772a82d865",
        "config.cfg": "be8c9311a65c2ac7bf95fe6bc6d3b5412f29fdd9ce10a8975492505da55b9827",
        "eve.csv": "f7d2d0b21b82817f081092fbac877100a528bc21d9ab06f3737560fdbabdcbdc",
        "key_alice.bin": "109b959ff3f7a1b9548ef844bcc7baa727f491c5035c42a9cefae97357445858",
        "key_alice.txt": "7e718a964002e1d05163457b17353f9d56ee5d77da68b951f1152f8dda4b6344",
        "key_bob.bin": "c60fc823c87f791e493ad892b24e00d2c0e3690748646062231fb3168f4dfd0e",
        "key_bob.txt": "6dd374d5f6633d4192636b52d3740ed769f58484b57fe1b564d8f16f81a7be72",
        "report.json": "73bc3e50341a2810c93086007e123d9f9ae100a477a8dcec934c110dd75b74b6",
    },
}


def test_preset_artifacts_match_golden_digests(tmp_path):
    for preset, make in SCENARIO_PRESETS.items():
        art = run_scenario(make(seed=7, n_symbols=20_000, ad_block=2))
        files = _artifact_bytes(art, tmp_path / preset)
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
        assert digests == GOLDEN_DIGESTS[preset], preset


def _run_keeping_raw(monkeypatch, cfg):
    """``run_scenario(cfg)`` and each party's raw ``(x, p, psi, lag)``, taken
    from the channel and pilot phase steps of its receive."""
    receive, combine = harness._receive_party, harness.apply_channel
    corrections = harness._segment_corrections
    party = threading.local()
    combined, raw = {}, {}

    def named_receive(name, *args):
        party.name = name
        return receive(name, *args)

    def kept_combine(*args):
        combined[party.name] = combine(*args)
        return combined[party.name]

    def kept_corrections(x, p, syms, lag, config):
        assert x is combined[party.name][0] and p is combined[party.name][1]
        raw[party.name] = x, p, corrections(x, p, syms, lag, config), lag
        return raw[party.name][2]

    monkeypatch.setattr(harness, "_receive_party", named_receive)
    monkeypatch.setattr(harness, "apply_channel", kept_combine)
    monkeypatch.setattr(harness, "_segment_corrections", kept_corrections)
    art = run_scenario(cfg)
    return art, raw


def _per_symbol_fold(cfg, raw, index):
    """The reference fold of ``raw`` over ``index``, one angle per symbol,
    as whole-array expressions."""
    rng = harness._stream(cfg.seed, "bits")
    syms = bits_to_symbols(rng.integers(0, 2, size=2 * cfg.n_symbols, dtype=np.uint8))
    x, p, psi, lag = raw
    angle = psi[index // cfg.coherence_len] + SYMBOL_PHASES[syms[index]]
    xs, ps, cos_a, sin_a = x[index + lag], p[index + lag], np.cos(angle), np.sin(angle)
    xr = xs * cos_a + ps * sin_a
    pr = ps * cos_a - xs * sin_a
    return xr, pr, np.sqrt(xr * xr + pr * pr)


def test_fold_table_matches_per_symbol_trig(monkeypatch):
    # 250 coherence segments of 200 symbols and non-zero lags: the fold's
    # (segment, symbol) trig table gives the bytes of the per-symbol angles.
    cfg = dataclasses.replace(freespace_scenario(seed=3, n_symbols=50_000, ad_block=None),
                              coherence_len=200, pilot_len=20)
    art, raw = _run_keeping_raw(monkeypatch, cfg)
    index = art.index
    assert np.unique(index // cfg.coherence_len).size == 250
    for name in harness.PARTIES:
        psi = raw[name][2]
        assert np.unique(psi).size == psi.size == 250
        want = _per_symbol_fold(cfg, raw[name], index)
        rec = art.parties[name]
        for got, ref in zip((rec.x, rec.p, rec.z), want):
            assert got.tobytes() == ref.tobytes(), name
    assert [raw[name][3] for name in ("bob", "eve")] == [23, 31]


@pytest.mark.parametrize("case", ["waveguide", "freespace", "noiseless-bob-loudest-eve"])
def test_a_receive_is_its_links_combine_with_one_vacuum_unit_more_noise(monkeypatch, case):
    # The heterodyne adds nothing of its own: each party's x and p are the
    # combine of its input with its chan_<party> draws, the unit noise scaled
    # to sqrt(DETECTION_NOISE_VAR + rx_noise_var), byte for byte.
    cfg = SCENARIO_PRESETS[case if case in SCENARIO_PRESETS else "waveguide"](
        seed=6, n_symbols=20_000, ad_block=None)
    if case not in SCENARIO_PRESETS:
        cfg = set_config_value(cfg, "bob_link.rx_noise_var", 0.0)
        cfg = set_config_value(cfg, "eve_link.rx_noise_var", 1e12)
    _, raw = _run_keeping_raw(monkeypatch, cfg)
    _, inputs = harness._transmit(cfg)
    for name in harness.PARTIES:
        link = getattr(cfg, f"{name}_link")
        cos_t, sin_t, noise = harness._draw_link(name, cfg)
        amp = np.sqrt(link.transmittance)
        want = kernels.channel_combine(
            *inputs[name], amp, link.delay, cos_t, sin_t,
            np.array([t.delay for t in link.taps], dtype=np.int64),
            np.array([t.amplitude * np.cos(t.phase) * amp for t in link.taps]),
            np.array([t.amplitude * np.sin(t.phase) * amp for t in link.taps]),
            noise, np.sqrt(harness.DETECTION_NOISE_VAR + link.rx_noise_var))
        assert [part.tobytes() for part in raw[name][:2]] == [part.tobytes() for part in want], name


@pytest.mark.parametrize("noise_var", [0.0, 0.6, 10.0])
def test_received_noise_is_one_vacuum_unit_above_the_links(monkeypatch, noise_var):
    # On delay-0, tap-free, drift-free links a receive's residual x -
    # sqrt(T) re_in (and p - sqrt(T) im_in) is its whole added noise: per
    # quadrature 1 + rx_noise_var, with the two quadratures uncorrelated.
    # Over 12 seeds at 200k symbols the variance ratio's relative error had
    # an SD of at most 0.0039 and the correlation 0.0021; the bars are about
    # five of those.
    gains = dict(zip(harness.PARTIES, (0.9, 0.5, 0.25)))
    links = {f"{name}_link": ChannelParams(transmittance=t, rx_noise_var=noise_var)
             for name, t in gains.items()}
    cfg = dataclasses.replace(freespace_scenario(seed=5, n_symbols=200_000, ad_block=None),
                              **links)
    _, raw = _run_keeping_raw(monkeypatch, cfg)
    _, inputs = harness._transmit(cfg)
    for name, t in gains.items():
        rx, rp = (q - np.sqrt(t) * part for q, part in zip(raw[name][:2], inputs[name]))
        vx, vp = np.mean(rx * rx), np.mean(rp * rp)
        assert abs(vx / (1 + noise_var) - 1) < 0.02, name
        assert abs(vp / (1 + noise_var) - 1) < 0.02, name
        assert abs(np.mean(rx * rp) / np.sqrt(vx * vp)) < 0.011, name


def _plant_lags(monkeypatch, lag_of):
    """Make every receive find the lag ``lag_of(name, config)``, whatever the
    alignment picks: the lags found in noise are arbitrary."""
    receive, align = harness._receive_party, harness.estimate_delay_and_rotation
    party = threading.local()

    def planted_receive(name, inputs, config, *args):
        party.lag = lag_of(name, config)
        return receive(name, inputs, config, *args)

    def planted_align(*args):
        return dataclasses.replace(align(*args), lag=party.lag)

    monkeypatch.setattr(harness, "_receive_party", planted_receive)
    monkeypatch.setattr(harness, "estimate_delay_and_rotation", planted_align)


def test_records_slice_the_common_window_from_each_receive(monkeypatch):
    # With no displacement and lags 82, -768 and -790 planted, the common
    # window starts at 790 and lies inside every party's own folded range:
    # each record is the per-symbol fold over the window.
    cfg = set_config_value(waveguide_scenario(seed=3, n_symbols=20_000), "source.d0", 0)
    lags = {"alice": 82, "bob": -768, "eve": -790}
    _plant_lags(monkeypatch, lambda name, config: lags[name])
    art, raw = _run_keeping_raw(monkeypatch, cfg)
    assert {name: art.alignment[name].lag for name in harness.PARTIES} == lags
    assert art.index[0] == 790
    for name in harness.PARTIES:
        rec = art.parties[name]
        want = _per_symbol_fold(cfg, raw[name], art.index)
        for got, ref in zip((rec.x, rec.p, rec.z), want):
            assert got.tobytes() == ref.tobytes(), name
        assert rec.bits.tobytes() == median_slice(rec.z).tobytes(), name


@pytest.mark.parametrize("lags", [(0, 0, 0), (-30, 5, 0), (-1063, 936, 0), (-1064, 0, 1000)],
                         ids=["whole", "pilot-start", "pilot-edges", "data-edges"])
def test_common_index_is_every_data_symbol_of_the_window(monkeypatch, lags):
    # The window's data indices are built per segment, not by a remainder per
    # symbol; both edges fall on pilots and on data symbols across the cases.
    cfg = set_config_value(set_config_value(waveguide_scenario(seed=3, n_symbols=20_000),
                                            "source.d0", 0), "coherence_len", 1000)
    planted = dict(zip(harness.PARTIES, lags))
    _plant_lags(monkeypatch, lambda name, config: planted[name])
    art = run_scenario(cfg)
    u_lo, u_hi = max(0, -min(lags)), cfg.n_symbols - 1 - max(0, max(lags))
    want = np.arange(u_lo, u_hi + 1)
    want = want[want % cfg.coherence_len >= cfg.pilot_len]
    assert art.index.dtype == want.dtype and np.array_equal(art.index, want)


@pytest.mark.parametrize("d0, edge", [(0, 0), (40, -1)], ids=["window-start", "window-end"])
def test_shared_receives_are_sliced_per_point(monkeypatch, d0, edge):
    # Eve's lag moves one edge of the common window while the points share
    # Alice's and Bob's receives; each point reports what a lone run of it
    # reports. With displacement the lags found are the link delays and
    # move the end. Without, the negated delays are planted and move the
    # start.
    base = set_config_value(waveguide_scenario(seed=3, n_symbols=20_000), "source.d0", d0)
    if not d0:
        _plant_lags(monkeypatch, lambda name, config: -getattr(config, f"{name}_link").delay)
    rows = sweep(base, "eve_link.delay", [9, 500, 2000])
    edges = set()
    for delay, report in rows:
        art = run_scenario(set_config_value(base, "eve_link.delay", delay))
        assert report.to_json() == art.report.to_json(), delay
        assert art.alignment["eve"].lag == (delay if d0 else -delay)
        edges.add(int(art.index[edge]))
    assert len(edges) == 3


@pytest.mark.parametrize("preset, bar", [("waveguide", 0.99), ("freespace", 0.75)])
def test_every_party_matches_its_clusters_at_the_preset_defaults(preset, bar):
    # The alignment derotates by the phase of its own correlation, so the
    # carrier offset does not move the match. Waveguide parties read about
    # 0.999. Free space cannot reach 0.99 at any phase: d0 = 40 against
    # nbar = 295 leaves about a tenth of Alice's symbols outside their
    # cluster's quadrant, and the phase walk over the window costs Bob and
    # Eve a few points more (0.79-0.90 over seeds 0-5).
    for seed in (0, 1, 7):
        art = run_scenario(SCENARIO_PRESETS[preset](seed=seed, n_symbols=70_000, ad_block=None))
        for name in harness.PARTIES:
            assert art.alignment[name].match_fraction >= bar, (seed, name)


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
                          "key_alice", "key_bob", "key_alice_bin", "key_bob_bin"}
    assert sorted(paths.values()) == sorted((tmp_path / "run").iterdir())


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
    monkeypatch.setitem(harness.CALIBRATION_TARGETS, "waveguide", {"r_ab": (1.0, 0.02)})
    monkeypatch.setitem(harness.CALIBRATION_RANGES, "waveguide",
                        {("alice_link.rx_noise_var",): [0.0, 0.4, 0.8]})
    with pytest.raises(CalibrationError) as err:
        calibrate_preset("waveguide", n_symbols=40_000)
    best = err.value.best
    assert best.config.alice_link.rx_noise_var == 0.0
    assert best.achieved["r_ab"] < 1.0


# sha256 of each calibration's table rows and chosen config, both presets at
# 20k symbols and the default seed, as lone runs of each point compute them.
# Any change here is a reproducibility break and must be announced.
GOLDEN_CALIBRATIONS = {
    "waveguide": "1108de9f4c3b7df767d9348589a46b60defe75b407e726fbfb0ed3d29d71384f",
    "freespace": "9ce923d8d911b869a5965e9ac516d4d191c72537c131d1ec3dc1459bf4eed1d2",
}


def _calibration_digest(result):
    rows = [repr((point, sorted(achieved.items()), objective))
            for point, achieved, objective in result.table]
    text = "\n".join(rows) + "\n" + format_config(result.config)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("preset", sorted(GOLDEN_CALIBRATIONS))
def test_calibration_matches_golden_digest(preset, jobs):
    result = calibrate_preset(preset, n_symbols=20_000, jobs=jobs)
    assert _calibration_digest(result) == GOLDEN_CALIBRATIONS[preset]


def test_calibration_under_fast_thread_switches_matches_golden_digest(monkeypatch):
    # Party threads take the group's shared draws, and hold the new ones, at
    # once. Three of them, more than the cores here, under a 1 us switch
    # interval must still give the golden free-space calibration, in bounded
    # time.
    monkeypatch.setattr(harness, "PARTY_THREADS", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    start = time.monotonic()
    try:
        result = calibrate_preset("freespace", n_symbols=20_000)
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - start < 120
    assert _calibration_digest(result) == GOLDEN_CALIBRATIONS["freespace"]


def _traced_grid(monkeypatch, run_grid):
    """Run ``run_grid()`` and count its points, transmissions, receives,
    folds and draws.
    Also check that each receive alive as a point starts is read by that
    point or a later one, and that none of a party's draws is alive once
    its group's last receive of that party is made. Return the counts, the
    draws made of each stream (``chan_<party>``), the most
    receives alive at once (sampled as each point finishes) and the number
    of receives and draws alive after."""
    transmit, receive, finish = harness._transmit, harness._receive_party, harness._finish
    draw_link = harness._draw_link
    fold = kernels.demod_fold
    # Lists, not counters: a list append is atomic across pool threads.
    transmitted = []
    made = []           # (receive key, weak reference to its z)
    folds = []
    points = []         # (config, keys of the receives alive as it starts)
    draws = []          # (stream, party of a group, weak references to its arrays)
    receives = []       # (party of a group, parties of a group with draws alive after)
    peak = [0]

    def party(name, config):
        return harness._transmission_key(config), name

    def alive():
        return [key for key, ref in made if ref() is not None]

    def drawing(stream, draw):
        def counted(name, config):
            out = draw(name, config)
            arrays = out if isinstance(out, tuple) else (out,)
            draws.append((f"{stream}_{name}", party(name, config),
                          [weakref.ref(a) for a in arrays]))
            return out
        return counted

    def drawn_alive():
        return {who for _, who, refs in draws if any(ref() is not None for ref in refs)}

    def counted_transmit(config):
        transmitted.append(config)
        return transmit(config)

    def counted_receive(name, inputs, config, *args):
        out = receive(name, inputs, config, *args)
        made.append((harness._receive_key(name, config), weakref.ref(out.z)))
        receives.append((party(name, config), drawn_alive()))
        return out

    def counted_fold(*args):
        folds.append(None)
        return fold(*args)

    def point(config, group):
        points.append((config, alive()))
        return run_scenario(config, group)

    def sampled_finish(*args):
        peak[0] = max(peak[0], len(alive()))
        return finish(*args)

    monkeypatch.setattr(harness, "_transmit", counted_transmit)
    monkeypatch.setattr(harness, "_receive_party", counted_receive)
    monkeypatch.setattr(harness, "_draw_link", drawing("chan", draw_link))
    monkeypatch.setattr(harness, "_finish", sampled_finish)
    monkeypatch.setattr(kernels, "demod_fold", counted_fold)
    monkeypatch.setattr(harness, "run_scenario", point)
    run_grid()
    last_reader = {harness._receive_key(name, config): i
                   for i, (config, _) in enumerate(points) for name in harness.PARTIES}
    for i, (_, held) in enumerate(points):
        assert all(last_reader[key] >= i for key in held), i
    last_receive = {who: i for i, (who, _) in enumerate(receives)}
    for who, i in last_receive.items():
        assert who not in receives[i][1], (who, i)
    counts = (len(points), len(transmitted), len(made), len(folds))
    streams = Counter(stream for stream, _, _ in draws)
    return counts, streams, peak[0], len(alive()) + len(drawn_alive())


def _sweep_bob(key, values):
    return lambda: sweep(waveguide_scenario(n_symbols=20_000), key, values)


@pytest.mark.parametrize("grid, work, draws, most_held", [
    (lambda: calibrate_preset("freespace", n_symbols=20_000), (81, 1, 27, 27), (1, 1, 1), 11),
    (lambda: calibrate_preset("waveguide", n_symbols=20_000), (12, 1, 14, 14), (1, 1, 1), 3),
    (lambda: sweep(waveguide_scenario(n_symbols=20_000), "seed", [1, 2, 3], jobs=2),
     (3, 3, 9, 9), (3, 3, 3), 6),
    (_sweep_bob("bob_link.rx_noise_var", [0.1, 0.2, 0.3]), (3, 1, 5, 5), (1, 1, 1), 3),
    (_sweep_bob("bob_link.drift.walk_sigma", [1e-4, 2e-4, 4e-4]), (3, 1, 5, 5), (1, 3, 1), 3),
], ids=["calibrate-freespace", "calibrate-waveguide", "sweep-seed", "sweep-bob-noise",
        "sweep-bob-walk"])
def test_grid_runs_share_transmissions_and_receives(monkeypatch, grid, work, draws, most_held):
    # One transmission per group of points with equal _transmission_key,
    # each distinct receive once and folded once, and none kept past the
    # last point that reads it: the free-space grid holds Alice's 9
    # receives and one point's Bob and Eve at most. Each party's link is
    # drawn once per drift of its links in the group (``draws`` counts them
    # per party), and no draw is kept past the party's last receive:
    # Alice's free-space draws are gone once her 9th receive is made.
    counts, streams, peak, left = _traced_grid(monkeypatch, grid)
    assert counts == work
    assert streams == {f"chan_{name}": n for name, n in zip(harness.PARTIES, draws)}
    assert peak <= most_held
    assert left == 0


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("preset", sorted(SCENARIO_PRESETS))
def test_grid_points_match_lone_runs_over_link_fields(preset, jobs):
    # Points whose Bob links differ only in noise level, loss, delay or
    # drift share his draws of one drift; each report must still be that of
    # a lone run of the point's config. Each tap setting is a group of its
    # own, so at jobs=2 (on two or more CPUs) those groups run on a pool
    # and receive in place.
    base = SCENARIO_PRESETS[preset](seed=4, n_symbols=20_000, ad_block=None)
    for key, values in (("eve_transmittance", [0.3, 0.5, 0.7]),
                        ("bob_link.rx_noise_var", [0.1, 0.6, 1.3]),
                        ("bob_link.transmittance", [0.25, 0.6, 0.9]),
                        ("bob_link.delay", [0, 7, 40]),
                        ("bob_link.drift.walk_sigma", [0.0, 2e-4, 8e-4])):
        for value, report in sweep(base, key, values, jobs=jobs):
            lone = run_scenario(set_config_value(base, key, value)).report
            assert report.to_json() == lone.to_json(), (key, value)


def _count_calls(monkeypatch, name):
    """Replace ``harness.<name>`` with a wrapper that logs each call's first
    argument; return the log."""
    original, log = getattr(harness, name), []

    def counted(first, *args):
        log.append(first)
        return original(first, *args)

    monkeypatch.setattr(harness, name, counted)
    return log


def test_a_calibration_slices_each_receive_once_per_window(monkeypatch):
    # The free-space grid's 81 points read 27 receives, each over one common
    # window, so each is median-sliced once and not once per point.
    slices = _count_calls(monkeypatch, "median_slice")
    result = calibrate_preset("freespace", n_symbols=20_000)
    assert len(slices) == 27
    assert _calibration_digest(result) == GOLDEN_CALIBRATIONS["freespace"]


def test_a_moving_window_gives_shared_receives_fresh_records(monkeypatch):
    # Eve's delays 3 and 5 leave Bob's 7 the deepest lag, so the first two
    # points read Alice's and Bob's receives, made once for the sweep, over
    # one window; Eve's 40 moves the window's end, and both are sliced
    # again. Every point's report is that of a lone run.
    base = waveguide_scenario(seed=4, n_symbols=20_000, ad_block=None)
    receives = _count_calls(monkeypatch, "_receive_party")
    slices = _count_calls(monkeypatch, "median_slice")
    rows = sweep(base, "eve_link.delay", [3, 5, 40])
    assert Counter(receives) == {"alice": 1, "bob": 1, "eve": 3}
    sizes = [report.n_bits for _, report in rows]
    assert sizes[0] == sizes[1] > sizes[2]
    assert [z.size for z in slices] == [sizes[0]] * 4 + [sizes[2]] * 3
    monkeypatch.undo()
    for value, report in rows:
        lone = run_scenario(set_config_value(base, "eve_link.delay", value)).report
        assert report.to_json() == lone.to_json(), value


def test_a_group_lists_each_common_window_once(monkeypatch):
    # The 81 free-space points read one common window, so its data indices
    # are listed once, not once per point; a sweep whose Eve delays move the
    # window's end lists the two windows it reads once each.
    windows = _count_calls(monkeypatch, "_data_indices")
    result = calibrate_preset("freespace", n_symbols=20_000)
    assert len(windows) == 1
    assert _calibration_digest(result) == GOLDEN_CALIBRATIONS["freespace"]
    windows.clear()
    base = waveguide_scenario(seed=4, n_symbols=20_000, ad_block=None)
    rows = sweep(base, "eve_link.delay", [3, 5, 40])
    assert len(windows) == 2
    monkeypatch.undo()
    for value, report in rows:
        lone = run_scenario(set_config_value(base, "eve_link.delay", value)).report
        assert report.to_json() == lone.to_json(), value


def test_shared_noises_are_read_in_place_and_only_sums_are_copied(monkeypatch):
    # Bob's three receives in a sweep of his noise level share one draw of
    # his link. Every combine reads the held noise itself; the two earlier
    # combines write into copies of the cosines and sines, and the last into
    # the draws'.
    combine, receive = harness.apply_channel, harness._receive_party
    draw_link = harness._draw_link
    party = threading.local()
    seen = {"draws": [], "combined": []}

    def named_receive(name, *args):
        party.name = name
        return receive(name, *args)

    def kept_draw(name, config):
        out = draw_link(name, config)
        if name == "bob":
            seen["draws"].append(out)
        return out

    def kept_combine(stream, params, drawn, *noise_var):
        if party.name == "bob":
            seen["combined"].append(drawn)
        return combine(stream, params, drawn, *noise_var)

    monkeypatch.setattr(harness, "_receive_party", named_receive)
    monkeypatch.setattr(harness, "_draw_link", kept_draw)
    monkeypatch.setattr(harness, "apply_channel", kept_combine)
    base = waveguide_scenario(seed=4, n_symbols=20_000, ad_block=None)
    rows = sweep(base, "bob_link.rx_noise_var", [0.1, 0.2, 0.3])
    (drawn,), combined = seen["draws"], seen["combined"]
    assert len(combined) == 3
    assert all(got[2] is drawn[2] for got in combined)
    assert [[got[i] is drawn[i] for i in (0, 1)] for got in combined] == [[False] * 2] * 2 + [
        [True] * 2]
    monkeypatch.undo()
    for value, report in rows:
        lone = run_scenario(set_config_value(base, "bob_link.rx_noise_var", value)).report
        assert report.to_json() == lone.to_json(), value


def _peak_above_folds(n):
    """Bytes traced at the peak of one free-space point's transmission and
    receives, on this thread alone, above the folds that they return."""
    cfg = freespace_scenario(seed=11, n_symbols=n, ad_block=None)
    group = harness._GroupCache([cfg], threaded=False)
    tracemalloc.start()
    try:
        received = group.received(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(r.x.nbytes + r.p.nbytes + r.z.nbytes for r in received.values())


def test_a_receive_holds_a_bounded_number_of_bytes_per_symbol():
    # The peak above the returned folds grows by 22.8 B per symbol of run
    # length between these sizes, about the last party's input and link
    # draws (48 B) less the fold it has yet to make (24 B); the blocks of
    # the source, the combine and the fold do not grow with the run.
    # Whole-run complex and gathered temporaries made it 47.7 B.
    small, large = _peak_above_folds(300_000), _peak_above_folds(1_200_000)
    assert (large - small) / 900_000 <= 28


def test_a_lone_run_keeps_no_other_per_symbol_array(monkeypatch):
    # A lone run's receives, and the window records they memoise, are gone
    # once it returns; its artifacts hold each party's x, p, z and bits and
    # the common index, and no other array of one entry per symbol.
    receive = harness._receive_party
    made = []

    def kept(*args):
        out = receive(*args)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(harness, "_receive_party", kept)
    art = run_scenario(freespace_scenario(seed=2, n_symbols=20_000, ad_block=2))
    assert len(made) == 3 and [ref() for ref in made] == [None] * 3
    arrays = []

    def walk(path, obj):
        if isinstance(obj, np.ndarray):
            if obj.size >= art.report.n_bits:
                arrays.append(path)
        elif isinstance(obj, dict):
            for key, value in obj.items():
                walk(f"{path}.{key}", value)
        elif isinstance(obj, (list, tuple)):
            for i, value in enumerate(obj):
                walk(f"{path}.{i}", value)
        elif hasattr(obj, "__dict__"):
            walk(path, vars(obj))

    walk("art", art)
    assert sorted(arrays) == sorted(["art.index"] + [f"art.parties.{name}.{field}"
                                                     for name in harness.PARTIES
                                                     for field in ("x", "p", "z", "bits")])


def test_a_lone_run_frees_each_input_once_received(monkeypatch):
    # Outside a grid a run still drops each party's input field and link
    # noise once combined, before its alignment, and each party's raw
    # quadratures once folded, so none is left by the time the run
    # finishes. It holds no draw for a later receive, so each combine
    # builds the quadratures in the link's cosines and sines themselves.
    transmit, align, finish = (harness._transmit, harness.estimate_delay_and_rotation,
                               harness._finish)
    draw_link, combine, receive = harness._draw_link, harness.apply_channel, harness._receive_party
    fields, quadratures, draws, links, combined, detected = [], [], [], [], [], []
    combined_inputs = {name: [] for name in harness.PARTIES}
    party = threading.local()

    def traced_transmit(config):
        syms, inputs = transmit(config)
        for name, field in inputs.items():
            fields.extend(weakref.ref(part) for part in field)
            combined_inputs[name].extend(weakref.ref(part) for part in field)
        return syms, inputs

    def named_receive(name, *args):
        party.name = name
        return receive(name, *args)

    def traced_align(*args):
        assert [ref() for ref in combined_inputs[party.name]] == [None] * 3, party.name
        return align(*args)

    def traced_draw_link(name, config):
        out = draw_link(name, config)
        draws.extend(weakref.ref(a) for a in out)
        links.append([weakref.ref(a) for a in out])
        combined_inputs[name].append(weakref.ref(out[2]))
        return out

    def checked_combine(stream, params, drawn, *noise_var):
        combined.append(any(all(a is ref() for a, ref in zip(drawn, refs)) for refs in links))
        x, p = combine(stream, params, drawn, *noise_var)
        detected.append(any(x is refs[0]() and p is refs[1]() for refs in links))
        quadratures.extend((weakref.ref(x), weakref.ref(p)))
        return x, p

    def checked_finish(*args):
        assert [ref() for ref in fields] == [None] * 6
        assert [ref() for ref in quadratures] == [None] * 6
        assert [ref() for ref in draws] == [None] * 9
        return finish(*args)

    monkeypatch.setattr(harness, "_transmit", traced_transmit)
    monkeypatch.setattr(harness, "_receive_party", named_receive)
    monkeypatch.setattr(harness, "estimate_delay_and_rotation", traced_align)
    monkeypatch.setattr(harness, "_draw_link", traced_draw_link)
    monkeypatch.setattr(harness, "apply_channel", checked_combine)
    monkeypatch.setattr(harness, "_finish", checked_finish)
    run_scenario(freespace_scenario(seed=2, n_symbols=20_000, ad_block=None))
    assert len(fields) == 6
    assert len(quadratures) == 6
    assert len(draws) == 9
    assert combined == [True] * 3
    assert detected == [True] * 3


def test_a_transmission_transforms_the_reference_once(monkeypatch):
    # Every party of a run, and every receive of a calibration grid, reads
    # the public window's transform made once for its transmission: at the
    # preset defaults all three share the window and the FFT size.
    transform = modem._reference_spectrum
    made = []

    def counted(ref, nfft):
        made.append((ref.size, nfft))
        return transform(ref, nfft)

    monkeypatch.setattr(modem, "_reference_spectrum", counted)
    for make in SCENARIO_PRESETS.values():
        made.clear()
        run_scenario(make(seed=1, n_symbols=100_000, ad_block=None))
        assert made == [(harness.ALIGNMENT_WINDOW, 67_500)]
    made.clear()
    calibrate_preset("freespace", n_symbols=20_000)
    assert made == [(20_000, modem._fft_size(20_000 + harness.MIN_ALIGNMENT_LAG))]


def test_calibrating_an_unknown_preset_raises():
    with pytest.raises(ValueError, match="unknown preset 'nope'"):
        calibrate_preset("nope")


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
    # %.9g would print both of these as 1e+09.
    report = serial[0][1]
    big = sweep_csv([(1000000001.0, report), (1000000002.0, report), (0.25, report)], "x")
    assert [line.split(",")[0] for line in big.splitlines()] == [
        "x", "1000000001", "1000000002", "0.25"]


def test_every_sweep_point_runs_at_the_base_seed():
    base = waveguide_scenario(seed=4, n_symbols=20_000, ad_block=None)
    rows = sweep(base, "seed", [5, 6], jobs=2)
    assert [value for value, _ in rows] == [5, 6]
    for value, report in rows:
        assert report == run_scenario(dataclasses.replace(base, seed=value)).report
    [(_, report)] = sweep(base, "eve_transmittance", [base.eve_transmittance])
    assert report == run_scenario(base).report


def test_sweep_eleven_point_grid():
    assert len(sweep_values(0.0, 1.0, 0.1)) == 11


@pytest.mark.parametrize("start, stop, step, count", [
    (0.09, 1.0, 0.07, 14),              # 0.09 + 13 * 0.07 rounds above 1.0
    (858197.687, 858207.487, 0.7, 15),  # and 14 * 0.7 above stop, by more than 1e-12
    (0.0, 1.0, 0.3, 4),
], ids=["round-up", "large-magnitude", "short-of-stop"])
def test_sweep_grid_ends_at_stop(start, stop, step, count):
    values = sweep_values(start, stop, step)
    assert len(values) == count
    assert values[0] == start and max(values) <= stop
    assert values == pytest.approx([start + i * step for i in range(count)], rel=1e-12)
    if (count - 1) * step == pytest.approx(stop - start):
        assert values[-1] == stop


def test_eve_information_grows_as_tap_favors_her():
    # over the Eve-favored half of the range, lowering the transmittance
    # toward her strictly raises I(B;E)
    base = waveguide_scenario(seed=6, n_symbols=150_000, ad_block=None)
    i_be = []
    for t in (1.0, 0.875, 0.75, 0.625, 0.5):
        cfg = dataclasses.replace(base, eve_transmittance=t)
        i_be.append(run_scenario(cfg).report.i_be)
    assert all(b > a for a, b in zip(i_be, i_be[1:]))

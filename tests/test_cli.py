import contextlib
import dataclasses
import io
import json
import math
import shutil
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalqkd import cli, config, harness, selftest
from thermalqkd.cli import main
from thermalqkd.config import format_config, load_config, save_config
from thermalqkd.harness import (MAX_SWEEP_POINTS, calibrate_preset, freespace_scenario,
                                waveguide_scenario)
from thermalqkd.modem import MIN_PILOTS


@pytest.fixture()
def config_file(tmp_path):
    cfg = waveguide_scenario(seed=1, n_symbols=12_000)
    path = tmp_path / "scenario.cfg"
    save_config(cfg, path)
    return path


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_run_twice_is_byte_identical(tmp_path, config_file, capsys):
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert main(["run", str(config_file), "--seed", "7", "--out", str(out1)]) == 0
    assert main(["run", "--seed", "7", str(config_file), "--out", str(out2)]) == 0
    assert _dir_bytes(out1) == _dir_bytes(out2)
    text = capsys.readouterr().out
    assert "r_ab=" in text and "n_bits=" in text


def test_run_seed_overrides_config(tmp_path, config_file, capsys):
    out = tmp_path / "out"
    assert main(["run", str(config_file), "--seed", "42", "--out", str(out)]) == 0
    assert "seed = 42" in (out / "config.cfg").read_text()
    # Read as the config file reads seed: 0x10 is 16, and 010 is rejected by name.
    assert main(["run", str(config_file), "--seed", "0x10", "--out", str(out)]) == 0
    assert "seed = 16" in (out / "config.cfg").read_text()
    capsys.readouterr()
    assert main(["run", str(config_file), "--seed", "010", "--out", str(out)]) == 1
    assert "seed: invalid literal" in capsys.readouterr().err


def test_run_uses_env_output_dir(tmp_path, config_file, monkeypatch, capsys):
    monkeypatch.setenv("THERMALQKD_OUT", str(tmp_path / "envout"))
    assert main(["run", str(config_file)]) == 0
    assert (tmp_path / "envout" / "scenario-seed1" / "report.json").exists()
    # Without --out, a directory that cannot be made is blamed on where it
    # came from: the variable, or the default ./runs.
    monkeypatch.setenv("THERMALQKD_OUT", str(config_file))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs").write_text("")
    for source in ("THERMALQKD_OUT", "default output directory"):
        capsys.readouterr()
        assert main(["run", str(config_file)]) == 1
        err = capsys.readouterr().err
        assert f"thermalqkd: {source}: cannot use" in err and "--out" not in err
        monkeypatch.delenv("THERMALQKD_OUT", raising=False)


def test_run_treats_empty_env_output_dir_as_unset(tmp_path, config_file, monkeypatch, capsys):
    monkeypatch.setenv("THERMALQKD_OUT", "")
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(config_file)]) == 0
    assert (tmp_path / "runs" / "scenario-seed1" / "report.json").exists()
    assert not (tmp_path / "scenario-seed1").exists()
    shutil.rmtree(tmp_path / "runs")
    (tmp_path / "runs").write_text("")
    capsys.readouterr()
    assert main(["run", str(config_file)]) == 1
    err = capsys.readouterr().err
    assert "thermalqkd: default output directory: cannot use" in err
    assert "THERMALQKD_OUT" not in err


def test_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    text = format_config(waveguide_scenario(seed=1, n_symbols=12_000))
    for old, new, field in [("n_symbols = 12000", "n_symbols = -3", "n_symbols"),
                            ("n_symbols = 12000", f"n_symbols = {10 ** 30}", "n_symbols"),
                            ("seed = 1", "seed = -1", "seed"),
                            ("bob_link.taps = 9:0.02:-0.8", "bob_link.taps = 1:0.1:nan",
                             "bob_link.taps"),
                            # more than the data symbols left, though pilot_len leaves plenty
                            ("ad_block = 2", "ad_block = 100000", "ad_block:")]:
        assert old in text
        bad.write_text(text.replace(old, new))
        assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert field in capsys.readouterr().err


@pytest.mark.parametrize("factory", [waveguide_scenario, freespace_scenario])
def test_pilots_leaving_no_data_exit_one(tmp_path, capsys, factory):
    # pilots and alignment edges take every symbol but 1 (waveguide) or 0
    path = tmp_path / "pilots.cfg"
    save_config(dataclasses.replace(factory(seed=1, n_symbols=1000), pilot_len=990), path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "pilot_len" in err and "runtime failure" not in err


def _edit_config(path, values):
    """Replace the values of some ``key = value`` lines of a config file."""
    lines = (line.split(" = ", 1) for line in path.read_text().splitlines())
    path.write_text("".join(f"{key} = {values.get(key, value)}\n" for key, value in lines))


_LINKS = ("alice_link", "bob_link", "eve_link")
_BOUNDS = {"source.nbar": 1e12, "source.d0": 1e6, "bob_link.rx_noise_var": 1e12,
           "bob_link.drift.walk_sigma": 1e6, "bob_link.drift.hop_scale": 1e6}
_AT_BOUNDS = {key.replace("bob_link", link): bound
              for key, bound in _BOUNDS.items() for link in _LINKS}
_AT_BOUNDS.update({f"{link}.drift.hop_prob": 1.0 for link in _LINKS})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values, code", [
    *(({key: float(np.nextafter(bound, np.inf))}, 1) for key, bound in _BOUNDS.items()),
    (_AT_BOUNDS, 0),
], ids=[*(f"above-{key}" for key in _BOUNDS), "all-at-bounds"])
def test_field_bounds_keep_runs_finite(tmp_path, config_file, capsys, values, code):
    # Just above its bound a field is rejected by name; at every bound at
    # once, with a hop on every symbol, the run reports finite metrics.
    _edit_config(config_file, {k: repr(v) for k, v in values.items()})
    out = tmp_path / "out"
    assert main(["run", str(config_file), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "runtime failure" not in err
    if code:
        [(key, _)] = values.items()
        section, field = key.split(".")[0], key.rsplit(".", 1)[1]
        assert f"{section}: {field} must be" in err
    else:
        report = json.loads((out / "report.json").read_text())
        assert all(math.isfinite(v) for v in report.values())


def test_longest_coherence_segment_runs_in_bounded_memory(tmp_path, config_file):
    # One segment far longer than the run: the finish makes the data
    # offsets only up to the common window's end, not up to coherence_len
    # (7.45 GiB of them here). The run itself peaks near 6 MB.
    _edit_config(config_file, {"n_symbols": "20000", "coherence_len": str(10 ** 9)})
    tracemalloc.start()
    try:
        assert main(["run", str(config_file), "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1


@pytest.mark.parametrize("argv, arg", [
    (["run", "{dir}"], "config"),
    (["sweep", "eve_transmittance", "0.5", "0.5", "0.1", "--config", "{dir}"], "--config"),
    (["run", "{cfg}", "--out", "{file}"], "--out"),
    (["run", "{cfg}", "--out", "{file}/sub"], "--out"),
    (["sweep", "eve_transmittance", "0.5", "0.5", "0.1", "--config", "{cfg}",
      "--out", "{dir}"], "--out"),
    (["calibrate", "waveguide", "--n-symbols", "20000", "--out", "{dir}"], "--out"),
    (["run", "{cfg}", "--out", "{taken}"], "--out"),
], ids=["run-config-dir", "sweep-config-dir", "run-out-file", "run-out-under-file",
        "sweep-out-dir", "calibrate-out-dir", "run-out-csv-is-dir"])
def test_path_arguments_exit_one_naming_the_argument(tmp_path, config_file, capsys,
                                                     argv, arg):
    (tmp_path / "file").write_text("not a directory\n")
    (tmp_path / "taken" / "alice.csv").mkdir(parents=True)   # run's first CSV
    names = {"dir": tmp_path, "file": tmp_path / "file", "cfg": config_file,
             "taken": tmp_path / "taken"}
    assert main([a.format(**names) for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"thermalqkd: {arg}: cannot use" in err and "runtime failure" not in err
    assert (tmp_path / "file").read_text() == "not a directory\n"


def test_failed_fork_is_a_runtime_failure(tmp_path, config_file, capsys, monkeypatch):
    # An OSError that names no file says nothing about --out.
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")
    monkeypatch.setattr(harness.os, "fork", no_fork)
    assert main(["run", str(config_file), "--out", str(tmp_path / "out")]) == 2
    assert "runtime failure" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_usage_error_exits_one(capsys):
    assert main(["sweep", "eve_transmittance", "0.0"]) == 1
    assert main(["selftest", "--full"]) == 1


def test_sweep_writes_csv(tmp_path, config_file, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "eve_transmittance", "0.3", "0.7", "0.2",
                 "--config", str(config_file), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].split(",")[0] == "eve_transmittance"


def test_sweep_prints_without_out(config_file, capsys):
    assert main(["sweep", "eve_transmittance", "0.4", "0.6", "0.2",
                 "--config", str(config_file)]) == 0
    assert capsys.readouterr().out.startswith("eve_transmittance,")


def test_sweep_seed_and_n_symbols_override_config(config_file, capsys):
    def sweep_csv(*extra):
        argv = ["sweep", "eve_transmittance", "0.5", "0.5", "0.1", "--config", str(config_file)]
        assert main([*argv, *extra]) == 0
        return capsys.readouterr().out

    def n_bits(text):
        header, row = text.splitlines()
        return int(dict(zip(header.split(","), row.split(",")))["n_bits"])

    base = sweep_csv()
    assert sweep_csv("--seed", "5") != sweep_csv("--seed", "6")
    assert sweep_csv("--seed", "1") == base
    longer = sweep_csv("--n-symbols", "20000")
    assert n_bits(longer) > n_bits(base)
    # Read as the config file reads these keys: 0x prefixes are hex, and a
    # leading zero is rejected by name.
    assert sweep_csv("--seed", "0x1", "--n-symbols", "0x4e20") == longer
    for flag, field in (("--seed", "seed"), ("--n-symbols", "n_symbols")):
        argv = ["sweep", "eve_transmittance", "0.5", "0.5", "0.1", "--config", str(config_file)]
        assert main([*argv, flag, "020000"]) == 1
        assert f"{field}: invalid literal" in capsys.readouterr().err


def _record_calls(monkeypatch):
    """Replace ``calibrate_preset`` and ``sweep`` in the CLI by recorders of
    their arguments; returns the list they append to."""
    calls = []

    def record(result):
        def fake(*args, **kw):
            calls.append((args, kw))
            return result
        return fake

    best = harness.CalibrationResult(config=None, achieved={}, targets={}, table=[])
    monkeypatch.setattr(cli, "calibrate_preset", record(best))
    monkeypatch.setattr(cli, "sweep", record([]))
    return calls


@pytest.mark.parametrize("flags, kwargs", [
    ([], {}),
    (["--n-symbols", "5000"], {"n_symbols": 5000}),
    (["--seed", "3"], {"seed": 3}),
    (["--jobs", "2"], {"jobs": 2}),
    (["--jobs", "2", "--seed", "3", "--n-symbols", "5000"],
     {"n_symbols": 5000, "seed": 3, "jobs": 2}),
    (["--seed", "0x10", "--n-symbols", "0x1388"], {"n_symbols": 5000, "seed": 16}),
], ids=["none", "n-symbols", "seed", "jobs", "all", "hex"])
def test_cli_passes_on_only_the_options_given(monkeypatch, capsys, flags, kwargs):
    # The library's defaults hold unless a flag sets the value.
    calls = _record_calls(monkeypatch)
    assert main(["sweep", "eve_transmittance", "0.5", "0.5", "0.1", *flags]) == 0
    (base, *_), sweep_kwargs = calls.pop()
    preset = waveguide_scenario(seed=0, n_symbols=300_000, ad_block=None)
    assert base == dataclasses.replace(preset, seed=kwargs.get("seed", 0),
                                       n_symbols=kwargs.get("n_symbols", 300_000))
    assert sweep_kwargs == {k: v for k, v in kwargs.items() if k == "jobs"}


@pytest.mark.parametrize("flags, kwargs", [
    ([], {}),
    (["--n-symbols", "5000"], {"n_symbols": 5000}),
    (["--seed", "3"], {"seed": 3}),
    (["--seed", "3", "--n-symbols", "5000"], {"n_symbols": 5000, "seed": 3}),
    (["--seed", "0x10", "--n-symbols", "0x1388"], {"n_symbols": 5000, "seed": 16}),
], ids=["none", "n-symbols", "seed", "all", "hex"])
def test_calibrate_passes_on_only_the_options_given(monkeypatch, capsys, flags, kwargs):
    # A calibration is one group of points, so it takes no --jobs.
    calls = _record_calls(monkeypatch)
    assert main(["calibrate", "waveguide", *flags]) == 0
    assert calls.pop() == (("waveguide",), kwargs)
    assert main(["calibrate", "waveguide", "--jobs", "2", *flags]) == 1
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("flag, field", [("--seed", "seed"), ("--n-symbols", "n_symbols")])
def test_calibrate_rejects_a_leading_zero_by_name(monkeypatch, capsys, flag, field):
    # The config file's integer grammar rejects 010, so calibrate does too.
    calls = _record_calls(monkeypatch)
    assert main(["calibrate", "waveguide", flag, "010"]) == 1
    assert f"{field}: invalid literal" in capsys.readouterr().err
    assert calls == []


def test_calibrate_writes_loadable_preset(tmp_path):
    out = tmp_path / "waveguide.cfg"
    assert main(["calibrate", "waveguide", "--n-symbols", "20000", "--out", str(out)]) == 0
    assert "# target r_ab" in out.read_text()
    assert load_config(out) == calibrate_preset("waveguide", n_symbols=20_000).config


def test_calibrate_unreachable_target_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(harness.CALIBRATION_TARGETS, "waveguide", {"r_ab": (1.0, 0.02)})
    out = tmp_path / "waveguide.cfg"
    assert main(["calibrate", "waveguide", "--n-symbols", "20000", "--out", str(out)]) == 2
    assert "best r_ab" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("param, start, stop, step, extra, code, field", [
    ("source.nbar", "-1", "0", "1", [], 1, "nbar"),
    ("bob_link.drift.nope", "0", "1", "1", [], 1, "bob_link.drift.nope"),
    ("bob_link.delay", "2.5", "2.5", "1", [], 1, "bob_link.delay"),
    ("ad_block", "2", "3", "1", [], 0, None),
    ("eve_transmittance", "0", "1", "0", [], 1, "step"),
    ("eve_transmittance", "1", "0", "0.5", [], 1, "stop"),
    ("eve_transmittance", "nan", "1", "0.5", [], 1, "start"),
    ("eve_transmittance", "0", "inf", "0.5", [], 1, "stop"),
    ("eve_transmittance", "0.3", "0.5", "0.2", ["--jobs", "0"], 1, "jobs"),
    ("eve_transmittance", "0", "1", "1e-300", [], 1, "step"),
    ("eve_transmittance", "0", "1e300", "1e-300", [], 1, "step"),
    ("eve_transmittance", "-1e-05", "0", "1", [], 1, "eve_transmittance"),
    ("eve_transmittance", "0", "1", "-inf", [], 1, "step: must be finite"),
    ("seed", "5", "5", "1", [], 0, None),
    ("eve_transmittance", "0.09", "1.0", "0.07", [], 0, None),
], ids=["negative-nbar", "unknown-key", "fractional-delay", "int-ad-block", "zero-step",
        "empty-grid", "nan-start", "inf-stop", "zero-jobs", "huge-grid", "overflowing-grid",
        "exponent-negative-start", "negative-inf-step", "seed", "last-point-at-stop"])
def test_sweep_values_checked_per_field(config_file, capsys, param, start, stop, step,
                                        extra, code, field):
    argv = ["sweep", param, start, stop, step, "--config", str(config_file), *extra]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "runtime failure" not in err
    if field is not None:
        assert field in err


# Values each field rejects, one grid point each.
_REJECTED = {
    "n_symbols": st.integers(10 ** 9 + 1, 10 ** 30) | st.integers(-10 ** 6, 999),
    "pilot_len": st.integers(-100, MIN_PILOTS - 1),
    "coherence_len": st.integers(10 ** 9 + 1, 2 ** 80),
    "ad_block": st.integers(-100, 1),
    "eve_transmittance": st.floats(1.0, 1e300, exclude_min=True) | st.floats(-1e300, -1e-9),
    "source.nbar": st.floats(1e12, 1e300, exclude_min=True) | st.floats(-1e300, -1e-9),
    "bob_link.delay": st.floats(0.0, 1000.0).filter(lambda v: not v.is_integer()),
}


# A valid first point for the keys that also reject values above it.
_LATE_START = {"n_symbols": 1000.0, "eve_transmittance": 0.0, "source.nbar": 0.0,
               "bob_link.delay": 0.0, "coherence_len": 10.0 ** 9}


_BAD_SWEEPS = ["non-finite", "step", "order", "size", "key", "jobs",
               *(f"value:{key}" for key in _REJECTED),
               *(f"value-late:{key}" for key in _LATE_START)]


@st.composite
def _bad_sweep_argv(draw, kind):
    """``sweep`` arguments of one ``kind`` that validation rejects before any run."""
    param, flags = "eve_transmittance", []
    start = draw(st.floats(0.0, 1.0))
    stop, step = start, 0.5
    if kind == "non-finite":
        grid = [start, stop, step]
        grid[draw(st.integers(0, 2))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        start, stop, step = grid
    elif kind == "step":
        step = draw(st.floats(max_value=0.0))
    elif kind == "order":
        stop = draw(st.floats(-1e300, start, exclude_max=True))
    elif kind == "size":
        start, step = 0.0, draw(st.floats(1e-9, 1.0))
        stop = step * draw(st.integers(MAX_SWEEP_POINTS + 1, 10 ** 9))
    elif kind == "key":
        param = draw(st.text("abcdefghijklmnopqrstuvwxyz_.", min_size=1, max_size=30)
                     .filter(lambda key: key not in config._KEYS))
    elif kind == "jobs":
        flags = ["--jobs", str(draw(st.integers(-10, 0)))]
    elif kind.startswith("value-late:"):
        # Two points: a valid start, then the rejected value as start + step.
        param = kind.split(":", 1)[1]
        start = _LATE_START[param]
        step = float(draw(_REJECTED[param].filter(lambda v: v > start))) - start
        stop = start + step
    else:
        param = kind.split(":", 1)[1]
        start = stop = float(draw(_REJECTED[param]))
    # After "--", a value such as "-1e+30" or "-inf" is positional, not an option.
    return ["sweep", "--n-symbols", "2000", *flags, "--",
            param, repr(start), repr(stop), repr(step)]


def _no_run(cfg, *args):
    raise AssertionError(f"a rejected sweep ran a scenario of {cfg.n_symbols} symbols")


@pytest.mark.parametrize("kind", _BAD_SWEEPS)
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data())
def test_bad_sweep_arguments_exit_one(kind, data):
    # Rejected before any point runs: a run here would be a runtime failure.
    argv = data.draw(_bad_sweep_argv(kind))
    err = io.StringIO()
    with mock.patch.object(harness, "run_scenario", _no_run), \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 1, err.getvalue()
    assert "runtime failure" not in err.getvalue()
    if kind.startswith("value"):
        # A section's dataclass names the field without its section.
        assert argv[-4].rsplit(".", 1)[-1] in err.getvalue()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_selftest_reports_failing_and_raising_criteria(monkeypatch, capsys):
    def raises():
        raise RuntimeError("boom")

    monkeypatch.setattr(selftest, "CRITERIA", {
        "x": ("x", lambda: (False, "stub failed"), None),
        "y": ("y", raises, 10),
    })
    assert main(["selftest"]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] criterion x: stub failed" in out
    assert "[FAIL] criterion y: raised RuntimeError: boom" in out

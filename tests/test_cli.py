import dataclasses
import json
import math

import numpy as np
import pytest

from thermalqkd import harness, selftest
from thermalqkd.cli import main
from thermalqkd.config import format_config, load_config, save_config
from thermalqkd.harness import calibrate_preset, freespace_scenario, waveguide_scenario


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


def test_run_seed_overrides_config(tmp_path, config_file):
    out = tmp_path / "out"
    assert main(["run", str(config_file), "--seed", "42", "--out", str(out)]) == 0
    assert "seed = 42" in (out / "config.cfg").read_text()


def test_run_uses_env_output_dir(tmp_path, config_file, monkeypatch):
    monkeypatch.setenv("THERMALQKD_OUT", str(tmp_path / "envout"))
    assert main(["run", str(config_file)]) == 0
    assert (tmp_path / "envout" / "scenario-seed1" / "report.json").exists()


def test_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    text = format_config(waveguide_scenario(seed=1, n_symbols=12_000))
    bad.write_text(text.replace("n_symbols = 12000", "n_symbols = -3"))
    assert main(["run", str(bad)]) == 1
    assert "n_symbols" in capsys.readouterr().err


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


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1


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
    assert n_bits(sweep_csv("--n-symbols", "20000")) > n_bits(base)


def test_calibrate_writes_loadable_preset(tmp_path):
    out = tmp_path / "waveguide.cfg"
    assert main(["calibrate", "waveguide", "--n-symbols", "20000", "--out", str(out)]) == 0
    assert "# target r_ab" in out.read_text()
    assert load_config(out) == calibrate_preset("waveguide", n_symbols=20_000).config


def test_calibrate_unreachable_target_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(harness.CALIBRATION_TARGETS, "waveguide", {"r_ab": 1.0})
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
], ids=["negative-nbar", "unknown-key", "fractional-delay", "int-ad-block", "zero-step",
        "empty-grid", "nan-start", "inf-stop", "zero-jobs"])
def test_sweep_values_checked_per_field(config_file, capsys, param, start, stop, step,
                                        extra, code, field):
    argv = ["sweep", param, start, stop, step, "--config", str(config_file), *extra]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "runtime failure" not in err
    if field is not None:
        assert field in err


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

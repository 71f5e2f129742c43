"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-4 and 7-9 live in ``thermalqkd.selftest``, which ``thermalqkd
selftest`` also runs; criteria 5 and 6 calibrate a preset first and live
here. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines and measured values.
"""

import dataclasses

import numpy as np

from thermalqkd.harness import calibrate_preset, sweep
from thermalqkd.selftest import CRITERIA, run_check


def test_criterion_1_hbt_thermal_source():
    assert run_check(*CRITERIA["1a"])


def test_criterion_1_hbt_displaced_source():
    assert run_check(*CRITERIA["1b"])


def test_criterion_2_sampler_matches_oracle():
    assert run_check(*CRITERIA["2"])


def test_criterion_3_estimator_correctness():
    assert run_check(*CRITERIA["3"])


def test_criterion_4_alignment_recovery():
    assert run_check(*CRITERIA["4"])


def _seed_sweep(config):
    # Seeds 0-19 at 3M symbols, report only, two at a time; each report is
    # that of run_scenario at its seed.
    base = dataclasses.replace(config, n_symbols=3_000_000, ad_block=None)
    return [report for _, report in sweep(base, "seed", range(20), jobs=2)]


def _calibrated_waveguide():
    calibrated = calibrate_preset("waveguide").config
    reports = _seed_sweep(calibrated)
    mean_r_ab = float(np.mean([r.r_ab for r in reports]))
    n_drr = sum(r.delta_rr > 0 for r in reports)
    n_cmi = sum(r.i_ab_given_e > 0 for r in reports)
    ok = abs(mean_r_ab - 0.9264) < 0.02 and n_drr >= 18 and n_cmi >= 18
    return ok, (f"mean r_ab={mean_r_ab:.4f} (want 0.9264+-0.02), "
                f"delta_rr>0 in {n_drr}/20, i_ab_given_e>0 in {n_cmi}/20 (need >=18)")


def test_criterion_5_calibrated_waveguide():
    assert run_check("5", _calibrated_waveguide, 300)


def _calibrated_freespace():
    calibrated = calibrate_preset("freespace").config
    reports = _seed_sweep(calibrated)
    means = {name: float(np.mean([getattr(r, name) for r in reports]))
             for name in ("r_be", "ber_ab", "i_ab_given_e", "delta_rr")}
    ok = (abs(means["r_be"] - 0.89) < 0.03
          and abs(means["ber_ab"] - 0.113) < 0.03
          and abs(means["i_ab_given_e"] - 0.126) < 0.05
          and abs(means["delta_rr"] - 0.082) < 0.06)
    return ok, (f"mean r_be={means['r_be']:.4f} (0.89+-0.03), "
                f"ber_ab={means['ber_ab']:.4f} (0.113+-0.03), "
                f"i_ab_given_e={means['i_ab_given_e']:.4f} (0.126+-0.05), "
                f"delta_rr={means['delta_rr']:.4f} (0.082+-0.06)")


def test_criterion_6_calibrated_freespace():
    assert run_check("6", _calibrated_freespace, 300)


def test_criterion_7_symmetric_tap():
    assert run_check(*CRITERIA["7"])


def test_criterion_8_advantage_distillation():
    assert run_check(*CRITERIA["8"])


def test_criterion_9_determinism():
    assert run_check(*CRITERIA["9"])

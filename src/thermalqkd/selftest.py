"""Acceptance criteria that need no calibration, backing ``thermalqkd selftest``.

Each criterion returns ``(passed, detail)``. ``run_check`` is the one runner:
it applies the criterion's time bound, turns an exception into a FAIL and
prints ``[PASS|FAIL] criterion <id>: <detail>``. ``tests/test_acceptance.py``
calls the same runner on the same criteria, and adds criteria 5 and 6, which
calibrate a preset and take minutes.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from .distill import advantage_distill, bit_error_rate
from .harness import (freespace_scenario, run_scenario, sweep, sweep_csv,
                      waveguide_scenario)
from .infotheory import conditional_mutual_information, g2, mutual_information
from .modem import SYMBOL_PHASES, estimate_delay_and_rotation
from .optics import (SourceParams, apply_beamsplitter, draw_detector_noise, heterodyne,
                     joint_covariance_oracle, sample_source_field)


def _source_at_phase_zero(nbar, d0, n, rng):
    """``n`` source amplitudes ``(re, im)``, every one displaced along phase 0."""
    return sample_source_field(SourceParams(nbar=nbar, d0=d0), [0.0],
                               np.zeros(n, dtype=np.uint8), rng)


def thermal_bunching():
    rng = np.random.default_rng(108)
    field = _source_at_phase_zero(5.0, 0.0, 10 ** 6, rng)
    x, p = heterodyne(field, draw_detector_noise(1.0, (10 ** 6,), rng))
    intensity = x * x + p * p
    g2_zero = g2(intensity, 0)
    g2_far = g2(intensity, 1000)
    ok = abs(g2_zero - 2.0) < 0.05 and abs(g2_far - 1.0) < 0.05
    return ok, (f"g2(0)={g2_zero:.4f} (want 2.00+-0.05), "
                f"g2(1000)={g2_far:.4f} (want 1.00+-0.05)")


def displaced_bunching():
    # Stated bar: a coherent amplitude |alpha0| = 10*sqrt(nbar) must give
    # g2(0) = 1.00 +- 0.02. The criterion sets |alpha0| against sqrt(nbar),
    # so it counts coherent photons |alpha0|^2 on the same footing as the
    # thermal photon number nbar. SourceParams.d0 is in field units (README
    # "Conventions"), where the coherent photon number is d0^2/2, so
    # d0 = sqrt(2)*|alpha0|. The analytic value is then
    # 1 + (2*|alpha0|^2*nbar + nbar^2) / (|alpha0|^2 + nbar)^2 = 1.0197.
    rng = np.random.default_rng(109)
    nbar = 5.0
    d0 = math.sqrt(2) * 10 * math.sqrt(nbar)
    field = _source_at_phase_zero(nbar, d0, 10 ** 6, rng)
    g2_zero = g2(np.hypot(*field) ** 2, 0)
    ok = abs(g2_zero - 1.0) < 0.02
    return ok, f"g2(0)={g2_zero:.4f} (want 1.00+-0.02; analytic value 1.0197)"


def sampler_matches_oracle():
    rng = np.random.default_rng(202)
    n = 10 ** 6
    worst = 0.0
    for _ in range(3):
        etas = rng.uniform(0.3, 1.0, 3)
        noises = rng.uniform(0.5, 2.0, 3)
        t_eve = rng.uniform(0.2, 0.8)
        nbar = rng.uniform(1.0, 5.0)
        links = list(zip(etas, noises))
        oracle = joint_covariance_oracle(links, nbar, t_eve)
        field = _source_at_phase_zero(nbar, 0.0, n, rng)
        alice, broadcast = apply_beamsplitter(field, 0.5)
        bob, eve = apply_beamsplitter(broadcast, t_eve)
        rows = []
        for arm, (eta, noise) in zip((alice, bob, eve), links):
            x, p = heterodyne([np.sqrt(eta) * part for part in arm],
                              draw_detector_noise(noise, (n,), rng))
            rows += [x, p]
        emp = np.cov(np.stack(rows))
        se = np.sqrt((np.outer(np.diag(oracle), np.diag(oracle)) + oracle ** 2) / n)
        worst = max(worst, float(np.max(np.abs(emp - oracle) / se)))
    return worst < 5.0, (f"worst covariance deviation {worst:.2f} standard errors "
                         f"(limit 5) over 3 random topologies")


def estimator_correctness():
    eps = 0.113
    counts = np.array([[887, 113], [113, 887]]) * 1000
    analytic = 1.0 + eps * math.log2(eps) + (1 - eps) * math.log2(1 - eps)
    mi_err = abs(mutual_information(counts) - analytic)

    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        table = rng.integers(1, 1000, (2, 2, 2)).astype(float)
        total = table.sum()
        expect = sum(
            (table[:, :, e].sum() / total) * mutual_information(table[:, :, e])
            for e in range(2))
        worst = max(worst, abs(conditional_mutual_information(table) - expect))
    ok = mi_err < 1e-9 and worst < 1e-12
    return ok, (f"BSC(0.113) MI error {mi_err:.2e} (limit 1e-9), "
                f"worst CMI-vs-bruteforce gap {worst:.2e} (limit 1e-12)")


def alignment_recovery():
    rng = np.random.default_rng(404)
    n, trials = 10_000, 1000
    hits = 0
    for _ in range(trials):
        ref = rng.integers(0, 4, n)
        shift = int(rng.integers(-1000, 1001))
        rx = np.roll(ref, shift)
        if shift > 0:
            rx[:shift] = rng.integers(0, 4, shift)
        elif shift < 0:
            rx[shift:] = rng.integers(0, 4, -shift)
        hits += estimate_delay_and_rotation(ref, np.exp(1j * SYMBOL_PHASES)[rx], 1000).lag == shift
    return hits >= 999, f"{hits}/{trials} exact recoveries (need >= 999)"


def symmetric_tap():
    cfg = freespace_scenario(seed=77, n_symbols=3_000_000, ad_block=None)
    cfg = dataclasses.replace(cfg, eve_link=cfg.bob_link, eve_transmittance=0.5)
    report = run_scenario(cfg).report
    gap = abs(report.i_ab - report.i_ae)
    return gap < 0.01, f"|i_ab - i_ae| = {gap:.5f} bits (limit 0.01) at n=3e6"


def advantage_distillation():
    eps = 0.113
    rng = np.random.default_rng(808)
    n = 10 ** 6
    a = rng.integers(0, 2, n, dtype=np.uint8)
    b = a ^ (rng.random(n) < eps).astype(np.uint8)
    a_kept, b_kept, kept_fraction = advantage_distill(a, b, 2, rng)
    kept_err = bit_error_rate(a_kept, b_kept)
    expect_frac = eps ** 2 + (1 - eps) ** 2
    expect_err = eps ** 2 / expect_frac
    ok = abs(kept_err - 0.016) < 0.002 and abs(kept_fraction - 0.80) < 0.01
    return ok, (f"kept error {kept_err:.5f} (want 0.016+-0.002, analytic "
                f"{expect_err:.5f}), kept fraction {kept_fraction:.4f} "
                f"(want 0.80+-0.01, analytic {expect_frac:.4f})")


def determinism():
    cfg = waveguide_scenario(seed=909, n_symbols=50_000)
    with tempfile.TemporaryDirectory() as tmp:
        dir_a = Path(tmp) / "a"
        dir_b = Path(tmp) / "b"
        run_scenario(cfg).write(dir_a)
        run_scenario(cfg).write(dir_b)
        files_equal = all(
            (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
            for name in ("alice.csv", "bob.csv", "eve.csv", "report.json", "config.cfg"))

    base = waveguide_scenario(seed=910, n_symbols=20_000, ad_block=None)
    values = [0.3, 0.5, 0.7]
    serial = sweep_csv(sweep(base, "eve_transmittance", values, jobs=1),
                       "eve_transmittance")
    threaded = sweep_csv(sweep(base, "eve_transmittance", values, jobs=3),
                         "eve_transmittance")
    ok = files_equal and serial == threaded
    return ok, (f"byte-identical artifacts: {files_equal}, "
                f"sweep jobs 1 vs 3 identical: {serial == threaded}")


# Criterion id -> (printed label, check, time bound in seconds or None).
CRITERIA = {
    "1a": ("1a (thermal bunching)", thermal_bunching, 10),
    "1b": ("1b (displaced, |alpha0|=10*sqrt(nbar))", displaced_bunching, 10),
    "2": ("2", sampler_matches_oracle, 30),
    "3": ("3", estimator_correctness, None),
    "4": ("4", alignment_recovery, 20),
    "7": ("7", symmetric_tap, None),
    "8": ("8", advantage_distillation, None),
    "9": ("9", determinism, None),
}


def run_check(label, check, bound=None) -> bool:
    """Run one criterion, print its PASS/FAIL line and return whether it passed.

    An exception counts as FAIL, with its traceback on stderr. With a
    ``bound``, the criterion also fails when it takes ``bound`` seconds or
    more, and the line ends with the elapsed time.
    """
    start = time.perf_counter()
    try:
        ok, detail = check()
    except Exception as exc:
        traceback.print_exc()
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    if bound is not None:
        elapsed = time.perf_counter() - start
        ok = ok and elapsed < bound
        detail = f"{detail}, {elapsed:.1f}s"
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {label}: {detail}")
    return ok


def run_selftest() -> int:
    """Run every criterion in ``CRITERIA``; 0 when all pass, 2 otherwise."""
    passed = sum(run_check(*entry) for entry in CRITERIA.values())
    print(f"{passed}/{len(CRITERIA)} criteria passed")
    return 0 if passed == len(CRITERIA) else 2

"""End-to-end scenario orchestration.

One run executes the central-broadcast pipeline: random bits -> QPSK symbols
-> displaced-thermal source fields -> 50:50 split (Alice | broadcast) ->
eavesdropper tap on the broadcast -> per-link impairments -> heterodyne ->
pilot-based phase recovery per coherence segment -> quadrant-bit delay and
rotation alignment -> cluster folding -> amplitudes -> median slicing ->
secrecy metrics, with optional advantage distillation afterwards.

Everything is deterministic given the config seed: all randomness flows from
one SeedSequence spawned into fixed-order named streams, and the metric path
avoids BLAS reductions so results do not depend on thread settings. Parallel
sweep points derive their seeds from (scenario seed, point index).

Within one run the three parties are received and folded on
``PARTY_THREADS`` threads. Each party's step reads only its own input and
draws only its own ``chan_<party>`` and ``det_<party>`` streams, so the
output bytes do not depend on how the threads are scheduled. Pools do not
nest: a ``_pool_map`` called from a pool worker (a sweep point or a
calibration point) maps on the calling thread.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .channels import (TapSpec, apply_channel, make_freespace_preset,
                       make_waveguide_preset)
from .config import ConfigError, ScenarioConfig, format_config, set_config_value
from .distill import (PartyRecord, advantage_distill, bit_error_rate, median_slice,
                      write_bits_packed, write_bits_text)
from .infotheory import MetricsReport, build_report
from .modem import (SYMBOL_PHASES, AlignmentResult, bits_to_symbols,
                    estimate_delay_and_rotation, estimate_global_phase,
                    quadrant_decision)
from .optics import SourceParams, apply_beamsplitter, heterodyne, sample_source_field

PARTIES = ("alice", "bob", "eve")

# One vacuum unit of detection noise per quadrature at every receiver.
DETECTION_NOISE_VAR = 1.0

# Delay search covers at least this many symbols either side of zero.
MIN_ALIGNMENT_LAG = 1024

# Quadrant streams are compared over a window this size (or the whole run).
ALIGNMENT_WINDOW = 65_536

# Threads that receive and fold the three parties of one run.
PARTY_THREADS = 2

# Measurement CSV rows formatted per write; bounds the writer's memory.
CSV_CHUNK_ROWS = 65_536
_CSV_ROW = "%d,%.9g,%.9g,%.9g,%d\n"

_STREAM_NAMES = ("bits", "source", "chan_alice", "chan_bob", "chan_eve",
                 "det_alice", "det_bob", "det_eve", "distill")


@dataclass
class RunArtifacts:
    """In-memory result of one scenario run."""

    config: ScenarioConfig
    report: MetricsReport
    parties: dict[str, PartyRecord]
    index: np.ndarray
    alignment: dict[str, AlignmentResult]
    distilled: dict | None = None

    def write(self, out_dir) -> dict[str, Path]:
        """Write per-party CSVs, the JSON report and the config echo."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {}
        rows = {len(rec) for rec in self.parties.values()} | {len(self.index)}
        if rows != {self.report.n_bits}:
            raise ValueError(f"row counts {rows} disagree with report n_bits {self.report.n_bits}")
        for name in PARTIES:
            rec = self.parties[name]
            path = out / f"{name}.csv"
            _write_measurement_csv(path, self.index, rec)
            paths[name] = path
        report_path = out / "report.json"
        report_path.write_text(self.report.to_json(), encoding="utf-8")
        paths["report"] = report_path
        config_path = out / "config.cfg"
        config_path.write_text(format_config(self.config), encoding="utf-8")
        paths["config"] = config_path
        if self.distilled is not None:
            for party in ("alice", "bob"):
                bits = self.distilled[f"{party}_key"]
                write_bits_text(bits, out / f"key_{party}.txt")
                write_bits_packed(bits, out / f"key_{party}.bin")
                paths[f"key_{party}"] = out / f"key_{party}.txt"
        return paths


def _write_measurement_csv(path: Path, index: np.ndarray, rec: PartyRecord) -> None:
    # 9 significant digits for the float columns, one row per kept symbol.
    columns = (index, rec.x, rec.p, rec.z, rec.bits)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,x,p,z,bit\n")
        for lo in range(0, len(index), CSV_CHUNK_ROWS):
            rows = zip(*(col[lo:lo + CSV_CHUNK_ROWS].tolist() for col in columns))
            fh.write("".join(map(_CSV_ROW.__mod__, rows)))


def _rng_streams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(_STREAM_NAMES))
    return {name: np.random.default_rng(child)
            for name, child in zip(_STREAM_NAMES, children)}


def derive_trial_seed(seed: int, index: int) -> int:
    """Independent 64-bit seed for trial ``index`` of a scenario seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


_pool_worker = threading.local()


def _mark_pool_worker() -> None:
    _pool_worker.active = True


def _pool_map(fn, items, jobs: int) -> list:
    """``fn`` over ``items`` on ``jobs`` threads; results in input order.

    Called from one of its own workers, it maps on the calling thread, so
    pools never nest and a run inside a sweep stays on one thread.
    """
    if jobs < 1:
        raise ConfigError([f"jobs: must be >= 1, got {jobs}"])
    if getattr(_pool_worker, "active", False):
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs, initializer=_mark_pool_worker) as pool:
        return list(pool.map(fn, items))


def _segment_corrections(x, p, syms, lag, n_segments, coherence_len, pilot_len, n):
    """Per-segment correction angle: folded pilot phase plus k*pi/2 from pilots."""
    psi = np.zeros(n_segments)
    for s in range(n_segments):
        tx0 = s * coherence_len
        pilots_tx = np.arange(tx0, min(tx0 + pilot_len, n))
        rx_idx = pilots_tx + lag
        valid = (rx_idx >= 0) & (rx_idx < n)
        if np.count_nonzero(valid) < 16:
            psi[s] = psi[s - 1] if s else 0.0
            continue
        pilots_tx = pilots_tx[valid]
        rx_idx = rx_idx[valid]
        theta = estimate_global_phase(x[rx_idx], p[rx_idx], syms[pilots_tx])
        ct, st = np.cos(theta), np.sin(theta)
        xr = x[rx_idx] * ct + p[rx_idx] * st
        pr = p[rx_idx] * ct - x[rx_idx] * st
        diff = (quadrant_decision(xr, pr).astype(np.int64) - syms[pilots_tx]) % 4
        k = int(np.argmax(np.bincount(diff, minlength=4)))
        psi[s] = theta + k * (np.pi / 2)
    return psi


def _receive_party(name, inputs, config, rngs, syms, window, max_lag):
    """Channel, heterodyne, alignment and pilot phases of one party.

    Pops the party's input from ``inputs`` and drops each field once used,
    so that two parties received at once hold little besides their
    quadratures. Returns ``(x, p, alignment, psi)``.
    """
    link = getattr(config, f"{name}_link")
    rx_field = apply_channel(inputs.pop(name), link, rngs[f"chan_{name}"])
    x, p = heterodyne(rx_field, DETECTION_NOISE_VAR, rngs[f"det_{name}"])
    del rx_field
    q_raw = quadrant_decision(x[:window], p[:window])
    found = estimate_delay_and_rotation(syms[:window], q_raw, max_lag)
    n = config.n_symbols
    psi = _segment_corrections(x, p, syms, found.lag, -(-n // config.coherence_len),
                               config.coherence_len, config.pilot_len, n)
    return x, p, found, psi


def _fold_party(received, index, segments, fold_phase) -> PartyRecord:
    """Rotate one party's kept symbols onto one cluster and slice them."""
    x, p, found, psi = received
    rx_idx = index + found.lag
    angle = psi[segments] + fold_phase
    xf, pf, z = kernels.demod_fold(x[rx_idx], p[rx_idx], np.cos(angle), np.sin(angle))
    return PartyRecord(x=xf, p=pf, z=z, bits=median_slice(z))


def run_scenario(config: ScenarioConfig) -> RunArtifacts:
    """Execute one scenario; fully deterministic given ``config.seed``."""
    rngs = _rng_streams(config.seed)
    n = config.n_symbols

    bits = rngs["bits"].integers(0, 2, size=2 * n, dtype=np.uint8)
    syms = bits_to_symbols(bits)
    field = sample_source_field(config.source, SYMBOL_PHASES[syms], rngs["source"])

    alice_in, broadcast = apply_beamsplitter(field, 0.0, 0.5)
    del field
    bob_in, eve_in = apply_beamsplitter(broadcast, 0.0, config.eve_transmittance)
    del broadcast
    inputs = {"alice": alice_in, "bob": bob_in, "eve": eve_in}
    del alice_in, bob_in, eve_in

    links = (config.alice_link, config.bob_link, config.eve_link)
    max_lag = max(MIN_ALIGNMENT_LAG, 2 * max(l.max_history for l in links))
    max_lag = min(max_lag, n // 4)
    window = min(n, max(8 * max_lag, ALIGNMENT_WINDOW))

    received = dict(zip(PARTIES, _pool_map(
        lambda name: _receive_party(name, inputs, config, rngs, syms, window, max_lag),
        PARTIES, PARTY_THREADS)))
    alignment = {name: received[name][2] for name in PARTIES}

    # Common aligned range on the transmitted clock, data symbols only.
    u_lo = max(0, *(-alignment[name].lag for name in PARTIES))
    u_hi = min(n - 1 - max(0, alignment[name].lag) for name in PARTIES)
    if u_hi - u_lo < 2:
        raise RuntimeError("alignment left no usable overlap between parties")
    index = np.arange(u_lo, u_hi + 1)
    index = index[index % config.coherence_len >= config.pilot_len]
    # Slicing needs two symbols and distillation one whole block.
    need = max(2, config.ad_block or 0)
    if index.size < need:
        raise ConfigError([
            f"pilot_len: {config.pilot_len} pilots per segment and the alignment edges "
            f"leave {index.size} data symbols of {n}; need at least {need}"])

    fold_phase = SYMBOL_PHASES[syms[index]]
    segments = index // config.coherence_len
    records = dict(zip(PARTIES, _pool_map(
        lambda name: _fold_party(received.pop(name), index, segments, fold_phase),
        PARTIES, PARTY_THREADS)))

    report = build_report(records["alice"], records["bob"], records["eve"])

    distilled = None
    if config.ad_block is not None:
        a_kept, b_kept, kept_fraction = advantage_distill(
            records["alice"].bits, records["bob"].bits, config.ad_block, rngs["distill"])
        distilled = {
            "block": config.ad_block,
            "kept_fraction": kept_fraction,
            "n_kept": int(a_kept.size),
            "ber_kept": bit_error_rate(a_kept, b_kept) if a_kept.size else 0.0,
            "alice_key": a_kept,
            "bob_key": b_kept,
        }

    return RunArtifacts(config=config, report=report, parties=records,
                        index=index, alignment=alignment, distilled=distilled)


# ---------------------------------------------------------------------------
# scenario presets (calibrated defaults; see calibrate_preset)

def waveguide_scenario(seed: int = 0, n_symbols: int = 3_000_000,
                       ad_block: int | None = 2) -> ScenarioConfig:
    """Guided-channel scenario: every party on a low-loss waveguide link.

    Link noises were fixed by calibrate_preset("waveguide") so that the
    Alice-Bob amplitude correlation lands on its target while both secrecy
    conditions stay positive.
    """
    return ScenarioConfig(
        seed=seed,
        n_symbols=n_symbols,
        source=SourceParams(nbar=60.0, d0=40.0),
        alice_link=make_waveguide_preset(transmittance=0.6, rx_noise_var=0.1,
                                         taps=(TapSpec(12, 0.02, 0.6),)),
        bob_link=make_waveguide_preset(transmittance=0.9, delay=7, rx_noise_var=0.1,
                                       taps=(TapSpec(9, 0.02, -0.8),)),
        eve_link=make_waveguide_preset(transmittance=0.9, delay=9, rx_noise_var=1.72,
                                       taps=(TapSpec(9, 0.02, 2.1),)),
        eve_transmittance=0.5,
        coherence_len=10_000,
        pilot_len=64,
        ad_block=ad_block,
    )


def freespace_scenario(seed: int = 0, n_symbols: int = 3_000_000,
                       ad_block: int | None = 2) -> ScenarioConfig:
    """Broadcast scenario: Alice keeps a guided link, Bob and Eve are in free
    space behind a 50:50 tap with symmetric lossy links."""
    return ScenarioConfig(
        seed=seed,
        n_symbols=n_symbols,
        source=SourceParams(nbar=295.0, d0=40.0),
        alice_link=make_waveguide_preset(transmittance=0.9, rx_noise_var=1.2),
        bob_link=make_freespace_preset(delay=23, rx_noise_var=0.6),
        eve_link=make_freespace_preset(
            delay=31,
            taps=(TapSpec(4, 0.05, -1.2), TapSpec(9, 0.035, 2.9),
                  TapSpec(23, 0.02, -0.3)),
            rx_noise_var=0.6),
        eve_transmittance=0.5,
        coherence_len=10_000,
        pilot_len=64,
        ad_block=ad_block,
    )


SCENARIO_PRESETS = {"waveguide": waveguide_scenario, "freespace": freespace_scenario}


# ---------------------------------------------------------------------------
# calibration

class CalibrationError(RuntimeError):
    """No grid point reached the targets; ``best`` holds the closest result."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


# Named statistic targets the calibration search can aim for.
CALIBRATION_TARGETS = {
    "waveguide": {"r_ab": 0.9264},
    "freespace": {"r_be": 0.89, "ber_ab": 0.113},
}

# Default parameter grids. A tuple key sets several dotted fields together
# (Bob and Eve stay symmetric in the free-space search).
CALIBRATION_RANGES = {
    "waveguide": {
        "alice_link.rx_noise_var": np.linspace(0.05, 0.6, 12),
    },
    "freespace": {
        ("bob_link.rx_noise_var", "eve_link.rx_noise_var"): np.linspace(0.3, 1.5, 9),
        "alice_link.rx_noise_var": np.linspace(0.3, 1.9, 9),
    },
}

# Acceptance half-widths on the achieved statistics.
CALIBRATION_TOLERANCE = {"r_ab": 0.02, "r_be": 0.02, "r_ae": 0.02, "ber_ab": 0.015}


@dataclass
class CalibrationResult:
    config: ScenarioConfig
    achieved: dict[str, float]
    targets: dict[str, float]
    objective: float
    table: list


def _stat_values(report: MetricsReport, names) -> dict[str, float]:
    return {name: float(getattr(report, name)) for name in names}


def calibrate_preset(target, n_symbols: int = 200_000, seed: int = 1_234_567,
                     jobs: int = 1) -> CalibrationResult:
    """Grid-search channel noises so simulated statistics hit named targets.

    ``target`` names a preset ("waveguide" or "freespace"); its statistic
    targets and parameter grid are CALIBRATION_TARGETS[target] and
    CALIBRATION_RANGES[target]. The objective is the summed squared deviation
    of the achieved statistics. Raises CalibrationError when the best point
    misses any target by more than its tolerance.
    """
    if target not in SCENARIO_PRESETS:
        raise ValueError(f"unknown preset {target!r}; expected one of {sorted(SCENARIO_PRESETS)}")
    targets = dict(CALIBRATION_TARGETS[target])
    search = CALIBRATION_RANGES[target]
    base = SCENARIO_PRESETS[target](seed=seed, n_symbols=n_symbols, ad_block=None)

    keys = list(search.keys())
    grids = [list(search[k]) for k in keys]

    def evaluate(point):
        cfg = base
        for key, value in zip(keys, point):
            for dotted in (key if isinstance(key, tuple) else (key,)):
                cfg = set_config_value(cfg, dotted, value)
        report = run_scenario(cfg).report
        achieved = _stat_values(report, targets)
        objective = sum((achieved[k] - targets[k]) ** 2 for k in targets)
        return cfg, achieved, objective

    points = list(itertools.product(*grids))
    results = _pool_map(evaluate, points, jobs)

    table = [(pt, achieved, objective) for pt, (_, achieved, objective) in zip(points, results)]
    best_i = min(range(len(results)), key=lambda i: results[i][2])
    cfg, achieved, objective = results[best_i]
    result = CalibrationResult(config=cfg, achieved=achieved, targets=targets,
                               objective=objective, table=table)
    misses = [
        f"{k}: achieved {achieved[k]:.4f} vs target {v:.4f}"
        for k, v in targets.items()
        if abs(achieved[k] - v) > CALIBRATION_TOLERANCE.get(k, 0.02)
    ]
    if misses:
        raise CalibrationError("calibration missed targets: " + "; ".join(misses), result)
    return result


def write_preset_file(result: CalibrationResult, path) -> None:
    """Persist a calibrated preset with its achieved statistics as comments."""
    lines = ["# calibrated scenario preset"]
    for k, v in sorted(result.targets.items()):
        lines.append(f"# target {k} = {v}  achieved = {result.achieved[k]:.5f}")
    text = "\n".join(lines) + "\n" + format_config(result.config)
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# sweeps

def sweep(base: ScenarioConfig, param: str, values, jobs: int = 1):
    """Run the scenario across parameter values; one derived seed per point.

    Returns a list of (value, MetricsReport) in input order regardless of
    ``jobs``, so output files are byte-stable under any parallelism.
    """
    values = list(values)

    def one(item):
        i, v = item
        cfg = set_config_value(base, param, v)
        cfg = dataclasses.replace(cfg, seed=derive_trial_seed(base.seed, i))
        return run_scenario(cfg).report

    reports = _pool_map(one, list(enumerate(values)), jobs)
    return list(zip(values, reports))


def sweep_csv(rows, param: str) -> str:
    """Render sweep output as a CSV with one row per parameter value."""
    names = [f.name for f in dataclasses.fields(MetricsReport)]
    lines = [param + "," + ",".join(names)]
    for value, report in rows:
        d = report.to_dict()
        lines.append("%.9g," % value + ",".join(
            "%.9g" % d[name] if name != "n_bits" else "%d" % d[name] for name in names))
    return "\n".join(lines) + "\n"


def sweep_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid: start, start+step, ..., stop.

    Raises ConfigError naming the field when a bound or the step is not
    finite, the step is not positive, or ``stop < start`` (an empty grid).
    """
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ConfigError([f"{name}: must be finite, got {value}"])
    if step <= 0:
        raise ConfigError([f"step: must be > 0, got {step}"])
    if stop < start:
        raise ConfigError([f"stop: must be >= start, got {stop} < {start}"])
    count = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(count) if start + i * step <= stop + 1e-12]

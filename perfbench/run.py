"""The thermalqkd benchmark: one command, three workloads, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Workloads (see spec.py and BENCHMARK.json for why each one is there):
    run-waveguide        `thermalqkd run` of the waveguide preset, artifacts written
    seeds-freespace      consecutive seeds of the free-space preset, report only
    calibrate-freespace  calibrate_preset("freespace", jobs=2)

Each unit of work runs in its own fresh process (worker.py), in a closed loop:
the next unit starts when the previous one has finished, until ``--seconds``
would be exceeded. Before the loop, a few set-up-only processes measure the
time from process start to "thermalqkd imported and config ready".

With ``--trace 0`` the result holds the end-to-end metrics. With ``--trace 1``
each unit runs untraced, then traced with the same seed, then (single-threaded
workloads only) traced under tracemalloc for memory peaks; all runs' output
bytes must match, and the result holds the per-layer metrics, with
``trace_overhead_s`` = traced minus untraced median wall time. The last line
of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A full record (environment, per-unit samples, output sha256 fingerprints,
every layer statistic) goes to perfbench/out/BENCH_<workload>_seed<N>_trace<T>.json.

``--self-check`` runs every workload at a tiny size in a few seconds, checks
that every metric in BENCHMARK.json is emitted with its unit, and that a
truncated CSV is counted as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

SETUP_SAMPLES = 10     # set-up-only processes per run, on top of one per unit
DEADLINE_S = 170       # a run must end well inside the 180 s limit
# Workers ask for at most the threads their workload names.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SetupFailed(RuntimeError):
    """The program could not even be imported: no result is printed."""


class Runner:
    def __init__(self, workload, seed, tiny=False, corrupt=False):
        self.workload, self.seed = workload, seed
        self.flags = (["--tiny"] if tiny else []) + (["--corrupt"] if corrupt else [])
        self.t_begin = time.monotonic()
        self.env = dict(os.environ, **WORKER_ENV)

    def spawn(self, unit, trace=0, setup_only=False):
        """Run one worker; returns (setup seconds or None, parsed result or error)."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--unit", str(unit), "--trace", str(trace),
               *self.flags, *(["--setup-only"] if setup_only else [])]
        remaining = DEADLINE_S - (time.monotonic() - self.t_begin)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  env=self.env, timeout=max(remaining, 1))
        except subprocess.TimeoutExpired:
            return None, {"ok": False, "errors": ["worker timed out"]}
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-3:]
            return None, {"ok": False, "errors": [f"worker exit {proc.returncode}: {tail}"]}
        return result["t_ready"] - t_spawn, result

    def setup_samples(self):
        samples = []
        for i in range(SETUP_SAMPLES):
            setup, result = self.spawn(i, setup_only=True)
            if setup is None:
                raise SetupFailed(result["errors"][0])
            samples.append(setup)
        return samples

    def loop(self, seconds, trace):
        """Closed loop over units; each item is (setup, untraced[, traced[, memory]]).

        The memory-traced run is skipped for threaded workloads: tracemalloc's
        peak is process-wide, so two threads would reset each other's spans."""
        items, iter_times = [], []
        t0 = time.monotonic()
        unit = 0
        while True:
            start = time.monotonic()
            setup, plain = self.spawn(unit)
            item = [setup, plain]
            if trace:
                item.append(self.spawn(unit, trace=1)[1])
                if spec.WORKLOADS[self.workload]["jobs"] == 1:
                    item.append(self.spawn(unit, trace=2)[1])
            items.append(item)
            iter_times.append(time.monotonic() - start)
            unit += 1
            elapsed = time.monotonic() - t0
            if elapsed + statistics.median(iter_times) > seconds:
                break
            if time.monotonic() - self.t_begin + max(iter_times) > DEADLINE_S - 10:
                break
        return items


def median(values):
    # 0 only when no unit got that far; the run then reports correct=false.
    return statistics.median(values) if values else 0.0


def tail(samples):
    """Highest of p99/p90/p75/p50 with at least ten samples above it."""
    ordered = sorted(samples)
    for pct in (99, 90, 75, 50):
        rank = -(-pct * len(ordered) // 100)          # nearest-rank
        if rank >= 1 and len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None, None


def end_to_end(setups, timed):
    scen = [s for u in timed for s in u["scenario_s"]]
    return {
        "setup_s": median(setups),
        "wall_s": median([u["wall_s"] for u in timed]),
        "msym_per_s": median([u["n_symbols_total"] / u["wall_s"] / 1e6 for u in timed]),
        "scenario_p50_s": median(scen),
        "peak_rss_mb": median([u["peak_rss_mb"] for u in timed]),
    }, scen


def run(workload, seed, seconds, trace, tiny=False, corrupt=False) -> int:
    if not (ROOT / "src" / "thermalqkd" / "__init__.py").is_file():
        print("perfbench: src/thermalqkd not found next to perfbench/", file=sys.stderr)
        return 2
    runner = Runner(workload, seed, tiny, corrupt)
    try:
        setups = runner.setup_samples()
    except SetupFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    items = runner.loop(seconds, trace)
    setups += [s for s, *_ in items if s is not None]
    plain = [item[1] for item in items]
    traced = [item[2] for item in items if len(item) > 2]
    memory = [item[3] for item in items if len(item) > 3]
    ops = plain + traced + memory
    mismatched = []
    for i, (p, *others) in enumerate(item[1:] for item in items):
        for t in others:
            if p.get("ok") and t.get("ok") and p["fingerprints"] != t["fingerprints"]:
                t["ok"] = False
                t["errors"] = ["traced outputs differ from untraced outputs"]
                mismatched.append(i)

    timed = [u for u in plain if "wall_s" in u]
    if not timed:
        errors = [e for u in ops for e in u.get("errors", [])]
        print(f"perfbench: no unit produced timings: {errors[:2]}", file=sys.stderr)
        return 2
    e2e, scen = end_to_end(setups, timed)
    failed = sum(not u.get("ok") for u in ops)
    checks = run_level_checks(workload, plain)
    correct = failed == 0 and not checks

    if trace:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in bench["per_layer"]]
        traced_ok = [t for t in traced if "layers" in t]
        if not traced_ok:
            print("perfbench: no traced unit produced layer metrics", file=sys.stderr)
            return 2
        memory_ok = [t for t in memory if "layers" in t]
        layer_all = sorted({k for t in traced_ok + memory_ok for k in t["layers"]})
        layers = {k: median([t["layers"].get(k, 0.0)
                             for t in (memory_ok if k.startswith("mem.") else traced_ok)])
                  for k in layer_all}
        layers["trace_overhead_s"] = (median([t["wall_s"] for t in traced_ok])
                                      - median([p["wall_s"] for p in timed]))
        metrics = {k: {"value": layers.get(k, 0.0), "unit": spec.unit_of(k)} for k in names}
    else:
        layers = {}
        metrics = {k: {"value": v, "unit": spec.E2E_UNITS[k]} for k, v in e2e.items()}

    pct, tail_value = tail(scen)
    env = timed[0]["env"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "spec": spec.WORKLOADS[workload], "environment": env,
        "correct": correct, "attempted": len(ops), "failed": failed,
        "failed_frac": failed / len(ops), "run_level_checks": checks,
        "metrics": metrics, "end_to_end": e2e,
        "scenario_samples": len(scen),
        "scenario_tail": {"percentile": pct, "s": tail_value},
        "setup_samples": setups,
        "layers_all": layers,
        "trace_mismatched_units": mismatched,
        "units": [{k: u.get(k) for k in ("config_seed", "ok", "errors", "wall_s",
                                         "peak_rss_mb", "fingerprints", "stats")}
                  for u in ops],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload}  seed {seed}  units {len(plain)}  trace {trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for k, v in e2e.items():
        print(f"  {k:<16} {v:12.6g} {spec.E2E_UNITS[k]}")
    print(f"  {'failed_frac':<16} {failed / len(ops):12.6g} ({failed}/{len(ops)})")
    tail_text = f"p{pct} = {tail_value:.6g} s" if pct else "n/a"
    print(f"  scenario_tail_s  {tail_text} over {len(scen)} run_scenario samples")
    if trace:
        for k in names:
            print(f"  {k:<48} {metrics[k]['value']:12.6g} {metrics[k]['unit']}")
    for u in ops:
        for e in u.get("errors", []):
            print(f"  FAILED unit (config seed {u.get('config_seed')}): {e.strip()[:300]}")
    for c in checks:
        print(f"  FAILED check: {c}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_level_checks(workload, units):
    """Checks on the whole loop rather than one unit."""
    if workload != "seeds-freespace":
        return []
    found = [u["stats"] for u in units if u.get("ok")]
    if not found:
        return []
    out = []
    for name, (centre, half) in spec.CRITERION_6.items():
        mean = statistics.fmean(s[name] for s in found)
        if not abs(mean - centre) <= half:
            out.append(f"mean {name}={mean:.4f} outside {centre}+-{half}")
    return out


def self_check() -> int:
    """Tiny-size pass over every workload and trace mode, plus a corrupted run."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if e2e_units != spec.E2E_UNITS:
        problems.append(f"BENCHMARK.json end_to_end {e2e_units} != spec {spec.E2E_UNITS}")
    for name, unit in layer_units.items():
        module = name.removeprefix("mem.").split(".")[0]
        if module not in spec.LAYERS and name != "trace_overhead_s":
            problems.append(f"per-layer {name} names no layer of {spec.LAYERS}")
        if name not in spec.LAYER_MAP:
            problems.append(f"per-layer {name} has no layer -> end-to-end mapping")
        if unit != spec.unit_of(name):
            problems.append(f"per-layer {name}: unit {unit} != {spec.unit_of(name)}")
    if [w["name"] for w in bench["workloads"]] != list(spec.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from spec.WORKLOADS")

    def invoke(workload, trace, *extra):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
        if proc.returncode != 0:
            return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return json.loads(proc.stdout.strip().splitlines()[-1]), None

    for workload in spec.WORKLOADS:
        for trace, want in ((0, e2e_units), (1, layer_units)):
            result, err = invoke(workload, trace)
            label = f"{workload} trace={trace}"
            if err:
                problems.append(f"{label}: {err}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            print(f"[run] {label}: {len(got)} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
    result, err = invoke("run-waveguide", 0, "--corrupt")
    if err or result["correct"] or result["failed"] != result["attempted"]:
        problems.append(f"truncated CSV not counted as failed: {err or result}")
    else:
        print(f"[ok] truncated CSV counted: {result['failed']}/{result['attempted']} failed")
    for p in problems:
        print(f"[FAIL] {p}")
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description="thermalqkd benchmark")
    ap.add_argument("--workload", choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, args.trace, args.tiny, args.corrupt)


if __name__ == "__main__":
    raise SystemExit(main())

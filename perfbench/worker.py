"""Run one benchmark unit in a fresh process and print its measurements.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --unit I --trace 0|1|2
                                [--setup-only] [--tiny] [--corrupt]

``--trace 1`` records layer spans; ``--trace 2`` also runs tracemalloc for
the per-span memory peaks. tracemalloc slows allocation-heavy code (the CSV
writer several-fold), so span times come from ``--trace 1`` units only.

The last line of standard output is one JSON object. ``t_ready`` is the
``time.monotonic()`` reading once ``thermalqkd`` is imported and the unit's
config is built or parsed; the parent subtracts its own reading taken just
before it started this process, which gives the set-up time.

The config seed of unit ``I`` is ``first_seed(N) + I``, so the units of one
benchmark run walk consecutive seeds. ``--corrupt`` truncates a CSV before
the output check, to prove that the check notices (self-check only).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import spec  # noqa: E402
import tracing  # noqa: E402


def first_seed(bench_seed: int) -> int:
    # SeedSequence takes non-negative entropy; the mask keeps negative seeds distinct.
    return int(np.random.SeedSequence(bench_seed & (2**64 - 1)).generate_state(1)[0])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> dict:
    """Versions, CPUs and kernel path. ``numba_requested_but_missing`` flags
    the silent numpy fallback: the package has a numba path and the
    THERMALQKD_NUMBA switch (default on) asks for it, but numba is not
    importable."""
    from thermalqkd import kernels
    flag = os.environ.get("THERMALQKD_NUMBA", "1").strip().lower()
    requested = hasattr(kernels, "NUMBA_AVAILABLE") and flag not in ("0", "false", "off", "no")
    importable = importlib.util.find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernel_path": getattr(kernels, "ACTIVE_PATH", "numpy"),
        "numba_requested": requested,
        "numba_importable": importable,
        "numba_requested_but_missing": requested and not importable,
    }


# ---------------------------------------------------------------------------
# workloads: prepare (set-up) -> run (timed) -> check (untimed)


class RunWaveguide:
    def prepare(self, seed, n, unit_dir):
        from thermalqkd import cli, config, harness  # noqa: F401  (cli: cold CLI import)
        cfg = harness.waveguide_scenario(seed=seed, n_symbols=n, ad_block=2)
        self.cfg_path = unit_dir / "waveguide.cfg"
        config.save_config(cfg, self.cfg_path)
        self.cfg = config.load_config(self.cfg_path)
        self.out_dir = unit_dir / "out"
        return self.cfg.n_symbols

    def run(self, tracer):
        from thermalqkd import cli
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            self.rc = cli.main(["run", str(self.cfg_path), "--out", str(self.out_dir)])
        self.log = captured.getvalue()

    def check(self, tracer, corrupt):
        from thermalqkd.distill import read_bits_packed
        from thermalqkd.infotheory import MetricsReport
        if self.rc != 0:
            return [f"cli exit code {self.rc}: {self.log[-400:]}"], {}, {}
        out = self.out_dir
        if corrupt:
            data = (out / "alice.csv").read_bytes()
            (out / "alice.csv").write_bytes(data[:data.rstrip(b"\n").rfind(b"\n") + 1])
        errors = []
        report_bytes = (out / "report.json").read_bytes()
        report = json.loads(report_bytes)
        keys = [f.name for f in dataclasses.fields(MetricsReport)]
        if list(report) != keys:
            errors.append(f"report.json keys {list(report)} != {keys}")
        n_bits = report.get("n_bits")
        for party in ("alice", "bob", "eve"):
            lines = (out / f"{party}.csv").read_bytes().split(b"\n")
            if lines[0] != b"index,x,p,z,bit" or lines[-1] != b"":
                errors.append(f"{party}.csv: bad header or missing final newline")
            if len(lines) - 2 != n_bits:
                errors.append(f"{party}.csv: {len(lines) - 2} rows, n_bits={n_bits}")
        n_kept = tracer.last_artifacts.distilled["n_kept"]
        for party in ("alice", "bob"):
            text_bits = (out / f"key_{party}.txt").read_bytes().count(b"\n")
            packed_bits = read_bits_packed(out / f"key_{party}.bin").size
            if not text_bits == packed_bits == n_kept:
                errors.append(f"key_{party}: {text_bits} text / {packed_bits} packed "
                              f"bits, n_kept={n_kept}")
        target, tol = spec.WAVEGUIDE_R_AB
        r_ab = report.get("r_ab", float("nan"))
        if not abs(r_ab - target) <= tol:
            errors.append(f"r_ab={r_ab} outside {target}+-{tol}")
        prints = {p.name: sha256(p.read_bytes()) for p in sorted(out.iterdir())}
        return errors, prints, {"r_ab": r_ab}


class SeedsFreespace:
    def prepare(self, seed, n, unit_dir):
        from thermalqkd import harness
        self.cfg = harness.freespace_scenario(seed=seed, n_symbols=n, ad_block=None)
        return n

    def run(self, tracer):
        from thermalqkd import harness
        self.report = harness.run_scenario(self.cfg).report

    def check(self, tracer, corrupt):
        rep = self.report
        errors = [f"{name}={getattr(rep, name)} outside {c}+-{h} (criterion 6 bar)"
                  for name, (c, h) in spec.CRITERION_6.items()
                  if not abs(getattr(rep, name) - c) <= h]
        stats = {name: getattr(rep, name) for name in spec.CRITERION_6}
        return errors, {"report.json": sha256(rep.to_json().encode("utf-8"))}, stats


class CalibrateFreespace:
    def prepare(self, seed, n, unit_dir):
        from thermalqkd import harness
        self.seed, self.n = seed, n
        self.points = int(np.prod([len(v) for v in
                                   harness.CALIBRATION_RANGES["freespace"].values()]))
        return n * self.points

    def run(self, tracer):
        from thermalqkd import harness
        self.error = None
        try:
            self.result = harness.calibrate_preset("freespace", n_symbols=self.n,
                                                   seed=self.seed, jobs=2)
        except harness.CalibrationError as exc:
            self.error = str(exc)

    def check(self, tracer, corrupt):
        from thermalqkd.config import format_config
        if self.error is not None:
            return [f"CalibrationError: {self.error}"], {}, {}
        res = self.result
        lines = [repr((pt, sorted(achieved.items()), objective))
                 for pt, achieved, objective in res.table]
        text = "\n".join(lines) + "\n" + format_config(res.config)
        return [], {"calibration": sha256(text.encode("utf-8"))}, dict(res.achieved)


WORKLOADS = {
    "run-waveguide": RunWaveguide,
    "seeds-freespace": SeedsFreespace,
    "calibrate-freespace": CalibrateFreespace,
}


# ---------------------------------------------------------------------------


def layer_metrics(tracer, wall, jobs) -> dict:
    out = tracer.summary()
    for kernel in ("channel_combine", "demod_fold", "distill_scan"):
        name = f"kernels.{kernel}"
        if out.get(f"{name}.s"):
            out[f"{name}.gb_per_s_computed"] = out[f"{name}.bytes_computed"] / out[f"{name}.s"] / 1e9
    write = "harness.RunArtifacts.write"
    if out.get(f"{write}.s"):
        out[f"{write}.mb_per_s"] = out[f"{write}.bytes"] / out[f"{write}.s"] / 1e6
    out["harness.pool.busy_frac"] = sum(tracer.durations("harness.run_scenario")) / (wall * jobs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--unit", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1, 2), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    import thermalqkd  # noqa: F401  (set-up includes the package import)

    info = spec.WORKLOADS[args.workload]
    n = info["tiny_n"] if args.tiny else info["n_symbols"]
    config_seed = first_seed(args.seed) + args.unit
    OUT.mkdir(parents=True, exist_ok=True)
    unit_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload]()
        n_total = workload.prepare(config_seed, n, unit_dir)
        t_ready = time.monotonic()
        result = {"t_ready": t_ready, "config_seed": config_seed}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        tracer = tracing.Tracer(memory=args.trace == 2)
        tracer.install(tracing.targets(bool(args.trace)))
        errors = []
        root = tracer.open("bench.unit")
        tracer.root = root
        start = time.perf_counter()
        try:
            workload.run(tracer)
        except Exception:  # one failed unit is counted, not fatal
            errors.append(traceback.format_exc(limit=4))
        wall = time.perf_counter() - start
        tracer.close(root)
        tracer.uninstall()

        prints, stats = {}, {}
        if not errors:
            try:
                errors, prints, stats = workload.check(tracer, args.corrupt)
            except Exception:  # a check that cannot read the outputs fails the unit
                errors.append(traceback.format_exc(limit=4))
        result.update({
            "ok": not errors,
            "errors": errors,
            "wall_s": wall,
            "n_symbols_total": n_total,
            "scenario_s": tracer.durations("harness.run_scenario"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "fingerprints": prints,
            "stats": stats,
            "env": environment(),
        })
        if args.trace:
            result["layers"] = layer_metrics(tracer, wall, info["jobs"])
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(unit_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())

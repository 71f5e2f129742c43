"""In-memory span recorder that times the simulator's layers from outside.

The simulator's modules call one another through module-level names that are
looked up at call time (``harness.apply_channel``, ``kernels.channel_combine``,
``harness.RunArtifacts.write`` ...). ``Tracer.install`` swaps each such name
for a thin wrapper that opens a span, calls the original and closes the span,
and ``Tracer.uninstall`` puts the originals back. Nothing in ``src/`` changes.

Each thread keeps its own span stack, so spans opened by pool workers nest
under their own thread's spans; a span opened on an empty stack takes the
unit's root span as its parent. Self time is a span's duration minus the part
of its interval covered by its children (the union, since children from two
threads can overlap).

With ``memory=True`` tracemalloc runs, and its peak is reset at every span
opened directly under ``run_scenario`` or ``RunArtifacts.write``, so each such
span gets the peak traced memory reached while it was open. The reset is
process-wide, so memory is traced only for single-threaded workloads.
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

# Spans whose direct children get their own memory peak.
MEM_ROOTS = ("harness.run_scenario", "harness.RunArtifacts.write")


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []          # [name, start, end, parent, thread]
        self.values: dict[str, list[float]] = defaultdict(list)
        self.mem_peak: dict[str, float] = {}
        self.root: int | None = None
        self.last_artifacts = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._mem_open: dict[int, int] = {}  # span id -> running peak (bytes)
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident()])
        stack.append(sid)
        if self.memory and self._mem_tracked(name, parent):
            current, peak = tracemalloc.get_traced_memory()
            self._fold_peak(peak)
            tracemalloc.reset_peak()
            self._mem_open[sid] = current
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack().pop()
        if sid in self._mem_open:
            _, peak = tracemalloc.get_traced_memory()
            self._fold_peak(peak)
            tracemalloc.reset_peak()
            name = self.spans[sid][0]
            top = self._mem_open.pop(sid)
            self.mem_peak[name] = max(self.mem_peak.get(name, 0), top)

    def _mem_tracked(self, name: str, parent: int | None) -> bool:
        return name in MEM_ROOTS or (
            parent is not None and self.spans[parent][0] in MEM_ROOTS)

    def _fold_peak(self, peak: int) -> None:
        for sid in self._mem_open:
            self._mem_open[sid] = max(self._mem_open[sid], peak)

    def record(self, name: str, value: float) -> None:
        with self._lock:
            self.values[name].append(float(value))

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if on_return is not None:
                on_return(self, args, result)
            return result
        return traced

    def install(self, targets) -> None:
        """Wrap every ``(owner, attribute, span name, hook)`` target.

        One original can be reachable under several owners; each gets its
        own wrapper around the same original. A name the program no longer
        has is skipped, so its metrics read 0 as for a span that never ran.
        """
        if self.memory:
            tracemalloc.start()
        for owner, attr, name, hook in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self.memory:
            tracemalloc.stop()

    # -- aggregation -------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def summary(self) -> dict[str, float]:
        """Per-name totals: ``<name>.s``, ``.self_s``, ``.calls``, plus the
        recorded values (byte counts summed, the rest averaged per call) and
        ``mem.<name>.peak_mb``."""
        children = defaultdict(list)
        for sid, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - _cover(start, end, children[sid])
            out[f"{name}.calls"] += 1
        for name, vals in self.values.items():
            total = float(sum(vals))
            out[name] = total if name.endswith("bytes_computed") or name.endswith(".bytes") \
                else total / len(vals)
        for name, peak in self.mem_peak.items():
            out[f"mem.{name}.peak_mb"] = peak / 1e6
        return dict(out)


def _cover(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# ---------------------------------------------------------------------------
# hooks run after a wrapped call returns


def _array_bytes(items) -> int:
    return sum(int(a.nbytes) for a in items if isinstance(a, np.ndarray))


def kernel_bytes(name: str):
    """Bytes computed from the argument and result array sizes (no cache model)."""
    def hook(tracer, args, result):
        out = result if isinstance(result, tuple) else (result,)
        tracer.record(f"{name}.bytes_computed", _array_bytes(args) + _array_bytes(out))
    return hook


def scenario_counts(tracer, args, result):
    cfg = args[0]
    tracer.record("harness.symbols_dropped", cfg.n_symbols - result.report.n_bits)
    for party, found in result.alignment.items():
        tracer.record(f"modem.match_fraction.{party}", found.match_fraction)
    tracer.last_artifacts = result


def distill_counts(tracer, args, result):
    tracer.record("distill.kept_fraction", result[2])


def write_bytes(tracer, args, result):
    out_dir = Path(args[1])
    tracer.record("harness.RunArtifacts.write.bytes",
                  sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()))


def targets(trace: bool):
    """Names to wrap. Untraced units wrap only ``run_scenario``, for the
    per-scenario wall times that ``scenario_p50_s`` and the pool busy
    fraction need; traced units wrap every layer boundary below."""
    from thermalqkd import channels, cli, harness, kernels

    out = [
        (harness, "run_scenario", "harness.run_scenario", scenario_counts),
        (cli, "run_scenario", "harness.run_scenario", scenario_counts),
    ]
    if not trace:
        return out
    out += [
        (cli, "main", "cli.main", None),
        (cli, "load_config", "config.load_config", None),
        (harness.RunArtifacts, "write", "harness.RunArtifacts.write", write_bytes),
        (harness, "sample_source_field", "optics.sample_source_field", None),
        (harness, "apply_beamsplitter", "optics.apply_beamsplitter", None),
        (channels, "apply_beamsplitter", "optics.apply_beamsplitter", None),
        (harness, "eve_tap", "channels.eve_tap", None),
        (harness, "apply_channel", "channels.apply_channel", None),
        (channels, "sample_phase_walk", "channels.sample_phase_walk", None),
        (harness, "heterodyne", "optics.heterodyne", None),
        (harness, "quadrant_decision", "modem.quadrant_decision", None),
        (harness, "estimate_delay_and_rotation", "modem.estimate_delay_and_rotation", None),
        (harness, "estimate_global_phase", "modem.estimate_global_phase", None),
        (harness, "median_slice", "distill.median_slice", None),
        (harness, "build_report", "infotheory.build_report", None),
        (harness, "advantage_distill", "distill.advantage_distill", distill_counts),
        (harness, "write_bits_text", "distill.write_bits_text", None),
        (harness, "write_bits_packed", "distill.write_bits_packed", None),
        (harness, "set_config_value", "config.set_config_value", None),
    ]
    for kernel in ("channel_combine", "demod_fold", "distill_scan"):
        name = f"kernels.{kernel}"
        out.append((kernels, kernel, name, kernel_bytes(name)))
    return out

"""What the benchmark runs and what each of its metrics is meant to show.

BENCHMARK.json lists the metric names, units and bounds; this module holds
the sizes of each workload, the layers each one stresses or skips, and, for
every per-layer metric, the end-to-end metric it should move and on which
workloads. ``run.py --self-check`` confirms that the two agree.
"""

from __future__ import annotations

LAYERS = ("optics", "channels", "kernels", "modem", "distill", "infotheory",
          "config", "harness", "cli")

# ``n_symbols`` is the size of one scenario run; ``tiny_n`` is the size the
# self-check uses. ``jobs`` is the thread count the workload asks for.
# The sizes sit below the 3M-symbol unit of work named in ROADMAP.md: a run
# must fit in about 40 s so that dozens of repeated runs of all three
# workloads fit in under an hour, and many short units give a steadier
# median on a noisy 2-core host than a few long ones. Per-symbol shares of
# the stages stay close to those at 3M.
WORKLOADS = {
    "run-waveguide": {
        "unit": "one `thermalqkd run` CLI call in a fresh process "
                "(waveguide preset, ad_block=2), artifacts written",
        "n_symbols": 100_000,
        "tiny_n": 20_000,
        "jobs": 1,
        "stresses": ["cli", "config", "harness (RunArtifacts.write)",
                     "distill (advantage_distill, key writers)", "kernels.distill_scan"],
        "skips": ["thread pool", "config.set_config_value"],
    },
    "seeds-freespace": {
        "unit": "one seed of a loop over consecutive seeds of the free-space "
                "preset (ad_block=None), report only, as in criteria 5/6",
        "n_symbols": 1_000_000,
        "tiny_n": 20_000,
        "jobs": 1,
        "stresses": ["optics", "channels", "kernels.channel_combine",
                     "kernels.demod_fold", "modem", "distill.median_slice",
                     "infotheory", "harness.run_scenario"],
        "skips": ["RunArtifacts.write", "key writers", "advantage_distill", "cli"],
    },
    "calibrate-freespace": {
        "unit": "calibrate_preset('freespace', n_symbols=100_000, jobs=2): "
                "81 grid points on two threads",
        "n_symbols": 100_000,
        "tiny_n": 20_000,
        "jobs": 2,
        "stresses": ["per-call fixed costs (65,536-symbol alignment window, "
                     "pilot loop)", "config.set_config_value", "GIL contention",
                     "thread pool"],
        "skips": ["RunArtifacts.write", "key writers", "advantage_distill", "cli"],
    },
}

# Acceptance bars the outputs are checked against: the waveguide calibration
# target with its tolerance, and the criterion-6 bars on the free-space loop.
WAVEGUIDE_R_AB = (0.9264, 0.02)
CRITERION_6 = {"r_be": (0.89, 0.03), "ber_ab": (0.113, 0.03)}

# Per-layer metric -> (end-to-end metric it should move, workloads where it does).
WRITE = ("wall_s, peak_rss_mb", ["run-waveguide"])
CHANNEL = ("msym_per_s", ["seeds-freespace", "calibrate-freespace"])
KERNEL = ("msym_per_s", ["seeds-freespace"])
GLUE = ("msym_per_s", ["seeds-freespace"])
PER_CALL = ("scenario_p50_s", ["calibrate-freespace"])
MEM = ("peak_rss_mb", ["seeds-freespace", "run-waveguide"])
COUNT = ("none: repeats exactly unless outputs change", list(WORKLOADS))

LAYER_MAP = {
    "harness.RunArtifacts.write.self_s": WRITE,
    "harness.RunArtifacts.write.calls": WRITE,
    "harness.RunArtifacts.write.bytes": WRITE,
    "harness.RunArtifacts.write.mb_per_s": WRITE,
    "distill.write_bits_text.s": WRITE,
    "distill.write_bits_packed.s": WRITE,
    "cli.main.self_s": ("wall_s", ["run-waveguide"]),
    "config.load_config.s": ("wall_s", ["run-waveguide"]),
    "channels.apply_channel.self_s": CHANNEL,
    "channels.sample_phase_walk.s": CHANNEL,
    "optics.sample_source_field.s": CHANNEL,
    "optics.heterodyne.s": CHANNEL,
    "optics.apply_beamsplitter.s": CHANNEL,
    "channels.eve_tap.s": CHANNEL,
    "kernels.distill_scan.s": ("wall_s", ["run-waveguide"]),
    "kernels.distill_scan.calls": ("wall_s", ["run-waveguide"]),
    "kernels.distill_scan.bytes_computed": ("wall_s", ["run-waveguide"]),
    "kernels.distill_scan.gb_per_s_computed": ("wall_s", ["run-waveguide"]),
    "harness.run_scenario.self_s": GLUE,
    "harness.run_scenario.calls": COUNT,
    "distill.median_slice.s": GLUE,
    "infotheory.build_report.s": GLUE,
    "modem.estimate_delay_and_rotation.s": PER_CALL,
    "modem.estimate_global_phase.s": PER_CALL,
    "modem.estimate_global_phase.calls": PER_CALL,
    "modem.quadrant_decision.calls": PER_CALL,
    "config.set_config_value.s": PER_CALL,
    "harness.pool.busy_frac": ("wall_s", ["calibrate-freespace"]),
    "distill.kept_fraction": COUNT,
    "harness.symbols_dropped": COUNT,
    "modem.match_fraction.alice": COUNT,
    "modem.match_fraction.bob": COUNT,
    "modem.match_fraction.eve": COUNT,
    "trace_overhead_s": ("none: traced minus untraced wall_s", list(WORKLOADS)),
}
for _kernel in ("channel_combine", "demod_fold"):
    for _stat in ("s", "calls", "bytes_computed", "gb_per_s_computed"):
        LAYER_MAP[f"kernels.{_kernel}.{_stat}"] = KERNEL
for _span in ("harness.run_scenario", "harness.RunArtifacts.write",
              "optics.sample_source_field", "optics.apply_beamsplitter",
              "channels.eve_tap", "channels.apply_channel", "optics.heterodyne",
              "modem.estimate_delay_and_rotation", "kernels.demod_fold",
              "distill.median_slice", "infotheory.build_report",
              "distill.advantage_distill", "distill.write_bits_text",
              "distill.write_bits_packed"):
    LAYER_MAP[f"mem.{_span}.peak_mb"] = MEM

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "msym_per_s": "Msym/s",
    "scenario_p50_s": "s",
    "peak_rss_mb": "MB",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(".gb_per_s_computed"):
        return "GB/s"
    if metric.endswith(".mb_per_s"):
        return "MB/s"
    if metric.endswith(".peak_mb"):
        return "MB"
    if metric.endswith((".bytes", ".bytes_computed")):
        return "B"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith((".calls", "symbols_dropped")):
        return "count"
    return "fraction"

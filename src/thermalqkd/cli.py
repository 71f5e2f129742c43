"""Command-line entry point.

Subcommands: ``run`` a scenario config, ``calibrate`` a named preset,
``sweep`` one parameter, ``selftest`` the acceptance criteria that need no
calibration (1-4 and 7-9, about 11 s). Exit codes: 0 success, 1 usage or
validation error (including an empty or non-finite sweep grid and
``--jobs`` below 1, or a path argument that cannot be read or created,
named by its argument), 2 runtime failure or a failed selftest criterion.
``--seed`` and ``--n-symbols`` are read as the config file reads those keys,
so ``0x10`` is 16 and ``010`` is rejected by name.
The default output directory comes from ``THERMALQKD_OUT`` (falling back to
./runs when it is unset or empty), and a path error names where it came
from. ``run`` writes its measurement CSVs in forked processes, so it needs
``os.fork`` (Linux, macOS).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from pathlib import Path

from .config import PARTIES, ConfigError, load_config, parse_value, set_config_value
from .harness import (CalibrationError, SCENARIO_PRESETS, calibrate_preset,
                      run_scenario, sweep, sweep_csv, sweep_values,
                      write_preset_file)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _PathArgError(Exception):
    """A path argument that cannot be opened or created (exit 1)."""


@contextlib.contextmanager
def _path_arg(arg: str, path):
    """Re-raise an OSError on a file (not, say, a failed fork) as a
    _PathArgError naming ``arg`` and ``path``."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            raise
        raise _PathArgError(f"{arg}: cannot use {path}: {exc.strerror or exc}") from exc


def _given(args, *names) -> dict:
    """The options among ``names`` that the command line set."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


_JOBS_HELP = ("threads that run the grid (default 1), one group of points per distinct "
              "transmission at a time; capped at the CPU count and the group count")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="thermalqkd",
                     description="Central-broadcast displaced-thermal QKD simulator")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run a scenario config and write artifacts")
    p_run.add_argument("config", help="scenario config file")
    p_run.add_argument("--seed", default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")

    # An option left out is not passed on, so the library default holds.
    p_cal = sub.add_parser("calibrate", help="grid-search a preset against its targets",
                           argument_default=argparse.SUPPRESS)
    p_cal.add_argument("preset", choices=sorted(SCENARIO_PRESETS))
    p_cal.add_argument("--out", default=None, help="write the calibrated preset file here")
    p_cal.add_argument("--n-symbols")
    p_cal.add_argument("--seed")

    p_sweep = sub.add_parser("sweep", help="vary one parameter and emit metric-vs-value CSV",
                             argument_default=argparse.SUPPRESS)
    p_sweep.add_argument("param", help="dotted config key, e.g. eve_transmittance")
    p_sweep.add_argument("start", type=float)
    p_sweep.add_argument("stop", type=float)
    p_sweep.add_argument("step", type=float)
    # argparse reads an argument as a value, not an option, when its private
    # _negative_number_matcher matches it. Its own matches only -<digits> and
    # -<digits>.<digits>, which would make "-1e-05" and "-inf" options.
    p_sweep._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)
    p_sweep.add_argument("--config", default=None,
                         help="base config file (default: built-in waveguide preset)")
    p_sweep.add_argument("--n-symbols", help="override the base run length")
    p_sweep.add_argument("--seed", help="override the base seed")
    p_sweep.add_argument("--out", default=None, help="output CSV path")
    p_sweep.add_argument("--jobs", type=int, help=_JOBS_HELP)

    sub.add_parser("selftest", help="run acceptance criteria 1-4 and 7-9")
    return parser


def _cmd_run(args) -> int:
    with _path_arg("config", args.config):
        cfg = load_config(args.config)
    if args.seed is not None:
        cfg = set_config_value(cfg, "seed", args.seed)
    stem = Path(args.config).stem
    env_out = os.environ.get("THERMALQKD_OUT")  # empty is unset
    default_out = Path(env_out or "runs", f"{stem}-seed{cfg.seed}")
    out_dir = Path(args.out or default_out)
    # A path error names where the directory came from. It is made before the
    # run, so a bad one fails before the compute.
    source = ("--out" if args.out else
              "THERMALQKD_OUT" if env_out else "default output directory")
    with _path_arg(source, out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = run_scenario(cfg)
    with _path_arg(source, out_dir):
        paths = artifacts.write(out_dir)
    rep = artifacts.report
    print(f"wrote {out_dir}")
    print(f"  r_ab={rep.r_ab:.5f} r_be={rep.r_be:.5f} r_ae={rep.r_ae:.5f}")
    print(f"  i_ab={rep.i_ab:.5f} i_be={rep.i_be:.5f} i_ae={rep.i_ae:.5f} "
          f"i_ab_given_e={rep.i_ab_given_e:.5f}")
    print(f"  delta_dr={rep.delta_dr:.5f} delta_rr={rep.delta_rr:.5f} "
          f"ber_ab={rep.ber_ab:.5f} n_bits={rep.n_bits}")
    for name in PARTIES:
        al = artifacts.alignment[name]
        print(f"  {name}: lag={al.lag} match={al.match_fraction:.4f}")
    if artifacts.distilled:
        d = artifacts.distilled
        print(f"  distilled: block={d['block']} kept_fraction={d['kept_fraction']:.4f} "
              f"ber_kept={d['ber_kept']:.5f} n_kept={d['n_kept']}")
    print(f"  files: {', '.join(str(p) for p in paths.values())}")
    return 0


def _cmd_calibrate(args) -> int:
    given = _given(args, "n_symbols", "seed")
    try:
        result = calibrate_preset(args.preset, **{k: parse_value(k, v) for k, v in given.items()})
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        best = exc.best
        for k, v in best.targets.items():
            print(f"  best {k} = {best.achieved[k]:.5f} (target {v})", file=sys.stderr)
        return 2
    for k, v in result.targets.items():
        print(f"{k}: achieved {result.achieved[k]:.5f} (target {v})")
    if args.out:
        with _path_arg("--out", args.out):
            write_preset_file(result, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    if args.config:
        with _path_arg("--config", args.config):
            base = load_config(args.config)
    else:
        base = SCENARIO_PRESETS["waveguide"](seed=0, n_symbols=300_000, ad_block=None)
    for name, text in _given(args, "seed", "n_symbols").items():
        base = set_config_value(base, name, text)
    values = sweep_values(args.start, args.stop, args.step)
    rows = sweep(base, args.param, values, **_given(args, "jobs"))
    text = sweep_csv(rows, args.param)
    if args.out:
        with _path_arg("--out", args.out):
            Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out} ({len(values)} rows)")
    else:
        print(text, end="")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return run_selftest()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"run": _cmd_run, "calibrate": _cmd_calibrate,
                "sweep": _cmd_sweep, "selftest": _cmd_selftest}
    try:
        return handlers[args.command](args)
    except (ConfigError, _PathArgError) as exc:
        print(f"thermalqkd: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"thermalqkd: runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

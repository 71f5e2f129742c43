"""Command-line entry point.

Subcommands: ``run`` a scenario config, ``calibrate`` a named preset,
``sweep`` one parameter, ``selftest`` the acceptance criteria that need no
calibration (1-4 and 7-9, about 11 s). Exit codes: 0 success, 1 usage or
validation error (including an empty or non-finite sweep grid and
``--jobs`` below 1), 2 runtime failure or a failed selftest criterion. The
default output directory comes from ``THERMALQKD_OUT`` (falling back to
./runs).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .harness import (CalibrationError, SCENARIO_PRESETS, calibrate_preset,
                      run_scenario, sweep, sweep_csv, sweep_values,
                      write_preset_file)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _default_out() -> Path:
    return Path(os.environ.get("THERMALQKD_OUT", "runs"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="thermalqkd",
                     description="Central-broadcast displaced-thermal QKD simulator")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run a scenario config and write artifacts")
    p_run.add_argument("config", help="scenario config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")

    p_cal = sub.add_parser("calibrate", help="grid-search a preset against its targets")
    p_cal.add_argument("preset", choices=sorted(SCENARIO_PRESETS))
    p_cal.add_argument("--out", default=None, help="write the calibrated preset file here")
    p_cal.add_argument("--n-symbols", type=int, default=200_000)
    p_cal.add_argument("--seed", type=int, default=1_234_567)
    p_cal.add_argument("--jobs", type=int, default=1)

    p_sweep = sub.add_parser("sweep", help="vary one parameter and emit metric-vs-value CSV")
    p_sweep.add_argument("param", help="dotted config key, e.g. eve_transmittance")
    p_sweep.add_argument("start", type=float)
    p_sweep.add_argument("stop", type=float)
    p_sweep.add_argument("step", type=float)
    p_sweep.add_argument("--config", default=None,
                         help="base config file (default: built-in waveguide preset)")
    p_sweep.add_argument("--n-symbols", type=int, default=None,
                         help="override the base run length (preset: 300000)")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="override the base seed (preset: 0)")
    p_sweep.add_argument("--out", default=None, help="output CSV path")
    p_sweep.add_argument("--jobs", type=int, default=1)

    sub.add_parser("selftest", help="run acceptance criteria 1-4 and 7-9")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    artifacts = run_scenario(cfg)
    stem = Path(args.config).stem
    out_dir = Path(args.out) if args.out else _default_out() / f"{stem}-seed{cfg.seed}"
    paths = artifacts.write(out_dir)
    rep = artifacts.report
    print(f"wrote {out_dir}")
    print(f"  r_ab={rep.r_ab:.5f} r_be={rep.r_be:.5f} r_ae={rep.r_ae:.5f}")
    print(f"  i_ab={rep.i_ab:.5f} i_be={rep.i_be:.5f} i_ae={rep.i_ae:.5f} "
          f"i_ab_given_e={rep.i_ab_given_e:.5f}")
    print(f"  delta_dr={rep.delta_dr:.5f} delta_rr={rep.delta_rr:.5f} "
          f"ber_ab={rep.ber_ab:.5f} n_bits={rep.n_bits}")
    for name in ("alice", "bob", "eve"):
        al = artifacts.alignment[name]
        print(f"  {name}: lag={al.lag} quarter_turns={al.quarter_turns} "
              f"match={al.match_fraction:.4f}")
    if artifacts.distilled:
        d = artifacts.distilled
        print(f"  distilled: block={d['block']} kept_fraction={d['kept_fraction']:.4f} "
              f"ber_kept={d['ber_kept']:.5f} n_kept={d['n_kept']}")
    print(f"  files: {', '.join(str(p) for p in paths.values())}")
    return 0


def _cmd_calibrate(args) -> int:
    try:
        result = calibrate_preset(args.preset, n_symbols=args.n_symbols,
                                  seed=args.seed, jobs=args.jobs)
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        best = exc.best
        for k, v in best.targets.items():
            print(f"  best {k} = {best.achieved[k]:.5f} (target {v})", file=sys.stderr)
        return 2
    for k, v in result.targets.items():
        print(f"{k}: achieved {result.achieved[k]:.5f} (target {v})")
    if args.out:
        write_preset_file(result, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    if args.config:
        base = load_config(args.config)
    else:
        base = SCENARIO_PRESETS["waveguide"](seed=0, n_symbols=300_000, ad_block=None)
    overrides = {"seed": args.seed, "n_symbols": args.n_symbols}
    base = dataclasses.replace(base, **{k: v for k, v in overrides.items() if v is not None})
    values = sweep_values(args.start, args.stop, args.step)
    rows = sweep(base, args.param, values, jobs=args.jobs)
    text = sweep_csv(rows, args.param)
    if args.out:
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
    except ConfigError as exc:
        print(f"thermalqkd: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"thermalqkd: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"thermalqkd: runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

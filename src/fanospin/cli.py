"""Command-line entry point.

Subcommands: levels, sweep, iv, readout, oracle.  Each run writes
deterministic CSV/JSON data files plus a manifest.json carrying the run
metadata (the timestamp lives only in the manifest, so repeated runs on the
same config produce byte-identical data files).  The output directory is
created with the first file, so a rejected input leaves none behind.

Exit codes (sysexits where one fits):

- 0 success;
- 1 invalid input, each violation named by its config key or option: the
  config, ``--grid`` (START and STOP finite within +-``config.LIMIT``,
  COUNT an integer in [1, ``MAX_POINTS``], for ``iv`` a strictly
  increasing grid) and the oracle options (``--hopping-t``, ``--window``
  finite and > 0, ``--coupling-tp`` finite and >= 0, ``--eps-d`` finite,
  ``--points`` in [1, ``MAX_POINTS``]);
- 2 numerical failure;
- 64 usage error;
- 66 unreadable config;
- 73 the output cannot be created (``--out`` names a file, or a path
  under one, or is not writable).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import (LIMIT, ConfigError, DeviceConfig, apply_overrides,
                     default_config, dumps, load_file, validate)
from .dot_spectrum import eigenlevels
from .fano import (SpinOrientation, mode_transmission,
                   spin_channel_reflection)
from .landauer import iv_curves, model_from_config
from .lattice_oracle import (BandEdgeError, ExtractionError, OracleLattice,
                             compare_to_fano)
from .readout import nondemolition_summary, readout_report

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64
EXIT_NOINPUT = 66
EXIT_CANTCREAT = 73

#: The most points a ``--grid`` COUNT or the oracle's ``--points`` may ask
#: for, checked before any array is allocated: the largest round count at
#: which ``sweep``, a T = 0 ``iv`` and ``oracle`` on a one-mode device stay
#: within 1 GiB (each peaks at about 1 kB per point).
MAX_POINTS = 1_000_000


def _fmt(x) -> str:
    """Full round-trip decimal representation, locale-independent."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _write_text(path: Path, text: str):
    """Write one output file, creating its directory first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_csv(path: Path, header: list[str], rows, comment: str | None = None):
    lines = []
    if comment is not None:
        lines.append("# " + comment)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, obj):
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _parse_grid(text: str) -> np.ndarray:
    """START:STOP:COUNT, with finite ends within +-LIMIT and
    1 <= COUNT <= MAX_POINTS."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError([f"--grid: expected start:stop:count, got "
                           f"'{text}' ({exc})"]) from exc
    if not (-LIMIT <= start <= LIMIT and -LIMIT <= stop <= LIMIT
            and 1 <= count <= MAX_POINTS):
        raise ConfigError([f"--grid: START and STOP must be in [{-LIMIT:g}, "
                           f"{LIMIT:g}] and COUNT in [1, {MAX_POINTS}], "
                           f"got '{text}'"])
    return np.linspace(start, stop, count)


def _load_config(args) -> DeviceConfig:
    if args.config is not None:
        cfg = load_file(args.config)
    else:
        cfg = default_config()
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    return validate(cfg)


def _run_levels(cfg: DeviceConfig, args, out: Path) -> list[Path]:
    path = out / "levels.csv"
    _write_csv(path,
               ["energy_meV", "character", "sz_total", "l1z", "degeneracy",
                "parallel_accessible"],
               [(lv.energy, lv.character.value, lv.sz_total, lv.l1z,
                 lv.degeneracy, lv.parallel_accessible)
                for lv in eigenlevels(cfg)])
    return [path]


def _run_sweep(cfg: DeviceConfig, args, out: Path) -> list[Path]:
    model_par = model_from_config(cfg, SpinOrientation.PARALLEL)
    model_anti = replace(model_par, orientation=SpinOrientation.ANTIPARALLEL)
    res = model_par.resonance
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        grid = np.linspace(res.energy - 10 * res.Gamma,
                           res.energy + 10 * res.Gamma, 201)
    n = len(cfg.modes)
    header = ["E_meV"]
    for i in range(n):
        header += [f"T_parallel_mode{i}", f"T_antiparallel_mode{i}",
                   f"R_parallel_mode{i}", f"R_antiparallel_mode{i}"]
    header += ["T_parallel", "T_antiparallel", "R_parallel", "R_antiparallel"]
    columns = [grid]
    totals = [0.0] * 4
    for i, m in enumerate(cfg.modes):
        tp = mode_transmission(grid, model_par, i)
        ta = mode_transmission(grid, model_anti, i)
        # R = w (1 - T_fano) on the open coupled mode, so it halves exactly
        is_open = (grid >= m.bottom_energy) & m.coupled
        mode_columns = [tp, ta,
                        is_open * spin_channel_reflection(grid, model_par),
                        is_open * spin_channel_reflection(grid, model_anti)]
        columns += mode_columns
        totals = [s + c for s, c in zip(totals, mode_columns)]
    rows = np.column_stack(columns + totals).tolist()
    path = out / "sweep.csv"
    _write_csv(path, header, rows)
    return [path]


def _run_iv(cfg: DeviceConfig, args, out: Path) -> list[Path]:
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        grid = np.linspace(-2 * cfg.Gamma, 2 * cfg.Gamma, 81)
    if grid[0] == -grid[-1]:
        # mirror-exact: V[k] == -V[n-1-k], so I(-V) = -I(V) bit for bit
        grid = (grid - grid[::-1]) / 2
    if not (grid[1:] > grid[:-1]).all():
        raise ConfigError([f"--grid: the bias grid must be strictly "
                           f"increasing, got '{args.grid}'"])
    curve_par, curve_anti = iv_curves(cfg, grid)
    path = out / "iv.csv"
    _write_csv(path,
               ["V_mV", "I_A_parallel", "I_A_antiparallel",
                "G_S_parallel", "G_S_antiparallel"],
               [(p.V_sd, p.I, a.I, p.G_diff, a.G_diff)
                for p, a in zip(curve_par.points, curve_anti.points)])
    return [path]


def _run_readout(cfg: DeviceConfig, args, out: Path) -> list[Path]:
    report = readout_report(cfg)
    summary = nondemolition_summary(cfg)
    flip_time_finite = math.isfinite(summary.spin_flip_time)
    obj = {
        "I_ballistic_A": report.I_ballistic,
        "I_parallel_A": report.I_parallel,
        "I_antiparallel_A": report.I_antiparallel,
        "delta_I_parallel_A": report.delta_I_parallel,
        "delta_I_antiparallel_A": report.delta_I_antiparallel,
        "contrast": report.contrast,
        "relative_decrease_parallel": report.relative_decrease_parallel,
        "relative_decrease_antiparallel":
            report.relative_decrease_antiparallel,
        "flip_blocked": report.flip_blocked,
        "levels_distinguishable": report.levels_distinguishable,
        "optimal_V_mV": report.optimal_V,
        "mean_reflection_dip_window": report.mean_reflection_dip_window,
        "conductance_at_resonance_S": report.conductance_at_resonance,
        "lineshape_note": report.lineshape_note,
        "qnd": summary.qnd,
        "qnd_reasons": list(summary.reasons),
        "spin_flip_time_s": (summary.spin_flip_time if flip_time_finite
                             else None),
        "spin_flip_time_finite": flip_time_finite,
        "beta_vs_zeeman": summary.beta_vs_zeeman,
    }
    path = out / "readout.json"
    _write_json(path, obj)
    return [path]


def _run_oracle(cfg: DeviceConfig, args, out: Path) -> list[Path]:
    errs = [f"{flag}: must be {rule}, got {value}"
            for flag, value, ok, rule in (
                ("--hopping-t", args.hopping_t,
                 0 < args.hopping_t < math.inf, "finite and > 0"),
                ("--coupling-tp", args.coupling_tp,
                 0 <= args.coupling_tp < math.inf, "finite and >= 0"),
                ("--eps-d", args.eps_d, math.isfinite(args.eps_d), "finite"),
                ("--window", args.window,
                 0 < args.window < math.inf, "finite and > 0"),
                ("--points", args.points, 1 <= args.points <= MAX_POINTS,
                 f"in [1, {MAX_POINTS}]"))
            if not ok]
    if errs:
        raise ConfigError(errs)
    lattice = OracleLattice(hopping_t=args.hopping_t,
                            site_energy_eps_d=args.eps_d,
                            coupling_tp=args.coupling_tp)
    dev, gamma, grid, t_oracle, t_fano = compare_to_fano(
        lattice, window_halfwidth=args.window, n_points=args.points)
    path = out / "oracle.csv"
    _write_csv(path,
               ["E_meV", "T_oracle", "T_fano", "abs_deviation"],
               np.column_stack((grid, t_oracle, t_fano,
                                np.abs(t_oracle - t_fano))).tolist(),
               comment=f"Gamma_eff_meV={gamma!r} max_abs_deviation={dev!r}")
    return [path]


RUNNERS = {
    "levels": _run_levels,
    "sweep": _run_sweep,
    "iv": _run_iv,
    "readout": _run_readout,
    "oracle": _run_oracle,
}
SUBCOMMANDS = tuple(RUNNERS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanospin",
        description="Fano-antiresonance spin readout simulator")
    sub = parser.add_subparsers(dest="subcommand")
    for name, help_ in (
            ("levels", "two-electron dot level diagram (CSV)"),
            ("sweep", "energy-resolved transmission/reflection (CSV)"),
            ("iv", "current-voltage and differential conductance (CSV)"),
            ("readout", "readout figures of merit (JSON)"),
            ("oracle", "lattice oracle vs analytic lineshape (CSV)")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", default=None,
                       help="device config JSON (built-in defaults if omitted)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="config override (dotted path)")
        if name in ("sweep", "iv"):
            p.add_argument("--grid", default=None, metavar="START:STOP:COUNT",
                           help="evaluation grid; a negative START needs "
                                "the = form, --grid=-2:2:81")
        if name == "oracle":
            p.add_argument("--hopping-t", type=float, default=1000.0,
                           dest="hopping_t", help="chain hopping, meV")
            p.add_argument("--coupling-tp", type=float, default=100.0,
                           dest="coupling_tp", help="wire-level coupling, meV")
            p.add_argument("--eps-d", type=float, default=0.0, dest="eps_d",
                           help="side-level energy, meV")
            p.add_argument("--window", type=float, default=5.0,
                           help="half-width of comparison window, in Gamma_eff")
            p.add_argument("--points", type=int, default=1001,
                           help="grid points")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if argv and not argv[0].startswith("-") and argv[0] not in SUBCOMMANDS:
        parser.print_usage(sys.stderr)
        print(f"fanospin: unknown subcommand '{argv[0]}'", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"fanospin: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, json.JSONDecodeError) as exc:
        print(f"fanospin: cannot read config: {exc}", file=sys.stderr)
        return EXIT_NOINPUT

    out = Path(args.out)
    try:
        outputs = RUNNERS[args.subcommand](cfg, args, out)
        _write_json(out / "manifest.json", {
            "subcommand": args.subcommand,
            "config_digest": hashlib.sha256(
                dumps(cfg).encode("utf-8")).hexdigest(),
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "overrides": list(args.set),
            "outputs": [str(p) for p in outputs],
        })
    except (BandEdgeError, ExtractionError, ArithmeticError) as exc:
        print(f"fanospin: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"fanospin: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"fanospin: cannot write --out: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points for the experiments."""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments as ex
from .config import ConfigError, parse_config
from .io import ensure_dir, write_energy_csv, write_error_table_csv, \
    write_h1_error_table_csv, write_vtk_snapshot
from .scheme import RUN_FAILURES


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chns",
                                     description="Energy-stable two-phase flow solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--tau", help="time step, or comma list for stability")
        p.add_argument("--nx", help="mesh subdivisions, or comma list for converge")
        p.add_argument("--t-end", type=float, dest="t_end", help="final time")

    for name in ("converge", "coarsen", "relax", "stability"):
        common(sub.add_parser(name))
    return parser


def _run_converge(cfg):
    s, prm = cfg.settings, cfg.params
    out = s["out_dir"]
    records = ex.run_convergence(s["levels"], prm, t_end=prm.t_end,
                                 tau_rule=ex.tau_rule(s["tau_factor"]))
    write_error_table_csv(records, os.path.join(out, "l2_errors.csv"))
    write_h1_error_table_csv(records, os.path.join(out, "h1_errors.csv"))
    for name in ("phi_linf_l2", "mu_l2_l2", "u_linf_l2", "p_l2_l2"):
        rates = ex.rates_between(records, name)
        print(f"{name}: errors {[getattr(r, name) for r in records]} rates {rates}")
    print(f"wrote {out}/l2_errors.csv and {out}/h1_errors.csv")
    return 0


def _write_snapshots(run, out):
    nv = run.ops.mesh.num_vertices
    for t, state in run.snapshots:
        fields = {"phi": state.phi[:nv], "mu": state.mu[:nv], "p": state.p[:nv],
                  "u": state.u}
        write_vtk_snapshot(run.ops.mesh, fields, os.path.join(out, f"snap_t{t:g}.vtk"))


def _run_dissipative(cfg):
    """A coarsen or relax run: energy.csv and snapshots, exit 1 unless the energy decays."""
    s, prm = cfg.settings, cfg.params
    out = s["out_dir"]
    if cfg.kind == "coarsen":
        name = "coarsening"
        run = ex.run_coarsening(s["seed"], s["nx"], prm.tau, prm.t_end,
                                snapshot_times=s["snapshot_times"], params=prm)
    else:
        name = "relaxation"
        run = ex.run_relaxation(s["polygon"], s["nx"], prm.tau, prm.t_end,
                                snapshot_times=s["snapshot_times"], params=prm)
    write_energy_csv(run.trace, os.path.join(out, "energy.csv"))
    _write_snapshots(run, out)
    verdict = "nonincreasing" if run.trace.monotone() else "NOT monotone"
    print(f"{name} energy trace: {verdict}")
    return 0 if run.trace.monotone() else 1


def _run_stability(cfg):
    s, prm = cfg.settings, cfg.params
    out = s["out_dir"]
    runs = ex.run_stability_sweep(s["tau_list"], s["seed"], s["nx"], prm.t_end, params=prm)
    ok = True
    for tau, run in runs.items():
        write_energy_csv(run.trace, os.path.join(out, f"energy_tau{tau:g}.csv"))
        monotone = run.trace.monotone()
        ok = ok and monotone
        print(f"tau={tau:g}: {'nonincreasing' if monotone else 'NOT monotone'}")
    return 0 if ok else 1


def _numbers(text: str, kind, flag: str, command: str, list_command: str) -> list:
    """Comma-separated numbers of one type, more than one only for `list_command`;
    anything else, an empty value too, is a ConfigError."""
    if "," in text and command != list_command:
        raise ConfigError(f"{flag} takes a comma list only for {list_command}, got {text!r}")
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated {kind.__name__} values, "
                          f"got {text!r}") from None


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {"out_dir": args.out, "seed": args.seed, "t_end": args.t_end}
    try:
        if args.tau is not None:
            taus = _numbers(args.tau, float, "--tau", args.command, "stability")
            if args.command == "stability":
                overrides["tau_list"] = taus
            else:
                overrides["tau"], = taus
        if args.nx is not None:
            nxs = _numbers(args.nx, int, "--nx", args.command, "converge")
            if args.command == "converge":
                overrides["levels"] = nxs
            else:
                overrides["nx"], = nxs

        cfg = parse_config(args.command, args.config, overrides)
        try:
            ensure_dir(cfg.settings["out_dir"])
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {cfg.settings['out_dir']!r}: "
                              f"{exc.strerror}") from None
        if args.command == "converge":
            return _run_converge(cfg)
        if args.command == "stability":
            return _run_stability(cfg)
        return _run_dissipative(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RUN_FAILURES as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: run scenarios, verify suites, inspect snapshots."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import hardy as hardy_mod
from . import manifold as manifold_mod
from .errors import HeatflowError
from .lab import (gauge_diagnostics, load_config, read_snapshot, run_scenario,
                  verify_suite)
from .mesh import Field, build_disk_mesh, save_mesh


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="heatflow",
        description="Harmonic map heat flow laboratory on the unit disk.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="Run one scenario config.")
    run.add_argument("config", metavar="CONFIG.json")
    run.add_argument("--out", metavar="DIR", default=None)

    verify = sub.add_parser("verify", help="Run every scenario in a directory.")
    verify.add_argument("directory", metavar="DIR")
    verify.add_argument("--jobs", type=int, default=1, metavar="N")
    verify.add_argument("--out", metavar="DIR", default=None)

    gauge = sub.add_parser("gauge", help="Gauge diagnostics for a snapshot.")
    gauge.add_argument("snapshot", metavar="SNAPSHOT.u.txt")
    gauge.add_argument("config", metavar="CONFIG.json")

    hardy = sub.add_parser("hardy", help="Hardy diagnostics for a snapshot.")
    hardy.add_argument("snapshot", metavar="SNAPSHOT.u.txt")
    hardy.add_argument("config", metavar="CONFIG.json")

    mesh = sub.add_parser("mesh", help="Export a disk mesh in text format.")
    mesh.add_argument("--refinement", type=int, required=True, metavar="K")
    mesh.add_argument("--out", required=True, metavar="FILE")
    return parser


def _load_snapshot_pair(args):
    cfg = load_config(args.config)
    mesh = build_disk_mesh(cfg.refinement)
    m = manifold_mod.from_config(cfg.target)
    t, u = read_snapshot(mesh, args.snapshot)
    ut_path = Path(str(args.snapshot).replace(".u.txt", ".ut.txt"))
    if ut_path != Path(args.snapshot) and ut_path.exists():
        _, ut = read_snapshot(mesh, ut_path)
    else:
        ut = Field(mesh, np.zeros_like(u.values))
    return cfg, mesh, m, t, u, ut


def _cmd_run(args):
    cfg = load_config(args.config)
    report = run_scenario(cfg, out_dir=args.out)
    verdicts = {k: v["verdict"] for k, v in report["checks"].items()}
    print(json.dumps({"scenario": cfg.name,
                      "feasible": report["scenario"]["feasible"],
                      "checks": verdicts}, indent=2, sort_keys=True))
    bad = [k for k, v in verdicts.items() if v == "fail"]
    if not report["scenario"]["feasible"] or bad:
        return 1
    return 0


def _cmd_verify(args):
    aggregate, code = verify_suite(args.directory, out_dir=args.out,
                                   jobs=args.jobs)
    print(json.dumps({"all_pass": aggregate["all_pass"],
                      "failures": aggregate["failures"]},
                     indent=2, sort_keys=True))
    return code


def _cmd_gauge(args):
    cfg, mesh, m, t, u, ut = _load_snapshot_pair(args)
    print(json.dumps(gauge_diagnostics(u, ut, m, cfg.eps0, t),
                     indent=2, sort_keys=True))
    return 0


def _cmd_hardy(args):
    cfg, mesh, m, t, u, ut = _load_snapshot_pair(args)
    print(json.dumps(hardy_mod.h1_row(hardy_mod.HardyEstimator(mesh), u, t),
                     indent=2, sort_keys=True))
    return 0


def _cmd_mesh(args):
    mesh = build_disk_mesh(args.refinement)
    save_mesh(mesh, args.out)
    print(json.dumps({"n_vertices": mesh.n_vertices,
                      "n_triangles": mesh.n_triangles,
                      "h": mesh.h, "area": mesh.area}, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "verify": _cmd_verify,
    "gauge": _cmd_gauge,
    "hardy": _cmd_hardy,
    "mesh": _cmd_mesh,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except HeatflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

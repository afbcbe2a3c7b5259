"""Command-line front end.

Subcommands: run a restoration horizon, compare two output directories,
enumerate one partition step against the brute-force oracle, and validate a
scenario file. Exit codes: 0 success, 2 bad input or an output path that
cannot be written, 3 solver limit or a solution that cannot be decoded.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from . import coordinator, report
from .formation import (DecodeError, FormationWeights, InfeasibleTopology,
                        ModelError, build_milp)
from .milp import SolverError
from .oracle import GuardExceeded, enumerate_optimal
from .report import ScenarioMismatch
from .scenario import ParseError, Scenario, ValidationError, load_scenario

log = logging.getLogger("gridsplit")


def _setup_logging() -> None:
    name = os.environ.get("GRIDSPLIT_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _load(path: str) -> Scenario:
    log.info("loading scenario %s", path)
    return load_scenario(path)


def _cmd_run(args: argparse.Namespace) -> int:
    sc = _load(args.scenario)
    if args.seed is not None:
        sc = dataclasses.replace(sc, forecast_seed=args.seed)
    # an output path that cannot be a directory fails before the horizon runs
    Path(args.out).mkdir(parents=True, exist_ok=True)
    run = coordinator.run(sc, mode=args.mode)
    paths = report.write_outputs(run, args.out, emit_plots=args.emit_plots)
    summary = report.summarize(run)
    print(f"scenario {summary.scenario_name} mode {summary.mode}: "
          f"served {summary.percent_served_total:.2f}% of load, "
          f"PV utilization {summary.pv_utilization_total:.2f}%, "
          f"{summary.topology_change_count} topology changes")
    for p in paths:
        print(f"wrote {p}")
    log.info("run wall time %.2f s", run.wall_time_s)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    sa = report.summary_from_file(Path(args.a) / report.SUMMARY_NAME)
    sb = report.summary_from_file(Path(args.b) / report.SUMMARY_NAME)
    rows = report.compare(sa, sb)
    print(f"# a = {args.a} ({sa.mode}), b = {args.b} ({sb.mode})")
    print("# delta = b - a; positive means b served or used more")
    print("row,metric,a,b,delta")
    for r in rows:
        print(f"{r['row']},{r['metric']},{r['a']!r},{r['b']!r},{r['delta']!r}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    sc = _load(args.scenario)
    tl = coordinator.Timeline()
    g, snap = coordinator.formation_inputs(sc, tl, args.step)
    wts = FormationWeights()
    if args.dump_lp:
        prob = build_milp(g, snap, wts)
        Path(args.dump_lp).write_text(prob.model.to_lp_string())
        print(f"wrote {args.dump_lp}")
    sol = enumerate_optimal(g, snap, wts)
    print(f"step {args.step} t={args.step * tl.formation_step_minutes}min "
          f"faulted={';'.join(str(e) for e in sorted(g.faulted_edges)) or '-'}")
    print(f"objective {sol.objective_value!r}")
    print(f"closed {';'.join(str(e) for e in sorted(sol.closed))}")
    for anchor, tree in sorted(sol.trees.items(), key=lambda kv: min(kv[1])):
        print(f"microgrid {anchor}: "
              + " ".join(str(z) for z in sorted(tree)))
    dark = sorted(z for z, a in sol.assignment.items() if a is None)
    if dark:
        print("unassigned " + " ".join(str(z) for z in dark))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    sc = _load(args.scenario)
    g = sc.graph
    print(f"scenario {sc.name} ok: {len(g.nodes)} zones, {len(g.edges)} "
          f"switches, {len(sc.fault_windows)} fault windows, "
          f"{sc.horizon_minutes} min at {sc.step_minutes}-min steps")
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gridsplit",
        description="microgrid formation and restoration simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one restoration horizon")
    p.add_argument("--scenario", required=True,
                   help="scenario JSON path or builtin:two-feeder")
    p.add_argument("--mode", choices=coordinator.MODES, default="flexible")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--emit-plots", action="store_true",
                   help="also write per-figure CSV files")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's forecast seed")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="diff two run output directories")
    p.add_argument("--a", required=True, help="baseline output directory")
    p.add_argument("--b", required=True, help="candidate output directory")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("enumerate",
                       help="brute-force one partition step")
    p.add_argument("--scenario", required=True)
    p.add_argument("--step", type=int, required=True,
                   help="formation event index (0-based)")
    p.add_argument("--dump-lp", default=None, metavar="PATH",
                   help="also write the MILP in LP text format")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("validate", help="parse and check a scenario file")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_validate)
    return ap


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, ScenarioMismatch, InfeasibleTopology,
            ModelError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, GuardExceeded, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

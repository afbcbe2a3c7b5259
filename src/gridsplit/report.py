"""Run aggregation, comparison, and columnar output files.

Everything written here is deterministic: floats are serialized with repr,
JSON keys are sorted, and wall-clock timings never reach the files, so two
runs of the same scenario and seed produce byte-identical artifacts.

The per-step tables (``trace.csv`` and figures 5 to 7) go through the
columnar block writer of ``scenario``: it turns a block of steps of each
array into column lists in one call, formats them with repr (floats) or as
integers (bools and ints) and writes the same bytes ``csv.writer`` wrote row
by row. The event-sized files build rows of strings, which the same row
formatter, ``scenario._csv_lines``, turns into those bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .coordinator import RestorationRun
from .scenario import (_KINDS, ParseError, ValidationError, _csv_lines, _need,
                       _write_columns)

UNSERVED_TOL_KW = 1e-9

SUMMARY_NAME = "summary.json"
TRACE_NAME = "trace.csv"
MICROGRIDS_NAME = "microgrids.csv"
CHANGES_NAME = "topology_changes.csv"
PLOT_NAMES = ("fig5_load_pv.csv", "fig6_soc_fuel.csv",
              "fig7_connectivity.csv", "fig8_percent_served.csv")


class ScenarioMismatch(Exception):
    """The two runs being compared are not over the same scenario."""


@dataclass(frozen=True)
class MetricsSummary:
    scenario_name: str
    mode: str
    total_minutes: int
    percent_served: dict[int, float]          # zone -> served/demand, 0..100
    percent_served_total: float
    pv_utilization: dict[int, float]          # feeder -> used/avail, 0..100
    pv_utilization_total: float
    served_kwh: float
    demand_kwh: float
    topology_change_count: int
    final_soc_kwh: dict[int, float]           # gfm zone -> kWh
    final_fuel_kwh: dict[int, float]
    critical_unserved_hours: float

    def __post_init__(self):
        pcts = [self.percent_served_total, self.pv_utilization_total,
                *self.percent_served.values(), *self.pv_utilization.values()]
        if any(not -1e-9 <= p <= 100 + 1e-9 for p in pcts):
            raise ValueError("percentage outside [0, 100]")


def _pct(num: float, den: float) -> float:
    return float(100.0 * num / den) if den > 0 else 0.0


def summarize(run: RestorationRun) -> MetricsSummary:
    """Aggregate a dispatch trace; pure function of the run's arrays."""
    g = run.scenario.graph
    step_h = run.timeline.dispatch_step_minutes / 60.0
    zcol = {z: c for c, z in enumerate(run.zone_ids)}

    def energy(a: np.ndarray) -> np.ndarray:
        # numpy sums the steps of a C-ordered array one row after another,
        # but of an F-ordered one pairwise: sum a C-ordered copy, so that
        # the totals do not depend on how the run laid its arrays out
        return np.ascontiguousarray(a).sum(axis=0) * step_h

    served_e = energy(run.served_kw)
    unserved_e = energy(run.unserved_kw)
    demand_e = served_e + unserved_e
    pct_zone = {z: _pct(served_e[zcol[z]], demand_e[zcol[z]])
                for z in run.zone_ids}

    feeders = sorted({n.feeder_id for n in g.nodes})
    pv_used_e = energy(run.pv_used_kw)
    pv_avail_e = energy(run.pv_potential_kw)
    pv_feeder = {}
    for f in feeders:
        cols = [zcol[n.id] for n in g.nodes if n.feeder_id == f]
        pv_feeder[f] = _pct(pv_used_e[cols].sum(), pv_avail_e[cols].sum())

    crit_cols = [zcol[n.id] for n in g.nodes if n.is_critical]
    crit_hours = float((run.unserved_kw[:, crit_cols] > UNSERVED_TOL_KW).sum()
                       * step_h)

    changes = sum(1 for ev in run.events
                  if ev.diff.moved or ev.diff.toggled)

    gcol = {j: c for c, j in enumerate(run.gfm_ids)}
    return MetricsSummary(
        scenario_name=run.scenario.name, mode=run.mode,
        total_minutes=run.timeline.total_minutes,
        percent_served=pct_zone,
        percent_served_total=_pct(served_e.sum(), demand_e.sum()),
        pv_utilization=pv_feeder,
        pv_utilization_total=_pct(pv_used_e.sum(), pv_avail_e.sum()),
        served_kwh=float(served_e.sum()), demand_kwh=float(demand_e.sum()),
        topology_change_count=changes,
        final_soc_kwh={j: float(run.soc_kwh[-1, gcol[j]]) for j in run.gfm_ids},
        final_fuel_kwh={j: float(run.fuel_kwh[-1, gcol[j]]) for j in run.gfm_ids},
        critical_unserved_hours=crit_hours)


def compare(a: RestorationRun | MetricsSummary,
            b: RestorationRun | MetricsSummary) -> list[dict[str, object]]:
    """Row-per-zone comparison table plus total rows.

    Deltas are b minus a: positive means the second run served more.
    """
    sa = a if isinstance(a, MetricsSummary) else summarize(a)
    sb = b if isinstance(b, MetricsSummary) else summarize(b)
    if sa.scenario_name != sb.scenario_name:
        raise ScenarioMismatch(
            f"scenario {sa.scenario_name!r} vs {sb.scenario_name!r}")
    if set(sa.percent_served) != set(sb.percent_served):
        raise ScenarioMismatch("zone sets differ")
    if sa.total_minutes != sb.total_minutes:
        raise ScenarioMismatch("horizons differ")

    rows: list[dict[str, object]] = []
    for z in sorted(sa.percent_served):
        pa, pb = sa.percent_served[z], sb.percent_served[z]
        rows.append({"row": f"zone_{z}", "metric": "percent_served",
                     "a": pa, "b": pb, "delta": pb - pa})
    rows.append({"row": "total", "metric": "percent_served",
                 "a": sa.percent_served_total, "b": sb.percent_served_total,
                 "delta": sb.percent_served_total - sa.percent_served_total})
    rows.append({"row": "total", "metric": "pv_utilization",
                 "a": sa.pv_utilization_total, "b": sb.pv_utilization_total,
                 "delta": sb.pv_utilization_total - sa.pv_utilization_total})
    return rows


# ---------------------------------------------------------------------------
# file outputs
# ---------------------------------------------------------------------------

_SUMMARY_KEYS = {"scenario_name": "scenario"}    # field -> key, where they differ


def _summary_dict(s: MetricsSummary) -> dict:
    return {_SUMMARY_KEYS.get(k, k):
            ({str(i): x for i, x in v.items()} if isinstance(v, dict) else v)
            for k, v in asdict(s).items()}


def _keyed(doc: dict, key: str) -> dict[int, float]:
    """A map of numbers keyed by zone, feeder or GFM id."""
    table = _need(doc, key, dict, "")
    out = {}
    for k in table:
        try:
            out[int(k)] = _need(table, k, float, f"/{key}")
        except ValueError:
            raise ValidationError(f"/{key}/{k}: expected an integer key") from None
    return out


def summary_from_file(path: str | Path) -> MetricsSummary:
    """Read a ``summary.json``: ParseError if unreadable, ValidationError if
    a key is missing or of the wrong kind."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        if not isinstance(doc, dict):
            raise ValidationError("/: document must be an object")
        values = {}
        for f in fields(MetricsSummary):
            key = _SUMMARY_KEYS.get(f.name, f.name)
            values[f.name] = (_keyed(doc, key) if f.type.startswith("dict")
                              else _need(doc, key, _KINDS[f.type], ""))
        return MetricsSummary(**values)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _write_trace(run: RestorationRun, path: Path) -> None:
    zs, gs = run.zone_ids, run.gfm_ids
    header = ["time_min"]
    for z in zs:
        header += [f"served_{z}", f"unserved_{z}", f"pv_avail_{z}",
                   f"pv_used_{z}", f"committed_{z}", f"energized_{z}",
                   f"assigned_{z}"]
    for j in gs:
        header += [f"battery_{j}", f"diesel_{j}", f"soc_{j}", f"fuel_{j}"]
    _write_columns(path, header, [
        [run.time_min],
        [run.served_kw, run.unserved_kw, run.pv_potential_kw, run.pv_used_kw,
         run.committed, run.energized, run.assignment],
        [run.battery_kw, run.diesel_kw, run.soc_kwh, run.fuel_kwh]])


def _write_microgrids(run: RestorationRun, path: Path) -> None:
    g = run.scenario.graph
    rows = [["time_min", "gfm", "members", "n_members", "n_critical",
             "objective", "load_shed_term", "flow_term", "switch_change_term",
             "closed_edges"]]
    for ev in run.events:
        sol = ev.solution
        closed = ";".join(str(e) for e in sorted(sol.closed))
        for anchor, tree in sol.trees.items():
            members = sorted(tree)
            ncrit = sum(1 for z in members if g.node(z).is_critical)
            rows.append([str(ev.time_min), str(anchor),
                         ";".join(str(z) for z in members), str(len(members)),
                         str(ncrit), repr(sol.objective_value),
                         repr(sol.load_shed_term), repr(sol.flow_term),
                         repr(sol.switch_change_term), closed])
    path.write_text(_csv_lines(rows), newline="")


def _write_changes(run: RestorationRun, path: Path) -> None:
    rows = [["time_min", "kind", "id", "before", "after"]]
    for ev in run.events:
        for z, old, new in ev.diff.moved:
            rows.append([str(ev.time_min), "zone", str(z),
                         "" if old is None else str(old),
                         "" if new is None else str(new)])
        for eid, was, now in ev.diff.toggled:
            rows.append([str(ev.time_min), "switch", str(eid),
                         "closed" if was else "open",
                         "closed" if now else "open"])
    path.write_text(_csv_lines(rows), newline="")


def _write_plot_csvs(run: RestorationRun, out: Path,
                     summary: MetricsSummary) -> None:
    sc = run.scenario
    g = sc.graph
    feeders = sorted({n.feeder_id for n in g.nodes})
    by_feeder = {f: [n.id for n in g.nodes if n.feeder_id == f]
                 for f in feeders}
    n = run.n_steps

    # feeder totals add the zones in graph order, one at a time, as a
    # running sum of scalars did: np.sum would pair them and move last bits
    totals = []
    for table in (sc.load_kw, sc.pv_kw):
        for f in feeders:
            acc = 0.0
            for z in by_feeder[f]:
                acc = acc + table[z][:n]
            totals.append(acc)
    _write_columns(out / PLOT_NAMES[0],
                   ["time_min"] + [f"load_feeder_{f}" for f in feeders]
                   + [f"pv_feeder_{f}" for f in feeders],
                   [[run.time_min]] + [[t] for t in totals])
    _write_columns(out / PLOT_NAMES[1],
                   ["time_min"] + [f"soc_{j}" for j in run.gfm_ids]
                   + [f"fuel_{j}" for j in run.gfm_ids],
                   [[run.time_min], [run.soc_kwh], [run.fuel_kwh]])
    _write_columns(out / PLOT_NAMES[2],
                   ["time_min"] + [f"assigned_{z}" for z in run.zone_ids]
                   + [f"energized_{z}" for z in run.zone_ids],
                   [[run.time_min], [run.assignment], [run.energized]])

    rows = [["zone", "is_critical", "percent_served"]]
    rows += [[str(z), str(int(g.node(z).is_critical)),
              repr(summary.percent_served[z])] for z in run.zone_ids]
    rows.append(["total", "", repr(summary.percent_served_total)])
    (out / PLOT_NAMES[3]).write_text(_csv_lines(rows), newline="")


def write_outputs(run: RestorationRun, out_dir: str | Path,
                  emit_plots: bool = False) -> list[Path]:
    """Write summary, trace and topology logs; plot CSVs on request."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = summarize(run)
    paths = [out / SUMMARY_NAME, out / TRACE_NAME, out / MICROGRIDS_NAME,
             out / CHANGES_NAME]
    (out / SUMMARY_NAME).write_text(
        json.dumps(_summary_dict(summary), indent=2, sort_keys=True) + "\n")
    _write_trace(run, out / TRACE_NAME)
    _write_microgrids(run, out / MICROGRIDS_NAME)
    _write_changes(run, out / CHANGES_NAME)
    if emit_plots:
        _write_plot_csvs(run, out, summary)
        paths += [out / name for name in PLOT_NAMES]
    return paths

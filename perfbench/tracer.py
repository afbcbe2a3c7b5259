"""In-memory span tracer that wraps gridsplit functions from the outside.

The tracer replaces module attributes that callers resolve at call time (for
example ``gridsplit.coordinator.solve_milp``) with thin wrappers, so the
program's own source is untouched. Each wrapper records one span: name,
start, end, parent span and operation id, plus a few counts read off the
call's arguments or result. Spans stay in memory until the run ends.
Wrappers record nothing while no operation is open, so the benchmark's own
correctness checks never show up as program time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("milp", "formation", "oracle", "netmodel", "ems", "coordinator",
          "scenario", "report", "cli", "bench")


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _scenario_bytes(json_path) -> int:
    """Size of a saved scenario: the document plus its two profile tables."""
    p = Path(json_path)
    return _file_bytes(p, p.parent / f"{p.stem}_load.csv",
                       p.parent / f"{p.stem}_pv.csv")


# Counts recorded with a span: (args, kwargs, result) -> dict of numbers.
def _solve_counts(args, kwargs, rep):
    return {"nodes": rep.node_count, "pivots": rep.lp_iterations}


def _build_counts(args, kwargs, prob):
    return {"cols": prob.model.n_variables, "rows": prob.model.n_constraints}


def _schedule_counts(args, kwargs, plan):
    return {"slots": plan.n_slots}


def _dispatch_counts(args, kwargs, win):
    return {"shed": len(win.shed_zones)}


def _run_counts(args, kwargs, run):
    return {"event_ms": [ev.wall_time_s * 1e3 for ev in run.events]}


def _load_counts(args, kwargs, sc):
    return {"bytes": _scenario_bytes(args[0])}


def _save_counts(args, kwargs, _):
    return {"bytes": _scenario_bytes(args[1])}


def _write_counts(args, kwargs, paths):
    return {"bytes": _file_bytes(*paths)}


# (module name, attribute, span name, counter). One function can be bound in
# several modules; every binding a caller looks up is wrapped separately.
WRAPS = (
    ("gridsplit.cli", "main", "cli.main", None),
    ("gridsplit.cli", "load_scenario", "scenario.load_scenario", _load_counts),
    ("gridsplit.coordinator", "run", "coordinator.run", _run_counts),
    ("gridsplit.coordinator", "build_milp", "formation.build_milp", _build_counts),
    ("gridsplit.coordinator", "warm_values_from_topology",
     "formation.warm_values_from_topology", None),
    ("gridsplit.coordinator", "solve_milp", "milp.solve_milp", _solve_counts),
    ("gridsplit.coordinator", "decode", "formation.decode", None),
    ("gridsplit.coordinator", "fixed_topology_solution",
     "formation.fixed_topology_solution", None),
    ("gridsplit.coordinator", "service_order", "ems.service_order", None),
    ("gridsplit.coordinator", "build_schedule", "ems.build_schedule",
     _schedule_counts),
    ("gridsplit.coordinator", "dispatch_window", "ems.dispatch_window",
     _dispatch_counts),
    ("gridsplit.formation", "build_milp", "formation.build_milp", _build_counts),
    ("gridsplit.formation", "decode", "formation.decode", None),
    ("gridsplit.formation", "is_radial_forest", "netmodel.is_radial_forest",
     None),
    ("gridsplit.milp", "solve_milp", "milp.solve_milp", _solve_counts),
    ("gridsplit.oracle", "enumerate_optimal", "oracle.enumerate_optimal", None),
    ("gridsplit.oracle", "build_milp", "formation.build_milp", _build_counts),
    ("gridsplit.oracle", "decode", "formation.decode", None),
    ("gridsplit.oracle", "is_radial_forest", "netmodel.is_radial_forest", None),
    ("gridsplit.oracle", "_solve_lp_arrays", "milp.lp", None),
    ("gridsplit.scenario", "load_scenario", "scenario.load_scenario",
     _load_counts),
    ("gridsplit.scenario", "save_scenario", "scenario.save_scenario",
     _save_counts),
    ("gridsplit.scenario.Scenario", "forecast", "scenario.forecast", None),
    ("gridsplit.report", "write_outputs", "report.write_outputs", _write_counts),
    ("gridsplit.report", "summarize", "report.summarize", None),
    ("gridsplit.report", "compare", "report.compare", None),
    ("gridsplit.report", "summary_from_file", "report.summary_from_file", None),
)


def resolve(dotted: str):
    """Module or module attribute named by a dotted path."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        mod, attr = dotted.rsplit(".", 1)
        return getattr(importlib.import_module(mod), attr)


class Tracer:
    """Span recorder; spans are [name, start, end, parent, op, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """One traced operation, under a ``bench.op`` root span."""
        self.op = op_id
        idx = self._open("bench.op")
        try:
            yield
        finally:
            self._close(idx)
            self.op = None

    def _wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer.spans[idx][5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry of WRAPS."""
        for owner_name, attr, name, counter in WRAPS:
            owner = resolve(owner_name)
            fn = getattr(owner, attr)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, op, counts in self.spans:
                rec = {"name": name, "start": t0, "end": t1, "parent": parent,
                       "op": op}
                if counts:
                    rec.update(counts)
                fh.write(json.dumps(rec) + "\n")


def per_layer(spans: list[list], n_ops: int, overhead_ratio: float) -> dict:
    """Per-layer metrics per traced operation, from the recorded spans."""
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    sums: dict[str, float] = defaultdict(float)
    event_ms: list[float] = []
    root_closed = candidates = priced = 0
    for name, t0, t1, parent, _op, counts in spans:
        dur = t1 - t0
        calls[name] += 1
        incl[name] += dur
        self_t[name] += dur
        if parent is not None:
            self_t[spans[parent][0]] -= dur
            if spans[parent][0] == "oracle.enumerate_optimal":
                candidates += name == "netmodel.is_radial_forest"
                priced += name == "milp.lp"
        if counts:
            for key, val in counts.items():
                if key == "event_ms":
                    event_ms.extend(val)
                else:
                    sums[f"{name}.{key}"] += val
            if name == "milp.solve_milp":
                root_closed += counts["nodes"] == 1

    per_op = max(n_ops, 1)

    def s(name):
        return incl[name] / per_op

    def c(name):
        return calls[name] / per_op

    def ratio(num, den):
        return num / den if den else 0.0

    def pct(values, q):
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

    n_solve = calls["milp.solve_milp"]
    n_build = calls["formation.build_milp"]
    n_enum = calls["oracle.enumerate_optimal"]
    layer_self = defaultdict(float)
    for name, t in self_t.items():
        layer_self[name.split(".", 1)[0]] += t

    m = {
        "milp.solve_milp.calls": c("milp.solve_milp"),
        "milp.solve_milp.s": s("milp.solve_milp"),
        "milp.solve_milp.nodes": sums["milp.solve_milp.nodes"] / per_op,
        "milp.solve_milp.pivots": sums["milp.solve_milp.pivots"] / per_op,
        "milp.pivots_per_s": ratio(sums["milp.solve_milp.pivots"],
                                   incl["milp.solve_milp"]),
        "milp.root_closed_ratio": ratio(root_closed, n_solve),
        "milp.lp.calls": c("milp.lp"),
        "milp.lp.s": s("milp.lp"),
        "formation.build_milp.calls": c("formation.build_milp"),
        "formation.build_milp.s": s("formation.build_milp"),
        "formation.model.cols": ratio(sums["formation.build_milp.cols"], n_build),
        "formation.model.rows": ratio(sums["formation.build_milp.rows"], n_build),
        "formation.decode.s": s("formation.decode"),
        "formation.fixed_topology_solution.s":
            s("formation.fixed_topology_solution"),
        "oracle.enumerate_optimal.s": s("oracle.enumerate_optimal"),
        "oracle.candidates": ratio(candidates, n_enum),
        "oracle.priced_ratio": ratio(priced, candidates),
        "netmodel.is_radial_forest.calls": c("netmodel.is_radial_forest"),
        "netmodel.is_radial_forest.s": s("netmodel.is_radial_forest"),
        "ems.service_order.s": s("ems.service_order"),
        "ems.build_schedule.calls": c("ems.build_schedule"),
        "ems.build_schedule.s": s("ems.build_schedule"),
        "ems.slots_used_ratio": ratio(calls["ems.dispatch_window"],
                                      sums["ems.build_schedule.slots"]),
        "ems.dispatch_window.calls": c("ems.dispatch_window"),
        "ems.dispatch_window.s": s("ems.dispatch_window"),
        "ems.shed_zones": sums["ems.dispatch_window.shed"] / per_op,
        "coordinator.run.s": s("coordinator.run"),
        "coordinator.event_ms_p50": pct(event_ms, 50),
        "coordinator.event_ms_p90": pct(event_ms, 90),
        "scenario.load_scenario.s": s("scenario.load_scenario"),
        "scenario.load_scenario.bytes":
            sums["scenario.load_scenario.bytes"] / per_op,
        "scenario.save_scenario.s": s("scenario.save_scenario"),
        "scenario.save_scenario.bytes":
            sums["scenario.save_scenario.bytes"] / per_op,
        "scenario.forecast.s": s("scenario.forecast"),
        "report.write_outputs.s": s("report.write_outputs"),
        "report.write_outputs.bytes":
            sums["report.write_outputs.bytes"] / per_op,
        "report.summarize.s": s("report.summarize"),
        "report.compare.s": s("report.compare"),
        "cli.main.s": s("cli.main"),
        "trace.overhead_ratio": overhead_ratio,
        # set by ladder-partition, the only workload with a ladder
        "ladder.largest_zones_within_budget": 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / per_op
    return m

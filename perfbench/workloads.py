"""The four benchmark workloads and their correctness checks.

Each workload is a closed loop with one caller: ``round()`` runs a fixed
block of operations back to back, each one starting when the previous one
returns, and reports the time of every operation with the checks' verdicts.
Program functions are always called through their module attribute
(``coordinator.run``, ``milp.solve_milp``, ...) so the tracer's wrappers see
every call.

fixture-48h      the user's study on the bundled fixture
ladder-partition cold partition decisions on a ladder of synthetic feeders
crosscheck       brute-force oracle against branch and bound, snapshot by snapshot
dispatch-week    a week of fixed-topology dispatch with scenario and report I/O
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gridsplit import cli, coordinator, formation, milp, oracle, report, scenario
from gridsplit.coordinator import Timeline
from gridsplit.formation import FormationSnapshot, FormationWeights
from gridsplit.milp import SolveStatus

from feeders import peak_snapshot_window, synthetic_feeders

REL_TOL = 1e-6
DIGESTS = Path(__file__).resolve().parent / "fixture_digests.json"
WEIGHTS = FormationWeights()


def agree(value: float, reference: float) -> bool:
    """Objectives agree within REL_TOL, relative to max(1, |reference|)."""
    return abs(value - reference) <= REL_TOL * max(1.0, abs(reference))


def snapshot_at(sc: scenario.Scenario, s0: int, steps: int) -> FormationSnapshot:
    """Mean load and PV over ``steps`` dispatch steps from step ``s0``."""
    return FormationSnapshot(
        step_index=0,
        load_kw={z: float(v[s0:s0 + steps].mean()) for z, v in sc.load_kw.items()},
        pv_kw={z: float(v[s0:s0 + steps].mean()) for z, v in sc.pv_kw.items()})


def scipy_objective(model: milp.MilpModel) -> float:
    """Independent optimum from HiGHS, offset included.

    ``mip_rel_gap=0`` matters: the offset (shed weight times total load) is
    about 1e7, so the default relative gap accepts clearly worse integer
    points on these models.
    """
    from scipy.optimize import Bounds, LinearConstraint
    from scipy.optimize import milp as scipy_milp

    a, senses, b, lower, upper, cost = model.dense()
    lb = np.array([-np.inf if s == "<=" else v for s, v in zip(senses, b)])
    ub = np.array([np.inf if s == ">=" else v for s, v in zip(senses, b)])
    res = scipy_milp(cost, constraints=LinearConstraint(a, lb, ub),
                     integrality=np.array(model.is_integer, dtype=int),
                     bounds=Bounds(lower, upper),
                     options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise RuntimeError(f"reference solve failed: {res.message}")
    return float(res.fun) + model.offset


@dataclass
class Round:
    """Timings and verdicts of one block of operations."""
    op_s: list[float] = field(default_factory=list)
    core_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Workload:
    """Base: subclasses take ``(seed, tmp)``, generate their inputs in
    ``__init__`` and time them in ``round``."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer = None
        self._op_id = 0

    def operation(self):
        """Tracer context for one operation, or a no-op when untraced."""
        if self.tracer is None:
            return contextlib.nullcontext()
        self._op_id += 1
        return self.tracer.operation(self._op_id)

    def _fail(self, r: Round, what: str) -> None:
        r.failed += 1
        print(f"{self.name}: {what}", file=sys.stderr)

    def _crash(self, r: Round) -> None:
        r.failed += 1
        traceback.print_exc(file=sys.stderr)

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def finish(self) -> Round:
        """Deferred and seeded checks, run after timing has stopped."""
        return Round()

    def figures(self, rounds: list[Round]) -> dict[str, float]:
        """Workload figures under their own names, for the ``#`` line."""
        return {}

    def layer_figures(self, rounds: list[Round]) -> dict[str, float]:
        """Per-layer figures derived by the workload itself."""
        return {}


# ---------------------------------------------------------------------------
# fixture-48h
# ---------------------------------------------------------------------------

FIXTURE_SWITCHES_CLOSED = 8


def _tree_digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


class Fixture48h(Workload):
    """Flexible run in-process, then the same study through the CLI."""

    name = "fixture-48h"

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed)
        self.sc = scenario.fixture_two_feeder()
        self.expected = json.loads(DIGESTS.read_text())
        self.out = tmp / "fixture"

    def warm_up(self) -> None:
        coordinator.run(self.sc, "fixed")

    def study(self) -> tuple[float, float, object, list[int], str]:
        """(study s, flexible-run s, the run, CLI exit codes, compare table)."""
        flex_dir, fixed_dir = self.out / "flex", self.out / "fixed"
        buf = io.StringIO()
        t0 = time.perf_counter()
        run = coordinator.run(self.sc, "flexible")
        t1 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            codes = [
                cli.main(["run", "--scenario", "builtin:two-feeder",
                          "--out", str(flex_dir)]),
                cli.main(["run", "--scenario", "builtin:two-feeder",
                          "--mode", "fixed", "--out", str(fixed_dir)]),
            ]
            mark = buf.tell()
            codes.append(cli.main(["compare", "--a", str(fixed_dir),
                                   "--b", str(flex_dir)]))
        t2 = time.perf_counter()
        table = buf.getvalue()[mark:].replace(str(self.out), "<out>")
        return t2 - t0, t1 - t0, run, codes, table

    def outputs(self, run, table: str) -> dict:
        """What the recorded digests pin: files, compare table, objectives."""
        digests = _tree_digests(self.out)
        digests["compare.txt"] = hashlib.sha256(table.encode()).hexdigest()
        return {"files": digests,
                "flex_objectives": [ev.solution.objective_value
                                    for ev in run.events]}

    def check(self, run, codes: list[int], table: str) -> str | None:
        """None when the study is correct, else the reason it is not."""
        if any(codes):
            return f"CLI exit codes {codes}"
        for ev in run.events:
            closed = sum(ev.solution.switch_status.values())
            if closed != FIXTURE_SWITCHES_CLOSED:
                return f"event at t={ev.time_min} closes {closed} switches"
        got = self.outputs(run, table)
        want = self.expected["flex_objectives"]
        if len(got["flex_objectives"]) != len(want) or not all(
                agree(a, b) for a, b in zip(got["flex_objectives"], want)):
            return "flexible-run objectives differ from the recorded ones"
        if got["files"] != self.expected["files"]:
            bad = sorted(k for k in set(got["files"]) | set(self.expected["files"])
                         if got["files"].get(k) != self.expected["files"].get(k))
            return f"output digests differ: {bad}"
        return None

    def round(self) -> Round:
        r = Round(attempted=1)
        with self.operation():
            t0 = time.perf_counter()
            try:
                study_s, flex_s, run, codes, table = self.study()
            except Exception:
                r.op_s.append(time.perf_counter() - t0)
                r.core_s.append(r.op_s[-1])
                self._crash(r)
                return r
        r.op_s.append(study_s)
        r.core_s.append(flex_s)
        why = self.check(run, codes, table)
        if why:
            self._fail(r, why)
        return r

    def figures(self, rounds):
        return {"study_s": statistics.median(x for r in rounds for x in r.op_s),
                "flex_run_s": statistics.median(x for r in rounds
                                                for x in r.core_s)}


# ---------------------------------------------------------------------------
# ladder-partition
# ---------------------------------------------------------------------------

# (feeders, zones per feeder). Every rung stays at or below 12 zones so one
# pass takes about 4 s and a run times several passes; 3x3 is the deepest
# tree (about 45 nodes).
RUNGS = ((2, 3), (2, 4), (3, 3), (2, 5), (2, 6))
# Generator seed of the instance on each rung. It is fixed, not drawn from
# the run seed: branch-and-bound cost varies several-fold between draws, so
# a seeded ladder would measure the draw instead of the solver.
LADDER_SEED = 0
SNAPSHOT_STEPS = 36          # a 3-h formation window at 5-min steps
BUDGET_S = 1.0               # "largest feeder solved within a budget"
PROBE_RUNG = (2, 4)


@dataclass
class Instance:
    label: str
    zones: int
    graph: object
    snapshot: FormationSnapshot


def ladder_instance(n_feeders: int, zones_per_feeder: int, seed: int) -> Instance:
    sc = synthetic_feeders(n_feeders, zones_per_feeder, seed, policies=True)
    snap = snapshot_at(sc, peak_snapshot_window(sc, seed), SNAPSHOT_STEPS)
    return Instance(f"{n_feeders}x{zones_per_feeder}", n_feeders * zones_per_feeder,
                    sc.graph, snap)


def decide(inst: Instance):
    """One cold partition decision: build, solve, decode."""
    prob = formation.build_milp(inst.graph, inst.snapshot, WEIGHTS)
    rep = milp.solve_milp(prob.model)
    sol = formation.decode(prob, rep)
    return prob, rep, sol


class LadderPartition(Workload):
    """One pass solves the instance of every rung, in a seeded order."""

    name = "ladder-partition"

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed)
        self.instances = [ladder_instance(nf, k, LADDER_SEED) for nf, k in RUNGS]
        self.order = [int(i) for i in
                      np.random.default_rng(seed).permutation(len(self.instances))]
        self.models: dict[int, milp.MilpModel] = {}
        self.results: list[tuple[int, float]] = []
        self.times: dict[int, list[float]] = {i: [] for i in self.order}

    def warm_up(self) -> None:
        decide(self.instances[0])

    def round(self) -> Round:
        r = Round()
        for i in self.order:
            r.attempted += 1
            with self.operation():
                t0 = time.perf_counter()
                try:
                    prob, rep, sol = decide(self.instances[i])
                except Exception:
                    prob = None
                    self._crash(r)
                dt = time.perf_counter() - t0
            r.core_s.append(dt)
            self.times[i].append(dt)
            if prob is None:
                continue
            self.models.setdefault(i, prob.model)
            if rep.status is not SolveStatus.OPTIMAL:
                self._fail(r, f"{self.instances[i].label}: {rep.status.value}")
                continue
            self.results.append((i, sol.objective_value))
        r.op_s.append(sum(r.core_s))
        return r

    def finish(self) -> Round:
        """Compare every decision with HiGHS, plus one seeded instance."""
        r = Round()
        refs = {i: scipy_objective(m) for i, m in self.models.items()}
        for i, obj in self.results:
            if not agree(obj, refs[i]):
                self._fail(r, f"{self.instances[i].label}: objective {obj!r} "
                              f"vs reference {refs[i]!r}")
        probe = ladder_instance(*PROBE_RUNG, 1000 + self.seed)
        r.attempted += 1
        try:
            prob, rep, sol = decide(probe)
        except Exception:
            self._crash(r)
            return r
        ref = scipy_objective(prob.model)
        if rep.status is not SolveStatus.OPTIMAL or not agree(sol.objective_value, ref):
            self._fail(r, f"seeded {probe.label}: {sol.objective_value!r} vs {ref!r}")
        return r

    def rung_medians(self) -> dict[str, tuple[int, float]]:
        by_rung: dict[str, list[float]] = {}
        for i, ts in self.times.items():
            by_rung.setdefault(self.instances[i].label, []).extend(ts)
        zones = {inst.label: inst.zones for inst in self.instances}
        return {label: (zones[label], statistics.median(ts))
                for label, ts in by_rung.items() if ts}

    def largest_within_budget(self) -> int:
        """Most zones on a rung whose median decision meets BUDGET_S."""
        return max((z for z, t in self.rung_medians().values() if t <= BUDGET_S),
                   default=0)

    def figures(self, rounds):
        out = {"ladder_total_s": statistics.median(x for r in rounds for x in r.op_s),
               "decision_s_p50": statistics.median(x for r in rounds
                                                   for x in r.core_s),
               "largest_zones_within_budget": self.largest_within_budget(),
               "budget_s": BUDGET_S}
        for label, (_, t) in sorted(self.rung_medians().items()):
            out[f"rung_{label}_s"] = t
        return out

    def layer_figures(self, rounds):
        return {"ladder.largest_zones_within_budget":
                float(self.largest_within_budget())}


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------

TIE_FAULT = 9                # the fixture's 5-6 tie, out from noon of day one
POOL_SIZE = 12
# The timed pool is one fixed draw, for the same reason as LADDER_SEED; the
# run seed orders it and draws the extra snapshots checked after timing.
POOL_SEED = 2311
PROBE_SNAPSHOTS = 2


def random_snapshots(g, rng: np.random.Generator, n: int) -> list[FormationSnapshot]:
    """Random load and PV levels as in acceptance criterion 1."""
    peaks = {node.id: node.peak_load_kw for node in g.nodes}
    return [FormationSnapshot(
        step_index=i,
        load_kw={z: float(rng.uniform(0.5, 1.5) * p) for z, p in peaks.items()},
        pv_kw={z: float(rng.uniform(0.0, 400.0)) for z in peaks})
        for i in range(n)]


class Crosscheck(Workload):
    """Oracle and cold branch and bound must agree on each snapshot.

    One operation checks a snapshot twice: on the fixture graph and with tie
    9 faulted as well. The faulted graph has fewer edges and costs about a
    third as much, so timing the two together keeps the per-operation times
    in one cluster and their median meaningful.
    """

    name = "crosscheck"

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed)
        g = scenario.fixture_two_feeder().graph
        self.graphs = (g, g.with_faulted(g.faulted_edges | {TIE_FAULT}))
        self.pool = random_snapshots(g, np.random.default_rng(POOL_SEED), POOL_SIZE)
        self.order = [int(i) for i in np.random.default_rng(seed).permutation(POOL_SIZE)]

    def warm_up(self) -> None:
        self.pair(self.graphs[1], self.pool[0])

    @staticmethod
    def pair(g, snap):
        """Oracle then cold search: (total s, oracle s, oracle obj, search obj)."""
        t0 = time.perf_counter()
        by_oracle = oracle.enumerate_optimal(g, snap, WEIGHTS)
        t1 = time.perf_counter()
        prob = formation.build_milp(g, snap, WEIGHTS)
        by_search = formation.decode(prob, milp.solve_milp(prob.model))
        t2 = time.perf_counter()
        return t2 - t0, t1 - t0, by_oracle.objective_value, by_search.objective_value

    def _checked(self, r: Round, snap, timed: bool) -> None:
        r.attempted += 1
        op_s = oracle_s = 0.0
        with self.operation() if timed else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                results = [self.pair(g, snap) for g in self.graphs]
            except Exception:
                results = None
                self._crash(r)
            if results is None:
                op_s = oracle_s = time.perf_counter() - t0
            else:
                op_s = sum(x[0] for x in results)
                oracle_s = sum(x[1] for x in results)
        if timed:
            r.op_s.append(op_s)
            r.core_s.append(oracle_s)
        for g, (_, _, o, b) in zip(self.graphs, results or ()):
            if not agree(b, o):
                self._fail(r, f"snapshot {snap.step_index}, faulted "
                              f"{sorted(g.faulted_edges)}: branch and bound "
                              f"{b!r} vs oracle {o!r}")
                break

    def round(self) -> Round:
        r = Round()
        for i in self.order:
            self._checked(r, self.pool[i], timed=True)
        return r

    def finish(self) -> Round:
        r = Round()
        for snap in random_snapshots(self.graphs[0], np.random.default_rng(self.seed),
                                     PROBE_SNAPSHOTS):
            self._checked(r, snap, timed=False)
        return r

    def figures(self, rounds):
        return {"crosscheck_snapshot_s_p50":
                statistics.median(x for r in rounds for x in r.op_s),
                "oracle_s_p50": statistics.median(x for r in rounds
                                                  for x in r.core_s)}


# ---------------------------------------------------------------------------
# dispatch-week
# ---------------------------------------------------------------------------

WEEK_FEEDERS, WEEK_ZONES = 6, 6
WEEK_DAYS = 7
BALANCE_TOL = 1e-6           # kW, served + unserved against actual load
SOC_TOL = 1e-9


class DispatchWeek(Workload):
    """Save, load, run fixed, write outputs with plots: no solver involved."""

    name = "dispatch-week"

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed)
        self.sc = synthetic_feeders(WEEK_FEEDERS, WEEK_ZONES, seed, days=WEEK_DAYS)
        self.timeline = Timeline(total_minutes=WEEK_DAYS * 1440)
        self.doc = tmp / "week.json"
        self.out = tmp / "week-out"

    def warm_up(self) -> None:
        coordinator.run(self.sc, "fixed",
                        timeline=Timeline(total_minutes=1440))

    def check(self, loaded, run) -> str | None:
        for z in self.sc.load_kw:
            if not (np.array_equal(loaded.load_kw[z], self.sc.load_kw[z])
                    and np.array_equal(loaded.pv_kw[z], self.sc.pv_kw[z])):
                return f"zone {z} profile changed in the save/load round trip"
        n = run.n_steps
        actual = np.column_stack([self.sc.load_kw[z][:n] for z in run.zone_ids])
        gap = np.abs(run.served_kw + run.unserved_kw - actual).max()
        if gap > BALANCE_TOL:
            return f"served + unserved misses the actual load by {gap} kW"
        for c, j in enumerate(run.gfm_ids):
            cap = self.sc.graph.resource_at(j).battery_energy_kwh
            soc = run.soc_kwh[:, c]
            if soc.min() < -SOC_TOL or soc.max() > cap + SOC_TOL:
                return f"state of charge at zone {j} leaves [0, {cap}]"
        return None

    def round(self) -> Round:
        r = Round(attempted=1)
        with self.operation():
            t0 = time.perf_counter()
            try:
                scenario.save_scenario(self.sc, self.doc)
                loaded = scenario.load_scenario(self.doc)
                t1 = time.perf_counter()
                run = coordinator.run(loaded, "fixed", timeline=self.timeline)
                t2 = time.perf_counter()
                report.write_outputs(run, self.out, emit_plots=True)
                t3 = time.perf_counter()
            except Exception:
                r.op_s.append(time.perf_counter() - t0)
                r.core_s.append(r.op_s[-1])
                self._crash(r)
                return r
        r.op_s.append(t3 - t0)
        r.core_s.append(t2 - t1)
        why = self.check(loaded, run)
        if why:
            self._fail(r, why)
        return r

    def figures(self, rounds):
        run_s = statistics.median(x for r in rounds for x in r.core_s)
        zone_steps = len(self.sc.load_kw) * self.timeline.n_steps
        return {"dispatch_study_s": statistics.median(x for r in rounds
                                                      for x in r.op_s),
                "run_s": run_s, "zone_steps_per_s": zone_steps / run_s}


WORKLOADS = {w.name: w for w in (Fixture48h, LadderPartition, Crosscheck,
                                 DispatchWeek)}

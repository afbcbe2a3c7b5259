"""Rolling-horizon restoration loop.

Three nested clocks: a partition decision every three hours, a commitment
schedule rebuilt at the same boundary on half-hour slots, and five-minute
dispatch against the true profiles. Storage state follows the grid-forming
node it belongs to, whatever zones come or go around it.

A run has two halves. ``formation_events`` takes the partition decisions:
no decision reads a storage state, so the whole partition sequence is a
function of the scenario, the mode, the timeline and the weights. The graph
changes only when a fault starts or clears, so it does the graph-level work
once per fault set and reuses it at each later event of that set: the
faulted graph and the partition model (flexible mode) or the default
topology (fixed mode). An event writes only its own data: the model's
snapshot bounds, switch-change costs and offset, or the default topology's
served load and price. ``run`` then dispatches the events: it keeps the
storage states and makes each distinct partition's service orders once per
run.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .ems import (DISPATCH_STEP_MINUTES, SLOT_MINUTES, MicrogridState,
                  PartitionOrder, build_schedule, dispatch_window,
                  service_order)
from .formation import (DecodeError, FormationProblem, FormationSnapshot,
                        FormationSolution, FormationWeights,
                        InfeasibleTopology, build_milp, decode,
                        fixed_topology_solution, served_in_full,
                        warm_values_from_topology, with_event)
from .milp import SolveReport, SolverError, SolveStatus, solve_milp
from .scenario import Scenario, ValidationError

MODES = ("flexible", "fixed")
FORMATION_STEP_MINUTES = 180   # partition clock, a whole number of slots


@dataclass(frozen=True)
class Timeline:
    """Length of a run, in minutes: one partition per formation step, each
    planned in schedule slots and dispatched in steps. The three clock
    lengths are fixed and read-only here.
    """
    total_minutes: int = 2880
    formation_step_minutes: ClassVar[int] = FORMATION_STEP_MINUTES
    schedule_slot_minutes: ClassVar[int] = SLOT_MINUTES
    dispatch_step_minutes: ClassVar[int] = DISPATCH_STEP_MINUTES

    def __post_init__(self):
        if type(self.total_minutes) is not int:
            raise ValueError("total horizon must be an int number of minutes, "
                             f"not {self.total_minutes!r}")
        if self.total_minutes <= 0:
            raise ValueError("total horizon must be positive")
        if self.total_minutes % FORMATION_STEP_MINUTES:
            raise ValueError("total horizon must be a multiple of the formation step")

    @property
    def n_steps(self) -> int:
        return self.total_minutes // DISPATCH_STEP_MINUTES

    @property
    def n_formation_events(self) -> int:
        return self.total_minutes // FORMATION_STEP_MINUTES


@dataclass(frozen=True)
class TopologyDiff:
    """Zone moves and switch toggles between two partition solutions."""
    moved: tuple[tuple[int, int | None, int | None], ...]
    toggled: tuple[tuple[int, bool, bool], ...]


def diff_topologies(old: FormationSolution | None,
                    new: FormationSolution) -> TopologyDiff:
    """Changes the field crews would act on; empty diff when old is None."""
    if old is None:
        return TopologyDiff((), ())
    moved = tuple((z, old.assignment.get(z), a)
                  for z, a in sorted(new.assignment.items())
                  if old.assignment.get(z) != a)
    was, now = old.closed, new.closed
    toggled = tuple((eid, eid in was, eid in now) for eid in sorted(was ^ now))
    return TopologyDiff(moved, toggled)


@dataclass(frozen=True)
class FormationEvent:
    time_min: int
    solution: FormationSolution
    diff: TopologyDiff
    faulted_edges: tuple[int, ...]
    node_count: int = 0
    lp_iterations: int = 0
    wall_time_s: float = 0.0


@dataclass
class RestorationRun:
    """Full trace of one 48-hour restoration simulation."""
    scenario: Scenario
    mode: str
    timeline: Timeline
    zone_ids: tuple[int, ...]
    gfm_ids: tuple[int, ...]
    time_min: np.ndarray
    served_kw: np.ndarray        # (steps, zones)
    unserved_kw: np.ndarray
    pv_potential_kw: np.ndarray
    pv_used_kw: np.ndarray
    committed: np.ndarray        # bool (steps, zones)
    energized: np.ndarray
    assignment: np.ndarray       # int (steps, zones), -1 when unassigned
    battery_kw: np.ndarray       # (steps, gfms)
    diesel_kw: np.ndarray
    soc_kwh: np.ndarray
    fuel_kwh: np.ndarray
    events: tuple[FormationEvent, ...]
    wall_time_s: float = 0.0

    @property
    def n_steps(self) -> int:
        return len(self.time_min)


def _profiles(table: dict[int, np.ndarray], zone_ids: tuple[int, ...],
              n_steps: int) -> np.ndarray:
    """(steps x zones) matrix of the first ``n_steps`` of each zone's profile."""
    return np.column_stack([table[z][:n_steps] for z in zone_ids])


def _faults(scenario: Scenario, event_index: int) -> frozenset[int]:
    """The edges faulted at one formation event."""
    t = event_index * FORMATION_STEP_MINUTES
    return scenario.graph.faulted_edges | scenario.faulted_at(t)


def _snapshot(event_index: int, zone_ids: tuple[int, ...],
              forecast: tuple[dict[int, np.ndarray], dict[int, np.ndarray]],
              ) -> FormationSnapshot:
    """Forecast-mean snapshot of one formation event. Each zone's steps are
    a row of a (zones x steps) matrix: a mean along that contiguous last
    axis sums them as the mean of the zone's own profile slice does, bit for
    bit."""
    n = FORMATION_STEP_MINUTES // DISPATCH_STEP_MINUTES
    s0 = event_index * n
    load, pv = (dict(zip(zone_ids, np.array(
        [t[z][s0:s0 + n] for z in zone_ids]).mean(axis=1).tolist()))
        for t in forecast)
    return FormationSnapshot(step_index=event_index, load_kw=load, pv_kw=pv)


def _check_scenario(scenario: Scenario, tl: Timeline) -> None:
    """The scenario must be sampled at the dispatch step and cover the run."""
    if scenario.step_minutes != DISPATCH_STEP_MINUTES:
        raise ValidationError(
            f"scenario step {scenario.step_minutes} min does not match the "
            f"dispatch step {DISPATCH_STEP_MINUTES} min")
    if scenario.horizon_minutes < tl.total_minutes:
        raise ValidationError("scenario profiles are shorter than the timeline")


def formation_inputs(scenario: Scenario, timeline: Timeline | None,
                     event_index: int):
    """Graph and demand snapshot the coordinator would use at one event.

    Exposed so an external caller (the CLI, a test harness) can reproduce a
    single partitioning decision without running the whole horizon. Raises
    ``ValidationError`` on a scenario that ``run`` rejects.
    """
    tl = timeline or Timeline()
    _check_scenario(scenario, tl)
    if type(event_index) is not int:
        raise ValueError(f"event index must be an int, not {event_index!r}")
    if not 0 <= event_index < tl.n_formation_events:
        raise ValueError(
            f"event index {event_index} outside 0..{tl.n_formation_events - 1}")
    zone_ids = tuple(sorted(n.id for n in scenario.graph.nodes))
    return (scenario.graph.with_faulted(_faults(scenario, event_index)),
            _snapshot(event_index, zone_ids, scenario.forecast()))


def formation_events(scenario: Scenario, mode: str = "flexible",
                     timeline: Timeline | None = None,
                     weights: FormationWeights | None = None,
                     ) -> Iterator[tuple[FormationEvent,
                                         FormationProblem | None,
                                         SolveReport | None]]:
    """The formation half of ``run``: one partition decision per formation
    event, yielded as ``(FormationEvent, FormationProblem, SolveReport)``.

    ``flexible`` solves each event's partition model warm from the previous
    partition and the previous event's basis; ``fixed`` prices the default
    topology, and yields None for the problem and the report. No decision
    reads the energy management, so the events are a function of the
    scenario, the mode, the timeline and the weights alone.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    tl = timeline or Timeline()
    wts = weights or FormationWeights()
    _check_scenario(scenario, tl)
    zone_ids = tuple(sorted(n.id for n in scenario.graph.nodes))
    fc = scenario.forecast()
    # fault set -> its graph and its model (flexible) or default (fixed)
    built: dict[frozenset[int], tuple] = {}
    prev = basis = None

    for k in range(tl.n_formation_events):
        t = k * FORMATION_STEP_MINUTES
        snap = _snapshot(k, zone_ids, fc)
        faults = _faults(scenario, k)
        g_t, base = built.get(faults) \
            or (scenario.graph.with_faulted(faults), None)

        t0 = time.perf_counter()
        prob = rep = None
        if mode == "fixed":
            if base is None:
                base = fixed_topology_solution(g_t)
            sol = served_in_full(g_t, base, snap, wts)
        else:
            if base is None:
                prob = base = build_milp(g_t, snap, wts, prev=prev)
            else:
                prob = with_event(base, snap, prev)
            try:
                warm = None if prev is None else warm_values_from_topology(
                    prob, prev.closed, prev.assignment)
                rep = solve_milp(prob.model, warm_integer_values=warm,
                                 warm_basis=basis)
                if rep.status is SolveStatus.ITERATION_LIMIT:
                    raise SolverError(
                        f"partition solve of event {k} hit the pivot budget")
                if rep.status is SolveStatus.INFEASIBLE:
                    raise InfeasibleTopology(
                        f"partition model of event {k} has no feasible point")
                sol = decode(prob, rep)
            except (SolverError, DecodeError) as exc:
                raise type(exc)(f"t={t} min: {exc}") from exc
            basis = rep.basis
        wall = time.perf_counter() - t0
        built[faults] = g_t, base

        yield FormationEvent(
            time_min=t, solution=sol, diff=diff_topologies(prev, sol),
            faulted_edges=tuple(sorted(g_t.faulted_edges)),
            node_count=rep.node_count if rep else 0,
            lp_iterations=rep.lp_iterations if rep else 0,
            wall_time_s=wall), prob, rep
        prev = sol


def run(scenario: Scenario, mode: str = "flexible",
        timeline: Timeline | None = None,
        weights: FormationWeights | None = None) -> RestorationRun:
    """Simulate one restoration horizon.

    ``flexible`` re-partitions at every formation boundary; ``fixed`` holds
    the normally-closed topology and only the storage scheduling runs. Both
    modes share the same forecasts, dispatch loop and accounting, so their
    outputs are directly comparable. The partitions come from
    ``formation_events``; this pass dispatches them.
    """
    t_start = time.perf_counter()
    tl = timeline or Timeline()
    events = tuple(ev for ev, _, _ in
                   formation_events(scenario, mode, tl, weights))

    g0 = scenario.graph
    zone_ids = tuple(sorted(n.id for n in g0.nodes))
    gfm_ids = tuple(g0.gfm_nodes)
    gcol = {j: c for c, j in enumerate(gfm_ids)}
    n_steps = tl.n_steps
    slots_per_event = FORMATION_STEP_MINUTES // SLOT_MINUTES
    steps_per_event = FORMATION_STEP_MINUTES // DISPATCH_STEP_MINUTES

    # (steps x zones), like the run's arrays: pv is the run's PV potential
    load = _profiles(scenario.load_kw, zone_ids, n_steps)
    pv = _profiles(scenario.pv_kw, zone_ids, n_steps)
    # (slots x zones) forecast slot means
    fc_load, fc_pv = (_profiles(t, zone_ids, n_steps).reshape(
        -1, SLOT_MINUTES // DISPATCH_STEP_MINUTES, len(zone_ids)).mean(axis=1)
        for t in scenario.forecast())

    # filled one event window at a time: per zone, and per grid-forming zone
    # on the columns of the window's microgrids
    per_zone = {name: np.zeros((n_steps, len(zone_ids)), dtype=dtype)
                for name, dtype in (("served_kw", float),
                                    ("unserved_kw", float),
                                    ("pv_used_kw", float),
                                    ("committed", bool), ("energized", bool))}
    per_gfm = {name: np.zeros((n_steps, len(gfm_ids)))
               for name in ("battery_kw", "diesel_kw", "soc_kwh", "fuel_kwh")}
    assign_arr = np.full((n_steps, len(zone_ids)), -1, dtype=int)

    states = {j: MicrogridState(r, r.battery_soc0 * r.battery_energy_kwh,
                                r.diesel_fuel_kwh)
              for j, r in zip(gfm_ids, map(g0.resource_at, gfm_ids))}
    # (closed switches, (anchor, tree) pairs) -> that partition's orders; a
    # closed switch is never faulted, so they hold under every fault set
    partitions: dict[tuple[frozenset[int], tuple], PartitionOrder] = {}

    for ev in events:
        sol = ev.solution
        s0 = ev.time_min // DISPATCH_STEP_MINUTES
        s1 = s0 + steps_per_event
        blocked = frozenset(z for z, _old, new in ev.diff.moved
                            if new is not None)

        anchors = [sol.assignment[z] for z in zone_ids]
        assign_arr[s0:s1] = [-1 if a is None else a for a in anchors]

        key = (sol.closed, tuple(sol.trees.items()))
        part = partitions.get(key)
        if part is None:
            part = partitions[key] = PartitionOrder(zone_ids, tuple(
                service_order(g0, tree, anchor, sol.closed)
                for anchor, tree in sol.trees.items()))
        q0 = ev.time_min // SLOT_MINUTES
        q1 = q0 + slots_per_event
        mg_states = [states[o.gfm_node_id] for o in part.orders]
        plans = [build_schedule(st, o, load_sums, pv_sums)
                 for st, o, load_sums, pv_sums in zip(
                     mg_states, part.orders,
                     *part.running_sums(fc_load[q0:q1], fc_pv[q0:q1]))]
        win = dispatch_window(part, mg_states, plans, load[s0:s1], pv[s0:s1],
                              blocked_first_step=blocked)
        for name, a in per_zone.items():
            a[s0:s1] = getattr(win, name)
        gc = [gcol[o.gfm_node_id] for o in part.orders]
        for name, a in per_gfm.items():
            a[s0:s1, gc] = getattr(win, name)

    return RestorationRun(
        scenario=scenario, mode=mode, timeline=tl, zone_ids=zone_ids,
        gfm_ids=gfm_ids,
        time_min=np.arange(n_steps) * DISPATCH_STEP_MINUTES,
        pv_potential_kw=pv, assignment=assign_arr, events=events,
        wall_time_s=time.perf_counter() - t_start, **per_zone, **per_gfm)

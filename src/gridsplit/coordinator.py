"""Rolling-horizon restoration loop.

Three nested clocks: a partition decision every few hours, a commitment
schedule rebuilt at the same boundary on half-hour slots, and five-minute
dispatch against the true profiles. Storage state follows the grid-forming
node it belongs to, whatever zones come or go around it.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass

import numpy as np

from .ems import MicrogridState, build_schedule, dispatch_window, service_order
from .formation import (FormationProblem, FormationSnapshot,
                        FormationSolution, FormationWeights,
                        InfeasibleTopology, build_milp, decode,
                        fixed_topology_solution, warm_values_from_topology)
from .milp import SolveReport, SolverError, SolveStatus, solve_milp
from .netmodel import ZoneGraph
from .scenario import Scenario, ValidationError

MODES = ("flexible", "fixed")


@dataclass(frozen=True)
class Timeline:
    """Clock structure of a run, in minutes: one partition per formation
    step, each planned in schedule slots and dispatched in steps.
    """
    total_minutes: int = 2880
    formation_step_minutes: int = 180
    schedule_slot_minutes: int = 30
    dispatch_step_minutes: int = 5

    def __post_init__(self):
        if any(v <= 0 for v in astuple(self)):
            raise ValueError("timeline entries must be positive")
        if self.schedule_slot_minutes % self.dispatch_step_minutes:
            raise ValueError("slot length must be a multiple of the dispatch step")
        if self.formation_step_minutes % self.schedule_slot_minutes:
            raise ValueError("formation step must be a multiple of the slot")
        if self.total_minutes % self.formation_step_minutes:
            raise ValueError("total horizon must be a multiple of the formation step")

    @property
    def n_steps(self) -> int:
        return self.total_minutes // self.dispatch_step_minutes

    @property
    def n_formation_events(self) -> int:
        return self.total_minutes // self.formation_step_minutes


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


def _slot_means(table: dict[int, np.ndarray], s0: int, s1: int,
                n_slots: int) -> dict[int, np.ndarray]:
    """Per-zone means of steps ``s0:s1`` over ``n_slots`` equal slots."""
    return {z: a[s0:s1].reshape(n_slots, -1).mean(axis=1)
            for z, a in table.items()}


def _event_inputs(scenario: Scenario, tl: Timeline, event_index: int,
                  forecast: tuple[dict[int, np.ndarray], dict[int, np.ndarray]]):
    """Faulted graph and forecast-mean snapshot of one formation event."""
    fc_load, fc_pv = forecast
    t = event_index * tl.formation_step_minutes
    g0 = scenario.graph
    g_t = g0.with_faulted(g0.faulted_edges | scenario.faulted_at(t))
    s0 = t // tl.dispatch_step_minutes
    s1 = s0 + tl.formation_step_minutes // tl.dispatch_step_minutes
    zones = sorted(fc_load)
    snap = FormationSnapshot(
        step_index=event_index,
        load_kw={z: float(fc_load[z][s0:s1].mean()) for z in zones},
        pv_kw={z: float(fc_pv[z][s0:s1].mean()) for z in zones})
    return g_t, snap


def _check_scenario(scenario: Scenario, tl: Timeline) -> None:
    """The scenario must be sampled at the dispatch step and cover the run."""
    if scenario.step_minutes != tl.dispatch_step_minutes:
        raise ValidationError(
            f"scenario step {scenario.step_minutes} min does not match the "
            f"dispatch step {tl.dispatch_step_minutes} min")
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
    if not 0 <= event_index < tl.n_formation_events:
        raise ValueError(
            f"event index {event_index} outside 0..{tl.n_formation_events - 1}")
    return _event_inputs(scenario, tl, event_index, scenario.forecast())


def solve_partition(g_t: ZoneGraph, snap: FormationSnapshot,
                    prev: FormationSolution | None, weights: FormationWeights,
                    ) -> tuple[FormationProblem, SolveReport, FormationSolution]:
    """Build, warm-start from ``prev``, solve and decode one partition."""
    prob = build_milp(g_t, snap, weights, prev=prev)
    warm = None
    if prev is not None:
        warm = warm_values_from_topology(prob, prev.closed, prev.assignment)
    rep = solve_milp(prob.model, warm_integer_values=warm)
    if rep.status is SolveStatus.ITERATION_LIMIT:
        raise SolverError(
            f"partition solve of event {snap.step_index} hit the pivot budget")
    if rep.status is SolveStatus.INFEASIBLE:
        raise InfeasibleTopology(
            f"partition model of event {snap.step_index} has no feasible point")
    return prob, rep, decode(prob, rep)


def run(scenario: Scenario, mode: str = "flexible",
        timeline: Timeline | None = None,
        weights: FormationWeights | None = None) -> RestorationRun:
    """Simulate one restoration horizon.

    ``flexible`` re-partitions at every formation boundary; ``fixed`` holds
    the normally-closed topology and only the storage scheduling runs. Both
    modes share the same forecasts, dispatch loop and accounting, so their
    outputs are directly comparable.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    tl = timeline or Timeline()
    wts = weights or FormationWeights()
    _check_scenario(scenario, tl)

    t_start = time.perf_counter()
    g0 = scenario.graph
    zone_ids = tuple(sorted(n.id for n in g0.nodes))
    gfm_ids = tuple(g0.gfm_nodes)
    zcol = {z: c for c, z in enumerate(zone_ids)}
    gcol = {j: c for c, j in enumerate(gfm_ids)}
    n_steps = tl.n_steps
    steps_per_slot = tl.schedule_slot_minutes // tl.dispatch_step_minutes
    slots_per_event = tl.formation_step_minutes // tl.schedule_slot_minutes

    fc_load, fc_pv = scenario.forecast()

    served = np.zeros((n_steps, len(zone_ids)))
    unserved = np.zeros_like(served)
    pv_pot = np.zeros_like(served)
    pv_used = np.zeros_like(served)
    committed = np.zeros(served.shape, dtype=bool)
    energized = np.zeros(served.shape, dtype=bool)
    assign_arr = np.full(served.shape, -1, dtype=int)
    battery = np.zeros((n_steps, len(gfm_ids)))
    diesel = np.zeros_like(battery)
    soc = np.zeros_like(battery)
    fuel = np.zeros_like(battery)
    for z in zone_ids:
        pv_pot[:, zcol[z]] = scenario.pv_kw[z][:n_steps]

    states = {}
    for j in gfm_ids:
        r = g0.resource_at(j)
        states[j] = MicrogridState(r, r.battery_soc0 * r.battery_energy_kwh,
                                   r.diesel_fuel_kwh)

    events: list[FormationEvent] = []
    prev_sol: FormationSolution | None = None

    for k in range(tl.n_formation_events):
        t = k * tl.formation_step_minutes
        g_t, snap = _event_inputs(scenario, tl, k, (fc_load, fc_pv))
        s0 = t // tl.dispatch_step_minutes
        s1 = s0 + slots_per_event * steps_per_slot

        t0 = time.perf_counter()
        if mode == "fixed":
            sol = fixed_topology_solution(g_t, snap, wts)
            nodes = lp_iters = 0
        else:
            try:
                _prob, rep, sol = solve_partition(g_t, snap, prev_sol, wts)
            except SolverError as exc:
                raise SolverError(f"t={t} min: {exc}") from exc
            nodes, lp_iters = rep.node_count, rep.lp_iterations
        wall = time.perf_counter() - t0

        diff = diff_topologies(prev_sol, sol)
        events.append(FormationEvent(
            time_min=t, solution=sol, diff=diff,
            faulted_edges=tuple(sorted(g_t.faulted_edges)),
            node_count=nodes, lp_iterations=lp_iters, wall_time_s=wall))
        blocked = frozenset(z for z, _old, new in diff.moved
                            if new is not None)

        fl = _slot_means(fc_load, s0, s1, slots_per_event)
        fp = _slot_means(fc_pv, s0, s1, slots_per_event)
        plans = [build_schedule(states[anchor],
                                service_order(g_t, tree, anchor, sol.closed),
                                fl, fp, slot_minutes=tl.schedule_slot_minutes)
                 for anchor, tree in sol.trees.items()]

        for z, anchor in sol.assignment.items():
            if anchor is None:
                unserved[s0:s1, zcol[z]] = scenario.load_kw[z][s0:s1]
            else:
                assign_arr[s0:s1, zcol[z]] = anchor

        for slot in range(slots_per_event):
            a = s0 + slot * steps_per_slot
            b = a + steps_per_slot
            for plan in plans:
                anchor, members = plan.order.gfm_node_id, plan.order.members
                win = dispatch_window(
                    states[anchor], plan, slot,
                    {z: scenario.load_kw[z][a:b] for z in members},
                    {z: scenario.pv_kw[z][a:b] for z in members},
                    step_minutes=tl.dispatch_step_minutes,
                    blocked_first_step=blocked if slot == 0 else frozenset())
                zc = [zcol[z] for z in win.zones]
                served[a:b, zc] = win.served_kw
                unserved[a:b, zc] = win.unserved_kw
                pv_used[a:b, zc] = win.pv_used_kw
                committed[a:b, zc] = win.committed
                energized[a:b, zc] = win.energized
                gc = gcol[anchor]
                battery[a:b, gc] = win.battery_kw
                diesel[a:b, gc] = win.diesel_kw
                soc[a:b, gc] = win.soc_kwh
                fuel[a:b, gc] = win.fuel_kwh

        prev_sol = sol

    return RestorationRun(
        scenario=scenario, mode=mode, timeline=tl, zone_ids=zone_ids,
        gfm_ids=gfm_ids,
        time_min=np.arange(n_steps) * tl.dispatch_step_minutes,
        served_kw=served, unserved_kw=unserved, pv_potential_kw=pv_pot,
        pv_used_kw=pv_used, committed=committed, energized=energized,
        assignment=assign_arr, battery_kw=battery, diesel_kw=diesel,
        soc_kwh=soc, fuel_kwh=fuel, events=tuple(events),
        wall_time_s=time.perf_counter() - t_start)

"""Rolling-horizon restoration loop.

Three nested clocks: a partition decision every three hours, a commitment
schedule rebuilt at the same boundary on half-hour slots, and five-minute
dispatch against the true profiles. Storage state follows the grid-forming
node it belongs to, whatever zones come or go around it.

The graph changes only when a fault starts or clears, so a run does the
graph-level work once per fault set and reuses it at each later event of
that set: the faulted graph, the partition model (flexible mode) or the
default topology (fixed mode), and each partition's service orders. An event
writes only its own data: the model's snapshot bounds, switch-change costs
and offset, or the default topology's served load and price.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
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
from .netmodel import ZoneGraph
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


def _event_forecast(event_index: int, zone_ids: tuple[int, ...],
                    forecast: tuple[dict[int, np.ndarray], dict[int, np.ndarray]],
                    ) -> list[np.ndarray]:
    """One event's steps of the load and PV forecasts as (zones x steps)
    matrices: a mean along their contiguous last axis sums each zone's steps
    as the mean of that zone's own profile slice does, bit for bit."""
    n = FORMATION_STEP_MINUTES // DISPATCH_STEP_MINUTES
    s0, s1 = event_index * n, (event_index + 1) * n
    return [np.array([t[z][s0:s1] for z in zone_ids]) for t in forecast]


def _faults(scenario: Scenario, event_index: int) -> frozenset[int]:
    """The edges faulted at one formation event."""
    t = event_index * FORMATION_STEP_MINUTES
    return scenario.graph.faulted_edges | scenario.faulted_at(t)


def _snapshot(event_index: int, zone_ids: tuple[int, ...],
              forecast: list[np.ndarray]) -> FormationSnapshot:
    """Forecast-mean snapshot of one formation event."""
    load, pv = (dict(zip(zone_ids, a.mean(axis=1).tolist()))
                for a in forecast)
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
    if not 0 <= event_index < tl.n_formation_events:
        raise ValueError(
            f"event index {event_index} outside 0..{tl.n_formation_events - 1}")
    zone_ids = tuple(sorted(n.id for n in scenario.graph.nodes))
    forecast = _event_forecast(event_index, zone_ids, scenario.forecast())
    return (scenario.graph.with_faulted(_faults(scenario, event_index)),
            _snapshot(event_index, zone_ids, forecast))


def solve_partition(prob: FormationProblem,
                    warm_basis: tuple[np.ndarray, np.ndarray] | None = None,
                    ) -> tuple[SolveReport, FormationSolution]:
    """Solve a built partition problem, warm from its previous partition,
    and decode it; ``warm_basis`` (the previous event's
    ``SolveReport.basis``) is the basis its fixed-integer LPs re-solve
    from."""
    prev, step = prob.prev, prob.snapshot.step_index
    warm = None
    if prev is not None:
        warm = warm_values_from_topology(prob, prev.closed, prev.assignment)
    rep = solve_milp(prob.model, warm_integer_values=warm,
                     warm_basis=warm_basis)
    if rep.status is SolveStatus.ITERATION_LIMIT:
        raise SolverError(
            f"partition solve of event {step} hit the pivot budget")
    if rep.status is SolveStatus.INFEASIBLE:
        raise InfeasibleTopology(
            f"partition model of event {step} has no feasible point")
    return rep, decode(prob, rep)


@dataclass
class _FaultSet:
    """The graph-level work of one fault set within one run, done once and
    read at each later event of the set; a partition's service orders are
    added when the set first holds that partition."""
    graph: ZoneGraph
    problem: FormationProblem | None = None     # flexible mode: the model
    topology: FormationSolution | None = None   # fixed mode: the default
    # (closed switches, (anchor, tree) pairs) -> that partition's orders
    partitions: dict[tuple[frozenset[int], tuple], PartitionOrder] \
        = field(default_factory=dict)


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
    gcol = {j: c for c, j in enumerate(gfm_ids)}
    n_steps = tl.n_steps
    slots_per_event = FORMATION_STEP_MINUTES // SLOT_MINUTES
    steps_per_event = FORMATION_STEP_MINUTES // DISPATCH_STEP_MINUTES

    # (steps x zones), like the run's arrays: pv is the run's PV potential
    load = _profiles(scenario.load_kw, zone_ids, n_steps)
    pv = _profiles(scenario.pv_kw, zone_ids, n_steps)
    fc = scenario.forecast()

    served = np.zeros((n_steps, len(zone_ids)))
    unserved = np.zeros_like(served)
    pv_used = np.zeros_like(served)
    committed = np.zeros(served.shape, dtype=bool)
    energized = np.zeros(served.shape, dtype=bool)
    assign_arr = np.full(served.shape, -1, dtype=int)
    battery = np.zeros((n_steps, len(gfm_ids)))
    diesel = np.zeros_like(battery)
    soc = np.zeros_like(battery)
    fuel = np.zeros_like(battery)

    states = {}
    for j in gfm_ids:
        r = g0.resource_at(j)
        states[j] = MicrogridState(r, r.battery_soc0 * r.battery_energy_kwh,
                                   r.diesel_fuel_kwh)

    events: list[FormationEvent] = []
    prev_sol: FormationSolution | None = None
    basis = None  # the last flexible event's SolveReport.basis
    fault_sets: dict[frozenset[int], _FaultSet] = {}

    for k in range(tl.n_formation_events):
        t = k * FORMATION_STEP_MINUTES
        forecast = _event_forecast(k, zone_ids, fc)
        snap = _snapshot(k, zone_ids, forecast)
        faults = _faults(scenario, k)
        fs = fault_sets.get(faults)
        if fs is None:
            fs = fault_sets[faults] = _FaultSet(g0.with_faulted(faults))
        g_t = fs.graph
        s0 = t // DISPATCH_STEP_MINUTES
        s1 = s0 + steps_per_event

        t0 = time.perf_counter()
        if mode == "fixed":
            if fs.topology is None:
                fs.topology = fixed_topology_solution(g_t)
            sol = served_in_full(g_t, fs.topology, snap, wts)
            nodes = lp_iters = 0
        else:
            if fs.problem is None:
                prob = fs.problem = build_milp(g_t, snap, wts, prev=prev_sol)
            else:
                prob = with_event(fs.problem, snap, prev_sol)
            try:
                rep, sol = solve_partition(prob, basis)
            except (SolverError, DecodeError) as exc:
                raise type(exc)(f"t={t} min: {exc}") from exc
            nodes, lp_iters, basis = rep.node_count, rep.lp_iterations, rep.basis
        wall = time.perf_counter() - t0

        diff = diff_topologies(prev_sol, sol)
        events.append(FormationEvent(
            time_min=t, solution=sol, diff=diff,
            faulted_edges=tuple(sorted(g_t.faulted_edges)),
            node_count=nodes, lp_iterations=lp_iters, wall_time_s=wall))
        blocked = frozenset(z for z, _old, new in diff.moved
                            if new is not None)

        anchors = [sol.assignment[z] for z in zone_ids]
        assign_arr[s0:s1] = [-1 if a is None else a for a in anchors]

        closed = sol.closed
        key = (closed, tuple(sol.trees.items()))
        part = fs.partitions.get(key)
        if part is None:
            part = fs.partitions[key] = PartitionOrder(zone_ids, tuple(
                service_order(g_t, tree, anchor, closed)
                for anchor, tree in sol.trees.items()))
        # (zones x slots) forecast slot means
        fl, fp = (a.reshape(len(zone_ids), slots_per_event, -1).mean(axis=2)
                  for a in forecast)
        mg_states = [states[o.gfm_node_id] for o in part.orders]
        plans = [build_schedule(st, o, load_sums, pv_sums)
                 for st, o, load_sums, pv_sums in zip(
                     mg_states, part.orders, *part.running_sums(fl.T, fp.T))]
        win = dispatch_window(part, mg_states, plans, load[s0:s1], pv[s0:s1],
                              blocked_first_step=blocked)
        served[s0:s1] = win.served_kw
        unserved[s0:s1] = win.unserved_kw
        pv_used[s0:s1] = win.pv_used_kw
        committed[s0:s1] = win.committed
        energized[s0:s1] = win.energized
        gc = [gcol[o.gfm_node_id] for o in part.orders]
        battery[s0:s1, gc] = win.battery_kw
        diesel[s0:s1, gc] = win.diesel_kw
        soc[s0:s1, gc] = win.soc_kwh
        fuel[s0:s1, gc] = win.fuel_kwh

        prev_sol = sol

    return RestorationRun(
        scenario=scenario, mode=mode, timeline=tl, zone_ids=zone_ids,
        gfm_ids=gfm_ids,
        time_min=np.arange(n_steps) * DISPATCH_STEP_MINUTES,
        served_kw=served, unserved_kw=unserved, pv_potential_kw=pv,
        pv_used_kw=pv_used, committed=committed, energized=energized,
        assignment=assign_arr, battery_kw=battery, diesel_kw=diesel,
        soc_kwh=soc, fuel_kwh=fuel, events=tuple(events),
        wall_time_s=time.perf_counter() - t_start)

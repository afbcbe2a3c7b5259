"""Radial microgrid formation as a mixed-integer program.

One solve re-partitions the zone graph into GFM-anchored radial microgrids
for a single planning step. Binary switch states and zone-to-microgrid
assignment binaries are coupled through an exact product linearization: a
closed switch needs both ends in one microgrid, while an open one may sit
inside a microgrid, as a loop switch does. Radiality comes from an exact
closed-switch count plus a single-commodity connectivity flow emitted by
the GFMs. Served load and PV are continuous, so the objective trades
weighted load shedding against weighted commodity flow (a proxy for how far
from its source each zone sits) and, after the first step, switch toggles;
``FormationWeights`` prices all three. Line flows, PV and GFM injections
constrain the partition but are not decoded: the energy management under
it does its own dispatch. Load islands, the zones that no GFM can reach
under the faults, are not decisions: the model leaves them and their
switches out, and their load is charged as shed.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass, field, replace

from .milp import INT_TOL, MilpModel, SolveReport, SolveStatus
from .netmodel import (LateralPolicy, RadialCheck, ZoneGraph, forest_census,
                       is_radial_forest, subtrees, walk)

OBJ_MATCH_RTOL = 1e-6            # decode recheck: |recomputed - reported|


class ModelError(Exception):
    """The graph/snapshot pair cannot be turned into a well-posed model."""


class InfeasibleTopology(Exception):
    """No partition meets the constraints: a lateral policy asks too much of
    the graph, or the default switches or the partition model admit none."""


class DecodeError(Exception):
    """Solver output failed rounding or consistency checks."""


@dataclass(frozen=True)
class FormationSnapshot:
    """Aggregated per-zone load and PV for one formation step (kW).

    ``load_kw`` is the servable demand ceiling, ``pv_kw`` the available PV.
    The optional PV floor defaults to zero; a positive ``pv_min_kw`` models
    must-take PV that the step has to absorb somewhere, and may not exceed
    the zone's ``pv_kw``. Every value must be finite and non-negative.
    """

    step_index: int
    load_kw: dict[int, float]
    pv_kw: dict[int, float]
    pv_min_kw: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("load_kw", "pv_kw", "pv_min_kw"):
            for zone, v in getattr(self, name).items():
                if not 0 <= v < math.inf:
                    raise ValueError(f"zone {zone}: {name} {v!r} must be "
                                     f"finite and non-negative")
        for zone, v in self.pv_min_kw.items():
            if v > self.pv_kw.get(zone, 0.0):
                raise ValueError(f"zone {zone}: pv_min_kw {v!r} exceeds "
                                 f"pv_kw {self.pv_kw.get(zone, 0.0)!r}")


@dataclass(frozen=True)
class FormationWeights:
    critical_flow_weight: float = 10.0
    default_flow_weight: float = 1.0
    shed_weight: float = 1000.0
    switch_change_penalty: float = 0.1   # per switch toggled from prev

    def __post_init__(self) -> None:
        if not all(0.0 < w < float("inf") for w in (
                self.critical_flow_weight, self.default_flow_weight,
                self.shed_weight)):
            raise ValueError("formation weights must be positive and finite")
        if self.shed_weight <= max(self.critical_flow_weight,
                                   self.default_flow_weight):
            raise ValueError("shed_weight must dominate flow weights")
        if not 0.0 <= self.switch_change_penalty < float("inf"):
            raise ValueError("switch_change_penalty must be finite and >= 0")

    def edge_weight(self, g: ZoneGraph, edge_id: int) -> float:
        head = g.edge(edge_id).head
        return (self.critical_flow_weight if g.node(head).is_critical
                else self.default_flow_weight)


@dataclass
class FormationSolution:
    """Decoded partition: switch states, zone assignment and served load."""

    switch_status: dict[int, bool]
    assignment: dict[int, int | None]
    served_load_kw: dict[int, float]
    commodity_flow: dict[int, float]
    objective_value: float
    load_shed_term: float
    flow_term: float
    switch_change_term: float = 0.0
    trees: dict[int, frozenset[int]] = field(default_factory=dict)  # by GFM

    @property
    def closed(self) -> frozenset[int]:
        return frozenset(eid for eid, on in self.switch_status.items() if on)


@dataclass
class FormationProblem:
    """A built model plus the column map needed to decode its solution.

    Assignment and product columns are keyed by (zone, GFM) and (edge, GFM),
    as ``FormationSolution.trees`` is keyed by GFM; their names carry the
    GFM's position in ``graph.gfm_nodes``. The rows and start points depend
    on the graph and the weights alone; ``with_event`` derives the problem of
    another snapshot and previous partition from them.
    """

    graph: ZoneGraph
    snapshot: FormationSnapshot
    weights: FormationWeights
    prev: FormationSolution | None
    model: MilpModel
    y: dict[int, int]
    x: dict[tuple[int, int], int]
    z: dict[tuple[int, int], int]
    t: dict[int, int]
    p: dict[int, int]
    d: dict[int, int]
    fp: dict[int, int]
    fn: dict[int, int]


def downstream_capacity(g: ZoneGraph, policy: LateralPolicy) -> int:
    """Zones a GFM could feed through the policy edge, at best.

    Counts non-GFM nodes reachable from the far endpoint without crossing any
    GFM: commodity cannot transit a foreign GFM because a closed edge forces
    shared assignment, and GFM zones never consume commodity.
    """
    e = g.edge(policy.edge_id)
    far = e.head if e.tail == policy.gfm_node_id else e.tail
    gfms = set(g.gfm_nodes)
    if far in gfms:
        return 0
    others = {n.id for n in g.nodes} - gfms
    return len(walk(g.adjacency(), far, within=others, skip=policy.edge_id)[0])


def build_milp(g: ZoneGraph, snap: FormationSnapshot, weights: FormationWeights,
               prev: FormationSolution | None = None) -> FormationProblem:
    """Assemble the one-step partition MILP.

    Columns and rows cover only the zones outside load islands and the
    active edges between them; the offset charges every zone's load as shed,
    islands included. The model carries integral start points for
    ``solve_milp``: the default topology, unless ``fixed_topology_solution``
    rejects it, and the shortest-path forest, each kept once. The data of
    the snapshot and of ``prev`` is written last, as ``with_event`` writes
    it. Raises ModelError for ill-posed inputs and InfeasibleTopology when a
    lateral policy demands more downstream zones than the graph can route.
    """
    gfms = g.gfm_nodes
    if not gfms:
        raise ModelError("graph has no grid-forming resources")

    zones = sorted(n.id for n in g.nodes if n.id not in g.island_zones)

    for pol in g.lateral_policies:
        if pol.min_downstream_nodes >= 1:
            if pol.edge_id in g.faulted_edges:
                raise InfeasibleTopology(
                    f"policy edge {pol.edge_id} is faulted")
            cap = downstream_capacity(g, pol)
            if cap < pol.min_downstream_nodes:
                raise InfeasibleTopology(
                    f"policy on edge {pol.edge_id} wants "
                    f"{pol.min_downstream_nodes} downstream zones, "
                    f"only {cap} reachable")

    edges = [e for e in g.active_edges() if e.tail not in g.island_zones]
    n_zones = len(zones)
    big_m = float(n_zones)

    # each zone's incident edges, signed +1 where the edge leaves it (tail)
    incident: dict[int, list[tuple[int, float]]] = {i: [] for i in zones}
    for e in edges:
        incident[e.tail].append((e.id, 1.0))
        incident[e.head].append((e.id, -1.0))

    mdl = MilpModel(f"formation_step_{snap.step_index}")

    y: dict[int, int] = {}
    for e in edges:
        y[e.id] = mdl.add_variable(f"y_{e.id}", 0, 1, integer=True)

    # assignment binaries; each GFM is pinned to its own microgrid
    x: dict[tuple[int, int], int] = {}
    for i in zones:
        for k, j in enumerate(gfms):
            lo, hi = (float(i == j),) * 2 if g.node(i).has_gfm else (0, 1)
            x[i, j] = mdl.add_variable(f"x_{i}_{k}", lo, hi, integer=True)

    # product columns z = x_tail * x_head, exact for binaries, so the
    # integrality declaration would only add dead branching candidates
    z: dict[tuple[int, int], int] = {}
    for e in edges:
        for k, j in enumerate(gfms):
            z[e.id, j] = mdl.add_variable(f"z_{e.id}_{k}", 0, 1)

    t: dict[int, int] = {}
    for e in edges:
        t[e.id] = mdl.add_variable(f"t_{e.id}", -e.flow_limit_kw, e.flow_limit_kw)

    # PV and served load; _write_event sets their bounds from the snapshot
    p: dict[int, int] = {}
    d: dict[int, int] = {}
    for i in zones:
        p[i] = mdl.add_variable(f"p_{i}", 0.0, 0.0)
        d[i] = mdl.add_variable(f"d_{i}", 0.0, 0.0,
                                objective=-weights.shed_weight)

    inj: dict[int, int] = {}
    for j in gfms:
        r = g.resource_at(j)
        inj[j] = mdl.add_variable(f"inj_{j}", -r.battery_power_kw,
                                  r.battery_power_kw + r.diesel_power_kw)

    w: dict[int, int] = {}
    for j in gfms:
        w[j] = mdl.add_variable(f"w_{j}", 0, n_zones - 1)

    fp: dict[int, int] = {}
    fn: dict[int, int] = {}
    for e in edges:
        we = weights.edge_weight(g, e.id)
        fp[e.id] = mdl.add_variable(f"fp_{e.id}", 0, big_m, objective=we)
        fn[e.id] = mdl.add_variable(f"fn_{e.id}", 0, big_m, objective=we)

    # each zone belongs to exactly one microgrid label
    for i in zones:
        mdl.add_constraint({x[i, j]: 1.0 for j in gfms}, "==", 1.0,
                           f"assign_{i}")

    # a closed edge requires both endpoints in the same microgrid; an open
    # one may still sit inside one, as a loop switch does
    for e in edges:
        mdl.add_constraint(
            {y[e.id]: 1.0, **{z[e.id, j]: -1.0 for j in gfms}},
            "<=", 0.0, f"link_{e.id}")
        for k, j in enumerate(gfms):
            mdl.add_constraint({z[e.id, j]: 1.0, x[e.tail, j]: -1.0}, "<=", 0.0,
                               f"mc1_{e.id}_{k}")
            mdl.add_constraint({z[e.id, j]: 1.0, x[e.head, j]: -1.0}, "<=", 0.0,
                               f"mc2_{e.id}_{k}")
            mdl.add_constraint(
                {z[e.id, j]: 1.0, x[e.tail, j]: -1.0, x[e.head, j]: -1.0},
                ">=", -1.0, f"mc3_{e.id}_{k}")

    # exact spanning-forest count: one closed switch per non-GFM zone
    mdl.add_constraint({y[e.id]: 1.0 for e in edges}, "==",
                       float(n_zones - len(gfms)), "radial_count")

    # real power balance per zone (positive t flows tail -> head)
    for i in zones:
        coeffs = {t[eid]: sgn for eid, sgn in incident[i]}
        coeffs[p[i]] = -1.0
        coeffs[d[i]] = 1.0
        if i in inj:
            coeffs[inj[i]] = -1.0
        mdl.add_constraint(coeffs, "==", 0.0, f"power_{i}")

    # line flow only on closed switches
    for e in edges:
        mdl.add_constraint({t[e.id]: 1.0, y[e.id]: -e.flow_limit_kw}, "<=", 0.0,
                           f"tcap_hi_{e.id}")
        mdl.add_constraint({t[e.id]: -1.0, y[e.id]: -e.flow_limit_kw}, "<=", 0.0,
                           f"tcap_lo_{e.id}")

    # connectivity commodity: every non-GFM zone consumes one unit
    for i in zones:
        coeffs = {}
        for eid, sgn in incident[i]:
            coeffs[fp[eid]] = sgn
            coeffs[fn[eid]] = -sgn
        if i in w:
            coeffs[w[i]] = -1.0
            mdl.add_constraint(coeffs, "==", 0.0, f"comm_src_{i}")
        else:
            mdl.add_constraint(coeffs, "==", -1.0, f"comm_{i}")

    for e in edges:
        mdl.add_constraint({fp[e.id]: 1.0, fn[e.id]: 1.0, y[e.id]: -big_m},
                           "<=", 0.0, f"fcap_{e.id}")

    # lateral policies constrain commodity leaving the GFM on one edge
    for pol in g.lateral_policies:
        if pol.edge_id in g.faulted_edges:
            continue  # force_zero holds trivially; minimums were rejected above
        e = g.edge(pol.edge_id)
        outward = 1.0 if e.tail == pol.gfm_node_id else -1.0
        coeffs = {fp[e.id]: outward, fn[e.id]: -outward}
        if pol.force_zero:
            mdl.add_constraint(coeffs, "==", 0.0, f"pol_zero_{pol.edge_id}")
        elif pol.min_downstream_nodes >= 1:
            mdl.add_constraint(coeffs, ">=", float(pol.min_downstream_nodes),
                               f"pol_min_{pol.edge_id}")

    problem = FormationProblem(
        graph=g, snapshot=snap, weights=weights, prev=prev, model=mdl,
        y=y, x=x, z=z, t=t, p=p, d=d, fp=fp, fn=fn)
    topologies = []
    try:
        base = fixed_topology_solution(g)
        topologies.append((base.closed, base.assignment))
    except InfeasibleTopology:
        pass
    topologies.append(_shortest_path_forest(g, weights))
    for closed, assignment in topologies:
        point = warm_values_from_topology(problem, closed, assignment)
        if point not in mdl.starts:
            mdl.starts.append(point)
    return _write_event(problem)


def with_event(problem: FormationProblem, snap: FormationSnapshot,
               prev: FormationSolution | None = None) -> FormationProblem:
    """The problem of ``problem``'s graph and weights at another snapshot and
    previous partition, equal bit for bit to what ``build_milp`` builds.

    The new model shares the column names and kinds, the rows and the start
    points of ``problem``'s model, read-only; it has its own bounds, costs,
    offset and name, of which it writes only the ``p``/``d`` bounds, the
    ``y`` switch-change costs, the offset and the name. The column maps are
    shared too. Raises ModelError when the snapshot misses a zone.
    """
    src = problem.model
    mdl = copy.copy(src)
    mdl.lower, mdl.upper, mdl.objective = (
        src.lower[:], src.upper[:], src.objective[:])
    return _write_event(replace(problem, snapshot=snap, prev=prev, model=mdl))


def _write_event(problem: FormationProblem) -> FormationProblem:
    """Write the data of ``problem.snapshot`` and ``problem.prev`` into its
    model: the PV and served-load bounds, the switch-change costs, the
    offset and the name."""
    g, snap, prev, mdl = (problem.graph, problem.snapshot, problem.prev,
                          problem.model)
    _check_snapshot(g, snap)
    mdl.name = f"formation_step_{snap.step_index}"
    for i, col in problem.p.items():
        mdl.lower[col] = float(snap.pv_min_kw.get(i, 0.0))
        mdl.upper[col] = float(snap.pv_kw[i])
    for i, col in problem.d.items():
        mdl.upper[col] = float(snap.load_kw[i])
    mdl.offset = problem.weights.shed_weight * sum(
        snap.load_kw[n.id] for n in g.nodes)

    # switch-change penalty, linearized exactly for binary y; a closed edge
    # without a column (faulted or in a load island) is an unavoidable change
    was_closed = prev.closed if prev is not None else frozenset()
    eps = problem.weights.switch_change_penalty
    for eid, col in problem.y.items():
        mdl.objective[col] = 0.0
        if prev is not None:
            mdl.add_objective(col, eps * (1.0 - 2.0 * (eid in was_closed)))
    for _ in was_closed:
        mdl.offset += eps    # one at a time: eps * n can differ in the last bit
    return problem


def _check_snapshot(g: ZoneGraph, snap: FormationSnapshot) -> None:
    """Raise ModelError unless ``snap`` has load and PV for every zone."""
    for n in g.nodes:
        if n.id not in snap.load_kw or n.id not in snap.pv_kw:
            raise ModelError(f"snapshot missing zone {n.id}")


def _shortest_path_forest(g: ZoneGraph, weights: FormationWeights,
                         ) -> tuple[set[int], dict[int, int | None]]:
    """Closed edges and zone anchors of a multi-source shortest-path forest.

    Dijkstra runs from every GFM at once over the active edges, each edge
    weighted by ``weights.edge_weight``. A zone joins the GFM that reaches it
    first: at equal distance the path with fewer normally-open edges wins,
    then the lower zone and edge ids. Without shedding, the model's flow term
    is the weighted depth summed over zones, which this forest minimizes.
    Zones no GFM reaches (load islands) keep anchor None.
    """
    adj = g.adjacency()
    closed: set[int] = set()
    assignment: dict[int, int | None] = {n.id: None for n in g.nodes}
    # (distance, normally-open edges, zone, edge in, anchor)
    heap = [(0.0, 0, gfm, -1, gfm) for gfm in g.gfm_nodes]
    while heap:
        dist, n_open, u, eid, anchor = heapq.heappop(heap)
        if assignment[u] is not None:
            continue
        assignment[u] = anchor
        if eid >= 0:
            closed.add(eid)
        for v, e in adj[u]:
            if assignment[v] is None:
                heapq.heappush(heap, (dist + weights.edge_weight(g, e),
                                      n_open + g.edge(e).normally_open,
                                      v, e, anchor))
    return closed, assignment


def warm_values_from_topology(problem: FormationProblem,
                              closed_edges: set[int] | frozenset[int],
                              assignment: dict[int, int | None]) -> dict[int, float]:
    """Integer warm point for the solver from a known partition.

    Edges without a column (faulted or in a load island) are ignored, and
    zones without a GFM anchor are parked on the first GFM's microgrid; the
    solver only uses the point if it is feasible.
    """
    vals: dict[int, float] = {}
    gfms = problem.graph.gfm_nodes
    for eid, col in problem.y.items():
        vals[col] = 1.0 if eid in closed_edges else 0.0
    for (i, j), col in problem.x.items():
        anchor = assignment.get(i)
        vals[col] = 1.0 if j == (anchor if anchor in gfms else gfms[0]) else 0.0
    return vals


def _priced(g: ZoneGraph, wts: FormationWeights, load_kw: dict[int, float],
            served: dict[int, float],
            commodity: dict[int, float]) -> tuple[float, float]:
    """Shed and flow terms of a partition's objective."""
    return (wts.shed_weight * sum(load_kw[i] - served[i] for i in served),
            sum(wts.edge_weight(g, eid) * abs(f) for eid, f in commodity.items()))


def _rounded(value: float, what: str) -> int:
    r = round(value)
    if abs(value - r) > INT_TOL:
        raise DecodeError(f"{what} = {value!r} is not integral within {INT_TOL}")
    return int(r)


def decode(problem: FormationProblem, report: SolveReport) -> FormationSolution:
    """Turn a solver report into a checked FormationSolution.

    Rounds binaries, rebuilds the partition, verifies radiality and re-derives
    the objective from decoded values; any mismatch is a DecodeError because
    it means the solver's tolerances were not actually met.
    """
    if report.status != SolveStatus.OPTIMAL:
        raise DecodeError(f"cannot decode a {report.status.value} report")
    g = problem.graph
    xv = report.values

    closed = frozenset(eid for eid, col in problem.y.items()
                       if _rounded(xv[col], f"switch y_{eid}") == 1)
    assignment: dict[int, int | None] = dict.fromkeys(
        sorted(n.id for n in g.nodes))
    names = problem.model.var_names
    for i in problem.d:
        picks = [j for j in g.gfm_nodes if _rounded(
            xv[problem.x[i, j]], f"assign {names[problem.x[i, j]]}") == 1]
        if len(picks) != 1:
            raise DecodeError(f"zone {i} assigned to {len(picks)} microgrids")
        assignment[i] = picks[0]

    check: RadialCheck = is_radial_forest(g, closed)
    if not check.is_radial:
        raise DecodeError("rounded switch set is not a radial forest")

    commodity = {eid: float(xv[problem.fp[eid]] - xv[problem.fn[eid]])
                 for eid in problem.fp}
    served = {i: float(xv[problem.d[i]]) if i in problem.d else 0.0
              for i in assignment}

    wts = problem.weights
    shed_term, flow_term = _priced(g, wts, problem.snapshot.load_kw, served,
                                   commodity)
    switch_term = 0.0
    if problem.prev is not None:
        for _ in problem.prev.closed ^ closed:
            switch_term += wts.switch_change_penalty
    recomputed = shed_term + flow_term + switch_term
    if abs(recomputed - report.objective) > OBJ_MATCH_RTOL * (1 + abs(report.objective)):
        raise DecodeError(
            f"objective recheck failed: decoded {recomputed!r} vs "
            f"solver {report.objective!r}")

    return FormationSolution(
        switch_status={e.id: (e.id in closed) for e in g.edges},
        assignment=assignment, served_load_kw=served, commodity_flow=commodity,
        objective_value=float(report.objective),
        load_shed_term=float(shed_term), flow_term=float(flow_term),
        switch_change_term=float(switch_term), trees=check.trees)


def fixed_topology_solution(g: ZoneGraph) -> FormationSolution:
    """Baseline partition: every normally-closed, non-faulted switch closed.

    No optimization; commodity flows come from tree traversal. It is priced
    by ``served_in_full`` without a snapshot: no load, default weights.
    """
    closed = frozenset(e.id for e in g.active_edges() if not e.normally_open)
    census = forest_census(g, closed)
    if census is None:
        raise InfeasibleTopology("default closed switches contain a loop or "
                                 "join two grid-forming nodes")

    adj = g.adjacency(closed)

    # zones cut off from every GFM (faulted laterals, islands) stay dark;
    # the point of the baseline is that nothing gets rerouted
    assignment: dict[int, int | None] = {n.id: None for n in g.nodes}
    commodity = {e.id: 0.0 for e in g.edges}
    for anchor, tree in census.trees.items():
        assignment.update(dict.fromkeys(tree, anchor))
        for eid, (sign, beyond) in subtrees(g, adj, anchor).items():
            commodity[eid] = sign * len(beyond)

    return served_in_full(g, FormationSolution(
        switch_status={e.id: (e.id in closed) for e in g.edges},
        assignment=assignment, served_load_kw={}, commodity_flow=commodity,
        objective_value=0.0, load_shed_term=0.0, flow_term=0.0,
        trees=census.trees))


def served_in_full(g: ZoneGraph, sol: FormationSolution,
                   snap: FormationSnapshot | None = None,
                   weights: FormationWeights | None = None) -> FormationSolution:
    """``sol``'s partition with each anchored zone's load served in full,
    and priced.

    Served load is the snapshot's (nominal values for reporting; capacity
    checks are the optimizer's job, not the baseline's), or zero without
    one. A copy: ``sol`` is left as it is. Raises ModelError when the
    snapshot misses a zone.
    """
    wts = weights or FormationWeights()
    if snap is None:
        load = {n.id: 0.0 for n in g.nodes}
    else:
        _check_snapshot(g, snap)
        load = snap.load_kw
    served = {i: (load[i] if a is not None else 0.0)
              for i, a in sol.assignment.items()}
    shed_term, flow_term = _priced(g, wts, load, served, sol.commodity_flow)
    return FormationSolution(
        switch_status=dict(sol.switch_status),
        assignment=dict(sol.assignment), served_load_kw=served,
        commodity_flow=dict(sol.commodity_flow),
        objective_value=float(shed_term + flow_term),
        load_shed_term=float(shed_term), flow_term=float(flow_term),
        trees=dict(sol.trees))

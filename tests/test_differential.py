"""Differential test of the partition search over random small graphs.

Three solvers look for the same optimal partition: branch and bound
(``solve_milp`` plus ``decode``), the brute-force oracle
(``enumerate_optimal``) and HiGHS (``scipy.optimize.milp`` on the dense
model). On every drawn graph they must agree on feasibility and, within
``REL_TOL``, on the optimum; every decoded partition must be a radial forest
with one closed switch per zone that is neither grid-forming nor in a load
island. Some draws hold a cycle inside a load island; the model leaves
islands out, so they must solve like any other draw, and faulting every
edge inside an island must leave the model as it is. Other draws hold a
cycle through at most one grid-forming zone, whose radial forests leave a
switch open inside a microgrid. The oracle prices each partition from its
trees, not from the model's rows, and shares no rule with the model, so the
test checks the formulation as well as the searches. Branch and bound also
solves each model without the start points ``build_milp`` attaches, and
must reach the same status and optimum.
A second test re-solves each model from warm points, whose basis the root
LP restarts from, and must reach the cold optimum.

A run does the graph-level work once per fault set and reuses it at every
later event of that set. A third test draws fault windows and, per event, a
snapshot and a previous partition: each event's problem derived from its
fault set's build (``with_event``) must equal a fresh ``build_milp`` bit for
bit, each event's pricing of its fault set's default topology
(``served_in_full``) must equal the pricing of a fresh
``fixed_topology_solution``, and a reused partition order must equal a
fresh one in its arrays and its running sums. The fixture's runs are
checked the same way at each of their 16 events.

The example count comes from the hypothesis profile (``tests/conftest.py``):
40 by default, 400 with ``HYPOTHESIS_PROFILE=ci``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from gridsplit import (
    FormationSnapshot,
    FormationSolution,
    FormationWeights,
    GridFormingResource,
    InfeasibleTopology,
    LateralPolicy,
    PartitionOrder,
    SolveStatus,
    SwitchEdge,
    Timeline,
    ZoneGraph,
    ZoneNode,
    build_milp,
    decode,
    enumerate_optimal,
    fixed_topology_solution,
    formation_inputs,
    is_radial_forest,
    load_islands,
    run,
    served_in_full,
    service_order,
    solve_milp,
    warm_values_from_topology,
    with_event,
)

# every check here must hold under any BLAS thread count
pytestmark = pytest.mark.blas_threads

REL_TOL = 1e-6
WTS = FormationWeights()


@st.composite
def restoration_case(draw):
    """2-3 radial feeders of 2-3 zones, each rooted at a grid-forming zone,
    optionally one normally-open or normally-closed chord inside a feeder,
    joined by 1-3 normally-open ties; 0-2 distinct faulted edges, random
    flow limits, resources, loads and PV, and optionally one lateral
    policy."""
    # loads and PV at 1-W resolution: HiGHS fixes a column whose bound range
    # is within its tolerance, so a 1e-6 kW load would be shed by the
    # reference alone, at shed_weight * 1e-6 above the true optimum
    kw = st.integers(0, 400_000).map(lambda w: w / 1000.0)
    nodes, edges, resources, feeders = [], [], [], []
    for f in range(1, draw(st.integers(2, 3)) + 1):
        zones = list(range(len(nodes) + 1, len(nodes) + draw(st.integers(2, 3)) + 1))
        for z in zones:
            nodes.append(ZoneNode(z, f, draw(st.booleans()), 100.0, z == zones[0]))
            if z != zones[0]:
                # nearest zone first: hypothesis leans toward the first
                # choice, so chains, whose cut-off tail can hold the chord,
                # are common
                parent = draw(st.sampled_from(zones[:zones.index(z)][::-1]))
                edges.append(SwitchEdge(len(edges) + 1, parent, z, False,
                                        draw(st.floats(50.0, 1000.0))))
        resources.append(GridFormingResource(
            zones[0], draw(st.floats(50.0, 800.0)), 2000.0,
            diesel_power_kw=draw(st.sampled_from([0.0, 200.0]))))
        feeders.append(zones)
    # a chord between two non-root zones of a feeder doubles the line
    # between them or closes a loop through the root
    chords = [c for zones in feeders for c in itertools.combinations(zones[1:], 2)]
    if chords and draw(st.booleans()):
        a, b = draw(st.sampled_from(chords))
        edges.append(SwitchEdge(len(edges) + 1, a, b, draw(st.booleans()),
                                draw(st.floats(50.0, 1000.0))))
    pairs = [(a, b) for i, fa in enumerate(feeders) for fb in feeders[i + 1:]
             for a in fa for b in fb]
    for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3,
                              unique=True)):
        edges.append(SwitchEdge(len(edges) + 1, a, b, True,
                                draw(st.floats(50.0, 1000.0))))
    faulted = frozenset(draw(st.lists(st.sampled_from([e.id for e in edges]),
                                      max_size=2, unique=True)))
    policies = ()
    if draw(st.booleans()):
        roots = {zones[0] for zones in feeders}
        e = draw(st.sampled_from([e for e in edges if e.tail in roots]))
        policies = (LateralPolicy(e.tail, e.id, *draw(st.sampled_from(
            [(1, False), (2, False), (0, True)]))),)
    g = ZoneGraph(tuple(nodes), tuple(edges), tuple(resources), faulted,
                  policies)
    snap = FormationSnapshot(0, {n.id: draw(kw) for n in nodes},
                             {n.id: draw(kw) for n in nodes})
    return g, snap


def check_partition(g, sol):
    closed = frozenset(e for e, on in sol.switch_status.items() if on)
    assert is_radial_forest(g, closed).is_radial
    island_zones = frozenset().union(*load_islands(g))
    assert len(closed) == len(g.nodes) - len(g.gfm_nodes) - len(island_zones)


def island_holds_cycle(g):
    return any(sum(e.tail in comp for e in g.active_edges()) >= len(comp)
               for comp in load_islands(g))


def parallel_line_island():
    """Zones 2 and 3 joined by two lines (edges 2 and 4), cut off from the
    grid-forming zone 1 by the faulted edge 1; tie 5 joins zones 1 and 4."""
    nodes = tuple(ZoneNode(i, 1 if i < 4 else 2, False, 100.0, i in (1, 4))
                  for i in range(1, 6))
    edges = (SwitchEdge(1, 1, 2, False, 500.0), SwitchEdge(2, 2, 3, False, 500.0),
             SwitchEdge(3, 4, 5, False, 500.0), SwitchEdge(4, 2, 3, False, 500.0),
             SwitchEdge(5, 1, 4, True, 500.0))
    res = (GridFormingResource(1, 300.0, 2000.0),
           GridFormingResource(4, 300.0, 2000.0))
    g = ZoneGraph(nodes, edges, res, frozenset({1}))
    return g, FormationSnapshot(0, dict.fromkeys(range(1, 6), 100.0),
                                dict.fromkeys(range(1, 6), 0.0))


def presolve_bound_case():
    """Two three-zone chains under a lateral policy on edge 1; the
    partition closing edges 1-4 costs 15 (flow term only)."""
    nodes = tuple(ZoneNode(i, 1 if i < 4 else 2, i == 3, 100.0, i in (1, 4))
                  for i in range(1, 7))
    edges = (SwitchEdge(1, 1, 2, False, 94.0), SwitchEdge(2, 2, 3, False, 847.0),
             SwitchEdge(3, 4, 5, False, 216.0), SwitchEdge(4, 5, 6, False, 111.0),
             SwitchEdge(5, 3, 6, True, 146.0), SwitchEdge(6, 3, 5, True, 180.0),
             SwitchEdge(7, 2, 5, True, 419.0))
    res = (GridFormingResource(1, 93.0, 2000.0),
           GridFormingResource(4, 216.0, 2000.0))
    g = ZoneGraph(nodes, edges, res, frozenset(),
                  (LateralPolicy(1, 1, 2, False),))
    return g, FormationSnapshot(
        0, {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: 129.751, 6: 81.94},
        {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: 0.0, 6: 32.283})


@settings(deadline=None)
@given(restoration_case())
@example(parallel_line_island())
@example(presolve_bound_case())
def test_search_oracle_and_highs_agree(highs, case):
    g, snap = case
    if island_holds_cycle(g):
        event("cycle inside a load island")
    try:
        prob = build_milp(g, snap, WTS)
    except InfeasibleTopology:
        # the policy pre-check rejects the graph before any model exists
        try:
            enumerate_optimal(g, snap, WTS)
        except InfeasibleTopology:
            return
        raise AssertionError("the oracle found a partition build_milp rejected")
    # a load island's switches are no decision: with all of them faulted
    # the model is the same
    island_zones = frozenset().union(*load_islands(g))
    dark = g.with_faulted(g.faulted_edges | {
        e.id for e in g.active_edges() if e.tail in island_zones})
    assert build_milp(dark, snap, WTS).model.to_lp_string() \
        == prob.model.to_lp_string()
    rep = solve_milp(prob.model)
    assert rep.status is not SolveStatus.ITERATION_LIMIT
    # the model's start points change the work, never the answer
    prob.model.starts = []
    bare = solve_milp(prob.model)
    assert bare.status is rep.status
    if rep.status is SolveStatus.OPTIMAL:
        assert abs(bare.objective - rep.objective) \
            <= REL_TOL * max(1.0, abs(rep.objective))
    reference = highs(prob.model)
    try:
        by_oracle = enumerate_optimal(g, snap, WTS)
    except InfeasibleTopology:
        by_oracle = None
    if rep.status is SolveStatus.INFEASIBLE:
        assert reference is None and by_oracle is None
        return
    assert reference is not None and by_oracle is not None
    by_search = decode(prob, rep)
    if any(e.id not in by_search.closed
           and by_search.assignment[e.tail] == by_search.assignment[e.head]
           is not None for e in g.active_edges()):
        event("switch open inside a microgrid")
    for sol in (by_search, by_oracle):
        check_partition(g, sol)
        assert abs(sol.objective_value - reference) <= REL_TOL * max(1.0, abs(reference))


@settings(deadline=None)
@given(restoration_case())
@example(parallel_line_island())
def test_warm_started_search_reaches_the_cold_optimum(case):
    g, snap = case
    try:
        prob = build_milp(g, snap, WTS)
    except InfeasibleTopology:
        return
    cold = solve_milp(prob.model)
    if cold.status is not SolveStatus.OPTIMAL:
        return
    # the optimum itself, and the normally-closed baseline, which may be
    # infeasible in the model or far from the optimum; a normally-closed
    # chord closes a loop in the baseline, which then does not exist
    starts = [decode(prob, cold)]
    try:
        starts.append(fixed_topology_solution(g))
    except InfeasibleTopology:
        pass
    for start in starts:
        warm = warm_values_from_topology(
            prob, {e for e, on in start.switch_status.items() if on},
            start.assignment)
        rep = solve_milp(prob.model, warm_integer_values=warm)
        assert rep.status is SolveStatus.OPTIMAL
        assert abs(rep.objective - cold.objective) \
            <= REL_TOL * max(1.0, abs(cold.objective))


def assert_same_problem(got, fresh):
    """Two formation problems are equal bit for bit: model arrays, senses,
    bounds, costs, offset, name, row and column names, start points and
    column maps."""
    a, b = got.model, fresh.model
    # matrix, senses, right-hand sides, lower and upper bounds, costs
    matrix, senses, *vectors = a.dense()
    fresh_matrix, fresh_senses, *fresh_vectors = b.dense()
    assert senses == fresh_senses
    for x, y in zip([matrix, *vectors], [fresh_matrix, *fresh_vectors]):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()
    assert (a.offset.hex(), a.name) == (b.offset.hex(), b.name)
    assert a.var_names == b.var_names and a.is_integer == b.is_integer
    assert [r.name for r in a.rows] == [r.name for r in b.rows]
    assert a.starts == b.starts
    for cols in ("y", "x", "z", "t", "p", "d", "fp", "fn"):
        assert getattr(got, cols) == getattr(fresh, cols), cols
    assert (got.snapshot, got.prev, got.weights) \
        == (fresh.snapshot, fresh.prev, fresh.weights)


def assert_same_solution(got, fresh):
    assert got == fresh and repr(got) == repr(fresh)


def fresh_partition(g_t, zone_ids, sol):
    """The partition order of ``sol``'s microgrids, built anew."""
    return PartitionOrder(zone_ids, tuple(
        service_order(g_t, tree, anchor, sol.closed)
        for anchor, tree in sol.trees.items()))


def assert_same_partition(got, fresh, load, pv):
    """A reused partition order equals a fresh one: its service orders, its
    arrays and its running sums of (rows x zones) ``load`` and ``pv``."""
    assert got == fresh
    arrays = [(name, getattr(got, name), getattr(fresh, name))
              for name in ("ranked", "owner", "position", "feeds", "anchors")]
    arrays += [("columns", x, y) for x, y in zip(got.columns, fresh.columns)]
    for name, x, y in arrays:
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert got.running_sums(load, pv) == fresh.running_sums(load, pv)


@st.composite
def fault_window_events(draw):
    """A restoration case, a fault window that takes 1-2 more edges out, and
    2-5 events, each inside or outside the window, with its own snapshot and
    previous partition (any set of closed switches, faulted ones too)."""
    g, _ = draw(restoration_case())
    live = [e.id for e in g.active_edges()]
    window = g.faulted_edges | frozenset(draw(st.lists(
        st.sampled_from(live), min_size=1, max_size=2, unique=True)))
    kw = st.integers(0, 400_000).map(lambda w: w / 1000.0)
    events = []
    for k in range(draw(st.integers(2, 5))):
        load = {n.id: draw(kw) for n in g.nodes}
        pv = {n.id: draw(kw) for n in g.nodes}
        must_take = draw(st.lists(st.sampled_from(sorted(pv)), unique=True,
                                  max_size=2))
        snap = FormationSnapshot(k, load, pv,
                                 {z: pv[z] / 2 for z in must_take})
        prev = None
        if draw(st.booleans()):
            closed = draw(st.sets(st.sampled_from([e.id for e in g.edges])))
            prev = FormationSolution({e.id: e.id in closed for e in g.edges},
                                     {}, {}, {}, 0.0, 0.0, 0.0)
        faults = window if draw(st.booleans()) else g.faulted_edges
        events.append((faults, snap, prev))
    return g, events


@settings(deadline=None)
@given(fault_window_events())
def test_a_fault_sets_graph_work_serves_each_of_its_events(case):
    g, events = case
    zone_ids = tuple(sorted(n.id for n in g.nodes))
    built = {}     # fault set -> (its graph, its build, its default, its
                   # default's partition order)
    for faults, snap, prev in events:
        if faults in built:
            g_t, prob, default, part = built[faults]
            if prob is not None:
                prob = with_event(prob, snap, prev)
        else:
            g_t = g.with_faulted(faults)
            try:
                prob = build_milp(g_t, snap, WTS, prev)
            except InfeasibleTopology:
                prob = None
            try:
                default = fixed_topology_solution(g_t)
            except InfeasibleTopology:
                default = None
            part = None if default is None \
                else fresh_partition(g_t, zone_ids, default)
            built[faults] = g_t, prob, default, part
        fresh_g = g.with_faulted(faults)     # no cached graph properties
        if prob is None:
            event("fault set without a model")
        else:
            assert_same_problem(prob, build_milp(fresh_g, snap, WTS, prev))
        if default is not None:
            assert_same_solution(
                served_in_full(g_t, default, snap, WTS),
                served_in_full(fresh_g, fixed_topology_solution(fresh_g),
                               snap, WTS))
            load, pv = (np.array([[t[z] for z in zone_ids]])
                        for t in (snap.load_kw, snap.pv_kw))
            assert_same_partition(part, fresh_partition(fresh_g, zone_ids,
                                                        default), load, pv)
            # a closed switch is never a faulted one, so the orders built on
            # the unfaulted graph, as a run builds them, are the same
            assert_same_partition(fresh_partition(g, zone_ids, default),
                                  part, load, pv)


def test_each_fixture_event_matches_its_fresh_graph_work(scenario,
                                                         coordinator_calls):
    # decode sees each event's problem, dispatch_window each event's
    # partition order and actuals, in event order
    decoded = coordinator_calls("decode")
    dispatched = iter(coordinator_calls("dispatch_window"))
    tl = Timeline()
    flex, fixed = run(scenario, "flexible", tl), run(scenario, "fixed", tl)
    assert len(decoded) == len(flex.events) == len(fixed.events) == 16
    for r in (flex, fixed):
        prev = None
        for k, ev in enumerate(r.events):
            g_t, snap = formation_inputs(scenario, tl, k)
            if r is flex:
                assert_same_problem(decoded[k][0],
                                    build_milp(g_t, snap, WTS, prev))
            else:
                assert_same_solution(ev.solution, served_in_full(
                    g_t, fixed_topology_solution(g_t), snap, WTS))
            part, _, _, load, pv = next(dispatched)
            assert_same_partition(part, fresh_partition(g_t, r.zone_ids,
                                                        ev.solution), load, pv)
            prev = ev.solution

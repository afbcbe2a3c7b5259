import numpy as np
import pytest

from gridsplit import (
    DecodeError,
    FormationSnapshot,
    FormationWeights,
    InfeasibleTopology,
    LateralPolicy,
    SwitchEdge,
    ZoneGraph,
    ZoneNode,
    build_milp,
    decode,
    enumerate_optimal,
    fixed_topology_solution,
    is_radial_forest,
    served_in_full,
    solve_lp,
    solve_milp,
    warm_values_from_topology,
)
from gridsplit import formation
from gridsplit.netmodel import GridFormingResource

WTS = FormationWeights()


def mksnap(g, load=100.0, pv=0.0, pv_min=None, load_overrides=None):
    zones = [n.id for n in g.nodes]
    loads = {z: float(load) for z in zones}
    if load_overrides:
        loads.update(load_overrides)
    return FormationSnapshot(
        step_index=0,
        load_kw=loads,
        pv_kw={z: float(pv) for z in zones},
        pv_min_kw={z: float(v) for z, v in (pv_min or {}).items()})


def solve(g, snap, prev=None, penalty=0.1):
    wts = FormationWeights(switch_change_penalty=penalty)
    prob = build_milp(g, snap, wts, prev=prev)
    rep = solve_milp(prob.model)
    return prob, rep, decode(prob, rep)


def closed_set(sol):
    return frozenset(e for e, on in sol.switch_status.items() if on)


def test_model_dimensions(scenario):
    # all switches healthy, no lateral policies: one y per edge, one x and
    # one z pair per (vertex|edge, microgrid)
    g = scenario.graph
    g = ZoneGraph(g.nodes, g.edges, g.resources, frozenset(), ())
    prob = build_milp(g, mksnap(g), WTS)
    assert len(prob.y) == 11
    assert len(prob.x) == 20          # 10 zones x 2 microgrids
    assert len(prob.z) == 22          # 11 edges x 2 microgrids
    names = [row.name for row in prob.model.rows]
    assert "radial_count" in names


def test_objective_on_the_quiet_fixture(scenario):
    # Hand count of weighted commodity units on the optimal topology
    # {1,2,3,5,6,7,9,10}: tree 1 carries 20+10+20+10, tree 7 carries
    # 2+1+2+10, so 75 total with zero shedding.
    _, _, sol = solve(scenario.graph, mksnap(scenario.graph))
    assert sol.objective_value == pytest.approx(75.0, abs=1e-6)
    assert closed_set(sol) == frozenset({1, 2, 3, 5, 6, 7, 9, 10})
    assert sol.load_shed_term == pytest.approx(0.0, abs=1e-6)
    assert sol.assignment[10] == 1 and sol.assignment[5] == 7


def test_objective_during_the_tie_outage(scenario):
    # With the 5-6 tie faulted the best forest hands zone 5 to the
    # feeder-1 microgrid: 81 + 13 weighted units by hand count.
    g = scenario.graph.with_faulted(scenario.graph.faulted_edges | {9})
    _, _, sol = solve(g, mksnap(g))
    assert sol.objective_value == pytest.approx(94.0, abs=1e-6)
    assert closed_set(sol) == frozenset({1, 2, 3, 4, 5, 6, 7, 10})
    assert sol.assignment[5] == 1


def test_lp_relaxation_bounds_the_milp(scenario):
    prob, rep, _ = solve(scenario.graph, mksnap(scenario.graph))
    relax = solve_lp(prob.model)
    assert relax.objective <= rep.objective + 1e-6


def test_closed_count_matches_partition_identity(scenario):
    _, _, sol = solve(scenario.graph, mksnap(scenario.graph))
    # 10 zones, 2 grid-forming anchors, no load islands
    assert len(closed_set(sol)) == 8


def test_assignment_constant_within_each_tree(scenario):
    _, _, sol = solve(scenario.graph, mksnap(scenario.graph))
    assert list(sol.trees) == [1, 7]
    for anchor, tree in sol.trees.items():
        assert {sol.assignment[z] for z in tree} == {anchor}


def test_switch_assignment_products_are_exact(scenario):
    prob, rep, _ = solve(scenario.graph, mksnap(scenario.graph))
    v = rep.values
    for (eid, k), col in prob.z.items():
        e = prob.graph.edge(eid)
        want = (round(v[prob.x[e.tail, k]]) * round(v[prob.x[e.head, k]]))
        assert round(v[col]) == want
        assert abs(v[col] - want) < 1e-6


def test_mincount_policy_pins_the_lateral(scenario):
    # the feeder-1 policy keeps zones 3 and 4 on the node-1 microgrid,
    # the feeder-2 one keeps 8 and 9 on node 7
    _, _, sol = solve(scenario.graph, mksnap(scenario.graph))
    assert sol.assignment[3] == 1 and sol.assignment[4] == 1
    assert sol.assignment[8] == 7 and sol.assignment[9] == 7


def test_force_zero_reroutes_the_first_zone(scenario):
    g = scenario.graph
    g = ZoneGraph(g.nodes, g.edges, g.resources, g.faulted_edges,
                  g.lateral_policies
                  + (LateralPolicy(gfm_node_id=1, edge_id=1,
                                   force_zero=True),))
    _, _, sol = solve(g, mksnap(g))
    assert sol.commodity_flow[1] == pytest.approx(0.0, abs=1e-6)
    assert not sol.switch_status[1]
    # zone 2 survives via the 2-10 tie instead of going dark
    assert sol.assignment[2] is not None
    assert sol.switch_status[10]


def test_symmetric_snapshot_with_ties_unavailable(scenario):
    g = scenario.graph.with_faulted(scenario.graph.faulted_edges | {9, 10})
    _, _, sol = solve(g, mksnap(g))
    assert {z: sol.assignment[z] for z in range(1, 6)} == {
        z: 1 for z in range(1, 6)}
    assert {z: sol.assignment[z] for z in range(6, 11)} == {
        z: 7 for z in range(6, 11)}


def test_switch_change_penalty_prices_the_diff(scenario):
    g = scenario.graph
    base = fixed_topology_solution(g)
    _, _, sol = solve(g, mksnap(g), prev=base, penalty=0.1)
    # moving from the default to the optimal forest toggles 4 switches
    assert sol.switch_change_term == pytest.approx(0.4, abs=1e-9)
    assert sol.objective_value == pytest.approx(75.4, abs=1e-6)


@pytest.mark.parametrize("penalty", [0.0, 0.25, 1.5])
def test_decode_prices_each_toggle_at_the_weight(scenario, penalty):
    g = scenario.graph
    base = fixed_topology_solution(g)
    _, _, sol = solve(g, mksnap(g), prev=base, penalty=penalty)
    toggles = sum(on != base.switch_status[eid]
                  for eid, on in sol.switch_status.items())
    # four toggles reach the 75-unit forest; at 1.5 two of them are enough
    assert toggles == (2 if penalty > 1 else 4)
    assert sol.switch_change_term == pytest.approx(penalty * toggles, abs=1e-9)


@pytest.mark.parametrize("penalty", [-0.1, float("nan"), float("inf")])
def test_weights_reject_a_bad_switch_change_penalty(penalty):
    with pytest.raises(ValueError, match="switch_change_penalty"):
        FormationWeights(switch_change_penalty=penalty)


@pytest.mark.parametrize("field, value", [
    ("critical_flow_weight", float("nan")),
    ("default_flow_weight", float("nan")),
    ("default_flow_weight", float("inf")),
    ("shed_weight", float("nan")),
    ("shed_weight", float("inf")),
])
def test_weights_reject_a_non_finite_weight(field, value):
    with pytest.raises(ValueError, match="finite"):
        FormationWeights(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("critical_flow_weight", 1000.0),
    ("critical_flow_weight", 2000.0),
    ("default_flow_weight", 1000.0),
    ("default_flow_weight", 2000.0),
])
def test_weights_reject_a_flow_weight_not_below_shed(field, value):
    with pytest.raises(ValueError, match="dominate"):
        FormationWeights(**{field: value})


@pytest.mark.parametrize("field", ["load_kw", "pv_kw", "pv_min_kw"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0])
def test_snapshot_rejects_a_non_finite_or_negative_value(field, value):
    # an infinite load would otherwise reach the objective as inf, and a
    # load-island zone's without any column to refuse it
    values = {"load_kw": {1: 10.0, 3: 10.0}, "pv_kw": {1: 0.0, 3: 0.0},
              "pv_min_kw": {}}
    values[field][3] = value
    with pytest.raises(ValueError, match=f"zone 3: {field}"):
        FormationSnapshot(0, **values)


def test_snapshot_rejects_a_pv_floor_above_the_available_pv(scenario):
    # the floor would make the zone's p column an empty box; on a load
    # island, which has no p column, the floor would pass unchecked
    g = scenario.graph
    with pytest.raises(ValueError, match=r"zone 3: pv_min_kw 5\.0 exceeds "
                                         r"pv_kw 1\.0"):
        mksnap(g, load=10.0, pv=1.0, pv_min={3: 5.0})
    # a zone without a PV entry has no PV to take
    with pytest.raises(ValueError, match="zone 3: pv_min_kw"):
        FormationSnapshot(0, {1: 10.0, 3: 10.0}, {1: 1.0}, {3: 0.5})
    # a floor equal to the available PV is must-take PV, and builds
    build_milp(g, mksnap(g, load=10.0, pv=1.0, pv_min={3: 1.0}), WTS)


def test_large_penalty_freezes_the_topology(scenario):
    g = scenario.graph
    base = fixed_topology_solution(g)
    _, _, sol = solve(g, mksnap(g), prev=base, penalty=10.0)
    assert closed_set(sol) == frozenset(range(1, 9))
    assert sol.switch_change_term == pytest.approx(0.0)


def test_warm_start_changes_nothing_but_work(scenario):
    g = scenario.graph
    snap = mksnap(g)
    prob = build_milp(g, snap, WTS)
    cold = solve_milp(prob.model)
    base = fixed_topology_solution(g)
    warm_vals = warm_values_from_topology(
        prob, frozenset(range(1, 9)), base.assignment)
    warm = solve_milp(prob.model, warm_integer_values=warm_vals)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert warm.node_count <= cold.node_count


def test_forest_joins_each_zone_to_its_nearest_gfm(ring_island_graph):
    # an edge weighs what its head zone does: critical zone 2 is 10 units
    # from zone 1 over edge 1, 1 unit from zone 3 over tie 2; zone 4 is
    # 1 unit from both, over edge 3 and over edge 11. Nothing reaches the
    # load island
    closed, anchors = formation._shortest_path_forest(ring_island_graph, WTS)
    assert closed == {2, 3}
    assert anchors == {1: 1, 2: 3, 3: 3, 4: 3,
                       5: None, 6: None, 7: None, 8: None, 9: None}


def test_forest_breaks_distance_ties_toward_closed_switches():
    # zone 3 is 1 unit from zone 1 over tie 1 and from zone 2 over the
    # normally-closed edge 2; the lower edge id would pick the tie
    nodes = tuple(ZoneNode(i, i, False, 50.0, i < 3) for i in (1, 2, 3))
    edges = (SwitchEdge(1, 1, 3, True, 500.0),
             SwitchEdge(2, 2, 3, False, 500.0))
    res = (GridFormingResource(1, 100.0, 400.0),
           GridFormingResource(2, 100.0, 400.0))
    closed, anchors = formation._shortest_path_forest(
        ZoneGraph(nodes, edges, res), WTS)
    assert closed == {2}
    assert anchors == {1: 1, 2: 2, 3: 2}


def test_start_points_are_the_default_topology_and_the_forest(
        ring_island_graph):
    # with edge 6 out the island is a tree, the default switches form a
    # radial forest, and the two points differ; the forest is optimal, so
    # the search closes at the root
    g = ring_island_graph.with_faulted(ring_island_graph.faulted_edges | {6})
    prob = build_milp(g, mksnap(g), WTS)
    base = fixed_topology_solution(g)
    assert prob.model.starts == [
        warm_values_from_topology(prob, closed_set(base), base.assignment),
        warm_values_from_topology(prob, *formation._shortest_path_forest(g, WTS))]
    rep = solve_milp(prob.model)
    assert rep.incumbent_source == "start" and rep.node_count == 1
    assert closed_set(decode(prob, rep)) == {2, 3}
    # with the ring intact the default switches close a loop in the island
    g = ring_island_graph
    prob = build_milp(g, mksnap(g), WTS)
    assert prob.model.starts == [
        warm_values_from_topology(prob, *formation._shortest_path_forest(g, WTS))]


def test_equal_start_points_are_kept_once():
    # one feeder: the default topology is the forest
    nodes = tuple(ZoneNode(i, 1, False, 50.0, i == 1) for i in (1, 2, 3))
    edges = (SwitchEdge(1, 1, 2, False, 500.0),
             SwitchEdge(2, 2, 3, False, 500.0))
    g = ZoneGraph(nodes, edges, (GridFormingResource(1, 100.0, 400.0),))
    prob = build_milp(g, mksnap(g), WTS)
    assert prob.model.starts == [
        warm_values_from_topology(prob, {1, 2}, {1: 1, 2: 1, 3: 1})]


def test_island_zone_is_unassigned(scenario):
    g = scenario.graph.with_faulted(scenario.graph.faulted_edges | {4, 9})
    _, _, sol = solve(g, mksnap(g))
    assert sol.assignment[5] is None
    assert len(closed_set(sol)) == 7  # 10 - 2 anchors - 1 island
    assert sol.served_load_kw[5] == pytest.approx(0.0)


@pytest.mark.parametrize("extra_fault", [(), (6,)], ids=["ring", "tree"])
def test_load_island_gets_no_columns(ring_island_graph, extra_fault):
    # zones 5-9 and edges 4-8 lie behind the faulted edge 10: the model
    # covers zones 1-4 and edges 1-3 and 11 only, whether or not the
    # island holds the ring 5-6-7-8
    g = ring_island_graph
    g = g.with_faulted(g.faulted_edges | set(extra_fault))
    prob = build_milp(g, mksnap(g), WTS)
    assert g.island_zones == {5, 6, 7, 8, 9}
    assert sorted(prob.y) == sorted(prob.t) == sorted(prob.fp) == [1, 2, 3, 11]
    assert sorted(prob.d) == [1, 2, 3, 4]
    assert {i for i, _ in prob.x} == {1, 2, 3, 4}
    assert (prob.model.n_variables, prob.model.n_constraints) == (44, 53)
    row = next(r for r in prob.model.rows if r.name == "radial_count")
    assert row.rhs == 2.0     # 4 zones less 2 grid-forming zones


def test_island_ring_solves_to_the_oracle_and_highs_optimum(
        ring_island_graph, highs):
    # the island's 500 kW is shed whatever the switches do; the forest
    # {2, 3} feeds zones 2-4 from zone 3 at 1 + 1 flow units
    g = ring_island_graph
    prob, rep, sol = solve(g, mksnap(g))
    assert rep.objective == pytest.approx(500002.0, abs=1e-6)
    assert closed_set(sol) == {2, 3}
    assert all(sol.assignment[z] is None and sol.served_load_kw[z] == 0.0
               for z in (5, 6, 7, 8, 9))
    assert sol.load_shed_term == pytest.approx(500000.0, abs=1e-6)
    by_oracle = enumerate_optimal(g, mksnap(g), WTS)
    assert by_oracle.objective_value == pytest.approx(rep.objective, abs=1e-6)
    assert closed_set(by_oracle) == {2, 3}
    reference = highs(prob.model)
    assert reference is not None
    assert reference == pytest.approx(rep.objective, abs=1e-6)


def test_closed_island_switch_counts_as_one_change(ring_island_graph):
    # the previous partition held island edges 4, 5, 7 and 8 closed; they
    # have no column now and are reported open, so each is one change, as a
    # faulted edge would be, in the model's offset and in decode alike
    g = ring_island_graph
    prev = fixed_topology_solution(g.with_faulted(g.faulted_edges | {6}))
    assert closed_set(prev) == {1, 3, 4, 5, 7, 8}
    _, rep, sol = solve(g, mksnap(g), prev=prev, penalty=0.25)
    # edge 1 opens, tie 2 closes, island edges 4, 5, 7 and 8 open
    assert closed_set(sol) == {2, 3}
    assert sol.switch_change_term == pytest.approx(6 * 0.25, abs=1e-9)
    assert rep.objective == pytest.approx(500002.0 + 6 * 0.25, abs=1e-6)


def test_scarcity_forces_shedding(scenario):
    # 2000 kW per zone exceeds the 13 MW of combined source capacity
    _, _, sol = solve(scenario.graph, mksnap(scenario.graph, load=2000.0))
    assert sol.load_shed_term > 0
    served = sum(sol.served_load_kw.values())
    assert served <= 13000.0 + 1e-6


def test_overlong_mincount_raises_at_build(scenario):
    g = scenario.graph
    g = ZoneGraph(g.nodes, g.edges, g.resources, g.faulted_edges,
                  (LateralPolicy(gfm_node_id=1, edge_id=1,
                                 min_downstream_nodes=9),))
    with pytest.raises(InfeasibleTopology):
        build_milp(g, mksnap(g), WTS)


def test_faulted_policy_edge_raises_at_build(scenario):
    g = scenario.graph
    g = ZoneGraph(g.nodes, g.edges, g.resources,
                  g.faulted_edges | frozenset({2}), g.lateral_policies)
    with pytest.raises(InfeasibleTopology):
        build_milp(g, mksnap(g), WTS)


def test_near_half_binary_fails_decode(scenario):
    prob, rep, _ = solve(scenario.graph, mksnap(scenario.graph))
    bad = rep.values.copy()
    bad[next(iter(prob.y.values()))] = 0.4999999
    rep.values = bad
    with pytest.raises(DecodeError):
        decode(prob, rep)


def test_decoded_assignment_matches_binary_argmax(scenario):
    prob, rep, sol = solve(scenario.graph, mksnap(scenario.graph))
    gfms = prob.graph.gfm_nodes
    for i in (n.id for n in prob.graph.nodes):
        k = int(np.argmax([rep.values[prob.x[i, j]] for j in gfms]))
        assert sol.assignment[i] == gfms[k]


def test_fixed_topology_on_the_fixture(scenario):
    g = scenario.graph
    sol = served_in_full(g, fixed_topology_solution(g), mksnap(g), WTS)
    assert closed_set(sol) == frozenset(range(1, 9))
    assert sol.trees == {1: frozenset({1, 2, 3, 4, 5}),
                         7: frozenset({6, 7, 8, 9, 10})}
    # by-hand weighted commodity units on the default forest
    assert sol.flow_term == pytest.approx(95.0, abs=1e-9)
    check = is_radial_forest(scenario.graph, closed_set(sol))
    assert check.is_radial


def test_a_snapshot_missing_a_zone_is_refused_by_both_pricings(scenario):
    # the model and the default topology's pricing name the zone alike
    g = scenario.graph
    full = mksnap(g)
    snap = FormationSnapshot(
        0, {z: v for z, v in full.load_kw.items() if z != 10},
        {z: v for z, v in full.pv_kw.items() if z != 10})
    with pytest.raises(formation.ModelError, match="snapshot missing zone 10"):
        build_milp(g, snap, WTS)
    with pytest.raises(formation.ModelError, match="snapshot missing zone 10"):
        served_in_full(g, fixed_topology_solution(g), snap, WTS)


def test_fixed_topology_rejects_a_looped_default(scenario):
    g = scenario.graph
    extra = SwitchEdge(12, 2, 3, False, 6000.0)
    looped = ZoneGraph(g.nodes, g.edges + (extra,), g.resources,
                       g.faulted_edges, g.lateral_policies)
    with pytest.raises(InfeasibleTopology, match="loop"):
        fixed_topology_solution(looped)


def test_fixed_topology_single_feeder():
    nodes = tuple(ZoneNode(i, 1, False, 50.0, i == 1) for i in (1, 2, 3))
    edges = (SwitchEdge(1, 1, 2, False, 500.0),
             SwitchEdge(2, 2, 3, False, 500.0))
    res = (GridFormingResource(1, 100.0, 400.0),)
    g = ZoneGraph(nodes, edges, res)
    sol = fixed_topology_solution(g)
    assert sol.trees == {1: frozenset({1, 2, 3})}


def test_fixed_topology_leaves_cut_zones_dark(scenario):
    g = scenario.graph.with_faulted(scenario.graph.faulted_edges | {4, 9})
    sol = served_in_full(g, fixed_topology_solution(g), mksnap(g), WTS)
    assert sol.assignment[5] is None
    assert sol.served_load_kw[5] == pytest.approx(0.0)


def test_flow_limits_bind(scenario):
    # squeeze every switch to 180 kW: at 100 kW per zone no tree edge may
    # feed more than one downstream zone, which is impossible for a
    # five-zone feeder, so some load must shed
    g = scenario.graph
    edges = tuple(SwitchEdge(e.id, e.tail, e.head, e.normally_open, 180.0)
                  for e in g.edges)
    tight = ZoneGraph(g.nodes, edges, g.resources, g.faulted_edges,
                      g.lateral_policies)
    prob, rep, sol = solve(tight, mksnap(tight))
    assert sol.load_shed_term > 0
    for col in prob.t.values():
        assert abs(rep.values[col]) <= 180.0 + 1e-6

import itertools

import numpy as np
import pytest

from gridsplit import (
    FormationSnapshot,
    FormationWeights,
    GridFormingResource,
    GuardExceeded,
    InfeasibleTopology,
    LateralPolicy,
    SolveStatus,
    SwitchEdge,
    ZoneGraph,
    ZoneNode,
    build_milp,
    decode,
    enumerate_optimal,
    is_radial_forest,
    solve_milp,
    warm_values_from_topology,
)
from gridsplit import oracle
from gridsplit.milp import _solve_lp_arrays
from gridsplit.oracle import _policies_hold, _price

WTS = FormationWeights()


def snap_from(rng, scenario):
    """Load in [0.5, 1.5] x zone peak, PV in [0, 1] x a 400 kW rating."""
    zones = sorted(n.id for n in scenario.graph.nodes)
    peaks = {n.id: n.peak_load_kw for n in scenario.graph.nodes}
    return FormationSnapshot(
        step_index=0,
        load_kw={z: float(peaks[z] * rng.uniform(0.5, 1.5)) for z in zones},
        pv_kw={z: float(rng.uniform(0.0, 400.0)) for z in zones})


def test_matches_branch_and_bound_on_random_snapshots(scenario):
    rng = np.random.default_rng(7)
    for _ in range(8):
        snap = snap_from(rng, scenario)
        prob = build_milp(scenario.graph, snap, WTS)
        fast = decode(prob, solve_milp(prob.model))
        slow = enumerate_optimal(scenario.graph, snap, WTS)
        assert fast.objective_value == pytest.approx(
            slow.objective_value, rel=1e-6, abs=1e-6)


def test_agrees_through_a_fault(scenario):
    g = scenario.graph.with_faulted(scenario.graph.faulted_edges | {9})
    snap = snap_from(np.random.default_rng(11), scenario)
    prob = build_milp(g, snap, WTS)
    fast = decode(prob, solve_milp(prob.model))
    slow = enumerate_optimal(g, snap, WTS)
    assert fast.objective_value == pytest.approx(slow.objective_value,
                                                 rel=1e-6)
    assert fast.assignment == slow.assignment


def test_census_of_candidate_subsets(scenario):
    # 8 closed switches drawn from 11 healthy edges is 165 subsets; the
    # radiality and lateral filters leave 9, a count stable across runs
    g = scenario.graph.with_faulted(frozenset())
    edge_ids = [e.id for e in g.active_edges()]
    combos = list(itertools.combinations(edge_ids, 8))
    assert len(combos) == 165

    def census():
        return sum(1 for c in combos
                   if is_radial_forest(g, frozenset(c)).is_radial
                   and _policies_hold(g, frozenset(c)))

    assert census() == 9
    assert census() == census()


def test_without_ties_the_default_forest_is_the_only_candidate(scenario):
    g = scenario.graph.with_faulted(scenario.graph.faulted_edges | {9, 10})
    sol = enumerate_optimal(g, snap_from(np.random.default_rng(3), scenario),
                            WTS)
    closed = {e for e, on in sol.switch_status.items() if on}
    assert closed == set(range(1, 9))
    edge_ids = [e.id for e in g.active_edges()]
    feasible = [frozenset(c) for c in itertools.combinations(edge_ids, 8)
                if is_radial_forest(g, frozenset(c)).is_radial]
    assert feasible == [frozenset(range(1, 9))]


def test_no_feasible_partition_raises(scenario):
    # sealing the trunk lateral while the 2-10 tie is out leaves zone 2
    # unreachable by any closed set
    g = scenario.graph
    g = ZoneGraph(g.nodes, g.edges, g.resources, g.faulted_edges | {10},
                  g.lateral_policies
                  + (LateralPolicy(gfm_node_id=1, edge_id=1,
                                   force_zero=True),))
    with pytest.raises(InfeasibleTopology):
        enumerate_optimal(g, snap_from(np.random.default_rng(5), scenario),
                          WTS)


def chain(n, faulted=()):
    """Zones 1..n in a row, edge i joining i and i + 1, the GFM at zone 1,
    with a 1-kW load and no PV at every zone."""
    nodes = tuple(ZoneNode(i, 1, False, 10.0, i == 1) for i in range(1, n + 1))
    edges = tuple(SwitchEdge(i, i, i + 1, False, 100.0)
                  for i in range(1, n))
    g = ZoneGraph(nodes, edges, (GridFormingResource(1, 50.0, 100.0),),
                  frozenset(faulted))
    snap = FormationSnapshot(0, {i: 1.0 for i in range(1, n + 1)},
                             {i: 0.0 for i in range(1, n + 1)})
    return g, snap


def test_guard_refuses_large_graphs():
    g, snap = chain(23)
    with pytest.raises(GuardExceeded):
        enumerate_optimal(g, snap, WTS)


def test_guard_counts_switch_decisions_not_island_edges():
    # edge 3 out leaves 23 active edges, but zones 4-25 form a load island:
    # the model decides edges 1 and 2 only, and sheds the island's 22 kW
    g, snap = chain(25, faulted={3})
    assert len(g.active_edges()) == 23
    sol = enumerate_optimal(g, snap, WTS)
    assert sol.objective_value == pytest.approx(22003.0)
    prob = build_milp(g, snap, WTS)
    assert sorted(prob.y) == [1, 2]
    assert decode(prob, solve_milp(prob.model)).objective_value == \
        pytest.approx(sol.objective_value, rel=1e-9)


def candidates(g, prob):
    """Radial closed sets of the model's switches that meet the policies,
    with their trees."""
    for combo in itertools.combinations(prob.y, len(prob.d) - len(g.gfm_nodes)):
        check = is_radial_forest(g, frozenset(combo))
        if check.is_radial and _policies_hold(g, frozenset(combo)):
            yield frozenset(combo), check.trees


def must_take_snap(rng, scenario):
    """Loads as in ``snap_from``, PV in [0, 1600] kW that must all be taken,
    so that some microgrids cannot absorb their PV."""
    snap = snap_from(rng, scenario)
    pv = {z: float(rng.uniform(0.0, 1600.0)) for z in snap.pv_kw}
    return FormationSnapshot(0, snap.load_kw, pv, dict(pv))


def test_graph_prices_match_the_model_lp(scenario):
    # the reference: the model's own LP with the integer columns fixed at
    # each candidate, solved cold
    g = scenario.graph
    rejected = priced = 0
    rng = np.random.default_rng(13)
    for graph in (g, g.with_faulted(g.faulted_edges | {9})):
        for snap in [f(rng, scenario) for f in (snap_from, must_take_snap)
                     for _ in range(3)]:
            prob = build_milp(graph, snap, WTS)
            a, senses, b, lower, upper, cost = prob.model.dense()
            for closed, trees in candidates(graph, prob):
                fixed = warm_values_from_topology(
                    prob, closed, {z: j for j, tree in trees.items() for z in tree})
                lo, hi = lower.copy(), upper.copy()
                lo[list(fixed)] = hi[list(fixed)] = list(fixed.values())
                status, _, x = _solve_lp_arrays(a, senses, b, lo, hi, cost)
                by_graph = _price(prob, closed, trees, {})
                assert (by_graph is None) == (status is not SolveStatus.OPTIMAL)
                if by_graph is None:
                    rejected += 1
                    continue
                priced += 1
                assert by_graph[0] == pytest.approx(
                    float(cost @ x) + prob.model.offset, rel=1e-9)
    assert rejected > 0 and priced > 0


def test_each_distinct_tree_is_priced_once(monkeypatch):
    # zones 1-7 in a row fed by grid-forming zones 1, 4 and 7: each of the
    # two stretches between them opens one of its three edges, so 9
    # candidates hold 27 trees, of which 3 + 9 + 3 are distinct
    nodes = tuple(ZoneNode(i, 1, False, 10.0, i in (1, 4, 7)) for i in range(1, 8))
    edges = tuple(SwitchEdge(i, i, i + 1, False, 100.0) for i in range(1, 7))
    g = ZoneGraph(nodes, edges, tuple(GridFormingResource(i, 50.0, 100.0)
                                      for i in (1, 4, 7)))
    snap = FormationSnapshot(0, dict.fromkeys(range(1, 8), 1.0),
                             dict.fromkeys(range(1, 8), 0.0))
    assert len(list(candidates(g, build_milp(g, snap, WTS)))) == 9
    lps = []
    solve = oracle._solve_lp_arrays
    monkeypatch.setattr(oracle, "_solve_lp_arrays",
                        lambda *args: lps.append(args) or solve(*args))
    enumerate_optimal(g, snap, WTS)
    assert len(lps) == 15


def line3(limits, battery_kw, diesel_kw=0.0, pv=None, pv_min=None):
    """Zones 1-2-3 in a row under the given edge flow limits, fed by the
    grid-forming zone 1, each with a 10-kW load; no zone is critical, so
    the flow term of the closed line is 2 + 1."""
    nodes = tuple(ZoneNode(i, 1, False, 10.0, i == 1) for i in (1, 2, 3))
    edges = (SwitchEdge(1, 1, 2, False, limits[0]),
             SwitchEdge(2, 2, 3, False, limits[1]))
    g = ZoneGraph(nodes, edges,
                  (GridFormingResource(1, battery_kw, 100.0,
                                       diesel_power_kw=diesel_kw),))
    snap = FormationSnapshot(0, dict.fromkeys((1, 2, 3), 10.0),
                             {1: 0.0, 2: 0.0, 3: 0.0, **(pv or {})}, pv_min or {})
    return g, snap


def test_an_edge_limit_caps_the_load_beyond_it():
    # edge 2 carries at most 4 kW to zone 3: 6 kW shed
    g, snap = line3((100.0, 4.0), 100.0)
    sol = enumerate_optimal(g, snap, WTS)
    assert sol.served_load_kw == pytest.approx({1: 10.0, 2: 10.0, 3: 4.0})
    assert sol.objective_value == pytest.approx(6003.0, rel=1e-12)


def test_the_injection_limit_caps_the_microgrid():
    # 12 kW of battery, 5 of diesel and zone 3's 4 kW of PV serve 21 kW
    g, snap = line3((100.0, 100.0), 12.0, diesel_kw=5.0, pv={3: 4.0})
    sol = enumerate_optimal(g, snap, WTS)
    assert sum(sol.served_load_kw.values()) == pytest.approx(21.0)
    assert sol.objective_value == pytest.approx(9003.0, rel=1e-12)


def test_a_pv_floor_beyond_the_battery_makes_the_tree_infeasible():
    # 30 kW of load and a 5-kW battery absorb up to 35 kW of PV
    g, snap = line3((100.0, 100.0), 5.0, pv={3: 40.0}, pv_min={3: 35.0})
    assert enumerate_optimal(g, snap, WTS).objective_value == 3.0
    g, snap = line3((100.0, 100.0), 5.0, pv={3: 40.0}, pv_min={3: 36.0})
    with pytest.raises(InfeasibleTopology):
        enumerate_optimal(g, snap, WTS)
    assert solve_milp(build_milp(g, snap, WTS).model).status \
        is SolveStatus.INFEASIBLE


@pytest.mark.blas_threads
def test_a_one_source_ring_opens_a_switch_inside_its_microgrid(
        four_zone_ring, highs):
    # each radial forest of the ring leaves one switch open between two
    # zones of the one microgrid; closing edges 1, 2 and 4, or 1, 3 and 4,
    # costs a flow term of 2 + 1 + 1, and the oracle keeps the first it
    # meets. The oracle, branch and bound and HiGHS all reach 4.0
    g = four_zone_ring
    snap = FormationSnapshot(0, dict.fromkeys(range(1, 5), 50.0),
                             dict.fromkeys(range(1, 5), 0.0))
    by_oracle = enumerate_optimal(g, snap, WTS)
    assert by_oracle.closed == {1, 2, 4}
    assert by_oracle.objective_value == pytest.approx(4.0, abs=1e-9)
    prob = build_milp(g, snap, WTS)
    by_search = decode(prob, solve_milp(prob.model))
    assert by_search.objective_value == pytest.approx(4.0, abs=1e-6)
    assert highs(prob.model) == pytest.approx(4.0, abs=1e-6)


@pytest.mark.blas_threads
def test_two_ties_bypassing_both_roots_open_a_switch_inside_a_microgrid(highs):
    # feeders 1-2-3 and 4-5-6 under the grid-forming zones 1 and 4, joined
    # by the normally-open ties 2-5 (edge 5) and 3-6 (edge 6). Zone 4's
    # 60-kW battery cannot serve 5 or 6, so zone 1's feeds both over both
    # ties or over one tie and the line 5-6; either way one switch stays
    # open between two zones of microgrid 1, and nothing is shed at a flow
    # term of 4 + 2 + 1 + 1 or 4 + 1 + 2 + 1
    nodes = tuple(ZoneNode(i, 1 if i < 4 else 2, False, 100.0, i in (1, 4))
                  for i in range(1, 7))
    spans = {1: (1, 2), 2: (2, 3), 3: (4, 5), 4: (5, 6), 5: (2, 5), 6: (3, 6)}
    edges = tuple(SwitchEdge(eid, t, h, eid > 4, 1000.0)
                  for eid, (t, h) in spans.items())
    g = ZoneGraph(nodes, edges, (GridFormingResource(1, 500.0, 2000.0),
                                 GridFormingResource(4, 60.0, 2000.0)))
    snap = FormationSnapshot(0, {1: 0.0, 2: 100.0, 3: 100.0, 4: 0.0,
                                 5: 100.0, 6: 100.0}, dict.fromkeys(range(1, 7), 0.0))
    prob = build_milp(g, snap, WTS)
    by_search = decode(prob, solve_milp(prob.model))
    # the two searches may pick different closed sets of the same price
    by_oracle = enumerate_optimal(g, snap, WTS)
    for sol in (by_search, by_oracle):
        assert sol.objective_value == pytest.approx(8.0, abs=1e-6)
        assert sol.load_shed_term == pytest.approx(0.0, abs=1e-6)
    assert highs(prob.model) == pytest.approx(8.0, abs=1e-6)
    inside = [eid for eid, (t, h) in spans.items()
              if eid not in by_search.closed
              and by_search.assignment[t] == by_search.assignment[h] == 1]
    assert len(inside) == 1

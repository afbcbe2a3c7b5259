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
    SwitchEdge,
    ZoneGraph,
    ZoneNode,
    build_milp,
    decode,
    enumerate_optimal,
    is_radial_forest,
    solve_milp,
)
from gridsplit.oracle import _policies_hold

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

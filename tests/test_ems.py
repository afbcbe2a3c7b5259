import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsplit import (
    GridFormingResource,
    MicrogridState,
    PartitionOrder,
    SwitchEdge,
    ZoneGraph,
    ZoneNode,
    build_schedule,
    dispatch_window,
    service_order,
)
from gridsplit.ems import TopologyMismatch

BALANCE = 1e-9


def chain_microgrid(n_zones, criticals=(), battery_kw=3000.0,
                    battery_kwh=12000.0, diesel_kw=0.0, fuel_kwh=0.0):
    """Zones 1..n in a line, grid-forming battery at zone 1."""
    nodes = tuple(ZoneNode(i, 1, i in criticals, 100.0, i == 1)
                  for i in range(1, n_zones + 1))
    edges = tuple(SwitchEdge(i, i, i + 1, False, 1e6)
                  for i in range(1, n_zones))
    res = GridFormingResource(1, battery_kw, battery_kwh,
                              diesel_power_kw=diesel_kw,
                              diesel_fuel_kwh=fuel_kwh)
    g = ZoneGraph(nodes, edges, (res,))
    order = service_order(g, set(range(1, n_zones + 1)), 1,
                          frozenset(range(1, n_zones)))
    state = MicrogridState(res, battery_kwh, fuel_kwh)
    return g, order, state


def flat(v, n=6):
    return [float(v)] * n


def prof(order, table):
    """(rows x members) array of per-zone profiles, in member order."""
    return np.array([table[z] for z in order.members], dtype=float).T


def lone_window(state, plan, load, pv, **kwargs):
    """One microgrid's event: its plan dispatched on its own members' axis."""
    order = plan.order
    return dispatch_window(PartitionOrder(order.members, (order,)), [state],
                           [plan], load, pv, **kwargs)


class TestServiceOrder:
    def test_fixture_feeder_two_ranking(self, scenario):
        order = service_order(scenario.graph, {6, 7, 8, 9, 10}, 7,
                              frozenset({5, 6, 7, 8}))
        # criticals 7, 9, 10 by distance, then the rest by distance
        assert order.ranked == (7, 9, 10, 6, 8)
        assert {z: len(p) for z, p in order.path_zones.items()} \
            == {7: 0, 6: 1, 8: 1, 9: 2, 10: 3}

    def test_feed_paths_exclude_the_source(self, scenario):
        order = service_order(scenario.graph, {6, 7, 8, 9, 10}, 7,
                              frozenset({5, 6, 7, 8}))
        assert order.path_zones[10] == frozenset({8, 9, 10})
        assert order.path_zones[7] == frozenset()

    def test_unreachable_member_raises(self, scenario):
        with pytest.raises(TopologyMismatch, match="unreachable"):
            service_order(scenario.graph, {6, 7, 8, 9, 10}, 7,
                          frozenset({5, 6, 7}))

    def test_source_must_be_a_member(self, scenario):
        with pytest.raises(TopologyMismatch):
            service_order(scenario.graph, {6, 8}, 7, frozenset())


class TestSchedule:
    def test_flat_load_draws_battery_linearly(self):
        _, order, state = chain_microgrid(1)
        plan = build_schedule(state, order, prof(order, {1: flat(100.0, 48)}),
                              prof(order, {1: flat(0.0, 48)}))
        assert all(c == (1,) for c in plan.committed)
        assert state.soc_kwh == 12000.0  # projections leave live state alone
        # 100 kW for five minutes is 25/3 kWh out of the battery each step
        win = lone_window(state, plan, prof(order, {1: flat(100.0)}),
                          prof(order, {1: flat(0.0)}))
        assert np.allclose(win.soc_kwh[:, 0],
                           12000.0 - 25.0 / 3.0 * np.arange(1, 7))

    def test_projected_energy_runs_out(self):
        # 100 kW for half an hour is 50 kWh a slot: 500 kWh lasts 10 slots
        _, order, state = chain_microgrid(1, battery_kw=100.0,
                                          battery_kwh=500.0)
        plan = build_schedule(state, order, prof(order, {1: flat(100.0, 12)}),
                              prof(order, {1: flat(0.0, 12)}))
        assert plan.committed == ((1,),) * 10 + ((),) * 2

    def test_zero_resources_commits_nothing(self):
        _, order, state = chain_microgrid(2, battery_kwh=500.0)
        state.soc_kwh = 0.0
        load = prof(order, {1: flat(50.0), 2: flat(50.0)})
        pv = prof(order, {1: flat(0.0), 2: flat(0.0)})
        plan = build_schedule(state, order, load, pv)
        assert all(c == () for c in plan.committed)
        win = lone_window(state, plan, load, pv)
        assert np.all(win.served_kw == 0.0)

    def test_fixture_feeder_two_day_two_offpeak_full_commit(self, scenario):
        order = service_order(scenario.graph, {6, 7, 8, 9, 10}, 7,
                              frozenset({5, 6, 7, 8}))
        res = scenario.graph.resource_at(7)
        state = MicrogridState(res, res.battery_energy_kwh,
                               res.diesel_fuel_kwh)
        day2 = slice(288, 576)
        loads = {z: scenario.load_kw[z][day2].reshape(48, 6).mean(axis=1)
                 for z in order.members}
        pv = {z: scenario.pv_kw[z][day2].reshape(48, 6).mean(axis=1)
              for z in order.members}
        plan = build_schedule(state, order, prof(order, loads),
                              prof(order, pv))
        for slot in range(0, 12):  # midnight to 06:00, low load
            assert set(plan.committed[slot]) == {6, 7, 8, 9, 10}

    def test_surplus_charges_with_efficiency(self):
        _, order, state = chain_microgrid(1, battery_kw=500.0,
                                          battery_kwh=1000.0)
        state.soc_kwh = 0.0
        plan = build_schedule(state, order, prof(order, {1: flat(0.0, 1)}),
                              prof(order, {1: flat(200.0, 1)}))
        win = lone_window(state, plan, prof(order, {1: flat(0.0)}),
                          prof(order, {1: flat(200.0)}))
        assert np.allclose(win.battery_kw, -200.0)
        assert state.soc_kwh == pytest.approx(200.0 * 0.5 * 0.95)


class TestDispatch:
    def test_actuals_equal_forecast_reproduces_the_plan(self):
        _, order, state = chain_microgrid(3, criticals={2},
                                          battery_kw=400.0,
                                          diesel_kw=100.0, fuel_kwh=500.0)
        loads = {1: flat(90.0, 2), 2: flat(80.0, 2), 3: flat(70.0, 2)}
        pv = {1: flat(10.0, 2), 2: flat(0.0, 2), 3: flat(25.0, 2)}
        plan = build_schedule(state, order, prof(order, loads),
                              prof(order, pv))
        win = lone_window(
            state, plan,
            prof(order, {z: flat(loads[z][0]) for z in order.members}),
            prof(order, {z: flat(pv[z][0]) for z in order.members}))
        assert (win.committed
                == [[z in plan.committed[0] for z in win.zones]]).all()
        assert win.shed_zones == ()

    def test_pv_spike_on_a_full_battery_curtails(self):
        _, order, state = chain_microgrid(1, battery_kw=500.0,
                                          battery_kwh=1000.0)
        plan = build_schedule(state, order, prof(order, {1: flat(0.0, 1)}),
                              prof(order, {1: flat(0.0, 1)}))
        win = lone_window(state, plan, prof(order, {1: flat(0.0)}),
                          prof(order, {1: flat(500.0)}))
        assert np.all(win.pv_used_kw == 0.0)       # nowhere to put it
        assert np.all(win.soc_kwh == 1000.0)
        balance = (win.served_kw.sum(axis=1) - win.pv_used_kw.sum(axis=1)
                   - win.battery_kw[:, 0] - win.diesel_kw[:, 0])
        assert np.all(np.abs(balance) <= BALANCE)

    def test_load_spike_sheds_the_lowest_rank_immediately(self):
        _, order, state = chain_microgrid(2, criticals={1},
                                          battery_kw=100.0)
        plan = build_schedule(state, order,
                              prof(order, {1: flat(50.0, 1), 2: flat(40.0, 1)}),
                              prof(order, {1: flat(0.0, 1), 2: flat(0.0, 1)}))
        actual_load = {1: flat(50.0), 2: [500.0] + flat(40.0, 5)}
        win = lone_window(state, plan, prof(order, actual_load),
                          prof(order, {1: flat(0.0), 2: flat(0.0)}))
        assert win.shed_zones == (2,)
        c1, c2 = 0, 1
        assert win.unserved_kw[0, c2] == pytest.approx(500.0)
        assert win.served_kw[0, c1] == pytest.approx(50.0)
        # the shed zone stays off for the rest of the window
        assert not win.committed[:, c2].any()
        assert win.committed[:, c1].all()

    def test_blocked_zone_sits_out_exactly_one_step(self):
        _, order, state = chain_microgrid(2)
        plan = build_schedule(state, order,
                              prof(order, {1: flat(50.0, 1), 2: flat(40.0, 1)}),
                              prof(order, {1: flat(0.0, 1), 2: flat(0.0, 1)}))
        win = lone_window(state, plan,
                          prof(order, {1: flat(50.0), 2: flat(40.0)}),
                          prof(order, {1: flat(0.0), 2: flat(0.0)}),
                          blocked_first_step=frozenset({2}))
        assert not win.committed[0, 1]
        assert win.unserved_kw[0, 1] == pytest.approx(40.0)
        assert win.committed[1:, 1].all()

    def test_pass_through_zone_is_energized_but_unserved(self):
        # zone 2 off (no capacity for it) while zone 3 beyond it is served
        _, order, state = chain_microgrid(3, criticals={3},
                                          battery_kw=120.0)
        plan = build_schedule(state, order,
                              prof(order, {1: flat(60.0, 1), 2: flat(500.0, 1),
                                           3: flat(50.0, 1)}),
                              prof(order, {z: flat(0.0, 1) for z in (1, 2, 3)}))
        assert set(plan.committed[0]) == {1, 3}
        win = lone_window(
            state, plan,
            prof(order, {1: flat(60.0), 2: flat(500.0), 3: flat(50.0)}),
            prof(order, {z: flat(0.0) for z in (1, 2, 3)}))
        c2 = 1
        assert win.energized[:, c2].all()
        assert not win.committed[:, c2].any()
        assert np.all(win.unserved_kw[:, c2] == 500.0)

    def test_dispatch_mutates_the_live_state(self):
        _, order, state = chain_microgrid(1)
        plan = build_schedule(state, order, prof(order, {1: flat(100.0, 1)}),
                              prof(order, {1: flat(0.0, 1)}))
        lone_window(state, plan, prof(order, {1: flat(100.0)}),
                    prof(order, {1: flat(0.0)}))
        assert state.soc_kwh == pytest.approx(12000.0 - 50.0)

    def test_a_shed_zone_returns_at_the_next_slot(self):
        _, order, state = chain_microgrid(2, criticals={1},
                                          battery_kw=100.0)
        plan = build_schedule(state, order,
                              prof(order, {1: flat(50.0, 2), 2: flat(40.0, 2)}),
                              prof(order, {1: flat(0.0, 2), 2: flat(0.0, 2)}))
        assert plan.committed == ((1, 2), (1, 2))
        actual_load = {1: flat(50.0, 12),
                       2: [500.0] + flat(40.0, 6) + [500.0] + flat(40.0, 4)}
        win = lone_window(state, plan, prof(order, actual_load),
                          prof(order, {1: flat(0.0, 12), 2: flat(0.0, 12)}))
        # shed at the first step, off for the rest of the slot, back on at
        # the next slot's first step and shed again at its second
        assert win.shed_zones == (2, 2)
        assert win.committed[:, 1].tolist() \
            == [False] * 6 + [True] + [False] * 5
        assert win.served_kw.shape == (12, 2)
        assert win.committed[:, 0].all()

    @pytest.mark.parametrize("n_steps", [5, 7, 18])
    def test_actuals_must_cover_whole_planned_slots(self, n_steps):
        _, order, state = chain_microgrid(1)
        plan = build_schedule(state, order, prof(order, {1: flat(100.0, 2)}),
                              prof(order, {1: flat(0.0, 2)}))
        with pytest.raises(ValueError, match="whole number of at most 2"):
            lone_window(state, plan, prof(order, {1: flat(100.0, n_steps)}),
                        prof(order, {1: flat(0.0, n_steps)}))
        assert state.soc_kwh == 12000.0

    def test_actuals_must_have_one_column_per_member(self):
        _, order, state = chain_microgrid(2)
        plan = build_schedule(state, order,
                              prof(order, {1: flat(50.0, 1), 2: flat(40.0, 1)}),
                              prof(order, {1: flat(0.0, 1), 2: flat(0.0, 1)}))
        with pytest.raises(ValueError, match="2 zones"):
            lone_window(state, plan, np.zeros((6, 1)), np.zeros((6, 2)))
        with pytest.raises(ValueError, match="2 members"):
            build_schedule(state, order, np.zeros((1, 2)), np.zeros((2, 2)))


class TestMicrogridState:
    @pytest.mark.parametrize("fuel", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_non_finite_fuel_is_refused(self, fuel):
        _, _, state = chain_microgrid(1)
        with pytest.raises(ValueError, match="fuel"):
            MicrogridState(state.resource, 100.0, fuel)

    def test_negative_fuel_is_refused(self):
        _, _, state = chain_microgrid(1)
        with pytest.raises(ValueError, match="fuel"):
            MicrogridState(state.resource, 100.0, -1.0)


class TestPartitionOrder:
    def test_microgrids_must_be_disjoint_zones_of_the_axis(self, scenario):
        left = service_order(scenario.graph, {1, 2}, 1, frozenset({1}))
        right = service_order(scenario.graph, {6, 7}, 7, frozenset({5}))
        with pytest.raises(ValueError, match="disjoint"):
            PartitionOrder((1, 2, 3), (left, left))
        with pytest.raises(ValueError, match="disjoint"):
            PartitionOrder((1, 2, 3), (left, right))

    def test_zones_in_no_microgrid_read_the_sentinel(self, scenario):
        order = service_order(scenario.graph, {6, 7}, 7, frozenset({5}))
        part = PartitionOrder((7, 3, 6), (order,))
        assert part.owner.tolist() == [0, 1, 0]
        assert part.position.tolist() == [0, 0, 1]
        assert part.anchors.tolist() == [0]

    def test_an_event_without_microgrids_serves_nothing(self):
        load = np.arange(18.0).reshape(6, 3)
        win = dispatch_window(PartitionOrder((1, 2, 3), ()), [], [], load,
                              np.ones((6, 3)))
        assert np.array_equal(win.unserved_kw, load)
        assert not (win.served_kw.any() or win.pv_used_kw.any()
                    or win.committed.any() or win.energized.any())
        assert win.battery_kw.shape == (6, 0)

    def test_states_and_plans_must_match_the_microgrids(self):
        _, order, state = chain_microgrid(2)
        plan = build_schedule(state, order, np.zeros((1, 2)),
                              np.zeros((1, 2)))
        part = PartitionOrder(order.members, (order,))
        with pytest.raises(ValueError, match="one to one"):
            dispatch_window(part, [], [plan], np.zeros((6, 2)),
                            np.zeros((6, 2)))
        with pytest.raises(ValueError, match="one to one"):
            dispatch_window(part, [state], [], np.zeros((6, 2)),
                            np.zeros((6, 2)))


# ---------------------------------------------------------------------------
# property tests over randomized microgrids
# ---------------------------------------------------------------------------

@st.composite
def dispatch_case(draw):
    n = draw(st.integers(2, 5))
    criticals = draw(st.sets(st.integers(1, n), max_size=n))
    battery_kw = draw(st.floats(10.0, 2000.0))
    battery_kwh = draw(st.floats(50.0, 8000.0))
    diesel_kw = draw(st.floats(0.0, 1500.0))
    fuel = draw(st.floats(0.0, 3000.0))
    soc0 = draw(st.floats(0.0, 1.0))
    mk = st.floats(0.0, 800.0)
    loads = {z: draw(st.lists(mk, min_size=6, max_size=6))
             for z in range(1, n + 1)}
    pv = {z: draw(st.lists(mk, min_size=6, max_size=6))
          for z in range(1, n + 1)}
    return (n, criticals, battery_kw, battery_kwh, diesel_kw, fuel, soc0,
            loads, pv)


@settings(max_examples=80, deadline=None)
@given(dispatch_case())
def test_dispatch_invariants_hold(case):
    (n, criticals, battery_kw, battery_kwh, diesel_kw, fuel, soc0,
     loads, pv) = case
    g, order, state = chain_microgrid(n, criticals, battery_kw, battery_kwh,
                                      diesel_kw, fuel)
    state.soc_kwh = soc0 * battery_kwh
    start_fuel = state.fuel_kwh
    plan = build_schedule(state, order,
                          prof(order, {z: [float(np.mean(loads[z]))]
                                       for z in loads}),
                          prof(order, {z: [float(np.mean(pv[z]))] for z in pv}))
    win = lone_window(state, plan, prof(order, loads), prof(order, pv))

    balance = (win.served_kw.sum(axis=1) - win.pv_used_kw.sum(axis=1)
               - win.battery_kw[:, 0] - win.diesel_kw[:, 0])
    assert np.all(np.abs(balance) <= 1e-6)

    assert np.all(win.soc_kwh >= -1e-9)
    assert np.all(win.soc_kwh <= battery_kwh + 1e-9)
    fuel_path = np.concatenate([[start_fuel], win.fuel_kwh[:, 0]])
    assert np.all(np.diff(fuel_path) <= 1e-9)
    pv_in = np.array([pv[z] for z in order.members]).T
    assert np.all(win.pv_used_kw <= pv_in + 1e-6)
    # served + unserved covers demand cell by cell
    demand = np.array([loads[z] for z in order.members]).T
    assert np.allclose(win.served_kw + win.unserved_kw, demand, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(dispatch_case())
def test_critical_zones_outrank_noncritical_ones(case):
    (n, criticals, battery_kw, battery_kwh, diesel_kw, fuel, soc0,
     loads, pv) = case
    g, order, state = chain_microgrid(n, criticals, battery_kw, battery_kwh,
                                      diesel_kw, fuel)
    state.soc_kwh = soc0 * battery_kwh
    plan = build_schedule(state, order,
                          prof(order, {z: [float(np.mean(loads[z]))]
                                       for z in loads}),
                          prof(order, {z: [float(np.mean(pv[z]))] for z in pv}))
    win = lone_window(state, plan, prof(order, loads), prof(order, pv))

    rank = {z: r for r, z in enumerate(order.ranked)}
    col = {z: c for c, z in enumerate(order.members)}
    for step in range(win.served_kw.shape[0]):
        for c in order.members:
            if c not in criticals and c != 1:
                continue
            if not g.node(c).is_critical:
                continue
            if win.committed[step, col[c]] or loads[c][step] == 0.0:
                continue
            for z in order.members:
                if g.node(z).is_critical or rank[z] < rank[c]:
                    continue
                assert not win.committed[step, col[z]], (
                    f"step {step}: zone {z} served while critical {c} is not")

import dataclasses

import numpy as np
import pytest

from gridsplit import coordinator
from gridsplit import (
    FormationSnapshot,
    FormationWeights,
    GridFormingResource,
    Scenario,
    SolverError,
    SolveStatus,
    SwitchEdge,
    Timeline,
    ValidationError,
    ZoneGraph,
    ZoneNode,
    build_milp,
    build_schedule,
    decode,
    diff_topologies,
    dispatch_window,
    fixed_topology_solution,
    formation_inputs,
    run,
    solve_milp,
)

QUIET_CLOSED = {1, 2, 3, 5, 6, 7, 9, 10}     # both ties in, one mid-span out each side
FAULTED_CLOSED = {1, 2, 3, 4, 5, 6, 7, 10}   # tie 9 out, zone 5 back on feeder 1
# exact objectives of the 16 formation events of the fixture's flexible run
FLEX_OBJECTIVES = [
    74.99999999953434,
    75.00000000093132,
    74.99999999720603,
    75.00000000139698,
    94.20000000065193,
    93.99999999720603,
    93.99999999627471,
    94.00000000046566,
    94.00000000093132,
    75.20000000111759,
    75.00000000046566,
    75.00000000093132,
    75.00000000046566,
    75.00000000046566,
    74.99999999720603,
    75.00000000093132,
]


def closed_set(sol):
    return {e for e, on in sol.switch_status.items() if on}


def mirror_scenario(n_steps=72):
    """Two identical 2-zone feeders joined by one tie; nothing favors closing it."""
    nodes = (ZoneNode(1, 1, False, 100.0, True),
             ZoneNode(2, 1, False, 100.0, False),
             ZoneNode(3, 2, False, 100.0, True),
             ZoneNode(4, 2, False, 100.0, False))
    edges = (SwitchEdge(1, 1, 2, False, 1000.0),
             SwitchEdge(2, 3, 4, False, 1000.0),
             SwitchEdge(3, 2, 4, True, 1000.0))
    res = (GridFormingResource(1, 3000.0, 12000.0),
           GridFormingResource(3, 3000.0, 12000.0))
    return Scenario(name="mirror", graph=ZoneGraph(nodes, edges, res),
                    step_minutes=5,
                    load_kw={z: np.full(n_steps, 100.0) for z in range(1, 5)},
                    pv_kw={z: np.zeros(n_steps) for z in range(1, 5)})


class TestTimeline:
    def test_defaults(self):
        tl = Timeline()
        assert tl.n_formation_events == 16
        assert tl.n_steps == 576

    def test_horizon_is_whole_formation_steps(self):
        with pytest.raises(ValueError, match="multiple of the formation"):
            Timeline(total_minutes=2900)
        with pytest.raises(ValueError, match="must be positive"):
            Timeline(total_minutes=0)

    def test_only_the_horizon_is_settable(self):
        assert [f.name for f in dataclasses.fields(Timeline)] \
            == ["total_minutes"]
        tl = Timeline(total_minutes=360)
        assert (tl.formation_step_minutes, tl.schedule_slot_minutes,
                tl.dispatch_step_minutes) == (180, 30, 5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tl.dispatch_step_minutes = 15


class TestFlexibleRun:
    @pytest.mark.blas_threads
    def test_objectives_are_reproduced_bit_for_bit(self, flex_run):
        # microgrids.csv writes repr(objective), so the committed fixture
        # outputs hold these exact floats. Each is the objective of the LP
        # with the integer columns fixed at the optimum, re-solved from the
        # basis carried from the last fixed-integer LP or cold, so a change
        # of search path leaves them alone; a change to the simplex, to the
        # carried basis or to the integer optimum of an event fails here
        assert [ev.solution.objective_value for ev in flex_run.events] \
            == FLEX_OBJECTIVES

    def test_warm_events_restart_the_root_lp(self, flex_run, scenario,
                                             first_lps):
        # events 1-15 start from the previous partition and restart the
        # root from the warm LP's basis; events 0 and 4 have no optimal warm
        # LP and restart from the model's start points instead, and event 0
        # takes 6 nodes, not 12. Each fixed-integer LP re-solves from the
        # last optimal one's basis, carried from event to event: 17 of the
        # 21 re-solve warm, and the run takes 319 pivots (964 with every
        # fixed-integer LP cold). Event 0 has no basis to carry and events
        # 4 and 9 change the model's shape, so their fixed-integer LPs start
        # cold until one is optimal; at event 0 one warm re-solve ends
        # infeasible, a verdict that stands without a cold solve
        assert [ev.node_count for ev in flex_run.events] \
            == [6, 1, 1, 1, 1, 1, 1, 1, 1, 9, 1, 1, 1, 1, 1, 1]
        assert sum(ev.lp_iterations for ev in flex_run.events) <= 330
        run(scenario, mode="flexible")
        warm = [status for start, status, _, _ in first_lps if start == "warm"]
        assert warm.count(SolveStatus.OPTIMAL) == 16
        assert len(warm) == 17

    def test_event_grid(self, flex_run):
        assert [ev.time_min for ev in flex_run.events] \
            == list(range(0, 2880, 180))
        assert flex_run.n_steps == 576
        assert np.array_equal(flex_run.time_min, np.arange(576) * 5)

    def test_first_event_has_an_empty_diff(self, flex_run):
        ev0 = flex_run.events[0]
        assert ev0.diff.moved == () and ev0.diff.toggled == ()
        assert closed_set(ev0.solution) == QUIET_CLOSED

    def test_repartition_happens_exactly_at_the_fault_edges(self, flex_run):
        changes = {ev.time_min: ev.diff for ev in flex_run.events
                   if ev.diff.moved or ev.diff.toggled}
        assert sorted(changes) == [720, 1620]
        # tie 9 faults at noon: zone 5 returns to feeder 1 through switch 4
        assert changes[720].moved == ((5, 7, 1),)
        assert changes[720].toggled == ((4, False, True), (9, True, False))
        # fault clears at 03:00: the move reverses
        assert changes[1620].moved == ((5, 1, 7),)
        assert changes[1620].toggled == ((4, True, False), (9, False, True))

    def test_topologies_during_and_after_the_fault(self, flex_run):
        by_t = {ev.time_min: ev for ev in flex_run.events}
        assert closed_set(by_t[720].solution) == FAULTED_CLOSED
        assert closed_set(by_t[1440].solution) == FAULTED_CLOSED
        assert closed_set(by_t[1620].solution) == QUIET_CLOSED
        assert by_t[720].faulted_edges == (9, 11)
        assert by_t[1620].faulted_edges == (11,)

    def test_assignment_constant_between_events(self, flex_run):
        for ev in flex_run.events:
            s0 = ev.time_min // 5
            block = flex_run.assignment[s0:s0 + 36]
            assert (block == block[0]).all()
            for c, z in enumerate(flex_run.zone_ids):
                assert block[0, c] == ev.solution.assignment[z]

    def test_moved_zone_sits_out_the_first_step(self, flex_run):
        col5 = flex_run.zone_ids.index(5)
        s0 = 720 // 5
        assert not flex_run.committed[s0, col5]
        assert flex_run.committed[s0 + 1, col5]
        assert flex_run.unserved_kw[s0, col5] \
            == pytest.approx(flex_run.scenario.load_kw[5][s0])

    def test_storage_state_is_continuous_across_repartitions(self, flex_run,
                                                             scenario):
        dt_h = 5 / 60.0
        for c, j in enumerate(flex_run.gfm_ids):
            r = scenario.graph.resource_at(j)
            path = np.concatenate(
                [[r.battery_soc0 * r.battery_energy_kwh],
                 flex_run.soc_kwh[:, c]])
            assert np.all(np.abs(np.diff(path))
                          <= r.battery_power_kw * dt_h + 1e-9)
            fuel = np.concatenate([[r.diesel_fuel_kwh],
                                   flex_run.fuel_kwh[:, c]])
            assert np.all(np.diff(fuel) <= 1e-9)

    def test_rerun_is_deterministic(self, scenario, flex_run):
        again = run(scenario, mode="flexible")
        assert np.array_equal(again.served_kw, flex_run.served_kw)
        assert np.array_equal(again.soc_kwh, flex_run.soc_kwh)
        assert np.array_equal(again.fuel_kwh, flex_run.fuel_kwh)
        for a, b in zip(again.events, flex_run.events):
            assert closed_set(a.solution) == closed_set(b.solution)
            assert a.solution.objective_value == b.solution.objective_value


class TestFixedRun:
    def test_topology_never_changes(self, fixed_run):
        for ev in fixed_run.events:
            assert ev.diff.moved == () and ev.diff.toggled == ()
            assert closed_set(ev.solution) == {1, 2, 3, 4, 5, 6, 7, 8}

    def test_assignment_is_the_feeder_split_throughout(self, fixed_run):
        for c, z in enumerate(fixed_run.zone_ids):
            want = 1 if z <= 5 else 7
            assert (fixed_run.assignment[:, c] == want).all()


class TestRunValidation:
    def test_unknown_mode(self, scenario):
        with pytest.raises(ValueError, match="mode must be one of"):
            run(scenario, mode="adaptive")

    def test_step_mismatch(self, scenario):
        # 576 samples at 15 minutes cover the horizon, at the wrong step
        sc = dataclasses.replace(scenario, step_minutes=15)
        with pytest.raises(ValidationError, match="scenario step 15 min does "
                                                  "not match the dispatch "
                                                  "step 5 min"):
            run(sc)

    def test_short_profiles(self):
        sc = mirror_scenario(n_steps=36)   # 180 min of data
        with pytest.raises(ValidationError, match="shorter than the timeline"):
            run(sc, timeline=Timeline(total_minutes=360))


class TestEventPath:
    def test_plans_cover_exactly_one_formation_step(self, scenario,
                                                    monkeypatch):
        n_slots = []

        def spy(*args, **kwargs):
            plan = build_schedule(*args, **kwargs)
            n_slots.append(plan.n_slots)
            return plan

        monkeypatch.setattr(coordinator, "build_schedule", spy)
        tl = Timeline()
        r = run(scenario, "flexible", tl)
        # one plan per microgrid and event, each only as long as the event
        assert len(n_slots) == 2 * len(r.events)
        assert set(n_slots) \
            == {tl.formation_step_minutes // tl.schedule_slot_minutes}

    @pytest.mark.parametrize("mode", ["flexible", "fixed"])
    def test_one_dispatch_call_per_event(self, scenario, monkeypatch, mode):
        calls = []

        def spy(part, states, plans, load, pv, **kwargs):
            calls.append(([(o.gfm_node_id, o.members) for o in part.orders],
                          [p.order for p in plans] == list(part.orders),
                          load.shape, pv.shape))
            return dispatch_window(part, states, plans, load, pv, **kwargs)

        monkeypatch.setattr(coordinator, "dispatch_window", spy)
        tl = Timeline()
        r = run(scenario, mode, tl)
        # each call dispatches all of one event's steps for every microgrid,
        # on the run's whole zone axis
        steps = tl.formation_step_minutes // tl.dispatch_step_minutes
        assert [microgrids for microgrids, *_ in calls] \
            == [[(anchor, tuple(sorted(tree)))
                 for anchor, tree in ev.solution.trees.items()]
                for ev in r.events]
        for _, paired, load_shape, pv_shape in calls:
            assert paired
            assert load_shape == pv_shape == (steps, len(r.zone_ids))

    def test_pivot_budget_names_the_event_time(self, monkeypatch):
        calls = []

        def budget_spent_on_second_event(model, **kwargs):
            rep = solve_milp(model, **kwargs)
            calls.append(rep)
            if len(calls) == 2:
                rep = dataclasses.replace(
                    rep, status=SolveStatus.ITERATION_LIMIT)
            return rep

        monkeypatch.setattr(coordinator, "solve_milp",
                            budget_spent_on_second_event)
        with pytest.raises(SolverError, match="t=180 min"):
            run(mirror_scenario(), "flexible", Timeline(total_minutes=360))
        assert len(calls) == 2


class TestFaultSetReuse:
    """A run does the graph-level work once per fault set. The fixture's 16
    events see two: edge 11 out throughout, and tie 9 too from 720 to 1620
    minutes (events 4-8)."""

    FAULT_SETS = [(11,), (9, 11)]

    def test_flexible_run_builds_one_model_per_fault_set(
            self, scenario, coordinator_calls):
        builds = coordinator_calls("build_milp")
        run(scenario, "flexible")
        assert [tuple(sorted(g.faulted_edges)) for g, *_ in builds] \
            == self.FAULT_SETS
        # each at its fault set's first event, from that event's snapshot
        assert [snap.step_index for _, snap, *_ in builds] == [0, 4]

    def test_fixed_run_prices_one_default_topology_per_fault_set(
            self, scenario, coordinator_calls):
        defaults = coordinator_calls("fixed_topology_solution")
        run(scenario, "fixed")
        assert [tuple(sorted(g.faulted_edges)) for g, *_ in defaults] \
            == self.FAULT_SETS

    @pytest.mark.parametrize("mode", ["flexible", "fixed"])
    def test_one_service_order_per_fault_set_and_microgrid(
            self, scenario, coordinator_calls, mode):
        # each fault set holds one partition in the fixture, in either mode
        orders = coordinator_calls("service_order")
        run(scenario, mode)
        assert [(tuple(sorted(g.faulted_edges)), anchor)
                for g, _, anchor, _ in orders] \
            == [(faults, anchor) for faults in self.FAULT_SETS
                for anchor in (1, 7)]

    def test_nothing_survives_between_runs(self, scenario, coordinator_calls):
        builds = coordinator_calls("build_milp")
        defaults = coordinator_calls("fixed_topology_solution")
        orders = coordinator_calls("service_order")
        for _ in range(2):
            run(scenario, "flexible")
            run(scenario, "fixed")
        assert (len(builds), len(defaults), len(orders)) == (4, 4, 16)


class TestFormationInputs:
    def test_matches_the_run_events(self, scenario, flex_run):
        tl = Timeline()
        for k in (0, 4, 9):
            g_t, snap = formation_inputs(scenario, tl, k)
            assert tuple(sorted(g_t.faulted_edges)) \
                == flex_run.events[k].faulted_edges
            s0, s1 = k * 36, (k + 1) * 36
            assert snap.load_kw[3] \
                == pytest.approx(scenario.load_kw[3][s0:s1].mean())
            assert snap.pv_kw[8] \
                == pytest.approx(scenario.pv_kw[8][s0:s1].mean())

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_snapshot_means_are_the_per_zone_means(self, scenario, sigma):
        sc = dataclasses.replace(scenario, forecast_sigma=sigma,
                                 forecast_seed=3)
        fc_load, fc_pv = sc.forecast()
        for k in (0, 4, 9):
            _, snap = formation_inputs(sc, Timeline(), k)
            s0, s1 = k * 36, (k + 1) * 36
            assert snap.load_kw \
                == {z: float(a[s0:s1].mean()) for z, a in fc_load.items()}
            assert snap.pv_kw \
                == {z: float(a[s0:s1].mean()) for z, a in fc_pv.items()}

    def test_solving_event_zero_reproduces_the_run(self, scenario, flex_run):
        g_t, snap = formation_inputs(scenario, None, 0)
        prob = build_milp(g_t, snap, FormationWeights())
        sol = decode(prob, solve_milp(prob.model))
        assert sol.objective_value \
            == pytest.approx(flex_run.events[0].solution.objective_value)
        assert closed_set(sol) == closed_set(flex_run.events[0].solution)

    def test_index_bounds(self, scenario):
        with pytest.raises(ValueError, match="outside 0..15"):
            formation_inputs(scenario, None, 16)
        with pytest.raises(ValueError, match="outside"):
            formation_inputs(scenario, None, -1)


class TestMirrorScenario:
    def test_tie_never_closes_without_a_reason(self):
        sc = mirror_scenario()
        r = run(sc, "flexible", Timeline(total_minutes=360))
        assert len(r.events) == 2
        for ev in r.events:
            assert closed_set(ev.solution) == {1, 2}
            assert ev.diff.moved == () and ev.diff.toggled == ()
        assert r.unserved_kw.sum() == 0.0


class TestSwitchPenaltyChaining:
    """Re-partition economics across two consecutive decisions.

    Step one has flat load and no PV: the normally-closed split is cheapest
    once each toggle costs 20. Step two adds 600 kW of must-take PV to every
    feeder-2 zone; keeping the split would need 2500 kW absorbed at a
    2000 kW battery, so the partition has to change, and handing the
    critical leaf zone 10 over (one tie in, one switch out) beats the
    alternatives.
    """

    def test_two_step_decision(self, scenario):
        g = scenario.graph
        wts = FormationWeights(switch_change_penalty=20.0)
        load = {z: 100.0 for z in range(1, 11)}
        snap1 = FormationSnapshot(0, load, {z: 0.0 for z in range(1, 11)})
        base = fixed_topology_solution(g)
        prob1 = build_milp(g, snap1, wts, prev=base)
        sol1 = decode(prob1, solve_milp(prob1.model))
        assert closed_set(sol1) == {1, 2, 3, 4, 5, 6, 7, 8}
        assert sol1.objective_value == pytest.approx(95.0)

        snap2 = FormationSnapshot(
            1, load, {z: (600.0 if z >= 6 else 0.0) for z in range(1, 11)},
            pv_min_kw={z: 600.0 for z in range(6, 11)})
        prob2 = build_milp(g, snap2, wts, prev=sol1)
        sol2 = decode(prob2, solve_milp(prob2.model))
        d = diff_topologies(sol1, sol2)
        assert d.moved == ((10, 7, 1),)
        assert d.toggled == ((8, True, False), (10, False, True))
        # 94 of weighted commodity units plus two toggles at 20 each
        assert sol2.objective_value == pytest.approx(134.0)
        assert sol2.load_shed_term == pytest.approx(0.0)

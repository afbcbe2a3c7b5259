"""Acceptance gate: one test per shipped guarantee, run against the bundled
two-feeder fixture. Each test ends by printing its own pass line so a verbose
run reads as a checklist."""

import filecmp
import time

import numpy as np
import pytest

from gridsplit import (
    FormationSnapshot,
    FormationWeights,
    InfeasibleTopology,
    LateralPolicy,
    Timeline,
    ZoneGraph,
    build_milp,
    decode,
    enumerate_optimal,
    formation_inputs,
    is_radial_forest,
    run,
    solve_milp,
    solve_partition,
    summarize,
    write_outputs,
)

REL_TOL = 1e-6


@pytest.fixture(scope="module")
def formation_chain(scenario, flex_run):
    """Replay the 16 flexible partition solves, keeping raw solver output.

    The coordinator discards column vectors after decoding; the raw values are
    needed to inspect the product-linearization columns, so the chain is
    replayed here through the coordinator's own solve path, with the same
    inputs and penalty defaults: each event's problem is built, then solved
    warm from the previous partition and from the basis the previous event
    ended with, and decoded.
    """
    tl = Timeline()
    wts = FormationWeights()
    chain = []
    prev = basis = None
    for k in range(tl.n_formation_events):
        g_t, snap = formation_inputs(scenario, tl, k)
        prob = build_milp(g_t, snap, wts, prev=prev)
        rep, sol = solve_partition(prob, basis)
        chain.append((g_t, prob, rep, sol))
        prev, basis = sol, rep.basis
    # the replay must be the run the coordinator actually performed, down
    # to the search: the same nodes and pivots at every event
    assert len(chain) == len(flex_run.events)
    for (g_t, prob, rep, sol), ev in zip(chain, flex_run.events):
        assert sol.objective_value == ev.solution.objective_value
        assert sol.switch_status == ev.solution.switch_status
        assert (rep.node_count, rep.lp_iterations) \
            == (ev.node_count, ev.lp_iterations), ev.time_min
    return chain


def test_oracle_equivalence(scenario):
    g = scenario.graph
    wts = FormationWeights()
    rng = np.random.default_rng(2024)
    peaks = {n.id: n.peak_load_kw for n in g.nodes}
    worst = 0.0
    for i in range(50):
        snap = FormationSnapshot(
            step_index=i,
            load_kw={z: float(rng.uniform(0.5, 1.5) * peaks[z]) for z in peaks},
            pv_kw={z: float(rng.uniform(0.0, 400.0)) for z in peaks})
        t0 = time.perf_counter()
        prob = build_milp(g, snap, wts)
        bb = decode(prob, solve_milp(prob.model))
        en = enumerate_optimal(g, snap, wts)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"snapshot {i} took {elapsed:.2f} s"
        rel = abs(bb.objective_value - en.objective_value) \
            / max(1.0, abs(en.objective_value))
        worst = max(worst, rel)
        assert rel <= REL_TOL, (
            f"snapshot {i}: branch-and-bound {bb.objective_value!r} vs "
            f"enumeration {en.objective_value!r}")
    print(f"criterion 1 (oracle equivalence, 50 snapshots, "
          f"worst rel diff {worst:.2e}): PASS")


def test_radiality_and_switch_count(formation_chain):
    for g_t, _prob, _rep, sol in formation_chain:
        closed = [e for e, on in sol.switch_status.items() if on]
        check = is_radial_forest(g_t, closed)
        assert check.is_radial
        assert sol.trees == check.trees
        # ten zones, two sources, no stranded islands on this fixture
        assert len(closed) == 8
    print("criterion 2 (radiality and closed-switch count, 16 solves): PASS")


def test_product_linearization_is_exact(formation_chain):
    n_checked = 0
    for g_t, prob, rep, _sol in formation_chain:
        for (eid, k), col in prob.z.items():
            e = g_t.edge(eid)
            zv = round(float(rep.values[col]))
            xt = round(float(rep.values[prob.x[(e.tail, k)]]))
            xh = round(float(rep.values[prob.x[(e.head, k)]]))
            assert zv == xt * xh, (eid, k)
            n_checked += 1
    # 11 quiet solves carry 10 active edges x 2 microgrids; the 5 solves
    # inside the tie outage carry 9 x 2
    assert n_checked == 11 * 20 + 5 * 18
    print(f"criterion 3 (switch-assignment product columns exact, "
          f"{n_checked} checks): PASS")


def test_only_flexible_zones_are_exchanged(scenario, flex_run):
    # the endpoints of the normally-open ties
    flexible = frozenset(z for e in scenario.graph.edges if e.normally_open
                         for z in (e.tail, e.head))
    assert flexible == frozenset({2, 5, 6, 10})
    for ev in flex_run.events:
        for zone, _old, _new in ev.diff.moved:
            assert zone in flexible, (ev.time_min, zone)
    print("criterion 4 (membership changes confined to tie-adjacent zones): "
          "PASS")


def test_direction_of_benefit(flex_run, fixed_run):
    sf = summarize(flex_run)
    sx = summarize(fixed_run)
    assert sf.served_kwh >= sx.served_kwh
    assert sf.percent_served_total >= sx.percent_served_total
    assert sf.pv_utilization_total >= sx.pv_utilization_total
    crit = {n.id for n in flex_run.scenario.graph.nodes if n.is_critical}
    crit_flex = sum(sf.percent_served[z] for z in crit)
    crit_fixed = sum(sx.percent_served[z] for z in crit)
    assert crit_flex >= crit_fixed
    print(f"criterion 5 (flexible beats fixed: served "
          f"{sf.percent_served_total:.2f}% vs {sx.percent_served_total:.2f}%, "
          f"PV {sf.pv_utilization_total:.2f}% vs {sx.pv_utilization_total:.2f}%, "
          f"critical sum {crit_flex:.2f} vs {crit_fixed:.2f}): PASS")


def test_conservation_suite(flex_run, fixed_run, scenario):
    for r in (flex_run, fixed_run):
        balance = (r.served_kw.sum(axis=1) - r.pv_used_kw.sum(axis=1)
                   - r.battery_kw.sum(axis=1) - r.diesel_kw.sum(axis=1))
        assert np.max(np.abs(balance)) <= 1e-6

        for c, j in enumerate(r.gfm_ids):
            res = scenario.graph.resource_at(j)
            assert np.all(r.soc_kwh[:, c] >= -1e-9)
            assert np.all(r.soc_kwh[:, c] <= res.battery_energy_kwh + 1e-9)
            fuel = np.concatenate([[res.diesel_fuel_kwh], r.fuel_kwh[:, c]])
            assert np.all(np.diff(fuel) <= 1e-9)

        dt_h = r.timeline.dispatch_step_minutes / 60.0
        for c, z in enumerate(r.zone_ids):
            demand = scenario.load_kw[z][:r.n_steps].sum() * dt_h
            covered = (r.served_kw[:, c] + r.unserved_kw[:, c]).sum() * dt_h
            assert abs(covered - demand) <= 1e-3, f"zone {z}"
    print("criterion 6 (balance, SoC bounds, fuel monotone, energy audit): "
          "PASS")


def test_determinism(scenario, flex_run, tmp_path):
    again = run(scenario, mode="flexible")
    a = write_outputs(flex_run, tmp_path / "a", emit_plots=True)
    b = write_outputs(again, tmp_path / "b", emit_plots=True)
    assert [p.name for p in a] == [p.name for p in b]
    for pa, pb in zip(a, b):
        assert filecmp.cmp(pa, pb, shallow=False), pa.name
    print(f"criterion 7 (independent reruns byte-identical, "
          f"{len(a)} files): PASS")


def test_runtime_budget(flex_run):
    assert flex_run.wall_time_s < 60.0
    print(f"criterion 8 (48-h flexible run in "
          f"{flex_run.wall_time_s:.2f} s < 60 s): PASS")


def test_lateral_infeasibility_detected_at_build(scenario):
    g0 = scenario.graph
    greedy = ZoneGraph(g0.nodes, g0.edges, g0.resources, g0.faulted_edges,
                       (LateralPolicy(gfm_node_id=1, edge_id=2,
                                      min_downstream_nodes=9),))
    snap = FormationSnapshot(0, {z: 100.0 for z in range(1, 11)},
                             {z: 0.0 for z in range(1, 11)})
    with pytest.raises(InfeasibleTopology):
        build_milp(greedy, snap, FormationWeights())
    print("criterion 9 (oversized downstream minimum rejected before "
          "solving): PASS")

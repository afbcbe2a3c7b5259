"""Checks of the benchmark's own code.

    python3 perfbench/selftest.py

The generator must be deterministic per seed and build the structure it
promises, and every correctness check the benchmark relies on must fail when
its objective, digest or trace is perturbed. Exits non-zero on the first
failing check.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import run as bench  # pins BLAS threads before numpy loads

sys.path[:0] = [str(bench.ROOT / "src"), str(bench.HERE)]

import numpy as np  # noqa: E402

import feeders  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gridsplit import coordinator, netmodel  # noqa: E402


def check_generator_is_deterministic(tmp):
    a = feeders.synthetic_feeders(3, 4, 7)
    b = feeders.synthetic_feeders(3, 4, 7)
    c = feeders.synthetic_feeders(3, 4, 8)
    assert a.graph == b.graph and a.fault_windows == b.fault_windows
    for z in a.load_kw:
        assert np.array_equal(a.load_kw[z], b.load_kw[z])
        assert np.array_equal(a.pv_kw[z], b.pv_kw[z])
    assert any(not np.array_equal(a.load_kw[z], c.load_kw[z]) for z in a.load_kw)


def check_generator_structure(tmp):
    for n_feeders, zones, policies in ((2, 3, False), (3, 5, True), (4, 4, True)):
        sc = feeders.synthetic_feeders(n_feeders, zones, 1, policies=policies)
        g = sc.graph
        assert len(g.nodes) == n_feeders * zones
        assert g.gfm_nodes == tuple(f * zones + 1 for f in range(n_feeders))
        ties = [e for e in g.edges if e.normally_open]
        assert len(ties) == 2 * (n_feeders - 1)
        assert len(g.faulted_edges) == n_feeders - 1
        assert all(not g.edge(e).normally_open for e in g.faulted_edges)
        assert len(g.lateral_policies) == (n_feeders if policies and zones >= 4 else 0)
        default = {e.id for e in g.active_edges() if not e.normally_open}
        assert netmodel.is_radial_forest(g, default).is_radial


def check_week_commits_and_sheds(tmp):
    sc = feeders.synthetic_feeders(workloads.WEEK_FEEDERS, workloads.WEEK_ZONES, 3,
                                   days=workloads.WEEK_DAYS)
    run = coordinator.run(sc, "fixed",
                          timeline=coordinator.Timeline(total_minutes=2 * 1440))
    served = run.served_kw.sum() / (run.served_kw.sum() + run.unserved_kw.sum())
    assert 0.5 < served < 0.98, served
    assert run.committed.any() and (run.unserved_kw > 1e-9).any()


def check_ladder_objective_check(tmp):
    inst = workloads.ladder_instance(2, 3, 0)
    prob, rep, sol = workloads.decide(inst)
    ref = workloads.scipy_objective(prob.model)
    assert workloads.agree(sol.objective_value, ref)
    assert not workloads.agree(sol.objective_value + 1e-4 * max(1.0, abs(ref)), ref)


def check_crosscheck_agreement_check(tmp):
    w = workloads.Crosscheck(0, tmp)
    _, _, by_oracle, by_search = w.pair(w.graphs[1], w.pool[1])
    assert workloads.agree(by_search, by_oracle)
    assert not workloads.agree(by_search * (1 + 1e-5) + 1e-5, by_oracle)


def check_fixture_digest_check(tmp):
    w = workloads.Fixture48h(0, tmp)
    _, _, run, codes, table = w.study()
    assert w.check(run, codes, table) is None
    first = next(iter(w.expected["files"]))
    good = w.expected["files"][first]
    w.expected["files"][first] = good[:-1] + ("0" if good[-1] != "0" else "1")
    assert w.check(run, codes, table) is not None
    w.expected["files"][first] = good
    w.expected["flex_objectives"][3] += 1e-3
    assert w.check(run, codes, table) is not None
    w.expected["flex_objectives"][3] -= 1e-3
    assert w.check(run, [0, 2, 0], table) is not None


def check_dispatch_checks(tmp):
    w = workloads.DispatchWeek(0, tmp)
    w.timeline = coordinator.Timeline(total_minutes=1440)
    run = coordinator.run(w.sc, "fixed", timeline=w.timeline)
    assert w.check(w.sc, run) is None
    run.served_kw[5, 2] += 1e-3
    assert w.check(w.sc, run) is not None
    run.served_kw[5, 2] -= 1e-3
    run.soc_kwh[7, 0] = -1e-3
    assert w.check(w.sc, run) is not None


def check_self_time(tmp):
    spans = [["bench.op", 0.0, 10.0, None, 1, None],
             ["coordinator.run", 1.0, 9.0, 0, 1, None],
             ["milp.solve_milp", 2.0, 5.0, 1, 1, {"nodes": 1, "pivots": 30}],
             ["milp.solve_milp", 5.0, 8.0, 1, 1, {"nodes": 4, "pivots": 90}]]
    m = tracer.per_layer(spans, 1, 0.0)
    assert m["coordinator.run.s"] == 8.0 and m["coordinator.self_s"] == 2.0
    assert m["milp.self_s"] == 6.0 and m["bench.self_s"] == 2.0
    assert m["milp.solve_milp.pivots"] == 120 and m["milp.root_closed_ratio"] == 0.5
    assert m["milp.pivots_per_s"] == 20.0


def check_wrappers_are_removed(tmp):
    from gridsplit import milp, scenario
    before = (milp.solve_milp, scenario.Scenario.forecast, coordinator.run)
    t = tracer.Tracer()
    t.install()
    assert milp.solve_milp is not before[0]
    inst = workloads.ladder_instance(2, 3, 0)
    workloads.decide(inst)
    assert not t.spans, "spans recorded outside an operation"
    with t.operation(1):
        workloads.decide(inst)
    assert [s[0] for s in t.spans] == ["bench.op", "formation.build_milp",
                                       "milp.solve_milp", "formation.decode",
                                       "netmodel.is_radial_forest"]
    t.uninstall()
    assert (milp.solve_milp, scenario.Scenario.forecast, coordinator.run) == before


CHECKS = [v for k, v in dict(globals()).items() if k.startswith("check_")]


def main() -> int:
    bench.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT))
    try:
        for check in CHECKS:
            check(tmp)
            print(f"ok   {check.__name__}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(CHECKS)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

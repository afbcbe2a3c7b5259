import csv
import dataclasses
import json

import numpy as np
import pytest

from gridsplit import coordinator
from gridsplit import (
    DecodeError,
    GridFormingResource,
    Scenario,
    SolveReport,
    SolveStatus,
    SwitchEdge,
    ZoneGraph,
    ZoneNode,
    fixture_two_feeder,
    save_scenario,
)
from gridsplit.cli import main


@pytest.fixture(scope="module")
def outdirs(tmp_path_factory):
    """One flexible and one fixed run of the bundled scenario, via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    a, b = root / "flex", root / "fixed"
    assert main(["run", "--scenario", "builtin:two-feeder",
                 "--out", str(a)]) == 0
    assert main(["run", "--scenario", "builtin:two-feeder",
                 "--mode", "fixed", "--out", str(b)]) == 0
    return a, b


def long_chain_scenario(tmp_path, n_zones=23):
    """A radial feeder too large for the brute-force enumeration guard."""
    nodes = tuple(ZoneNode(i, 1, False, 100.0, i == 1)
                  for i in range(1, n_zones + 1))
    edges = tuple(SwitchEdge(i, i, i + 1, False, 1e6)
                  for i in range(1, n_zones))
    res = (GridFormingResource(1, 5000.0, 50000.0),)
    sc = Scenario(name="chain", graph=ZoneGraph(nodes, edges, res),
                  step_minutes=5,
                  load_kw={z: np.full(576, 50.0) for z in range(1, n_zones + 1)},
                  pv_kw={z: np.zeros(576) for z in range(1, n_zones + 1)})
    save_scenario(sc, tmp_path / "chain.json")
    return tmp_path / "chain.json"


def bare_fixture_scenario(tmp_path):
    """The bundled fixture with every grid-forming resource taken out."""
    sc = fixture_two_feeder()
    g = sc.graph
    nodes = tuple(dataclasses.replace(n, has_gfm=False) for n in g.nodes)
    bare = dataclasses.replace(
        sc, graph=ZoneGraph(nodes, g.edges, (), g.faulted_edges))
    save_scenario(bare, tmp_path / "bare.json")
    return tmp_path / "bare.json"


class TestRun:
    def test_headline_and_files(self, outdirs, capsys):
        a, _ = outdirs
        assert (a / "summary.json").exists()
        assert (a / "trace.csv").exists()
        assert main(["run", "--scenario", "builtin:two-feeder",
                     "--out", str(a)]) == 0
        out = capsys.readouterr().out
        assert "served" in out and "topology changes" in out
        assert out.count("wrote ") == 4

    def test_emit_plots(self, tmp_path, capsys):
        out = tmp_path / "plots"
        assert main(["run", "--scenario", "builtin:two-feeder",
                     "--mode", "fixed", "--out", str(out),
                     "--emit-plots"]) == 0
        assert (out / "fig8_percent_served.csv").exists()
        assert capsys.readouterr().out.count("wrote ") == 8

    def test_pivot_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        def budget_spent(model, **kwargs):
            return SolveReport(SolveStatus.ITERATION_LIMIT, float("nan"),
                               np.zeros(model.n_variables))

        monkeypatch.setattr(coordinator, "solve_milp", budget_spent)
        assert main(["run", "--scenario", "builtin:two-feeder",
                     "--out", str(tmp_path / "out")]) == 3
        assert "t=0 min" in capsys.readouterr().err

    def test_decode_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def undecodable(problem, rep):
            raise DecodeError("rounded switch set is not a radial forest")

        monkeypatch.setattr(coordinator, "decode", undecodable)
        assert main(["run", "--scenario", "builtin:two-feeder",
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "t=0 min" in err and "not a radial forest" in err

    def test_seed_override_accepted(self, tmp_path):
        assert main(["run", "--scenario", "builtin:two-feeder",
                     "--mode", "fixed", "--out", str(tmp_path / "s"),
                     "--seed", "7"]) == 0

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_output_path_is_a_file(self, tmp_path, capsys, monkeypatch):
        # the path is checked before the horizon runs, not after
        def never(*args, **kwargs):
            raise AssertionError("coordinator.run was called")

        monkeypatch.setattr(coordinator, "run", never)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", "--scenario", "builtin:two-feeder",
                     "--mode", "fixed", "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x"}))
        assert main(["run", "--scenario", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "/schema_version: missing" in capsys.readouterr().err

    def test_mistyped_optional_field(self, tmp_path, capsys):
        save_scenario(fixture_two_feeder(), tmp_path / "sc.json")
        doc = json.loads((tmp_path / "sc.json").read_text())
        doc["forecast_seed"] = "x"
        (tmp_path / "sc.json").write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(tmp_path / "sc.json"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "/forecast_seed: expected" in capsys.readouterr().err

    def test_no_grid_forming_resource(self, tmp_path, capsys):
        # the scenario is valid and the fixed baseline just leaves every
        # zone dark, but the formation model needs an anchor
        path = str(bare_fixture_scenario(tmp_path))
        assert main(["validate", "--scenario", path]) == 0
        assert main(["run", "--scenario", path, "--mode", "fixed",
                     "--out", str(tmp_path / "fixed")]) == 0
        capsys.readouterr()
        assert main(["run", "--scenario", path,
                     "--out", str(tmp_path / "flex")]) == 2
        assert main(["enumerate", "--scenario", path, "--step", "0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: graph has no grid-forming resources"] * 2

    @pytest.mark.blas_threads
    def test_one_source_ring_opens_a_switch_inside_its_microgrid(
            self, tmp_path, four_zone_ring):
        # a 4-zone ring fed by one grid-forming zone: every radial forest
        # leaves one switch open between two zones of the one microgrid.
        # Event 0 opens edge 3 and feeds zone 4 over tie 4 (flow 2 + 1 + 1),
        # the shortest-path start point, where the normally-closed switches
        # cost 3 + 2 + 1
        sc = Scenario(name="ring", graph=four_zone_ring, step_minutes=5,
                      load_kw={z: np.full(576, 50.0) for z in range(1, 5)},
                      pv_kw={z: np.zeros(576) for z in range(1, 5)})
        save_scenario(sc, tmp_path / "ring.json")
        path = str(tmp_path / "ring.json")
        assert main(["validate", "--scenario", path]) == 0
        first = {}
        for mode in ("flexible", "fixed"):
            out = tmp_path / mode
            assert main(["run", "--scenario", path, "--mode", mode,
                         "--out", str(out)]) == 0
            with open(out / "microgrids.csv", newline="") as f:
                first[mode] = next(csv.DictReader(f))
        assert first["flexible"]["closed_edges"] == "1;2;4"
        assert float(first["flexible"]["objective"]) == pytest.approx(4.0, abs=1e-6)
        assert first["fixed"]["closed_edges"] == "1;2;3"
        assert float(first["fixed"]["objective"]) == 6.0
        assert first["flexible"]["members"] == "1;2;3;4"

    def test_ring_inside_a_load_island_stays_dark(self, tmp_path,
                                                  ring_island_graph):
        # the load island 5-9 holds the ring 5-6-7-8; the model leaves it
        # out, so the run finishes with the island unserved at every step
        zones = [n.id for n in ring_island_graph.nodes]
        sc = Scenario(name="ring", graph=ring_island_graph, step_minutes=5,
                      load_kw={z: np.full(576, 50.0) for z in zones},
                      pv_kw={z: np.zeros(576) for z in zones})
        save_scenario(sc, tmp_path / "ring.json")
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(tmp_path / "ring.json"),
                     "--out", str(out)]) == 0
        with open(out / "trace.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 576
        for z in (5, 6, 7, 8, 9):
            assert all(float(r[f"served_{z}"]) == 0.0 for r in rows)
            assert all(float(r[f"unserved_{z}"]) == 50.0 for r in rows)
        assert any(float(r["served_1"]) > 0.0 for r in rows)

    def test_unknown_mode_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "builtin:two-feeder",
                  "--mode", "greedy", "--out", str(tmp_path / "o")])


class TestCompare:
    def test_table(self, outdirs, capsys):
        a, b = outdirs
        assert main(["compare", "--a", str(b), "--b", str(a)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[2] == "row,metric,a,b,delta"
        assert len(out) == 3 + 12
        assert out[3].startswith("zone_1,percent_served,")

    def test_mismatched_runs(self, outdirs, tmp_path, capsys):
        a, _ = outdirs
        doc = json.loads((a / "summary.json").read_text())
        doc["scenario"] = "other"
        other = tmp_path / "other"
        other.mkdir()
        (other / "summary.json").write_text(json.dumps(doc))
        assert main(["compare", "--a", str(a), "--b", str(other)]) == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("mutate, message", [
        (lambda d: {k: v for k, v in d.items() if k != "mode"},
         "/mode: missing"),
        (lambda d: [d], "/: document must be an object"),
        (lambda d: {**d, "served_kwh": "lots"},
         "/served_kwh: expected a number"),
        (lambda d: {**d, "final_soc_kwh": {**d["final_soc_kwh"], "one": 1.0}},
         "/final_soc_kwh/one: expected an integer key"),
    ], ids=["missing-key", "not-an-object", "wrong-type", "zone-key"])
    def test_malformed_summary(self, outdirs, tmp_path, capsys, mutate,
                               message):
        a, _ = outdirs
        doc = mutate(json.loads((a / "summary.json").read_text()))
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "summary.json").write_text(json.dumps(doc))
        assert main(["compare", "--a", str(a), "--b", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad / 'summary.json'}: ")
        assert message in err

    def test_unreadable_summary(self, outdirs, tmp_path, capsys):
        a, _ = outdirs
        (tmp_path / "summary.json").write_text("{not json")
        assert main(["compare", "--a", str(a), "--b", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestEnumerate:
    def test_quiet_step_topology(self, capsys):
        assert main(["enumerate", "--scenario", "builtin:two-feeder",
                     "--step", "0"]) == 0
        out = capsys.readouterr().out
        assert "closed 1;2;3;5;6;7;9;10" in out
        assert "microgrid 1: 1 2 3 4 10" in out
        assert "microgrid 7: 5 6 7 8 9" in out

    def test_faulted_step_topology(self, capsys):
        assert main(["enumerate", "--scenario", "builtin:two-feeder",
                     "--step", "4"]) == 0
        out = capsys.readouterr().out
        assert "faulted=9;11" in out
        assert "closed 1;2;3;4;5;6;7;10" in out

    def test_dump_lp(self, tmp_path, capsys):
        lp = tmp_path / "step0.lp"
        assert main(["enumerate", "--scenario", "builtin:two-feeder",
                     "--step", "0", "--dump-lp", str(lp)]) == 0
        text = lp.read_text()
        assert "Minimize" in text and "Generals" in text
        assert " y_9 " in text or "y_9\n" in text   # tie switch is a column

    def test_dump_lp_path_is_a_directory(self, tmp_path, capsys):
        assert main(["enumerate", "--scenario", "builtin:two-feeder",
                     "--step", "0", "--dump-lp", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_step_out_of_range(self, capsys):
        assert main(["enumerate", "--scenario", "builtin:two-feeder",
                     "--step", "99"]) == 2
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize("step_minutes, keep, step, reason", [
        (5, slice(0, 288), 10, "scenario profiles are shorter than the timeline"),
        (15, slice(None, None, 3), 3,
         "scenario step 15 min does not match the dispatch step 5 min"),
    ], ids=["24-hour", "15-minute"])
    def test_scenario_checks_of_run(self, tmp_path, capsys, step_minutes, keep,
                                    step, reason):
        # enumerate rejects the scenarios that run rejects, with the same error
        sc = fixture_two_feeder()
        copy = dataclasses.replace(
            sc, step_minutes=step_minutes,
            load_kw={z: v[keep] for z, v in sc.load_kw.items()},
            pv_kw={z: v[keep] for z, v in sc.pv_kw.items()})
        save_scenario(copy, tmp_path / "sc.json")
        path = str(tmp_path / "sc.json")
        assert main(["validate", "--scenario", path]) == 0
        capsys.readouterr()
        assert main(["run", "--scenario", path,
                     "--out", str(tmp_path / "o")]) == 2
        for k in (step, 0):
            assert main(["enumerate", "--scenario", path, "--step", str(k)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {reason}"] * 3

    def test_guard_exit_code(self, tmp_path, capsys):
        path = long_chain_scenario(tmp_path)
        assert main(["enumerate", "--scenario", str(path),
                     "--step", "0"]) == 3
        assert "error:" in capsys.readouterr().err


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", "--scenario", "builtin:two-feeder"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "10 zones" in out and "11 switches" in out

    def test_unknown_builtin(self, capsys):
        assert main(["validate", "--scenario", "builtin:mesh"]) == 2
        assert "unknown builtin" in capsys.readouterr().err

    def test_out_of_range_resource(self, tmp_path, capsys):
        save_scenario(fixture_two_feeder(), tmp_path / "sc.json")
        doc = json.loads((tmp_path / "sc.json").read_text())
        doc["resources"][0]["battery_soc0"] = 7.0
        (tmp_path / "sc.json").write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(tmp_path / "sc.json")]) == 2
        assert "/resources/0: battery_soc0 7.0" in capsys.readouterr().err

    def test_log_level_env(self, monkeypatch):
        monkeypatch.setenv("GRIDSPLIT_LOG", "DEBUG")
        assert main(["validate", "--scenario", "builtin:two-feeder"]) == 0
        monkeypatch.setenv("GRIDSPLIT_LOG", "NOISY")   # falls back to WARNING
        assert main(["validate", "--scenario", "builtin:two-feeder"]) == 0

import csv
import dataclasses
import filecmp
import hashlib

import numpy as np
import pytest

from gridsplit import (
    GridFormingResource,
    MetricsSummary,
    Scenario,
    ScenarioMismatch,
    SwitchEdge,
    Timeline,
    ZoneGraph,
    ZoneNode,
    compare,
    run,
    summarize,
    write_outputs,
)
from gridsplit.report import summary_from_file
from gridsplit.scenario import _BLOCK_ROWS, _write_columns


def two_zone_scenario(soc0=1.0, name="pair"):
    nodes = (ZoneNode(1, 1, False, 100.0, True),
             ZoneNode(2, 1, True, 100.0, False))
    edges = (SwitchEdge(1, 1, 2, False, 1000.0),)
    res = (GridFormingResource(1, 500.0, 4000.0, battery_soc0=soc0),)
    n = 72
    return Scenario(name=name, graph=ZoneGraph(nodes, edges, res),
                    step_minutes=5,
                    load_kw={1: np.full(n, 100.0), 2: np.full(n, 80.0)},
                    pv_kw={1: np.zeros(n), 2: np.full(n, 30.0)})


@pytest.fixture(scope="module")
def full_service_run():
    return run(two_zone_scenario(), "flexible", Timeline(total_minutes=360))


@pytest.fixture(scope="module")
def dead_run():
    return run(two_zone_scenario(soc0=0.0), "flexible",
               Timeline(total_minutes=360))


class TestSummarize:
    def test_full_service_scores_100(self, full_service_run):
        s = summarize(full_service_run)
        assert s.percent_served == {1: 100.0, 2: 100.0}
        assert s.percent_served_total == 100.0
        assert s.critical_unserved_hours == 0.0
        assert s.demand_kwh == pytest.approx(1080.0)
        assert s.served_kwh == pytest.approx(1080.0)

    def test_dead_battery_scores_0(self, dead_run):
        s = summarize(dead_run)
        assert s.percent_served_total == 0.0
        assert s.pv_utilization_total == 0.0
        assert s.served_kwh == 0.0
        assert s.critical_unserved_hours == pytest.approx(6.0)

    def test_fixture_runs_are_in_range(self, flex_run, fixed_run):
        for r in (flex_run, fixed_run):
            s = summarize(r)
            for v in s.percent_served.values():
                assert 0.0 <= v <= 100.0
            for v in s.pv_utilization.values():
                assert 0.0 <= v <= 100.0
            assert set(s.pv_utilization) == {1, 2}   # keyed by feeder
            assert s.served_kwh <= s.demand_kwh + 1e-6

    def test_topology_change_count(self, flex_run, fixed_run):
        assert summarize(flex_run).topology_change_count == 2
        assert summarize(fixed_run).topology_change_count == 0

    def test_energy_audit_closes_per_zone(self, flex_run, fixed_run):
        for r in (flex_run, fixed_run):
            dt_h = r.timeline.dispatch_step_minutes / 60.0
            for c, z in enumerate(r.zone_ids):
                demand = r.scenario.load_kw[z][:r.n_steps].sum() * dt_h
                got = (r.served_kw[:, c] + r.unserved_kw[:, c]).sum() * dt_h
                assert got == pytest.approx(demand, abs=1e-3)

    def test_summarize_is_pure(self, flex_run):
        assert summarize(flex_run) == summarize(flex_run)

    def test_percentages_are_validated(self, full_service_run):
        s = summarize(full_service_run)
        with pytest.raises(ValueError, match="percent"):
            dataclasses.replace(s, percent_served_total=100.5)


class TestCompare:
    def test_self_comparison_is_all_zeros(self, flex_run):
        rows = compare(flex_run, flex_run)
        assert len(rows) == 12   # ten zones plus two totals
        for row in rows:
            assert row["delta"] == 0.0

    def test_accepts_summaries_too(self, flex_run, fixed_run):
        a, b = summarize(fixed_run), summarize(flex_run)
        rows = compare(a, b)
        by_label = {(r["row"], r["metric"]): r for r in rows}
        tot = by_label[("total", "percent_served")]
        assert tot["delta"] == pytest.approx(
            b.percent_served_total - a.percent_served_total)
        assert by_label[("zone_5", "percent_served")]["a"] \
            == a.percent_served[5]

    def test_different_scenarios_refuse_to_compare(self, flex_run,
                                                   full_service_run):
        with pytest.raises(ScenarioMismatch):
            compare(flex_run, full_service_run)


class TestOutputs:
    def test_file_set(self, full_service_run, tmp_path):
        paths = write_outputs(full_service_run, tmp_path / "out")
        names = {p.name for p in paths}
        assert names == {"summary.json", "trace.csv", "microgrids.csv",
                         "topology_changes.csv"}
        with_plots = write_outputs(full_service_run, tmp_path / "plots",
                                   emit_plots=True)
        assert {p.name for p in with_plots} - names \
            == {"fig5_load_pv.csv", "fig6_soc_fuel.csv",
                "fig7_connectivity.csv", "fig8_percent_served.csv"}

    def test_rewrite_is_byte_identical(self, flex_run, tmp_path):
        a = write_outputs(flex_run, tmp_path / "a", emit_plots=True)
        b = write_outputs(flex_run, tmp_path / "b", emit_plots=True)
        for pa, pb in zip(a, b):
            assert pa.name == pb.name
            assert filecmp.cmp(pa, pb, shallow=False), pa.name

    def test_summary_does_not_depend_on_array_layout(self, flex_run,
                                                     tmp_path):
        # numpy sums the steps of an F-ordered array pairwise, of a
        # C-ordered one row after row; on the fixture the two differ
        fortran = dataclasses.replace(flex_run, **{
            f.name: np.asfortranarray(getattr(flex_run, f.name))
            for f in dataclasses.fields(flex_run)
            if isinstance(getattr(flex_run, f.name), np.ndarray)})
        assert fortran.served_kw.flags.f_contiguous
        write_outputs(flex_run, tmp_path / "c")
        write_outputs(fortran, tmp_path / "f")
        assert (tmp_path / "f" / "summary.json").read_bytes() \
            == (tmp_path / "c" / "summary.json").read_bytes()

    def test_summary_round_trips_from_disk(self, flex_run, tmp_path):
        write_outputs(flex_run, tmp_path)
        back = summary_from_file(tmp_path / "summary.json")
        assert back == summarize(flex_run)

    def test_changes_file_lists_both_repartitions(self, flex_run, tmp_path):
        write_outputs(flex_run, tmp_path)
        lines = (tmp_path / "topology_changes.csv").read_text().splitlines()
        assert lines[0] == "time_min,kind,id,before,after"
        assert len(lines) == 7   # two events, one zone row + two switch rows each
        assert "720,zone,5,7,1" in lines
        assert "720,switch,9,closed,open" in lines
        assert "1620,zone,5,1,7" in lines

    def test_trace_covers_every_step(self, full_service_run, tmp_path):
        write_outputs(full_service_run, tmp_path)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(lines) == 1 + full_service_run.n_steps
        head = lines[0].split(",")
        assert head[0] == "time_min"
        assert "served_1" in head and "soc_1" in head


# SHA-256 of every file written by write_outputs(..., emit_plots=True),
# recorded with the row-by-row writers the columnar block writer replaced.
FIXTURE_FLEX_DIGESTS = {
    "summary.json": "867b07bc5de0ce364236bba1fa5a4ec9331de381bc22813ed56a6261bd4a0736",
    "trace.csv": "e14680c96721cbfb40305f04f6661f8d9bd0f0b02a3aaf04aab185a4d9f4ecc8",
    "microgrids.csv": "ab881bf8244d0d59a552c420ea8e76d8602173696ee68ce3b67cc5894138fea6",
    "topology_changes.csv": "5a5707fad14f6c6287b9ce7aeb4d66f12fe45656c555a836cf5e867b28c9c941",
    "fig5_load_pv.csv": "3e561dbb56169ae973317ce8914b94a3ed797c6430b7cf69a39d242c20ec5eec",
    "fig6_soc_fuel.csv": "41752ac36252a10bc402004c03d1dc3afe4238aeac8f49dfd58c3227eb0dec53",
    "fig7_connectivity.csv": "21ddbf6a052d45e083d83360dec326e7198f6c619c196c947b4e85fbf2a5f2e9",
    "fig8_percent_served.csv": "d71f41f2a3c2740422a3794ecff1879ba65d82716f100f5e35ed0c22d2234888",
}
NO_CHANGES = "ab91df184a9f0340d7e5c544e58fc678c01aa2fda6db7ff3b2f519e2c8e476e6"
SHORT_RUN_DIGESTS = {
    # fixture, fixed, one day of its two: 288 steps
    "one-day": {
        "summary.json": "4444b5fe46fbf30f898eb18c80badd540bf5112b2e3f682e9cd1083af975fbe5",
        "trace.csv": "bc1fc5a56e7942174ce02f9777866836feb6e47663998eb847673ddd7f9f0346",
        "microgrids.csv": "b0b000882571bebb7f80c8b1479bfe47f32af4a7696d2a7e402d89cc6c7806f9",
        "topology_changes.csv": NO_CHANGES,
        "fig5_load_pv.csv": "7f82a54cc8f7115bc917cf22e16abaf99216ddf5d45c3d7196d65cd637acce93",
        "fig6_soc_fuel.csv": "a0839db4019d843c1943bea718497c36be0488c01464dfca127a2e415a5ca25f",
        "fig7_connectivity.csv": "426245e9e8d7c3ec72adb609954bb2014405d1987305c6dc57d663fb3217d5f7",
        "fig8_percent_served.csv": "9bc1f45963bea184c20aa8cf3bfc697e20cd1eb44faf70a75b6f092d1b70eb55",
    },
}
PAIR_DIGESTS = {
    "summary.json": "cfd6041e0909bb35d8da61b051e539ee7c137a012ca5042cabfad649d10a7d1c",
    "trace.csv": "3816fad194668ef75bbaf5f2271dbf3843b54b0e71d30f95b12c1eb0c9069131",
    "microgrids.csv": "32cf2cc28c241a29f545ed927bd13815975cb5658becfab270ee50e75084ca72",
    "topology_changes.csv": NO_CHANGES,
    "fig5_load_pv.csv": "a270608ae075ef6c1539883d82daeece6f93d56ab336b15ee62c5f20ae8e1211",
    "fig6_soc_fuel.csv": "eae8f35a3f8641e6f9a9eab7c0b6163986f6e563abd90a0b8966d23f94fd59df",
    "fig7_connectivity.csv": "da07517dda9e4c2b111e64472553712055374a723a510d3a66c6cd8454ae1077",
    "fig8_percent_served.csv": "7d6e1ef2043b4f3d9620769daa2c1eb97b6df3cb351fc6a91d508d9ed3345110",
}
SHORT_TIMELINES = {"one-day": Timeline(total_minutes=1440)}
# rows of the block writer's whole-blocks-only case: a run cannot have them
# short of 64 formation steps (2,304 steps)
WHOLE_BLOCKS = 2 * _BLOCK_ROWS


def _digests(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


class TestPinnedBytes:
    def test_step_counts_straddle_the_block_size(self, flex_run,
                                                 full_service_run):
        # one partial block; whole blocks only; whole blocks and a partial one
        assert full_service_run.n_steps < _BLOCK_ROWS
        assert WHOLE_BLOCKS > _BLOCK_ROWS and WHOLE_BLOCKS % _BLOCK_ROWS == 0
        for n in (SHORT_TIMELINES["one-day"].n_steps, flex_run.n_steps):
            assert n > _BLOCK_ROWS and n % _BLOCK_ROWS

    def test_fixture_flexible_run(self, flex_run, tmp_path):
        paths = write_outputs(flex_run, tmp_path, emit_plots=True)
        assert _digests(paths) == FIXTURE_FLEX_DIGESTS

    @pytest.mark.parametrize("label", sorted(SHORT_TIMELINES))
    def test_horizon_shorter_than_the_profiles(self, scenario, label,
                                               tmp_path):
        r = run(scenario, "fixed", SHORT_TIMELINES[label])
        assert r.n_steps < scenario.n_steps
        paths = write_outputs(r, tmp_path, emit_plots=True)
        assert _digests(paths) == SHORT_RUN_DIGESTS[label]

    def test_whole_blocks_are_the_csv_writers_bytes(self, tmp_path):
        # the trace's layout: a time column, then float, bool and int
        # arrays interleaved column by column, then a 1-D group
        rng = np.random.default_rng(7)
        n = WHOLE_BLOCKS
        time_min = np.arange(n) * 5.0
        kw = rng.uniform(-1e3, 1e3, (n, 2))
        on = rng.random((n, 2)) < 0.5
        anchor = rng.integers(-1, 8, (n, 2))
        soc = rng.uniform(0.0, 1e4, n)
        header = ["time_min", "kw_1", "on_1", "anchor_1", "kw_2", "on_2",
                  "anchor_2", "soc"]
        _write_columns(tmp_path / "blocks.csv", header,
                       [[time_min], [kw, on, anchor], [soc]])
        with open(tmp_path / "rows.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for s in range(n):
                w.writerow([time_min[s].item()]
                           + [v for c in range(2)
                              for v in (kw[s, c].item(), int(on[s, c]),
                                        int(anchor[s, c]))]
                           + [soc[s].item()])
        assert (tmp_path / "blocks.csv").read_bytes() \
            == (tmp_path / "rows.csv").read_bytes()

    def test_run_shorter_than_one_block(self, full_service_run, tmp_path):
        paths = write_outputs(full_service_run, tmp_path, emit_plots=True)
        assert _digests(paths) == PAIR_DIGESTS

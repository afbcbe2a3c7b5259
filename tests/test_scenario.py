import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsplit import (
    FaultWindow,
    ParseError,
    Scenario,
    ValidationError,
    fixture_two_feeder,
    load_scenario,
    save_scenario,
)


class TestFixtureCensus:
    def test_topology_counts(self, scenario):
        g = scenario.graph
        assert len(g.nodes) == 10
        assert len(g.edges) == 11
        assert {e.id for e in g.edges if e.normally_open} == {9, 10}
        assert g.faulted_edges == frozenset({11})
        assert {r.node_id for r in g.resources} == {1, 7}
        assert {n.id for n in g.nodes if n.is_critical} == {2, 3, 4, 7, 9, 10}
        assert {(p.gfm_node_id, p.edge_id) for p in g.lateral_policies} \
            == {(1, 2), (7, 6)}

    def test_horizon_shape(self, scenario):
        assert scenario.step_minutes == 5
        assert scenario.n_steps == 576
        assert scenario.horizon_minutes == 2880
        for z in range(1, 11):
            assert len(scenario.load_kw[z]) == 576
            assert len(scenario.pv_kw[z]) == 576

    def test_day_peaks_hit_their_targets(self, scenario):
        f1 = sum(scenario.load_kw[z] for z in range(1, 6))
        f2 = sum(scenario.load_kw[z] for z in range(6, 11))
        # normalization pins each day's sampled feeder peak
        assert f1[:288].max() == pytest.approx(3500.0, abs=1e-9)
        assert f1[288:].max() == pytest.approx(3000.0, abs=1e-9)
        assert f2[:288].max() == pytest.approx(3000.0, abs=1e-9)
        assert f2[288:].max() == pytest.approx(2000.0, abs=1e-9)

    def test_pv_noon_sample_is_nameplate(self, scenario):
        pv1 = sum(scenario.pv_kw[z] for z in range(1, 6))
        # noon falls on a sample and the shape peaks at exactly 1 there
        noon = 12 * 60 // 5
        assert pv1[noon] == pytest.approx(4000.0, abs=1e-9)
        assert pv1.max() == pytest.approx(4000.0, abs=1e-9)
        night = 0
        assert pv1[night] == 0.0

    def test_tie_fault_window(self, scenario):
        assert scenario.faulted_at(719) == frozenset()
        assert scenario.faulted_at(720) == frozenset({9})
        assert scenario.faulted_at(1619) == frozenset({9})
        assert scenario.faulted_at(1620) == frozenset()

    def test_builtin_name_resolves(self, scenario):
        sc = load_scenario("builtin:two-feeder")
        assert sc.name == scenario.name
        assert np.array_equal(sc.load_kw[4], scenario.load_kw[4])

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ValidationError, match="unknown builtin"):
            load_scenario("builtin:three-feeder")


class TestRoundTrip:
    def test_save_load_preserves_everything(self, scenario, tmp_path):
        save_scenario(scenario, tmp_path / "sc.json")
        back = load_scenario(tmp_path / "sc.json")
        assert back.name == scenario.name
        assert back.graph == scenario.graph
        assert back.step_minutes == scenario.step_minutes
        assert back.fault_windows == scenario.fault_windows
        assert back.forecast_sigma == scenario.forecast_sigma
        assert back.forecast_seed == scenario.forecast_seed
        for z in range(1, 11):
            assert np.array_equal(back.load_kw[z], scenario.load_kw[z])
            assert np.array_equal(back.pv_kw[z], scenario.pv_kw[z])

    def test_saved_bytes_are_pinned(self, scenario, tmp_path):
        # recorded with the row-by-row profile writer
        save_scenario(scenario, tmp_path / "sc.json")
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("sc.json", "sc_load.csv", "sc_pv.csv")}
        assert got == {
            "sc.json": "1f285505f6c91a8d1073330f07e6b81271985e4d90788be34a1d1a58955afb45",
            "sc_load.csv": "66e625b1918c35960e83647ade45375fd6b18a60330edd82f364e9f778301f63",
            "sc_pv.csv": "00ebf78451a6b9dd272d1e9aaba8c79d96d2a644f1b8830b472847ac6473498a",
        }

    def test_resave_is_byte_identical(self, scenario, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        save_scenario(scenario, a / "sc.json")
        save_scenario(load_scenario(a / "sc.json"), b / "sc.json")
        for name in ("sc.json", "sc_load.csv", "sc_pv.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestFileValidation:
    def _doc(self, scenario, tmp_path):
        save_scenario(scenario, tmp_path / "sc.json")
        return json.loads((tmp_path / "sc.json").read_text())

    def _write(self, doc, tmp_path):
        (tmp_path / "sc.json").write_text(json.dumps(doc))

    def test_missing_schema_version(self, scenario, tmp_path):
        doc = self._doc(scenario, tmp_path)
        del doc["schema_version"]
        self._write(doc, tmp_path)
        with pytest.raises(ValidationError, match="/schema_version: missing"):
            load_scenario(tmp_path / "sc.json")

    def test_unsupported_schema_version(self, scenario, tmp_path):
        doc = self._doc(scenario, tmp_path)
        doc["schema_version"] = 99
        self._write(doc, tmp_path)
        with pytest.raises(ValidationError, match="unsupported version 99"):
            load_scenario(tmp_path / "sc.json")

    def test_node_field_pointer(self, scenario, tmp_path):
        doc = self._doc(scenario, tmp_path)
        del doc["nodes"][0]["feeder_id"]
        self._write(doc, tmp_path)
        with pytest.raises(ValidationError, match="/nodes/0/feeder_id"):
            load_scenario(tmp_path / "sc.json")

    def test_wrong_field_type_pointer(self, scenario, tmp_path):
        doc = self._doc(scenario, tmp_path)
        doc["edges"][3]["flow_limit_kw"] = "big"
        self._write(doc, tmp_path)
        with pytest.raises(ValidationError, match="/edges/3/flow_limit_kw"):
            load_scenario(tmp_path / "sc.json")

    def test_invalid_json_is_a_parse_error(self, tmp_path):
        (tmp_path / "sc.json").write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_scenario(tmp_path / "sc.json")

    @pytest.mark.parametrize("data", [b"\xff{}", b"[" * 10**5 + b"]" * 10**5],
                             ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_json_is_a_parse_error(self, tmp_path, data):
        (tmp_path / "sc.json").write_bytes(data)
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "sc.json")

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "absent.json")

    def test_profile_row_length_checked(self, scenario, tmp_path):
        save_scenario(scenario, tmp_path / "sc.json")
        csv_path = tmp_path / "sc_load.csv"
        lines = csv_path.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]   # drop the last field of row 5
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="sc_load.csv:6"):
            load_scenario(tmp_path / "sc.json")

    def test_profile_time_grid_checked(self, scenario, tmp_path):
        save_scenario(scenario, tmp_path / "sc.json")
        csv_path = tmp_path / "sc_pv.csv"
        lines = csv_path.read_text().splitlines()
        first = lines[1].split(",")
        first[0] = "3.0"                        # first sample must be t=0
        lines[1] = ",".join(first)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="time_min 3.0 is not 0"):
            load_scenario(tmp_path / "sc.json")

    def test_negative_power_rejected(self, scenario, tmp_path):
        save_scenario(scenario, tmp_path / "sc.json")
        csv_path = tmp_path / "sc_load.csv"
        lines = csv_path.read_text().splitlines()
        row = lines[2].split(",")
        row[1] = "-5.0"
        lines[2] = ",".join(row)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="negative power"):
            load_scenario(tmp_path / "sc.json")

    def test_fault_window_on_unknown_edge(self, scenario, tmp_path):
        doc = self._doc(scenario, tmp_path)
        doc["fault_windows"][0]["edge_id"] = 42
        self._write(doc, tmp_path)
        with pytest.raises(ValidationError,
                           match="/fault_windows/0/edge_id: unknown edge 42"):
            load_scenario(tmp_path / "sc.json")

    @pytest.mark.parametrize("where, key, value", [
        ((), "forecast_sigma", "0.1"),
        ((), "forecast_seed", "x"),
        (("lateral_policies", 0), "min_downstream_nodes", "x"),
        (("lateral_policies", 1), "force_zero", 1),
        ((), "lateral_policies", None),
        ((), "fault_windows", {}),
        (("faulted_edges",), 0, [11]),
    ])
    def test_optional_field_types_checked(self, scenario, tmp_path, where,
                                          key, value):
        doc = self._doc(scenario, tmp_path)
        obj = doc
        for k in where:
            obj = obj[k]
        obj[key] = value
        self._write(doc, tmp_path)
        ptr = "".join(f"/{k}" for k in where) + f"/{key}: expected"
        with pytest.raises(ValidationError, match=ptr):
            load_scenario(tmp_path / "sc.json")

    def test_step_minutes_checked_before_the_profiles(self, scenario,
                                                      tmp_path):
        doc = self._doc(scenario, tmp_path)
        doc["step_minutes"] = 0
        self._write(doc, tmp_path)
        with pytest.raises(ValidationError, match="^/step_minutes: must be"):
            load_scenario(tmp_path / "sc.json")

    @pytest.mark.parametrize("where, key, value, message", [
        (("nodes", 3), "peak_load_kw", math.nan,
         "/nodes/3: peak_load_kw nan must be finite"),
        (("resources", 1), "battery_soc0", 7.0,
         r"/resources/1: battery_soc0 7.0 must lie in \[0, 1\]"),
        (("resources", 0), "battery_efficiency", 0.0,
         r"/resources/0: battery_efficiency 0.0 must lie in \(0, 1\]"),
        (("resources", 0), "battery_power_kw", math.inf,
         "/resources/0: battery_power_kw inf must be finite"),
        (("resources", 1), "battery_energy_kwh", -5.0,
         "/resources/1: battery_energy_kwh -5.0 must be finite and non-neg"),
        (("resources", 0), "diesel_power_kw", -1,
         "/resources/0: diesel_power_kw -1.0 must be finite and non-neg"),
        (("resources", 1), "diesel_fuel_kwh", math.nan,
         "/resources/1: diesel_fuel_kwh nan must be finite"),
        ((), "forecast_sigma", math.nan,
         "^/forecast_sigma: must be finite and non-negative"),
        (("nodes", 0), "peak_load_kw", 10 ** 400,
         "/nodes/0/peak_load_kw: number out of range"),
    ], ids=["peak_load_kw", "battery_soc0", "battery_efficiency",
            "battery_power_kw", "battery_energy_kwh", "diesel_power_kw",
            "diesel_fuel_kwh", "forecast_sigma", "integer-past-float"])
    def test_physical_field_range_checked(self, scenario, tmp_path, where,
                                          key, value, message):
        doc = self._doc(scenario, tmp_path)
        obj = doc
        for k in where:
            obj = obj[k]
        obj[key] = value
        self._write(doc, tmp_path)
        with pytest.raises(ValidationError, match=message):
            load_scenario(tmp_path / "sc.json")

    @pytest.mark.parametrize("name, cell", [("sc_load.csv", "nan"),
                                            ("sc_pv.csv", "inf")])
    def test_non_finite_power_rejected(self, scenario, tmp_path, name, cell):
        save_scenario(scenario, tmp_path / "sc.json")
        csv_path = tmp_path / name
        lines = csv_path.read_text().splitlines()
        row = lines[7].split(",")
        row[3] = cell
        lines[7] = ",".join(row)
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=f"{name}: non-finite"):
            load_scenario(tmp_path / "sc.json")


@pytest.fixture(scope="module")
def saved_texts(tmp_path_factory):
    """The fixture's saved JSON document and profile tables, as text with
    their line endings kept."""
    root = tmp_path_factory.mktemp("saved")
    save_scenario(fixture_two_feeder(), root / "sc.json")
    return {p.name: p.read_bytes().decode() for p in root.iterdir()}


def _draw_path(data, doc):
    """A key path into the document: one top-level key, then each level
    descends one more step with probability 2/3."""
    path, node = (), doc
    while (isinstance(node, (dict, list)) and node
           and (not path or data.draw(st.integers(0, 2)))):
        key = data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
    return path


DELETE = object()
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    # numbers at and just past the physical ranges of the records
    | st.sampled_from([-1.0, 0.0, 1.5, 7, math.nan, math.inf])
    | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6)
CELLS = (st.sampled_from(["", "nan", "inf", "-inf", "-1", "1e400", "0",
                          "5.0", "x", ",", '"', "\n"])
         | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))


def _load_mutated(texts, tmp):
    """The loaded scenario, or None when loading raised a typed error."""
    for name, text in texts.items():
        (tmp / name).write_bytes(text.encode())
    try:
        return load_scenario(tmp / "sc.json")
    except (ParseError, ValidationError):
        return None


def _assert_physical_ranges(sc):
    for n in sc.graph.nodes:
        assert 0 <= n.peak_load_kw < math.inf, n
    for r in sc.graph.resources:
        assert 0 <= r.battery_soc0 <= 1, r
        assert 0 < r.battery_efficiency <= 1, r
        for v in (r.battery_power_kw, r.battery_energy_kwh,
                  r.diesel_power_kw, r.diesel_fuel_kwh):
            assert 0 <= v < math.inf, r
    assert 0 <= sc.forecast_sigma < math.inf


class TestLoadFuzz:
    """One mutated field or cell: load_scenario loads or raises a typed
    error, and a document that loads has its physical fields in range."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_json_field(self, saved_texts, data):
        doc = json.loads(saved_texts["sc.json"])
        path = _draw_path(data, doc)
        value = data.draw(st.just(DELETE) | JSON_LEAVES | JSON_VALUES)
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        texts = dict(saved_texts, **{"sc.json": json.dumps(doc)})
        with tempfile.TemporaryDirectory() as tmp:
            sc = _load_mutated(texts, Path(tmp))
        if sc is not None:
            _assert_physical_ranges(sc)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_csv_cell(self, saved_texts, data):
        name = data.draw(st.sampled_from(["sc_load.csv", "sc_pv.csv"]))
        lines = saved_texts[name].split("\r\n")
        r = data.draw(st.integers(0, len(lines) - 1))
        cells = lines[r].split(",")
        c = data.draw(st.integers(0, len(cells)))
        cell = data.draw(st.none() | CELLS)
        if cell is None:
            del cells[c:c + 1]              # drop the cell (or nothing at the end)
        else:
            cells[c:c + 1] = [cell]         # replace it, or append a cell
        lines[r] = ",".join(cells)
        texts = dict(saved_texts, **{name: "\r\n".join(lines)})
        with tempfile.TemporaryDirectory() as tmp:
            _load_mutated(texts, Path(tmp))


class TestScenarioValidation:
    def test_profile_zone_set_must_match_graph(self, scenario):
        load = dict(scenario.load_kw)
        del load[3]
        with pytest.raises(ValidationError, match="/load"):
            Scenario(name="x", graph=scenario.graph, step_minutes=5,
                     load_kw=load, pv_kw=scenario.pv_kw)

    def test_ragged_profiles_rejected(self, scenario):
        pv = dict(scenario.pv_kw)
        pv[3] = pv[3][:100]
        with pytest.raises(ValidationError, match="ragged"):
            Scenario(name="x", graph=scenario.graph, step_minutes=5,
                     load_kw=scenario.load_kw, pv_kw=pv)

    def test_fault_window_must_be_ordered(self):
        with pytest.raises(ValidationError, match="must exceed"):
            FaultWindow(edge_id=9, start_min=720, end_min=720)

    def test_negative_sigma_rejected(self, scenario):
        with pytest.raises(ValidationError, match="/forecast_sigma"):
            Scenario(name="x", graph=scenario.graph, step_minutes=5,
                     load_kw=scenario.load_kw, pv_kw=scenario.pv_kw,
                     forecast_sigma=-0.1)


class TestForecast:
    def test_zero_sigma_returns_the_truth(self, scenario):
        load, pv = scenario.forecast()
        assert load is scenario.load_kw
        assert pv is scenario.pv_kw

    def test_noise_is_seed_deterministic(self, scenario):
        import dataclasses
        noisy = dataclasses.replace(scenario, forecast_sigma=0.1,
                                    forecast_seed=3)
        la, _ = noisy.forecast()
        lb, _ = noisy.forecast()
        for z in range(1, 11):
            assert np.array_equal(la[z], lb[z])
        other = dataclasses.replace(noisy, forecast_seed=4)
        lc, _ = other.forecast()
        assert not np.array_equal(la[1], lc[1])
        assert not np.array_equal(la[1], scenario.load_kw[1])

    def test_noise_never_goes_negative(self, scenario):
        import dataclasses
        noisy = dataclasses.replace(scenario, forecast_sigma=2.0,
                                    forecast_seed=0)
        load, pv = noisy.forecast()
        for z in range(1, 11):
            assert np.all(load[z] >= 0.0)
            assert np.all(pv[z] >= 0.0)

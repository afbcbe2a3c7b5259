"""Scenario definition and file round-trip.

A scenario couples a zone graph with true load and PV profiles at dispatch
resolution, plus fault windows and forecast-noise settings. On disk it is one
JSON document plus two CSV profile tables; in memory everything is numpy.
Each record of the document (zones, switches, resources, lateral policies,
fault windows) is read and written from the fields of its dataclass: one
reader takes the names, order and kinds from the dataclass, and
``dataclasses.asdict`` writes them. A value a record rejects as out of
range is a ValidationError at the record's JSON pointer.

Floats are written with ``repr`` so a save/load cycle is bit-exact. The
profile tables, like the per-step tables of ``report``, go through one
columnar writer that formats a block of steps per call instead of one cell
at a time; its bytes are those ``csv.writer`` wrote row by row.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .netmodel import (GridFormingResource, LateralPolicy, SwitchEdge,
                       ZoneGraph, ZoneNode)

SCHEMA_VERSION = 1
BUILTIN_PREFIX = "builtin:"


class ParseError(Exception):
    """File is not structurally readable (bad JSON, malformed CSV)."""


class ValidationError(Exception):
    """File parsed but the content is inconsistent; message carries a JSON pointer."""


@dataclass(frozen=True)
class FaultWindow:
    """Edge outage over [start_min, end_min)."""
    edge_id: int
    start_min: int
    end_min: int

    def __post_init__(self):
        if self.end_min <= self.start_min:
            raise ValueError(f"end_min {self.end_min} must exceed "
                             f"start_min {self.start_min}")

    def active_at(self, t_min: int) -> bool:
        return self.start_min <= t_min < self.end_min


@dataclass(frozen=True)
class Scenario:
    name: str
    graph: ZoneGraph
    step_minutes: int
    load_kw: dict[int, np.ndarray]
    pv_kw: dict[int, np.ndarray]
    fault_windows: tuple[FaultWindow, ...] = ()
    forecast_sigma: float = 0.0
    forecast_seed: int = 0

    def __post_init__(self):
        zone_ids = {n.id for n in self.graph.nodes}
        for label, table in (("load", self.load_kw), ("pv", self.pv_kw)):
            if set(table) != zone_ids:
                raise ValidationError(
                    f"/{label}: zones {sorted(set(table) ^ zone_ids)} do not "
                    f"match the graph")
        lengths = {len(v) for v in self.load_kw.values()}
        lengths |= {len(v) for v in self.pv_kw.values()}
        if len(lengths) != 1:
            raise ValidationError("/profiles: ragged profile lengths")
        edge_ids = {e.id for e in self.graph.edges}
        for i, fw in enumerate(self.fault_windows):
            if fw.edge_id not in edge_ids:
                raise ValidationError(
                    f"/fault_windows/{i}/edge_id: unknown edge {fw.edge_id}")
        if not 0 <= self.forecast_sigma < math.inf:
            raise ValidationError("/forecast_sigma: must be finite and non-negative")
        if self.forecast_seed < 0:
            raise ValidationError("/forecast_seed: must be non-negative")
        if self.step_minutes <= 0:
            raise ValidationError("/step_minutes: must be positive")

    @property
    def n_steps(self) -> int:
        return len(next(iter(self.load_kw.values())))

    @property
    def horizon_minutes(self) -> int:
        return self.n_steps * self.step_minutes

    def faulted_at(self, t_min: int) -> frozenset[int]:
        return frozenset(fw.edge_id for fw in self.fault_windows
                         if fw.active_at(t_min))

    def forecast(self) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
        """Noisy copy of the truth, deterministic in the seed.

        sigma = 0 returns the truth arrays themselves.
        """
        if self.forecast_sigma == 0.0:
            return self.load_kw, self.pv_kw
        rng = np.random.default_rng(self.forecast_seed)
        out: list[dict[int, np.ndarray]] = []
        for table in (self.load_kw, self.pv_kw):
            noisy = {}
            for i in sorted(table):
                f = table[i] * (1.0 + self.forecast_sigma
                                * rng.standard_normal(len(table[i])))
                noisy[i] = np.maximum(f, 0.0)
            out.append(noisy)
        return out[0], out[1]


# ---------------------------------------------------------------------------
# JSON + CSV round trip
# ---------------------------------------------------------------------------

def _need(obj: dict, key: str, kind, ptr: str):
    if key not in obj:
        raise ValidationError(f"{ptr}/{key}: missing")
    v = obj[key]
    if kind is float:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValidationError(f"{ptr}/{key}: expected a number")
        try:
            return float(v)
        except OverflowError:   # an integer beyond the float range
            raise ValidationError(f"{ptr}/{key}: number out of range") from None
    if kind is int:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"{ptr}/{key}: expected an integer")
        return v
    if not isinstance(v, kind):
        raise ValidationError(f"{ptr}/{key}: expected {kind.__name__}")
    return v


def _opt(obj: dict, key: str, kind, ptr: str, default):
    """Like ``_need`` for a field that may be left out."""
    return _need(obj, key, kind, ptr) if key in obj else default


_KINDS = {"int": int, "float": float, "bool": bool, "str": str}
_OPTIONAL = frozenset({"min_downstream_nodes", "force_zero"})


def _records(doc: dict, key: str, cls, required: bool = True) -> list:
    """The records of one list, read from the fields of their dataclass.

    Field names, order and kinds come from ``cls``; only the fields in
    ``_OPTIONAL`` may be left out. A value the record rejects is a
    ValidationError at the record's pointer.
    """
    out = []
    items = _need(doc, key, list, "") if required else _opt(doc, key, list, "", [])
    for idx, obj in enumerate(items):
        ptr = f"/{key}/{idx}"
        if not isinstance(obj, dict):
            raise ValidationError(f"{ptr}: expected an object")
        kw = {f.name: _need(obj, f.name, _KINDS[f.type], ptr) for f in fields(cls)
              if f.name in obj or f.name not in _OPTIONAL}
        try:
            out.append(cls(**kw))
        except ValueError as exc:
            raise ValidationError(f"{ptr}: {exc}") from exc
    return out


def _read_profile_csv(path: Path, zone_ids: list[int],
                      step_minutes: int) -> dict[int, np.ndarray]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError, csv.Error) as exc:
        # ValueError: a NUL in the file name or bytes that are not text
        raise ParseError(f"{path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = rows[0]
    if header[:1] != ["time_min"]:
        raise ParseError(f"{path}: first column must be time_min")
    try:
        cols = [int(c) for c in header[1:]]
    except ValueError as exc:
        raise ParseError(f"{path}: non-integer zone column") from exc
    if cols != sorted(zone_ids):
        raise ValidationError(
            f"{path}: columns {cols} must be the sorted zone ids {sorted(zone_ids)}")
    data = np.empty((len(rows) - 1, len(cols)))
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(cols) + 1:
            raise ParseError(f"{path}:{r}: expected {len(cols) + 1} fields")
        try:
            t = float(row[0])
            data[r - 2] = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{r}: non-numeric value") from exc
        if t != (r - 2) * step_minutes:
            raise ValidationError(
                f"{path}:{r}: time_min {t} is not {(r - 2) * step_minutes}")
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{path}: non-finite power values")
    if np.any(data < 0):
        raise ValidationError(f"{path}: negative power values")
    return {z: data[:, c].copy() for c, z in enumerate(cols)}


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario document; `builtin:` names resolve to bundled fixtures."""
    if isinstance(path, str) and path.startswith(BUILTIN_PREFIX):
        key = path[len(BUILTIN_PREFIX):]
        if key == "two-feeder":
            return fixture_two_feeder()
        raise ValidationError(f"unknown builtin scenario {key!r}")
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:
        # ValueError: a NUL in the file name or bytes that are not text
        raise ParseError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("/: document must be an object")
    version = _need(doc, "schema_version", int, "")
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"/schema_version: unsupported version {version}")

    name = _need(doc, "name", str, "")
    step_minutes = _need(doc, "step_minutes", int, "")
    if step_minutes <= 0:
        raise ValidationError("/step_minutes: must be positive")

    nodes = _records(doc, "nodes", ZoneNode)
    edges = _records(doc, "edges", SwitchEdge)
    resources = _records(doc, "resources", GridFormingResource)
    policies = _records(doc, "lateral_policies", LateralPolicy, required=False)

    faulted = _opt(doc, "faulted_edges", list, "", [])
    for idx, eid in enumerate(faulted):
        if not isinstance(eid, int) or isinstance(eid, bool):
            raise ValidationError(f"/faulted_edges/{idx}: expected an integer")

    windows = _records(doc, "fault_windows", FaultWindow, required=False)

    try:
        graph = ZoneGraph(tuple(nodes), tuple(edges), tuple(resources),
                          frozenset(faulted), tuple(policies))
    except ValueError as exc:
        raise ValidationError(f"/: inconsistent graph: {exc}") from exc

    zone_ids = [n.id for n in nodes]
    load_csv = path.parent / _need(doc, "load_csv", str, "")
    pv_csv = path.parent / _need(doc, "pv_csv", str, "")
    load = _read_profile_csv(load_csv, zone_ids, step_minutes)
    pv = _read_profile_csv(pv_csv, zone_ids, step_minutes)

    return Scenario(name=name, graph=graph, step_minutes=step_minutes,
                    load_kw=load, pv_kw=pv, fault_windows=tuple(windows),
                    forecast_sigma=_opt(doc, "forecast_sigma", float, "", 0.0),
                    forecast_seed=_opt(doc, "forecast_seed", int, "", 0))


_BLOCK_ROWS = 256   # steps formatted per pass; bounds the strings held at once


def _cells(block: np.ndarray) -> list:
    """Columns of one block as string iterators: floats by repr, the rest as ints."""
    block = block.reshape(len(block), -1)
    if block.dtype.kind == "f":
        return [map(repr, col) for col in block.T.tolist()]
    return [map(str, col) for col in block.astype(np.int64).T.tolist()]


def _write_columns(path: Path, header: list[str],
                   groups: list[list[np.ndarray]]) -> None:
    """Write per-step arrays as CSV columns, ``_BLOCK_ROWS`` rows at a time.

    Every array is 1-D or 2-D with one row per step. Within a group the
    arrays share their column count and interleave column by column (column
    0 of each, then column 1 of each, ...); the groups follow one another.
    """
    n = len(groups[0][0])
    with open(path, "w", newline="") as fh:
        fh.write(_csv_lines([header]))
        for s0 in range(0, n, _BLOCK_ROWS):
            cols = []
            for group in groups:
                parts = [_cells(a[s0:s0 + _BLOCK_ROWS]) for a in group]
                cols += [col for cs in zip(*parts) for col in cs]
            fh.write(_csv_lines(zip(*cols)))


def _csv_lines(rows: Iterable[Sequence[str]]) -> str:
    """Rows of string fields, comma-joined and ending in ``\r\n``: the bytes
    ``csv.writer`` writes when no field needs quoting and no row is a lone
    empty field. Written with ``newline=""``."""
    return "".join([",".join(row) + "\r\n" for row in rows])


def _write_profile_csv(path: Path, table: dict[int, np.ndarray],
                       step_minutes: int) -> None:
    zones = sorted(table)
    n = len(table[zones[0]])
    _write_columns(path, ["time_min"] + [str(z) for z in zones],
                   [[np.arange(n, dtype=float) * step_minutes]]
                   + [[np.asarray(table[z], dtype=float)] for z in zones])


def save_scenario(sc: Scenario, json_path: str | Path) -> None:
    """Write the JSON document and both profile CSVs next to it."""
    json_path = Path(json_path)
    stem = json_path.stem
    load_name = f"{stem}_load.csv"
    pv_name = f"{stem}_pv.csv"
    g = sc.graph
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": sc.name,
        "step_minutes": sc.step_minutes,
        "forecast_sigma": sc.forecast_sigma,
        "forecast_seed": sc.forecast_seed,
        "load_csv": load_name,
        "pv_csv": pv_name,
        "nodes": [asdict(n) for n in g.nodes],
        "edges": [asdict(e) for e in g.edges],
        "resources": [asdict(r) for r in g.resources],
        "faulted_edges": sorted(g.faulted_edges),
        "lateral_policies": [asdict(p) for p in g.lateral_policies],
        "fault_windows": [asdict(w) for w in sc.fault_windows],
    }
    json_path.write_text(json.dumps(doc, indent=2) + "\n")
    _write_profile_csv(json_path.parent / load_name, sc.load_kw, sc.step_minutes)
    _write_profile_csv(json_path.parent / pv_name, sc.pv_kw, sc.step_minutes)


# ---------------------------------------------------------------------------
# bundled two-feeder fixture
# ---------------------------------------------------------------------------

_F1_SHARES = {1: 0.16, 2: 0.22, 3: 0.18, 4: 0.26, 5: 0.18}
_F2_SHARES = {6: 0.20, 7: 0.14, 8: 0.16, 9: 0.24, 10: 0.26}
_F1_PEAKS = (3500.0, 3000.0)   # per-day feeder peaks, kW
_F2_PEAKS = (3000.0, 2000.0)
_PV_NAMEPLATE_KW = 4000.0      # per feeder


def _f1_load_shape(t_h: float) -> float:
    return (0.42 + 0.33 * math.exp(-((t_h - 8.8) / 2.3) ** 2)
            + 0.58 * math.exp(-((t_h - 19.4) / 2.9) ** 2))


def _f2_load_shape(t_h: float) -> float:
    return (0.40 + 0.52 * math.exp(-((t_h - 7.9) / 2.1) ** 2)
            + 0.44 * math.exp(-((t_h - 18.1) / 3.4) ** 2))


def _pv_shape(t_h: float) -> float:
    if not 6.4 <= t_h <= 17.6:
        return 0.0
    return math.sin(math.pi * (t_h - 6.4) / 11.2) ** 1.6


def _feeder_profiles(shape, peaks, n_steps: int,
                     step_minutes: int) -> np.ndarray:
    """Feeder-total load, normalized so each day's sampled peak is exact."""
    out = np.empty(n_steps)
    per_day = 1440 // step_minutes
    for day, peak in enumerate(peaks):
        lo, hi = day * per_day, min((day + 1) * per_day, n_steps)
        vals = np.array([shape(((s * step_minutes) % 1440) / 60.0)
                         for s in range(lo, hi)])
        out[lo:hi] = vals * (peak / vals.max())
    return out


def fixture_two_feeder() -> Scenario:
    """Two 5-zone feeders, two tie switches, 48 hours at 5-minute steps.

    Feeder 1 is zones 1..5 formed from zone 1, feeder 2 is zones 6..10 formed
    from zone 7. The mid-feeder lateral on each side carries a two-zone
    minimum, which pins zones 3,4 and 8,9; the tie endpoints 2, 5, 6 and 10
    are the zones a re-partition may hand over. Edge 11, the normally-closed
    feeder interconnection through the upstream grid, is faulted for the whole
    horizon: that outage is why the feeders run as islanded microgrids at all.
    Tie 9 (the 5-6 line) additionally faults from noon on day one until 03:00
    on day two, forcing a re-partition while it is out.
    """
    step_minutes = 5
    n_steps = 2 * 1440 // step_minutes

    f1 = _feeder_profiles(_f1_load_shape, _F1_PEAKS, n_steps, step_minutes)
    f2 = _feeder_profiles(_f2_load_shape, _F2_PEAKS, n_steps, step_minutes)
    pv = np.array([_pv_shape(((s * step_minutes) % 1440) / 60.0)
                   for s in range(n_steps)]) * _PV_NAMEPLATE_KW

    load: dict[int, np.ndarray] = {}
    pv_kw: dict[int, np.ndarray] = {}
    for z, share in _F1_SHARES.items():
        load[z] = share * f1
        pv_kw[z] = share * pv
    for z, share in _F2_SHARES.items():
        load[z] = share * f2
        pv_kw[z] = share * pv

    criticals = {2, 3, 4, 7, 9, 10}
    nodes = tuple(ZoneNode(
        id=i, feeder_id=1 if i <= 5 else 2, is_critical=i in criticals,
        peak_load_kw=float(load[i].max()), has_gfm=i in {1, 7})
        for i in range(1, 11))
    spans = [(1, (1, 2), False), (2, (1, 3), False), (3, (3, 4), False),
             (4, (4, 5), False), (5, (7, 6), False), (6, (7, 8), False),
             (7, (8, 9), False), (8, (9, 10), False),
             (9, (5, 6), True), (10, (2, 10), True),
             (11, (1, 7), False)]
    edges = tuple(SwitchEdge(eid, t, h, no, 6000.0)
                  for eid, (t, h), no in spans)
    resources = (
        GridFormingResource(node_id=1, battery_power_kw=3000.0,
                            battery_energy_kwh=12000.0, battery_soc0=1.0,
                            battery_efficiency=0.95, diesel_power_kw=4000.0,
                            diesel_fuel_kwh=26000.0),
        GridFormingResource(node_id=7, battery_power_kw=2000.0,
                            battery_energy_kwh=8000.0, battery_soc0=1.0,
                            battery_efficiency=0.95, diesel_power_kw=4000.0,
                            diesel_fuel_kwh=20000.0),
    )
    policies = (LateralPolicy(gfm_node_id=1, edge_id=2, min_downstream_nodes=2),
                LateralPolicy(gfm_node_id=7, edge_id=6, min_downstream_nodes=2))

    return Scenario(
        name="two-feeder", graph=ZoneGraph(nodes, edges, resources,
                                           frozenset({11}), policies),
        step_minutes=step_minutes, load_kw=load, pv_kw=pv_kw,
        fault_windows=(FaultWindow(edge_id=9, start_min=720, end_min=1620),))

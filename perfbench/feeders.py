"""Seeded synthetic N-feeder scenarios in the style of ``fixture_two_feeder``.

Every feeder has a grid-forming battery plus diesel at its head zone, a chain
of zones running away from the head and one lateral zone hanging off the
head. Neighbouring feeders are joined by two normally-open ties (chain end to
the neighbour's lateral, lateral to the neighbour's chain end) and by a
normally-closed upstream interconnection between their heads that is faulted
for the whole horizon, which is why the feeders run as islands at all.

Resources and fuel are sized to the horizon so that a multi-day dispatch both
commits zones and has to shed some of them: storage and diesel carry most of
the evening peak, never all of it.
"""

from __future__ import annotations

import numpy as np

from gridsplit.formation import fixed_topology_solution
from gridsplit.netmodel import (GridFormingResource, LateralPolicy, SwitchEdge,
                                ZoneGraph, ZoneNode, is_radial_forest)
from gridsplit.scenario import FaultWindow, Scenario

STEP_MINUTES = 5
FLOW_LIMIT_KW = 6000.0


class GeneratorError(Exception):
    """A generated scenario failed its own structural checks."""


def _daily_shape(t_h: np.ndarray, morning: float, evening: float) -> np.ndarray:
    return (0.42 + 0.40 * np.exp(-((t_h - morning) / 2.2) ** 2)
            + 0.55 * np.exp(-((t_h - evening) / 3.0) ** 2))


def _pv_shape(t_h: np.ndarray) -> np.ndarray:
    day = (t_h >= 6.4) & (t_h <= 17.6)
    return np.where(day, np.sin(np.pi * np.clip(t_h - 6.4, 0.0, 11.2) / 11.2)
                    ** 1.6, 0.0)


def feeder_zones(n_feeders: int, zones_per_feeder: int) -> list[list[int]]:
    """Zone ids per feeder: head first, then the lateral, then the chain."""
    return [list(range(f * zones_per_feeder + 1, (f + 1) * zones_per_feeder + 1))
            for f in range(n_feeders)]


def synthetic_feeders(n_feeders: int, zones_per_feeder: int, seed: int, *,
                      days: int = 2, policies: bool = False) -> Scenario:
    """Build and check one synthetic scenario; same arguments, same scenario.

    ``policies`` adds a two-zone ``min_downstream_nodes`` policy on the first
    chain edge of every feeder, as the fixture does on its mid-feeder
    laterals. Raises GeneratorError if the default topology is not a radial
    forest; ``fixed_topology_solution`` raises if the baseline cannot be
    built from it.
    """
    if n_feeders < 2 or zones_per_feeder < 3:
        raise ValueError("need at least two feeders of three zones")
    rng = np.random.default_rng(seed)
    n_steps = days * 1440 // STEP_MINUTES
    t_h = (np.arange(n_steps) * STEP_MINUTES % 1440) / 60.0
    pv_unit = _pv_shape(t_h)
    feeders = feeder_zones(n_feeders, zones_per_feeder)

    nodes: list[ZoneNode] = []
    edges: list[SwitchEdge] = []
    resources: list[GridFormingResource] = []
    pols: list[LateralPolicy] = []
    load: dict[int, np.ndarray] = {}
    pv: dict[int, np.ndarray] = {}

    def add_edge(tail: int, head: int, normally_open: bool) -> int:
        edges.append(SwitchEdge(len(edges) + 1, tail, head, normally_open,
                                FLOW_LIMIT_KW))
        return len(edges)

    for f, zones in enumerate(feeders):
        head, lateral, chain = zones[0], zones[1], zones[2:]
        peak = float(rng.uniform(2500.0, 3500.0))
        shape = _daily_shape(t_h, rng.uniform(7.0, 9.5), rng.uniform(17.5, 20.5))
        day_scale = np.repeat(rng.uniform(0.8, 1.1, days), 1440 // STEP_MINUTES)
        total = shape * day_scale * (peak / shape.max())
        shares = rng.dirichlet(np.full(len(zones), 4.0))
        pv_kw = float(rng.uniform(0.8, 1.3)) * peak
        critical = set(rng.choice(zones, size=len(zones) // 2, replace=False)
                       .tolist())
        for z, share in zip(zones, shares):
            load[z] = share * total
            pv[z] = share * pv_kw * pv_unit
            nodes.append(ZoneNode(z, f + 1, z in critical,
                                  float(load[z].max()), z == head))

        avg_kw = float(total.mean())
        resources.append(GridFormingResource(
            node_id=head,
            battery_power_kw=round(0.55 * peak, 1),
            battery_energy_kwh=round(3.0 * avg_kw, 1),
            battery_soc0=1.0, battery_efficiency=0.95,
            diesel_power_kw=round(0.5 * peak, 1),
            diesel_fuel_kwh=round(0.3 * avg_kw * 24.0 * days, 1)))

        add_edge(head, lateral, False)
        first = add_edge(head, chain[0], False)
        for a, b in zip(chain, chain[1:]):
            add_edge(a, b, False)
        if policies and len(chain) >= 2:
            pols.append(LateralPolicy(head, first, min_downstream_nodes=2))

    ties: list[int] = []
    for left, right in zip(feeders, feeders[1:]):
        ties.append(add_edge(left[-1], right[1], True))
        ties.append(add_edge(left[1], right[-1], True))
    upstream = {add_edge(left[0], right[0], False)
                for left, right in zip(feeders, feeders[1:])}

    graph = ZoneGraph(tuple(nodes), tuple(edges), tuple(resources),
                      frozenset(upstream), tuple(pols))
    default = {e.id for e in graph.active_edges() if not e.normally_open}
    if not is_radial_forest(graph, default).is_radial:
        raise GeneratorError("default topology is not a radial forest")
    fixed_topology_solution(graph)

    out_tie = int(rng.choice(ties))
    start = int(rng.integers(4, 10)) * 180
    windows = (FaultWindow(out_tie, start, start + 900),)
    return Scenario(f"synthetic-{n_feeders}x{zones_per_feeder}-{seed}",
                    graph, STEP_MINUTES, load, pv, windows)


def peak_snapshot_window(sc: Scenario, seed: int) -> int:
    """Step index of a seeded 3-h window that starts in the evening ramp."""
    rng = np.random.default_rng(seed)
    day = int(rng.integers(0, sc.n_steps * sc.step_minutes // 1440))
    hour = int(rng.integers(15, 20))
    return (day * 1440 + hour * 60) // sc.step_minutes

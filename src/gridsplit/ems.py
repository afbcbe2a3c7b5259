"""Per-microgrid energy management.

Two stages on different clocks share one storage step. The scheduler walks
30-minute slots and commits the longest priority prefix of zones that
battery plus diesel can carry; the dispatcher replays each slot in 5-minute
steps against actuals and, when both run out, sheds from the bottom of the
priority order down to the longest prefix that still fits. Both settle each
interval alike: battery first, diesel second, and a PV surplus charges the
battery up to its power and headroom.

Zone priority: critical zones first, then electrical distance from the
grid-forming node, then zone id. Energy accounting is construction-exact:
every step satisfies served = pv_used + diesel + discharge - charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .netmodel import GridFormingResource, ZoneGraph, walk

BALANCE_TOL = 1e-9


class TopologyMismatch(Exception):
    """Member zones do not form a connected tree under the closed switches."""


@dataclass(frozen=True)
class ServiceOrder:
    """Static per-topology service data: priority ranking and feed paths."""
    gfm_node_id: int
    members: tuple[int, ...]
    ranked: tuple[int, ...]
    path_zones: dict[int, frozenset[int]]  # zone -> zones feeding it, gfm excluded


def service_order(g: ZoneGraph, members: frozenset[int] | set[int],
                  gfm_node_id: int,
                  closed_edges: frozenset[int] | set[int]) -> ServiceOrder:
    if gfm_node_id not in members:
        raise TopologyMismatch(
            f"grid-forming zone {gfm_node_id} is not a member")
    reached, parent = walk(g.adjacency(frozenset(closed_edges)), gfm_node_id,
                           within=members)
    missing = set(members) - parent.keys()
    if missing:
        raise TopologyMismatch(
            f"zones {sorted(missing)} unreachable from zone {gfm_node_id}")

    paths: dict[int, frozenset[int]] = {gfm_node_id: frozenset()}
    for v in reached[1:]:
        paths[v] = paths[parent[v][0]] | {v}
    ranked = tuple(sorted(members, key=lambda i: (not g.node(i).is_critical,
                                                  len(paths[i]), i)))
    return ServiceOrder(gfm_node_id, tuple(sorted(members)), ranked, paths)


@dataclass
class MicrogridState:
    """Mutable storage state carried across dispatch windows."""
    resource: GridFormingResource
    soc_kwh: float
    fuel_kwh: float

    def __post_init__(self):
        cap = self.resource.battery_energy_kwh
        if not -BALANCE_TOL <= self.soc_kwh <= cap + BALANCE_TOL:
            raise ValueError(f"state of charge {self.soc_kwh} outside [0, {cap}]")
        if self.fuel_kwh < -BALANCE_TOL:
            raise ValueError("negative fuel")
        self.soc_kwh = min(max(self.soc_kwh, 0.0), cap)
        self.fuel_kwh = max(self.fuel_kwh, 0.0)


def _carried(res: GridFormingResource, soc: float, fuel: float, hours: float,
             zones: Sequence[int], load_kw: Mapping[int, Sequence[float]],
             pv_kw: Mapping[int, Sequence[float]],
             t: int) -> tuple[int, float, float]:
    """The longest prefix of ``zones`` that storage can carry at index ``t``:
    its length, load and PV.

    A prefix fits when its net deficit is within battery power and remaining
    energy plus diesel power and remaining fuel.
    """
    cap = min(res.battery_power_kw, soc / hours) + min(res.diesel_power_kw,
                                                       fuel / hours)
    for k in range(len(zones), 0, -1):
        load = sum(load_kw[i][t] for i in zones[:k])
        pv = sum(pv_kw[i][t] for i in zones[:k])
        if load - pv <= cap + BALANCE_TOL:
            return k, load, pv
    return 0, 0, 0


def _settle(res: GridFormingResource, soc: float, fuel: float, hours: float,
            net: float) -> tuple[float, float, float, float]:
    """Cover a net load with the battery first, then diesel; store a surplus.

    Returns battery power (discharge positive), diesel power and the state of
    charge and fuel left after ``hours``. Charging is limited by battery
    power and headroom.
    """
    if net >= 0:
        bat = min(net, res.battery_power_kw, soc / hours)
        die = min(net - bat, res.diesel_power_kw, fuel / hours)
        soc -= bat * hours
    else:
        headroom = (res.battery_energy_kwh - soc) / (hours * res.battery_efficiency)
        bat = -min(-net, res.battery_power_kw, headroom)
        die = 0.0
        soc += -bat * hours * res.battery_efficiency
    fuel -= die * hours
    return bat, die, min(max(soc, 0.0), res.battery_energy_kwh), max(fuel, 0.0)


@dataclass(frozen=True)
class SchedulePlan:
    """Slot-resolution commitment plan: each slot's committed priority prefix."""
    order: ServiceOrder
    slot_minutes: int
    committed: tuple[tuple[int, ...], ...]

    @property
    def n_slots(self) -> int:
        return len(self.committed)


def build_schedule(state: MicrogridState, order: ServiceOrder,
                   load_kw: Mapping[int, Sequence[float]],
                   pv_kw: Mapping[int, Sequence[float]],
                   *, slot_minutes: int = 30) -> SchedulePlan:
    """Commit the largest feasible priority prefix in every slot.

    A prefix is feasible when its net deficit fits under battery power,
    remaining energy, diesel power and remaining fuel for the slot length.
    Energy is projected from slot to slot; the live state is untouched.
    """
    if not slot_minutes > 0:
        raise ValueError(f"slot length {slot_minutes!r} min is not positive")
    res = state.resource
    n_slots = min(len(load_kw[i]) for i in order.members)
    hours = slot_minutes / 60.0
    soc, fuel = state.soc_kwh, state.fuel_kwh

    committed: list[tuple[int, ...]] = []
    for s in range(n_slots):
        k, load_tot, pv_tot = _carried(res, soc, fuel, hours, order.ranked,
                                       load_kw, pv_kw, s)
        _, _, soc, fuel = _settle(res, soc, fuel, hours, load_tot - pv_tot)
        committed.append(order.ranked[:k])
    return SchedulePlan(order, slot_minutes, tuple(committed))


@dataclass(frozen=True)
class DispatchWindow:
    """Step-resolution outcome of one schedule slot against actuals."""
    zones: tuple[int, ...]
    served_kw: np.ndarray        # (steps, zones)
    unserved_kw: np.ndarray
    pv_used_kw: np.ndarray
    committed: np.ndarray        # bool (steps, zones)
    energized: np.ndarray
    battery_kw: np.ndarray       # (steps,)
    diesel_kw: np.ndarray
    soc_kwh: np.ndarray          # end of step
    fuel_kwh: np.ndarray
    shed_zones: tuple[int, ...] = ()


def dispatch_window(state: MicrogridState, plan: SchedulePlan, slot_index: int,
                    load_kw: Mapping[int, Sequence[float]],
                    pv_kw: Mapping[int, Sequence[float]],
                    *, step_minutes: int = 5,
                    blocked_first_step: frozenset[int] = frozenset()) -> DispatchWindow:
    """Run one slot step by step, mutating the live storage state.

    Actual imbalance lands on the battery first, then diesel. When neither
    can close the gap the lowest-priority committed zone is shed and stays
    shed for the rest of the window. Zones in ``blocked_first_step`` sit out
    the first step only (switching interval after a topology change).
    """
    if not step_minutes > 0:
        raise ValueError(f"step length {step_minutes!r} min is not positive")
    if plan.slot_minutes % step_minutes != 0:
        raise ValueError("slot length must be a multiple of the step length")
    order = plan.order
    res = state.resource
    n_steps = plan.slot_minutes // step_minutes
    hours = step_minutes / 60.0
    zones = order.members
    col = {i: c for c, i in enumerate(zones)}
    nz = len(zones)

    served = np.zeros((n_steps, nz))
    unserved = np.zeros((n_steps, nz))
    pv_used = np.zeros((n_steps, nz))
    com_mask = np.zeros((n_steps, nz), dtype=bool)
    ener_mask = np.zeros((n_steps, nz), dtype=bool)
    battery = np.zeros(n_steps)
    diesel = np.zeros(n_steps)
    soc_t = np.zeros(n_steps)
    fuel_t = np.zeros(n_steps)

    shed: list[int] = []
    base = plan.committed[slot_index]       # a priority prefix, in order

    for step in range(n_steps):
        active = [i for i in base if i not in shed]
        if step == 0:
            active = [i for i in active if i not in blocked_first_step]

        k, load_tot, pv_tot = _carried(res, state.soc_kwh, state.fuel_kwh,
                                       hours, active, load_kw, pv_kw, step)
        shed += reversed(active[k:])    # lowest priority first
        del active[k:]
        bat, die, state.soc_kwh, state.fuel_kwh = _settle(
            res, state.soc_kwh, state.fuel_kwh, hours, load_tot - pv_tot)

        used_tot = load_tot - die - bat  # exact balance residual lands on PV
        energized = {order.gfm_node_id}
        for i in active:
            energized |= order.path_zones[i]

        for i in zones:
            c = col[i]
            if i in active:
                served[step, c] = load_kw[i][step]
                com_mask[step, c] = True
            else:
                unserved[step, c] = load_kw[i][step]
            ener_mask[step, c] = i in energized
        if pv_tot > 0 and active:
            for i in active:
                pv_used[step, col[i]] = used_tot * pv_kw[i][step] / pv_tot
            # pin the row sum to the exact total despite share rounding
            c_last = col[active[-1]]
            pv_used[step, c_last] += used_tot - pv_used[step].sum()
        battery[step] = bat
        diesel[step] = die
        soc_t[step] = state.soc_kwh
        fuel_t[step] = state.fuel_kwh

    return DispatchWindow(zones, served, unserved, pv_used, com_mask,
                          ener_mask, battery, diesel, soc_t, fuel_t,
                          tuple(shed))

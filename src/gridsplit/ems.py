"""Per-microgrid energy management.

Two stages on different clocks share one storage step. The scheduler walks
30-minute slots and commits the longest priority prefix of zones that
battery plus diesel can carry; the dispatcher replays a formation event's
plans, every microgrid of the event in one call, in 5-minute steps against
actuals and, when both run out, sheds from the bottom of the priority order
down to the longest prefix that still fits. Both settle each interval alike:
battery first, diesel second, and a PV surplus charges the battery up to its
power and headroom. Both read one layout: a ``PartitionOrder`` places a
partition's service orders on a run's zone axis and turns (rows x zones)
load and PV, forecast slot means for the scheduler and actuals for the
dispatcher, into running sums over each microgrid's zones in priority order,
once per event. The prefix search reads those sums, and only the storage
state is stepped in Python, one microgrid after another: served load,
commitment, energized zones and PV shares are filled once per event as whole
arrays on the zone axis.

Zone priority: critical zones first, then electrical distance from the
grid-forming node, then zone id. Energy accounting is construction-exact:
every step satisfies served = pv_used + diesel + discharge - charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from .netmodel import GridFormingResource, ZoneGraph, walk

BALANCE_TOL = 1e-9
DISPATCH_STEP_MINUTES = 5   # dispatch clock; profiles are sampled at it
SLOT_MINUTES = 30           # schedule clock, a whole number of steps


class TopologyMismatch(Exception):
    """Member zones do not form a connected tree under the closed switches."""


@dataclass(frozen=True)
class ServiceOrder:
    """Static per-topology service data: priority ranking and feed paths."""
    gfm_node_id: int
    members: tuple[int, ...]
    ranked: tuple[int, ...]
    path_zones: dict[int, frozenset[int]]  # zone -> zones feeding it, gfm excluded


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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


@dataclass(frozen=True)
class PartitionOrder:
    """Static per-partition service data: the service orders of one
    partition's microgrids, placed on a run's zone axis.

    Its array forms are computed once, on first use, and read by every plan
    and dispatch of the partition.
    """
    zone_ids: tuple[int, ...]
    orders: tuple[ServiceOrder, ...]

    def __post_init__(self):
        members = [z for o in self.orders for z in o.members]
        if len(set(members)) < len(members) \
                or not set(members) <= set(self.zone_ids):
            raise ValueError("microgrids must be disjoint sets of the zones")

    @cached_property
    def _column(self) -> dict[int, int]:
        return {z: c for c, z in enumerate(self.zone_ids)}

    @cached_property
    def columns(self) -> tuple[np.ndarray, ...]:
        """Each microgrid's member columns on the zone axis, in member order."""
        return tuple(_read_only(np.array([self._column[z] for z in o.members],
                                         dtype=int)) for o in self.orders)

    @cached_property
    def ranked(self) -> np.ndarray:
        """(microgrids x largest) int: row by row, each microgrid's member
        columns on the zone axis in priority order, padded with
        ``len(zone_ids)``."""
        width = max((len(o.ranked) for o in self.orders), default=0)
        ranked = np.full((len(self.orders), width), len(self.zone_ids))
        for row, o in zip(ranked, self.orders):
            row[:len(o.ranked)] = [self._column[z] for z in o.ranked]
        return _read_only(ranked)

    @cached_property
    def owner(self) -> np.ndarray:
        """Each zone's microgrid, ``len(orders)`` for a zone in none."""
        owner = np.full(len(self.zone_ids) + 1, len(self.orders))
        owner[self.ranked] = np.arange(len(self.orders))[:, None]
        return _read_only(owner[:-1])

    @cached_property
    def position(self) -> np.ndarray:
        """Each zone's priority rank in its microgrid, 0 for a zone in none."""
        position = np.zeros(len(self.zone_ids) + 1, dtype=int)
        position[self.ranked] = np.arange(self.ranked.shape[1])
        return _read_only(position[:-1])

    @cached_property
    def feeds(self) -> np.ndarray:
        """(zones x zones) bool, block diagonal by microgrid: each member's
        row marks the members that feed it, the grid-forming zones
        excluded."""
        feeds = np.zeros((len(self.zone_ids),) * 2, dtype=bool)
        col = self._column
        for o in self.orders:
            for z, path in o.path_zones.items():
                feeds[col[z], [col[v] for v in path]] = True
        return _read_only(feeds)

    @cached_property
    def anchors(self) -> np.ndarray:
        """The zone-axis column of each microgrid's grid-forming zone."""
        return _read_only(np.array([self._column[o.gfm_node_id]
                                    for o in self.orders], dtype=int))

    def running_sums(self, load: np.ndarray, pv: np.ndarray,
                     ) -> tuple[list[list[list[float]]], ...]:
        """Running sums of load and of PV over each microgrid's zones in
        priority order.

        ``load`` and ``pv`` are (rows x zones) arrays, columns in
        ``zone_ids`` order. Each of the two results holds one
        (rows x members) nested list per microgrid, in ``orders`` order:
        entry k of a row sums the row over the microgrid's first k + 1
        ranked zones, left to right.
        """
        load = np.asarray(load, dtype=float)
        pv = np.asarray(pv, dtype=float)
        n_zones = len(self.zone_ids)
        if load.ndim != 2 or load.shape[1] != n_zones \
                or pv.shape != load.shape:
            raise ValueError(f"load {load.shape} and PV {pv.shape} are not "
                             f"(rows x {n_zones} zones) arrays")
        # rows are padded out to the largest microgrid with a zero column,
        # and the padding is cut off
        padded = np.zeros((2, len(load), n_zones + 1))
        padded[0, :, :-1], padded[1, :, :-1] = load, pv
        sums = np.cumsum(padded[:, :, self.ranked], axis=-1)
        return tuple([a[:, m, :len(o.ranked)].tolist()
                      for m, o in enumerate(self.orders)] for a in sums)


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
        if not -BALANCE_TOL <= self.fuel_kwh < math.inf:
            raise ValueError(f"fuel {self.fuel_kwh} is not a finite "
                             f"non-negative amount")
        self.soc_kwh = min(max(self.soc_kwh, 0.0), cap)
        self.fuel_kwh = max(self.fuel_kwh, 0.0)


def _carried(res: GridFormingResource, soc: float, fuel: float, hours: float,
             load_sums: Sequence[float], pv_sums: Sequence[float],
             k: int) -> tuple[int, float, float]:
    """The longest prefix, of at most ``k`` zones, that storage can carry:
    its length, load and PV.

    ``load_sums`` and ``pv_sums`` are running sums over the zones in priority
    order. A prefix fits when its net deficit is within battery power and
    remaining energy plus diesel power and remaining fuel.
    """
    cap = min(res.battery_power_kw, soc / hours) + min(res.diesel_power_kw,
                                                       fuel / hours)
    while k and not load_sums[k - 1] - pv_sums[k - 1] <= cap + BALANCE_TOL:
        k -= 1
    if not k:
        return 0, 0.0, 0.0
    return k, load_sums[k - 1], pv_sums[k - 1]


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
    committed: tuple[tuple[int, ...], ...]

    @property
    def n_slots(self) -> int:
        return len(self.committed)


def build_schedule(state: MicrogridState, order: ServiceOrder,
                   load_sums: Sequence[Sequence[float]],
                   pv_sums: Sequence[Sequence[float]]) -> SchedulePlan:
    """Commit the largest feasible priority prefix in every slot.

    ``load_sums`` and ``pv_sums`` are (slots x members) running sums of the
    forecast over the zones of ``order.ranked``, as
    ``PartitionOrder.running_sums`` returns them for this microgrid. A prefix
    is feasible when its net deficit fits under battery power, remaining
    energy, diesel power and remaining fuel for the slot length. Energy is
    projected from slot to slot; the live state is untouched.
    """
    n = len(order.ranked)
    if len(pv_sums) != len(load_sums) \
            or any(len(row) != n for rows in (load_sums, pv_sums)
                   for row in rows):
        raise ValueError(f"load and PV sums must be as many rows of {n} "
                         f"members each")
    res = state.resource
    hours = SLOT_MINUTES / 60.0
    soc, fuel = state.soc_kwh, state.fuel_kwh

    committed: list[tuple[int, ...]] = []
    for load_row, pv_row in zip(load_sums, pv_sums):
        k, load_tot, pv_tot = _carried(res, soc, fuel, hours, load_row,
                                       pv_row, n)
        _, _, soc, fuel = _settle(res, soc, fuel, hours, load_tot - pv_tot)
        committed.append(order.ranked[:k])
    return SchedulePlan(order, tuple(committed))


@dataclass(frozen=True)
class DispatchWindow:
    """Step-resolution outcome of one formation event's plans against
    actuals, on the event's zone axis."""
    zones: tuple[int, ...]
    served_kw: np.ndarray        # (steps, zones)
    unserved_kw: np.ndarray
    pv_used_kw: np.ndarray
    committed: np.ndarray        # bool (steps, zones)
    energized: np.ndarray
    battery_kw: np.ndarray       # (steps, microgrids)
    diesel_kw: np.ndarray
    soc_kwh: np.ndarray          # end of step
    fuel_kwh: np.ndarray
    shed_zones: tuple[int, ...] = ()   # in shedding order, microgrid after
                                       # microgrid, slot after slot


def dispatch_window(part: PartitionOrder, states: Sequence[MicrogridState],
                    plans: Sequence[SchedulePlan], load: np.ndarray,
                    pv: np.ndarray, *,
                    blocked_first_step: frozenset[int] = frozenset()) -> DispatchWindow:
    """Run one event's plans step by step, mutating the live storage states.

    ``states[m]`` and ``plans[m]`` belong to the microgrid of
    ``part.orders[m]``. ``load`` and ``pv`` are (steps x zones) actuals,
    columns in ``part.zone_ids`` order; they cover a whole number of slots,
    at most each plan's ``n_slots``, from the plans' first. Actual imbalance
    lands on the battery first, then diesel. When neither can close the gap
    the lowest-priority committed zone is shed and stays shed for the rest
    of its slot. Zones in ``blocked_first_step`` sit out the first step only
    (switching interval after a topology change). Zones in no microgrid are
    unserved throughout.
    """
    load_running, pv_running = part.running_sums(load, pv)
    load = np.asarray(load, dtype=float)
    pv = np.asarray(pv, dtype=float)
    if len(states) != len(part.orders) \
            or tuple(p.order for p in plans) != part.orders:
        raise ValueError("states and plans do not match the partition's "
                         "microgrids one to one")
    per_slot = SLOT_MINUTES // DISPATCH_STEP_MINUTES
    n_steps = len(load)
    n_slots, rest = divmod(n_steps, per_slot)
    planned = min((p.n_slots for p in plans), default=n_slots)
    if rest or n_slots > planned:
        raise ValueError(f"{n_steps} steps are not a whole number of at most "
                         f"{planned} slots of {per_slot} steps")
    hours = DISPATCH_STEP_MINUTES / 60.0

    # the sequential part, microgrid after microgrid: each step's carried
    # prefix and storage settlement; active sets are lists of priority
    # ranks, usually a prefix 0..m-1; a step that serves no prefix (a
    # blocked zone ranked behind a shed one) is kept in ``scattered``
    n_on, last, scattered = [], [], []
    flows: list[float] = []     # six a step
    shed: list[int] = []
    for state, plan, rank, load_sums, pv_sums in zip(
            states, plans, part.ranked, load_running, pv_running):
        res, ranked, col = state.resource, plan.order.ranked, rank.tolist()
        blocked = {r for r, i in enumerate(ranked) if i in blocked_first_step}
        for s in range(n_slots):
            kept = list(range(len(plan.committed[s])))   # not shed in this slot
            for step in range(s * per_slot, (s + 1) * per_slot):
                active = kept
                if step == 0 and blocked:
                    active = [r for r in kept if r not in blocked]
                m = len(active)
                if m and active[-1] != m - 1:   # not a priority prefix
                    sums = (list(accumulate(a[step, rank[active]]))
                            for a in (load, pv))
                else:
                    sums = (load_sums[step], pv_sums[step])
                k, load_tot, pv_tot = _carried(res, state.soc_kwh,
                                               state.fuel_kwh, hours, *sums, m)
                if k < m:
                    shed += (ranked[r] for r in reversed(active[k:]))
                    kept = [r for r in kept if r not in active[k:]]
                bat, die, state.soc_kwh, state.fuel_kwh = _settle(
                    res, state.soc_kwh, state.fuel_kwh, hours,
                    load_tot - pv_tot)
                last.append(col[active[k - 1]] if k else -1)
                if k and active[k - 1] != k - 1:   # served ranks not a prefix
                    scattered.append((step, rank[active[:k]]))
                    n_on.append(0)
                else:
                    n_on.append(k)
                # the exact balance residual, load - diesel - battery, lands
                # on PV
                flows += (bat, die, state.soc_kwh, state.fuel_kwh,
                          load_tot - die - bat, pv_tot)

    # the rest is filled once on the zone axis; zones in no microgrid read
    # the last column, a microgrid that serves nothing and has no PV
    n_mg = len(plans)
    n_on += [0] * n_steps
    flows += [0.0] * (6 * n_steps)
    battery, diesel, soc_t, fuel_t, used, pv_tot = \
        np.array(flows, dtype=float).reshape(n_mg + 1, n_steps, 6).T
    committed = part.position < np.array(n_on, dtype=int).reshape(
        n_mg + 1, n_steps).T[:, part.owner]
    for step, on in scattered:
        committed[step, on] = True

    energized = committed @ part.feeds
    energized[:, part.anchors] = True

    own_used, own_pv = used[:, part.owner], pv_tot[:, part.owner]
    pv_used = np.zeros(load.shape)
    np.divide(own_used * pv, own_pv, out=pv_used,
              where=committed & (own_pv > 0))
    # pin each microgrid's row sum to its exact total despite share
    # rounding; each sums its own columns in member order from a C-ordered
    # copy (``take``; a fancy-index gather is F-ordered and sums in another
    # order), as a lone microgrid's window would
    row_sums = np.zeros((n_steps, n_mg + 1))
    for m, members in enumerate(part.columns):
        row_sums[:, m] = pv_used.take(members, axis=1).sum(axis=1)
    rows, mg = (pv_tot > 0).nonzero()
    cols = np.array(last, dtype=int).reshape(n_mg, n_steps)[mg, rows]
    pv_used[rows, cols] += used[rows, mg] - row_sums[rows, mg]

    return DispatchWindow(part.zone_ids, np.where(committed, load, 0.0),
                          np.where(committed, 0.0, load), pv_used, committed,
                          energized, battery[:, :n_mg], diesel[:, :n_mg],
                          soc_t[:, :n_mg], fuel_t[:, :n_mg], tuple(shed))

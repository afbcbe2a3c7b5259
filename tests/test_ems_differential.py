"""Differential test of the event dispatcher against the per-slot reference.

``slot_schedule`` and ``slot_window`` below are the scheduler and the
dispatcher as they were before dispatch went to one call per plan: one
Python call per 30-minute slot and microgrid, zone-keyed profiles, a prefix
search that re-sums every candidate prefix and arrays filled cell by cell.
They are kept verbatim (renamed, with their private helpers, ``_settle``
copied from ``gridsplit.ems`` so that a change to the rule under test does
not move the reference with it), except that a plan no longer carries its
slot length: ``slot_window`` reads the fixed one.
``ems.build_schedule``, reading each microgrid's share of one
``PartitionOrder.running_sums`` call per event, must commit the same
prefixes, and one
``ems.dispatch_window`` call over a formation event's microgrids must
return, bit for bit, each microgrid's reference slot windows stacked in
order on its own columns of the event's zone axis, their shed zones
concatenated microgrid after microgrid, and the same final storage states.
Zones in no microgrid are unserved throughout.

The example count comes from the hypothesis profile (``tests/conftest.py``):
40 by default, 400 with ``HYPOTHESIS_PROFILE=ci``.
"""

from typing import Mapping, Sequence

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from gridsplit import (GridFormingResource, MicrogridState, PartitionOrder,
                       SwitchEdge, ZoneGraph, ZoneNode, ems, service_order)
from gridsplit.ems import (BALANCE_TOL, SLOT_MINUTES, DispatchWindow,
                           SchedulePlan, ServiceOrder)

STEPS_PER_SLOT = 6
SLOTS_PER_EVENT = 6
ZONE_ARRAYS = ("served_kw", "unserved_kw", "pv_used_kw", "committed",
               "energized")
STORAGE_ARRAYS = ("battery_kw", "diesel_kw", "soc_kwh", "fuel_kwh")


# ---------------------------------------------------------------------------
# the reference: the per-slot scheduler and dispatcher, verbatim
# ---------------------------------------------------------------------------

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


def slot_schedule(state: MicrogridState, order: ServiceOrder,
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
    return SchedulePlan(order, tuple(committed))


def slot_window(state: MicrogridState, plan: SchedulePlan, slot_index: int,
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
    if SLOT_MINUTES % step_minutes != 0:
        raise ValueError("slot length must be a multiple of the step length")
    order = plan.order
    res = state.resource
    n_steps = SLOT_MINUTES // step_minutes
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


# ---------------------------------------------------------------------------
# random formation events: 1-4 microgrids, each a tree rooted at its
# grid-forming zone, and zones in none, on one shuffled zone axis
# ---------------------------------------------------------------------------

kw = st.floats(0.0, 800.0)


@st.composite
def microgrid(draw):
    """Tree parents and criticals by local index 1..n (1 is grid-forming),
    storage, initial state of charge and forecast bias."""
    n = draw(st.integers(1, 10))   # numpy sums a row of 8 or more pairwise
    parents = [draw(st.integers(1, i - 1)) for i in range(2, n + 1)]
    criticals = draw(st.sets(st.integers(1, n), max_size=n))
    # small stores too, which a window can empty or fill
    resource = (draw(st.floats(10.0, 2000.0)),
                draw(st.one_of(st.floats(5.0, 300.0), st.floats(5.0, 8000.0))),
                draw(st.floats(0.0, 1500.0)),
                draw(st.one_of(st.floats(0.0, 300.0), st.floats(0.0, 3000.0))))
    # the plan sees the slot means of actuals scaled by a forecast error,
    # so that dispatch sheds when the error is low
    return (n, parents, criticals, resource, draw(st.floats(0.0, 1.0)),
            draw(st.floats(0.3, 1.5)))


@st.composite
def profile(draw, steps):
    """One zone's profile: random, or near-constant, so that storage
    empties, fills or runs out of fuel mid-window after a long regime."""
    if draw(st.booleans()):
        return draw(st.lists(kw, min_size=steps, max_size=steps))
    base = draw(kw)
    return [max(base + d, 0.0) for d in draw(st.lists(
        st.floats(-1.0, 1.0), min_size=steps, max_size=steps))]


@st.composite
def event_case(draw):
    grids = draw(st.lists(microgrid(), min_size=1, max_size=4))
    n_zones = sum(g[0] for g in grids) + draw(st.integers(0, 3))
    ids = draw(st.permutations(range(1, n_zones + 1)))   # microgrid members
    axis = tuple(draw(st.permutations(ids)))             # the zone axis
    n_slots = draw(st.integers(1, SLOTS_PER_EVENT))
    n_planned = draw(st.integers(n_slots, n_slots + 1))
    steps = n_slots * STEPS_PER_SLOT
    load = np.array([draw(profile(steps)) for _ in axis]).T
    # whole dark steps, and zones without PV within lit ones
    dark = draw(st.lists(st.booleans(), min_size=steps, max_size=steps))
    pv = np.array([draw(st.one_of(st.just([0.0] * steps), profile(steps)))
                   for _ in axis]).T
    pv[dark] = 0.0
    blocked = draw(st.sets(st.sampled_from(axis), max_size=n_zones))
    return grids, ids, axis, n_planned, load, pv, blocked


def _microgrids(grids, ids):
    """Each drawn microgrid's resource and service order, its zones the next
    of ``ids``."""
    out, start = [], 0
    for n, parents, criticals, resource, *_ in grids:
        zone = ids[start:start + n]      # local index i is zone[i - 1]
        start += n
        nodes = tuple(ZoneNode(z, 1, i in criticals, 100.0, i == 1)
                      for i, z in enumerate(zone, start=1))
        edges = tuple(SwitchEdge(i - 1, zone[p - 1], zone[i - 1], False, 1e6)
                      for i, p in enumerate(parents, start=2))
        battery_kw, battery_kwh, diesel_kw, fuel_kwh = resource
        res = GridFormingResource(zone[0], battery_kw, battery_kwh,
                                  diesel_power_kw=diesel_kw,
                                  diesel_fuel_kwh=fuel_kwh)
        g = ZoneGraph(nodes, edges, (res,))
        out.append((res, service_order(g, set(zone), zone[0],
                                       frozenset(e.id for e in edges))))
    return out


def _forecast(load, n_planned, bias):
    """Slot means of ``load`` times ``bias``, padded to ``n_planned`` slots
    by repeating the last."""
    means = load.reshape(-1, STEPS_PER_SLOT, load.shape[1]).mean(axis=1) * bias
    pad = np.repeat(means[-1:], n_planned - len(means), axis=0)
    return np.concatenate([means, pad])


def _check(case):
    grids, ids, axis, n_planned, load, pv, blocked = case
    mgs = _microgrids(grids, ids)
    part = PartitionOrder(axis, tuple(order for _, order in mgs))
    # the event's forecast on the zone axis, each microgrid with its own
    # bias, and the running sums of all its plans from one call
    fl, fp = np.zeros((2, n_planned, len(axis)))
    for grid, cols in zip(grids, part.columns):
        fl[:, cols] = _forecast(load[:, cols], n_planned, grid[5])
        fp[:, cols] = _forecast(pv[:, cols], n_planned, grid[5])
    load_sums, pv_sums = part.running_sums(fl, fp)
    refs, news, plans, want = [], [], [], []
    for (res, order), grid, cols, ls, ps in zip(mgs, grids, part.columns,
                                                load_sums, pv_sums):
        soc = grid[4] * res.battery_energy_kwh
        ref = MicrogridState(res, soc, res.diesel_fuel_kwh)
        new = MicrogridState(res, soc, res.diesel_fuel_kwh)
        plan = ems.build_schedule(new, order, ls, ps)
        col = dict(zip(order.members, cols))
        ref_plan = slot_schedule(ref, order,
                                 {z: fl[:, c] for z, c in col.items()},
                                 {z: fp[:, c] for z, c in col.items()})
        assert plan.committed == ref_plan.committed
        windows = []
        for s in range(len(load) // STEPS_PER_SLOT):
            rows = slice(s * STEPS_PER_SLOT, (s + 1) * STEPS_PER_SLOT)
            windows.append(slot_window(
                ref, plan, s, {z: load[rows, c] for z, c in col.items()},
                {z: pv[rows, c] for z, c in col.items()},
                blocked_first_step=frozenset(blocked) if s == 0
                else frozenset()))
        refs.append(ref)
        news.append(new)
        plans.append(plan)
        want.append(windows)

    win = ems.dispatch_window(part, news, plans, load, pv,
                              blocked_first_step=frozenset(blocked))

    assert win.zones == axis
    for m, (windows, cols) in enumerate(zip(want, part.columns)):
        for name in ZONE_ARRAYS:
            expect = np.concatenate([getattr(w, name) for w in windows])
            got = getattr(win, name)[:, cols]
            assert got.dtype == expect.dtype and np.array_equal(got, expect), \
                (m, name)
        for name in STORAGE_ARRAYS:
            expect = np.concatenate([getattr(w, name) for w in windows])
            assert np.array_equal(getattr(win, name)[:, m], expect), (m, name)
    assert win.battery_kw.shape == (len(load), len(mgs))
    assert win.shed_zones == sum((w.shed_zones for windows in want
                                  for w in windows), ())
    for ref, new in zip(refs, news):
        assert new.soc_kwh == ref.soc_kwh
        assert new.fuel_kwh == ref.fuel_kwh
    # zones in no microgrid
    members = set(ids[:sum(grid[0] for grid in grids)])
    off = [c for c, z in enumerate(axis) if z not in members]
    assert np.array_equal(win.unserved_kw[:, off], load[:, off])
    for name in ("served_kw", "pv_used_kw", "committed", "energized"):
        assert not getattr(win, name)[:, off].any(), name
    return win


# Zone 3 is blocked and ranks behind zone 2, which the first step sheds: the
# second step's active set (zones 1 and 3) is not a priority prefix.
NOT_A_PREFIX = ([(3, [1, 2], set(), (100.0, 12000.0, 0.0, 0.0), 1.0, 0.1)],
                (1, 2, 3), (1, 2, 3), 1,
                np.array([[30.0, 500.0, 30.0]] + [[30.0, 40.0, 30.0]] * 5),
                np.zeros((6, 3)), {3})

# Ten zones in a chain, all served with PV at every step: numpy sums a row of
# 8 or more pairwise, so each microgrid's PV row sum depends on the memory
# order of the columns it adds.
TEN_ZONES = ([(10, list(range(1, 10)), set(), (2000.0, 8000.0, 0.0, 0.0),
               0.5, 1.0)],
             tuple(range(1, 11)), tuple(range(1, 11)), 1,
             np.full((6, 10), 10.0),
             (np.arange(60).reshape(6, 10) * 41 % 101) * 1.1, set())


@given(event_case())
@example(NOT_A_PREFIX)
@example(TEN_ZONES)
def test_one_call_matches_the_per_slot_dispatcher(case):
    _check(case)


def test_an_active_set_that_is_not_a_prefix_is_dispatched():
    win = _check(NOT_A_PREFIX)
    assert win.shed_zones == (2,)
    # step 0 serves zone 1 and sheds 2 (3 sits out); then 1 and 3 are on
    assert win.committed[0].tolist() == [True, False, False]
    assert win.committed[1:].tolist() == [[True, False, True]] * 5

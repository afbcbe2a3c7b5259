"""Differential test of the array dispatcher against the per-slot reference.

``slot_schedule`` and ``slot_window`` below are the scheduler and the
dispatcher as they were before dispatch went to one call per plan: one
Python call per 30-minute slot, zone-keyed profiles, a prefix search that
re-sums every candidate prefix and arrays filled cell by cell. They are kept
verbatim (renamed, with their private helper) as the reference, except that
a plan no longer carries its slot length: ``slot_window`` reads the fixed
one.
``ems.build_schedule`` must commit the same prefixes, and one
``ems.dispatch_window`` call over a plan's slots must return, bit for bit,
the arrays of the reference's slot windows stacked in order, their shed
zones concatenated, and the same final storage state.

The example count comes from the hypothesis profile (``tests/conftest.py``):
40 by default, 400 with ``HYPOTHESIS_PROFILE=ci``.
"""

from typing import Mapping, Sequence

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from gridsplit import (GridFormingResource, MicrogridState, SwitchEdge,
                       ZoneGraph, ZoneNode, ems, service_order)
from gridsplit.ems import (BALANCE_TOL, SLOT_MINUTES, DispatchWindow,
                           SchedulePlan, ServiceOrder, _settle)

STEPS_PER_SLOT = 6
ARRAYS = ("served_kw", "unserved_kw", "pv_used_kw", "committed", "energized",
          "battery_kw", "diesel_kw", "soc_kwh", "fuel_kwh")


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
# random microgrids: a tree rooted at the grid-forming zone 1
# ---------------------------------------------------------------------------

kw = st.floats(0.0, 800.0)


@st.composite
def dispatch_case(draw):
    n = draw(st.integers(1, 7))
    parents = [draw(st.integers(1, i - 1)) for i in range(2, n + 1)]
    criticals = draw(st.sets(st.integers(1, n), max_size=n))
    resource = (draw(st.floats(10.0, 2000.0)), draw(st.floats(50.0, 8000.0)),
                draw(st.floats(0.0, 1500.0)), draw(st.floats(0.0, 3000.0)))
    soc0 = draw(st.floats(0.0, 1.0))
    n_slots = draw(st.integers(1, 4))
    n_planned = draw(st.integers(n_slots, n_slots + 1))
    steps = n_slots * STEPS_PER_SLOT
    load = np.array([draw(st.lists(kw, min_size=steps, max_size=steps))
                     for _ in range(n)]).T
    # whole dark steps, and zones without PV within lit ones
    dark = draw(st.lists(st.booleans(), min_size=steps, max_size=steps))
    pv = np.array([[0.0 if dark[t] else draw(st.one_of(st.just(0.0), kw))
                    for _ in range(n)] for t in range(steps)])
    # the plan sees the slot means of actuals scaled by a forecast error,
    # so that dispatch sheds when the error is low
    bias = draw(st.floats(0.3, 1.5))
    blocked = draw(st.sets(st.integers(1, n), max_size=n))
    return (n, parents, criticals, resource, soc0, n_planned, load, pv, bias,
            blocked)


def _microgrid(n, parents, criticals, resource):
    nodes = tuple(ZoneNode(i, 1, i in criticals, 100.0, i == 1)
                  for i in range(1, n + 1))
    edges = tuple(SwitchEdge(i - 1, p, i, False, 1e6)
                  for i, p in enumerate(parents, start=2))
    battery_kw, battery_kwh, diesel_kw, fuel_kwh = resource
    res = GridFormingResource(1, battery_kw, battery_kwh,
                              diesel_power_kw=diesel_kw,
                              diesel_fuel_kwh=fuel_kwh)
    g = ZoneGraph(nodes, edges, (res,))
    return res, service_order(g, set(range(1, n + 1)), 1,
                              frozenset(e.id for e in edges))


def _forecast(load, n_planned, bias):
    """Slot means of ``load`` times ``bias``, padded to ``n_planned`` slots
    by repeating the last."""
    means = load.reshape(-1, STEPS_PER_SLOT, load.shape[1]).mean(axis=1) * bias
    pad = np.repeat(means[-1:], n_planned - len(means), axis=0)
    return np.concatenate([means, pad])


def _check(case):
    (n, parents, criticals, resource, soc0, n_planned, load, pv, bias,
     blocked) = case
    res, order = _microgrid(n, parents, criticals, resource)
    soc = soc0 * res.battery_energy_kwh
    ref = MicrogridState(res, soc, res.diesel_fuel_kwh)
    new = MicrogridState(res, soc, res.diesel_fuel_kwh)

    fl = _forecast(load, n_planned, bias)
    fp = _forecast(pv, n_planned, bias)
    plan = ems.build_schedule(new, order, fl, fp)
    col = {z: c for c, z in enumerate(order.members)}
    ref_plan = slot_schedule(ref, order, {z: fl[:, c] for z, c in col.items()},
                             {z: fp[:, c] for z, c in col.items()})
    assert plan.committed == ref_plan.committed

    windows = []
    for s in range(len(load) // STEPS_PER_SLOT):
        rows = slice(s * STEPS_PER_SLOT, (s + 1) * STEPS_PER_SLOT)
        windows.append(slot_window(
            ref, plan, s, {z: load[rows, c] for z, c in col.items()},
            {z: pv[rows, c] for z, c in col.items()},
            blocked_first_step=frozenset(blocked) if s == 0 else frozenset()))
    win = ems.dispatch_window(new, plan, load, pv,
                              blocked_first_step=frozenset(blocked))

    assert win.zones == order.members
    for name in ARRAYS:
        want = np.concatenate([getattr(w, name) for w in windows])
        got = getattr(win, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert win.shed_zones == sum((w.shed_zones for w in windows), ())
    assert new.soc_kwh == ref.soc_kwh
    assert new.fuel_kwh == ref.fuel_kwh
    return win


# Zone 3 is blocked and ranks behind zone 2, which the first step sheds: the
# second step's active set (zones 1 and 3) is not a priority prefix.
NOT_A_PREFIX = (3, [1, 2], set(), (100.0, 12000.0, 0.0, 0.0), 1.0, 1,
                np.array([[30.0, 500.0, 30.0]] + [[30.0, 40.0, 30.0]] * 5),
                np.zeros((6, 3)), 0.1, {3})


@given(dispatch_case())
@example(NOT_A_PREFIX)
def test_one_call_matches_the_per_slot_dispatcher(case):
    _check(case)


def test_an_active_set_that_is_not_a_prefix_is_dispatched():
    win = _check(NOT_A_PREFIX)
    assert win.shed_zones == (2,)
    # step 0 serves zone 1 and sheds 2 (3 sits out); then 1 and 3 are on
    assert win.committed[0].tolist() == [True, False, False]
    assert win.committed[1:].tolist() == [[True, False, True]] * 5

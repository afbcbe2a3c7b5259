import os
import weakref

import numpy as np
import pytest
from hypothesis import settings
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as scipy_milp

from gridsplit import (GridFormingResource, SolverError, SwitchEdge,
                       ZoneGraph, ZoneNode, coordinator, fixture_two_feeder,
                       milp, run)

# example counts for property tests that do not set their own: the default
# keeps the tier-1 suite short, "ci" draws ten times as many
settings.register_profile("dev", max_examples=40)
settings.register_profile("ci", max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


def _highs(model):
    """Objective from HiGHS on ``model.dense()`` with the offset, or None
    when the model is infeasible.

    ``mip_rel_gap=0`` matters: the offset (shed weight times total load) is
    about 1e7, so the default relative gap accepts clearly worse integer
    points. Presolve is off: on ``presolve_bound_case``
    (``tests/test_differential.py``) the presolved model proves a dual bound
    of 25 and stops there, while 15 is feasible and HiGHS without presolve
    reaches it."""
    a, senses, b, lower, upper, cost = model.dense()
    lb = np.array([-np.inf if s == "<=" else v for s, v in zip(senses, b)])
    ub = np.array([np.inf if s == ">=" else v for s, v in zip(senses, b)])
    res = scipy_milp(cost, constraints=LinearConstraint(a, lb, ub),
                     integrality=np.array(model.is_integer, dtype=int),
                     bounds=Bounds(lower, upper),
                     options={"mip_rel_gap": 0.0, "presolve": False})
    assert res.status in (0, 2), res.message
    return float(res.fun) + model.offset if res.status == 0 else None


@pytest.fixture(scope="session")
def highs():
    """The HiGHS reference objective of a model, as a function."""
    return _highs


@pytest.fixture(scope="session")
def scenario():
    return fixture_two_feeder()


@pytest.fixture(scope="session")
def flex_run(scenario):
    return run(scenario, mode="flexible")


@pytest.fixture(scope="session")
def fixed_run(scenario):
    return run(scenario, mode="fixed")


@pytest.fixture
def coordinator_calls(monkeypatch):
    """Spy on a name the coordinator calls through its module globals:
    ``coordinator_calls("build_milp")`` returns the list that each call's
    positional arguments are appended to."""
    def spy_on(name):
        calls, real = [], getattr(coordinator, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(coordinator, name, spy)
        return calls
    return spy_on


@pytest.fixture(scope="session")
def ring_island_graph():
    """Grid-forming zones 1 and 3 on the ring 1-2-3-4 (ties 2 and 11) and,
    behind the faulted edge 10, a five-zone load island around the ring
    5-6-7-8 with zone 9 hanging off zone 7."""
    nodes = tuple(ZoneNode(i, 1 if i < 5 else 2, i in (2, 7), 100.0,
                           i in (1, 3)) for i in range(1, 10))
    spans = {1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (5, 8), 5: (6, 7),
             6: (7, 8), 7: (5, 6), 8: (7, 9), 10: (4, 5), 11: (4, 1)}
    edges = tuple(SwitchEdge(eid, t, h, eid in (2, 11), 1000.0)
                  for eid, (t, h) in spans.items())
    res = (GridFormingResource(1, 500.0, 2000.0),
           GridFormingResource(3, 400.0, 2000.0))
    return ZoneGraph(nodes, edges, res, frozenset({10}))


@pytest.fixture(scope="session")
def four_zone_ring():
    """The ring 1-2-3-4 fed by one grid-forming zone, zone 1; edge 4, from
    zone 4 back to zone 1, is normally open."""
    nodes = tuple(ZoneNode(i, 1, False, 100.0, i == 1) for i in range(1, 5))
    edges = tuple(SwitchEdge(i, i, i % 4 + 1, i == 4, 1000.0)
                  for i in range(1, 5))
    return ZoneGraph(nodes, edges, (GridFormingResource(1, 500.0, 2000.0),))


@pytest.fixture
def first_lps(monkeypatch):
    """Each new simplex system's first LP, in order, as ``(start, status,
    args, x)``. ``start`` is "cold" for ``solve`` from the slack basis and
    "warm" for ``resolve`` from a given basis, which in branch and bound is
    a fixed-integer LP re-solving from the carried basis; ``status`` is
    None when the LP raised ``SolverError``; ``args`` are the system's
    constructor arguments and ``x`` its structural values."""
    log = []
    new = weakref.WeakKeyDictionary()
    init = milp._Simplex.__init__
    solve, resolve = milp._Simplex.solve, milp._Simplex.resolve

    def made(self, *args):
        init(self, *args)
        new[self] = args

    def logged(start, fn):
        def first(self, *args):
            made_with = new.pop(self, None)
            try:
                status, x = fn(self, *args)
            except SolverError:
                if made_with is not None:
                    log.append((start, None, made_with, None))
                raise
            if made_with is not None:
                log.append((start, status, made_with, x.copy()))
            return status, x
        return first

    monkeypatch.setattr(milp._Simplex, "__init__", made)
    monkeypatch.setattr(milp._Simplex, "solve", logged("cold", solve))
    monkeypatch.setattr(milp._Simplex, "resolve", logged("warm", resolve))
    return log

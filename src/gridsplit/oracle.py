"""Exhaustive partition oracle for small graphs.

Independent route to the formation optimum: every radial closed-switch set
of the right size that meets the lateral policies is priced from its trees,
not from the model's rows, each tree once per call. No rule is shared with
the model: radiality, the policies and the trees' limits are checked on the
graph.
"""

from __future__ import annotations

import itertools

import numpy as np

from .formation import (FormationProblem, FormationSnapshot, FormationSolution,
                        FormationWeights, InfeasibleTopology, _priced,
                        build_milp, decode)
from .milp import SolveReport, SolveStatus, _solve_lp_arrays
from .netmodel import ZoneGraph, is_radial_forest, subtrees, walk

GUARD_MAX_EDGES = 20


class GuardExceeded(Exception):
    """Graph too large for exhaustive enumeration."""


def _policies_hold(g: ZoneGraph, closed: frozenset[int]) -> bool:
    for pol in g.lateral_policies:
        if pol.force_zero and pol.edge_id in closed:
            return False  # a closed tree edge always carries commodity
        if pol.min_downstream_nodes >= 1:
            # zones fed through the policy edge, walked from its far end
            e = g.edge(pol.edge_id)
            far = e.head if e.tail == pol.gfm_node_id else e.tail
            fed = walk(g.adjacency(closed), far, skip=pol.edge_id)[0]
            if pol.edge_id not in closed or len(fed) < pol.min_downstream_nodes:
                return False
    return True


def _tree_price(problem: FormationProblem, gfm: int,
                edges: frozenset[int]) -> tuple[float, dict[int, float]] | None:
    """Objective terms and model values, by column, of the microgrid ``gfm``
    feeds over ``edges``: subtree counts and an LP over served load ``d`` and
    PV ``p``, None when no ``sum(d - p)`` beyond each edge and in all fits."""
    g, snap = problem.graph, problem.snapshot
    beyond = subtrees(g, g.adjacency(edges), gfm)
    zones = sorted({gfm}.union(*(m for _, m in beyond.values())))
    n, r = len(zones), g.resource_at(gfm)
    a = np.zeros((len(beyond) + 1, 2 * n))        # columns d, then p
    for k, members in enumerate([beyond[eid][1] for eid in sorted(beyond)] + [zones]):
        a[k, np.searchsorted(zones, members)] = 1.0
    a[:, n:] = -a[:, :n]
    lim = [g.edge(eid).flow_limit_kw for eid in sorted(beyond)]
    b = ([-v for v in lim] + [-r.battery_power_kw]
         + lim + [r.battery_power_kw + r.diesel_power_kw])
    status, _, x = _solve_lp_arrays(
        np.vstack([a, a]), [">="] * len(a) + ["<="] * len(a), np.array(b),
        np.array([0.0] * n + [snap.pv_min_kw.get(z, 0.0) for z in zones]),
        np.array([snap.load_kw[z] for z in zones] + [snap.pv_kw[z] for z in zones]),
        np.append(-np.ones(n), np.zeros(n)))
    if status is not SolveStatus.OPTIMAL:
        return None
    served = dict(zip(zones, x[:n].tolist()))
    commodity = {eid: sign * len(m) for eid, (sign, m) in beyond.items()}
    values = ({problem.d[z]: v for z, v in served.items()}
              | {problem.x[z, gfm]: 1.0 for z in zones})
    for eid, c in commodity.items():
        values.update({problem.y[eid]: 1.0, problem.fp[eid]: max(c, 0.0),
                       problem.fn[eid]: max(-c, 0.0)})
    return sum(_priced(g, problem.weights, snap.load_kw, served, commodity)), values


def _price(problem: FormationProblem, closed: frozenset[int],
           trees: dict[int, frozenset[int]], cache: dict) -> tuple[float, list] | None:
    """(Objective, tree prices) of a radial candidate that meets the policies,
    or None if the model has no point there; ``cache`` keys (GFM, edges)."""
    g, snap = problem.graph, problem.snapshot
    anchor = {z: gfm for gfm, tree in trees.items() for z in tree}
    parts = []
    for gfm in trees:
        key = (gfm, frozenset(e for e in closed if anchor[g.edge(e).tail] == gfm))
        if key not in cache:
            cache[key] = _tree_price(problem, *key)
        if cache[key] is None:
            return None
        parts.append(cache[key])
    island_shed = sum(snap.load_kw[z] for z in g.island_zones)
    return problem.weights.shed_weight * island_shed + sum(p[0] for p in parts), parts


def enumerate_optimal(g: ZoneGraph, snap: FormationSnapshot,
                      weights: FormationWeights) -> FormationSolution:
    """Best partition by explicit enumeration (guard: at most 20 switch
    decisions, the model's switch columns). Raises GuardExceeded above the
    guard and InfeasibleTopology when no candidate meets radiality, the
    policies and its trees' limits."""
    problem: FormationProblem = build_milp(g, snap, weights, prev=None)
    if len(problem.y) > GUARD_MAX_EDGES:
        raise GuardExceeded(
            f"{len(problem.y)} switch decisions exceed the enumeration guard "
            f"({GUARD_MAX_EDGES})")
    cache: dict = {}
    best_obj, best = np.inf, None
    for combo in itertools.combinations(problem.y, len(problem.d) - len(g.gfm_nodes)):
        closed = frozenset(combo)
        check = is_radial_forest(g, closed)
        if not check.is_radial or not _policies_hold(g, closed):
            continue
        priced = _price(problem, closed, check.trees, cache)
        if priced is not None and priced[0] < best_obj:
            best_obj, best = priced
    if best is None:
        raise InfeasibleTopology("no radial partition meets the lateral "
                                 "policies and its trees' limits")
    values = np.zeros(problem.model.n_variables)
    for _, by_column in best:
        values[list(by_column)] = list(by_column.values())
    return decode(problem, SolveReport(SolveStatus.OPTIMAL, float(best_obj), values))

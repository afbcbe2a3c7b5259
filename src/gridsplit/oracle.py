"""Exhaustive partition oracle for small graphs.

Independent route to the formation optimum: enumerate every closed-switch
subset of the right cardinality, filter radiality and lateral policies with
pure graph checks, then price each surviving topology with a continuous LP.
Used to validate the branch-and-bound path; the integer search is never
shared between the two.
"""

from __future__ import annotations

import itertools

import numpy as np

from .formation import (
    FormationProblem,
    FormationSnapshot,
    FormationSolution,
    FormationWeights,
    InfeasibleTopology,
    build_milp,
    decode,
)
from .milp import SolveReport, SolveStatus, _solve_lp_arrays
from .netmodel import ZoneGraph, is_radial_forest, walk

GUARD_MAX_EDGES = 20


class GuardExceeded(Exception):
    """Graph too large for exhaustive enumeration."""


def _policies_hold(g: ZoneGraph, closed: frozenset[int]) -> bool:
    for pol in g.lateral_policies:
        if pol.edge_id in g.faulted_edges:
            if pol.min_downstream_nodes >= 1:
                return False
            continue
        is_closed = pol.edge_id in closed
        if pol.force_zero:
            if is_closed:
                return False  # a closed tree edge always carries commodity
        elif pol.min_downstream_nodes >= 1:
            if not is_closed:
                return False
            # zones fed through the policy edge, walked from its far end
            e = g.edge(pol.edge_id)
            far = e.head if e.tail == pol.gfm_node_id else e.tail
            fed = walk(g.adjacency(closed), far, skip=pol.edge_id)[0]
            if len(fed) < pol.min_downstream_nodes:
                return False
    return True


def enumerate_optimal(g: ZoneGraph, snap: FormationSnapshot,
                      weights: FormationWeights) -> FormationSolution:
    """Best partition by explicit enumeration (guard: at most 20 switch
    decisions, the model's switch columns).

    Raises GuardExceeded above the guard and InfeasibleTopology when no
    candidate subset satisfies radiality plus the lateral policies.
    """
    problem: FormationProblem = build_milp(g, snap, weights, prev=None)
    if len(problem.y) > GUARD_MAX_EDGES:
        raise GuardExceeded(
            f"{len(problem.y)} switch decisions exceed the enumeration guard "
            f"({GUARD_MAX_EDGES})")
    mdl = problem.model
    a, senses, b, lower, upper, cost = mdl.dense()
    target = len(problem.d) - len(problem.gfm_order)

    best_obj = np.inf
    best: tuple[frozenset[int], np.ndarray] | None = None
    for combo in itertools.combinations(problem.y, target):
        closed = frozenset(combo)
        check = is_radial_forest(g, closed)
        if not check.is_radial:
            continue
        if not _policies_hold(g, closed):
            continue

        lo, hi = lower.copy(), upper.copy()
        for eid, col in problem.y.items():
            lo[col] = hi[col] = 1.0 if eid in closed else 0.0
        # one tree per GFM, in GFM order: tree k is microgrid k
        anchor_of = {i: k for k, tree in enumerate(check.trees.values())
                     for i in tree}
        for (i, k), col in problem.x.items():
            lo[col] = hi[col] = 1.0 if anchor_of[i] == k else 0.0
        status, obj, x, _ = _solve_lp_arrays(a, senses, b, lo, hi, cost)
        if status is SolveStatus.OPTIMAL and obj + mdl.offset < best_obj:
            best_obj = obj + mdl.offset
            best = (closed, x)

    if best is None:
        raise InfeasibleTopology(
            "no radial partition satisfies the lateral policies")
    report = SolveReport(SolveStatus.OPTIMAL, float(best_obj), best[1])
    return decode(problem, report)

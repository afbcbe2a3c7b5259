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
from .netmodel import ZoneGraph, is_radial_forest

GUARD_MAX_EDGES = 20


class GuardExceeded(Exception):
    """Graph too large for exhaustive enumeration."""


def _subtree_through(g: ZoneGraph, closed: frozenset[int], gfm: int,
                     edge_id: int) -> int:
    """Zones fed through one closed GFM-incident edge, by tree walk."""
    e = g.edge(edge_id)
    far = e.head if e.tail == gfm else e.tail
    adj = g.adjacency(closed)
    seen = {far}
    stack = [far]
    while stack:
        u = stack.pop()
        for v, eid in adj[u]:
            if eid == edge_id or v in seen:
                continue
            seen.add(v)
            stack.append(v)
    return len(seen)


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
            if _subtree_through(g, closed, pol.gfm_node_id,
                                pol.edge_id) < pol.min_downstream_nodes:
                return False
    return True


def enumerate_optimal(g: ZoneGraph, snap: FormationSnapshot,
                      weights: FormationWeights) -> FormationSolution:
    """Best partition by explicit enumeration (guard: |E| <= 20 active edges).

    Raises GuardExceeded above the guard and InfeasibleTopology when no
    candidate subset satisfies radiality plus the lateral policies.
    """
    edges = g.active_edges()
    if len(edges) > GUARD_MAX_EDGES:
        raise GuardExceeded(
            f"{len(edges)} active edges exceed the enumeration guard "
            f"({GUARD_MAX_EDGES})")

    problem: FormationProblem = build_milp(g, snap, weights, prev=None)
    mdl = problem.model
    a, senses, b, lower, upper, cost = mdl.dense()
    k_of = {gfm: k for k, gfm in enumerate(problem.gfm_order)}
    target = len(g.nodes) - len(problem.island_zones) - len(problem.gfm_order)

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
        anchor_of: dict[int, int] = {}
        for tree in check.trees:
            k = k_of[min(tree & set(problem.gfm_order))]
            for i in tree:
                anchor_of[i] = k
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

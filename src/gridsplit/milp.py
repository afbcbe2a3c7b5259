"""Small dense MILP solver: bounded-variable simplex plus branch and bound.

Scope is deliberately narrow. Models here have a hundred-odd variables with
finite bounds on every structural column, so a dense revised simplex with an
explicitly maintained basis inverse is both fast enough and easy to audit.
No presolve, no cutting planes; faulted or otherwise dead binaries are fixed
through their bounds by the caller.

Each pivot updates the inverse sparsely: the rank-1 term is applied only on
the rows and columns where it is nonzero, which is a few percent of the
entries on the formation models. The pivot path is reproducible bit for bit:
for a given numpy and BLAS build, a model yields the same pivot sequence and
the same floats on every run.

Branch and bound has two LP helpers. The fixed-integer LP fixes every
integer column at an integral point: the incumbent, the caller's warm point
or one of the model's start points (``MilpModel.starts``), each of which
must name every integer column. The start points are tried only when the
warm point has no optimal fixed-integer LP. The fixed-integer LP is solved
cold with the two-phase primal simplex, as is every LP of the oracle, and
at the incumbent it is the reported point. That point depends on the
integer optimum alone, not on the vertex the search reached, so the
fixture's ``microgrids.csv``, which records ``repr`` of each objective,
does not pin the search's path. The node LP restarts the root from the
optimal basis of the incumbent's fixed-integer LP, which releasing the
integer columns to their model bounds leaves primal feasible, so only
primal phase 2 remains; without an incumbent it solves the root cold. It
re-solves every other node with the bounded dual simplex from its parent's
optimal basis, which a bound change leaves dual feasible. Either restart
falls back to the cold primal when it fails. Statuses are ``SolveStatus``
members throughout.

Budgets: 100 pivots per row and column for each LP, ``NODE_LIMIT`` nodes.
Minimization throughout. Integer variables must carry integral finite bounds.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

FEAS_TOL = 1e-7          # constraint satisfaction guarantee on Optimal
PRIMAL_TOL = 1e-9        # bound violations the dual simplex still repairs
INT_TOL = 1e-6           # integrality acceptance in branch and bound
DUAL_TOL = 1e-9          # reduced-cost threshold for entering candidates
PIVOT_TOL = 1e-9         # smallest pivot element magnitude accepted
DEGEN_STEP = 1e-10       # step lengths below this count as degenerate
BLAND_AFTER = 1000       # degenerate pivots before switching to Bland's rule
REFACTOR_EVERY = 128     # pivots between basis-inverse refactorizations
PRUNE_EPS = 1e-9         # node bound vs incumbent pruning slack
NODE_LIMIT = 1_000_000   # branch-and-bound nodes before ITERATION_LIMIT


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"


class SolverError(Exception):
    """Numerical failure or unsupported model (e.g. unbounded LP)."""


@dataclass
class SolveReport:
    status: SolveStatus
    objective: float
    values: np.ndarray
    node_count: int = 0
    lp_iterations: int = 0
    wall_time_s: float = 0.0
    # where branch and bound found the reported point: "warm" (the caller's
    # warm point), "start" (one of the model's start points) or "search";
    # None without an incumbent, and from solve_lp
    incumbent_source: str | None = None


@dataclass
class _Row:
    coeffs: dict[int, float]
    sense: str
    rhs: float
    name: str


class MilpModel:
    """Incrementally built model: bounded columns, sparse rows, linear cost."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.var_names: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.is_integer: list[bool] = []
        self.objective: list[float] = []
        self.rows: list[_Row] = []
        self.offset = 0.0  # constant term carried into reported objectives
        # integral points {integer column: value} that solve_milp tries
        # when the caller's warm point has no optimal fixed-integer LP
        self.starts: list[dict[int, float]] = []

    def add_variable(self, name: str, lower: float, upper: float, *,
                     integer: bool = False, objective: float = 0.0) -> int:
        if lower > upper:
            raise ValueError(f"variable {name}: lower {lower} > upper {upper}")
        if integer:
            if not (np.isfinite(lower) and np.isfinite(upper)):
                raise ValueError(f"integer variable {name} needs finite bounds")
            if lower != round(lower) or upper != round(upper):
                raise ValueError(f"integer variable {name} needs integral bounds")
        self.var_names.append(name)
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.is_integer.append(integer)
        self.objective.append(float(objective))
        return len(self.var_names) - 1

    def add_objective(self, var: int, coeff: float) -> None:
        self.objective[var] += float(coeff)

    def add_constraint(self, coeffs: dict[int, float], sense: str, rhs: float,
                       name: str = "") -> int:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        for j in coeffs:
            if not 0 <= j < len(self.var_names):
                raise ValueError(f"constraint {name!r} references unknown column {j}")
        self.rows.append(_Row(dict(coeffs), sense, float(rhs),
                              name or f"r{len(self.rows)}"))
        return len(self.rows) - 1

    @property
    def n_variables(self) -> int:
        return len(self.var_names)

    @property
    def n_constraints(self) -> int:
        return len(self.rows)

    def integer_indices(self) -> list[int]:
        return [j for j, f in enumerate(self.is_integer) if f]

    def dense(self) -> tuple[np.ndarray, list[str], np.ndarray,
                             np.ndarray, np.ndarray, np.ndarray]:
        m, n = len(self.rows), self.n_variables
        a = np.zeros((m, n))
        b = np.zeros(m)
        senses = []
        for i, row in enumerate(self.rows):
            for j, v in row.coeffs.items():
                a[i, j] = v
            b[i] = row.rhs
            senses.append(row.sense)
        return (a, senses, b, np.array(self.lower), np.array(self.upper),
                np.array(self.objective))

    def to_lp_string(self) -> str:
        """Serialize in LP text format for cross-checking with other solvers.

        The objective constant (``offset``) has no LP-format slot and is noted
        in a leading comment.
        """
        def num(x: float) -> str:
            return repr(float(x))

        def term(coef: float, name: str, first: bool) -> str:
            sign = "- " if coef < 0 else ("" if first else "+ ")
            mag = abs(coef)
            return f"{sign}{num(mag)} {name}"

        out = [f"\\ {self.name}", f"\\ objective offset: {num(self.offset)}",
               "Minimize", " obj:"]
        parts = []
        for j, c in enumerate(self.objective):
            if c != 0.0:
                parts.append(term(c, self.var_names[j], not parts))
        out[-1] += " " + (" ".join(parts) if parts else "0 " + self.var_names[0])
        out.append("Subject To")
        op = {"<=": "<=", ">=": ">=", "==": "="}
        for row in self.rows:
            parts = []
            for j in sorted(row.coeffs):
                if row.coeffs[j] != 0.0:
                    parts.append(term(row.coeffs[j], self.var_names[j], not parts))
            body = " ".join(parts) if parts else "0 " + self.var_names[0]
            out.append(f" {row.name}: {body} {op[row.sense]} {num(row.rhs)}")
        out.append("Bounds")
        for j, name in enumerate(self.var_names):
            lo, hi = self.lower[j], self.upper[j]
            if lo == hi:
                out.append(f" {name} = {num(lo)}")
            else:
                lo_s = num(lo) if np.isfinite(lo) else "-inf"
                hi_s = num(hi) if np.isfinite(hi) else "+inf"
                out.append(f" {lo_s} <= {name} <= {hi_s}")
        ints = [self.var_names[j] for j in self.integer_indices()]
        if ints:
            out.append("Generals")
            out.append(" " + " ".join(ints))
        out.append("End")
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# bounded-variable primal and dual simplex
# ---------------------------------------------------------------------------

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2


class _Simplex:
    """LP solves over the augmented system [A | slacks | artificials].

    Slack bounds encode the row sense ("<=": [0,inf), ">=": (-inf,0],
    "==": [0,0]). ``solve`` is the cold two-phase primal: phase 1 drives
    artificial columns to zero; phase 2 minimizes the real cost with
    artificials pinned. After it, ``release`` re-solves the same system
    under wider structural bounds with primal phase 2, and ``resolve`` under
    new structural bounds with the dual simplex.
    """

    def __init__(self, a: np.ndarray, senses: list[str], b: np.ndarray,
                 lower: np.ndarray, upper: np.ndarray, cost: np.ndarray):
        m, n = a.shape
        self.m, self.n = m, n
        self.pivot_cap = 100 * (m + n)
        self.pivots = 0
        self.degenerate = 0
        self.bland = False

        # slack bounds by row sense
        sense = np.asarray(senses, dtype=str)
        slack_lo = np.where(sense == ">=", -np.inf, 0.0)
        slack_hi = np.where(sense == "<=", np.inf, 0.0)
        self.a = np.ascontiguousarray(a, dtype=float)
        self.b = b.astype(float)
        # structurals park at a bound (0 when free); the start basis takes a
        # row's slack when it absorbs the residual, a signed artificial else
        vals = np.where(np.isfinite(lower), lower,
                        np.where(np.isfinite(upper), upper, 0.0))
        resid = self.b - self.a @ vals
        fits = (slack_lo - 1e-11 <= resid) & (resid <= slack_hi + 1e-11)
        near = np.where(fits, resid, np.clip(resid, slack_lo, slack_hi))
        rho = resid - near
        self.art_sign = np.where(fits, 0.0, np.where(rho > 0, 1.0, -1.0))

        # full column space: structural, slack, artificial
        self.art0 = n + m
        self.full = np.concatenate([self.a, np.eye(m), np.diag(self.art_sign)],
                                   axis=1)
        self.lo = np.concatenate([lower, slack_lo, np.zeros(m)])
        self.hi = np.concatenate([upper, slack_hi, np.where(fits, 0.0, np.inf)])
        self.cost = np.concatenate([cost, np.zeros(2 * m)])
        self.values = np.concatenate([vals, near, np.abs(rho)])
        self.stat = np.where(np.isfinite(self.lo) | ~np.isfinite(self.hi),
                             _AT_LOWER, _AT_UPPER).astype(np.int8)
        self.basis = np.where(fits, n, self.art0) + np.arange(m)
        self.stat[self.basis] = _BASIC
        self.binv = np.diag(np.where(self.art_sign < 0, -1.0, 1.0))
        self.xb = self.values[self.basis].copy()

    # -- helpers ------------------------------------------------------------

    def _refactor(self) -> None:
        bmat = self.full[:, self.basis]
        try:
            self.binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis during refactorization") from exc
        self.values[self.basis] = 0.0
        rhs = self.b - self.full @ self.values
        self.xb = self.binv @ rhs
        self.values[self.basis] = self.xb

    def _pivot(self, r: int, q: int, w: np.ndarray) -> None:
        """Column ``q`` replaces ``basis[r]``; ``w`` is B^-1 times column q.

        The rank-1 update of the inverse touches only rows where ``w`` is
        nonzero and columns where the pivot row is nonzero: every other
        entry would change by a product equal to zero.
        """
        piv_row = self.binv[r] / w[r]
        rows, cols = np.flatnonzero(w), np.flatnonzero(piv_row)
        self.binv[np.ix_(rows, cols)] -= np.outer(w[rows], piv_row[cols])
        self.binv[r] = piv_row
        self.basis[r] = q
        self.stat[q] = _BASIC

    def _track(self) -> None:
        """Start the bookkeeping that the pivot loops update incrementally.

        ``sign`` is +1 for a movable nonbasic column at its upper bound, -1
        at its lower bound, 0 when basic or fixed; ``free`` columns may move
        either way. ``lo_b``/``hi_b`` are the bounds of the basic columns.
        """
        self.sign = np.where(self.stat == _AT_UPPER, 1.0, -1.0)
        self.sign[(self.stat == _BASIC) | ~((self.hi - self.lo) > 0)] = 0.0
        self.free = ~np.isfinite(self.lo) & ~np.isfinite(self.hi)
        self.lo_b, self.hi_b = self.lo[self.basis], self.hi[self.basis]

    def _exchange(self, r: int, q: int, w: np.ndarray, step: float,
                  to_upper: bool) -> None:
        """Basic row ``r`` leaves at its upper (else lower) bound; column
        ``q`` enters after moving by ``step``. The caller has already moved
        the other basic values by that step."""
        leave = self.basis[r]
        self.values[leave] = self.hi_b[r] if to_upper else self.lo_b[r]
        self.stat[leave] = _AT_UPPER if to_upper else _AT_LOWER
        self.sign[leave] = (1.0 if to_upper else -1.0) \
            if self.hi[leave] - self.lo[leave] > 0 else 0.0
        self.values[q] += step
        self._pivot(r, q, w)
        self.xb[r] = self.values[q]
        self.sign[q] = 0.0
        self.lo_b[r], self.hi_b[r] = self.lo[q], self.hi[q]
        if self.pivots % REFACTOR_EVERY == 0:
            self._refactor()

    def _run(self, cost: np.ndarray, cap: int) -> SolveStatus:
        m, n, art0 = self.m, self.n, self.art0
        # reduced costs by block: y @ A for structurals, identity slacks,
        # one signed (or empty) artificial column per row
        a, art_sign = self.a, self.art_sign
        # entering score is d * sign; free columns score |d|
        self._track()
        sign, lo_b, hi_b = self.sign, self.lo_b, self.hi_b
        free = np.flatnonzero(self.free)
        with np.errstate(invalid="ignore"):
            while True:
                if self.pivots >= cap:
                    return SolveStatus.ITERATION_LIMIT
                y = cost[self.basis] @ self.binv
                d = np.concatenate((cost[:n] - y @ a, cost[n:art0] - y,
                                    cost[art0:] - y * art_sign))
                score = d * sign
                score[free] = np.abs(score[free])
                # Bland's rule takes the lowest eligible index, Dantzig's the
                # largest score (ties to the lowest index)
                q = int(np.argmax(score > DUAL_TOL) if self.bland
                        else np.argmax(score))
                if not score[q] > DUAL_TOL:
                    return SolveStatus.OPTIMAL
                sigma = 1 if d[q] < 0 else -1

                w = self.binv @ self.full[:, q]
                rate = -sigma * w  # basic values move by t * rate

                # ratio test: own bound span, then each basic variable's slack
                span = self.hi[q] - self.lo[q]
                t_best = span if np.isfinite(span) else np.inf
                limits = np.full(m, np.inf)
                dec = rate < -PIVOT_TOL
                inc = rate > PIVOT_TOL
                limits[dec] = (self.xb[dec] - lo_b[dec]) / -rate[dec]
                limits[inc] = (hi_b[inc] - self.xb[inc]) / rate[inc]
                limits = np.where(np.isnan(limits), np.inf, limits)
                t_rows = limits.min() if m else np.inf
                t_star = min(t_best, t_rows)
                if not np.isfinite(t_star):
                    raise SolverError("LP is unbounded")
                t_star = max(t_star, 0.0)

                if t_star <= DEGEN_STEP:
                    self.degenerate += 1
                    if self.degenerate >= BLAND_AFTER:
                        self.bland = True

                self.pivots += 1
                self.xb += t_star * rate
                self.values[self.basis] = self.xb
                if t_rows > t_star + 1e-12:
                    # entering variable swings to its other bound; basis unchanged
                    self.values[q] = self.hi[q] if sigma > 0 else self.lo[q]
                    self.stat[q] = _AT_UPPER if sigma > 0 else _AT_LOWER
                    sign[q] = sigma
                    continue

                # leaving row: among tight rows take the largest pivot
                # magnitude, ties to the lowest basic column
                tight = np.flatnonzero(limits <= t_star + 1e-12)
                mag = np.abs(w[tight])
                tight = tight[mag == mag.max()]
                r = int(tight[np.argmin(self.basis[tight])])
                if abs(w[r]) <= PIVOT_TOL:
                    raise SolverError("pivot element vanished in ratio test")

                self._exchange(r, q, w, sigma * t_star, rate[r] >= 0)

    def _evict_artificials(self) -> None:
        # swap any basic artificial for a real column sharing its row; the
        # row's own slack always qualifies, so no artificial stays basic
        for r in range(self.m):
            j = self.basis[r]
            if j < self.art0:
                continue
            row = self.binv[r] @ self.full[:, :self.art0]
            cands = np.flatnonzero((np.abs(row) > 1e-7)
                                   & (self.stat[:self.art0] != _BASIC))
            q = int(cands[0])
            self._pivot(r, q, self.binv @ self.full[:, q])
            self.stat[j] = _AT_LOWER
            self.values[j] = 0.0
            self.xb[r] = self.values[q]

    def solve(self) -> tuple[SolveStatus, np.ndarray]:
        phase1 = np.zeros_like(self.cost)
        phase1[self.art0:] = 1.0
        cap = self.pivots + self.pivot_cap
        if np.any(self.basis >= self.art0):
            if self._run(phase1, cap) is SolveStatus.ITERATION_LIMIT:
                return SolveStatus.ITERATION_LIMIT, self.values[:self.n]
            self._refactor()
            infeas = float(np.sum(self.values[self.art0:]))
            if infeas > FEAS_TOL:
                return SolveStatus.INFEASIBLE, self.values[:self.n]
            self._evict_artificials()
            self.hi[self.art0:] = 0.0
            self.values[self.art0:][self.stat[self.art0:] != _BASIC] = 0.0
        return self._phase2(cap)

    def _phase2(self, cap: int) -> tuple[SolveStatus, np.ndarray]:
        if self._run(self.cost, cap) is SolveStatus.ITERATION_LIMIT:
            return SolveStatus.ITERATION_LIMIT, self.values[:self.n]
        return SolveStatus.OPTIMAL, self._audit()

    def release(self, lower: np.ndarray,
                upper: np.ndarray) -> tuple[SolveStatus, np.ndarray]:
        """Primal phase 2 from this system's optimal basis under wider
        structural bounds that still hold every structural value.

        Nonbasic values do not move, so the basis stays primal feasible;
        each nonbasic structural column is re-marked at the bound its value
        now sits on. A nonbasic value strictly inside its new bounds (a
        general integer released from an inner value) is no vertex of the
        wider system and raises ``SolverError``. Counts its pivots into
        ``self.pivots``.
        """
        n = self.n
        self.lo[:n], self.hi[:n] = lower, upper
        x, nonbasic = self.values[:n], self.stat[:n] != _BASIC
        at_hi, at_lo = x == self.hi[:n], x == self.lo[:n]
        if np.any(nonbasic & ~at_hi & ~at_lo & np.isfinite(self.lo[:n])):
            raise SolverError("nonbasic column strictly inside its bounds")
        self.stat[:n][nonbasic] = np.where(at_hi, _AT_UPPER, _AT_LOWER)[nonbasic]
        return self._phase2(self.pivots + self.pivot_cap)

    def resolve(self, lower: np.ndarray, upper: np.ndarray, basis: np.ndarray,
                stat: np.ndarray) -> tuple[SolveStatus, np.ndarray]:
        """Bounded dual simplex from an optimal basis of this same system.

        ``basis`` and ``stat`` come from an optimal solve whose structural
        bounds differ from ``lower``/``upper`` only on basic columns, so the
        reduced costs keep their signs: the basis stays dual feasible and
        only the primal side needs repair. Artificial columns stay nonbasic
        and fixed at zero. Counts its pivots into ``self.pivots``.
        """
        n, art0 = self.n, self.art0
        self.lo[:n], self.hi[:n] = lower, upper
        self.basis, self.stat = basis.copy(), stat.copy()
        self.values = np.where(self.stat == _AT_UPPER, self.hi,
                               np.where(np.isfinite(self.lo), self.lo, 0.0))
        self._refactor()

        a = np.ascontiguousarray(self.full[:, :art0])
        cost = self.cost[:art0]
        self._track()
        sign, free = self.sign[:art0], self.free[:art0]
        lo_b, hi_b = self.lo_b, self.hi_b
        cap = self.pivots + self.pivot_cap
        with np.errstate(invalid="ignore"):
            while True:
                # leaving row: the basic variable farthest outside its bounds
                viol = np.maximum(lo_b - self.xb, self.xb - hi_b)
                if not viol.max(initial=0.0) > PRIMAL_TOL:
                    return SolveStatus.OPTIMAL, self._audit()
                if self.pivots >= cap:
                    return SolveStatus.ITERATION_LIMIT, self.values[:n]
                r = int(np.argmax(viol))
                rising = self.xb[r] < lo_b[r]

                # ratio test over the columns whose move pushes basic r
                # toward its bound; ties go to the largest |alpha|
                alpha = self.binv[r] @ a
                push = alpha * sign * (1.0 if rising else -1.0)
                elig = np.flatnonzero((push > PIVOT_TOL)
                                      | (free & (np.abs(alpha) > PIVOT_TOL)))
                if not elig.size:
                    return SolveStatus.INFEASIBLE, self.values[:n]
                y = cost[self.basis] @ self.binv
                ratio = np.abs(cost[elig] - y @ a[:, elig]) / np.abs(alpha[elig])
                tied = elig[ratio <= ratio.min() + 1e-12]
                q = int(tied[np.argmax(np.abs(alpha[tied]))])

                w = self.binv @ self.full[:, q]
                if abs(w[r]) <= PIVOT_TOL:
                    raise SolverError("pivot element vanished in dual ratio test")
                theta = (self.xb[r] - (lo_b[r] if rising else hi_b[r])) / w[r]
                self.pivots += 1
                self.xb -= theta * w
                self.values[self.basis] = self.xb
                self._exchange(r, q, w, theta, not rising)

    def _audit(self) -> np.ndarray:
        """Refactorize, then check the point before claiming optimality."""
        self._refactor()
        x = self.values.copy()
        resid = self.full @ x - self.b
        # written so that a NaN residual or bound gap fails as well
        if not np.max(np.abs(resid), initial=0.0) <= FEAS_TOL:
            raise SolverError("optimal basis violates feasibility tolerance")
        below = np.where(np.isinf(self.lo), 0.0, self.lo - x)
        above = np.where(np.isinf(self.hi), 0.0, x - self.hi)
        if not np.max(np.maximum(below, above), initial=0.0) <= FEAS_TOL:
            raise SolverError("optimal point violates variable bounds")
        return x[:self.n]


def _solve_lp_arrays(a, senses, b, lower, upper,
                     cost) -> tuple[SolveStatus, _Simplex, np.ndarray]:
    """Cold two-phase primal solve on a new system: every cold LP."""
    sx = _Simplex(a, senses, b, lower, upper, cost)
    status, x = sx.solve()
    return status, sx, x


def solve_lp(model: MilpModel) -> SolveReport:
    """Simplex on the LP relaxation (integrality ignored)."""
    a, senses, b, lower, upper, cost = model.dense()
    t0 = time.perf_counter()
    status, sx, x = _solve_lp_arrays(a, senses, b, lower, upper, cost)
    obj = float(cost @ x) if status is SolveStatus.OPTIMAL else float("nan")
    return SolveReport(status, obj + model.offset, x, 0, sx.pivots,
                       time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------

@dataclass(order=True)
class _Node:
    bound: float
    seq: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)
    # the parent's final basis and column statuses; None at the root
    warm: tuple[np.ndarray, np.ndarray] | None = field(compare=False,
                                                       default=None)


def solve_milp(model: MilpModel, *,
               warm_integer_values: dict[int, float] | None = None) -> SolveReport:
    """Best-first branch and bound over the model's integer variables.

    Branches on the most fractional integer variable (ties to the lowest
    variable id), prunes nodes whose LP bound is within ``PRUNE_EPS`` of the
    incumbent, and accepts integrality at ``INT_TOL``. An optional warm point
    gives a value for every integer variable and for no other, as does each
    of ``model.starts`` (``ValueError`` otherwise). A point with a rounded
    value outside its bounds is ignored. Otherwise, the fixed-integer LP at
    the warm point seeds the incumbent. When that LP is not optimal, or
    there is no warm point, the start points are tried in turn, and one
    whose LP beats the incumbent by more than ``PRUNE_EPS`` replaces it.
    Neither kind of point changes the optimum, only the amount of pruning.

    The root LP restarts with primal phase 2 from the optimal basis of the
    fixed-integer LP at the incumbent so found, on that LP's own system;
    without one it is solved cold with the two-phase primal simplex. Every
    other node re-solves on the root's system with the dual simplex from its
    parent's basis. Either restart falls back to a cold solve when it fails
    (pivot cap, singular basis or a failed audit). An optimal report's
    values and objective are those of the fixed-integer LP at the incumbent,
    so they depend on the integer optimum, not on the path the search took.
    """
    t0 = time.perf_counter()
    a, senses, b, lower, upper, cost = model.dense()
    int_idx = np.array(model.integer_indices(), dtype=int)

    total_pivots = 0
    nodes = 0
    incumbent_obj = np.inf
    incumbent_x: np.ndarray | None = None
    source: str | None = None  # the incumbent's SolveReport.incumbent_source
    root: _Simplex | None = None
    start: _Simplex | None = None  # the incumbent's fixed-integer LP

    def integral(values: dict[int, float]) -> np.ndarray | None:
        """The point's rounded integer values, None when one lies outside
        its bounds (NaN included)."""
        ints = int_idx.tolist()
        if values.keys() != set(ints):
            raise ValueError("a warm or start point names every integer "
                             "column and no other")
        # integral, with -0.0 normalised to 0.0
        point = np.round([values[j] for j in ints]) + 0.0
        if (np.all(lower[int_idx] - INT_TOL <= point)
                and np.all(point <= upper[int_idx] + INT_TOL)):
            return point
        return None

    def cold_lp(lo: np.ndarray,
                hi: np.ndarray) -> tuple[SolveStatus, _Simplex, np.ndarray]:
        """Two-phase primal solve on a new system under these bounds."""
        nonlocal total_pivots
        status, sx, x = _solve_lp_arrays(a, senses, b, lo, hi, cost)
        total_pivots += sx.pivots
        return status, sx, x

    def fixed_lp(values: np.ndarray) -> tuple[SolveStatus, _Simplex, np.ndarray]:
        """Cold LP with every integer column fixed at the integral
        ``values``."""
        lo, hi = lower.copy(), upper.copy()
        lo[int_idx] = hi[int_idx] = values
        return cold_lp(lo, hi)

    def node_lp(node: _Node) -> tuple[SolveStatus, _Simplex, np.ndarray]:
        """The root restarts from the incumbent LP's basis, every other node
        re-solves from its parent's with the dual simplex; the cold primal
        when there is no such basis or the restart fails."""
        nonlocal total_pivots, root
        sx = start if node.warm is None else root
        if sx is not None:
            before = sx.pivots
            try:
                status, x = (sx.release(node.lower, node.upper)
                             if node.warm is None
                             else sx.resolve(node.lower, node.upper, *node.warm))
            except SolverError:
                status = SolveStatus.ITERATION_LIMIT
            total_pivots += sx.pivots - before
            if status is not SolveStatus.ITERATION_LIMIT:
                root = root or sx
                return status, sx, x
        status, sx, x = cold_lp(node.lower, node.upper)
        root = root or sx
        return status, sx, x

    def finish(status: SolveStatus) -> SolveReport:
        found = incumbent_x is not None
        return SolveReport(
            status, incumbent_obj + model.offset if found else float("nan"),
            incumbent_x if found else np.full(model.n_variables, np.nan),
            nodes, total_pivots, time.perf_counter() - t0, source)

    starts = [p for p in map(integral, model.starts) if p is not None]
    if warm_integer_values is not None:
        point = integral(warm_integer_values)
        if point is not None:
            status, sx, x = fixed_lp(point)
            if status is SolveStatus.ITERATION_LIMIT:
                return finish(status)
            if status is SolveStatus.OPTIMAL:
                incumbent_obj, incumbent_x, source, start = \
                    float(cost @ x), x, "warm", sx
    if start is None:
        for point in starts:
            status, sx, x = fixed_lp(point)
            if (status is SolveStatus.OPTIMAL
                    and float(cost @ x) < incumbent_obj - PRUNE_EPS):
                incumbent_obj, incumbent_x, source, start = \
                    float(cost @ x), x, "start", sx

    heap = [_Node(-np.inf, 0, lower.copy(), upper.copy())]
    seq = 0
    while heap:
        node = heapq.heappop(heap)
        if node.bound >= incumbent_obj - PRUNE_EPS:
            continue
        if nodes >= NODE_LIMIT:
            return finish(SolveStatus.ITERATION_LIMIT)
        nodes += 1
        status, sx, x = node_lp(node)
        if status is SolveStatus.ITERATION_LIMIT:
            return finish(status)
        if status is SolveStatus.INFEASIBLE:
            continue
        obj = float(cost @ x)
        if obj >= incumbent_obj - PRUNE_EPS:
            continue
        worst = np.abs(x[int_idx] - np.round(x[int_idx])) > INT_TOL
        if not worst.any():
            incumbent_obj, incumbent_x, source = obj, x, "search"
            continue
        # most fractional first; ties go to the lowest variable id
        cand = int_idx[worst]
        dist = np.abs((x[cand] - np.floor(x[cand])) - 0.5)
        j = int(cand[dist <= dist.min() + 1e-12].min())
        warm = (sx.basis.copy(), sx.stat.copy())
        for lo_j, hi_j in ((node.lower[j], np.floor(x[j])),
                           (np.ceil(x[j]), node.upper[j])):
            if lo_j > hi_j:
                continue
            lo, hi = node.lower.copy(), node.upper.copy()
            lo[j], hi[j] = lo_j, hi_j
            seq += 1
            heapq.heappush(heap, _Node(obj, seq, lo, hi, warm))
    if incumbent_x is None:
        return finish(SolveStatus.INFEASIBLE)
    # the report is the fixed-integer LP at the incumbent; a warm or start
    # incumbent is that LP already
    if source == "search":
        status, _, x = fixed_lp(np.round(incumbent_x[int_idx]) + 0.0)
        if status is SolveStatus.OPTIMAL:
            incumbent_obj, incumbent_x = float(cost @ x), x
    return finish(SolveStatus.OPTIMAL)

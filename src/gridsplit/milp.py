"""Small dense MILP solver: bounded-variable simplex plus branch and bound.

Scope is deliberately narrow. Models here have a hundred-odd variables, each
a finite box (``MilpModel`` refuses an infinite bound), so a dense revised
simplex with an explicitly maintained basis inverse, over one constraint
matrix per system, is fast enough and easy to audit. Only slack columns
have an infinite bound. No presolve, no cutting planes; faulted or
otherwise dead binaries are fixed through their bounds by the caller.

Every cold LP starts from the slack basis, with each structural column at
the bound its cost favours. Because every structural is a finite box, that
basis is dual feasible, and the bounded dual simplex solves the LP from it
with no phase 1 and no artificial columns (Bixby 1992; Koberstein 2005).

Each pivot updates the inverse sparsely: the rank-1 term is applied only on
the rows and columns where it is nonzero, which is a few percent of the
entries on the formation models. A refactorization inverts only the basis's
structural nucleus, the basic structural columns on the rows that no basic
slack covers; the slacks fill the rest of the inverse without arithmetic.
It runs in the audit, unless the inverse held is already the
refactorization of the basis, and after every ``REFACTOR_EVERY`` basis
exchanges since the last one. A dual re-solve starts from an inverse the system
already holds when that is the inverse of its start basis: the one the
last solve's audit left (for a child of that solve's node) or a copy of the
one the last re-solve started from (for its sibling); else it refactorizes.
No node carries an inverse. The pivot path is reproducible bit for bit: for
a given numpy and BLAS build, a model yields the same pivot sequence and
the same floats on every run, whichever inverse a re-solve starts from.

Every optimum is audited after a refactorization: row residuals and
bounds within ``FEAS_TOL``, and a dual feasible basis, each movable
nonbasic column's reduced cost of its bound's sign within ``FEAS_TOL``. A
dual re-solve that inverts its start basis first checks that it is dual
feasible within ``DUAL_TOL`` and raises ``SolverError`` when it is not.

Branch and bound has two LP helpers. The fixed-integer LP fixes every
integer column at an integral point: the incumbent, the caller's warm point
or one of the model's start points (``MilpModel.starts``), each of which
must name every integer column. The start points are tried only when the
warm point has no optimal fixed-integer LP. Each fixed-integer LP re-solves
on a new system with the dual simplex from one carried basis: the last
optimal fixed-integer LP's, or before the first the caller's (in a rolling
horizon, the previous event's), when it has the system's shape. Its
audited optimum or its INFEASIBLE stands (the start basis is checked dual
feasible); it is solved cold when there is no such basis, or when that
re-solve raises or hits the pivot cap; every LP of the oracle is cold. At the incumbent the
fixed-integer LP is the reported point. That point depends on the integer
optimum and on the carried basis, not on the vertex the search reached, so
the fixture's ``microgrids.csv``, which records ``repr`` of each
objective, does not pin the search's path. Runs stay deterministic: the
same models, solved in the same order, carry the same bases.

The node LP restarts the root from the optimal basis of the incumbent's
fixed-integer LP, which releasing the integer columns to their model
bounds leaves primal feasible, so the primal simplex goes on from it;
without an incumbent it solves the root cold. It re-solves every other node
with the dual simplex from its parent's optimal basis, which a bound change
leaves dual feasible. Either restart falls back to a cold solve when it
fails. Statuses are ``SolveStatus`` members throughout.

Budgets: 100 pivots per row and column for each LP, ``NODE_LIMIT`` nodes.
Minimization throughout. Integer variables must carry integral bounds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

FEAS_TOL = 1e-7          # constraint satisfaction guarantee on Optimal
PRIMAL_TOL = 1e-9        # bound violations the dual simplex still repairs
INT_TOL = 1e-6           # integrality acceptance in branch and bound
DUAL_TOL = 1e-9          # reduced-cost threshold for entering candidates
PIVOT_TOL = 1e-9         # smallest pivot element magnitude accepted
DEGEN_STEP = 1e-10       # step lengths below this count as degenerate
BLAND_AFTER = 1000       # degenerate pivots in a row before Bland's rule
REFACTOR_EVERY = 128     # basis exchanges between inverse refactorizations
PRUNE_EPS = 1e-9         # node bound vs incumbent pruning slack
NODE_LIMIT = 1_000_000   # branch-and-bound nodes before ITERATION_LIMIT


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"


class SolverError(Exception):
    """Numerical failure or unsupported model (e.g. non-finite data)."""


@dataclass
class SolveReport:
    status: SolveStatus
    objective: float
    values: np.ndarray
    node_count: int = 0
    lp_iterations: int = 0
    # where branch and bound found the reported point: "warm" (the caller's
    # warm point), "start" (one of the model's start points) or "search";
    # None without an incumbent, and from solve_lp
    incumbent_source: str | None = None
    # (basis, column statuses) of the last optimal fixed-integer LP, which
    # the next solve_milp of the same shape takes as warm_basis; None when
    # there was none, and from solve_lp
    basis: tuple[np.ndarray, np.ndarray] | None = None


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
        """A column with the finite box ``[lower, upper]``, whose bounds are
        integral when ``integer``; ``ValueError`` otherwise (NaN too)."""
        if not (-math.inf < lower <= upper < math.inf and (
                not integer or lower == round(lower) and upper == round(upper))):
            box = "an integral finite box" if integer else "a finite box"
            raise ValueError(f"variable {name}: [{lower}, {upper}] is not {box}")
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
        name = name or f"r{len(self.rows)}"
        for j, v in coeffs.items():
            if not 0 <= j < len(self.var_names):
                raise ValueError(f"constraint {name!r} references unknown column {j}")
            if not math.isfinite(v):
                raise ValueError(f"constraint {name!r}: {v!r} on column {self.var_names[j]}")
        if not math.isfinite(rhs):
            raise ValueError(f"constraint {name!r}: right-hand side {rhs!r}")
        self.rows.append(_Row(dict(coeffs), sense, float(rhs), name))
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
        in a leading comment. Every bound is finite, so each is a number.
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
                out.append(f" {num(lo)} <= {name} <= {num(hi)}")
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
    """LP solves over the augmented system ``full`` = [A | I] of structural
    and slack columns, held once: ``a`` is a view of its first n columns,
    and the loops read basic values and bounds in place from ``values``,
    ``lo`` and ``hi``.

    Structural bounds are finite (``MilpModel`` boxes); slack bounds encode
    the row sense ("<=": [0,inf), ">=": (-inf,0], "==": [0,0]). The start
    basis holds every slack, with each structural at the bound its cost
    favours: the upper one when the cost is negative, else the lower. That
    basis is dual feasible, so ``solve`` is the bounded dual simplex from
    it. After it, ``release`` re-solves the same system under wider
    structural bounds with the primal simplex, and ``resolve`` under new
    structural bounds with the dual simplex, from a basis of this system or
    of another with the same shape. Non-finite model data raises
    ``SolverError`` here: the dual start needs finite boxes, and with them
    no LP is unbounded.
    """

    def __init__(self, a: np.ndarray, senses: list[str], b: np.ndarray,
                 lower: np.ndarray, upper: np.ndarray, cost: np.ndarray):
        if not all(np.isfinite(v).all() for v in (a, b, lower, upper, cost)):
            raise SolverError("non-finite bound, cost, coefficient or "
                              "right-hand side")
        m, n = a.shape
        self.m, self.n = m, n
        self.pivot_cap = 100 * (m + n)
        self.pivots = 0
        self.exchanges = 0       # basis exchanges since the last refactorization

        self.b = b.astype(float)
        self.full = np.concatenate([a, np.eye(m)], axis=1)
        self.a = self.full[:, :n]
        # slack bounds by row sense
        sense = np.asarray(senses, dtype=str)
        self.lo = np.concatenate([lower, np.where(sense == ">=", -np.inf, 0.0)])
        self.hi = np.concatenate([upper, np.where(sense == "<=", np.inf, 0.0)])
        self.cost = np.concatenate([cost, np.zeros(m)])
        # the slack basis, each structural at the bound its cost favours
        up = cost < 0
        self.stat = np.full(n + m, _BASIC, dtype=np.int8)
        self.stat[:n] = np.where(up, _AT_UPPER, _AT_LOWER)
        self.values = np.concatenate([np.where(up, upper, lower), np.zeros(m)])
        self.basis = n + np.arange(m)
        self.binv = np.eye(m)
        self._basics()
        # binv is the refactorization of basis: set by _invert, cleared by
        # _pivot
        self.factored = False
        # (basis, binv) the last dual re-solve started from
        self.entry: tuple[np.ndarray, np.ndarray] | None = None

    # -- helpers ------------------------------------------------------------

    def _refactor(self) -> None:
        """Invert the basis, then recompute the basic values through it."""
        self._invert()
        self._basics()

    def _invert(self) -> None:
        """Invert the basis through its structural nucleus.

        Basic slacks are unit columns; slack column n + i covers row i.
        They cover rows I; the basic structurals S meet the other rows R in
        the nucleus A_RS, the only block that needs a numerical inverse:
        binv[S, R] = inv(A_RS), binv[U, row] = 1 and
        binv[U, R] = -A_IS @ inv(A_RS) for the slacks U.
        """
        m, n = self.m, self.n
        self.factored = False
        unit = self.basis >= n
        s_pos, u_pos = (~unit).nonzero()[0], unit.nonzero()[0]
        u_row = self.basis[u_pos] - n
        covered = np.zeros(m, dtype=bool)
        covered[u_row] = True
        r_rows = (~covered).nonzero()[0]
        self.binv = np.zeros((m, m))
        self.binv[u_pos, u_row] = 1.0
        if s_pos.size:
            s_cols = self.basis[s_pos]
            try:
                nucleus = np.linalg.inv(self.a[r_rows[:, None], s_cols])
            except np.linalg.LinAlgError as exc:
                raise SolverError("singular basis during refactorization") from exc
            self.binv[s_pos[:, None], r_rows] = nucleus
            self.binv[u_pos[:, None], r_rows] = \
                -(self.a[u_row[:, None], s_cols] @ nucleus)
        self.factored = True

    def _basics(self) -> None:
        """Basic values from the nonbasic ones through an inverse that no
        basis exchange has updated since it was computed."""
        self.exchanges = 0
        self.values[self.basis] = 0.0
        self.values[self.basis] = self.binv @ (self.b - self.full @ self.values)

    def _pivot(self, r: int, q: int, w: np.ndarray) -> None:
        """Column ``q`` replaces ``basis[r]``; ``w`` is B^-1 times column q.

        The rank-1 update of the inverse touches only rows other than ``r``
        where ``w`` is nonzero and columns where the pivot row is nonzero:
        every other entry would change by a product equal to zero, and row
        ``r`` becomes the pivot row.
        """
        piv_row = self.binv[r] / w[r]
        others = w != 0
        others[r] = False
        rows = others.nonzero()[0]
        if rows.size:
            cols = piv_row.nonzero()[0]
            self.binv[rows[:, None], cols] -= np.outer(w[rows], piv_row[cols])
        self.binv[r] = piv_row
        self.basis[r] = q
        self.stat[q] = _BASIC
        self.factored = False

    def _dual_infeasibility(self) -> float:
        """Largest reduced cost of the wrong sign on a movable nonbasic
        column (positive at its lower bound, negative at its upper), priced
        through the inverse held; 0 when the basis is dual feasible, NaN on
        a NaN price. The movable nonbasic columns and their signs are read
        from ``stat`` and the bounds, not from the loops' ``sign``; one
        product prices every column, which on these dense systems is
        cheaper than gathering the movable ones first."""
        y = self.cost[self.basis] @ self.binv
        d = self.cost - y @ self.full
        movable = (self.stat != _BASIC) & (self.hi > self.lo)
        return float(np.max(np.where(self.stat == _AT_UPPER, d, -d),
                            where=movable, initial=0.0))

    def _track(self) -> None:
        """Start the bookkeeping that the pivot loops update incrementally.

        ``sign`` is +1 for a movable nonbasic column at its upper bound, -1
        at its lower bound, 0 when basic or fixed. ``degenerate`` counts the
        loop's consecutive degenerate pivots, and ``bland`` says whether
        they have switched the loop to Bland's rule.
        """
        self.sign = np.where(self.stat == _AT_UPPER, 1.0, -1.0)
        self.sign[(self.stat == _BASIC) | ~((self.hi - self.lo) > 0)] = 0.0
        self.degenerate, self.bland = 0, False

    def _count_step(self, step: float) -> None:
        """``BLAND_AFTER`` degenerate pivots in a row switch the rest of the
        loop to Bland's rule."""
        if step <= DEGEN_STEP:
            self.degenerate += 1
            self.bland |= self.degenerate >= BLAND_AFTER
        else:
            self.degenerate = 0

    def _exchange(self, r: int, q: int, w: np.ndarray, step: float,
                  to_upper: bool) -> None:
        """Basic row ``r`` leaves at its upper (else lower) bound; column
        ``q`` enters after moving by ``step``. The caller has already moved
        the other basic values by that step."""
        leave = self.basis[r]
        self.values[leave] = self.hi[leave] if to_upper else self.lo[leave]
        self.stat[leave] = _AT_UPPER if to_upper else _AT_LOWER
        self.sign[leave] = (1.0 if to_upper else -1.0) \
            if self.hi[leave] - self.lo[leave] > 0 else 0.0
        self.values[q] += step
        self._pivot(r, q, w)
        self.sign[q] = 0.0
        self.exchanges += 1
        if self.exchanges >= REFACTOR_EVERY:
            self._refactor()

    def _primal(self) -> tuple[SolveStatus, np.ndarray]:
        """Bounded primal simplex from a primal feasible basis."""
        n = self.n
        # reduced costs by block: y @ A for structurals, identity slacks
        a, cost = self.a, self.cost
        # entering score is d * sign
        self._track()
        sign, basis, values = self.sign, self.basis, self.values
        d, score, limits = np.empty_like(cost), np.empty_like(cost), np.empty(self.m)
        cap = self.pivots + self.pivot_cap
        while True:
            if self.pivots >= cap:
                return SolveStatus.ITERATION_LIMIT, values[:n]
            y = cost[basis] @ self.binv
            np.subtract(cost[:n], y @ a, out=d[:n])
            np.subtract(cost[n:], y, out=d[n:])
            np.multiply(d, sign, out=score)
            # Bland's rule takes the lowest eligible index, Dantzig's the
            # largest score (ties to the lowest index)
            q = int(np.argmax(score > DUAL_TOL) if self.bland
                    else np.argmax(score))
            if not score[q] > DUAL_TOL:
                return SolveStatus.OPTIMAL, self._audit()
            sigma = 1 if d[q] < 0 else -1

            w = self.binv @ self.full[:, q]
            rate = -sigma * w  # basic values move by t * rate

            # ratio test: own bound span, then each basic variable's
            # slack; a NaN limit never binds
            span = self.hi[q] - self.lo[q]
            t_best = span if np.isfinite(span) else np.inf
            xb = values[basis]
            limits.fill(np.inf)
            np.divide(xb - self.lo[basis], -rate, out=limits,
                      where=rate < -PIVOT_TOL)
            np.divide(self.hi[basis] - xb, rate, out=limits,
                      where=rate > PIVOT_TOL)
            t_rows = np.fmin.reduce(limits, initial=np.inf)
            t_star = min(t_best, t_rows)
            if not np.isfinite(t_star):
                raise SolverError("LP is unbounded")
            t_star = max(t_star, 0.0)
            self._count_step(t_star)

            self.pivots += 1
            values[basis] = xb + t_star * rate
            if t_rows > t_star + 1e-12:
                # entering variable swings to its other bound; basis unchanged
                values[q] = self.hi[q] if sigma > 0 else self.lo[q]
                self.stat[q] = _AT_UPPER if sigma > 0 else _AT_LOWER
                sign[q] = sigma
                continue

            # leaving row: among tight rows take the largest pivot
            # magnitude, ties to the lowest basic column
            tight = (limits <= t_star + 1e-12).nonzero()[0]
            if tight.size > 1:
                mag = np.abs(w[tight])
                tight = tight[mag == mag.max()]
                r = int(tight[np.argmin(basis[tight])])
            else:
                r = int(tight[0])
            if abs(w[r]) <= PIVOT_TOL:
                raise SolverError("pivot element vanished in ratio test")

            self._exchange(r, q, w, sigma * t_star, rate[r] >= 0)

    def _dual(self) -> tuple[SolveStatus, np.ndarray]:
        """Bounded dual simplex from a dual feasible basis whose basic
        values are current."""
        a, cost = self.full, self.cost
        self._track()
        sign, basis, values = self.sign, self.basis, self.values
        cap = self.pivots + self.pivot_cap
        while True:
            # leaving row: the basic variable farthest outside its bounds;
            # under Bland's rule the violated one of lowest column index
            xb, lo_b, hi_b = values[basis], self.lo[basis], self.hi[basis]
            viol = np.maximum(lo_b - xb, xb - hi_b)
            if not viol.max(initial=0.0) > PRIMAL_TOL:
                return SolveStatus.OPTIMAL, self._audit()
            if self.pivots >= cap:
                return SolveStatus.ITERATION_LIMIT, values[:self.n]
            if self.bland:
                out = (viol > PRIMAL_TOL).nonzero()[0]
                r = int(out[np.argmin(basis[out])])
            else:
                r = int(np.argmax(viol))
            rising = xb[r] < lo_b[r]

            # ratio test over the columns whose move pushes basic r
            # toward its bound; ties go to the largest |alpha|, under
            # Bland's rule to the lowest index
            alpha = self.binv[r] @ a
            push = alpha * sign * (1.0 if rising else -1.0)
            elig = (push > PIVOT_TOL).nonzero()[0]
            if not elig.size:
                return SolveStatus.INFEASIBLE, values[:self.n]
            y = cost[basis] @ self.binv
            ratio = np.abs(cost[elig] - y @ a[:, elig]) / np.abs(alpha[elig])
            step = ratio.min()
            tied = elig[ratio <= step + 1e-12]
            q = int(tied[0] if self.bland
                    else tied[np.argmax(np.abs(alpha[tied]))])
            self._count_step(step)

            w = self.binv @ self.full[:, q]
            if abs(w[r]) <= PIVOT_TOL:
                raise SolverError("pivot element vanished in dual ratio test")
            theta = (xb[r] - (lo_b[r] if rising else hi_b[r])) / w[r]
            self.pivots += 1
            values[basis] = xb - theta * w
            self._exchange(r, q, w, theta, not rising)

    def solve(self) -> tuple[SolveStatus, np.ndarray]:
        """Bounded dual simplex from the slack start basis. Counts its
        pivots into ``self.pivots``."""
        return self._dual()

    def release(self, lower: np.ndarray,
                upper: np.ndarray) -> tuple[SolveStatus, np.ndarray]:
        """Primal simplex from this system's optimal basis under wider
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
        if np.any(nonbasic & ~at_hi & ~at_lo):
            raise SolverError("nonbasic column strictly inside its bounds")
        self.stat[:n][nonbasic] = np.where(at_hi, _AT_UPPER, _AT_LOWER)[nonbasic]
        return self._primal()

    def resolve(self, lower: np.ndarray, upper: np.ndarray, basis: np.ndarray,
                stat: np.ndarray) -> tuple[SolveStatus, np.ndarray]:
        """Bounded dual simplex from a dual feasible basis of a system with
        this shape.

        ``basis`` and ``stat`` come from an optimal solve, of this system
        under structural bounds that differ from ``lower``/``upper`` only
        on basic columns, or of another fixed-integer LP whose costs differ
        only on fixed columns. Either way the reduced costs keep their
        signs, and only the primal side needs repair, as in ``solve``. A
        start basis it inverts that is singular, leaves a column at an
        infinite bound or is not dual feasible within ``DUAL_TOL`` raises
        ``SolverError``. Counts its pivots into ``self.pivots``.

        The inverse it starts from is the one this system holds when
        ``basis`` is the basis its last solve ended on (a child of that
        solve's node), the one the last re-solve started from when
        ``basis`` is that one (a sibling), else a refactorization; each is
        bit for bit the inverse ``_refactor`` would compute.
        """
        n = self.n
        self.lo[:n], self.hi[:n] = lower, upper
        held = self.factored and np.array_equal(basis, self.basis)
        sibling = (not held and self.entry is not None
                   and np.array_equal(basis, self.entry[0]))
        self.basis, self.stat = basis.copy(), stat.copy()
        self.values = np.where(self.stat == _AT_UPPER, self.hi, self.lo)
        if sibling:
            self.binv, self.factored = self.entry[1].copy(), True
        elif not held:
            self._invert()
            # checked where it is inverted: a fixed-integer LP's carried
            # basis may come from another system
            if not np.isfinite(self.values[self.stat != _BASIC]).all():
                raise SolverError("nonbasic column at an infinite bound")
            if not self._dual_infeasibility() <= DUAL_TOL:
                raise SolverError("start basis is not dual feasible")
        if not sibling:
            self.entry = (self.basis.copy(), self.binv.copy())
        self._basics()
        return self._dual()

    def _audit(self) -> np.ndarray:
        """Refactorize, then check the point before claiming optimality.
        An inverse that is already the refactorization of the basis is
        kept: ``_invert`` would compute it again bit for bit."""
        if not self.factored:
            self._invert()
        self._basics()
        x = self.values.copy()
        resid = self.full @ x - self.b
        # written so that a NaN residual or bound gap fails as well
        if not np.max(np.abs(resid), initial=0.0) <= FEAS_TOL:
            raise SolverError("optimal basis violates feasibility tolerance")
        below = np.where(np.isinf(self.lo), 0.0, self.lo - x)
        above = np.where(np.isinf(self.hi), 0.0, x - self.hi)
        if not np.max(np.maximum(below, above), initial=0.0) <= FEAS_TOL:
            raise SolverError("optimal point violates variable bounds")
        if not self._dual_infeasibility() <= FEAS_TOL:
            raise SolverError("optimal basis is not dual feasible")
        return x[:self.n]


def _solve_lp_arrays(a, senses, b, lower, upper,
                     cost) -> tuple[SolveStatus, _Simplex, np.ndarray]:
    """Dual simplex solve from the slack basis of a new system: every
    cold LP."""
    sx = _Simplex(a, senses, b, lower, upper, cost)
    status, x = sx.solve()
    return status, sx, x


def solve_lp(model: MilpModel) -> SolveReport:
    """Simplex on the LP relaxation (integrality ignored)."""
    a, senses, b, lower, upper, cost = model.dense()
    status, sx, x = _solve_lp_arrays(a, senses, b, lower, upper, cost)
    obj = float(cost @ x) if status is SolveStatus.OPTIMAL else float("nan")
    return SolveReport(status, obj + model.offset, x, 0, sx.pivots)


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
               warm_integer_values: dict[int, float] | None = None,
               warm_basis: tuple[np.ndarray, np.ndarray] | None = None,
               ) -> SolveReport:
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

    Each fixed-integer LP re-solves with the dual simplex from the carried
    basis, which ``warm_basis`` seeds (a previous report's ``basis``) and
    every optimal fixed-integer LP replaces, when that basis has the
    system's shape, and its audited optimum or INFEASIBLE stands; it is the
    dual simplex from the slack basis when there is no such basis or that
    re-solve raises ``SolverError`` or hits the pivot cap. The root
    LP restarts with the primal simplex from the optimal basis of the
    fixed-integer LP at the incumbent so found, on that LP's own system;
    without one it is solved cold. Every other node re-solves on the root's
    system with the dual simplex from its parent's basis. Either restart
    falls back to a cold solve when it fails (pivot cap, singular or dual
    infeasible basis, or a failed audit). An optimal report's values and
    objective are those of the fixed-integer LP at the incumbent, so they
    depend on the integer optimum and the carried basis, not on the path
    the search took; the report's ``basis`` is the carried one at the end.
    """
    a, senses, b, lower, upper, cost = model.dense()
    int_idx = np.array(model.integer_indices(), dtype=int)

    total_pivots = 0
    nodes = 0
    incumbent_obj = np.inf
    incumbent_x: np.ndarray | None = None
    source: str | None = None  # the incumbent's SolveReport.incumbent_source
    # the incumbent's fixed-integer LP system, which the root node restarts;
    # the root's cold system when that restart fails or there is none
    root: _Simplex | None = None
    # (basis, stat) the next fixed-integer LP re-solves from
    carried = warm_basis

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
        """Cold solve on a new system under these bounds."""
        nonlocal total_pivots
        status, sx, x = _solve_lp_arrays(a, senses, b, lo, hi, cost)
        total_pivots += sx.pivots
        return status, sx, x

    def fixed_lp(values: np.ndarray) -> tuple[SolveStatus, _Simplex, np.ndarray]:
        """LP with every integer column fixed at the integral ``values``:
        the dual simplex from the carried basis on a new system when that
        basis has the system's shape. Its audited optimum stands, and so
        does its INFEASIBLE: ``resolve`` has checked the start basis dual
        feasible, so the dual simplex proves infeasibility as a cold solve
        would. The LP is solved cold when there is no such basis, or that
        re-solve raises ``SolverError`` or hits the pivot cap. An optimum
        becomes the carried basis."""
        nonlocal total_pivots, carried
        lo, hi = lower.copy(), upper.copy()
        lo[int_idx] = hi[int_idx] = values
        status = None
        if (carried is not None and carried[0].shape == (len(b),)
                and carried[1].shape == (len(cost) + len(b),)):
            sx = _Simplex(a, senses, b, lo, hi, cost)
            try:
                status, x = sx.resolve(lo, hi, *carried)
            except SolverError:
                pass
            total_pivots += sx.pivots
        if status in (None, SolveStatus.ITERATION_LIMIT):
            status, sx, x = cold_lp(lo, hi)
        if status is SolveStatus.OPTIMAL:
            carried = (sx.basis.copy(), sx.stat.copy())
        return status, sx, x

    def node_lp(node: _Node) -> tuple[SolveStatus, _Simplex, np.ndarray]:
        """The root restarts from the incumbent LP's basis, every other node
        re-solves from its parent's with the dual simplex; a cold solve
        when there is no such basis or the restart fails."""
        nonlocal total_pivots, root
        if root is not None:
            before = root.pivots
            try:
                status, x = (root.release(node.lower, node.upper)
                             if node.warm is None
                             else root.resolve(node.lower, node.upper, *node.warm))
            except SolverError:
                status = SolveStatus.ITERATION_LIMIT
            total_pivots += root.pivots - before
            if status is not SolveStatus.ITERATION_LIMIT:
                return status, root, x
        status, sx, x = cold_lp(node.lower, node.upper)
        if node.warm is None:
            root = sx
        return status, sx, x

    def finish(status: SolveStatus) -> SolveReport:
        found = incumbent_x is not None
        return SolveReport(
            status, incumbent_obj + model.offset if found else float("nan"),
            incumbent_x if found else np.full(model.n_variables, np.nan),
            nodes, total_pivots, source, carried)

    starts = [p for p in map(integral, model.starts) if p is not None]
    if warm_integer_values is not None:
        point = integral(warm_integer_values)
        if point is not None:
            status, sx, x = fixed_lp(point)
            if status is SolveStatus.OPTIMAL:
                incumbent_obj, incumbent_x, source, root = \
                    float(cost @ x), x, "warm", sx
    if root is None:
        for point in starts:
            status, sx, x = fixed_lp(point)
            if (status is SolveStatus.OPTIMAL
                    and float(cost @ x) < incumbent_obj - PRUNE_EPS):
                incumbent_obj, incumbent_x, source, root = \
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

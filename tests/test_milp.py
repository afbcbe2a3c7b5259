import copy

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog
from scipy.optimize import milp as scipy_milp

from gridsplit import (
    FormationWeights,
    MilpModel,
    SolverError,
    SolveStatus,
    build_milp,
    decode,
    formation_inputs,
    run,
    solve_lp,
    solve_milp,
    warm_values_from_topology,
)
from gridsplit import milp


def test_single_bound_constraint():
    m = MilpModel()
    x = m.add_variable("x", 0, 10, objective=1.0)
    m.add_constraint({x: 1.0}, ">=", 3.0)
    rep = solve_lp(m)
    assert rep.status is SolveStatus.OPTIMAL
    assert rep.objective == pytest.approx(3.0, abs=1e-9)


def test_contradictory_rows_are_infeasible():
    m = MilpModel()
    x = m.add_variable("x", 0, 10, objective=1.0)
    m.add_constraint({x: 1.0}, "<=", 1.0)
    m.add_constraint({x: 1.0}, ">=", 2.0)
    assert solve_lp(m).status is SolveStatus.INFEASIBLE


def test_unbounded_lp_raises():
    # MilpModel refuses a [0, inf) column, so it goes to the solver directly:
    # min -x subject to y - x <= 1, y in [0, 1]. The dual start needs a
    # finite box on every structural, so the system refuses the infinite
    # bound before any pivot
    with pytest.raises(SolverError, match="non-finite"):
        milp._solve_lp_arrays(np.array([[-1.0, 1.0]]), ["<="], np.array([1.0]),
                              np.zeros(2), np.array([np.inf, 1.0]),
                              np.array([-1.0, 0.0]))


@pytest.mark.parametrize("coef, upper", [
    (np.nan, 4.0),      # a NaN coefficient
    (1.0, np.nan),      # a NaN bound
    (np.inf, 4.0),      # an infinite coefficient
])
def test_non_finite_model_fails_the_audit(coef, upper):
    # MilpModel refuses these arrays, so they go to the solver directly:
    # max x + y subject to x + coef * y <= 4, x in [0, upper], y in [0, 4].
    # The system refuses them when it is built, before the solve and its
    # audit
    with pytest.raises(SolverError, match="non-finite"):
        milp._solve_lp_arrays(np.array([[1.0, coef]]), ["<="], np.array([4.0]),
                              np.zeros(2), np.array([upper, 4.0]),
                              np.array([-1.0, -1.0]))


@pytest.mark.parametrize("part", ["a", "b", "lower", "upper", "cost"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.blas_threads
def test_solver_refuses_non_finite_data(part, value):
    # each array a cold LP is built from, refused when the system is built
    data = {"a": np.array([[1.0, 2.0]]), "b": np.array([4.0]),
            "lower": np.zeros(2), "upper": np.full(2, 4.0),
            "cost": np.array([-1.0, -1.0])}
    data[part] = data[part].copy()
    data[part].flat[-1] = value
    with pytest.raises(SolverError, match="non-finite"):
        milp._Simplex(data["a"], ["<="], data["b"], data["lower"],
                      data["upper"], data["cost"])


def test_cold_start_is_dual_feasible():
    # every slack basic, every structural at the bound its cost favours:
    # each nonbasic structural's reduced cost has its bound's sign, >= 0 at
    # a lower bound and <= 0 at an upper one, so the dual simplex may start
    rng = np.random.default_rng(5)
    models = [_random_model(rng, with_integers=False) for _ in range(30)]
    for model in models:
        model.objective[0] = 0.0
    for model in models:
        sx = milp._Simplex(*model.dense())
        assert np.array_equal(sx.basis, sx.n + np.arange(sx.m))
        d = sx.cost - (sx.cost[sx.basis] @ sx.binv) @ sx.full
        nonbasic = sx.stat[:sx.n]
        assert np.all(d[:sx.n][nonbasic == milp._AT_LOWER] >= 0.0)
        assert np.all(d[:sx.n][nonbasic == milp._AT_UPPER] <= 0.0)
        # and the basic values are the slacks of that point
        x = sx.values[:sx.n]
        assert np.array_equal(x, np.where(sx.cost[:sx.n] < 0,
                                          sx.hi[:sx.n], sx.lo[:sx.n]))
        assert np.allclose(sx.values[sx.n:], sx.b - sx.a @ x, atol=1e-12)


def _one_column_lp():
    # min -x over x in [0, 1] under the row x <= 2: optimal at x = 1
    return milp._Simplex(np.array([[1.0]]), ["<="], np.array([2.0]),
                         np.array([0.0]), np.array([1.0]), np.array([-1.0]))


@pytest.mark.blas_threads
def test_audit_refuses_a_dual_infeasible_point():
    # x = 0 at its lower bound is primal feasible, but its reduced cost -1
    # says raising x lowers the objective: no optimum
    sx = _one_column_lp()
    sx.stat[0], sx.values[0] = milp._AT_LOWER, 0.0
    with pytest.raises(SolverError, match="optimal basis is not dual feasible"):
        sx._audit()
    status, x = _one_column_lp().solve()
    assert status is SolveStatus.OPTIMAL and x.tolist() == [1.0]


@pytest.mark.parametrize("entry_check", [True, False],
                         ids=["at-entry", "in-the-audit"])
@pytest.mark.blas_threads
def test_resolve_from_a_dual_infeasible_basis_is_never_optimal(
        monkeypatch, entry_check):
    # the slack basis with x at its lower bound is primal feasible, so the
    # dual loop would stop at once, at x = 0. The re-solve refuses that
    # start; let past that check, its audit refuses the point
    sx = _one_column_lp()
    stat = sx.stat.copy()
    stat[0] = milp._AT_LOWER
    if not entry_check:
        check = milp._Simplex._dual_infeasibility
        calls = []

        def passed_once(self):
            calls.append(None)
            return 0.0 if len(calls) == 1 else check(self)

        monkeypatch.setattr(milp._Simplex, "_dual_infeasibility", passed_once)
    with pytest.raises(SolverError, match="basis is not dual feasible"):
        sx.resolve(np.array([0.0]), np.array([1.0]), sx.basis.copy(), stat)


def test_resolve_refuses_a_nonbasic_column_at_an_infinite_bound():
    # x basic and the ">=" row's slack nonbasic at its lower bound, -inf:
    # a basis of another model's row senses
    sx = milp._Simplex(np.array([[1.0]]), [">="], np.array([0.5]),
                       np.array([0.0]), np.array([1.0]), np.array([1.0]))
    stat = np.array([milp._BASIC, milp._AT_LOWER], dtype=np.int8)
    with pytest.raises(SolverError, match="infinite bound"):
        sx.resolve(np.array([0.0]), np.array([1.0]), np.array([0]), stat)


def test_non_finite_model_input_is_refused_where_it_is_built():
    m = MilpModel()
    x = m.add_variable("x", -1.0, 1.0)
    for lower, upper in ((np.nan, 1.0), (0.0, np.nan), (np.inf, np.inf),
                         (2.0, 1.0)):
        with pytest.raises(ValueError, match="variable bad"):
            m.add_variable("bad", lower, upper)
    for coef in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="'cap': .* on column x"):
            m.add_constraint({x: coef}, "<=", 1.0, "cap")
    with pytest.raises(ValueError, match="'cap'.*right-hand side"):
        m.add_constraint({x: 1.0}, "<=", np.nan, "cap")
    with pytest.raises(ValueError, match="'r0'.*right-hand side"):
        m.add_constraint({x: 1.0}, ">=", -np.inf)
    assert (m.n_variables, m.n_constraints) == (1, 0)


@pytest.mark.parametrize("lower, upper", [
    (-np.inf, np.inf), (0.0, np.inf), (-np.inf, 0.0)])
def test_infinite_bounds_are_refused(lower, upper):
    # every column is a finite box: the simplex has no free-column path
    m = MilpModel()
    with pytest.raises(ValueError, match="variable x: .* not a finite box"):
        m.add_variable("x", lower, upper)
    assert m.n_variables == 0


def test_objective_offset_is_reported():
    m = MilpModel()
    x = m.add_variable("x", 0, 10, objective=1.0)
    m.add_constraint({x: 1.0}, ">=", 2.0)
    m.offset = 100.0
    assert solve_lp(m).objective == pytest.approx(102.0)


def test_knapsack_toy_milp():
    m = MilpModel()
    a = m.add_variable("a", 0, 1, integer=True, objective=-3.0)
    b = m.add_variable("b", 0, 1, integer=True, objective=-2.0)
    m.add_constraint({a: 1.0, b: 1.0}, "<=", 1.0)
    rep = solve_milp(m)
    assert rep.status is SolveStatus.OPTIMAL
    assert rep.objective == pytest.approx(-3.0)
    assert rep.values[a] == pytest.approx(1.0, abs=1e-6)


def test_pure_lp_through_milp_path():
    m = MilpModel()
    x = m.add_variable("x", 0, 4, objective=-1.0)
    y = m.add_variable("y", 0, 4, objective=-1.0)
    m.add_constraint({x: 1.0, y: 2.0}, "<=", 6.0)
    assert solve_milp(m).objective == pytest.approx(solve_lp(m).objective)


def test_integrality_rounds_the_relaxation_down():
    m = MilpModel()
    x = m.add_variable("x", 0, 10, integer=True, objective=-1.0)
    m.add_constraint({x: 2.0}, "<=", 7.0)
    assert solve_lp(m).objective == pytest.approx(-3.5)
    assert solve_milp(m).objective == pytest.approx(-3.0)


def test_integer_variable_needs_finite_integral_bounds():
    m = MilpModel()
    with pytest.raises(ValueError):
        m.add_variable("x", 0, np.inf, integer=True)
    with pytest.raises(ValueError):
        m.add_variable("x", 0.5, 2.5, integer=True)


def test_solver_is_deterministic():
    m = MilpModel()
    xs = [m.add_variable(f"x{i}", 0, 3, integer=True, objective=c)
          for i, c in enumerate([-2.0, -1.0, -3.0])]
    m.add_constraint({xs[0]: 1.0, xs[1]: 2.0, xs[2]: 1.5}, "<=", 5.0)
    first = solve_milp(m)
    second = solve_milp(m)
    assert first.objective == second.objective
    assert np.array_equal(first.values, second.values)


def test_warm_point_must_name_every_integer_column():
    # fixing y alone would leave x = 3.5 in the fixed-integer LP
    m = MilpModel()
    x = m.add_variable("x", 0, 10, integer=True, objective=-1.0)
    y = m.add_variable("y", 0, 1, integer=True)
    z = m.add_variable("z", 0, 1)
    m.add_constraint({x: 2.0}, "<=", 7.0)
    for warm in ({y: 0.0}, {x: 3.0, y: 0.0, z: 0.0}):
        with pytest.raises(ValueError, match="every integer column"):
            solve_milp(m, warm_integer_values=warm)
    # a full point with a value outside its bounds, or NaN, is ignored
    for warm in ({x: 3.0, y: 2.0}, {x: np.nan, y: 0.0}):
        rep = solve_milp(m, warm_integer_values=warm)
        assert rep.status is SolveStatus.OPTIMAL
        assert rep.objective == pytest.approx(-3.0)
        assert rep.values[x] == pytest.approx(3.0)


def test_lp_text_round_trips_key_parts():
    m = MilpModel("demo")
    x = m.add_variable("x1", 0, 2, integer=True, objective=1.5)
    m.add_constraint({x: 1.0}, ">=", 1.0, name="floor")
    m.offset = 7.0
    text = m.to_lp_string()
    assert "Minimize" in text and "Generals" in text
    assert "floor:" in text and "x1" in text
    assert "offset: 7.0" in text


# ---------------------------------------------------------------------------
# randomized cross-checks against scipy
# ---------------------------------------------------------------------------

def _random_model(rng, with_integers):
    n = rng.integers(2, 7)
    m_rows = rng.integers(1, 6)
    model = MilpModel("fuzz")
    for j in range(n):
        up = float(rng.uniform(0.5, 8.0))
        integer = bool(with_integers and rng.random() < 0.5)
        if integer:
            up = float(int(up) + 1)
        model.add_variable(f"v{j}", 0.0, up, integer=integer,
                           objective=float(rng.uniform(-5, 5)))
    for _ in range(m_rows):
        cols = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        coeffs = {int(j): float(rng.uniform(-3, 3)) for j in cols}
        sense = ("<=", ">=", "==")[rng.integers(0, 3)]
        model.add_constraint(coeffs, sense, float(rng.uniform(-4, 8)))
    return model


def _scipy_parts(model):
    a, senses, b, lower, upper, cost = model.dense()
    lb = np.array([-np.inf if s == "<=" else b[i]
                   for i, s in enumerate(senses)])
    ub = np.array([np.inf if s == ">=" else b[i]
                   for i, s in enumerate(senses)])
    return a, lb, ub, lower, upper, cost


def _check_against_linprog(models):
    """Solve each LP here and with HiGHS; return how many were optimal."""
    checked = 0
    for model in models:
        a, senses, b, lower, upper, cost = model.dense()
        rows_ub, rhs_ub, rows_eq, rhs_eq = [], [], [], []
        for i, s in enumerate(senses):
            if s == "<=":
                rows_ub.append(a[i]); rhs_ub.append(b[i])
            elif s == ">=":
                rows_ub.append(-a[i]); rhs_ub.append(-b[i])
            else:
                rows_eq.append(a[i]); rhs_eq.append(b[i])
        res = linprog(cost,
                      A_ub=np.array(rows_ub) if rows_ub else None,
                      b_ub=np.array(rhs_ub) if rows_ub else None,
                      A_eq=np.array(rows_eq) if rows_eq else None,
                      b_eq=np.array(rhs_eq) if rows_eq else None,
                      bounds=list(zip(lower, upper)), method="highs")
        rep = solve_lp(model)
        if res.status == 2:
            assert rep.status is SolveStatus.INFEASIBLE
            continue
        assert res.status == 0 and rep.status is SolveStatus.OPTIMAL
        assert rep.objective == pytest.approx(res.fun, abs=1e-6, rel=1e-6)
        checked += 1
    return checked


@pytest.mark.blas_threads
def test_lp_fuzz_matches_linprog():
    rng = np.random.default_rng(20240817)
    models = [_random_model(rng, with_integers=False) for _ in range(60)]
    # the draw must keep exercising the optimal path
    assert _check_against_linprog(models) >= 20


@pytest.mark.blas_threads
def test_lp_fuzz_matches_linprog_under_blands_rule(monkeypatch):
    # The fuzz draws with the cost of every other column zeroed: the slack
    # start basis is then dual degenerate, and with BLAND_AFTER = 0 the
    # first degenerate dual pivot, a column of zero reduced cost entering,
    # switches the dual loop to Bland's rule. The draws as they are make
    # few degenerate pivots, so the rule would rarely switch on.
    monkeypatch.setattr(milp, "BLAND_AFTER", 0)
    switched = []
    solve = milp._Simplex.solve

    def spy(self):
        out = solve(self)
        switched.append(self.bland)
        return out

    monkeypatch.setattr(milp._Simplex, "solve", spy)
    rng = np.random.default_rng(20240817)
    models = [_random_model(rng, with_integers=False) for _ in range(60)]
    for model in models:
        for j in range(0, model.n_variables, 2):
            model.objective[j] = 0.0
    assert _check_against_linprog(models) >= 20
    assert sum(switched) >= 30


def test_redundant_equality_rows_match_linprog():
    # Each model's first row becomes an equality and gets an exact double
    # as a second equality row: a basis then holds the slack of one of the
    # pair, fixed at zero, for as long as the other row's is out.
    rng = np.random.default_rng(4242)
    models = []
    for _ in range(60):
        model = _random_model(rng, with_integers=False)
        row = model.rows[0]
        row.sense = "=="
        model.add_constraint({j: 2.0 * v for j, v in row.coeffs.items()},
                             "==", 2.0 * row.rhs)
        models.append(model)
    assert _check_against_linprog(models) >= 10


def test_milp_fuzz_matches_scipy_branch_and_bound():
    rng = np.random.default_rng(987123)
    checked = 0
    for _ in range(40):
        model = _random_model(rng, with_integers=True)
        a, lb, ub, lower, upper, cost = _scipy_parts(model)
        res = scipy_milp(
            c=cost, constraints=LinearConstraint(a, lb, ub),
            bounds=Bounds(lower, upper),
            integrality=np.array(model.is_integer, dtype=float))
        rep = solve_milp(model)
        if res.status == 2:
            assert rep.status is SolveStatus.INFEASIBLE
            continue
        assert res.status == 0 and rep.status is SolveStatus.OPTIMAL
        assert rep.objective == pytest.approx(res.fun, abs=1e-6, rel=1e-6)
        checked += 1
    assert checked >= 12


# ---------------------------------------------------------------------------
# branch and bound: dual re-solves of the children, cold fallback, polish
# ---------------------------------------------------------------------------

def _fuzz_milps():
    rng = np.random.default_rng(987123)
    return [_random_model(rng, with_integers=True) for _ in range(40)]


@pytest.fixture(scope="module")
def event_zero_model(scenario):
    g_t, snap = formation_inputs(scenario, None, 0)
    return build_milp(g_t, snap, FormationWeights())


@pytest.mark.blas_threads
def test_dual_children_match_cold_solves(monkeypatch, event_zero_model):
    resolve = milp._Simplex.resolve
    current = {}
    checked = []

    def spy(self, lower, upper, basis, stat):
        status, x = resolve(self, lower, upper, basis, stat)
        if status is not SolveStatus.ITERATION_LIMIT:
            a, senses, b, _, _, cost = current["dense"]
            ref, _, ref_x = milp._solve_lp_arrays(
                a, senses, b, lower, upper, cost)
            assert status is ref
            if status is SolveStatus.OPTIMAL:
                assert float(cost @ x) == pytest.approx(float(cost @ ref_x),
                                                        rel=1e-9, abs=1e-9)
            checked.append(status)
        return status, x

    monkeypatch.setattr(milp._Simplex, "resolve", spy)
    # without its start points the event-0 search re-solves 11 children,
    # with them 5
    monkeypatch.setattr(event_zero_model.model, "starts", [])
    for model in _fuzz_milps() + [event_zero_model.model]:
        current["dense"] = model.dense()
        solve_milp(model)
    # the dual path carried the search: 18 optimal and 5 infeasible children
    assert checked.count(SolveStatus.OPTIMAL) >= 15
    assert checked.count(SolveStatus.INFEASIBLE) >= 3


@pytest.mark.parametrize("first_fails", [False, True],
                         ids=["dual", "first-child-cold"])
@pytest.mark.blas_threads
def test_reused_entry_inverses_leave_every_search_bit_identical(
        monkeypatch, event_zero_model, first_fails):
    # the same searches with every re-solve refactorizing on entry; with
    # first_fails, each search's first re-solve raises, so that child is
    # solved on a cold-fallback system and its children (4 here) re-solve
    # from a basis of that system
    monkeypatch.setattr(event_zero_model.model, "starts", [])
    models = _fuzz_milps() + [event_zero_model.model]
    resolve, invert = milp._Simplex.resolve, milp._Simplex._invert
    inverts = []

    def counted(self):
        inverts.append(None)
        invert(self)

    def entered_cold(self, *args):
        self.factored, self.entry = False, None
        return resolve(self, *args)

    def searched(entry):
        calls = []

        def patched(self, *args):
            calls.append(None)
            if first_fails and len(calls) == 1:
                raise SolverError("singular basis during refactorization")
            return entry(self, *args)

        monkeypatch.setattr(milp._Simplex, "resolve", patched)
        inverts.clear()
        keys = []
        for model in models:
            calls.clear()
            rep = solve_milp(model)
            keys.append((rep.status, np.float64(rep.objective).tobytes(),
                         rep.values.tobytes(), rep.node_count,
                         rep.lp_iterations))
        return keys, len(inverts)

    monkeypatch.setattr(milp._Simplex, "_invert", counted)
    reused, reused_inverts = searched(resolve)
    cold, cold_inverts = searched(entered_cold)
    assert reused == cold
    # the reuse happened: fewer inversions for the same searches
    assert reused_inverts < cold_inverts


def _refactorized(sx, basis):
    """The inverse a refactorization computes for ``basis`` on ``sx``'s system."""
    fresh = copy.deepcopy(sx)
    fresh.basis = basis.copy()
    fresh._invert()
    return fresh.binv


@pytest.mark.blas_threads
def test_a_reused_entry_inverse_is_the_refactorization(monkeypatch,
                                                       event_zero_model):
    # whenever a re-solve starts from the inverse its system holds (a child
    # of the node solved last) or from the one the last re-solve started
    # from (a sibling), that inverse equals a fresh refactorization; so do
    # the held inverse whenever the flag claims it, and the saved one
    resolve, basics = milp._Simplex.resolve, milp._Simplex._basics
    entering, reused = [], []

    def spy(self, lower, upper, basis, stat):
        if self.factored:
            assert np.array_equal(self.binv, _refactorized(self, self.basis))
        held = self.factored and np.array_equal(basis, self.basis)
        sibling = self.entry is not None and np.array_equal(basis, self.entry[0])
        entering.append("held" if held else "sibling" if sibling else None)
        out = resolve(self, lower, upper, basis, stat)
        saved_basis, saved_binv = self.entry
        assert np.array_equal(saved_binv, _refactorized(self, saved_basis))
        return out

    def checked(self):
        # the first _basics of a re-solve runs on its entry inverse
        if entering and entering[-1] is not None:
            reused.append(entering[-1])
            entering[-1] = None
            assert np.array_equal(self.binv, _refactorized(self, self.basis))
        basics(self)

    monkeypatch.setattr(milp._Simplex, "resolve", spy)
    monkeypatch.setattr(milp._Simplex, "_basics", checked)
    monkeypatch.setattr(event_zero_model.model, "starts", [])
    for model in _fuzz_milps() + [event_zero_model.model]:
        solve_milp(model)
    # 5 held and 11 sibling entries in 23 re-solves
    assert reused.count("held") >= 4 and reused.count("sibling") >= 8


@pytest.mark.blas_threads
def test_an_audit_keeps_only_the_refactorization(monkeypatch, scenario):
    # an audit refactorizes unless the flag says the inverse it holds is
    # already the refactorization of its basis, as after a warm
    # fixed-integer LP or a root restart that took no pivot
    audit = milp._Simplex._audit
    kept = []

    def audited(self):
        if self.factored:
            kept.append(None)
            assert np.array_equal(self.binv, _refactorized(self, self.basis))
        return audit(self)

    monkeypatch.setattr(milp._Simplex, "_audit", audited)
    run(scenario, mode="flexible")
    # 17 of the fixture run's 46 audits
    assert len(kept) >= 13


def test_failed_dual_re_solve_falls_back_to_the_cold_primal(
        monkeypatch, event_zero_model):
    prob = event_zero_model
    expected = decode(prob, solve_milp(prob.model))
    calls = []

    def broken(self, *args):
        calls.append(1)
        raise SolverError("singular basis during refactorization")

    monkeypatch.setattr(milp._Simplex, "resolve", broken)
    rep = solve_milp(prob.model)
    sol = decode(prob, rep)
    # every node re-solve raised and fell back cold, and so did the two
    # fixed-integer LPs that re-solve from the carried basis: the second
    # start point's and the polish LP at the incumbent
    assert rep.node_count > 1 and len(calls) == rep.node_count - 1 + 2
    assert sol.objective_value == expected.objective_value
    assert sol.switch_status == expected.switch_status
    assert sol.assignment == expected.assignment


def test_reported_point_is_the_cold_lp_at_the_integer_optimum(
        event_zero_model):
    def fixed_lp(model, values):
        a, senses, b, lower, upper, cost = model.dense()
        ints = np.array(model.integer_indices(), dtype=int)
        # integral values, with -0.0 normalised to 0.0
        lower[ints] = upper[ints] = np.round(values[ints]) + 0.0
        status, _, x = milp._solve_lp_arrays(
            a, senses, b, lower, upper, cost)
        assert status is SolveStatus.OPTIMAL
        return x

    model = event_zero_model.model
    searched = solve_milp(model)
    # the incumbent comes from the search here, so the polish LP runs ...
    assert searched.node_count > 1
    # ... and a warm point at the optimum is that LP already
    warm = {j: float(v) for j, v in enumerate(searched.values)
            if model.is_integer[j]}
    seeded = solve_milp(model, warm_integer_values=warm)
    cases = [(model, searched), (model, seeded)]
    cases += [(m, r) for m, r in ((m, solve_milp(m)) for m in _fuzz_milps())
              if r.status is SolveStatus.OPTIMAL]
    assert len(cases) >= 14
    for m, rep in cases:
        assert rep.values.tobytes() == fixed_lp(m, rep.values).tobytes()


def test_polish_lp_skipped_after_a_full_warm_point(monkeypatch,
                                                   event_zero_model):
    # a warm point at the optimum is the reported fixed-integer LP: the
    # warm LP is the only cold solve, the root restarts from its basis, and
    # no polish LP follows the search
    model = event_zero_model.model
    best = solve_milp(model)
    warm = {j: float(best.values[j]) for j in model.integer_indices()}
    calls = []
    solve = milp._Simplex.solve

    def spy(self):
        calls.append(1)
        return solve(self)

    monkeypatch.setattr(milp._Simplex, "solve", spy)
    rep = solve_milp(model, warm_integer_values=warm)
    assert len(calls) == 1
    assert rep.values.tobytes() == best.values.tobytes()


def test_root_from_an_inner_integer_value_is_solved_cold(monkeypatch):
    # x = 2 is no bound of x in [0, 10], so the warm basis is no vertex of
    # the root LP: marked at a bound, x could never move down, and the root
    # would end at the warm point. The restart refuses it, and the root is
    # solved cold on a new system; its two children re-solve on that
    # system, and the polish LP at x = 1 re-solves on a new one from the
    # basis carried from the warm LP
    m = MilpModel()
    x = m.add_variable("x", 0, 10, integer=True, objective=1.0)
    m.add_constraint({x: 2.0}, ">=", 1.0)
    calls, systems = [], []

    def spied(name):
        method = getattr(milp._Simplex, name)

        def spy(self, *args):
            if self not in systems:
                systems.append(self)
            try:
                out = method(self, *args)
            except SolverError:
                calls.append((name, systems.index(self), None))
                raise
            calls.append((name, systems.index(self), out[0]))
            return out
        return spy

    for name in ("solve", "release", "resolve"):
        monkeypatch.setattr(milp._Simplex, name, spied(name))
    rep = solve_milp(m, warm_integer_values={x: 2.0})
    assert rep.status is SolveStatus.OPTIMAL
    assert rep.objective == 1.0
    opt, inf = SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE
    assert calls == [("solve", 0, opt),       # the warm LP at x = 2, cold
                     ("release", 0, None),    # the root restart, refused
                     ("solve", 1, opt),       # the root, cold
                     ("resolve", 1, inf),     # the child x <= 0
                     ("resolve", 1, opt),     # the child x >= 1
                     ("resolve", 2, opt)]     # the polish LP, warm


# ---------------------------------------------------------------------------
# the fixed-integer LP basis carried from one LP, and one solve, to the next
# ---------------------------------------------------------------------------

@pytest.mark.blas_threads
def test_warm_fixed_integer_lps_match_cold_solves(scenario, first_lps):
    # every fixed-integer LP of the fixture's flexible run that re-solves
    # warm from the carried basis (16 of its 21) reaches the cold LP's
    # objective
    run(scenario, mode="flexible")
    warm = [(args, x) for start, status, args, x in first_lps
            if start == "warm" and status is SolveStatus.OPTIMAL]
    assert len(warm) >= 13
    for args, x in warm:
        status, _, ref = milp._solve_lp_arrays(*args)
        assert status is SolveStatus.OPTIMAL
        cost = args[-1]
        assert abs(float(cost @ x) - float(cost @ ref)) <= milp.PRUNE_EPS


def _bad_basis(model, kind):
    """A warm basis for ``model`` that cannot start its fixed-integer LPs."""
    a, senses, _, _, _, cost = model.dense()
    m, n = a.shape
    basis = n + np.arange(m)
    stat = np.full(n + m, milp._BASIC, dtype=np.int8)
    if kind == "wrong-shape":
        # one row short, as from a model of another graph
        return basis[:-1], np.delete(stat, n)
    if kind == "singular":
        # structural 0 replaces the slack of a row it has no entry in: the
        # nucleus is that zero entry
        i = next(i for i in range(m) if a[i, 0] == 0 and senses[i] != ">=")
        basis[i] = 0
        stat[:n] = milp._AT_LOWER
        stat[0], stat[n + i] = milp._BASIC, milp._AT_LOWER
        return basis, stat
    # the slack basis with each structural at the bound its cost disfavours
    stat[:n] = np.where(cost < 0, milp._AT_LOWER, milp._AT_UPPER)
    return basis, stat


def _key(rep):
    return (rep.status, np.float64(rep.objective).tobytes(),
            rep.values.tobytes(), rep.node_count, rep.lp_iterations,
            rep.incumbent_source, rep.basis[0].tobytes(),
            rep.basis[1].tobytes())


@pytest.mark.parametrize("kind", ["wrong-shape", "singular",
                                  "dual-infeasible"])
@pytest.mark.blas_threads
def test_a_bad_warm_basis_falls_back_cold(event_zero_model, first_lps, kind):
    model = event_zero_model.model
    cold = solve_milp(model)
    first_lps.clear()
    rep = solve_milp(model, warm_basis=_bad_basis(model, kind))
    # the first start point's LP starts cold at once, or after its warm
    # re-solve raised; every LP after it matches the solve without a basis
    starts = [(start, status) for start, status, _, _ in first_lps[:2]]
    if kind == "wrong-shape":
        assert starts[0] == ("cold", SolveStatus.OPTIMAL)
    else:
        assert starts == [("warm", None), ("cold", SolveStatus.OPTIMAL)]
    assert _key(rep) == _key(cold)


@pytest.mark.blas_threads
def test_a_warm_infeasible_fixed_integer_lp_is_not_solved_again(
        event_zero_model, first_lps):
    # the second start point's LP re-solves from the first one's basis and
    # ends infeasible; the dual simplex from a checked dual feasible start
    # proves that, so no later system solves the same LP, and a cold solve
    # agrees
    solve_milp(event_zero_model.model)
    log = list(first_lps)
    (i,) = [i for i, (start, status, _, _) in enumerate(log)
            if (start, status) == ("warm", SolveStatus.INFEASIBLE)]
    args = log[i][2]     # the system's (a, senses, b, lower, upper, cost)
    assert not any(np.array_equal(later[3], args[3])
                   and np.array_equal(later[4], args[4])
                   for _, _, later, _ in log[i + 1:])
    assert milp._solve_lp_arrays(*args)[0] is SolveStatus.INFEASIBLE


def test_dual_check_fails_on_a_nan_price():
    sx = _one_column_lp()
    assert sx.solve()[0] is SolveStatus.OPTIMAL
    assert sx._dual_infeasibility() == 0.0
    sx.binv[:] = np.nan
    assert np.isnan(sx._dual_infeasibility())
    sx = _one_column_lp()
    sx.cost[0] = np.nan
    assert np.isnan(sx._dual_infeasibility())


def test_report_carries_the_last_optimal_fixed_integer_lp_basis(
        event_zero_model):
    # the basis the report returns is the polish LP's here, and a solve
    # seeded with it re-solves its first fixed-integer LP warm
    model = event_zero_model.model
    rep = solve_milp(model)
    basis, stat = rep.basis
    assert basis.shape == (model.n_constraints,)
    assert stat.shape == (model.n_variables + model.n_constraints,)
    assert np.all(stat[basis] == milp._BASIC)
    warm = {j: float(rep.values[j]) for j in model.integer_indices()}
    seeded = solve_milp(model, warm_integer_values=warm, warm_basis=rep.basis)
    assert seeded.values.tobytes() == rep.values.tobytes()
    assert seeded.lp_iterations < solve_milp(
        model, warm_integer_values=warm).lp_iterations
    assert solve_lp(model).basis is None


# ---------------------------------------------------------------------------
# start points carried by the model
# ---------------------------------------------------------------------------

def _face_model():
    # the root LP ends at the fractional vertex (0.75, 0.25) of the optimal
    # face x + y = 1, whose only integral point is (0, 1): the cold search
    # needs a second node to find it. The third row is redundant in the box,
    # but at the dual start (1, 1) it is the most violated row and x enters
    # for it, which steers the dual simplex to that vertex, not to (0, 1)
    m = MilpModel()
    x = m.add_variable("x", 0, 1, integer=True, objective=-1.0)
    y = m.add_variable("y", 0, 1, integer=True, objective=-1.0)
    m.add_constraint({x: 1.0, y: 1.0}, "<=", 1.0)
    m.add_constraint({x: 1.0, y: -1.0}, "<=", 0.5)
    m.add_constraint({x: 3.0, y: 2.0}, "<=", 3.0)
    return m, x, y


def test_optimal_start_point_closes_the_search_at_the_root():
    m, x, y = _face_model()
    cold = solve_milp(m)
    assert cold.node_count == 2 and cold.incumbent_source == "search"
    m.starts = [{x: 0.0, y: 1.0}]
    rep = solve_milp(m)
    assert rep.node_count == 1 and rep.incumbent_source == "start"
    assert rep.objective == cold.objective == -1.0
    assert rep.values.tobytes() == cold.values.tobytes()


def test_infeasible_or_out_of_bounds_start_point_is_ignored():
    m, x, y = _face_model()
    cold = solve_milp(m)
    for start in ({x: 1.0, y: 1.0}, {x: 2.0, y: 0.0}, {x: np.nan, y: 1.0}):
        m.starts = [start]
        rep = solve_milp(m)
        assert rep.incumbent_source == "search"
        assert rep.node_count == cold.node_count
        assert rep.values.tobytes() == cold.values.tobytes()


def test_worse_start_point_does_not_replace_a_better_one():
    # kept in turn, (0, 0) would leave the root to search again
    m, x, y = _face_model()
    m.starts = [{x: 0.0, y: 1.0}, {x: 0.0, y: 0.0}]
    rep = solve_milp(m)
    assert rep.node_count == 1 and rep.incumbent_source == "start"
    assert rep.objective == -1.0
    # and a better one replaces a worse one
    m.starts.reverse()
    rep = solve_milp(m)
    assert rep.node_count == 1 and rep.incumbent_source == "start"


def test_start_point_must_name_every_integer_column():
    m, x, y = _face_model()
    z = m.add_variable("z", 0, 1)
    for start in ({x: 0.0}, {x: 0.0, y: 1.0, z: 0.0}):
        m.starts = [start]
        with pytest.raises(ValueError, match="every integer column"):
            solve_milp(m)
        # checked even when an optimal warm point makes the starts moot
        with pytest.raises(ValueError, match="every integer column"):
            solve_milp(m, warm_integer_values={x: 0.0, y: 1.0})


def test_start_points_are_tried_only_without_an_optimal_warm_lp(monkeypatch):
    m, x, y = _face_model()
    m.starts = [{x: 0.0, y: 1.0}]
    calls = []
    solve = milp._Simplex.solve

    def spy(self):
        calls.append(1)
        return solve(self)

    monkeypatch.setattr(milp._Simplex, "solve", spy)
    # an optimal warm LP: the start point's LP is never solved
    rep = solve_milp(m, warm_integer_values={x: 0.0, y: 1.0})
    assert rep.incumbent_source == "warm" and len(calls) == 1
    # an infeasible warm LP: the start point seeds the incumbent
    calls.clear()
    rep = solve_milp(m, warm_integer_values={x: 1.0, y: 1.0})
    assert rep.incumbent_source == "start" and len(calls) == 2
    assert rep.node_count == 1


def test_start_points_are_tried_when_the_warm_lp_hits_the_pivot_cap(
        monkeypatch, scenario):
    # the fixed-integer LP at event 4's own optimum is cut off at the pivot
    # cap: the search goes on from the model's start points
    g_t, snap = formation_inputs(scenario, None, 4)
    prob = build_milp(g_t, snap, FormationWeights())
    best = decode(prob, solve_milp(prob.model))
    warm = warm_values_from_topology(prob, best.closed, best.assignment)
    calls = []
    solve = milp._Simplex.solve

    def capped_once(self):
        calls.append(1)
        if len(calls) == 1:
            return SolveStatus.ITERATION_LIMIT, np.zeros(self.n)
        return solve(self)

    monkeypatch.setattr(milp._Simplex, "solve", capped_once)
    rep = solve_milp(prob.model, warm_integer_values=warm)
    assert rep.status is SolveStatus.OPTIMAL
    assert rep.incumbent_source == "start"
    assert rep.objective == pytest.approx(94.0, abs=1e-6)


def test_incumbent_source_without_an_incumbent():
    m, x, y = _face_model()
    m.add_constraint({x: 1.0, y: 1.0}, ">=", 1.5)
    m.starts = [{x: 0.0, y: 1.0}]
    rep = solve_milp(m)
    assert rep.status is SolveStatus.INFEASIBLE
    assert rep.incumbent_source is None
    assert solve_lp(m).incumbent_source is None


# ---------------------------------------------------------------------------
# basis refactorization through the structural nucleus
# ---------------------------------------------------------------------------

@pytest.mark.blas_threads
class TestRefactor:
    """``_Simplex._refactor`` on bases set by hand. The system has 8 rows
    and 6 structurals; its columns are the structurals and one slack per
    row."""

    @staticmethod
    def system(a=None):
        if a is None:
            a = np.random.default_rng(42).normal(size=(8, 6))
        senses = ["==", "==", "==", "==", "<=", ">=", "<=", "=="]
        b = np.array([3.0, -2.0, 4.0, -1.0, 1.0, -1.0, 2.0, 0.0])
        return milp._Simplex(a, senses, b, np.zeros(6), np.full(6, 10.0),
                             np.ones(6))

    @staticmethod
    def columns(sx, spec):
        """Column ids of ("s", j) structurals and ("slack", i)."""
        base = {"s": 0, "slack": sx.n}
        return np.array([base[kind] + i for kind, i in spec])

    def test_one_constraint_matrix_per_system(self):
        # the structural block is a view of the one [A | I] matrix, whose
        # slack columns _invert reads as the rows they cover
        sx = self.system()
        assert np.shares_memory(sx.a, sx.full)
        assert sx.full.shape == (8, 14)
        assert np.array_equal(sx.full[:, sx.n:], np.eye(8))

    @pytest.mark.parametrize("spec", [
        # slacks of every sense and three structurals
        [("slack", 0), ("slack", 1), ("slack", 2), ("slack", 4),
         ("slack", 5), ("s", 1), ("s", 4), ("s", 5)],
        # every structural basic; the nucleus is 6 x 6
        [("s", 0), ("slack", 2), ("s", 1), ("s", 2), ("slack", 6), ("s", 3),
         ("s", 4), ("s", 5)],
        # one structural, the rest slacks
        [("slack", 0), ("slack", 1), ("slack", 2), ("slack", 3), ("s", 2),
         ("slack", 5), ("slack", 6), ("slack", 7)],
    ])
    @pytest.mark.parametrize("order", range(3))
    def test_mixed_basis_is_inverted(self, spec, order):
        sx = self.system()
        basis = self.columns(sx, spec)
        sx.basis = np.random.default_rng(order).permutation(basis)
        sx._refactor()
        err = sx.binv @ sx.full[:, sx.basis] - np.eye(sx.m)
        assert np.max(np.abs(err)) <= 1e-9
        assert np.allclose(sx.binv, np.linalg.inv(sx.full[:, sx.basis]),
                           rtol=0.0, atol=1e-9)

    def test_all_unit_basis_is_the_signed_permutation(self, monkeypatch):
        # every sign is +1 now that slacks are the only unit columns
        def no_inverse(_):
            raise AssertionError("an all-unit basis needs no numerical inverse")

        monkeypatch.setattr(milp.np.linalg, "inv", no_inverse)
        sx = self.system()
        rows = [5, 1, 7, 0, 2, 6, 3, 4]
        sx.basis = self.columns(sx, [("slack", i) for i in rows])
        sx._refactor()
        expected = np.zeros((8, 8))
        expected[np.arange(8), rows] = 1.0
        assert np.array_equal(sx.binv, expected)

    def test_singular_nucleus_raises(self):
        # powers of two keep the elimination exact, so the two equal
        # columns leave an exactly zero pivot
        a = np.random.default_rng(7).choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0],
                                            size=(8, 6))
        a[:, 1] = a[:, 0]
        sx = self.system(a)
        sx.basis = self.columns(sx, [("s", 0), ("s", 1), ("s", 2), ("slack", 3),
                                     ("slack", 4), ("slack", 5), ("slack", 6),
                                     ("slack", 7)])
        with pytest.raises(SolverError, match="singular basis"):
            sx._refactor()

    def test_periodic_refactor_counts_exchanges_since_the_last(
            self, monkeypatch, event_zero_model):
        refactor = milp._Simplex._refactor
        calls = []

        def spy(self):
            calls.append(None)
            refactor(self)

        monkeypatch.setattr(milp._Simplex, "_refactor", spy)
        counts = []
        for shift in (0, milp.REFACTOR_EVERY - 1):
            calls.clear()
            sx = milp._Simplex(*event_zero_model.model.dense())
            sx.pivots = shift
            status, _ = sx.solve()
            assert status is SolveStatus.OPTIMAL
            counts.append(len(calls))
        # earlier pivots on the same system do not move the periodic refactor
        assert counts[0] == counts[1]

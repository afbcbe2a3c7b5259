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
    solve_lp,
    solve_milp,
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
    m = MilpModel()
    m.add_variable("x", 0, np.inf, objective=-1.0)
    with pytest.raises(SolverError, match="unbounded"):
        solve_lp(m)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("coef, upper, solver", [
    (np.nan, 4.0, solve_lp),      # a NaN residual
    (1.0, np.nan, solve_lp),      # a NaN bound gap; the optimum is -4
    (np.inf, 4.0, solve_milp),    # an infinite coefficient
])
def test_non_finite_model_fails_the_audit(coef, upper, solver):
    m = MilpModel()
    x = m.add_variable("x", 0, upper, objective=-1.0)
    y = m.add_variable("y", 0, 4, integer=True, objective=-1.0)
    m.add_constraint({x: 1.0, y: coef}, "<=", 4.0)
    with pytest.raises(SolverError, match="violates"):
        solver(m)


def test_free_variable_and_equality():
    # minimize 2x + y, x + y == 4, x >= -3, y in [0,5]:
    # pushing x down is worth it until y hits its cap, so x=-1, y=5
    m = MilpModel()
    x = m.add_variable("x", -np.inf, np.inf, objective=2.0)
    y = m.add_variable("y", 0, 5, objective=1.0)
    m.add_constraint({x: 1.0, y: 1.0}, "==", 4.0)
    m.add_constraint({x: 1.0}, ">=", -3.0)
    rep = solve_lp(m)
    assert rep.status is SolveStatus.OPTIMAL
    assert rep.objective == pytest.approx(3.0, abs=1e-7)
    assert rep.values[0] == pytest.approx(-1.0, abs=1e-7)
    assert rep.values[1] == pytest.approx(5.0, abs=1e-7)


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


def test_lp_fuzz_matches_linprog():
    rng = np.random.default_rng(20240817)
    models = [_random_model(rng, with_integers=False) for _ in range(60)]
    # the draw must keep exercising the optimal path
    assert _check_against_linprog(models) >= 20


def test_lp_fuzz_matches_linprog_under_blands_rule(monkeypatch):
    # The fuzz draws with every right-hand side zeroed: the starting vertex
    # is then degenerate, and with BLAND_AFTER = 0 the first degenerate pivot
    # switches to Bland's rule. The draws as they are make no degenerate
    # pivot, so the rule would never switch on.
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
        for row in model.rows:
            row.rhs = 0.0
    assert _check_against_linprog(models) >= 20
    assert sum(switched) >= 30


def test_free_columns_enter_the_basis_both_ways():
    # A nonbasic free column is parked at 0, so the nonzero optimum
    # x = -2, z = 4 means x entered falling and z entered rising.
    m = MilpModel()
    x = m.add_variable("x", -np.inf, np.inf, objective=1.0)
    z = m.add_variable("z", -np.inf, np.inf, objective=-1.0)
    y = m.add_variable("y", 0, 3, objective=2.0)
    m.add_constraint({x: 1.0, y: 1.0}, ">=", -2.0)
    m.add_constraint({x: 1.0, y: -1.0}, "<=", 1.0)
    m.add_constraint({z: 1.0, y: 1.0}, "<=", 4.0)
    m.add_constraint({z: 1.0, x: -1.0}, "<=", 7.0)
    assert _check_against_linprog([m]) == 1
    rep = solve_lp(m)
    assert rep.objective == pytest.approx(-6.0, abs=1e-9)
    assert rep.values == pytest.approx([-2.0, 4.0, 0.0], abs=1e-9)


def test_redundant_equality_rows_match_linprog():
    # Each model's first row becomes an equality and gets an exact double
    # as a second equality row. Phase 1 then ends with an artificial basic
    # at zero on one of the pair, which _evict_artificials swaps out.
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
    assert rep.node_count > 1 and len(calls) == rep.node_count - 1
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
    # would end at the warm point. The restart refuses it, and the warm LP,
    # the root and the polish LP at x = 1 are the three cold solves
    m = MilpModel()
    x = m.add_variable("x", 0, 10, integer=True, objective=1.0)
    m.add_constraint({x: 2.0}, ">=", 1.0)
    calls = []
    solve = milp._Simplex.solve

    def spy(self):
        calls.append(1)
        return solve(self)

    monkeypatch.setattr(milp._Simplex, "solve", spy)
    rep = solve_milp(m, warm_integer_values={x: 2.0})
    assert rep.status is SolveStatus.OPTIMAL
    assert rep.objective == 1.0
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# start points carried by the model
# ---------------------------------------------------------------------------

def _face_model():
    # the root LP ends at the fractional vertex (0.75, 0.25) of the optimal
    # face x + y = 1, whose only integral point is (0, 1): the cold search
    # needs a second node to find it
    m = MilpModel()
    x = m.add_variable("x", 0, 1, integer=True, objective=-1.0)
    y = m.add_variable("y", 0, 1, integer=True, objective=-1.0)
    m.add_constraint({x: 1.0, y: 1.0}, "<=", 1.0)
    m.add_constraint({x: 1.0, y: -1.0}, "<=", 0.5)
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


def test_incumbent_source_without_an_incumbent():
    m, x, y = _face_model()
    m.add_constraint({x: 1.0, y: 1.0}, ">=", 1.5)
    m.starts = [{x: 0.0, y: 1.0}]
    rep = solve_milp(m)
    assert rep.status is SolveStatus.INFEASIBLE
    assert rep.incumbent_source is None
    assert solve_lp(m).incumbent_source is None

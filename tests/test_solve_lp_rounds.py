"""``solve_lp`` keeps one HiGHS model across its pricing rounds.

Round 1 solves the LP over the seed candidates by interior point and
crossover, as ``linprog(method="highs-ipm")`` does; each later round appends
the new candidates' rows and columns to the same model and runs a simplex
from the basis the last run left. The reference here is the loop that solved
every round from scratch through ``linprog``.
"""

import logging
import random

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize._highspy import _core

import mgbary.transport
from conftest import make_skewed_square, make_square_with_chord, make_triangle, make_tripod
from mgbary import SolverConsistencyError, barycenter_problem, discrete_measure, graph_measure, solve_lp
from mgbary.barycenter import SEED_SIZE, _targets, candidate_support
from mgbary.tolerances import HIGHS_TIGHT_TOL
from mgbary.transport import (
    _accepted,
    _certificate_tol,
    _cost_matrix,
    _coupling_lp,
    _weight_reduced_costs,
)

GRAPHS = {
    "tripod": make_tripod,
    "triangle": make_triangle,
    "square_with_chord": make_square_with_chord,
    "skewed_square": make_skewed_square,
}


def _cold_solved(c, a_eq, b_eq):
    """One round's LP solved from scratch by ``linprog`` and accepted, once
    more at tight tolerances when acceptance fails."""
    def solve(**options):
        return scipy.optimize.linprog(
            c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ipm", options=options
        )

    res = solve()
    try:
        return res, _accepted(res, c, a_eq, b_eq)
    except SolverConsistencyError:
        res = solve(
            primal_feasibility_tolerance=HIGHS_TIGHT_TOL,
            dual_feasibility_tolerance=HIGHS_TIGHT_TOL,
            ipm_optimality_tolerance=HIGHS_TIGHT_TOL,
        )
        return res, _accepted(res, c, a_eq, b_eq)


def _cold_solve_lp(problem):
    """``solve_lp`` with a new LP per pricing round: the measure, the value
    and the number of rounds."""
    g = problem.graph
    support = candidate_support(problem)
    targets = _targets(problem)
    ends = np.cumsum([len(t.points) for _, t in targets])[:-1]
    full = _cost_matrix(g, support, [p for _, t in targets for p in t.points])
    costs = [lam * cost for (lam, _), cost in zip(targets, np.split(full, ends, axis=1))]
    weights = [t.weights for _, t in targets]
    dirac = sum(cost @ np.asarray(w) for cost, w in zip(costs, weights))
    rows = np.sort(np.argsort(dirac, kind="stable")[:SEED_SIZE])
    tol = max(_certificate_tol(cost) for cost in costs)
    rounds = 0
    while True:
        rounds += 1
        c, a_eq, b_eq = _coupling_lp([cost[rows] for cost in costs], weights)
        res, x = _cold_solved(c, a_eq, b_eq)
        w = x[: len(rows)]
        slack = _weight_reduced_costs(costs, res.eqlin.marginals, len(rows))
        slack[rows] = np.inf
        worst = np.argsort(slack, kind="stable")[: len(rows)]
        worst = worst[slack[worst] < -tol]
        if not worst.size:
            break
        rows = np.union1d(rows, worst)
    w /= w.sum()
    mu = discrete_measure(g, [(support[i], float(wi)) for i, wi in zip(rows, w) if wi > 0.0])
    return mu, float(res.fun), rounds


def _seeded_problem(name, seed):
    """Two or three density pieces on random edges of one graph at h = 1/32:
    a piece from a ~ U(0, L/2) to b ~ U(a + 0.3 L, L), raw weights U(0.4, 1)."""
    rng = random.Random(f"solve_lp rounds:{name}:{seed}")
    g = GRAPHS[name]()
    edges = list(g.edges)
    pieces, raw = [], []
    for _ in range(rng.randint(2, 3)):
        e = rng.choice(edges)
        a = rng.uniform(0.0, e.length / 2)
        b = rng.uniform(a + 0.3 * e.length, e.length)
        pieces.append((e.id, a, b, 1.0 / (b - a)))
        raw.append(rng.uniform(0.4, 1.0))
    measures = [(w / sum(raw), graph_measure(g, pieces=[p])) for w, p in zip(raw, pieces)]
    return barycenter_problem(g, measures, 1 / 32)


PROBLEMS = [(name, seed) for name in GRAPHS for seed in range(4)]


def test_warm_rounds_match_cold_rounds():
    """Single-round answers keep their bits; multi-round answers keep their
    support, their weights within 1e-12 and their value within 1e-12 relative."""
    multi = 0
    for name, seed in PROBLEMS:
        problem = _seeded_problem(name, seed)
        cold_mu, cold_value, rounds = _cold_solve_lp(problem)
        mu, value = solve_lp(problem)
        if rounds == 1:
            assert repr((mu, value)) == repr((cold_mu, cold_value)), (name, seed)
            continue
        multi += 1
        assert mu.points == cold_mu.points, (name, seed)
        assert np.max(np.abs(np.subtract(mu.weights, cold_mu.weights))) <= 1e-12, (name, seed)
        assert abs(value - cold_value) <= 1e-12 * abs(cold_value), (name, seed)
    assert multi >= 4


def test_one_model_serves_every_round(monkeypatch, caplog):
    built, passed, runs = [], [], []

    class Counted(mgbary.transport._Highs):
        def __init__(self):
            super().__init__()
            built.append(self)

        def passModel(self, *args):
            passed.append(args)
            return super().passModel(*args)

        def run(self):
            runs.append(self)
            return super().run()

    monkeypatch.setattr(mgbary.transport, "_Highs", Counted)
    with caplog.at_level(logging.DEBUG, logger="mgbary"):
        solve_lp(_seeded_problem("triangle", 0))
    (record,) = [r.args for r in caplog.records if r.name == "mgbary"]
    assert record[3] >= 2  # LP rounds
    assert len(built) == 1 and len(passed) == 1
    assert len(runs) == record[3] and set(runs) == set(built)


def test_highs_binding_exposes_what_solve_lp_uses():
    highs, lp = _core._Highs(), _core.HighsLp()
    for method in (
        "setOptionValue", "getOptionValue", "passModel", "run", "addRows", "addCols",
        "getModelStatus", "modelStatusToString", "getInfo", "getSolution",
    ):
        assert callable(getattr(highs, method, None)), method
    for field in (
        "num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_", "row_lower_", "row_upper_",
    ):
        assert hasattr(lp, field), field
    for field in ("num_col_", "num_row_", "format_", "start_", "index_", "value_"):
        assert hasattr(lp.a_matrix_, field), field
    info = highs.getInfo()
    for field in ("objective_function_value", "ipm_iteration_count", "crossover_iteration_count",
                  "simplex_iteration_count"):
        assert hasattr(info, field), field
    solution = highs.getSolution()
    assert hasattr(solution, "col_value") and hasattr(solution, "row_dual")
    for option in ("output_flag", "presolve", "solver", "primal_feasibility_tolerance",
                   "dual_feasibility_tolerance", "ipm_optimality_tolerance"):
        assert highs.getOptionValue(option)[0] == _core.HighsStatus.kOk, option
    assert _core.MatrixFormat.kColwise is not None and _core.HighsModelStatus.kOptimal is not None


@pytest.mark.parametrize("name, seed", PROBLEMS)
def test_first_run_returns_the_bits_of_linprog(name, seed):
    """A joint LP's model run once gives ``linprog``'s ``x``, row duals and value."""
    problem = _seeded_problem(name, seed)
    g, targets = problem.graph, _targets(problem)
    support = candidate_support(problem)[:SEED_SIZE]
    costs = [lam * _cost_matrix(g, support, t.points) for lam, t in targets]
    lp = _coupling_lp(costs, [t.weights for _, t in targets])
    res = mgbary.transport._highs_answer(mgbary.transport._highs_model(*lp))
    ref = scipy.optimize.linprog(lp[0], A_eq=lp[1], b_eq=lp[2], bounds=(0, None), method="highs-ipm")
    assert res.method == "ipm" and res.fun == ref.fun
    assert np.array_equal(res.x, ref.x) and np.array_equal(res.eqlin.marginals, ref.eqlin.marginals)

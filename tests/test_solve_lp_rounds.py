"""``solve_lp`` keeps one HiGHS model across its pricing rounds.

Round 1 solves the LP over the best Dirac position alone by dual simplex,
as ``linprog(method="highs-ds")`` does; each later round appends the new
candidates' rows and columns to the same model and runs the simplex from the
basis the last run left. The reference here is the loop that solves every
round from scratch through ``linprog``, on the LP of the same layout: every
candidate of S in the order it joined, built as sparse arrays by
``conftest._block_lp`` and accepted by ``conftest._accepted``.
"""

import ast
import logging
import pathlib
import random
import re

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from scipy.optimize._highspy import _core

import mgbary.transport
from conftest import (
    _accepted,
    _block_lp,
    _solution_accepted,
    make_skewed_square,
    make_square_with_chord,
    make_triangle,
    make_tripod,
)
from mgbary import SolverConsistencyError, barycenter_problem, discrete_measure, graph_measure, solve_lp
from mgbary.barycenter import _targets, candidate_support
from mgbary.tolerances import HIGHS_TIGHT_TOL
from mgbary.transport import (
    _add_candidates,
    _blocks_accepted,
    _certificate_tol,
    _certified,
    _cost_matrix,
    _highs_answer,
    _highs_model,
    _joint_lp,
    _weight_reduced_costs,
)
from test_tolerances import _negated_costs

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
            c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds", options=options
        )

    res = solve()
    try:
        return res, _accepted(res, c, a_eq, b_eq)
    except SolverConsistencyError:
        res = solve(
            primal_feasibility_tolerance=HIGHS_TIGHT_TOL,
            dual_feasibility_tolerance=HIGHS_TIGHT_TOL,
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
    new = np.argsort(dirac, kind="stable")[:1]
    tol = max(_certificate_tol(cost) for cost in costs)
    order, rounds = new[:0], 0  # S in the order it joined
    while new.size:
        rounds += 1
        order = np.r_[order, new]
        *lp, cols = _block_lp([cost[order] for cost in costs], weights)
        res, x = _cold_solved(*lp)
        slack = _weight_reduced_costs(costs, res.eqlin.marginals)
        slack[order] = np.inf
        new = np.argsort(slack, kind="stable")[: len(order)]
        new = new[slack[new] < -tol]
    rows = np.sort(order)
    w = x[cols[np.argsort(order, kind="stable")]]
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
    assert len(built) == 1 and passed == []
    assert len(runs) == record[3] and set(runs) == set(built)


def test_highs_binding_exposes_what_solve_lp_uses():
    highs = _core._Highs()
    for method in (
        "setOptionValue", "getOptionValue", "run", "addRows", "addCols", "getNumRow",
        "getModelStatus", "modelStatusToString", "getInfo", "getSolution",
    ):
        assert callable(getattr(highs, method, None)), method
    info = highs.getInfo()
    for field in ("objective_function_value", "ipm_iteration_count", "crossover_iteration_count",
                  "simplex_iteration_count"):
        assert hasattr(info, field), field
    solution = highs.getSolution()
    assert hasattr(solution, "col_value") and hasattr(solution, "row_dual")
    for option in ("output_flag", "presolve", "solver", "primal_feasibility_tolerance",
                   "dual_feasibility_tolerance"):
        assert highs.getOptionValue(option)[0] == _core.HighsStatus.kOk, option
    assert _core.HighsModelStatus.kOptimal is not None


@pytest.mark.parametrize("size", [1, 16])
@pytest.mark.parametrize("name, seed", PROBLEMS)
def test_first_run_returns_the_bits_of_linprog(name, seed, size):
    """A joint LP's model, grown by one append of ``size`` candidates, run
    once gives ``linprog``'s ``x``, row duals and value on the grown arrays."""
    problem = _seeded_problem(name, seed)
    g, targets = problem.graph, _targets(problem)
    support = candidate_support(problem)[:size]
    costs = [lam * _cost_matrix(g, support, t.points) for lam, t in targets]
    weights = [t.weights for _, t in targets]
    highs = _highs_model(np.r_[np.concatenate(weights), 1.0])
    _add_candidates(highs, costs)
    x, y, value, _ = _highs_answer(highs)
    c, a_eq, b_eq, _ = _block_lp(costs, weights)
    ref = scipy.optimize.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")
    assert highs.getOptionValue("solver")[1] == "simplex" and value == ref.fun
    assert np.array_equal(x, ref.x) and np.array_equal(y, ref.eqlin.marginals)


def _decision(check, *args):
    """What a certificate check decides: the zeroed answer's bits, or the
    kind of its refusal, its message with the numbers left out."""
    try:
        return "accepted", check(*args).ravel().tolist()
    except SolverConsistencyError as exc:
        return "refused", re.sub(r"-?\d[\d.]*(e[-+]?\d+)?", "#", str(exc))


def _recorded_decisions(monkeypatch):
    """Each answer ``_blocks_accepted`` checks from now on, as the pair of
    its decision and ``conftest._solution_accepted``'s on the sparse arrays
    of the same model."""
    decisions = []
    real = mgbary.transport._blocks_accepted

    def both(c, nu, ks, x, y):
        ends = np.cumsum(ks)[:-1]
        c_eq, a_eq, b_eq, _ = _block_lp(np.split(c[:, 1:], ends, axis=1), np.split(nu, ends))
        sparse = _decision(_solution_accepted, c_eq, a_eq, b_eq, x, y)
        decisions.append((_decision(real, c, nu, ks, x, y), sparse))
        return real(c, nu, ks, x, y)

    monkeypatch.setattr(mgbary.transport, "_blocks_accepted", both)
    return decisions


def test_block_certificate_decides_as_the_sparse_one(monkeypatch):
    """On every round of every problem, the certificate read off the
    candidates' blocks accepts the same bits as the sparse products."""
    decisions = _recorded_decisions(monkeypatch)
    for name, seed in PROBLEMS:
        solve_lp(_seeded_problem(name, seed))
    assert len(decisions) > len(PROBLEMS)  # some problems take more than one round
    assert all(got == ref and got[0] == "accepted" for got, ref in decisions)


def _optimal_blocks(rng, m, ks):
    """An optimal answer to a model of m blocks, built from its duals: the
    weights w and couplings w nu_i^T of every block, costs ``beta + own``
    tight on them, and ``z`` the sum of every block's ``own``. Returns the
    costs, ``nu``, ``x`` and ``y``, each in the model's layout."""
    nu = [v / v.sum() for v in (rng.random(k) for k in ks)]
    w = rng.random(m)
    w /= w.sum()
    beta, own = rng.random(sum(ks)), rng.random((m, len(ks)))
    z = own.sum(axis=1).max() + 1.0
    own[:, -1] += z - own.sum(axis=1)
    c = np.hstack([np.zeros((m, 1)), beta + np.repeat(own, ks, axis=1)])
    x = np.hstack([w[:, None], *(np.outer(w, v) for v in nu)])
    return c, np.concatenate(nu), x, np.r_[beta, z, own.ravel()]


def _moved(x, y, moves):
    x, y = x.copy(), y.copy()
    for array, index, delta in moves:
        (x if array == "x" else y)[index] += delta
    return x, y


BLOCK_FAULTS = {  # (array, index, delta) moves on a 3-block answer, ks (3, 2, 4), and the refusal
    "optimal": ([], None),
    "row sums": ([("x", (0, 1), 1e-6), ("x", (1, 1), -1e-6)], "marginal"),  # column sums kept
    "column sums": ([("x", (0, 1), 1e-6), ("x", (0, 2), -1e-6)], "marginal"),  # row sums kept
    "coupling reduced cost": ([("y", 9 + 1, 1e-6)], "certificate"),  # own[0, 0]
    "weight reduced cost": ([("y", 9 + 1, -1e-6)], "certificate"),
    "gap": ([("y", 9, -1e-6)], "certificate"),  # z
}


@pytest.mark.parametrize("fault", list(BLOCK_FAULTS))
def test_each_block_check_decides_as_the_sparse_one(fault):
    """Each check of ``_blocks_accepted`` alone: an optimal answer, then one
    moved so that only its row sums, its column sums, a coupling or a weight
    reduced cost, or its gap fails, decided as the sparse products decide."""
    moves, reason = BLOCK_FAULTS[fault]
    ks = [3, 2, 4]
    for seed in range(5):
        c, nu, x, y = _optimal_blocks(np.random.default_rng(seed), 3, ks)
        x, y = _moved(x, y, moves)
        ends = np.cumsum(ks)[:-1]
        c_eq, a_eq, b_eq, _ = _block_lp(np.split(c[:, 1:], ends, axis=1), np.split(nu, ends))
        got = _decision(_blocks_accepted, c, nu, ks, x.ravel(), y)
        assert got == _decision(_solution_accepted, c_eq, a_eq, b_eq, x.ravel(), y), seed
        assert got[0] == "accepted" if reason is None else got[0] == "refused" and reason in got[1]


def _drifted(answer):
    answer[0][1] += 1e-6  # x: the first coupling column of the first candidate
    return answer


def _shifted(answer):
    answer[1][-1] += 1e-6  # y: the last row, a row sum of the last candidate
    return answer


FAULTS = {
    "drifted coupling": (lambda real, highs: _drifted(real(highs)), "marginal"),
    "shifted dual": (lambda real, highs: _shifted(real(highs)), "certificate"),
    "worst point": (_negated_costs, "certificate"),  # the feasible but most expensive vertex
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_block_certificate_refuses_as_the_sparse_one(monkeypatch, fault):
    """With a fault injected into every HiGHS answer, both checks refuse
    round 1's answer and its re-solve, for the same reason."""
    decisions = _recorded_decisions(monkeypatch)
    inject, reason = FAULTS[fault]
    real = mgbary.transport._highs_answer
    monkeypatch.setattr(mgbary.transport, "_highs_answer", lambda highs: inject(real, highs))
    for name, seed in PROBLEMS:
        with pytest.raises(SolverConsistencyError, match=reason):
            solve_lp(_seeded_problem(name, seed))
    assert len(decisions) == 2 * len(PROBLEMS)
    assert all(got == ref and got[0] == "refused" for got, ref in decisions)


def test_joint_lp_builds_no_sparse_matrix(monkeypatch):
    """The joint LP is grown in HiGHS and certified on dense blocks: no round
    builds a scipy sparse matrix, and ``transport`` imports no ``scipy.sparse``."""
    problem = _seeded_problem("triangle", 0)
    g, support, targets = problem.graph, candidate_support(problem), _targets(problem)
    _joint_lp(g, support, targets)  # the graph's distance rows, read once
    built = []
    real = scipy.sparse._base._spbase.__init__
    monkeypatch.setattr(
        scipy.sparse._base._spbase, "__init__",
        lambda self, *args, **kwargs: built.append(type(self).__name__) or real(self, *args, **kwargs),
    )
    assert _joint_lp(g, support, targets)[3][1] >= 2  # LP rounds
    assert built == []
    tree = ast.parse(pathlib.Path(mgbary.transport.__file__).read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {
        f"{n.module}.{a.name}" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names
    }
    assert not any(name.startswith("scipy.sparse") for name in imported), imported


def _infeasible_model():
    """A joint LP with no solution: one input of column sums 0.5 and 0.6,
    which add up to more than the unit mass, and one candidate."""
    nu, cost = np.array([0.5, 0.6]), np.array([[1.0, 2.0]])
    highs = _highs_model(np.r_[nu, 1.0])
    return highs, (_add_candidates(highs, [cost]), nu, [2])


def test_non_optimal_status_is_reported():
    """A run whose status is not optimal is refused by ``_highs_answer``,
    and by ``_certified`` after its run at tight tolerances."""
    highs, _ = _infeasible_model()
    with pytest.raises(SolverConsistencyError, match="LP solve failed: Infeasible"):
        _highs_answer(highs)
    highs, blocks = _infeasible_model()
    with pytest.raises(SolverConsistencyError, match="LP solve failed: Infeasible"):
        _certified(highs, blocks)
    for kind in ("primal", "dual"):
        assert highs.getOptionValue(f"{kind}_feasibility_tolerance")[1] == HIGHS_TIGHT_TOL


JOINT_LP_GOLDEN = pathlib.Path(__file__).parent / "golden" / "joint_lp.txt"


def _golden_joint_lp() -> str:
    """The ``repr`` of ``solve_lp`` on each of ``PROBLEMS``, one a line."""
    return "".join(f"{name} {seed}: {solve_lp(_seeded_problem(name, seed))!r}\n" for name, seed in PROBLEMS)


def test_results_match_golden_file():
    # a change that must keep results identical keeps this file; one that
    # changes a result on purpose writes _golden_joint_lp() there
    assert _golden_joint_lp().encode("utf-8") == JOINT_LP_GOLDEN.read_bytes()

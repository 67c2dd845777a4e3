"""The transportation simplex that solves every transport LP the line route
does not answer.

It is checked against HiGHS on seeded problems, on degenerate ones (ties in
costs and weights, two rows or two columns) within a stated pivot bound, and
through the callers that reached HiGHS before it: a fixed point whose iterate
is an edge's two endpoints, the CLI's fixed point, and a grid graph's
``w2_graph`` off the line route.
"""

import json
import random
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from conftest import random_point
from mgbary import GraphPoint, solve_edge_fixed_point, w2_graph
from mgbary.cli import main
from mgbary.transport import _accepted, _coupling_lp, _transport_simplex
from test_barycenter import DENSE_REFERENCE_PROBLEMS, _pieces_problem
from test_cli import tripod_problem
from test_line_route import GRAPHS, _Recorder, _problem, _reference, _unit


def _answer(x, y):
    return SimpleNamespace(success=True, x=x.ravel(), eqlin=SimpleNamespace(marginals=y))


def _highs(costs, p, q):
    c, a_eq, b_eq = _coupling_lp([costs], [q], p)
    res = scipy.optimize.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ipm")
    _accepted(res, c, a_eq, b_eq)
    return float(res.fun)


@pytest.mark.parametrize("name", ["square_with_chord", "grid7"])
def test_seeded_problems_match_highs(name):
    """100 problems on each graph: the objective within 1e-12 relative of
    HiGHS's, and every answer certified as every LP answer is."""
    g = GRAPHS[name]()
    for i in range(100):
        m1, m2 = _problem(g, random.Random(f"simplex:{name}:{i}"), spread=i % 2 == 0)
        value, lp = _reference(g, m1, m2)
        costs = lp[0].reshape(len(m1.points), len(m2.points))
        x, y, _ = _transport_simplex(costs, m1.weights, m2.weights)
        assert abs(float(lp[0] @ x.ravel()) - value) <= 1e-12 * value, (name, i)
        _accepted(_answer(x, y), *lp)


def _degenerate_cases():
    """Ties in costs (all equal, or drawn from {0, 1, 2}) and in weights
    (uniform), and problems of two rows or two columns."""
    rng = np.random.default_rng(16)
    for case in range(200):
        n, k = (int(v) for v in rng.integers(2, 16, size=2))
        if case % 4 == 2:
            n = 2
        elif case % 4 == 3:
            k = 2
        if case % 5 == 0:
            costs = np.full((n, k), 0.5)
        elif case % 2:
            costs = rng.integers(0, 3, size=(n, k)).astype(float)
        else:
            costs = rng.random((n, k))
        if case % 3:
            p, q = np.full(n, 1 / n), np.full(k, 1 / k)
        else:
            p, q = rng.random(n), rng.random(k)
            p, q = p / p.sum(), q / q.sum()
        yield costs, p, q


def test_degenerate_problems_end_within_the_pivot_bound():
    """Bland's rule after every pivot that moves no mass keeps degenerate
    pivots from cycling. The stated bound is twice the tree's n + k nodes,
    about 1.25 times the most seen on 2,000 seeded degenerate problems; the
    least-cost start is already optimal when every cost is equal."""
    for costs, p, q in _degenerate_cases():
        n, k = costs.shape
        x, y, pivots = _transport_simplex(costs, p, q)
        assert pivots <= 2 * (n + k)
        if (costs == costs[0, 0]).all():
            assert pivots == 0
        value = _highs(costs, p, q)
        assert abs(float((x * costs).sum()) - value) <= 1e-12 * max(value, 1.0)
        _accepted(_answer(x, y), *_coupling_lp([costs], [q], p))


def test_endpoint_only_sources_are_solved_by_the_simplex(monkeypatch):
    """Sources made only of an edge's two endpoints, 2 by k, have no point
    inside the edge for the line route."""
    recorder = _Recorder(monkeypatch)
    g = GRAPHS["grid7"]()
    rng = random.Random("endpoints")
    for _ in range(20):
        e = rng.choice(g.edges)
        m1 = _unit(g, [(GraphPoint.at_vertex(v), rng.random()) for v in (e.u, e.v)])
        m2 = _unit(g, [(random_point(g, rng), rng.random()) for _ in range(rng.randint(2, 15))])
        cost, _ = recorder.solve(g, m1, m2)
        assert recorder.lps == 0 and recorder.simplex == 1
        value, _ = _reference(g, m1, m2)
        assert abs(cost - value) <= 1e-12 * value


def _cli_fixed_point(tmp_path):
    path = tmp_path / "tripod_halves.json"
    path.write_text(json.dumps(tripod_problem()))
    argv = ["bary", "--problem", str(path), "--method", "fixed-point", "--edge", "b1"]
    assert main(argv) == 0


def _endpoint_iterate(tmp_path):
    result = solve_edge_fixed_point(
        _pieces_problem(*DENSE_REFERENCE_PROBLEMS["triangle"][:2], 1 / 64), "e_AB"
    )
    assert result.converged and all(p.edge is None for p in result.measure.points)


def _grid_w2(tmp_path):
    g = GRAPHS["grid7"]()
    rng = random.Random("off the line")
    m1, m2 = (_unit(g, [(random_point(g, rng), rng.random()) for _ in range(12)]) for _ in "12")
    assert len({p.edge for p in m1.points} - {None}) > 1
    w2_graph(g, m1, m2)


@pytest.mark.parametrize("case", [_cli_fixed_point, _endpoint_iterate, _grid_w2],
                         ids=["cli-fixed-point", "endpoint-iterate", "grid-w2"])
def test_no_transport_lp_reaches_highs(monkeypatch, tmp_path, capsys, case):
    recorder = _Recorder(monkeypatch)
    case(tmp_path)
    assert recorder.lps == 0
    capsys.readouterr()


import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy import sparse

from mgbary import GraphPoint, SolverConsistencyError, build_graph, graph_measure
from mgbary.tolerances import LP_ZERO_TOL
from mgbary.transport import _certificate

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def make_triangle():
    return build_graph(
        {
            "vertices": ["A", "B", "C"],
            "edges": [
                {"id": "e_AB", "u": "A", "v": "B", "length": 1.0},
                {"id": "e_AC", "u": "A", "v": "C", "length": 1.0},
                {"id": "e_BC", "u": "B", "v": "C", "length": 1.0},
            ],
        }
    )


def make_tripod():
    return build_graph(
        {
            "vertices": ["o", "t1", "t2", "t3"],
            "edges": [
                {"id": "b1", "u": "o", "v": "t1", "length": 1.0},
                {"id": "b2", "u": "o", "v": "t2", "length": 1.0},
                {"id": "b3", "u": "o", "v": "t3", "length": 1.0},
            ],
        }
    )


def make_square():
    return build_graph(
        {
            "vertices": ["1", "2", "3", "4"],
            "edges": [
                {"id": "s12", "u": "1", "v": "2", "length": 1.0},
                {"id": "s23", "u": "2", "v": "3", "length": 1.0},
                {"id": "s34", "u": "3", "v": "4", "length": 1.0},
                {"id": "s41", "u": "4", "v": "1", "length": 1.0},
            ],
        }
    )


def make_skewed_square():
    # 4-cycle of perimeter 5; the point opposite a corner falls mid-edge
    return build_graph(
        {
            "vertices": ["A", "B", "C", "D"],
            "edges": [
                {"id": "k_AB", "u": "A", "v": "B", "length": 1.0},
                {"id": "k_BC", "u": "B", "v": "C", "length": 1.0},
                {"id": "k_CD", "u": "C", "v": "D", "length": 1.0},
                {"id": "k_DA", "u": "D", "v": "A", "length": 2.0},
            ],
        }
    )


def make_square_with_chord():
    return build_graph(
        {
            "vertices": ["1", "2", "3", "4"],
            "edges": [
                {"id": "q12", "u": "1", "v": "2", "length": 1.0},
                {"id": "q23", "u": "2", "v": "3", "length": 1.0},
                {"id": "q34", "u": "3", "v": "4", "length": 1.0},
                {"id": "q41", "u": "4", "v": "1", "length": 1.0},
                {"id": "q13", "u": "1", "v": "3", "length": 1.2},
            ],
        }
    )


def make_segment(length=1.0, eid="seg"):
    return build_graph(
        {
            "vertices": ["L", "R"],
            "edges": [{"id": eid, "u": "L", "v": "R", "length": length}],
        }
    )


def make_parallel(l1=1.0, l2=3.0):
    return build_graph(
        {
            "vertices": ["P", "Q"],
            "edges": [
                {"id": "pshort", "u": "P", "v": "Q", "length": l1},
                {"id": "plong", "u": "P", "v": "Q", "length": l2},
            ],
        }
    )


def tripod_outer_halves(g, weights=(1 / 3, 1 / 3, 1 / 3)):
    """Inputs of the tripod benchmark: density 2 on the outer half of each leg."""
    return [
        (w, graph_measure(g, pieces=[(f"b{i}", 0.5, 1.0, 2.0)]))
        for i, w in zip((1, 2, 3), weights)
    ]


def random_graph(rng):
    """A connected graph with unequal edge lengths and parallel edges."""
    vs = [f"v{i}" for i in range(rng.randint(3, 8))]
    pairs = [(vs[i], vs[rng.randrange(i)]) for i in range(1, len(vs))]
    pairs += [tuple(rng.sample(vs, 2)) for _ in range(len(vs))]
    pairs += [rng.choice(pairs) for _ in range(2)]
    edges = [
        {"id": f"e{k}", "u": u, "v": v, "length": rng.uniform(0.1, 2.0)}
        for k, (u, v) in enumerate(pairs)
    ]
    return build_graph({"vertices": vs, "edges": edges})


def random_point(g, rng):
    edges = g.edges
    if rng.random() < 0.25:
        return GraphPoint.at_vertex(rng.choice(list(g.vertices)))
    e = edges[rng.randrange(len(edges))]
    return GraphPoint.on_edge(e.id, rng.uniform(0.0, e.length))


@pytest.fixture
def triangle():
    return make_triangle()


@pytest.fixture
def tripod():
    return make_tripod()


@pytest.fixture
def square():
    return make_square()


@pytest.fixture
def square_with_chord():
    return make_square_with_chord()


def _coo_coupling_lp(costs, targets, source=None):
    """The coupling LP in COO, converted by scipy to CSR. With a ``source``,
    the LP of one transport problem: n row-sum equations equal to
    ``source``, then k column-sum equations equal to ``targets[0]``, the
    layout whose answers ``_solution_accepted`` checks as ``_plan_accepted``
    checks a plan. Without one, the joint LP coupling by coupling: n weight
    columns, then each coupling's n by k columns, row-major; its n row sums
    less the weights, then its k column sums; the unit-mass row last. This is
    ``_block_lp``'s LP with its rows and columns permuted."""
    n = costs[0].shape[0]
    lead = n if source is None else 0
    c, rows, cols, vals, b = [np.zeros(lead)], [], [], [], []
    row0, col0 = 0, lead
    for cost, weights in zip(costs, targets):
        k = cost.shape[1]
        c.append(cost.ravel())
        rows += [row0 + np.repeat(np.arange(n), k), row0 + n + np.tile(np.arange(k), n)]
        cols += [col0 + np.arange(n * k), col0 + np.arange(n * k)]
        rows.append(row0 + np.arange(lead))
        cols.append(np.arange(lead))
        vals += [np.ones(2 * n * k), -np.ones(lead)]
        b += [np.zeros(n) if lead else source, weights]
        row0 += n + k
        col0 += n * k
    if lead:
        rows.append(np.full(n, row0))
        cols.append(np.arange(n))
        vals.append(np.ones(n))
        b.append(np.ones(1))
        row0 += 1
    a_eq = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row0, col0),
    )
    return np.concatenate(c), a_eq, np.concatenate(b)


def _block_lp(costs, weights):
    """The joint LP of ``_add_candidates``' layout over every row of
    ``costs``, in order, as arrays: ``(c, a_eq, b_eq)``, ``a_eq`` CSC, and
    the weight columns. HiGHS holds this model after any appends of these
    rows; it is the reference that ``linprog`` and ``_solution_accepted``
    read."""
    m, ks = costs[0].shape[0], [cost.shape[1] for cost in costs]
    unit = sum(ks)  # the unit-mass row, after every column-sum row
    own = unit + 1 + len(ks) * np.arange(m)[:, None] + np.arange(len(ks))  # m by K row sums
    sums = own[:, np.repeat(np.arange(len(ks)), ks)]  # the row sum of each coupling column
    pairs = np.stack([np.broadcast_to(np.arange(unit), sums.shape), sums], -1)
    index = np.hstack([np.full((m, 1), unit), own, pairs.reshape(m, -1)]).ravel()
    value = np.tile(np.r_[1.0, -np.ones(len(ks)), np.ones(2 * unit)], m)
    starts = np.r_[0, np.cumsum(np.tile(np.r_[len(ks) + 1, np.full(unit, 2)], m))]
    c = np.hstack([np.zeros((m, 1)), *costs]).ravel()
    b_eq = np.r_[np.concatenate(weights), 1.0, np.zeros(m * len(ks))]
    a_eq = sparse.csc_matrix((value, index, starts), shape=(len(b_eq), len(c)))
    return c, a_eq, b_eq, (1 + unit) * np.arange(m)


def _accepted(res, c, a_eq, b_eq):
    """The :func:`_solution_accepted` of a ``linprog`` result ``res``."""
    if not res.success:
        raise SolverConsistencyError(f"LP solve failed: {res.message}")
    return _solution_accepted(c, a_eq, b_eq, res.x, res.eqlin.marginals)


def _solution_accepted(c, a_eq, b_eq, x, y):
    """The certificate of a solution ``x`` with equality duals ``y`` to
    ``min c @ x``, ``a_eq @ x = b_eq``, ``x >= 0``, by sparse products: the
    reference for ``_blocks_accepted`` and ``_plan_accepted``, which read the
    same checks off their own arrays."""
    zeroed = np.where(x < LP_ZERO_TOL, 0.0, x)
    gap = abs(float(c @ x) - float(b_eq @ y))
    return _certificate(zeroed, a_eq @ zeroed - b_eq, c - a_eq.T @ y, gap, c)

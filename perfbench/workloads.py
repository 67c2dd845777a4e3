"""Seeded inputs, operation lists and output checks of the benchmark's workloads.

``generate(workload, seed)`` returns plain JSON-like data, the same for the
same seed. ``build(workload, inputs, workdir)`` turns it into operations: the
benchmark times ``Op.run()`` and afterwards, untimed, calls
``Op.check(result)``, which returns None for a right output and otherwise a
message saying what is wrong. Every call into mgbary goes through a module
attribute looked up at call time, so wrappers installed for a traced run see
it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import mgbary
import mgbary.cli

REL_TOL = 1e-9


def _spec(edges) -> dict:
    vertices = sorted({v for _, u, w, _ in edges for v in (u, w)})
    return {
        "vertices": vertices,
        "edges": [{"id": e, "u": u, "v": w, "length": L} for e, u, w, L in edges],
    }


# The four small graphs of the test suite: one tree and three cyclic graphs.
GRAPHS = {
    "tripod": _spec([(f"b{i}", "o", f"t{i}", 1.0) for i in (1, 2, 3)]),
    "triangle": _spec(
        [("e_AB", "A", "B", 1.0), ("e_AC", "A", "C", 1.0), ("e_BC", "B", "C", 1.0)]
    ),
    "square_with_chord": _spec(
        [
            ("q12", "1", "2", 1.0),
            ("q23", "2", "3", 1.0),
            ("q34", "3", "4", 1.0),
            ("q41", "4", "1", 1.0),
            ("q13", "1", "3", 1.2),
        ]
    ),
    # 4-cycle of perimeter 5; the point opposite a corner falls mid-edge
    "skewed_square": _spec(
        [
            ("k_AB", "A", "B", 1.0),
            ("k_BC", "B", "C", 1.0),
            ("k_CD", "C", "D", 1.0),
            ("k_DA", "D", "A", 2.0),
        ]
    ),
}
CYCLIC = ("triangle", "square_with_chord", "skewed_square")

# density 2 on the outer half of each leg, equal weights
TRIPOD_INPUTS = [[1 / 3, [f"b{i}", 0.5, 1.0, 2.0]] for i in (1, 2, 3)]
TRIPOD_GRIDS = (16, 32, 64, 128)
JOINT_CYCLIC = 8
JOINT_CYCLIC_GRID = 32
FP_TRIPOD_GRID = 128
FP_CYCLIC = 6
FP_CYCLIC_GRID = 64
CLI_SIZES = (10, 15, 20)
CLI_PROBLEM_GRID = 0.5
CLI_W2_GRID = "0.1"


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _density_piece(edges: list[dict], rng: random.Random, mass: float = 1.0) -> list:
    """A uniform density piece on a random edge, drawn as in acceptance criterion 6:
    start a ~ U(0, L/2), end b ~ U(a + 0.3 L, L)."""
    e = edges[rng.randrange(len(edges))]
    L = e["length"]
    a = rng.uniform(0.0, 0.5 * L)
    b = rng.uniform(a + 0.3 * L, L)
    return [e["id"], a, b, mass / (b - a)]


def _cyclic_problems(
    workload: str, rng: random.Random, count: int, grid: int, input_count
) -> list[dict]:
    """Seeded problems cycling over the three cyclic graphs.

    A base set is drawn once per workload as in acceptance criterion 6, with
    ``input_count(base_rng)`` inputs per problem. The seed then moves every
    piece along its edge by up to 5% of the edge length and scales every
    weight by a factor in [0.9, 1.1]. Piece lengths, and so LP sizes, stay
    as in the base set. The operation times of independently drawn sets
    differ by up to a factor 2 per problem, which would make op_s.p50 move
    more between seeds than any bound a regression check can use.
    """
    base = random.Random(f"{workload}:base")
    problems = []
    for i in range(count):
        graph = CYCLIC[i % 3]
        edges = sorted(GRAPHS[graph]["edges"], key=lambda e: e["id"])
        length = {e["id"]: e["length"] for e in edges}
        k = input_count(base)
        raw = [base.uniform(0.4, 1.0) * rng.uniform(0.9, 1.1) for _ in range(k)]
        pieces = []
        for _ in range(k):
            eid, a, b, d = _density_piece(edges, base)
            L = length[eid]
            shift = min(max(rng.uniform(-0.05, 0.05) * L, -a), L - b)
            pieces.append([eid, a + shift, b + shift, d])
        inputs = [[w / sum(raw), piece] for w, piece in zip(raw, pieces)]
        problems.append({"graph": graph, "grid": grid, "inputs": inputs})
    return problems


def _grid_graph(n: int, rng: random.Random) -> dict:
    """n x n grid of vertices, edge lengths drawn from [0.5, 1.5]."""
    edges = []
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                edges.append((f"h{i}_{j}", f"v{i}_{j}", f"v{i}_{j + 1}", rng.uniform(0.5, 1.5)))
            if i + 1 < n:
                edges.append((f"d{i}_{j}", f"v{i}_{j}", f"v{i + 1}_{j}", rng.uniform(0.5, 1.5)))
    return _spec(edges)


def _edge_literal(e: dict, rng: random.Random) -> str:
    return f"{e['id']}:{rng.uniform(0.05, 0.95) * e['length']!r}"


def _pieces_measure(edges: list[dict], rng: random.Random, pieces: int) -> dict:
    chosen = rng.sample(edges, pieces)
    recs = []
    for e in chosen:
        eid, a, b, d = _density_piece([e], rng, mass=1.0 / pieces)
        recs.append({"edge": eid, "a": a, "b": b, "density": d})
    return {"atoms": [], "pieces": recs}


def _cli_inputs(rng: random.Random, sizes) -> dict:
    graphs = {}
    for n in sizes:
        spec = _grid_graph(n, rng)
        edges = spec["edges"]
        vertex = rng.choice(spec["vertices"])
        graphs[f"g{n}"] = {
            "graph": spec,
            "dist": [
                [f"v:{vertex}", _edge_literal(rng.choice(edges), rng)],
                [_edge_literal(rng.choice(edges), rng), _edge_literal(rng.choice(edges), rng)],
            ],
            "m1": _pieces_measure(edges, rng, 4),
            "m2": _pieces_measure(edges, rng, 4),
        }
    # a 3-input barycenter problem over the smallest graph; 4 pieces per
    # input keep the LP size from moving much between seeds
    smallest = f"g{sizes[0]}"
    raw = [rng.uniform(0.4, 1.0) for _ in range(3)]
    measures = [
        {
            "weight": w / sum(raw),
            "measure": _pieces_measure(graphs[smallest]["graph"]["edges"], rng, 4),
        }
        for w in raw
    ]
    problem = {"graph": f"{smallest}.json", "grid": CLI_PROBLEM_GRID, "measures": measures}
    return {"graphs": graphs, "problem": problem}


def generate(workload: str, seed: int) -> dict:
    """The workload's inputs for ``seed``, as plain data."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "joint_lp":
        return {
            "tripod": [
                {"graph": "tripod", "grid": n, "inputs": TRIPOD_INPUTS}
                for n in TRIPOD_GRIDS
            ],
            "cyclic": _cyclic_problems(
                workload, rng, JOINT_CYCLIC, JOINT_CYCLIC_GRID, lambda r: r.randint(2, 3)
            ),
        }
    if workload == "edge_fixed_point":
        return {
            "tripod": [{"graph": "tripod", "grid": FP_TRIPOD_GRID, "inputs": TRIPOD_INPUTS}],
            "cyclic": _cyclic_problems(
                workload, rng, FP_CYCLIC, FP_CYCLIC_GRID, lambda r: 3
            ),
        }
    if workload == "cli_graphs":
        return _cli_inputs(rng, CLI_SIZES)
    raise ValueError(f"unknown workload {workload!r}")


def _problem(rec: dict):
    g = mgbary.build_graph(GRAPHS[rec["graph"]])
    measures = [(w, mgbary.graph_measure(g, pieces=[tuple(p)])) for w, p in rec["inputs"]]
    return mgbary.barycenter_problem(g, measures, 1.0 / rec["grid"])


def _is_dirac_at(mu, vertex: str) -> bool:
    return (
        len(mu.points) == 1
        and mu.points[0].vertex == vertex
        and abs(mu.weights[0] - 1.0) <= REL_TOL
    )


def _solve_and_report(problem):
    mu, value = mgbary.solve_lp(problem)
    return mu, value, mgbary.regularity_report(problem, mu)


def _check_tripod_lp(h: float):
    # closed-form value of the discretized tripod problem, barycenter at o
    expected = 7 / 12 - h * h / 12

    def check(out) -> str | None:
        mu, value, report = out
        if abs(value - expected) > REL_TOL * expected:
            return f"objective {value!r}, closed form {expected!r}"
        if not _is_dirac_at(mu, "o"):
            return f"barycenter is not the Dirac at o: {mu.points} {mu.weights}"
        if report.verdict != "PASS":
            return f"regularity verdict {report.verdict}"
        return None

    return check


def _check_cyclic_lp(problem):
    def check(out) -> str | None:
        mu, value, _ = out
        recomputed = mgbary.objective(problem, mu)
        if abs(recomputed - value) > REL_TOL * abs(value):
            return f"LP objective {value!r}, objective of its measure {recomputed!r}"
        if abs(sum(mu.weights) - 1.0) > REL_TOL:
            return f"weights sum to {sum(mu.weights)!r}"
        return None

    return check


def _joint_lp_ops(inputs: dict) -> list[Op]:
    ops = []
    for rec in inputs["tripod"]:
        p = _problem(rec)
        ops.append(
            Op(
                f"tripod h=1/{rec['grid']}",
                lambda p=p: _solve_and_report(p),
                _check_tripod_lp(1.0 / rec["grid"]),
            )
        )
    for i, rec in enumerate(inputs["cyclic"]):
        p = _problem(rec)
        ops.append(
            Op(
                f"{rec['graph']}#{i} h=1/{rec['grid']}",
                lambda p=p: _solve_and_report(p),
                _check_cyclic_lp(p),
            )
        )
    return ops


def _check_fixed_point(dirac_at: str | None):
    def check(result) -> str | None:
        if not result.converged:
            return f"not converged after {result.iterations} iterations"
        if dirac_at is not None and not _is_dirac_at(result.measure, dirac_at):
            return f"fixed point is not the Dirac at {dirac_at}: {result.measure.points}"
        return None

    return check


def _fixed_point_ops(problem, label: str, edges, dirac_at: str | None) -> list[Op]:
    return [
        Op(
            f"{label} {edge} {init}",
            lambda e=edge, i=init: mgbary.solve_edge_fixed_point(problem, e, init=i),
            _check_fixed_point(dirac_at),
        )
        for edge in edges
        for init in ("uniform", "vertex")
    ]


def _edge_fixed_point_ops(inputs: dict) -> list[Op]:
    ops = []
    for rec in inputs["tripod"]:
        ops += _fixed_point_ops(_problem(rec), f"tripod h=1/{rec['grid']}", ["b1"], "o")
    for i, rec in enumerate(inputs["cyclic"]):
        p = _problem(rec)
        edges = [e.id for e in p.graph.edges if mgbary.is_edge_minimizing(p.graph, e.id)][:2]
        ops += _fixed_point_ops(p, f"{rec['graph']}#{i} h=1/{rec['grid']}", edges, None)
    return ops


def _cli_call(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mgbary.cli.main(argv)
    return code, buf.getvalue()


def _check_cli():
    """Exit code 0 and stdout byte-identical to the first run of the same call."""
    first: list[str] = []

    def check(out) -> str | None:
        code, stdout = out
        if code != 0:
            return f"exit code {code}: {stdout.strip()}"
        if not first:
            first.append(stdout)
        elif stdout != first[0]:
            return "stdout differs from the first run of this call"
        return None

    return check


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _cli_ops(inputs: dict, workdir: str) -> list[Op]:
    os.makedirs(workdir, exist_ok=True)

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    calls = []
    for name, rec in inputs["graphs"].items():
        _write_json(path(f"{name}.json"), rec["graph"])
        _write_json(path(f"{name}_m1.json"), rec["m1"])
        _write_json(path(f"{name}_m2.json"), rec["m2"])
        graph = ["--graph", path(f"{name}.json")]
        calls.append((f"{name} validate", ["validate", *graph]))
        for k, (src, dst) in enumerate(rec["dist"], 1):
            calls.append((f"{name} dist {k}", ["dist", *graph, "--from", src, "--to", dst]))
        m1, m2 = path(f"{name}_m1.json"), path(f"{name}_m2.json")
        calls.append(
            (f"{name} w2", ["w2", *graph, "--m1", m1, "--m2", m2, "--grid", CLI_W2_GRID])
        )

    problem = inputs["problem"]
    _write_json(path("problem.json"), problem)
    # the fixed point runs on the first input's edge; grid graphs with
    # lengths in [0.5, 1.5] have only minimizing edges
    g = mgbary.build_graph(inputs["graphs"][problem["graph"][: -len(".json")]]["graph"])
    edge = problem["measures"][0]["measure"]["pieces"][0]["edge"]
    if not mgbary.is_edge_minimizing(g, edge):
        raise ValueError(f"fixed-point edge {edge!r} is not minimizing")
    prob = ["--problem", path("problem.json")]
    calls += [
        ("problem bary lp", ["bary", *prob, "--method", "lp"]),
        ("problem bary fixed-point", ["bary", *prob, "--method", "fixed-point", "--edge", edge]),
        ("problem report", ["report", *prob]),
    ]
    return [Op(label, lambda a=argv: _cli_call(a), _check_cli()) for label, argv in calls]


def build(workload: str, inputs: dict, workdir: str) -> list[Op]:
    """The workload's operations over ``inputs``, in the order a pass runs them."""
    if workload == "joint_lp":
        return _joint_lp_ops(inputs)
    if workload == "edge_fixed_point":
        return _edge_fixed_point_ops(inputs)
    if workload == "cli_graphs":
        return _cli_ops(inputs, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str, workdir: str) -> None:
    """Run and check small operations of each kind the workload times."""
    small = {"tripod": [{"graph": "tripod", "grid": 8, "inputs": TRIPOD_INPUTS}], "cyclic": []}
    if workload == "joint_lp":
        ops = _joint_lp_ops(small)
    elif workload == "edge_fixed_point":
        ops = _edge_fixed_point_ops(small)
    else:
        ops = _cli_ops(_cli_inputs(random.Random("warm-up"), (3,)), os.path.join(workdir, "warm-up"))
    for op in ops:
        problem = op.check(op.run())
        if problem is not None:
            raise RuntimeError(f"warm-up {op.label}: {problem}")

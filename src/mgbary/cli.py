"""Command-line front end.

Subcommands: validate, dist, w2, phi, bary, report. All structured output is
JSON with numbers formatted to 12 significant digits; identical inputs
produce byte-identical output. Failures exit with status 1 and a
machine-readable ``{"error": code, "detail": text}`` object.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from .barycenter import (
    BarycenterProblem,
    barycenter_problem,
    objective,
    regularity_report,
    solve_edge_fixed_point,
    solve_lp,
)
from .covering import make_cover_context, phi
from .errors import InputFileError, MgbaryError, ParseError
from .line_ot import line_measure_to_json
from .metric_graph import (
    MetricGraph,
    build_graph,
    distance,
    format_point,
    parse_point,
)
from .tolerances import _check_threshold
from .transport import (
    GraphMeasure,
    discrete_to_graph_measure,
    discretize,
    graph_measure_from_json,
    graph_measure_to_json,
    w2_graph,
)

DIGITS = 12


def _fmt(x: float) -> float:
    return float(f"{x:.{DIGITS}g}")


def _load_json(path: str) -> dict:
    if not os.path.exists(path):
        raise InputFileError(f"no such file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None


def _load_graph(path: str) -> MetricGraph:
    return build_graph(_load_json(path))


def _parsed(fn, *args):
    """Call ``fn`` on command-line input, reporting its ValueError as a parse error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _malformed(what: str, exc: Exception) -> ParseError:
    reason = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
    return ParseError(f"malformed {what}: {reason}")


def _load_problem(path: str, grid_override: float | None) -> BarycenterProblem:
    obj = _load_json(path)
    try:
        graph_field = obj["graph"]
        recs = list(obj["measures"])
        grid = float(obj.get("grid", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed("problem file", exc) from None
    if isinstance(graph_field, str):
        gpath = graph_field
        if not os.path.isabs(gpath):
            gpath = os.path.join(os.path.dirname(os.path.abspath(path)), gpath)
        g = _load_graph(gpath)
    else:
        g = build_graph(graph_field)
    measures = []
    for rec in recs:
        try:
            measures.append(
                (float(rec["weight"]), graph_measure_from_json(g, rec["measure"]))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise _malformed("measure record", exc) from None
    if grid_override is not None:
        grid = grid_override
    return barycenter_problem(g, measures, grid)


def _emit(obj, output: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> dict:
    g = _load_graph(args.graph)
    out = {
        "ok": True,
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "min_edge_length": _fmt(g.min_edge_length),
    }
    if args.measure:
        graph_measure_from_json(g, _load_json(args.measure))
        out["measure_ok"] = True
    return out


def _cmd_w2(args) -> dict:
    g = _load_graph(args.graph)
    m1 = discretize(g, graph_measure_from_json(g, _load_json(args.m1)), args.grid)
    m2 = discretize(g, graph_measure_from_json(g, _load_json(args.m2)), args.grid)
    cost, plan = w2_graph(g, m1, m2)
    return {
        "w2": _fmt(cost ** 0.5),
        "w2_squared": _fmt(cost),
        "plan": [
            {
                "source": format_point(x, DIGITS),
                "target": format_point(y, DIGITS),
                "mass": _fmt(m),
            }
            for x, y, m in plan.entries
        ],
    }


def _cmd_phi(args) -> dict:
    g = _load_graph(args.graph)
    _parsed(g.edge, args.edge)
    base = discretize(g, graph_measure_from_json(g, _load_json(args.base)), args.grid)
    nu = discretize(g, graph_measure_from_json(g, _load_json(args.measure)), args.grid)
    ctx = make_cover_context(g, args.edge, base)
    image = phi(ctx, nu)
    out = line_measure_to_json(image)
    out["atoms"] = [
        {"x": _fmt(rec["x"]), "mass": _fmt(rec["mass"])} for rec in out["atoms"]
    ]
    return out


def _cmd_bary(args) -> dict:
    problem = _load_problem(args.problem, args.grid)
    if args.method == "lp":
        mu, value = solve_lp(problem)
        return {
            "method": "lp",
            "grid": _fmt(problem.grid),
            "objective": _fmt(value),
            "measure": graph_measure_to_json(discrete_to_graph_measure(mu), DIGITS, _fmt),
        }
    if not args.edge:
        raise ParseError("--edge is required for --method fixed-point")
    _parsed(problem.graph.edge, args.edge)
    result = solve_edge_fixed_point(
        problem, args.edge, max_iter=args.max_iter, eps=args.eps, init=args.init
    )
    return {
        "method": "fixed-point",
        "grid": _fmt(problem.grid),
        "edge": args.edge,
        "iterations": result.iterations,
        "converged": result.converged,
        "objective": _fmt(objective(problem, result.measure)),
        "measure": graph_measure_to_json(
            discrete_to_graph_measure(result.measure), DIGITS, _fmt
        ),
    }


def _cmd_report(args) -> dict:
    if args.atom_tol is not None:  # before the LP solve, not after it
        _check_threshold(args.atom_tol, "--atom-tol")
    problem = _load_problem(args.problem, args.grid)
    mu, value = solve_lp(problem)
    report = regularity_report(problem, mu, atom_tol=args.atom_tol)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "location", "offset", "mass"])
            for p, w in zip(mu.points, mu.weights):
                if p.is_vertex:
                    writer.writerow(["vertex", p.vertex, "", f"{w:.{DIGITS}g}"])
                else:
                    writer.writerow(
                        ["interior", p.edge, f"{p.offset:.{DIGITS}g}", f"{w:.{DIGITS}g}"]
                    )
    return {
        "verdict": report.verdict,
        "hypothesis_met": report.hypothesis_met,
        "objective": _fmt(value),
        "atom_tol": _fmt(report.atom_tol),
        "lambda_ac": _fmt(report.lambda_ac),
        "max_interior_mass": _fmt(report.max_interior_mass),
        "max_interior_density": _fmt(report.max_interior_density),
        "interior_atoms": graph_measure_to_json(
            GraphMeasure(atoms=report.interior_atoms), DIGITS, _fmt
        )["atoms"],
        "vertex_atoms": [
            {"vertex": v, "mass": _fmt(w)} for v, w in report.vertex_atoms
        ],
    }


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line is a parse-error, not exit status 2
        raise ParseError(f"{self.prog}: {message}")


@functools.cache  # built on the first call, once per process; parsing leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mgbary",
        description="Transport distances, line unfoldings, and barycenters on metric graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a graph (and optionally a measure) file")
    p.add_argument("--graph", required=True)
    p.add_argument("--measure")
    p.add_argument("--output", "-o")

    p = sub.add_parser("dist", help="distance between two points")
    p.add_argument("--graph", required=True)
    p.add_argument("--from", dest="src", required=True, metavar="POINT")
    p.add_argument("--to", dest="dst", required=True, metavar="POINT")

    p = sub.add_parser("w2", help="transport distance and optimal plan between two measures")
    p.add_argument("--graph", required=True)
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--grid", type=float, required=True)
    p.add_argument("--output", "-o")

    p = sub.add_parser("phi", help="unfold a measure onto the line around a base edge")
    p.add_argument("--graph", required=True)
    p.add_argument("--edge", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--grid", type=float, required=True)
    p.add_argument("--output", "-o")

    p = sub.add_parser("bary", help="solve a barycenter problem")
    p.add_argument("--problem", required=True)
    p.add_argument("--grid", type=float)
    p.add_argument("--method", choices=["lp", "fixed-point"], default="lp")
    p.add_argument("--edge")
    p.add_argument("--eps", type=float)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--init", choices=["uniform", "vertex"], default="uniform")
    p.add_argument("--output", "-o")

    p = sub.add_parser("report", help="solve and classify the singular mass of the solution")
    p.add_argument("--problem", required=True)
    p.add_argument("--grid", type=float)
    p.add_argument("--atom-tol", type=float)
    p.add_argument("--csv")
    p.add_argument("--output", "-o")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "dist":
            g = _load_graph(args.graph)
            x, y = (_parsed(parse_point, g, lit) for lit in (args.src, args.dst))
            d = distance(g, x, y)
            sys.stdout.write(f"{d:.{DIGITS}g}\n")
            return 0
        handler = {
            "validate": _cmd_validate,
            "w2": _cmd_w2,
            "phi": _cmd_phi,
            "bary": _cmd_bary,
            "report": _cmd_report,
        }[args.command]
        _emit(handler(args), getattr(args, "output", None))
        return 0
    except MgbaryError as exc:
        _emit({"error": exc.code, "detail": str(exc)}, None)
        return 1
    except FileNotFoundError as exc:
        _emit({"error": "file-not-found", "detail": str(exc)}, None)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgbary.cli import main

TRIANGLE = {
    "vertices": ["A", "B", "C"],
    "edges": [
        {"id": "e_AB", "u": "A", "v": "B", "length": 1.0},
        {"id": "e_AC", "u": "A", "v": "C", "length": 1.0},
        {"id": "e_BC", "u": "B", "v": "C", "length": 1.0},
    ],
}

TRIPOD = {
    "vertices": ["o", "t1", "t2", "t3"],
    "edges": [
        {"id": "b1", "u": "o", "v": "t1", "length": 1.0},
        {"id": "b2", "u": "o", "v": "t2", "length": 1.0},
        {"id": "b3", "u": "o", "v": "t3", "length": 1.0},
    ],
}


def tripod_problem(grid=0.0625):
    return {
        "graph": TRIPOD,
        "measures": [
            {
                "weight": 1 / 3,
                "measure": {
                    "atoms": [],
                    "pieces": [{"edge": f"b{i}", "a": 0.5, "b": 1.0, "density": 2.0}],
                },
            }
            for i in (1, 2, 3)
        ],
        "grid": grid,
    }


@pytest.fixture
def triangle_path(tmp_path):
    p = tmp_path / "triangle.json"
    p.write_text(json.dumps(TRIANGLE))
    return str(p)


@pytest.fixture
def problem_path(tmp_path):
    p = tmp_path / "tripod_halves.json"
    p.write_text(json.dumps(tripod_problem()))
    return str(p)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestDist:
    def test_vertex_to_midpoint(self, triangle_path, capsys):
        code, out = run_cli(
            ["dist", "--graph", triangle_path, "--from", "v:A", "--to", "e_BC:0.5"],
            capsys,
        )
        assert code == 0
        assert out == "1.5\n"

    def test_bad_point_literal(self, triangle_path, capsys):
        code, out = run_cli(
            ["dist", "--graph", triangle_path, "--from", "nope", "--to", "v:A"],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["error"] == "parse-error"


class TestPointLiteralOnEdgeV:
    GRAPH = {
        "vertices": ["A", "B", "0.5"],
        "edges": [
            {"id": "v", "u": "A", "v": "B", "length": 1.0},
            {"id": "w", "u": "B", "v": "0.5", "length": 1.0},
        ],
    }

    @pytest.fixture
    def graph_path(self, tmp_path):
        p = tmp_path / "edge_v.json"
        p.write_text(json.dumps(self.GRAPH))
        return str(p)

    def test_ambiguous_point_is_a_parse_error(self, graph_path, capsys):
        code, out = run_cli(
            ["dist", "--graph", graph_path, "--from", "v:0.5", "--to", "v:A"], capsys
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "parse-error"
        assert "ambiguous point literal 'v:0.5'" in obj["detail"]

    def test_ambiguous_atom_is_an_invalid_measure(self, graph_path, tmp_path, capsys):
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"atoms": [{"point": "v:0.5", "mass": 1.0}], "pieces": []}))
        code, out = run_cli(["validate", "--graph", graph_path, "--measure", str(m)], capsys)
        assert code == 1
        assert json.loads(out)["error"] == "invalid-measure"

    def test_point_on_edge_v(self, graph_path, capsys):
        code, out = run_cli(
            ["dist", "--graph", graph_path, "--from", "v:0.25", "--to", "v:A"], capsys
        )
        assert code == 0
        assert out == "0.25\n"


class TestValidate:
    def test_valid_graph(self, triangle_path, capsys):
        code, out = run_cli(["validate", "--graph", triangle_path], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        assert obj["min_edge_length"] == 1.0

    def test_self_loop_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad_selfloop.json"
        bad.write_text(
            json.dumps(
                {
                    "vertices": ["A"],
                    "edges": [{"id": "e", "u": "A", "v": "A", "length": 1.0}],
                }
            )
        )
        code, out = run_cli(["validate", "--graph", str(bad)], capsys)
        assert code == 1
        assert json.loads(out)["error"] == "invalid-graph"

    def test_missing_file(self, capsys):
        code, out = run_cli(["validate", "--graph", "/nonexistent/g.json"], capsys)
        assert code == 1
        assert json.loads(out)["error"] == "file-not-found"

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, out = run_cli(["validate", "--graph", str(bad)], capsys)
        assert code == 1
        assert json.loads(out)["error"] == "parse-error"

    def test_invalid_measure(self, triangle_path, tmp_path, capsys):
        bad = tmp_path / "badm.json"
        bad.write_text(json.dumps({"atoms": [{"point": "v:A", "mass": 0.5}], "pieces": []}))
        code, out = run_cli(
            ["validate", "--graph", triangle_path, "--measure", str(bad)], capsys
        )
        assert code == 1
        assert json.loads(out)["error"] == "invalid-measure"


class TestW2:
    def test_two_diracs(self, triangle_path, tmp_path, capsys):
        m1 = tmp_path / "m1.json"
        m2 = tmp_path / "m2.json"
        m1.write_text(json.dumps({"atoms": [{"point": "v:A", "mass": 1.0}], "pieces": []}))
        m2.write_text(json.dumps({"atoms": [{"point": "v:B", "mass": 1.0}], "pieces": []}))
        code, out = run_cli(
            [
                "w2", "--graph", triangle_path,
                "--m1", str(m1), "--m2", str(m2), "--grid", "0.1",
            ],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["w2"] == 1.0
        assert obj["plan"] == [{"source": "v:A", "target": "v:B", "mass": 1.0}]


class TestPhi:
    def test_unfolds_branch_measure(self, tmp_path, capsys):
        gpath = tmp_path / "tripod.json"
        gpath.write_text(json.dumps(TRIPOD))
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"atoms": [{"point": "b1:0.75", "mass": 1.0}], "pieces": []}))
        nu = tmp_path / "nu.json"
        nu.write_text(json.dumps({"atoms": [{"point": "b2:0.6", "mass": 1.0}], "pieces": []}))
        code, out = run_cli(
            [
                "phi", "--graph", str(gpath), "--edge", "b1",
                "--base", str(base), "--measure", str(nu), "--grid", "0.01",
            ],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["atoms"] == [{"mass": 1.0, "x": -0.6}]

    def test_support_above_the_cap_is_refused(self, tmp_path, capsys, monkeypatch):
        gpath = tmp_path / "tripod.json"
        gpath.write_text(json.dumps(TRIPOD))
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"atoms": [], "pieces": [{"edge": "b1", "a": 0.0, "b": 1.0, "density": 1.0}]}))
        monkeypatch.setenv("MGBARY_SUPPORT_CAP", "100")  # 20 cells pass, 400 pairs do not
        code, out = run_cli(
            [
                "phi", "--graph", str(gpath), "--edge", "b1",
                "--base", str(m), "--measure", str(m), "--grid", "0.05",
            ],
            capsys,
        )
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "support-cap-exceeded"
        assert "400 LP variables" in obj["detail"]

    def test_non_minimizing_edge_code(self, tmp_path, capsys):
        gpath = tmp_path / "par.json"
        gpath.write_text(
            json.dumps(
                {
                    "vertices": ["P", "Q"],
                    "edges": [
                        {"id": "short", "u": "P", "v": "Q", "length": 1.0},
                        {"id": "long", "u": "P", "v": "Q", "length": 3.0},
                    ],
                }
            )
        )
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"atoms": [{"point": "long:1.5", "mass": 1.0}], "pieces": []}))
        code, out = run_cli(
            [
                "phi", "--graph", str(gpath), "--edge", "long",
                "--base", str(base), "--measure", str(base), "--grid", "0.1",
            ],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["error"] == "non-minimizing-edge"


class TestBary:
    def test_lp_concentrates_at_center(self, problem_path, capsys):
        code, out = run_cli(
            ["bary", "--problem", problem_path, "--grid", "0.015625"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        center = [a for a in obj["measure"]["atoms"] if a["point"] == "v:o"]
        assert center and center[0]["mass"] >= 0.99

    def test_fixed_point_method(self, problem_path, capsys):
        code, out = run_cli(
            [
                "bary", "--problem", problem_path,
                "--method", "fixed-point", "--edge", "b1",
            ],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["converged"] is True
        assert obj["measure"]["atoms"] == [{"mass": 1.0, "point": "v:o"}]

    def test_support_cap_env(self, problem_path, capsys, monkeypatch):
        monkeypatch.setenv("MGBARY_SUPPORT_CAP", "100")  # 16 cells pass, 1,300 LP variables do not
        code, out = run_cli(["bary", "--problem", problem_path], capsys)
        assert code == 1
        obj = json.loads(out)
        assert obj["error"] == "support-cap-exceeded"
        assert "LP variables" in obj["detail"]

    def test_byte_identical_runs(self, problem_path, capsys):
        _, first = run_cli(["bary", "--problem", problem_path], capsys)
        _, second = run_cli(["bary", "--problem", problem_path], capsys)
        assert first == second


class TestReport:
    def test_report_passes_and_writes_csv(self, problem_path, tmp_path, capsys):
        csv_path = tmp_path / "cells.csv"
        code, out = run_cli(
            ["report", "--problem", problem_path, "--csv", str(csv_path)], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] == "PASS"
        assert obj["hypothesis_met"] is True
        assert obj["vertex_atoms"] == [{"mass": 1.0, "vertex": "o"}]
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "kind,location,offset,mass"
        assert any(line.startswith("vertex,o") for line in lines[1:])


class TestRoundTrip:
    def test_emitted_measure_reparses_to_equal_value(self, problem_path, tmp_path, capsys):
        code, out = run_cli(["bary", "--problem", problem_path], capsys)
        assert code == 0
        emitted = json.loads(out)["measure"]
        mpath = tmp_path / "emitted.json"
        mpath.write_text(json.dumps(emitted))
        gpath = tmp_path / "tripod.json"
        gpath.write_text(json.dumps(TRIPOD))
        code, out = run_cli(
            ["validate", "--graph", str(gpath), "--measure", str(mpath)], capsys
        )
        assert code == 0
        assert json.loads(out)["measure_ok"] is True


@pytest.mark.parametrize(
    "command, code",
    [
        ("validate", "invalid-measure"),
        ("bary-fixed-point", "parse-error"),
        ("phi", "parse-error"),
    ],
)
def test_unknown_edge_id_is_a_json_error(command, code, tmp_path):
    gpath = tmp_path / "tripod.json"
    gpath.write_text(json.dumps(TRIPOD))
    on_zz = tmp_path / "on_zz.json"
    piece = {"edge": "zz", "a": 0.0, "b": 1.0, "density": 1.0}
    on_zz.write_text(json.dumps({"atoms": [], "pieces": [piece]}))
    at_o = tmp_path / "at_o.json"
    at_o.write_text(json.dumps({"atoms": [{"point": "v:o", "mass": 1.0}], "pieces": []}))
    ppath = tmp_path / "problem.json"
    ppath.write_text(json.dumps(tripod_problem()))
    args = {
        "validate": ["validate", "--graph", str(gpath), "--measure", str(on_zz)],
        "bary-fixed-point": [
            "bary", "--problem", str(ppath), "--method", "fixed-point", "--edge", "zz",
        ],
        "phi": [
            "phi", "--graph", str(gpath), "--edge", "zz",
            "--base", str(at_o), "--measure", str(at_o), "--grid", "0.1",
        ],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "mgbary.cli", *args], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == code
    assert "unknown edge id 'zz'" in json.loads(proc.stdout)["detail"]
    assert "Traceback" not in proc.stderr


def _problem_with(path, value):
    problem = tripod_problem()
    *keys, last = path
    obj = problem
    for key in keys:
        obj = obj[key]
    obj[last] = value
    return problem


@pytest.mark.parametrize(
    "problem, extra, env, code, detail",
    [
        (_problem_with(("measures", 0, "weight"), "abc"), [], {}, "parse-error", "measure record: could not"),
        (_problem_with(("grid",), "abc"), [], {}, "parse-error", "problem file: could not"),
        (_problem_with(("grid",), None), [], {}, "parse-error", "problem file: float()"),
        (tripod_problem(), [], {"MGBARY_SUPPORT_CAP": "abc"}, "parse-error", "MGBARY_SUPPORT_CAP"),
        (tripod_problem(), ["--atom-tol", "nan"], {}, "parse-error", "--atom-tol"),
        (tripod_problem(), ["--atom-tol", "-1"], {}, "parse-error", "--atom-tol"),
        (_problem_with(("measures",), 5), [], {}, "parse-error", "not iterable"),
        (_problem_with(("measures", 0), 5), [], {}, "parse-error", "not subscriptable"),
        (_problem_with(("measures", 0, "measure"), 5), [], {}, "invalid-measure", "malformed"),
        (_problem_with(("graph",), 5), [], {}, "invalid-graph", "must be an object"),
        (
            _problem_with(("measures", 0, "measure", "atoms"), [{"point": 5, "mass": 1.0}]),
            [], {}, "invalid-measure", "malformed",
        ),
    ],
    ids=[
        "weight-abc", "grid-abc", "grid-null", "support-cap-abc", "atom-tol-nan",
        "atom-tol-negative", "measures-not-a-list", "record-not-an-object",
        "measure-not-an-object", "graph-a-number", "point-not-a-string",
    ],
)
def test_malformed_problem_input_is_a_json_error(problem, extra, env, code, detail, tmp_path):
    ppath = tmp_path / "problem.json"
    ppath.write_text(json.dumps(problem))
    proc = subprocess.run(
        [sys.executable, "-m", "mgbary.cli", "report", "--problem", str(ppath), *extra],
        capture_output=True,
        text=True,
        env={**os.environ, **env},
    )
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["error"] == code
    assert detail in out["detail"] and "missing" not in out["detail"]
    assert "Traceback" not in proc.stderr


def test_nan_eps_is_a_json_error(tmp_path):
    # a NaN eps never compares true, so the loop used to run all its iterations
    ppath = tmp_path / "problem.json"
    ppath.write_text(json.dumps(tripod_problem()))
    proc = subprocess.run(
        [
            sys.executable, "-m", "mgbary.cli", "bary", "--problem", str(ppath),
            "--method", "fixed-point", "--edge", "b1", "--eps", "nan",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["error"] == "parse-error"
    assert "eps must be finite and not negative" in out["detail"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("max_iter", ["0", "-1"])
def test_max_iter_below_one_is_a_json_error(tmp_path, max_iter):
    # -1 used to print the uniform start with "iterations": 0 and exit 0
    ppath = tmp_path / "problem.json"
    ppath.write_text(json.dumps(tripod_problem()))
    proc = subprocess.run(
        [
            sys.executable, "-m", "mgbary.cli", "bary", "--problem", str(ppath),
            "--method", "fixed-point", "--edge", "b1", "--max-iter", max_iter,
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["error"] == "parse-error"
    assert "max_iter must be an integer of at least 1" in out["detail"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args, detail",
    [
        (["dist", "--graph", "G", "--from", "-Infinity", "--to", "v:A"], "--from: expected one"),
        (["dist", "--graph", "G", "--from", "v:A"], "required: --to"),
        (["w2", "--graph", "G", "--m1", "G", "--m2", "G", "--grid", "abc"], "invalid float"),
        (["nosuch"], "invalid choice"),
        ([], "required: command"),
    ],
    ids=["dash-value", "missing-option", "bad-float", "unknown-command", "no-command"],
)
def test_bad_command_line_is_a_json_error(triangle_path, capsys, args, detail):
    code, out = run_cli([triangle_path if a == "G" else a for a in args], capsys)
    assert code == 1
    obj = json.loads(out)
    assert obj["error"] == "parse-error"
    assert detail in obj["detail"]


@pytest.mark.parametrize("command", ["bary", "w2"])
def test_mass_within_the_unit_tolerance_is_solved(tmp_path, capsys, command):
    """A piece of mass 1 + 8e-10 validates, so the LP must solve it, at the
    objective of the exactly normalized input."""
    (tmp_path / "g.json").write_text(json.dumps(TRIANGLE))
    other = {"atoms": [], "pieces": [{"edge": "e_AC", "a": 0.2, "b": 0.7, "density": 2.0}]}
    (tmp_path / "other.json").write_text(json.dumps(other))
    values = []
    for error in (8e-10, 0.0):
        off = {"atoms": [], "pieces": [{"edge": "e_AB", "a": 0.1, "b": 0.6, "density": 2.0 * (1 + error)}]}
        (tmp_path / "off.json").write_text(json.dumps(off))
        problem = {"graph": TRIANGLE, "grid": 0.1,
                   "measures": [{"weight": 0.5, "measure": m} for m in (off, other)]}
        (tmp_path / "p.json").write_text(json.dumps(problem))
        args = {
            "bary": ["bary", "--problem", str(tmp_path / "p.json"), "--method", "lp"],
            "w2": ["w2", "--graph", str(tmp_path / "g.json"), "--m1", str(tmp_path / "off.json"),
                   "--m2", str(tmp_path / "other.json"), "--grid", "0.1"],
        }[command]
        code, out = run_cli(args, capsys)
        assert code == 0, out
        values.append(json.loads(out)["objective" if command == "bary" else "w2_squared"])
    assert abs(values[0] - values[1]) <= 1e-9 * values[1]


def test_console_entry_point_runs(tmp_path):
    gpath = tmp_path / "triangle.json"
    gpath.write_text(json.dumps(TRIANGLE))
    proc = subprocess.run(
        [
            sys.executable, "-m", "mgbary.cli",
            "dist", "--graph", str(gpath), "--from", "v:A", "--to", "e_BC:0.5",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1.5\n"


# Fuzzed input files: valid graph, measure and problem files on the triangle
# and the tripod, each example spoiling up to three values anywhere in them
# (a wrong type, NaN or inf, an unknown id, any float) or dropping a field,
# a record or a whole file. Point literals, grids and edge ids are separate
# arguments, as a user types them, and may start with "-".
ERROR_CODES = {
    "file-not-found", "parse-error", "invalid-graph", "invalid-measure",
    "non-minimizing-edge", "support-cap-exceeded", "internal-error",
}
JUNK = st.sampled_from([None, "abc", [], {}, True, 5, -1.0, 0.0, math.nan, math.inf, -math.inf])
IDS = st.sampled_from(["A", "B", "o", "t1", "e_AB", "e_BC", "b1", "b2", "v", "zz"])
SPOILED = st.one_of(JUNK, IDS, st.floats(allow_nan=True, allow_infinity=True))
# command-line values that argparse may take for options or end-of-options
DASHED = st.sampled_from(["-Infinity", "-inf", "-1", "-v:A", "-h", "--", "-"])
LITERAL = st.one_of(
    st.sampled_from(["v:A", "v:t1", "e_AB:0.5", "b1:0.25", "v:0.5", "nope"]),
    st.builds("{}:{}".format, IDS, SPOILED),
    st.builds(str, SPOILED),
    DASHED,
)
GRID = st.one_of(
    st.just("0.25"),
    st.sampled_from(["0.5", "0", "nan", "inf", "1e-300", "1e300"]),
    st.builds(str, SPOILED),
    DASHED,
)
DROP = object()
EDGE_AND_VERTEX = {"triangle": ("e_BC", "B"), "tripod": ("b2", "t2")}


def _valid_files(name: str) -> dict:
    graph = TRIANGLE if name == "triangle" else TRIPOD
    on_edge, vertex = EDGE_AND_VERTEX[name]
    m1 = {
        "atoms": [{"point": f"v:{vertex}", "mass": 0.5}],
        "pieces": [{"edge": on_edge, "a": 0.0, "b": 1.0, "density": 0.5}],
    }
    m2 = {"atoms": [], "pieces": [{"edge": on_edge, "a": 0.5, "b": 1.0, "density": 2.0}]}
    problem = {
        "graph": graph if name == "triangle" else "graph.json",
        "measures": [{"weight": 0.5, "measure": m} for m in (m1, m2)],
        "grid": 0.25,
    }
    return json.loads(json.dumps({"graph": graph, "m1": m1, "m2": m2, "problem": problem}))


def _slots(obj) -> list:
    """Every (container, key) pair inside a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    out = []
    for key, value in items:
        out.append((obj, key))
        if isinstance(value, (dict, list)):
            out += _slots(value)
    return out


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300)
@given(
    data=st.data(),
    name=st.sampled_from(["triangle", "tripod"]),
    command=st.sampled_from(
        ["validate", "dist", "w2", "phi", "bary-lp", "bary-fixed-point", "report"]
    ),
    grid=GRID,
    spoils=st.integers(0, 3),
)
def test_fuzzed_input_files_exit_cleanly(fuzz_dir, data, name, command, grid, spoils):
    edge, vertex = EDGE_AND_VERTEX[name]
    edge = data.draw(st.one_of(st.just(edge), IDS, DASHED))
    points = data.draw(
        st.tuples(*[st.one_of(st.sampled_from([f"v:{vertex}", f"{edge}:0.5"]), LITERAL)] * 2)
    )
    files = _valid_files(name)
    for _ in range(spoils):
        parent, key = data.draw(st.sampled_from(_slots(files)))
        value = data.draw(st.one_of(st.just(DROP), SPOILED))
        if value is DROP:
            del parent[key]
        else:
            parent[key] = value
    path = {f: str(fuzz_dir / f"{f}.json") for f in ("graph", "m1", "m2", "problem")}
    for f, p in path.items():
        if os.path.exists(p):
            os.remove(p)
        if f in files:
            with open(p, "w") as fh:
                json.dump(files[f], fh)
    g = ["--graph", path["graph"]]
    argv = {
        "validate": ["validate", *g, "--measure", path["m1"]],
        "dist": ["dist", *g, "--from", points[0], "--to", points[1]],
        "w2": ["w2", *g, "--m1", path["m1"], "--m2", path["m2"], "--grid", grid],
        "phi": [
            "phi", *g, "--edge", edge, "--base", path["m1"], "--measure", path["m2"],
            "--grid", grid,
        ],
        "bary-lp": ["bary", "--problem", path["problem"], "--grid", grid],
        "bary-fixed-point": [
            "bary", "--problem", path["problem"], "--method", "fixed-point", "--edge", edge,
        ],
        "report": ["report", "--problem", path["problem"]],
    }[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code == 1:
        assert json.loads(out.getvalue())["error"] in ERROR_CODES
    else:
        assert code == 0

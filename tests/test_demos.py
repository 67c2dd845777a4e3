"""Each demo prints the bytes recorded in ``tests/golden``.

The demos run in this process with stdout captured. A change that must keep
results identical keeps these files; one that changes a result on purpose
records the demo's new output there.
"""

import contextlib
import io
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_golden_bytes(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    golden = ROOT / "tests" / "golden" / f"{demo.stem}.txt"
    assert out.getvalue().encode("utf-8") == golden.read_bytes()

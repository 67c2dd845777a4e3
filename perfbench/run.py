#!/usr/bin/env python3
"""Run one workload of the mgbary benchmark and print its metrics.

    python3 perfbench/run.py --workload joint_lp --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, and nothing else is used. One process runs
one workload as a closed loop: passes over the workload's fixed operation
list, one operation after another, until the next pass would overrun
``--seconds``.

Operation times are reported in units of a reference LP solve that is timed
between the operations in the same process (see ``ReferenceLP``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time on untraced passes and half on passes with every public mgbary function
wrapped in a span, prints the per-layer metrics, and writes the spans to
``.perfbench_out/``. The second-to-last stdout line records the run; the last
is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("joint_lp", "edge_fixed_point", "cli_graphs")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# each part of set-up (imports; input generation, file writes and graph
# builds) is repeated and its median reported, so one slow repeat does not
# move setup_s
PREP_REPEATS = 3


class ReferenceLP:
    """A fixed 45 x 45 transport LP solved by scipy's HiGHS: the benchmark's unit of time.

    The benchmark machine is shared, and its neighbours slow everything in it
    by up to half for tens of seconds at a time, longer than a pass. Solved
    just before and just after each operation, the reference slows with it,
    so the operation's time divided by the mean of the two reference times
    keeps far less of that noise than either time alone (see README.md). It
    calls scipy directly, so neither a change to mgbary nor the traced run's
    wrappers touch it.
    """

    SIZE = 45

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        n = self.SIZE
        self.cost = rng.random((n, n)).ravel()
        self.a_eq = numpy.vstack(
            [numpy.kron(numpy.eye(n), numpy.ones(n)), numpy.kron(numpy.ones(n), numpy.eye(n))]
        )
        self.b_eq = numpy.full(2 * n, 1.0 / n)
        self.value: float | None = None
        self.times: list[float] = []

    def __call__(self) -> float:
        """Solve once; return the wall time in seconds, also kept in ``times``."""
        from scipy.optimize import linprog

        t0 = time.perf_counter()
        res = linprog(self.cost, A_eq=self.a_eq, b_eq=self.b_eq, method="highs")
        elapsed = time.perf_counter() - t0
        if res.status != 0 or (self.value is not None and res.fun != self.value):
            raise RuntimeError(f"reference LP: status {res.status}, value {res.fun!r}")
        self.value = res.fun
        self.times.append(elapsed)
        return elapsed


class PassResult:
    def __init__(self):
        self.times: list[float] = []
        # each time in reference units; empty when the pass ran without one
        self.rel: list[float] = []
        self.failed = 0
        self.counts: dict[str, float] = {}
        self.spans = (0, 0)


def run_pass(ops, tracer=None, ref: ReferenceLP | None = None) -> PassResult:
    """Time each operation, then check its output with tracing paused.

    With ``ref``, which must have been solved once already, the reference is
    solved again after each check, and the operation's time is also kept
    relative to the mean of the reference solves before and after it.
    """
    res = PassResult()
    lo = len(tracer) if tracer is not None else 0
    if tracer is not None:
        tracer.counts = {}
    for op in ops:
        span = tracer.open(op.label) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception:
            error = traceback.format_exc()
        res.times.append(time.perf_counter() - t0)
        if span is not None:
            tracer.close(span)
        if error is None:
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                try:
                    error = op.check(out)
                except Exception:
                    error = traceback.format_exc()
        if error is not None:
            res.failed += 1
            print(f"FAILED {op.label}: {error}", file=sys.stderr)
        if ref is not None:
            before = ref.times[-1]
            res.rel.append(2 * res.times[-1] / (before + ref()))
    if tracer is not None:
        res.counts = tracer.counts
        res.spans = (lo, len(tracer))
    return res


def run_passes(ops, budget: float, ref: ReferenceLP, tracer=None) -> list[PassResult]:
    """At least one pass; more while the next would end within ``budget`` seconds."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(ops, tracer, ref))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def best_times(passes: list[PassResult]) -> list[float]:
    """Each operation's fastest time over the passes, in seconds, for the record line."""
    return [min(ts) for ts in zip(*(p.times for p in passes))]


def rel_times(passes: list[PassResult]) -> list[float]:
    """Each operation's median time over the passes, in reference units."""
    return [statistics.median(ts) for ts in zip(*(p.rel for p in passes))]


def import_times() -> list[float]:
    """Time ``import mgbary, mgbary.cli`` in fresh interpreters, once per repeat."""
    code = (
        "import time; t = time.perf_counter(); import mgbary, mgbary.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                check=True, timeout=60,
            ).stdout
        )
        for _ in range(PREP_REPEATS)
    ]


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "mgbary")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mgbary", "__init__.py")):
        print(f"run.py: no mgbary package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, SRC)

    import mgbary
    import mgbary.cli  # noqa: F401
    import numpy
    import scipy

    if not os.path.abspath(mgbary.__file__).startswith(SRC + os.sep):
        print(f"run.py: imported mgbary from {mgbary.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        prep = []
        for _ in range(PREP_REPEATS):
            t0 = time.perf_counter()
            inputs = workloads.generate(args.workload, args.seed)
            ops = workloads.build(args.workload, inputs, workdir)
            prep.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        workloads.warm_up(args.workload, workdir)
        ref = ReferenceLP()
        for _ in range(2):  # the first solve pays for lazy imports
            ref()
        warm_s = time.perf_counter() - t0
        setup_s = statistics.median(import_times()) + statistics.median(prep) + warm_s

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "commit": git_commit(),
            "src_sha256": source_digest(),
            "nproc": NPROC,
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
            "ops_per_pass": len(ops),
        }
        if args.trace:
            untraced = run_passes(ops, args.seconds / 2, ref)
            tracer = spans.Tracer()
            with spans.installed(tracer, mgbary):
                traced = run_passes(ops, args.seconds / 2, ref, tracer)
            passes = untraced + traced
            per_pass = []
            for p in traced:
                table = spans.SpanTable(tracer, *p.spans)
                per_pass.append(spans.layer_metrics(table, p.counts))
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
            metrics = {
                name: metric(statistics.median(m[name] for m in per_pass), units[name])
                for name in per_pass[0]
            }
            # in reference units, so a slow period in one half does not pass
            # for overhead; converted to seconds at the median reference time
            overhead = sum(rel_times(traced)) - sum(rel_times(untraced))
            metrics["trace.overhead_s"] = metric(overhead * statistics.median(ref.times), "s")
            record["passes"] = {"untraced": len(untraced), "traced": len(traced)}
            record["top_self_s"] = spans.SpanTable(tracer, *traced[-1].spans).top_self()
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.save(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.npz"))
        else:
            passes = run_passes(ops, args.seconds, ref)
            best = best_times(passes)
            rel = rel_times(passes)
            metrics = {
                "pass_ref": metric(sum(rel), "ref"),
                "op_ref.p50": metric(statistics.median(rel), "ref"),
                "op_ref.max": metric(max(rel), "ref"),
                "setup_s": metric(setup_s, "s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
                ),
            }
            record["passes"] = {"untraced": len(passes)}
            record["ref_s.p50"] = statistics.median(ref.times)
            record["wall_s"] = sum(best)
            record["op_rel"] = {op.label: r for op, r in zip(ops, rel)}
            record["op_best_s"] = {op.label: t for op, t in zip(ops, best)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    record["failed_frac"] = failed / attempted
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

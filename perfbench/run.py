"""latescore benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N --seconds S --trace 0|1]   # every workload

Run from the repository root; the package is imported from ``src/``.
One process drives the load, closed-loop with one caller, for ``--seconds``
seconds, checking every operation's output.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
operations and reports per-layer self times, call counts and exact
counters, plus the tracing overhead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` each workload runs in a process of its own and its report,
JSON line included, is printed in turn; the exit status is 1 if any of
them failed.

End-to-end metrics:

- ``setup_s``: median over fresh interpreters of the time to ``import latescore``.
- ``items_per_s``: the workload's items (rows, replications, grid points,
  draws) over the median time of the run's untraced operations.
- ``peak_rss_mb``: the process's high-water resident memory.

Per-layer metrics (``--trace 1``):

- ``<module>.<function>.self_s``: median over the traced operations of the
  function's self time (its spans minus the time their child spans cover),
  scaled like every other time; 0 where the workload never calls it.
- ``<module>.<function>.calls``, bytes in and out, ridge fallbacks, IRLS
  non-convergence and failed replications: exact counts of the first
  traced operation.
- ``inference.set_shape.<tag>``: how many score sets had each shape.  These
  seven counts are a fingerprint of the results, not a performance target;
  the direction ``BENCHMARK.json`` gives them is nominal.  Every exact
  count must repeat from operation to operation, or the operation fails.
- ``trace.overhead_frac``: median traced time over median untraced time, less 1.

Every time is scaled to a fixed machine speed before the median is taken.
On a shared machine the speed of a core shifts by up to half for seconds
at a time, so raw medians of one run repeat poorly in the next.  Right
before each operation and each import, a fixed reference kernel that runs
no latescore code is timed three times; the time that follows is
multiplied by ``REFERENCE_S`` over the median of those three.  The raw
medians are printed as well.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from spans import Tracer, patched, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_run")

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 9
# Nominal time of reference_kernel, about its time on an unloaded 2.0 GHz
# Xeon core.  Fixed, so that scaled figures compare across runs.
REFERENCE_S = 0.05
SETUP_CODE = "import time; t = time.perf_counter(); import latescore; print(repr(time.perf_counter() - t))"


def per_layer_units(trace_targets, set_tags) -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for _module, _attr, name, _hook in trace_targets:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units["data.load_csv.bytes_in"] = "bytes"
    units["nuisance.fit_ols.ridge_fallbacks"] = "count"
    units["nuisance.fit_logistic.not_converged"] = "count"
    units["simulation.replications_failed"] = "count"
    for tag in set_tags:
        units[f"inference.set_shape.{tag}"] = "count"
    for _module, _attr, name, _hook in trace_targets:
        if name.startswith("cli."):
            units[f"{name}.bytes_out"] = "bytes"
    units["trace.overhead_frac"] = "1"
    return units


def reference_kernel() -> float:
    """Fixed interpreter, text and numpy work: the machine's speed gauge."""
    total = 0
    for i in range(200_000):
        total += i * i % 7
    text = ",".join([repr(i * 0.37) for i in range(20_000)])
    values = [float(v) for v in text.split(",")]
    return total + sum(values) + float((np.arange(200_000, dtype=float) * 1.5).sum())


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def speed_scale() -> float:
    """Factor that brings a time taken now to the nominal machine speed."""
    return REFERENCE_S / statistics.median(timed(reference_kernel) for _ in range(3))


@dataclass
class Op:
    wall: float
    outcome: object
    tracer: object = None
    scale: float = 1.0

    @property
    def scaled(self) -> float:
        return self.wall * self.scale

    def exact(self) -> dict:
        """Counters that must repeat exactly from one operation to the next."""
        out = dict(self.outcome.counters, digest=self.outcome.digest)
        if self.tracer is not None:
            out.update({f"{k}.calls": v for k, v in self.tracer.calls().items()})
            out.update(self.tracer.counters)
        return out


def measure_setup() -> tuple[float, float]:
    """Median time of ``import latescore`` in fresh interpreters: scaled, raw.

    One untimed import first, so that byte-code compilation is not counted.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    raw, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        scale = speed_scale()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            raw.append(float(done.stdout.strip().splitlines()[-1]))
            scaled.append(raw[-1] * scale)
    return statistics.median(scaled), statistics.median(raw)


def attempt(workload, tracer=None, targets=()) -> Op:
    """One timed operation and its check; an exception is a failed check."""
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        with patched(tracer, targets) if tracer else nullcontext():
            t0 = time.perf_counter()
            result = workload.run()
            wall = time.perf_counter() - t0
        outcome = workload.check(result)
    except Exception:
        wall = time.perf_counter() - t0
        outcome = Outcome([traceback.format_exc()])
    return Op(wall, outcome, tracer)


def run_ops(workload, seconds: float, trace: bool, targets) -> list[Op]:
    """Closed loop: one operation at a time until ``seconds`` have passed,
    each preceded by a gauge of the machine's speed.

    With ``trace`` every second operation runs traced.
    """
    ops: list[Op] = []
    min_ops = 4 if trace else 3
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < min_ops:
        traced = trace and len(ops) % 2 == 1
        scale = speed_scale()
        ops.append(attempt(workload, Tracer() if traced else None, targets))
        ops[-1].scale = scale
    return ops


def find_drift(ops: list[Op]) -> None:
    """Mark an operation failed when its exact counters differ from the
    first operation of the same kind (traced or untraced)."""
    first = {}
    for op in ops:
        kind = op.tracer is not None
        exact = op.exact()
        if kind not in first:
            first[kind] = exact
        elif exact != first[kind]:
            diff = sorted(k for k in set(exact) | set(first[kind]) if exact.get(k) != first[kind].get(k))
            op.outcome.problems.append(f"exact counters differ from the first operation: {diff}")


def layer_metrics(workload, ops: list[Op], targets, units) -> dict[str, float]:
    traced = [op for op in ops if op.tracer is not None]
    plain = [op for op in ops if op.tracer is None]
    own = [self_times(op.tracer.spans) for op in traced]
    values = dict.fromkeys(units, 0)
    for _module, _attr, name, _hook in targets:
        values[f"{name}.self_s"] = statistics.median(t.get(name, 0.0) * op.scale for t, op in zip(own, traced))
    first = traced[0]
    for name, calls in first.tracer.calls().items():
        values[f"{name}.calls"] = calls
    values.update(first.tracer.counters)
    if workload.command:
        values[f"cli.{workload.command}.bytes_out"] = first.outcome.counters.get("bytes_out", 0)
    values["trace.overhead_frac"] = (
        statistics.median(op.scaled for op in traced) / statistics.median(op.scaled for op in plain) - 1.0
    )
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    setup, setup_raw = (None, None) if trace else measure_setup()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        cls = workloads.WORKLOADS[name]
        os.makedirs(os.path.join(workdir, "warmup"))
        warm = cls(os.path.join(workdir, "warmup"), seed, **workloads.SMALL[name])
        warm.prepare()
        warm_problems = attempt(warm).outcome.problems
        workload = cls(workdir, seed)
        workload.prepare()
        ops = run_ops(workload, seconds, trace, workloads.TRACE_TARGETS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    find_drift(ops)
    for problem in warm_problems + [p for op in ops for p in op.outcome.problems]:
        print(f"check failed: {problem}", file=sys.stderr)
    # The warm-up counts as one more operation.
    attempted = 1 + len(ops) + sum(op.outcome.inner_attempted for op in ops)
    failed = bool(warm_problems) + sum(bool(op.outcome.problems) + op.outcome.inner_failed for op in ops)

    plain = [op for op in ops if op.tracer is None]
    passed = [op for op in plain if not op.outcome.problems]
    print(f"perfbench: workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(
        f"  {len(ops)} operations, closed loop, one caller; untraced median {statistics.median(op.wall for op in plain):.4f} s "
        f"raw, {statistics.median(op.scaled for op in plain):.4f} s scaled (speed scale "
        f"{min(op.scale for op in ops):.3f}..{max(op.scale for op in ops):.3f})"
    )
    if trace:
        units = per_layer_units(workloads.TRACE_TARGETS, workloads.SET_TAGS)
        values = layer_metrics(workload, ops, workloads.TRACE_TARGETS, units)
        for key, value in values.items():
            if value:
                shown = value if isinstance(value, int) else f"{value:.6g}"
                print(f"  {key} = {shown} {units[key]}")
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        rate, raw_rate = (
            (workload.items / statistics.median(op.scaled for op in passed),
             workload.items / statistics.median(op.wall for op in passed))
            if passed else (0.0, 0.0)
        )
        values = {"setup_s": setup, "items_per_s": rate, "peak_rss_mb": peak_rss_mb}
        print(f"  setup_s = {setup:.6g} s scaled, {setup_raw:.6g} s raw (median of {SETUP_REPEATS} cold imports)")
        print(f"  {workload.alias} = {rate:.6g} {workload.item}/s scaled, {raw_rate:.6g} raw (items_per_s)")
        print(f"  peak_rss_mb = {peak_rss_mb:.6g} MB")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool, names) -> int:
    """Every workload in turn, each in its own process so that peak memory
    and set-up are its own."""
    status = 0
    for name in names:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.strip().splitlines() or [""]
        print("\n".join(lines), flush=True)
        if done.returncode != 0 or not lines[-1].startswith("{") or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload; omit to run all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "latescore", "__init__.py")):
        print(f"error: no latescore package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace), list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark's workloads: seeded inputs, one operation each, output checks.

Every workload is closed-loop with one caller: the next operation starts
when the previous one has returned and been checked.  Operations go
through ``latescore.cli.main(argv)`` in-process, or through a public
library function where the CLI has no command for the work.  A workload
sees only inputs generated here from the benchmark seed.

``check`` turns one operation's output into an :class:`Outcome`: the
problems found (empty when the output is correct), the exact counters
(bytes, set shapes, failed replications) that must repeat operation to
operation, and a digest of the files written.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from latescore import cli, weakiv
from latescore.data import CsvSchema, Dataset, make_folds, write_csv
from latescore.inference import quad_coefficients, score_statistic
from latescore.nuisance import LearnerSpec, cross_fit
from latescore.scores import compute_scores
from latescore.simulation import DgpParams

ALPHA = 0.05
SET_TAGS = ("finite_interval", "two_rays", "empty", "whole_line", "left_ray", "right_ray", "point")
PAPER_GRID = (1500, 4500, 7500, 10500, 12000)
SCHEMA = CsvSchema(covariates=("x1", "x2"))


def seeds(seed: int, count: int) -> list[int]:
    """``count`` independent 32-bit seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def iv_data(n: int, seed: int) -> Dataset:
    """Draw n rows of the benchmark's data-generating process.

    x1, x2 ~ N(0, 1), z ~ Bernoulli(0.5), u, e ~ N(0, 1), all independent;
    a = 1{-0.2 + z + 0.5*x1 + u > 0};  y = a + 0.5*x1 - 0.25*x2 + u + e.
    The instrument moves about a third of the units, so the score set is
    a finite interval around the true effect 1 at every sample size used
    here; u enters both a and y, so the treatment is endogenous.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal((n, 2))
    z = (rng.random(n) < 0.5).astype(int)
    u = rng.standard_normal(n)
    a = (-0.2 + z + 0.5 * x[:, 0] + u > 0).astype(int)
    y = a + 0.5 * x[:, 0] - 0.25 * x[:, 1] + u + rng.standard_normal(n)
    return Dataset(y=y, a=a, z=z, x=x)


@dataclass
class CliRun:
    argv: list
    code: int
    stdout: str
    stderr: str


def call_cli(argv) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return CliRun(list(argv), code, out.getvalue(), err.getvalue())


def cli_problems(run: CliRun) -> list[str]:
    if run.code == 0:
        return []
    return [f"{run.argv[0]} exited {run.code}: {run.stderr.strip()}"]


def blocks(path):
    """The bytes of a file in 1 MiB blocks, so that no check holds a whole
    output file and sets the process's peak memory."""
    with open(path, "rb") as handle:
        yield from iter(lambda: handle.read(1 << 20), b"")


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        for block in blocks(path):
            h.update(block)
    return h.hexdigest()


def count_lines(path) -> int:
    return sum(block.count(b"\n") for block in blocks(path))


@dataclass
class Outcome:
    """What one operation produced, as judged by its workload's check."""

    problems: list[str]
    counters: dict = field(default_factory=dict)
    digest: str = ""
    inner_attempted: int = 0
    inner_failed: int = 0


class Workload:
    name = ""
    command = ""  # the CLI command the workload drives, if any
    item = ""  # the unit of work, ``items`` of which one operation does
    alias = ""  # the workload's throughput under its own name

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        """Generate inputs; excluded from every timing."""

    def run(self):
        """The timed operation."""
        raise NotImplementedError

    def check(self, result) -> Outcome:
        raise NotImplementedError


class AnalyzeLarge(Workload):
    """``analyze`` on one large CSV with OLS outcome and logistic treatment models."""

    name = "analyze_large"
    command = "analyze"
    item = "rows"
    alias = "analyze_rows_per_s"

    def __init__(self, workdir, seed, n=200_000):
        super().__init__(workdir, seed)
        self.n = self.items = n

    def prepare(self):
        data_seed, self.cli_seed = seeds(self.seed, 2)
        data = iv_data(self.n, data_seed)
        self.data_path, self.out_path = self.path("analyze.csv"), self.path("analysis.csv")
        write_csv(data, self.data_path, SCHEMA)
        # The reference scores come from the same pipeline the command
        # runs, on the in-memory data (write_csv text round-trips exactly).
        spec = LearnerSpec(m_learner="known_constant", m_value=0.5, K=5)
        preds = cross_fit(data, spec, make_folds(data.n, spec.K, self.cli_seed))
        self.ref_scores = compute_scores(data, preds)
        self.z_crit = quad_coefficients(self.ref_scores, ALPHA).z_crit

    def run(self):
        return call_cli(
            ["analyze", "--data", self.data_path, "--covariates", "x1,x2",
             "--propensity", "known:0.5", "--g", "ols", "--r", "logit", "--folds", 5,
             "--alpha", ALPHA, "--seed", self.cli_seed, "--out", self.out_path]
        )

    def check(self, run):
        problems = cli_problems(run)
        if problems:
            return Outcome(problems)
        with open(self.out_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != 1:
            return Outcome([f"analysis CSV has {len(rows)} rows, expected 1"])
        row = rows[0]
        tag = row["set_tag"]
        if tag not in SET_TAGS:
            problems.append(f"unknown set tag {tag!r}")
        if int(row["n"]) != self.n:
            problems.append(f"n = {row['n']}, expected {self.n}")
        lo, phi, hi = (float(row[k]) for k in ("wald_lo", "phi_hat", "wald_hi"))
        if not lo <= phi <= hi:
            problems.append(f"phi_hat {phi!r} outside the Wald interval [{lo!r}, {hi!r}]")
        for key in ("set_e1", "set_e2"):
            if row[key] and math.isfinite(float(row[key])):
                stat = abs(score_statistic(self.ref_scores, float(row[key])))
                if not math.isclose(stat, self.z_crit, rel_tol=1e-7):
                    problems.append(f"|S_n({key})| = {stat!r}, expected z = {self.z_crit!r}")
        return Outcome(
            problems,
            counters={"bytes_out": os.path.getsize(self.out_path), f"set_shape.{tag}": 1},
            digest=file_digest(self.out_path),
        )


class SimulateGrid(Workload):
    """``simulate`` over the paper's sample sizes, weak then strong setting."""

    name = "simulate_grid"
    command = "simulate"
    item = "replications"
    alias = "study_reps_per_s"
    settings = ("weak", "strong")

    def __init__(self, workdir, seed, reps=10, n_grid=PAPER_GRID):
        super().__init__(workdir, seed)
        self.reps = reps
        self.n_grid = tuple(n_grid)
        self.items = len(self.settings) * reps * len(self.n_grid)

    def prepare(self):
        (self.cli_seed,) = seeds(self.seed, 1)

    def run(self):
        return {
            setting: call_cli(
                ["simulate", "--setting", setting, "--n", ",".join(map(str, self.n_grid)),
                 "--reps", self.reps, "--alpha", ALPHA, "--seed", self.cli_seed,
                 "--out-dir", self.path(setting)]
            )
            for setting in self.settings
        }

    def check(self, runs):
        problems, counters, paths, failed = [], {}, [], 0
        for setting, run in runs.items():
            if run.code != 0:
                problems += cli_problems(run)
                failed += self.reps * len(self.n_grid)
                continue
            failed += sum(int(m) for m in re.findall(r"replications done, (\d+) failed", run.stdout))
            rep_path, sum_path = self.path(f"{setting}/replications.csv"), self.path(f"{setting}/summary.csv")
            paths += [rep_path, sum_path]
            with open(rep_path, newline="") as handle:
                reps = list(csv.DictReader(handle))
            with open(sum_path, newline="") as handle:
                summary = {int(r["n"]): r for r in csv.DictReader(handle)}
            expected = self.reps * len(self.n_grid)
            if len(reps) != expected:
                problems.append(f"{setting}: replications.csv has {len(reps)} rows, expected {expected}")
            for n in self.n_grid:
                cell = [r for r in reps if int(r["n"]) == n]
                if n not in summary or not cell:
                    problems.append(f"{setting}: no rows for n={n}")
                    continue
                for column in ("coverage_score", "coverage_wald"):
                    mine = float(np.mean([float(r[column.replace("coverage", "covered")]) for r in cell]))
                    if abs(mine - float(summary[n][column])) > 1e-12:
                        problems.append(
                            f"{setting} n={n}: {column} {summary[n][column]} in summary.csv, "
                            f"{mine!r} from replications.csv"
                        )
            for r in reps:
                key = f"set_shape.{r['set_tag']}"
                counters[key] = counters.get(key, 0) + 1
        if paths:
            counters["bytes_out"] = sum(os.path.getsize(p) for p in paths)
        counters["replications_failed"] = failed
        return Outcome(
            problems, counters, file_digest(*paths) if paths else "",
            inner_attempted=self.items, inner_failed=failed,
        )


class ScanGrid(Workload):
    """``scan`` of a mid-sized CSV over a fine theta grid, dumping the scores."""

    name = "scan_grid"
    command = "scan"
    item = "grid points"
    alias = "scan_points_per_s"

    def __init__(self, workdir, seed, n=20_000, grid_points=200_001):
        super().__init__(workdir, seed)
        self.n = n
        self.grid_points = self.items = grid_points

    def prepare(self):
        data_seed, self.cli_seed = seeds(self.seed, 2)
        self.data_path, self.out_path = self.path("scan_input.csv"), self.path("scan.csv")
        write_csv(iv_data(self.n, data_seed), self.data_path, SCHEMA)

    def run(self):
        return call_cli(
            ["scan", "--data", self.data_path, "--covariates", "x1,x2",
             "--propensity", "known:0.5", "--g", "cellmean", "--r", "cellmean",
             "--alpha", ALPHA, "--seed", self.cli_seed, "--theta-min", -10, "--theta-max", 10,
             "--grid-points", self.grid_points, "--dump-scores", "--out", self.out_path]
        )

    def check(self, run):
        problems = cli_problems(run)
        if problems:
            return Outcome(problems)
        if "mismatches outside boundary band: 0" not in run.stdout.splitlines():
            problems.append("scan reports mismatches between the set and the statistic")
        tags = re.findall(r"^score set: (\S+)", run.stdout, flags=re.M)
        scores_path = self.out_path + ".scores.csv"
        for path, expected in ((self.out_path, self.grid_points), (scores_path, self.n)):
            rows = count_lines(path) - 1
            if rows != expected:
                problems.append(f"{os.path.basename(path)} has {rows} rows, expected {expected}")
        counters = {"bytes_out": os.path.getsize(self.out_path) + os.path.getsize(scores_path)}
        counters.update({f"set_shape.{t}": 1 for t in tags})
        return Outcome(problems, counters, file_digest(self.out_path, scores_path))


class WeakivLimit(Workload):
    """``weakiv-limit``: draws from the weak-instrument limit law, written to CSV."""

    name = "weakiv_limit"
    command = "weakiv-limit"
    item = "draws"
    alias = "limit_draws_per_s"

    def __init__(self, workdir, seed, samples=1_000_000):
        super().__init__(workdir, seed)
        self.samples = self.items = samples

    def prepare(self):
        (self.cli_seed,) = seeds(self.seed, 1)
        self.out_path = self.path("draws.csv")

    def run(self):
        return call_cli(
            ["weakiv-limit", "--ca", 0.03, "--cb", 0, "--s11", 1, "--s12", 4, "--s22", 16,
             "--samples", self.samples, "--seed", self.cli_seed, "--out", self.out_path]
        )

    def check(self, run):
        problems = cli_problems(run)
        if problems:
            return Outcome(problems)
        # Line by line, so that the check adds nothing to the peak memory.
        rows = finite = 0
        with open(self.out_path) as handle:
            header = handle.readline().rstrip("\n")
            for line in handle:
                rows += 1
                try:
                    finite += math.isfinite(float(line))
                except ValueError:
                    pass
        if header != "draw":
            problems.append(f"header {header!r}, expected 'draw'")
        if finite != self.samples or rows != self.samples:
            problems.append(f"{finite} finite draws in {rows} rows, expected {self.samples}")
        return Outcome(
            problems, {"bytes_out": os.path.getsize(self.out_path)}, file_digest(self.out_path)
        )


class WeakivCalibrate(Workload):
    """``estimate_weakiv_config`` at the weak law with n = 5000."""

    name = "weakiv_calibrate"
    item = "oracle draws"
    alias = "calibrate_draws_per_s"

    def __init__(self, workdir, seed, draws=10_000_000, n=5000):
        super().__init__(workdir, seed)
        self.draws = self.items = draws
        self.params = DgpParams(pi=0.15 / math.sqrt(n), n=n)

    def prepare(self):
        (self.lib_seed,) = seeds(self.seed, 1)

    def run(self):
        # Through the module attribute, so that the traced run sees the call.
        return weakiv.estimate_weakiv_config(self.params, oracle_draws=self.draws, seed=self.lib_seed)

    def check(self, cal):
        problems = []
        values = [cal.c_a, cal.c_b, *np.asarray(cal.sigma_ab).ravel()]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite calibration: c_a={cal.c_a!r}, Sigma_ab={cal.sigma_ab.tolist()}")
        if cal.draws != self.draws:
            problems.append(f"{cal.draws} oracle draws, expected {self.draws}")
        # E[r(1,X) - r(0,X)] = P(X > 0) * (Phi(pi) - 1/2) for this law.
        exact_ca = math.sqrt(self.params.n) * 0.5 * (0.5 * math.erfc(-self.params.pi / math.sqrt(2.0)) - 0.5)
        if not abs(cal.c_a - exact_ca) <= 6.0 * cal.ca_se:
            problems.append(f"c_a = {cal.c_a!r} is more than 6 standard errors from {exact_ca!r}")
        digest = hashlib.sha256(repr((cal.c_a, cal.c_b, np.asarray(cal.sigma_ab).tolist())).encode()).hexdigest()
        return Outcome(problems, {}, digest)


WORKLOADS = {w.name: w for w in (AnalyzeLarge, SimulateGrid, ScanGrid, WeakivLimit, WeakivCalibrate)}

# Small sizes for the untimed warm-up operation and for the tests.
SMALL = {
    "analyze_large": {"n": 2000},
    "simulate_grid": {"reps": 2, "n_grid": (300, 600)},
    "scan_grid": {"n": 1000, "grid_points": 2001},
    "weakiv_limit": {"samples": 1000},
    "weakiv_calibrate": {"draws": 20_000},
}


def _bytes_in(counters, args, kwargs, result):
    counters["data.load_csv.bytes_in"] += os.path.getsize(args[0] if args else kwargs["path"])


def _ridge(counters, args, kwargs, result):
    counters["nuisance.fit_ols.ridge_fallbacks"] += int(result.ridge_fallback)


def _not_converged(counters, args, kwargs, result):
    counters["nuisance.fit_logistic.not_converged"] += int(not result.converged)


def _set_shape(counters, args, kwargs, result):
    counters[f"inference.set_shape.{result.tag}"] += 1


def _replications_failed(counters, args, kwargs, result):
    counters["simulation.replications_failed"] += sum(len(cell.failures) for cell in result)


# (module, function, span name, counter hook) for the traced run.
TRACE_TARGETS = (
    ("latescore.cli", "cmd_analyze", "cli.analyze", None),
    ("latescore.cli", "cmd_simulate", "cli.simulate", None),
    ("latescore.cli", "cmd_scan", "cli.scan", None),
    ("latescore.cli", "cmd_weakiv_limit", "cli.weakiv-limit", None),
    ("latescore.data", "load_csv", "data.load_csv", _bytes_in),
    ("latescore.data", "make_folds", "data.make_folds", None),
    ("latescore.nuisance", "cross_fit", "nuisance.cross_fit", None),
    ("latescore.nuisance", "fit_cell_mean", "nuisance.fit_cell_mean", None),
    ("latescore.nuisance", "fit_ols", "nuisance.fit_ols", _ridge),
    ("latescore.nuisance", "fit_logistic", "nuisance.fit_logistic", _not_converged),
    ("latescore.scores", "compute_scores", "scores.compute_scores", None),
    ("latescore.inference", "quad_coefficients", "inference.quad_coefficients", None),
    ("latescore.inference", "invert_score_test", "inference.invert_score_test", _set_shape),
    ("latescore.inference", "drml_estimate", "inference.drml_estimate", None),
    ("latescore.inference", "dn_statistic", "inference.dn_statistic", None),
    ("latescore.simulation", "run_study", "simulation.run_study", _replications_failed),
    ("latescore.simulation", "run_replication", "simulation.run_replication", None),
    ("latescore.simulation", "dgp_generate", "simulation.dgp_generate", None),
    ("latescore.simulation", "oracle_scores", "simulation.oracle_scores", None),
    ("latescore.simulation", "write_replications_csv", "simulation.write_replications_csv", None),
    ("latescore.simulation", "write_summary_csv", "simulation.write_summary_csv", None),
    ("latescore.weakiv", "estimate_weakiv_config", "weakiv.estimate_weakiv_config", None),
    ("latescore.weakiv", "sample_weak_limit", "weakiv.sample_weak_limit", None),
)

"""Command-line front end.

Four subcommands: ``analyze`` runs the full inference pipeline on a CSV
file, ``simulate`` runs the replication study and writes plot-ready
tables, ``scan`` cross-checks the closed-form set against the test
statistic on a theta grid, and ``weakiv-limit`` samples the
weak-instrument limiting distribution.

Exit statuses are a stable contract: 0 success, 2 configuration or parse
error (an output path that cannot be written and an allocation that
cannot be made included), 3 degenerate data.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import shutil
import sys

import numpy as np

from .data import (
    SCAN_BLOCK, CsvSchema, _is_file_path, _output, _together, _write_columns, _write_rows, load_csv, make_folds,
)
from .errors import DegenerateDataError, InvalidConfigError
from .inference import _z_crit, drml_estimate, invert_score_test, quad_coefficients, score_statistic
from .nuisance import LearnerSpec, cross_fit
from .scores import compute_scores
from .simulation import StudySpec, run_study, write_replications_csv, write_summary_csv
from .weakiv import WeakIVConfig, sample_weak_limit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

# argparse takes an argument that starts with '-' for a value only if it looks like -1 or
# -1.5; the parsers here take any negative number float() parses, such as -1e-3 or -inf.
_D = r"\d(_?\d)*"  # digits, single underscores between them
_NEGATIVE_NUMBER = re.compile(rf"(?i)-(({_D}\.?|({_D})?\.{_D})(e[-+]?{_D})?|inf(inity)?|nan)\s*$")

_G_NAMES = {"ols": "ols_linear", "cellmean": "cell_mean"}
_R_NAMES = {"logit": "logistic", "cellmean": "cell_mean"}


def _learner_spec(args) -> LearnerSpec:
    propensity = args.propensity
    if propensity == "logit":
        m_learner, m_value = "logistic", 0.5
    elif propensity.startswith("known:"):
        m_learner = "known_constant"
        try:
            m_value = float(propensity.split(":", 1)[1])
        except ValueError:
            raise InvalidConfigError(f"bad propensity value in {propensity!r}") from None
    else:
        raise InvalidConfigError(f"propensity must be 'logit' or 'known:VALUE', got {propensity!r}")
    return LearnerSpec(
        g_learner=_G_NAMES[args.g],
        r_learner=_R_NAMES[args.r],
        m_learner=m_learner,
        m_value=m_value,
        K=args.folds,
        clip_eps=args.clip_eps,
    )


def _seed(text: str) -> int:
    """A --seed for numpy's PCG64, which takes non-negative integers only."""
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def _schema(args) -> CsvSchema:
    return CsvSchema(
        outcome=args.outcome,
        treatment=args.treatment,
        instrument=args.instrument,
        covariates=tuple(c for c in args.covariates.split(",") if c),
    )


def _add_data_flags(sub) -> None:
    sub.add_argument("--data", required=True, help="input CSV path")
    sub.add_argument("--outcome", default="y")
    sub.add_argument("--treatment", default="a")
    sub.add_argument("--instrument", default="z")
    sub.add_argument("--covariates", default="x1", help="comma-separated column names")
    sub.add_argument("--propensity", default="logit", help="'logit' or 'known:VALUE'")
    sub.add_argument("--g", default="ols", choices=sorted(_G_NAMES))
    sub.add_argument("--r", default="logit", choices=sorted(_R_NAMES))
    sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--folds", type=int, default=5)
    sub.add_argument("--clip-eps", type=float, default=0.01, dest="clip_eps")
    sub.add_argument("--seed", type=_seed, default=0)


def _fit_scores(args):
    # A bad --alpha or learner flag is refused before any data is read.
    _z_crit(args.alpha)
    spec = _learner_spec(args)
    data = load_csv(args.data, _schema(args))
    # The folds are not kept: n int64s that the scores do not read.
    preds = cross_fit(data, spec, make_folds(data.n, spec.K, args.seed))
    return data, compute_scores(data, preds)


def cmd_analyze(args) -> int:
    data, scores = _fit_scores(args)
    coeffs = quad_coefficients(scores, args.alpha)
    cset = invert_score_test(coeffs)
    drml = drml_estimate(scores, args.alpha)
    z = coeffs.z_crit
    dn0, weak = coeffs.dn0, coeffs.dn0 <= z * z
    diam_s = cset.diameter()
    diam_w = drml.diameter()
    ratio = diam_s / diam_w if math.isfinite(diam_s) and math.isfinite(diam_w) and diam_w > 0 else float("nan")

    if args.out:
        e1, e2 = [*cset.endpoints(), "", ""][:2]
        row = dict(
            n=data.n, alpha=args.alpha, phi_hat=drml.phi_hat, sigma2_hat=drml.sigma2_hat, wald_lo=drml.wald_lo,
            wald_hi=drml.wald_hi, set_tag=cset.tag, set_e1=e1, set_e2=e2, dn0=dn0, weak_instrument=int(weak),
            a=coeffs.a, b=coeffs.b, c=coeffs.c, delta=coeffs.delta, zero_tol_a=coeffs.tol_a,
            zero_tol_delta=coeffs.tol_delta, diam_score=diam_s, diam_wald=diam_w, diam_ratio=ratio,
        )
        _write_columns(args.out, row, *([v] for v in row.values()))

    print(f"n = {data.n}, covariates = {data.p}, alpha = {args.alpha}")
    print(f"point estimate   : {drml.phi_hat:.6g}")
    print(f"sigma_hat        : {math.sqrt(drml.sigma2_hat):.6g}")
    print(f"wald interval    : [{drml.wald_lo:.6g}, {drml.wald_hi:.6g}]")
    print(f"score set        : {cset.tag} {cset}")
    print(f"D_n(0)           : {dn0:.6g}  (z^2 = {z * z:.6g})")
    print(f"weak instrument  : {'yes' if weak else 'no'}")
    print(
        f"quadratic        : a={coeffs.a:.6g} b={coeffs.b:.6g} c={coeffs.c:.6g} "
        f"delta={coeffs.delta:.6g} (zero tolerances {coeffs.tol_a:.3g}, {coeffs.tol_delta:.3g})"
    )
    if math.isfinite(ratio):
        print(f"diameter ratio   : {ratio:.6g}")
    return EXIT_OK


def _missing_dirs(path: str) -> list[str]:
    """The directories that os.makedirs(path) would create, deepest first."""
    missing = []
    # Not normalized: makedirs also creates the directory before a "..".
    path = os.path.join(os.getcwd(), path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def cmd_simulate(args) -> int:
    try:
        n_grid = tuple(int(v) for v in args.n.split(","))
    except ValueError:
        raise InvalidConfigError(f"bad --n list {args.n!r}") from None
    spec = StudySpec(
        setting=args.setting,
        pi=args.pi,
        n_grid=n_grid,
        reps=args.reps,
        alpha=args.alpha,
        seed=args.seed,
        learner=_learner_spec(args),
    )
    rep_path = os.path.join(args.out_dir, "replications.csv")
    sum_path = os.path.join(args.out_dir, "summary.csv")
    # Made before the study, so that a directory that cannot be made fails
    # fast; if the study or a write fails, the directories made here that
    # are still empty are removed.
    made = _missing_dirs(args.out_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    try:
        cells = run_study(spec)
        for cell in cells:
            print(
                f"setting={cell.setting} n={cell.n} pi={cell.pi:.6g}: "
                f"{len(cell.results)} replications done, {len(cell.failures)} failed"
            )
        with _together():
            write_replications_csv(cells, rep_path)
            write_summary_csv(cells, sum_path)
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    print(f"wrote {rep_path}")
    print(f"wrote {sum_path}")
    return EXIT_OK


# scan's member_by_quadratic and member_by_statistic cells, comma included;
# an undefined statistic leaves the second empty.
_MEMBERSHIP = np.array(["0,", "1,", "0,0", "1,0", "0,1", "1,1"])


def _membership(by_quad, by_stat, defined) -> np.ndarray:
    """scan's two membership cells of each grid point, as one string column."""
    return _MEMBERSHIP[by_quad + 2 * defined + 2 * (defined & by_stat)]


def _check_free_space(out: str, least: int, what: str) -> None:
    """Refuse an output of at least ``least`` bytes that the disk beside the
    file ``out`` cannot hold, before any work is done."""
    if _is_file_path(out):
        free = shutil.disk_usage(os.path.dirname(os.path.realpath(out))).free
        if least > free:
            raise InvalidConfigError(f"{what} need at least {least} bytes; {free} are free")


def _grid(theta_min: float, theta_max: float, points: int):
    """``np.linspace(theta_min, theta_max, points)`` bit for bit, in blocks
    of ``SCAN_BLOCK`` points, with no array of the whole grid."""
    width, div = theta_max - theta_min, points - 1
    step = width / div
    for lo in range(0, points, SCAN_BLOCK):
        theta = np.arange(lo, min(lo + SCAN_BLOCK, points), dtype=float)
        # linspace's own arithmetic, which divides first where the step underflows to 0.
        theta = theta * step if step else theta / div * width
        theta += theta_min
        if lo + SCAN_BLOCK >= points:
            theta[-1] = theta_max
        yield theta


_SCAN_HEADER = "theta,s_n,member_by_quadratic,member_by_statistic\n"


def cmd_scan(args) -> int:
    # A finite width needs finite bounds, and keeps the grid's steps finite.
    if not math.isfinite(args.theta_max - args.theta_min):
        raise InvalidConfigError("grid bounds and the grid's width must be finite")
    if args.theta_min >= args.theta_max:
        raise InvalidConfigError("--theta-min must be below --theta-max")
    if args.grid_points < 2:
        raise InvalidConfigError("--grid-points must be at least 2")
    # The header and the shortest row, "0.0,nan,0,", each with its newline.
    _check_free_space(args.out, len(_SCAN_HEADER) + 11 * args.grid_points, f"{args.grid_points} grid points")
    data, scores = _fit_scores(args)
    coeffs = quad_coefficients(scores, args.alpha)
    cset = invert_score_test(coeffs)
    mismatches = 0
    with _together():
        with _output(args.out) as handle:
            handle.write(_SCAN_HEADER)
            for theta in _grid(args.theta_min, args.theta_max, args.grid_points):
                s = score_statistic(scores, theta)
                defined = ~np.isnan(s)
                by_stat = np.abs(s) <= coeffs.z_crit
                by_quad = cset.contains(theta)
                # The quadratic and its band over theta**2 where |theta| > 1, as
                # a*t*t + b*t*w + c*w*w with w = 1/|theta| and t = theta*w: finite
                # wherever S_n is defined, and unscaled where |theta| <= 1.
                w = 1.0 / np.maximum(1.0, np.abs(theta))
                t = theta * w
                quad = coeffs.a * t * t + coeffs.b * t * w + coeffs.c * w * w
                band = 1e-6 * (abs(coeffs.a) * t * t + abs(coeffs.b) * np.abs(t) * w + abs(coeffs.c) * w * w)
                mismatches += int(np.count_nonzero(defined & (by_quad != by_stat) & (np.abs(quad) > band)))
                _write_rows(handle, theta, s, _membership(by_quad, by_stat, defined))
        if args.dump_scores:
            _write_columns(args.out + ".scores.csv", ["psi_a", "psi_b"], scores.psi_a, scores.psi_b)
    print(f"score set: {cset.tag} {cset}")
    print(f"mismatches outside boundary band: {mismatches}")
    if args.dump_scores:
        print(f"wrote {args.out}.scores.csv")
    return EXIT_OK


def cmd_weakiv_limit(args) -> int:
    if args.samples < 1:
        raise InvalidConfigError("--samples must be at least 1")
    cfg = WeakIVConfig(args.ca, args.cb, np.array([[args.s11, args.s12], [args.s12, args.s22]]))
    rng = np.random.Generator(np.random.PCG64(args.seed))
    # The header "draw" and the shortest row, "0.0", each with its newline.
    _check_free_space(args.out, 5 + 4 * args.samples, f"{args.samples} draws")
    with _output(args.out) as handle:
        handle.write("draw\n")
        for lo in range(0, args.samples, SCAN_BLOCK):
            _write_rows(handle, sample_weak_limit(cfg, rng, min(SCAN_BLOCK, args.samples - lo)))
    print(f"wrote {args.samples} draws to {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors reach ``main``'s handler, so a bad
    command line exits 2 with one ``error:`` line; its subparsers share the class."""

    def error(self, message):
        raise InvalidConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="latescore",
        description="Score confidence sets and Wald intervals for the local average treatment effect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full inference pipeline on a CSV file")
    _add_data_flags(analyze)
    analyze.add_argument("--out", default="", help="write a machine-readable CSV row here")
    analyze.set_defaults(func=cmd_analyze)

    simulate = sub.add_parser("simulate", help="run the replication study")
    simulate.add_argument("--setting", default="strong", choices=("weak", "strong", "custom"))
    simulate.add_argument("--pi", type=float, default=None, help="instrument strength (custom only)")
    simulate.add_argument("--n", default="1500,4500,7500,10500,12000", help="comma-separated sample sizes")
    simulate.add_argument("--reps", type=int, default=1000)
    simulate.add_argument("--alpha", type=float, default=0.05)
    simulate.add_argument("--seed", type=_seed, default=0)
    simulate.add_argument("--g", default="cellmean", choices=sorted(_G_NAMES))
    simulate.add_argument("--r", default="cellmean", choices=sorted(_R_NAMES))
    simulate.add_argument("--out-dir", required=True, dest="out_dir")
    # Not flags: the propensity, folds and clipping the study fits with.
    simulate.set_defaults(func=cmd_simulate, propensity="known:0.5", folds=5, clip_eps=0.01)

    scan = sub.add_parser("scan", help="compare the set against the statistic on a theta grid")
    _add_data_flags(scan)
    scan.add_argument("--theta-min", type=float, required=True, dest="theta_min")
    scan.add_argument("--theta-max", type=float, required=True, dest="theta_max")
    scan.add_argument("--grid-points", type=int, default=2001, dest="grid_points")
    scan.add_argument("--dump-scores", action="store_true", dest="dump_scores")
    scan.add_argument("--out", required=True)
    scan.set_defaults(func=cmd_scan)

    weakiv = sub.add_parser("weakiv-limit", help="sample the weak-instrument limit distribution")
    for name in ("ca", "cb", "s11", "s12", "s22"):
        weakiv.add_argument(f"--{name}", type=float, required=True)
    weakiv.add_argument("--samples", type=int, default=100000)
    weakiv.add_argument("--seed", type=_seed, default=0)
    weakiv.add_argument("--out", required=True)
    weakiv.set_defaults(func=cmd_weakiv_limit)
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InvalidConfigError, OSError) as exc:
        # load_csv reports unreadable input as CsvParseError, so an OSError
        # here comes from an output file or directory.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # Typically numpy refusing an array that a size flag asks for.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())

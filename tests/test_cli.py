import csv
import errno
import io
import itertools
import math
import os
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latescore import (
    ConfidenceSet,
    CsvSchema,
    Dataset,
    DegenerateDataError,
    DgpParams,
    LearnerSpec,
    compute_scores,
    cross_fit,
    dgp_generate,
    drml_estimate,
    invert_score_test,
    load_csv,
    make_folds,
    quad_coefficients,
    sample_weak_limit,
    write_csv,
)
import latescore
from latescore import errors, simulation
from latescore.inference import score_statistic
from latescore.cli import _NEGATIVE_NUMBER, SCAN_BLOCK, _grid, _membership, main
from latescore.data import _write_rows
from latescore.weakiv import _LIMIT_BLOCK, WeakIVConfig

from conftest import instrument_is_weak, iv_data, reference_quad_coefficients, zero_tolerances


def _export_dgp(tmp_path, pi, n, seed, name):
    path = str(tmp_path / name)
    write_csv(dgp_generate(DgpParams(pi=pi, n=n), seed=seed), path)
    return path


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _assert_no_files(directory):
    assert not directory.exists() or list(directory.iterdir()) == []


def _huge_outcome_csv(tmp_path):
    """400 rows with y of order 1e300: finite scores whose squares overflow."""
    rng = np.random.Generator(np.random.PCG64(44))
    n = 400
    data = Dataset(
        y=1e300 * rng.standard_normal(n), a=rng.integers(0, 2, n), z=rng.integers(0, 2, n),
        x=rng.standard_normal((n, 1)),
    )
    path = str(tmp_path / "huge.csv")
    write_csv(data, path)
    return path


def _double_range_csv(tmp_path):
    """400 rows with 0/1 a and z, normal x1 and y = +-1.7e308: every value
    parses, but the nuisance fits' sums overflow."""
    rng = np.random.Generator(np.random.PCG64(45))
    n = 400
    data = Dataset(
        y=np.where(rng.random(n) < 0.5, 1.7e308, -1.7e308), a=rng.integers(0, 2, n),
        z=rng.integers(0, 2, n), x=rng.standard_normal((n, 1)),
    )
    path = str(tmp_path / "edge.csv")
    write_csv(data, path)
    return path


def _exits_3_warning_nothing(capsys, argv, out_dir):
    """Run argv: status 3, one error line, no numpy warning and no file."""
    out_dir.mkdir()
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(argv)
    assert status == 3
    assert [str(w.message) for w in caught] == []
    _assert_one_error_line(capsys)
    _assert_no_files(out_dir)


class TestAnalyze:
    def test_strong_export_covers_truth(self, tmp_path, capsys):
        data_path = _export_dgp(tmp_path, pi=5.0, n=4500, seed=31, name="strong.csv")
        out_path = str(tmp_path / "analysis.csv")
        status = main([
            "analyze", "--data", data_path, "--propensity", "known:0.5",
            "--g", "cellmean", "--r", "cellmean", "--seed", "3", "--out", out_path,
        ])
        assert status == 0
        row = _read_rows(out_path)[0]
        assert row["set_tag"] == "finite_interval"
        assert float(row["set_e1"]) <= 0.0 <= float(row["set_e2"])
        assert float(row["wald_lo"]) <= 0.0 <= float(row["wald_hi"])
        assert row["weak_instrument"] == "0"
        assert math.isfinite(float(row["diam_ratio"]))
        out = capsys.readouterr().out
        assert "score set" in out

    def test_weak_export_flags_weak_instrument(self, tmp_path):
        n = 2000
        data_path = _export_dgp(tmp_path, pi=0.15 / math.sqrt(n), n=n, seed=32, name="weak.csv")
        out_path = str(tmp_path / "analysis.csv")
        status = main([
            "analyze", "--data", data_path, "--propensity", "known:0.5",
            "--g", "cellmean", "--r", "cellmean", "--seed", "3", "--out", out_path,
        ])
        assert status == 0
        row = _read_rows(out_path)[0]
        assert row["set_tag"] in ("whole_line", "two_rays")
        assert row["weak_instrument"] == "1"

    def test_single_row_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("y,a,z,x1\n1.0,0,1,0.5\n")
        status = main(["analyze", "--data", str(path)])
        assert status == 2
        assert "fewer than 2 rows" in capsys.readouterr().err

    def test_estimated_nuisances_default(self, tmp_path):
        data_path = _export_dgp(tmp_path, pi=5.0, n=1000, seed=33, name="est.csv")
        status = main(["analyze", "--data", data_path, "--seed", "0"])
        assert status == 0

    def test_degenerate_data_exits_3(self, tmp_path, capsys):
        path = tmp_path / "degenerate.csv"
        rows = "".join(f"0.0,0,{i % 2},0.5\n" for i in range(20))
        path.write_text("y,a,z,x1\n" + rows)
        status = main([
            "analyze", "--data", str(path), "--propensity", "known:0.5",
            "--g", "cellmean", "--r", "cellmean",
        ])
        assert status == 3
        assert "identically zero" in capsys.readouterr().err

    def test_score_moments_that_overflow_exit_3_writing_nothing(self, tmp_path, capsys):
        out_path = tmp_path / "out" / "h.csv"
        out_path.parent.mkdir()
        status = main(["analyze", "--data", _huge_outcome_csv(tmp_path), "--out", str(out_path)])
        assert status == 3
        _assert_one_error_line(capsys)
        _assert_no_files(out_path.parent)

    def test_a_variance_estimate_that_overflows_exits_3_writing_nothing(self, tmp_path, capsys):
        # The five score moments are finite, but mean(resid^2)/mean(psi_a)^2 is not.
        data = dgp_generate(DgpParams(pi=0.01, n=400), seed=7)
        data_path = str(tmp_path / "big.csv")
        write_csv(Dataset(y=data.y * 1e152, a=data.a, z=data.z, x=data.x), data_path)
        out_path = tmp_path / "out" / "o.csv"
        argv = ["analyze", "--data", data_path, *_CELL_MEANS, "--out", str(out_path)]
        _exits_3_warning_nothing(capsys, argv, out_path.parent)

    @pytest.mark.parametrize("g, r", [("ols", "logit"), ("ols", "cellmean"), ("cellmean", "logit"),
                                      ("cellmean", "cellmean")])
    def test_outcomes_near_the_double_range_exit_3(self, tmp_path, capsys, g, r):
        out_path = tmp_path / "out" / "a.csv"
        argv = ["analyze", "--data", _double_range_csv(tmp_path), "--propensity", "known:0.5",
                "--g", g, "--r", r, "--out", str(out_path)]
        _exits_3_warning_nothing(capsys, argv, out_path.parent)

    def test_bad_propensity_flag_exits_2(self, tmp_path):
        data_path = _export_dgp(tmp_path, pi=5.0, n=100, seed=34, name="flag.csv")
        assert main(["analyze", "--data", data_path, "--propensity", "known:abc"]) == 2

    def test_missing_out_directory_exits_2(self, tmp_path, capsys):
        data_path = _export_dgp(tmp_path, pi=5.0, n=100, seed=34, name="out.csv")
        capsys.readouterr()
        status = main([
            "analyze", "--data", data_path, "--propensity", "known:0.5",
            "--out", str(tmp_path / "nodir" / "x.csv"),
        ])
        assert status == 2
        _assert_one_error_line(capsys)

    def test_peak_memory_on_a_large_file(self, tmp_path):
        # 200,000 rows of two covariates, read by column; with a and z held as
        # int8 the run peaks at 24.1 MB, and with int64 indicators at 26.9 MB.
        path = str(tmp_path / "large.csv")
        write_csv(iv_data(200_000, 5), path, CsvSchema(covariates=("x1", "x2")))
        argv = ["analyze", "--data", path, "--covariates", "x1,x2", "--g", "ols", "--r", "logit",
                "--propensity", "known:0.5"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25_500_000

    def test_no_covariates(self, tmp_path, capsys):
        data_path = _export_dgp(tmp_path, pi=5.0, n=300, seed=39, name="nocov.csv")
        base = ["analyze", "--data", data_path, "--covariates", ""]
        capsys.readouterr()
        assert main(base + ["--g", "cellmean", "--r", "cellmean"]) == 2
        _assert_one_error_line(capsys)
        assert main(base + ["--g", "cellmean", "--r", "logit"]) == 2
        assert main(base + ["--g", "ols", "--r", "cellmean"]) == 2
        assert main(base + ["--g", "ols", "--r", "logit", "--propensity", "logit"]) == 0
        assert "covariates = 0" in capsys.readouterr().out


@pytest.mark.parametrize("pi, seed, tag", [
    (0.1, 7, "finite_interval"),
    (0.1, 0, "two_rays"),
    (0.1, 10, "whole_line"),
    (0.15 / math.sqrt(600), 7, "point"),
])
def test_analysis_row_matches_the_f_string_writer(tmp_path, reference_row_writers, pi, seed, tag):
    data_path = _export_dgp(tmp_path, pi=pi, n=600, seed=seed, name="d.csv")
    out_path = tmp_path / "analysis.csv"
    assert main([
        "analyze", "--data", data_path, "--propensity", "known:0.5",
        "--g", "cellmean", "--r", "cellmean", "--out", str(out_path),
    ]) == 0
    data = load_csv(data_path)
    spec = LearnerSpec(
        g_learner="cell_mean", r_learner="cell_mean", m_learner="known_constant", m_value=0.5
    )
    scores = compute_scores(data, cross_fit(data, spec, make_folds(data.n, spec.K, 0)))
    coeffs = quad_coefficients(scores, 0.05)
    cset, drml = invert_score_test(coeffs), drml_estimate(scores, 0.05)
    assert cset.tag == tag
    diam_s, diam_w = cset.diameter(), drml.diameter()
    ratio = diam_s / diam_w if math.isfinite(diam_s) and math.isfinite(diam_w) and diam_w > 0 else math.nan
    _, _, write_analysis = reference_row_writers
    write_analysis(
        str(tmp_path / "reference.csv"), data.n, 0.05, drml, cset, *instrument_is_weak(scores, 0.05),
        coeffs, *zero_tolerances(reference_quad_coefficients(scores, 0.05)), diam_s, diam_w, ratio,
    )
    assert out_path.read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestIngestErrors:
    """Unreadable input is a parse error (exit 2) that names the file."""

    @pytest.mark.parametrize("command", ["analyze", "scan"])
    @pytest.mark.parametrize("content", [
        b"y,a,z,x1\n1,0,1,2\n3,1,0,\xff\n",
        b"y,a,z,x1\n1,0,1,2\n3,1,0," + b"1" * 200_000 + b"\n2,1,1,5\n",
    ], ids=["not_utf8", "huge_cell"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command, content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        argv = [command, "--data", str(path), "--propensity", "known:0.5",
                "--g", "cellmean", "--r", "cellmean", "--out", str(tmp_path / "out.csv")]
        if command == "scan":
            argv += ["--theta-min", "-1", "--theta-max", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert str(path) in captured.err


@pytest.mark.parametrize("argv, alpha", [
    (["analyze", "--alpha", "1.5"], 1.5),
    (["scan", "--alpha", "0", "--theta-min", "-1", "--theta-max", "1"], 0.0),
], ids=["analyze", "scan"])
def test_a_bad_alpha_exits_2_before_any_data_is_read(tmp_path, capsys, monkeypatch, argv, alpha):
    def refuse(*args):
        raise AssertionError("the data was read")

    monkeypatch.setattr(latescore.cli, "load_csv", refuse)
    assert main([*argv, "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "o.csv")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: alpha must lie in (0, 1), got {alpha}\n")
    assert list(tmp_path.iterdir()) == []


class TestSimulate:
    def test_small_run_writes_tables(self, tmp_path, capsys):
        out_dir = str(tmp_path / "study")
        status = main([
            "simulate", "--setting", "strong", "--n", "1500", "--reps", "50",
            "--seed", "1", "--out-dir", out_dir,
        ])
        assert status == 0
        summary = _read_rows(out_dir + "/summary.csv")
        assert len(summary) == 1
        assert 0.8 <= float(summary[0]["coverage_score"]) <= 1.0
        reps = _read_rows(out_dir + "/replications.csv")
        assert len(reps) == 50
        assert "replications done" in capsys.readouterr().out

    def test_zero_reps_exits_2(self, tmp_path):
        status = main([
            "simulate", "--setting", "strong", "--n", "1500", "--reps", "0",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert status == 2

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--setting", "weak", "--n", "800,1200", "--reps", "20", "--seed", "9"]
        dir1, dir2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(args + ["--out-dir", dir1]) == 0
        assert main(args + ["--out-dir", dir2]) == 0
        for name in ("replications.csv", "summary.csv"):
            with open(f"{dir1}/{name}", "rb") as f1, open(f"{dir2}/{name}", "rb") as f2:
                assert f1.read() == f2.read()

    def test_out_dir_under_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        status = main([
            "simulate", "--n", "100", "--reps", "1", "--out-dir", str(blocker / "study"),
        ])
        assert status == 2
        _assert_one_error_line(capsys)

    def test_n_below_fold_count_exits_2_before_any_replication(self, tmp_path, capsys, monkeypatch):
        def no_study(spec):
            raise AssertionError("run_study was called")

        monkeypatch.setattr("latescore.cli.run_study", no_study)
        out_dir = tmp_path / "d"
        status = main(["simulate", "--setting", "weak", "--n", "3,300", "--reps", "2", "--out-dir", str(out_dir)])
        assert status == 2
        err = capsys.readouterr().err
        assert "n=3" in err and "K=5" in err
        _assert_no_files(out_dir)

    def test_grid_point_without_a_success_exits_3_writing_nothing(self, tmp_path, capsys):
        # At n=5 and seed 11 both weak replications fail; n=300 would succeed.
        out_dir = tmp_path / "d"
        status = main([
            "simulate", "--setting", "weak", "--n", "5,300", "--reps", "2", "--seed", "11",
            "--out-dir", str(out_dir),
        ])
        assert status == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: setting=weak n=5: all 2 replications failed; the first (rep 0): "
            "training complement of fold 0 contains only instrument level 0\n"
        )
        _assert_no_files(out_dir)

    def test_stops_at_the_first_grid_point_without_a_success(self, tmp_path, capsys, monkeypatch):
        sizes = []
        run_replication = simulation.run_replication

        def recording(params, spec, rep_id):
            sizes.append(params.n)
            return run_replication(params, spec, rep_id)

        monkeypatch.setattr(simulation, "run_replication", recording)
        out_dir = tmp_path / "d"
        status = main([
            "simulate", "--setting", "weak", "--n", "5,12000", "--reps", "2", "--seed", "11",
            "--out-dir", str(out_dir),
        ])
        assert status == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: setting=weak n=5: all 2 replications failed; the first (rep 0): "
            "training complement of fold 0 contains only instrument level 0\n"
        )
        assert sizes == [5, 5]
        _assert_no_files(out_dir)

    def test_custom_setting_requires_pi(self, tmp_path):
        status = main([
            "simulate", "--setting", "custom", "--n", "500", "--reps", "1",
            "--out-dir", str(tmp_path / "c"),
        ])
        assert status == 2

    def test_custom_zero_pi_exits_2_before_any_replication(self, tmp_path, capsys, monkeypatch):
        def no_study(spec):
            raise AssertionError("run_study was called")

        monkeypatch.setattr("latescore.cli.run_study", no_study)
        out_dir = tmp_path / "c"
        status = main([
            "simulate", "--setting", "custom", "--pi", "0", "--n", "500", "--reps", "3",
            "--out-dir", str(out_dir),
        ])
        assert status == 2
        _assert_one_error_line(capsys)
        _assert_no_files(out_dir)

    @pytest.mark.parametrize("pi", ["nan", "inf", "-inf"])
    def test_custom_non_finite_pi_exits_2_leaving_no_directory(self, tmp_path, capsys, monkeypatch, pi):
        def no_study(spec):
            raise AssertionError("run_study was called")

        monkeypatch.setattr("latescore.cli.run_study", no_study)
        out_dir = tmp_path / "c"
        status = main([
            "simulate", "--setting", "custom", f"--pi={pi}", "--n", "500", "--reps", "3",
            "--out-dir", str(out_dir),
        ])
        assert status == 2
        _assert_one_error_line(capsys)
        assert not out_dir.exists()

    def test_alpha_whose_quantile_is_infinite_exits_2_leaving_no_directory(self, tmp_path, capsys):
        # 1 - 1e-17/2 rounds to 1: the alpha is refused before any replication runs.
        out_dir = tmp_path / "a"
        status = main([
            "simulate", "--alpha", "1e-17", "--n", "100", "--reps", "2", "--out-dir", str(out_dir),
        ])
        assert status == 2
        _assert_one_error_line(capsys)
        assert not out_dir.exists()

    @pytest.mark.parametrize("error, status", [
        (MemoryError("Unable to allocate 728. TiB"), 2),
        (DegenerateDataError("setting=weak n=5: all 2 replications failed"), 3),
    ], ids=["memory", "degenerate"])
    def test_a_failed_study_removes_the_directories_it_made(self, tmp_path, capsys, monkeypatch, error, status):
        def failing_study(spec):
            assert (tmp_path / "new" / "study").is_dir()
            raise error

        monkeypatch.setattr("latescore.cli.run_study", failing_study)
        argv = ["simulate", "--n", "100", "--reps", "2", "--out-dir", str(tmp_path / "new" / "study")]
        assert main(argv) == status
        _assert_one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []
        # os.makedirs makes "skipped" on the way to "new/study", and both go.
        monkeypatch.chdir(tmp_path)
        assert main([*argv[:-1], "skipped/../new/study"]) == status
        _assert_one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_write_removes_the_directories_it_made(self, tmp_path, capsys, monkeypatch):
        def full_disk(handle, *columns):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("latescore.data._write_rows", full_disk)
        assert main(["simulate", "--n", "100", "--reps", "2", "--out-dir", str(tmp_path / "new" / "study")]) == 2
        _assert_one_error(capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error, status", [
        (MemoryError(), 2),
        (DegenerateDataError("setting=weak n=5: all 2 replications failed"), 3),
    ], ids=["memory", "degenerate"])
    def test_a_failed_study_keeps_a_directory_that_existed(self, tmp_path, capsys, monkeypatch, error, status):
        def failing_study(spec):
            raise error

        monkeypatch.setattr("latescore.cli.run_study", failing_study)
        out_dir = tmp_path / "study"
        out_dir.mkdir()
        assert main(["simulate", "--n", "100", "--reps", "2", "--out-dir", str(out_dir)]) == status
        _assert_one_error_line(capsys)
        assert out_dir.is_dir() and list(out_dir.iterdir()) == []
        # Only the missing part of a path is made, and only it is removed.
        assert main(["simulate", "--n", "100", "--reps", "2", "--out-dir", str(out_dir / "a" / "b")]) == status
        _assert_one_error_line(capsys)
        assert out_dir.is_dir() and list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("setting", ["weak", "strong"])
    def test_pi_outside_the_custom_setting_exits_2_leaving_no_directory(self, tmp_path, capsys, setting):
        out_dir = tmp_path / "c"
        status = main([
            "simulate", "--setting", setting, "--pi", "0.1", "--n", "100", "--reps", "2",
            "--out-dir", str(out_dir),
        ])
        assert status == 2
        _assert_one_error_line(capsys)
        assert not out_dir.exists()

    @pytest.mark.parametrize("seed", [str(2**64), str(2**64 + 5), "-1"])
    def test_seed_outside_64_bits_exits_2_leaving_no_directory(self, tmp_path, capsys, seed):
        # replication_seed reads the seed modulo 2**64: 2**64 would alias 0.
        out_dir = tmp_path / "s"
        status = main([
            "simulate", "--setting", "weak", "--n", "50", "--reps", "3", f"--seed={seed}",
            "--out-dir", str(out_dir),
        ])
        assert status == 2
        _assert_one_error_line(capsys)
        assert not out_dir.exists()

    def test_custom_minus_inf_pi_as_its_own_argument_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "c"
        status = main([
            "simulate", "--setting", "custom", "--pi", "-inf", "--n", "500", "--reps", "3",
            "--out-dir", str(out_dir),
        ])
        assert status == 2
        _assert_one_error_line(capsys)
        assert not out_dir.exists()


def _proportional_csv(tmp_path):
    """Data with y = 2a.  With cell means and a known propensity,
    psi_b == 2 * psi_a exactly, so S_n is undefined at theta = 2."""
    data = dgp_generate(DgpParams(pi=5.0, n=400), seed=41)
    path = str(tmp_path / "y2a.csv")
    write_csv(Dataset(y=2.0 * data.a, a=data.a, z=data.z, x=data.x), path)
    return path


def _reference_scan(data_path, thetas):
    """The per-theta scan loop that block evaluation replaced, kept as the
    reference: the scan CSV text and the mismatch count."""
    data = load_csv(data_path)
    spec = LearnerSpec(
        g_learner="cell_mean", r_learner="cell_mean", m_learner="known_constant", m_value=0.5
    )
    scores = compute_scores(data, cross_fit(data, spec, make_folds(data.n, spec.K, 0)))
    coeffs = quad_coefficients(scores, 0.05)
    cset = invert_score_test(coeffs)
    z = coeffs.z_crit
    n = scores.n
    ma, mb, maa, mbb, mab = scores.moments()
    mismatches = 0
    lines = ["theta,s_n,member_by_quadratic,member_by_statistic\n"]
    for theta in (float(t) for t in thetas):
        second = mbb - 2.0 * theta * mab + theta * theta * maa
        quad = coeffs.a * theta * theta + coeffs.b * theta + coeffs.c
        band = 1e-6 * (abs(coeffs.a) * theta * theta + abs(coeffs.b) * abs(theta) + abs(coeffs.c))
        by_quad = cset.contains(theta)
        if second > 0.0:
            s = math.sqrt(n) * (mb - theta * ma) / math.sqrt(second)
            by_stat = abs(s) <= z
            if by_quad != by_stat and abs(quad) > band:
                mismatches += 1
            s_text = repr(s)
            stat_text = str(int(by_stat))
        else:
            s_text = "nan"
            stat_text = ""
        lines.append(f"{theta!r},{s_text},{int(by_quad)},{stat_text}\n")
    return "".join(lines), mismatches


def _scan_argv(data_path, theta_min, theta_max, points, out_path):
    return [
        "scan", "--data", data_path, "--propensity", "known:0.5", "--g", "cellmean", "--r", "cellmean",
        "--theta-min", repr(theta_min), "--theta-max", repr(theta_max),
        "--grid-points", str(points), "--out", out_path,
    ]


class TestScan:
    def test_undefined_statistic_row(self, tmp_path, capsys):
        out_path = str(tmp_path / "s.csv")
        assert main(_scan_argv(_proportional_csv(tmp_path), -1.0, 3.0, 5, out_path)) == 0
        assert "mismatches outside boundary band: 0" in capsys.readouterr().out
        with open(out_path, newline="") as handle:
            lines = handle.read().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["-1.0", "0.0", "1.0", "2.0", "3.0"]
        assert lines[4] in ("2.0,nan,0,", "2.0,nan,1,")
        assert all(line.split(",")[3] in ("0", "1") for line in lines[1:4] + lines[5:])

    # 3 * SCAN_BLOCK + 1 points cross every block edge.  On the y = 2a data
    # the step is 2**-10, so theta = 2 (undefined S_n) is a grid point and
    # starts the second block.
    @pytest.mark.parametrize("kind, pi, theta_min, theta_max", [
        ("dgp", 5.0, -1.0, 1.0),
        ("dgp", 0.05, -30.0, 30.0),
        ("proportional", None, -2.0, 10.0),
    ])
    def test_matches_the_per_theta_reference(self, tmp_path, capsys, kind, pi, theta_min, theta_max):
        if kind == "dgp":
            data_path = _export_dgp(tmp_path, pi=pi, n=600, seed=43, name="d.csv")
        else:
            data_path = _proportional_csv(tmp_path)
        points = 3 * SCAN_BLOCK + 1
        out_path = str(tmp_path / "s.csv")
        capsys.readouterr()
        assert main(_scan_argv(data_path, theta_min, theta_max, points, out_path)) == 0
        expected, mismatches = _reference_scan(data_path, np.linspace(theta_min, theta_max, points))
        with open(out_path, newline="") as handle:
            assert handle.read() == expected
        assert f"mismatches outside boundary band: {mismatches}\n" in capsys.readouterr().out
        if kind == "proportional":
            assert expected.splitlines()[1 + SCAN_BLOCK].startswith("2.0,nan,")

    @pytest.mark.parametrize("by_quad, defined, by_stat", itertools.product((False, True), repeat=3))
    def test_membership_cells_match_the_f_string_row(self, reference_scan_rows, by_quad, defined, by_stat):
        theta, s = np.array([-0.1]), np.array([1.0 / 3.0 if defined else np.nan])
        columns = theta, s, np.array([by_quad]), np.array([by_stat]), np.array([defined])
        handle = io.StringIO()
        _write_rows(handle, theta, s, _membership(*columns[2:]))
        assert handle.getvalue() == reference_scan_rows(*columns)

    def test_a_block_with_an_undefined_statistic_and_a_member_matches_the_f_string_rows(
        self, tmp_path, reference_scan_rows
    ):
        # On y = 2a the set is the point {2}, where S_n is undefined: the
        # fifth of these 13 rows is "2.0,nan,1,", among defined non-members.
        data_path = _proportional_csv(tmp_path)
        out_path = str(tmp_path / "s.csv")
        assert main(_scan_argv(data_path, -2.0, 10.0, 13, out_path)) == 0
        data = load_csv(data_path)
        spec = LearnerSpec(
            g_learner="cell_mean", r_learner="cell_mean", m_learner="known_constant", m_value=0.5
        )
        scores = compute_scores(data, cross_fit(data, spec, make_folds(data.n, spec.K, 0)))
        coeffs = quad_coefficients(scores, 0.05)
        theta = np.linspace(-2.0, 10.0, 13)
        s = score_statistic(scores, theta)
        rows = reference_scan_rows(
            theta, s, invert_score_test(coeffs).contains(theta), np.abs(s) <= coeffs.z_crit, ~np.isnan(s)
        )
        assert rows.splitlines()[4] == "2.0,nan,1,"
        with open(out_path, newline="") as handle:
            assert handle.read() == "theta,s_n,member_by_quadratic,member_by_statistic\n" + rows

    # theta*theta, and with it the statistic's second moment, overflows
    # once |theta| passes about 1.3e154: S_n is undefined there.
    @pytest.mark.parametrize("theta_max, points", [(1e200, 2001), (2e154, 4001)])
    def test_a_grid_where_the_second_moment_overflows_warns_nothing_and_claims_nothing(
        self, tmp_path, capsys, theta_max, points
    ):
        data_path = _export_dgp(tmp_path, pi=5.0, n=400, seed=41, name="d.csv")
        out_path = str(tmp_path / "s.csv")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(_scan_argv(data_path, -theta_max, theta_max, points, out_path)) == 0
        assert "mismatches outside boundary band: 0\n" in capsys.readouterr().out
        with open(out_path, newline="") as handle:
            lines = handle.read().splitlines()
        expected = _reference_scan(data_path, np.linspace(-theta_max, theta_max, points))[0].splitlines()
        assert lines[0] == expected[0] and len(lines) == len(expected) == points + 1
        thetas = [abs(float(line.split(",")[0])) for line in lines[1:]]
        assert any(t > 1.35e154 for t in thetas)
        for theta, line, want in zip(thetas, lines[1:], expected[1:]):
            if theta > 1.35e154:
                assert line.split(",")[1::2] == ["nan", ""]
            elif theta < 1e150:
                assert line == want

    def test_zero_mismatches_and_grid_size(self, tmp_path, capsys):
        data_path = _export_dgp(tmp_path, pi=5.0, n=500, seed=35, name="scan.csv")
        out_path = str(tmp_path / "scan_out.csv")
        status = main([
            "scan", "--data", data_path, "--propensity", "known:0.5",
            "--g", "cellmean", "--r", "cellmean",
            "--theta-min", "-10", "--theta-max", "10", "--grid-points", "2001",
            "--out", out_path,
        ])
        assert status == 0
        assert "mismatches outside boundary band: 0" in capsys.readouterr().out
        rows = _read_rows(out_path)
        assert len(rows) == 2001

    def test_two_point_grid(self, tmp_path):
        data_path = _export_dgp(tmp_path, pi=5.0, n=100, seed=36, name="scan2.csv")
        out_path = str(tmp_path / "scan2_out.csv")
        status = main([
            "scan", "--data", data_path, "--propensity", "known:0.5",
            "--g", "cellmean", "--r", "cellmean",
            "--theta-min", "0", "--theta-max", "1", "--grid-points", "2",
            "--out", out_path,
        ])
        assert status == 0
        assert len(_read_rows(out_path)) == 2

    def test_dump_scores(self, tmp_path):
        data_path = _export_dgp(tmp_path, pi=5.0, n=100, seed=37, name="scan3.csv")
        out_path = str(tmp_path / "scan3_out.csv")
        status = main([
            "scan", "--data", data_path, "--propensity", "known:0.5",
            "--g", "cellmean", "--r", "cellmean",
            "--theta-min", "-1", "--theta-max", "1", "--grid-points", "11",
            "--dump-scores", "--out", out_path,
        ])
        assert status == 0
        scores = _read_rows(out_path + ".scores.csv")
        assert len(scores) == 100
        assert set(scores[0]) == {"psi_a", "psi_b"}
        data = load_csv(data_path)
        spec = LearnerSpec(
            g_learner="cell_mean", r_learner="cell_mean", m_learner="known_constant", m_value=0.5
        )
        expected = compute_scores(data, cross_fit(data, spec, make_folds(data.n, spec.K, 0)))
        assert [float(r["psi_a"]) for r in scores] == expected.psi_a.tolist()
        assert [float(r["psi_b"]) for r in scores] == expected.psi_b.tolist()

    def test_dump_scores_match_the_per_line_writer(self, tmp_path, reference_writers):
        data_path = _export_dgp(tmp_path, pi=5.0, n=3000, seed=37, name="scan6.csv")
        out_path = str(tmp_path / "scan6_out.csv")
        argv = _scan_argv(data_path, -1.0, 1.0, 11, out_path)
        assert main(argv + ["--dump-scores"]) == 0
        data = load_csv(data_path)
        spec = LearnerSpec(
            g_learner="cell_mean", r_learner="cell_mean", m_learner="known_constant", m_value=0.5
        )
        scores = compute_scores(data, cross_fit(data, spec, make_folds(data.n, spec.K, 0)))
        _, write_scores, _ = reference_writers
        with open(tmp_path / "reference.csv", "w", newline="") as handle:
            handle.write("psi_a,psi_b\n")
            write_scores(handle, scores.psi_a, scores.psi_b)
        assert (tmp_path / "scan6_out.csv.scores.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_negative_bound_in_scientific_notation(self, tmp_path):
        data_path = _export_dgp(tmp_path, pi=5.0, n=100, seed=37, name="scan7.csv")
        out_path = str(tmp_path / "scan7_out.csv")
        argv = _scan_argv(data_path, 0.0, 10.0, 11, out_path)
        argv[argv.index("--theta-min") + 1] = "-1e1"
        assert main(argv) == 0
        assert float(_read_rows(out_path)[0]["theta"]) == -10.0

    def test_missing_out_directory_exits_2(self, tmp_path, capsys):
        data_path = _export_dgp(tmp_path, pi=5.0, n=100, seed=37, name="scan5.csv")
        capsys.readouterr()
        status = main([
            "scan", "--data", data_path, "--propensity", "known:0.5",
            "--theta-min", "-1", "--theta-max", "1", "--out", str(tmp_path / "nodir" / "s.csv"),
        ])
        assert status == 2
        _assert_one_error_line(capsys)

    def test_grid_too_large_to_allocate_exits_2_leaving_no_file(self, tmp_path, capsys):
        # 10^14 grid points need at least 1.1 PB of text, more than the
        # disk holds, so the grid is refused before anything is allocated.
        data_path = _export_dgp(tmp_path, pi=5.0, n=100, seed=38, name="scan6.csv")
        out_path = tmp_path / "out" / "s.csv"
        out_path.parent.mkdir()
        capsys.readouterr()
        status = main(_scan_argv(data_path, -1.0, 1.0, 10**14, str(out_path)))
        assert status == 2
        _assert_one_error_line(capsys)
        _assert_no_files(out_path.parent)

    def test_score_moments_that_overflow_exit_3_writing_nothing(self, tmp_path, capsys):
        out_path = tmp_path / "out" / "s.csv"
        out_path.parent.mkdir()
        status = main(_scan_argv(_huge_outcome_csv(tmp_path), -1.0, 1.0, 5, str(out_path)))
        assert status == 3
        _assert_one_error_line(capsys)
        _assert_no_files(out_path.parent)

    def test_outcomes_near_the_double_range_exit_3(self, tmp_path, capsys):
        out_path = tmp_path / "out" / "s.csv"
        argv = _scan_argv(_double_range_csv(tmp_path), -1.0, 1.0, 5, str(out_path))
        _exits_3_warning_nothing(capsys, argv, out_path.parent)

    def test_a_planted_point_set_is_caught_in_any_outcome_units(self, tmp_path, capsys, monkeypatch):
        # The point {phi_hat} where the set is an interval: the grid points
        # inside the interval lie outside the boundary band, in the
        # outcome's units or in units of 1e-9.
        def point(coeffs):
            return ConfidenceSet("point", coeffs.mb / coeffs.ma, coeffs.mb / coeffs.ma)

        monkeypatch.setattr(latescore.cli, "invert_score_test", point)
        data, schema = iv_data(2000, 3), CsvSchema(covariates=("x1", "x2"))
        counts = []
        for s in (1.0, 1e-9):
            path = str(tmp_path / f"y{s}.csv")
            write_csv(Dataset(y=data.y * s, a=data.a, z=data.z, x=data.x), path, schema)
            assert main([
                "scan", "--data", path, "--covariates", "x1,x2", "--propensity", "known:0.5", "--seed", "1",
                "--theta-min", repr(-10 * s), "--theta-max", repr(10 * s), "--out", str(tmp_path / "s.csv"),
            ]) == 0
            last = capsys.readouterr().out.splitlines()[1]
            assert last.startswith("mismatches outside boundary band: ")
            counts.append(int(last.rsplit(" ", 1)[1]))
        assert counts[0] > 0
        assert counts[1] == counts[0]

    def test_a_planted_whole_line_is_caught_where_the_quadratic_would_overflow(self, tmp_path, capsys, monkeypatch):
        # a*theta**2 overflows beyond |theta| of about 2.5e153 on these
        # data, while S_n stays defined up to about 1.3e154: every grid
        # point is a defined non-member that the planted set claims.
        monkeypatch.setattr(latescore.cli, "invert_score_test", lambda coeffs: ConfidenceSet("whole_line"))
        data_path = _export_dgp(tmp_path, pi=5.0, n=400, seed=41, name="d.csv")
        for theta_min, theta_max in ((1e150, 1.3e154), (-1.3e154, -1e150)):
            out_path = str(tmp_path / "s.csv")
            capsys.readouterr()
            assert main(_scan_argv(data_path, theta_min, theta_max, 101, out_path)) == 0
            assert "mismatches outside boundary band: 101\n" in capsys.readouterr().out
            assert all(line.endswith(",1,0") for line in Path(out_path).read_text().splitlines()[1:])

    @given(
        bounds=st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2, unique=True),
        points=st.sampled_from([2, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 3 * SCAN_BLOCK + 1])
        | st.integers(2, 3 * SCAN_BLOCK + 1),
    )
    # A width of two subnormal steps over 4,096 intervals: the step
    # underflows to 0, where linspace divides by them first.
    @example(bounds=[-5e-324, 5e-324], points=SCAN_BLOCK + 1)
    @example(bounds=[1.0, 1.0 + 2**-52], points=2)
    @settings(max_examples=150, deadline=None)
    def test_the_grid_is_linspace_bit_for_bit_in_blocks(self, bounds, points):
        theta_min, theta_max = sorted(bounds)
        assume(theta_min != theta_max)
        blocks = list(_grid(theta_min, theta_max, points))
        assert [b.size for b in blocks[:-1]] == [SCAN_BLOCK] * (len(blocks) - 1)
        assert 0 < blocks[-1].size <= SCAN_BLOCK
        expected = np.linspace(theta_min, theta_max, points)
        assert np.concatenate(blocks).view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_peak_memory_does_not_grow_with_grid_points(self, tmp_path):
        data_path = _export_dgp(tmp_path, pi=5.0, n=400, seed=41, name="d.csv")
        out = str(tmp_path / "s.csv")
        # A first run makes the lazy imports and caches, which later runs keep.
        assert main(_scan_argv(data_path, -10.0, 10.0, 11, out)) == 0
        peaks = []
        # Whole-grid arrays of these sizes differ by 720 KB.
        for points in (2 * SCAN_BLOCK + 1, 24 * SCAN_BLOCK + 1):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                assert main(_scan_argv(data_path, -10.0, 10.0, points, out)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 256_000, peaks

    def test_a_grid_whose_text_exceeds_the_free_space_exits_2_before_reading_data(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_fit(args):
            raise AssertionError("fitted a grid that cannot be written")

        monkeypatch.setattr("latescore.cli._fit_scores", no_fit)
        out_path = tmp_path / "out" / "s.csv"
        out_path.parent.mkdir()
        # 11 bytes a row at the least: about twice the free space.
        points = shutil.disk_usage(out_path.parent).free // 5
        capsys.readouterr()
        assert main(_scan_argv(str(tmp_path / "unread.csv"), -1.0, 1.0, points, str(out_path))) == 2
        _assert_one_error_line(capsys)
        _assert_no_files(out_path.parent)

    @pytest.mark.parametrize("points,status", [(5, 0), (6, 2)])
    def test_refused_when_the_shortest_grid_file_exceeds_the_free_space(
        self, tmp_path, capsys, monkeypatch, points, status
    ):
        # A 50-byte header and 11 bytes of each shortest row: 105 bytes for 5 points.
        asked = []

        def disk_usage(path):
            asked.append(path)
            return SimpleNamespace(free=105)

        monkeypatch.setattr(shutil, "disk_usage", disk_usage)
        data_path = _export_dgp(tmp_path, pi=5.0, n=100, seed=38, name="d.csv")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "s.csv"
        capsys.readouterr()
        assert main(_scan_argv(data_path, -1.0, 1.0, points, str(out))) == status
        assert asked == [os.path.realpath(out_dir)]
        if status == 0:
            assert len(_read_rows(out)) == points
        else:
            _assert_one_error_line(capsys)
            _assert_no_files(out_dir)

    def test_bad_grid_exits_2(self, tmp_path):
        data_path = _export_dgp(tmp_path, pi=5.0, n=100, seed=38, name="scan4.csv")
        status = main([
            "scan", "--data", data_path, "--theta-min", "1", "--theta-max", "0",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert status == 2

    def test_grid_width_beyond_double_range_exits_2_before_fitting(self, tmp_path, capsys, monkeypatch):
        def no_fit(args):
            raise AssertionError("fitted a grid that cannot be scanned")

        monkeypatch.setattr("latescore.cli._fit_scores", no_fit)
        out_path = tmp_path / "out" / "s.csv"
        out_path.parent.mkdir()
        assert main(_scan_argv(str(tmp_path / "unread.csv"), -1e308, 1e308, 5, str(out_path))) == 2
        _assert_one_error_line(capsys)
        _assert_no_files(out_path.parent)


class TestWeakIVLimit:
    def test_zero_sigma_all_draws_zero(self, tmp_path):
        out_path = str(tmp_path / "draws.csv")
        status = main([
            "weakiv-limit", "--ca", "1", "--cb", "1", "--s11", "0", "--s12", "0",
            "--s22", "0", "--samples", "200", "--seed", "0", "--out", out_path,
        ])
        assert status == 0
        rows = _read_rows(out_path)
        assert len(rows) == 200
        assert all(float(r["draw"]) == 0.0 for r in rows)

    def test_median_matches_independent_oracle(self, tmp_path):
        out_path = str(tmp_path / "draws.csv")
        status = main([
            "weakiv-limit", "--ca", "1", "--cb", "1", "--s11", "1", "--s12", "0",
            "--s22", "1", "--samples", "100000", "--seed", "5", "--out", out_path,
        ])
        assert status == 0
        draws = np.array([float(r["draw"]) for r in _read_rows(out_path)])
        rng = np.random.Generator(np.random.PCG64(77))
        e = rng.standard_normal((1_000_000, 2))
        oracle = (e[:, 1] - e[:, 0]) / (1.0 + e[:, 0])
        assert abs(np.median(draws) - np.median(oracle)) < 0.02

    def test_zero_ca_exits_2(self, tmp_path):
        status = main([
            "weakiv-limit", "--ca", "0", "--cb", "1", "--s11", "1", "--s12", "0",
            "--s22", "1", "--samples", "10", "--out", str(tmp_path / "d.csv"),
        ])
        assert status == 2

    @pytest.mark.parametrize("ca,cb", [("nan", "1"), ("1", "inf"), ("-inf", "1"), ("1", "nan")])
    def test_non_finite_means_exit_2(self, tmp_path, ca, cb):
        status = main([
            "weakiv-limit", f"--ca={ca}", f"--cb={cb}", "--s11", "1", "--s12", "0",
            "--s22", "1", "--samples", "10", "--out", str(tmp_path / "d.csv"),
        ])
        assert status == 2

    def test_missing_out_directory_exits_2(self, tmp_path, capsys):
        status = main([
            "weakiv-limit", "--ca", "1", "--cb", "1", "--s11", "1", "--s12", "0",
            "--s22", "1", "--samples", "10", "--out", str(tmp_path / "nodir" / "d.csv"),
        ])
        assert status == 2
        _assert_one_error_line(capsys)

    def test_samples_too_many_to_allocate_exit_2_leaving_no_file(self, tmp_path, capsys):
        # 10^14 draws take at least 400 TB of text, refused before any file is made.
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        status = main([
            "weakiv-limit", "--ca", "1", "--cb", "1", "--s11", "1", "--s12", "0",
            "--s22", "1", "--samples", str(10**14), "--out", str(out_dir / "d.csv"),
        ])
        assert status == 2
        _assert_one_error_line(capsys)
        _assert_no_files(out_dir)

    def test_negative_value_in_scientific_notation(self, tmp_path):
        paths = [str(tmp_path / "spaced.csv"), str(tmp_path / "joined.csv")]
        rest = ["--cb", "1", "--s11", "1", "--s12", "0", "--s22", "1", "--samples", "500", "--seed", "3"]
        assert main(["weakiv-limit", "--ca", "-1e-3", *rest, "--out", paths[0]]) == 0
        assert main(["weakiv-limit", "--ca=-1e-3", *rest, "--out", paths[1]]) == 0
        with open(paths[0], "rb") as spaced, open(paths[1], "rb") as joined:
            assert spaced.read() == joined.read()

    def test_a_following_option_is_not_a_value(self, tmp_path, capsys):
        assert main([
            "weakiv-limit", "--ca", "--cb", "1", "--s11", "1", "--s12", "0", "--s22", "1",
            "--out", str(tmp_path / "d.csv"),
        ]) == 2
        assert capsys.readouterr().err == "error: argument --ca: expected one argument\n"

    def test_draws_match_the_per_line_writer(self, tmp_path, reference_writers, reference_weak_limit):
        # Not a multiple of the writer's or the sampler's block, so the last
        # block of each is short.
        samples, seed = 1_000_003, 8
        out_path = tmp_path / "draws.csv"
        assert main([
            "weakiv-limit", "--ca", "0.03", "--cb", "0", "--s11", "1", "--s12", "4", "--s22", "16",
            "--samples", str(samples), "--seed", str(seed), "--out", str(out_path),
        ]) == 0
        cfg = WeakIVConfig(c_a=0.03, c_b=0.0, sigma_ab=np.array([[1.0, 4.0], [4.0, 16.0]]))
        draws = reference_weak_limit(cfg, np.random.Generator(np.random.PCG64(seed)), size=samples)
        write_draws, _, _ = reference_writers
        with open(tmp_path / "reference.csv", "w", newline="") as handle:
            handle.write("draw\n")
            write_draws(handle, draws)
        assert out_path.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("samples", [1, _LIMIT_BLOCK, _LIMIT_BLOCK + 1, 2 * _LIMIT_BLOCK + 3])
    def test_samples_each_block_once_and_writes_it_before_the_next(self, tmp_path, monkeypatch, samples):
        events = []

        def sample(cfg, rng, size):
            block = sample_weak_limit(cfg, rng, size)
            events.append(("sample", block))
            return block

        def write_rows(handle, column):
            events.append(("write", column))
            _write_rows(handle, column)

        monkeypatch.setattr("latescore.cli.sample_weak_limit", sample)
        monkeypatch.setattr("latescore.cli._write_rows", write_rows)
        out = tmp_path / "d.csv"
        assert main(["weakiv-limit", *self._FULL_RANK, "--samples", str(samples), "--out", str(out)]) == 0
        blocks = math.ceil(samples / _LIMIT_BLOCK)
        assert [kind for kind, _ in events] == ["sample", "write"] * blocks
        assert [block.size for _, block in events[::2]] == [
            min(_LIMIT_BLOCK, samples - lo) for lo in range(0, samples, _LIMIT_BLOCK)
        ]
        assert all(written is drawn for (_, drawn), (_, written) in zip(events[::2], events[1::2]))
        assert len(_read_rows(out)) == samples

    def test_non_psd_sigma_exits_2(self, tmp_path):
        status = main([
            "weakiv-limit", "--ca", "1", "--cb", "1", "--s11", "1", "--s12", "2",
            "--s22", "1", "--samples", "10", "--out", str(tmp_path / "d.csv"),
        ])
        assert status == 2

    _FULL_RANK = ["--ca", "0.03", "--cb", "0", "--s11", "1", "--s12", "4", "--s22", "16"]

    def test_peak_memory_does_not_grow_with_samples(self, tmp_path):
        out = str(tmp_path / "d.csv")
        # A first run makes the lazy imports and caches, which later runs keep.
        assert main(["weakiv-limit", *self._FULL_RANK, "--samples", "10", "--out", out]) == 0
        # Four and eight blocks: a writer that holds the draws at once peaks
        # above the bound at eight, a streaming one stays flat.
        for samples in (4 * _LIMIT_BLOCK, 8 * _LIMIT_BLOCK):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                assert main(["weakiv-limit", *self._FULL_RANK, "--samples", str(samples), "--out", out]) == 0
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= 4_000_000, samples

    @staticmethod
    def _fail_after_one_block():
        """A sampler stand-in that hands over one block, then runs out of memory."""
        calls = []

        def sample(cfg, rng, size):
            calls.append(size)
            if len(calls) > 1:
                raise MemoryError("Unable to allocate the next block")
            return np.ones(size)

        return sample

    @pytest.mark.parametrize("how", ["overflow", "after-a-block"])
    def test_a_failed_run_leaves_an_existing_out_as_it_was(self, tmp_path, capsys, monkeypatch, how):
        out = tmp_path / "d.csv"
        out.write_bytes(b"draw\n1.5\n")
        samples = 1000
        if how == "after-a-block":
            monkeypatch.setattr("latescore.cli.sample_weak_limit", self._fail_after_one_block())
            samples = _LIMIT_BLOCK + 1000
        status = main([
            "weakiv-limit", "--ca", "1e-150", "--cb", "1e200", "--s11", "1", "--s12", "0",
            "--s22", "1", "--samples", str(samples), "--out", str(out),
        ])
        assert status == 2
        _assert_one_error_line(capsys)
        assert out.read_bytes() == b"draw\n1.5\n"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("samples,status", [(23, 0), (24, 2)])
    def test_refused_when_the_shortest_file_exceeds_the_free_space(
        self, tmp_path, capsys, monkeypatch, samples, status
    ):
        # 5 bytes of header and 4 of each shortest row: 97 bytes for 23 draws.
        asked = []

        def disk_usage(path):
            asked.append(path)
            return SimpleNamespace(free=97)

        monkeypatch.setattr(shutil, "disk_usage", disk_usage)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "d.csv"
        assert main(["weakiv-limit", *self._FULL_RANK, "--samples", str(samples), "--out", str(out)]) == status
        assert asked == [os.path.realpath(out_dir)]
        if status == 0:
            assert len(_read_rows(out)) == samples
        else:
            _assert_one_error_line(capsys)
            _assert_no_files(out_dir)


# Each file a command writes: the command line that writes it into an output
# directory d, its name there, and the row writer and call of it that a
# failure is injected into: the call that writes the file's rows, or for
# scan's grid and weakiv-limit, which call the writer a block at a time, the
# second call.
_OUTPUTS = {
    "analyze --out": (
        lambda data, d: ["analyze", "--data", data, *_CELL_MEANS, "--out", f"{d}/t.csv"],
        "t.csv", "latescore.data._write_rows", 1,
    ),
    "scan --out": (
        lambda data, d: _scan_argv(data, -5.0, 5.0, SCAN_BLOCK + 5, f"{d}/t.csv"),
        "t.csv", "latescore.cli._write_rows", 2,
    ),
    "scan --dump-scores": (
        lambda data, d: [*_scan_argv(data, -5.0, 5.0, 11, f"{d}/t.csv"), "--dump-scores"],
        "t.csv.scores.csv", "latescore.data._write_rows", 1,
    ),
    "simulate replications.csv": (
        lambda data, d: ["simulate", "--n", "200", "--reps", "3", "--out-dir", d],
        "replications.csv", "latescore.data._write_rows", 1,
    ),
    "simulate summary.csv": (
        lambda data, d: ["simulate", "--n", "200", "--reps", "3", "--out-dir", d],
        "summary.csv", "latescore.data._write_rows", 2,
    ),
    "weakiv-limit --out": (
        lambda data, d: ["weakiv-limit", *TestWeakIVLimit._FULL_RANK, "--samples", str(_LIMIT_BLOCK + 10),
                         "--out", f"{d}/t.csv"],
        "t.csv", "latescore.cli._write_rows", 2,
    ),
}
_CELL_MEANS = ["--propensity", "known:0.5", "--g", "cellmean", "--r", "cellmean"]


@pytest.fixture(scope="module")
def output_data(tmp_path_factory):
    """A dataset of more than one writer's block of rows, so that a --dump-scores
    file is written in two."""
    return _export_dgp(tmp_path_factory.mktemp("data"), pi=5.0, n=SCAN_BLOCK + 100, seed=3, name="d.csv")


def _assert_one_error(capsys):
    """One error line; unlike _assert_one_error_line, progress lines printed
    before the failure are allowed."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _no_temporary_files(directory):
    return not [name for name in os.listdir(directory) if name.startswith(".")]


@pytest.mark.parametrize("output", list(_OUTPUTS))
class TestOutputFiles:
    """Every command writes its files one way: a regular file is replaced
    only once it is written in full, a device or a pipe takes the rows as
    they come."""

    @staticmethod
    def _written(output, data, directory):
        """The bytes ``output`` holds after a run into a fresh ``directory``."""
        argv, name, _, _ = _OUTPUTS[output]
        directory.mkdir()
        assert main(argv(data, str(directory))) == 0
        return (directory / name).read_bytes()

    def test_a_failed_run_leaves_an_existing_out_as_it_was(self, tmp_path, capsys, monkeypatch, output_data, output):
        argv, name, writer, failing = _OUTPUTS[output]
        calls = []

        def write_rows(handle, *columns):
            # Writes the first block of the failing call, then finds the disk full.
            calls.append(None)
            if len(calls) < failing:
                return _write_rows(handle, *columns)
            _write_rows(handle, *(column[:SCAN_BLOCK] for column in columns))
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(writer, write_rows)
        (tmp_path / name).write_bytes(b"kept\n")
        assert main(argv(output_data, str(tmp_path))) == 2
        _assert_one_error(capsys)
        assert len(calls) == failing
        assert (tmp_path / name).read_bytes() == b"kept\n"
        assert _no_temporary_files(tmp_path)

    def test_new_and_replaced_files_keep_the_permissions_open_gives(self, tmp_path, output_data, output):
        argv, name, _, _ = _OUTPUTS[output]
        new, existing = tmp_path / "new", tmp_path / "existing"
        existing.mkdir()
        (existing / name).write_text("")
        (existing / name).chmod(0o604)
        new.mkdir()
        umask = os.umask(0o027)
        try:
            for directory in (new, existing):
                assert main(argv(output_data, str(directory))) == 0
        finally:
            os.umask(umask)
        assert (new / name).stat().st_mode & 0o777 == 0o640
        assert (existing / name).stat().st_mode & 0o777 == 0o604

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_out_takes_the_rows_and_stays_a_pipe(self, tmp_path, output_data, output):
        # As /dev/stdout or /dev/null would: such a file is written, never replaced.
        argv, name, _, _ = _OUTPUTS[output]
        want = self._written(output, output_data, tmp_path / "file")
        directory = tmp_path / "pipe"
        directory.mkdir()
        pipe = directory / name
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
        reader.start()
        assert main(argv(output_data, str(directory))) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert got == [want]
        assert _no_temporary_files(directory)

    def test_a_directory_out_exits_2(self, tmp_path, capsys, output_data, output):
        argv, name, _, _ = _OUTPUTS[output]
        (tmp_path / name).mkdir()
        assert main(argv(output_data, str(tmp_path))) == 2
        _assert_one_error(capsys)
        assert list((tmp_path / name).iterdir()) == []
        assert _no_temporary_files(tmp_path)

    def test_a_symlinked_out_writes_its_target(self, tmp_path, output_data, output):
        argv, name, _, _ = _OUTPUTS[output]
        want = self._written(output, output_data, tmp_path / "file")
        target = tmp_path / "target.csv"
        target.write_text("")
        (tmp_path / "link").mkdir()
        link = tmp_path / "link" / name
        link.symlink_to(target)
        assert main(argv(output_data, str(tmp_path / "link"))) == 0
        assert link.is_symlink()
        assert target.read_bytes() == want
        assert _no_temporary_files(tmp_path) and _no_temporary_files(tmp_path / "link")


@pytest.mark.parametrize("output, names", [
    ("simulate summary.csv", ["replications.csv", "summary.csv"]),
    ("scan --dump-scores", ["t.csv", "t.csv.scores.csv"]),
])
def test_a_run_that_fails_in_its_last_file_leaves_every_file_as_it_was(
    tmp_path, capsys, monkeypatch, output_data, output, names
):
    # The first file is complete when the second finds the disk full; it
    # must not replace its old copy alone.
    argv, _, writer, failing = _OUTPUTS[output]
    calls = []

    def write_rows(handle, *columns):
        calls.append(None)
        if len(calls) < failing:
            return _write_rows(handle, *columns)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(writer, write_rows)
    for name in names:
        (tmp_path / name).write_bytes(b"kept\n")
    assert main(argv(output_data, str(tmp_path))) == 2
    _assert_one_error(capsys)
    assert len(calls) == failing
    assert [(tmp_path / name).read_bytes() for name in names] == [b"kept\n"] * 2
    assert _no_temporary_files(tmp_path)


@pytest.mark.parametrize("output", ["analyze --out", "scan --out", "weakiv-limit --out"])
@pytest.mark.parametrize("exists", [False, True])
def test_an_out_ending_in_a_separator_exits_2(tmp_path, capsys, output_data, output, exists):
    # As open refuses it: neither a new file nor an existing one of the name is written.
    argv, name, _, _ = _OUTPUTS[output]
    if exists:
        (tmp_path / name).write_bytes(b"kept\n")
    out = f"{tmp_path}/{name}"
    assert main([f"{arg}/" if arg == out else arg for arg in argv(output_data, str(tmp_path))]) == 2
    _assert_one_error(capsys)
    assert os.listdir(tmp_path) == ([name] if exists else [])
    if exists:
        assert (tmp_path / name).read_bytes() == b"kept\n"


class TestNegativeNumbers:
    @given(text=st.text(alphabet="0123456789._eE+-infatyINFATY \t\u0661\u2003", max_size=12))
    @settings(max_examples=500, deadline=None)
    def test_pattern_matches_what_float_parses(self, text):
        text = "-" + text
        try:
            float(text)
            parses = True
        except ValueError:
            parses = False
        assert bool(_NEGATIVE_NUMBER.match(text)) == parses

    @given(value=st.floats(max_value=-0.0))
    def test_every_negative_float_repr_is_a_value(self, value):
        assert _NEGATIVE_NUMBER.match(repr(value))


class TestEntryPoint:
    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err == "error: the following arguments are required: command\n"

    @pytest.mark.parametrize("argv", [
        ["weakiv-limit", "--ca", "1", "--cb", "0", "--s11", "1", "--s12", "0", "--s22", "1",
         "--seed", "-1e3", "--out", "d.csv"],
        ["analyze", "--data", "d.csv", "--g", "forest"],
        ["simulate", "--out-dir", "out", "--bogus"],
    ])
    def test_argument_errors_exit_2_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["analyze", "scan", "weakiv-limit"])
    def test_negative_seed_exits_2_before_reading_data(self, tmp_path, capsys, monkeypatch, command):
        def no_load(*args):
            raise AssertionError("load_csv was called")

        monkeypatch.setattr("latescore.cli.load_csv", no_load)
        data_path = _export_dgp(tmp_path, pi=5.0, n=100, seed=34, name="seed.csv")
        out_path = tmp_path / "out.csv"
        data = ["--data", data_path, "--propensity", "known:0.5", "--g", "cellmean", "--r", "cellmean"]
        argv = {
            "analyze": data,
            "scan": [*data, "--theta-min", "-1", "--theta-max", "1"],
            "weakiv-limit": ["--ca", "1", "--cb", "0", "--s11", "1", "--s12", "0", "--s22", "1"],
        }[command]
        status = main([command, *argv, "--seed", "-1", "--out", str(out_path)])
        assert status == 2
        _assert_one_error_line(capsys)
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["analyze", "scan"])
    @pytest.mark.parametrize("roles", [
        ["--outcome", "x1", "--covariates", "x1,x2"],
        ["--covariates", "x1,x1"],
        ["--instrument", "a"],
    ], ids=["outcome-and-covariate", "covariate-twice", "treatment-and-instrument"])
    def test_a_column_named_twice_exits_2_before_reading_data(self, tmp_path, capsys, monkeypatch, command, roles):
        def no_load(*args):
            raise AssertionError("load_csv was called")

        monkeypatch.setattr("latescore.cli.load_csv", no_load)
        out_path = tmp_path / "out.csv"
        argv = [command, "--data", str(tmp_path / "d.csv"), *roles, "--out", str(out_path)]
        if command == "scan":
            argv += ["--theta-min", "-1", "--theta-max", "1"]
        assert main(argv) == 2
        _assert_one_error_line(capsys)
        assert not out_path.exists()

    def test_a_memory_error_without_a_message_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("latescore.cli.sample_weak_limit", no_memory)
        status = main([
            "weakiv-limit", "--ca", "1", "--cb", "0", "--s11", "1", "--s12", "0", "--s22", "1",
            "--out", str(tmp_path / "d.csv"),
        ])
        assert status == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    @staticmethod
    def _python_m(*argv):
        src = str(Path(latescore.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-m", "latescore", *argv], capture_output=True, text=True, env=env, timeout=120
        )

    def test_python_m_runs_the_command_line(self, tmp_path):
        out = tmp_path / "d.csv"
        run = self._python_m(
            "weakiv-limit", "--ca", "1", "--cb", "0", "--s11", "1", "--s12", "0", "--s22", "1",
            "--samples", "10", "--out", str(out),
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert len(_read_rows(out)) == 10

    def test_draws_beyond_double_range_print_one_line_and_no_warning(self, tmp_path):
        # numpy warns of the overflow on stderr unless the sampler silences it.
        run = self._python_m(
            "weakiv-limit", "--ca", "1e-150", "--cb", "1e200", "--s11", "1", "--s12", "0",
            "--s22", "1", "--samples", "1000", "--out", str(tmp_path / "d.csv"),
        )
        assert run.returncode == 2
        assert run.stderr == "error: the limit parameters give draws beyond double range\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flags, name", [
        ("analyze", ["--g", "ols", "--propensity", "known:0.5"], "g1"),
        ("analyze", ["--g", "ols", "--propensity", "logit"], "g1"),
        ("analyze", ["--g", "cellmean", "--r", "cellmean", "--propensity", "logit"], "m1"),
        ("scan", ["--g", "ols", "--propensity", "known:0.5", "--theta-min", "-1", "--theta-max", "1"], "g1"),
    ])
    def test_covariates_near_the_double_range_exit_3_with_nothing_on_stdout(self, tmp_path, command, flags, name):
        # An OLS Gram matrix, or a logistic Hessian, of such covariates
        # overflows; cell means split on their sign alone.  LAPACK prints its
        # own argument checks to file descriptor 1, which only the output of
        # a child process is sure to show.
        rng = np.random.default_rng(0)
        n = 400
        a, z = (rng.random(n) < 0.5).astype(int), (rng.random(n) < 0.5).astype(int)
        data = Dataset(y=rng.standard_normal(n), a=a, z=z, x=1e307 * rng.standard_normal((n, 1)))
        data_path = str(tmp_path / "wide.csv")
        write_csv(data, data_path, CsvSchema(covariates=("x1",)))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        run = self._python_m(command, "--data", data_path, *flags, "--out", str(out_dir / "o.csv"))
        assert (run.returncode, run.stdout) == (3, "")
        assert run.stderr == f"error: {name} contains non-finite predictions\n"
        assert list(out_dir.iterdir()) == []

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--help"])
        assert exc.value.code == 0
        assert "--data" in capsys.readouterr().out


# Flag values at the edges of each command's domain: non-finite and
# out-of-range numbers, values that overflow or underflow in the
# statistics, and ordinary ones.
_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "0", "1", "0.03", "-2", "1e-300", "1e200", "4"])


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    write_csv(dgp_generate(DgpParams(pi=5.0, n=200), seed=40), str(root / "strong.csv"))
    (root / "degenerate.csv").write_text(
        "y,a,z,x1\n" + "".join(f"0.0,0,{i % 2},0.5\n" for i in range(40))
    )
    (root / "file").write_text("")
    (root / "not_utf8.csv").write_bytes(b"y,a,z,x1\n1,0,1,2\n3,1,0,\xff\n")
    (root / "blank_line.csv").write_text(
        "y,a,z,x1\n" + "".join(f"{i}.5,{i % 2},{i // 2 % 2},0.25\n" for i in range(20)) + "\n1,0,1,2\n"
    )
    return root


def _argv(draw, root):
    """One command line for any of the four commands, drawn from edge values."""
    out = str(root / draw(st.sampled_from(["out.csv", "nodir/out.csv"])))
    command = draw(st.sampled_from(["analyze", "scan", "simulate", "weakiv-limit"]))
    if command == "weakiv-limit":
        flags = [f"--{name}={draw(_NUMBERS)}" for name in ("ca", "cb", "s11", "s12", "s22")]
        samples = draw(st.sampled_from(["0", "1", "50"]))
        return [command, *flags, "--samples", samples, "--out", out]
    alpha = draw(st.sampled_from(["0.05", "0.5"]) | _NUMBERS)
    if command == "simulate":
        setting = draw(st.sampled_from(["weak", "strong", "custom"]))
        out_dir = str(root / draw(st.sampled_from(["study", "file/study"])))
        # --pi is refused outside the custom setting, so it is drawn mostly there.
        pi = [f"--pi={draw(_NUMBERS)}"] if setting == "custom" or draw(st.booleans()) else []
        return [
            command, "--setting", setting, *pi,
            "--n", draw(st.sampled_from(["1", "60", "60,80", "abc"])),
            "--reps", draw(st.sampled_from(["0", "1", "2"])), f"--alpha={alpha}", "--out-dir", out_dir,
        ]
    argv = [
        command, "--data", str(root / draw(st.sampled_from(
            ["strong.csv", "degenerate.csv", "absent.csv", "not_utf8.csv", "blank_line.csv"]
        ))),
        "--covariates", draw(st.sampled_from(["", "x1", "x1,nope"])),
        "--g", draw(st.sampled_from(["ols", "cellmean"])),
        "--r", draw(st.sampled_from(["logit", "cellmean"])),
        "--propensity", draw(st.sampled_from(["logit", "known:0.5", "known:nan", "known:1"])),
        f"--alpha={alpha}", "--folds", draw(st.sampled_from(["2", "5"])),
    ]
    if command == "scan":
        return argv + [
            f"--theta-min={draw(_NUMBERS)}", f"--theta-max={draw(_NUMBERS)}",
            "--grid-points", draw(st.sampled_from(["1", "2", "11"])), "--out", out,
        ]
    return argv + ["--out", draw(st.sampled_from([out, ""]))]


def _error_classes(base):
    """The subclasses of ``base`` in latescore.errors, recursively, once each."""
    found = [cls for cls in base.__subclasses__() if cls.__module__ == errors.__name__]
    return list(dict.fromkeys(each for cls in found for each in (cls, *_error_classes(cls))))


_ERROR_CLASSES = _error_classes(errors.LatescoreError)


class TestErrorClasses:
    """Each error class belongs to one family, whose exit status main returns."""

    def test_the_walk_finds_every_class_the_module_defines(self):
        defined = {v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, errors.LatescoreError)}
        assert set(_ERROR_CLASSES) == defined - {errors.LatescoreError}

    @pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_each_class_has_exactly_one_exit_status(self, tmp_path, capsys, monkeypatch, cls):
        degenerate = issubclass(cls, errors.DegenerateDataError)
        assert degenerate != issubclass(cls, errors.InvalidConfigError)

        def fail(*args, **kwargs):
            raise cls("planted")

        monkeypatch.setattr("latescore.cli.sample_weak_limit", fail)
        status = main([
            "weakiv-limit", "--ca", "1", "--cb", "0", "--s11", "1", "--s12", "0", "--s22", "1",
            "--samples", "10", "--out", str(tmp_path / "d.csv"),
        ])
        assert status == (3 if degenerate else 2)
        assert capsys.readouterr().err == "error: planted\n"


class TestExitContract:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_command_line_exits_0_2_or_3(self, contract_dir, data):
        argv = _argv(data.draw, contract_dir)
        status = main(argv)
        assert status in (0, 2, 3), argv
        if argv[0] == "weakiv-limit" and status == 0:
            draws = [float(r["draw"]) for r in _read_rows(argv[-1])]
            assert len(draws) == int(argv[argv.index("--samples") + 1])
            assert all(math.isfinite(v) for v in draws), argv

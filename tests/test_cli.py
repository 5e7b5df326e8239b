"""Command-line interface: flags, file contracts, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import chaincombine
from chaincombine import (
    CombinedSamples,
    MhConfig,
    SubposteriorBundle,
    harness,
    run_chains,
    simulate_gamma_data,
    simulate_logistic_data,
)
from chaincombine.cli import LOGISTIC_BETA, main
from chaincombine.io import read_bundle, read_matrix, write_bundle, write_samples


def run_python(*args):
    """A fresh interpreter on this package: ``python *args``, output captured."""
    src = str(Path(chaincombine.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)


def test_import_loads_numpy_only():
    # Every CLI call is its own process, so the import is paid each time;
    # the package runs on numpy alone and must not pull scipy in.
    code = ("import sys, chaincombine, chaincombine.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_import_starts_no_process_pool():
    # Only run_chains forks, and it imports the pool modules itself, so
    # combine, metric and library callers with their own draws skip them.
    code = ("import sys, chaincombine, chaincombine.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.fixture
def bundle_manifest(tmp_path):
    rng = np.random.default_rng(0)
    values = 0.05 * rng.standard_normal((2, 200, 3)) + np.array([1.0, -2.0])[:, None, None]
    manifest_path = tmp_path / "bundle.json"
    write_bundle(SubposteriorBundle(values), manifest_path)
    return manifest_path


class TestCombineCommand:
    def test_sample_avg_shape_contract(self, tmp_path, bundle_manifest):
        out = tmp_path / "combined.csv"
        code = main(["combine", "--method", "sample-avg",
                     "--bundle", str(bundle_manifest), "--out", str(out)])
        assert code == 0
        matrix = read_matrix(out)
        assert matrix.shape == (200, 2)  # T rows, d columns

    @pytest.mark.parametrize("method", ["consensus-indep", "consensus-cov"])
    def test_consensus_methods_run(self, tmp_path, bundle_manifest, method):
        out = tmp_path / "combined.csv"
        assert main(["combine", "--method", method,
                     "--bundle", str(bundle_manifest), "--out", str(out)]) == 0
        assert read_matrix(out).shape == (200, 2)

    def test_dpe_no_anneal_with_bandwidths(self, tmp_path, bundle_manifest):
        out = tmp_path / "combined.csv"
        code = main(["combine", "--method", "semiparam-dpe", "--no-anneal",
                     "--bandw", "1.0,1.0", "--seed", "3",
                     "--bundle", str(bundle_manifest), "--out", str(out)])
        assert code == 0
        assert read_matrix(out).shape == (200, 2)

    def test_discard_drops_leading_draws(self, tmp_path, bundle_manifest):
        out = tmp_path / "combined.csv"
        code = main(["combine", "--method", "semiparam-dpe", "--discard", "50",
                     "--bundle", str(bundle_manifest), "--out", str(out)])
        assert code == 0
        assert read_matrix(out).shape == (150, 2)

    def test_discard_rejected_for_linear_methods(self, tmp_path, bundle_manifest, capsys):
        out = tmp_path / "combined.csv"
        code = main(["combine", "--method", "sample-avg", "--discard", "10",
                     "--bundle", str(bundle_manifest), "--out", str(out)])
        assert code == 2
        assert "error: DimensionMismatch" in capsys.readouterr().err

    def test_discard_past_the_end_fails_before_sampling(self, tmp_path, bundle_manifest,
                                                        capsys, monkeypatch):
        def sample(*args):
            pytest.fail("combine ran the sampler before it checked --discard")

        monkeypatch.setattr("chaincombine.cli.semiparametric_dpe", sample)
        code = main(["combine", "--method", "semiparam-dpe", "--discard", "200",
                     "--bundle", str(bundle_manifest), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error: DimensionMismatch: --discard must lie in [0, 200)" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self, tmp_path, bundle_manifest):
        with pytest.raises(SystemExit) as excinfo:
            main(["combine", "--method", "bogus",
                  "--bundle", str(bundle_manifest), "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 1

    def test_missing_bundle_is_validation_error(self, tmp_path, capsys):
        code = main(["combine", "--method", "sample-avg",
                     "--bundle", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error: FileMissing" in capsys.readouterr().err

    @pytest.mark.parametrize("constant", [1.0, 0.7])
    def test_constant_machine_is_validation_error(self, tmp_path, capsys, constant):
        # One machine entirely constant: its variances are zero.  The mean of
        # n copies of 0.7 is not exactly 0.7 in floating point, so the value
        # matters: a computed mean would leave tiny positive variances.
        values = np.full((2, 50, 2), constant)
        values[:, :, 0] = np.random.default_rng(1).standard_normal((2, 50))
        manifest = tmp_path / "bad.json"
        write_bundle(SubposteriorBundle(values), manifest)
        code = main(["combine", "--method", "semiparam-dpe",
                     "--bundle", str(manifest), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error: DegenerateChain" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["consensus-cov", "semiparam-dpe"])
    def test_collinear_machine_is_numerical_error(self, tmp_path, capsys, method):
        # Machine 1 draws -1, 0, 1 in both components: positive variances, but
        # its covariance [[1, 1], [1, 1]] is singular.
        values = np.random.default_rng(1).standard_normal((2, 3, 2))
        values[:, :, 1] = [-1.0, 0.0, 1.0]
        manifest = tmp_path / "collinear.json"
        write_bundle(SubposteriorBundle(values), manifest)
        code = main(["combine", "--method", method,
                     "--bundle", str(manifest), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "error: SingularCovariance" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_partly_constant_machine_is_validation_error(self, tmp_path, capsys):
        # Only component 0 of machine 1 is constant: still a degenerate chain.
        values = np.random.default_rng(2).standard_normal((2, 500, 3))
        values[0, :, 1] = 0.7
        manifest = tmp_path / "partly.json"
        write_bundle(SubposteriorBundle(values), manifest)
        code = main(["combine", "--method", "semiparam-dpe",
                     "--bundle", str(manifest), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error: DegenerateChain" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["", "\n\n", " \n\t\n"])
    def test_empty_machine_file_is_parse_error(self, tmp_path, bundle_manifest, capsys,
                                               content):
        # numpy's loadtxt only warns on a file without data and returns a
        # 0 x 1 array.  The warning must not reach the caller: under an
        # error filter it used to escape as a traceback.
        (bundle_manifest.parent / "machine_2.csv").write_text(content)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["combine", "--method", "sample-avg",
                         "--bundle", str(bundle_manifest), "--out", str(tmp_path / "x.csv")])
        assert code == 2 and caught == []
        err = capsys.readouterr().err
        assert "error: ParseError" in err and "machine_2.csv" in err


class TestMetricCommand:
    def test_identical_files_all_zero(self, tmp_path, bundle_manifest, capsys):
        combined = tmp_path / "combined.csv"
        main(["combine", "--method", "sample-avg",
              "--bundle", str(bundle_manifest), "--out", str(combined)])
        code = main(["metric", "--full", str(combined), "--combined", str(combined)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "parameter,relative_l2"
        assert lines[1] == "1,0.000000"
        assert lines[2] == "2,0.000000"

    def test_density_out_masses_near_one(self, tmp_path, bundle_manifest, capsys):
        combined = tmp_path / "combined.csv"
        other = tmp_path / "other.csv"
        main(["combine", "--method", "sample-avg",
              "--bundle", str(bundle_manifest), "--out", str(combined)])
        main(["combine", "--method", "consensus-indep",
              "--bundle", str(bundle_manifest), "--out", str(other)])
        stem = tmp_path / "density.csv"
        code = main(["metric", "--full", str(combined), "--combined", str(other),
                     "--density-out", str(stem)])
        assert code == 0
        for i in (1, 2):
            table = read_matrix(tmp_path / f"density.p{i}.csv")
            grid, p_full, p_comb = table.T
            assert np.trapezoid(p_full, grid) == pytest.approx(1.0, abs=0.02)
            assert np.trapezoid(p_comb, grid) == pytest.approx(1.0, abs=0.02)

    def test_unwritable_density_out_leaves_stdout_empty(self, tmp_path, bundle_manifest,
                                                        capsys):
        # Density files are written before anything is printed.
        combined = tmp_path / "combined.csv"
        main(["combine", "--method", "sample-avg",
              "--bundle", str(bundle_manifest), "--out", str(combined)])
        capsys.readouterr()
        stem = tmp_path / "missing" / "d.csv"
        code = main(["metric", "--full", str(combined), "--combined", str(combined),
                     "--density-out", str(stem)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and str(tmp_path / "missing" / "d.p1.csv") in err

    def test_shape_mismatch_rejected(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        np.savetxt(a, np.random.default_rng(2).standard_normal((50, 2)), delimiter=",")
        np.savetxt(b, np.random.default_rng(3).standard_normal((50, 3)), delimiter=",")
        code = main(["metric", "--full", str(a), "--combined", str(b)])
        assert code == 2
        assert "error: DimensionMismatch" in capsys.readouterr().err

    def test_empty_combined_file_is_parse_error(self, tmp_path, capsys):
        full = tmp_path / "full.csv"
        empty = tmp_path / "empty.csv"
        np.savetxt(full, np.random.default_rng(2).standard_normal((50, 2)), delimiter=",")
        empty.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["metric", "--full", str(full), "--combined", str(empty)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: ParseError" in err and "empty.csv" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("which", ["full", "combined"])
    def test_non_finite_draw_is_validation_error(self, tmp_path, capsys, which, bad):
        paths = {name: tmp_path / f"{name}.csv" for name in ("full", "combined")}
        rng = np.random.default_rng(4)
        for path in paths.values():
            np.savetxt(path, rng.standard_normal((50, 2)), delimiter=",")
        rows = paths[which].read_text().splitlines()
        rows[7] = f"0.5,{bad}"
        paths[which].write_text("\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["metric", "--full", str(paths["full"]),
                         "--combined", str(paths["combined"])])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: NonFiniteValue" in err and f"{which}.csv" in err

    @pytest.mark.parametrize("value", [0.3, 2.1, 0.7])
    def test_constant_marginal_is_validation_error(self, tmp_path, capsys, value):
        # The rounded mean of 500 copies of 0.3 or 2.1 is not the value, so a
        # test on the computed sd let them through with exit 0; 0.7 failed
        # only after parameter 1 was printed.  No partial CSV either way.
        full = tmp_path / "full.csv"
        combined = tmp_path / "combined.csv"
        rng = np.random.default_rng(6)
        np.savetxt(full, rng.standard_normal((500, 2)), delimiter=",")
        draws = np.column_stack([rng.standard_normal(500), np.full(500, value)])
        np.savetxt(combined, draws, delimiter=",")
        code = main(["metric", "--full", str(full), "--combined", str(combined)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: DegenerateChain" in err


class TestHarnessCommand:
    def test_gamma_run_writes_all_outputs(self, tmp_path):
        out_dir = tmp_path / "run"
        code = main(["harness", "--model", "gamma", "--n", "2000", "--shards", "3",
                     "--iters", "400", "--burnin", "100", "--seed", "5",
                     "--out-dir", str(out_dir)])
        assert code == 0
        bundle = read_bundle(out_dir / "bundle.json")
        assert (bundle.d, bundle.T, bundle.M) == (2, 400, 3)
        full = read_matrix(out_dir / "full_chain.csv")
        assert full.shape == (400, 2)
        record = json.loads((out_dir / "run.json").read_text())
        assert record["model"] == "gamma"
        assert record["seed"] == 5
        assert record["alpha_true"] == 4.0

    def test_logistic_run_shapes(self, tmp_path):
        out_dir = tmp_path / "run"
        code = main(["harness", "--model", "logistic", "--n", "1500", "--shards", "3",
                     "--iters", "300", "--burnin", "100", "--seed", "6",
                     "--out-dir", str(out_dir)])
        assert code == 0
        bundle = read_bundle(out_dir / "bundle.json")
        assert (bundle.d, bundle.T, bundle.M) == (5, 300, 3)
        record = json.loads((out_dir / "run.json").read_text())
        assert record["beta_true"] == [0.47, -1.70, 0.54, -0.90, 0.86]

    @pytest.mark.parametrize("model", ["gamma", "logistic"])
    def test_run_record_keeps_acceptance_rates(self, tmp_path, model):
        # One post-burn-in rate per shard chain, then the full-data chain's.
        out_dir = tmp_path / "run"
        code = main(["harness", "--model", model, "--n", "1500", "--shards", "3",
                     "--iters", "300", "--burnin", "100", "--seed", "7",
                     "--out-dir", str(out_dir)])
        assert code == 0
        rates = json.loads((out_dir / "run.json").read_text())["acceptance_rates"]
        assert len(rates) == 3 + 1
        assert all(0.0 <= rate <= 1.0 for rate in rates)

    def test_separable_shard_is_validation_error(self, tmp_path, capsys):
        # Four rows and five covariates: each shard's outcomes are
        # separable, so its flat-prior posterior is improper and the chain
        # would wander off to draws of order 1e15.
        code = main(["harness", "--model", "logistic", "--n", "20", "--shards", "5",
                     "--iters", "50", "--burnin", "10", "--out-dir", str(tmp_path / "run")])
        assert code == 2
        assert "error: DegenerateChain" in capsys.readouterr().err
        assert not (tmp_path / "run" / "bundle.json").exists()

    def test_start_outside_prior_is_validation_error(self, tmp_path, capsys):
        # Rate 40000 gives a data sd of about 5e-5, below the Uniform(1e-4, 1e4)
        # prior on sd: the chains would start, and stay, where the prior is zero.
        code = main(["harness", "--model", "gamma", "--n", "2000", "--beta", "40000",
                     "--iters", "200", "--burnin", "50", "--out-dir", str(tmp_path / "run")])
        assert code == 2
        assert "error: DegenerateChain" in capsys.readouterr().err
        assert not (tmp_path / "run" / "bundle.json").exists()

    @pytest.mark.parametrize("model", ["gamma", "logistic"])
    def test_worker_written_files_equal_the_returned_arrays(self, tmp_path, monkeypatch, model):
        # Two workers write the machine files and the full chain: the bytes
        # write_bundle and write_samples give the arrays run_chains returns.
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
        assert main(["harness", "--model", model, "--n", "1500", "--shards", "3",
                     "--iters", "200", "--burnin", "50", "--seed", "9",
                     "--out-dir", str(tmp_path / "cli")]) == 0
        rows = (simulate_logistic_data(1500, LOGISTIC_BETA, seed=9) if model == "logistic"
                else simulate_gamma_data(1500, 4.0, 2.0, seed=9))
        bundle, full, _ = run_chains(model, rows, 3, MhConfig(iterations=200, burnin=50, seed=9))
        write_bundle(bundle, tmp_path / "arrays" / "bundle.json", seed=9)
        write_samples(tmp_path / "arrays" / "full_chain.csv", CombinedSamples(full))
        for name in ("bundle.json", "machine_1.csv", "machine_2.csv", "machine_3.csv",
                     "full_chain.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == \
                (tmp_path / "arrays" / name).read_bytes()

    def test_failed_rerun_leaves_no_manifest(self, tmp_path):
        # A rerun whose worker cannot write machine_2.csv, after other
        # workers rewrote theirs: exit 2 naming that path, and no manifest
        # or run record left to name a mix of the two runs' files.
        argv = ["-m", "chaincombine", "harness", "--model", "gamma", "--n", "1000",
                "--shards", "3", "--iters", "100", "--burnin", "20", "--out-dir", str(tmp_path)]
        assert main(argv[2:]) == 0
        blocker = tmp_path / "machine_2.csv"
        blocker.unlink()
        blocker.mkdir()
        rerun = run_python(*argv, "--seed", "1")
        assert rerun.returncode == 2
        assert rerun.stderr.startswith("error: IsADirectoryError: ")
        assert str(blocker) in rerun.stderr and "Traceback" not in rerun.stderr
        assert not (tmp_path / "bundle.json").exists()
        assert not (tmp_path / "run.json").exists()

    def test_end_to_end_pipeline(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        main(["harness", "--model", "gamma", "--n", "2000", "--shards", "2",
              "--iters", "300", "--burnin", "100", "--seed", "8",
              "--out-dir", str(out_dir)])
        combined = tmp_path / "combined.csv"
        assert main(["combine", "--method", "consensus-cov", "--shuff", "--seed", "8",
                     "--bundle", str(out_dir / "bundle.json"),
                     "--out", str(combined)]) == 0
        assert main(["metric", "--full", str(out_dir / "full_chain.csv"),
                     "--combined", str(combined)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + one row per parameter


def test_module_entry_point_exit_codes(tmp_path, bundle_manifest):
    # python -m chaincombine passes main()'s exit code, or argparse's, to the shell.
    usage = run_python("-m", "chaincombine", "harness", "--model", "gamma", "--iters", "1",
                       "--out-dir", str(tmp_path / "run"))
    assert usage.returncode == 1
    assert "error: UsageError: " in usage.stderr and "Traceback" not in usage.stderr
    (tmp_path / "blocker").write_text("")
    blocked = run_python("-m", "chaincombine", "combine", "--method", "sample-avg",
                         "--bundle", str(bundle_manifest),
                         "--out", str(tmp_path / "blocker" / "x.csv"))
    assert blocked.returncode == 2, blocked.stderr


@pytest.mark.parametrize("blocker", ["regular-file", "read-only-dir", "dev-full"])
@pytest.mark.parametrize("command", ["harness", "combine"])
def test_unwritable_output_path_is_validation_error(tmp_path, bundle_manifest, capsys,
                                                    monkeypatch, command, blocker):
    # Exit 2 with an error that names the path, not an OSError traceback.
    # /dev/full opens but fails the write, which names no file by itself.
    if blocker == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        out_dir = out_file = "/dev/full"
    else:
        parent = tmp_path / "blocker"
        if blocker == "regular-file":
            parent.write_text("")
        else:
            parent.mkdir(mode=0o500)
            if os.access(parent, os.W_OK):
                pytest.skip("this user can write to read-only directories")
        out_dir, out_file = str(parent / "x"), str(parent / "x.csv")

    def sample(*args):
        pytest.fail("harness sampled before it made its output directory")

    monkeypatch.setattr("chaincombine.cli.run_chains", sample)
    argv = {
        "harness": ["harness", "--model", "gamma", "--n", "60", "--shards", "2", "--iters", "20",
                    "--burnin", "5", "--out-dir", out_dir],
        "combine": ["combine", "--method", "semiparam-dpe", "--bundle", str(bundle_manifest),
                    "--out", out_file],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and {"harness": out_dir, "combine": out_file}[command] in err


@pytest.mark.parametrize("argv", [
    ["harness", "--iters", "1"],
    ["harness", "--burnin", "-1"],
    ["harness", "--thin", "0"],
    ["harness", "--n", "0"],
    ["harness", "--n", "-5"],
    ["harness", "--model", "gamma", "--alpha", "-1"],
    ["harness", "--seed", "-3"],
    ["harness", "--shards", "0"],
    ["harness", "--shards", "-2"],
    ["combine", "--seed", "-1"],
    ["combine", "--shuff", "--seed", "-1"],
    ["combine", "--discard", "-1"],
    ["combine", "--bandw", "abc"],
    ["combine", "--bandw", ","],
], ids=" ".join)
def test_bad_argument_value_is_usage_error(tmp_path, bundle_manifest, capsys, argv):
    # The parser rejects each value: exit 1 with a usage line, never a
    # traceback, and nothing written.
    out = tmp_path / "out"
    command = {
        "harness": ["harness", "--model", "logistic", "--n", "200", "--iters", "20",
                    "--burnin", "5", "--out-dir", str(out)],
        "combine": ["combine", "--method", "semiparam-dpe", "--bundle", str(bundle_manifest),
                    "--out", str(out / "combined.csv")],
    }[argv[0]]
    with pytest.raises(SystemExit) as excinfo:
        main(command + argv[1:])
    assert excinfo.value.code == 1
    assert f"error: UsageError: argument {argv[-2]}: " in capsys.readouterr().err
    assert not out.exists()

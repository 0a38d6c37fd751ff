import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isohash
from isohash import admm, cli, metrics
from isohash.baselines import lsh_model
from isohash.core import map_tiles
from isohash.dataio import gen_random_dataset, load_any, load_model, save_binary, save_model

PACKAGE_ROOT = str(Path(isohash.__file__).resolve().parent.parent)


def run_cli(*args, cwd):
    """Run ``python -m isohash`` in a child process.

    ``cwd`` is a temporary directory because the CLI writes its manifests
    and CSVs into its working directory. A relative ``PYTHONPATH=src``
    would resolve against that directory, so the child gets the absolute
    root of the ``isohash`` under test first, then the parent's
    ``PYTHONPATH``; the rest of the environment passes through.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "isohash", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "random.ds"
    save_binary(gen_random_dataset(60, 16, seed=5), path)
    return path


class TestTrain:
    def test_nibh_smoke(self, dataset_file, tmp_path):
        out = tmp_path / "m.model"
        res = run_cli(
            "train", "--data", str(dataset_file), "--algo", "nibh",
            "--bits", "8", "--max-iters", "10", "--out", str(out),
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)  # stdout is exactly one JSON document
        assert np.isfinite(doc["delta"])
        assert doc["distance_convention"] == "unsquared-l2"
        assert out.exists()
        assert (tmp_path / "m.model.manifest.json").exists()
        man = json.loads((tmp_path / "m.model.manifest.json").read_text())
        assert man["command"] == "train"
        assert "train" in man["timings_sec"]
        assert man["dataset_fingerprints"]["data"]

    def test_divergence_exits_4_and_writes_model(self, dataset_file, tmp_path,
                                                 monkeypatch, capsys):
        # the guard trips at the second iteration, whose sup loss is always
        # above half the running minimum
        monkeypatch.setattr(admm, "_DIVERGENCE_FACTOR", 0.5)
        monkeypatch.setattr(admm, "_DIVERGENCE_PATIENCE", 2)
        out = tmp_path / "m.model"
        code = cli.main([
            "train", "--data", str(dataset_file), "--algo", "nibh",
            "--bits", "8", "--max-iters", "10", "--out", str(out),
        ])
        assert code == cli.EXIT_DIVERGED == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["diverged"] and doc["iterations"] == 2
        assert load_model(out).lam == doc["lambda"]
        assert (tmp_path / "m.model.manifest.json").exists()

    def test_nibh_cg_manifest_records_cg_config_and_argv(self, dataset_file,
                                                         tmp_path, monkeypatch,
                                                         capsys):
        # the manifest holds the argv given to main, not the host program's
        monkeypatch.setattr(sys, "argv", ["prog", "--flag"])
        out = tmp_path / "m.model"
        argv = ["train", "--data", str(dataset_file), "--algo", "nibh-cg",
                "--bits", "4", "--max-iters", "3", "--init-sample", "100",
                "--violator-batch", "50", "--max-gens", "2", "--seed", "3",
                "--out", str(out)]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.isfinite(doc["delta"]) and doc["iterations"] <= 2
        man = json.loads((tmp_path / "m.model.manifest.json").read_text())
        assert man["argv"] == argv
        assert man["config"]["cg"] == {"init_sample_size": 100,
                                       "violator_batch": 50,
                                       "max_generations": 2, "scan_seed": 3}

    def test_bre_on_too_few_pairs_usage_error(self, tmp_path):
        csv = tmp_path / "pts.csv"
        csv.write_text("".join(f"{i}.0,{i * i}.0\n" for i in range(5)))
        res = run_cli("train", "--data", str(csv), "--algo", "nibh", "--bits", "4",
                      "--secants", "bre", "--out", str(tmp_path / "m.model"),
                      cwd=tmp_path)
        assert res.returncode == 2
        assert "select zero secants" in res.stderr
        assert "Traceback" not in res.stderr

    def test_normalized_zero_row_exits_3(self, tmp_path):
        pts = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, 0.0]], dtype="<f4")
        path = tmp_path / "z.ds"
        path.write_bytes(b"NIBHDS1" + struct.pack("<QQB", 3, 2, 1) + pts.tobytes())
        res = run_cli("train", "--data", str(path), "--bits", "4",
                      "--out", str(tmp_path / "m.model"), cwd=tmp_path)
        assert res.returncode == 3
        assert "row 2 is zero" in res.stderr and "Traceback" not in res.stderr

    def test_nibh_cg_reports_the_delta_training_measured(
            self, dataset_file, tmp_path, monkeypatch, capsys):
        out = tmp_path / "m.model"
        with monkeypatch.context() as mp:
            # train_nibh_cg measures through its own binding; the command
            # itself must not scan again
            def rescan(*args, **kwargs):
                raise AssertionError("cmd_train rescanned every pair")

            mp.setattr(metrics, "max_distortion", rescan)
            assert cli.main([
                "train", "--data", str(dataset_file), "--algo", "nibh-cg",
                "--bits", "6", "--max-iters", "3", "--init-sample", "200",
                "--violator-batch", "50", "--max-gens", "3", "--out", str(out),
            ]) == 0
        trained = json.loads(capsys.readouterr().out)
        assert cli.main(["eval", "--model", str(out), "--data", str(dataset_file),
                         "--metric", "delta",
                         "--manifest", str(tmp_path / "eval.json")]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] == trained["delta"]

    def test_lsh_same_seed_identical_models(self, dataset_file, tmp_path):
        outs = []
        for name in ("a.model", "b.model"):
            out = tmp_path / name
            res = run_cli(
                "train", "--data", str(dataset_file), "--algo", "lsh",
                "--bits", "6", "--seed", "7", "--out", str(out),
                cwd=tmp_path,
            )
            assert res.returncode == 0, res.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_dataset_exits_3(self, tmp_path):
        res = run_cli(
            "train", "--data", str(tmp_path / "nope.ds"), "--bits", "4",
            "--out", str(tmp_path / "m.model"), cwd=tmp_path,
        )
        assert res.returncode == 3
        assert "nope.ds" in res.stderr

    def test_non_finite_csv_exits_3(self, tmp_path):
        csv = tmp_path / "pts.csv"
        csv.write_text("0.0,1.0\n1.0,inf\n2.0,0.5\n")
        res = run_cli("train", "--data", str(csv), "--algo", "lsh", "--bits", "4",
                      "--out", str(tmp_path / "m.model"), cwd=tmp_path)
        assert res.returncode == 3
        assert "non-finite value at line 2" in res.stderr
        assert "Traceback" not in res.stderr

    def test_conflicting_flags_usage_error(self, dataset_file, tmp_path):
        res = run_cli(
            "train", "--data", str(dataset_file), "--algo", "nibh",
            "--bits", "4", "--violator-batch", "10",
            "--out", str(tmp_path / "m.model"), cwd=tmp_path,
        )
        assert res.returncode == 2
        res = run_cli(
            "train", "--data", str(dataset_file), "--algo", "lsh",
            "--bits", "4", "--secants", "bre",
            "--out", str(tmp_path / "m.model"), cwd=tmp_path,
        )
        assert res.returncode == 2

    def test_bad_flag_values_usage_error(self, dataset_file, tmp_path):
        cg = ["--algo", "nibh-cg"]
        for flags in (["--secants", "foo"], ["--secants", "sample:abc"],
                      ["--secants", "sample:0"], ["--bits", "0"],
                      ["--max-iters", "0"], ["--alpha-growth", "1.0"],
                      ["--rho", "0"], ["--tol", "-1"],
                      [*cg, "--init-sample", "0"], [*cg, "--init-sample", "-5"],
                      [*cg, "--violator-batch", "0"], [*cg, "--max-gens", "0"]):
            args = ["train", "--data", str(dataset_file), "--algo", "nibh",
                    "--bits", "4", "--max-iters", "2",
                    "--out", str(tmp_path / "m.model"), *flags]
            res = run_cli(*args, cwd=tmp_path)
            assert res.returncode == 2, (flags, res.stderr)
            assert "Traceback" not in res.stderr
        res = run_cli(
            "train", "--data", str(dataset_file), "--algo", "nibh",
            "--bits", "4", "--max-iters", "2", "--secants", "sample:40",
            "--out", str(tmp_path / "m.model"), cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["secant_count"] == 40

    def test_progress_file(self, dataset_file, tmp_path):
        out = tmp_path / "m.model"
        prog = tmp_path / "progress.jsonl"
        res = run_cli(
            "train", "--data", str(dataset_file), "--algo", "nibh",
            "--bits", "4", "--max-iters", "5", "--out", str(out),
            "--progress", str(prog), cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        lines = prog.read_text().strip().splitlines()
        assert lines and all(json.loads(ln)["iteration"] >= 1 for ln in lines)


class TestEval:
    @pytest.fixture(scope="class")
    def trained(self, dataset_file, tmp_path_factory):
        d = tmp_path_factory.mktemp("eval")
        out = d / "m.model"
        res = run_cli(
            "train", "--data", str(dataset_file), "--algo", "nibh",
            "--bits", "8", "--max-iters", "10", "--out", str(out), cwd=d,
        )
        assert res.returncode == 0, res.stderr
        return d, out, json.loads(res.stdout)

    def test_delta_reproduces_train_report(self, dataset_file, trained):
        d, model_path, train_doc = trained
        res = run_cli(
            "eval", "--model", str(model_path), "--data", str(dataset_file),
            "--metric", "delta", cwd=d,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        # default nibh training uses all pairs: identical measurement path
        assert abs(doc["delta"] - train_doc["delta"]) <= 1e-12

    def test_threads_below_one_usage_error(self, dataset_file, trained):
        d, model_path, _ = trained
        for threads in ("0", "-3"):
            res = run_cli(
                "--threads", threads, "eval", "--model", str(model_path),
                "--data", str(dataset_file), "--metric", "delta", cwd=d,
            )
            assert res.returncode == 2, (threads, res.stderr)
            assert "--threads" in res.stderr and "Traceback" not in res.stderr
            assert res.stdout == ""

    def test_delta_rejects_neighbor_flags(self, dataset_file, trained):
        d, model_path, _ = trained
        qf = d / "delta_queries.txt"
        qf.write_text("0\n5\n")
        for flags in (["--k", "5"], ["--queries", str(qf)]):
            res = run_cli(
                "eval", "--model", str(model_path), "--data", str(dataset_file),
                "--metric", "delta", *flags, cwd=d,
            )
            assert res.returncode == 2, (flags, res.stderr)
            assert "Traceback" not in res.stderr

    def test_map_default_k50_needs_enough_points(self, dataset_file, trained):
        d, model_path, _ = trained
        res = run_cli(
            "eval", "--model", str(model_path), "--data", str(dataset_file),
            "--metric", "map", cwd=d,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["metric"] == "map" and doc["k"] == 50
        assert 0.0 <= doc["value"] <= 1.0
        assert len(doc["per_query"]) == 60
        # 40 points leave 39 candidates per query: too few for the default
        small = d / "small.ds"
        save_binary(gen_random_dataset(40, 16, seed=5), small)
        res = run_cli(
            "eval", "--model", str(model_path), "--data", str(small),
            "--metric", "map", cwd=d,
        )
        assert res.returncode == 2
        assert "k=50" in res.stderr
        assert "Traceback" not in res.stderr
        assert len(res.stderr.strip().splitlines()) == 1

    def test_tau_default_k10(self, dataset_file, trained):
        d, model_path, _ = trained
        res = run_cli(
            "eval", "--model", str(model_path), "--data", str(dataset_file),
            "--metric", "tau", cwd=d,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["k"] == 10
        assert -1.0 <= doc["value"] <= 1.0

    def test_queries_file(self, dataset_file, trained):
        d, model_path, _ = trained
        qf = d / "queries.txt"
        qf.write_text("0\n5\n17\n")
        res = run_cli(
            "eval", "--model", str(model_path), "--data", str(dataset_file),
            "--metric", "map", "--k", "5", "--queries", str(qf), cwd=d,
        )
        assert res.returncode == 0, res.stderr
        assert len(json.loads(res.stdout)["per_query"]) == 3

    def test_bad_queries_file_exit_codes(self, dataset_file, trained):
        d, model_path, _ = trained
        for text, code in (("0\n60\n", 2), ("0\n-1\n", 2), ("0\nfive\n", 3)):
            qf = d / "bad_queries.txt"
            qf.write_text(text)
            res = run_cli(
                "eval", "--model", str(model_path), "--data", str(dataset_file),
                "--metric", "tau", "--queries", str(qf), cwd=d,
            )
            assert res.returncode == code, (text, res.stderr)
            assert "Traceback" not in res.stderr


class TestDemo:
    def test_fig1_outputs(self, tmp_path):
        res = run_cli(
            "demo-fig1", "--grid-steps", "720", "--out", "fig1", cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["linf"]["nn_order_preserved"] is True
        assert doc["l2"]["nn_order_preserved"] is False
        assert doc["circle_square_misordered_l2"] is True
        prof = (tmp_path / "fig1.profile.csv").read_text().splitlines()
        assert prof[0] == "angle_rad,linf_distortion,l2_distortion"
        assert len(prof) == 721
        proj = (tmp_path / "fig1.projections.csv").read_text().splitlines()
        assert len(proj) == 71


@pytest.mark.parametrize("args, message", [
    (["demo-fig1", "--grid-steps", "1"], "grid_steps must be >= 2"),
    (["check", "lemma1", "--alpha", "4", "--sigma", "1", "--samples", "100"],
     "need at least 1e4 samples"),
    (["check", "lemma1", "--alpha", "0", "--sigma", "1"],
     "alpha and sigma must be positive"),
])
def test_library_rejections_are_usage_errors(args, message, tmp_path):
    res = run_cli(*args, cwd=tmp_path)
    assert res.returncode == 2
    assert message in res.stderr and "Traceback" not in res.stderr


class TestCheck:
    def test_lemma1_pass(self, tmp_path):
        res = run_cli(
            "check", "lemma1", "--alpha", "10", "--sigma", "1",
            "--samples", "100000", cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["passed"] and doc["empirical_mean"] <= doc["bound"]

    def test_knn_pass(self, dataset_file, tmp_path):
        out = tmp_path / "m.model"
        res = run_cli(
            "train", "--data", str(dataset_file), "--algo", "lsh",
            "--bits", "10", "--out", str(out), cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        res = run_cli(
            "check", "knn", "--model", str(out), "--data", str(dataset_file),
            "--k", "4", cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["passed"] is True
        assert len(doc["gaps"]) == 60

    def test_knn_threads_reach_the_scan(self, dataset_file, tmp_path, monkeypatch,
                                        capsys):
        model = tmp_path / "m.model"
        save_model(lsh_model(10, 16, 3, data=load_any(dataset_file)), model)
        threads = []

        def spy(fn, q, n_threads=1):
            threads.append(n_threads)
            return map_tiles(fn, q, n_threads)

        monkeypatch.setattr(metrics, "map_tiles", spy)
        monkeypatch.chdir(tmp_path)  # the manifest goes to the working directory
        docs = []
        for n in ("1", "2"):
            assert cli.main(["--threads", n, "check", "knn", "--model", str(model),
                             "--data", str(dataset_file), "--k", "4"]) == 0
            docs.append(capsys.readouterr().out)
        assert docs[0] == docs[1] and json.loads(docs[0])["passed"] is True
        assert threads == [1, 2]

    def test_knn_k_too_large_usage_error(self, dataset_file, tmp_path):
        out = tmp_path / "m.model"
        res = run_cli(
            "train", "--data", str(dataset_file), "--algo", "lsh",
            "--bits", "10", "--out", str(out), cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        res = run_cli(
            "check", "knn", "--model", str(out), "--data", str(dataset_file),
            "--k", "59", cwd=tmp_path,
        )
        assert res.returncode == 2
        assert "k=59" in res.stderr and "Traceback" not in res.stderr


class TestManifest:
    def test_every_command_records_the_argv_given_to_main(
            self, dataset_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["prog", "--flag"])
        model = tmp_path / "m.model"
        save_model(lsh_model(10, 16, 3, data=load_any(dataset_file)), model)
        data = ["--model", str(model), "--data", str(dataset_file)]
        for name, argv in [
            ("eval", ["eval", *data, "--metric", "delta"]),
            ("knn", ["check", "knn", *data, "--k", "4"]),
            ("lemma1", ["check", "lemma1", "--alpha", "10", "--sigma", "1",
                        "--samples", "10000"]),
            ("demo", ["demo-fig1", "--grid-steps", "90"]),
        ]:
            path = tmp_path / f"{name}.manifest.json"
            argv = [*argv, "--manifest", str(path)]
            assert cli.main(argv) == 0, argv
            assert json.loads(path.read_text())["argv"] == argv

import json
import math
import os
import struct
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import isohash
from isohash import admm, baselines, cli, metrics
from isohash.baselines import lsh_fit
from isohash.core import Dataset, map_tiles
from isohash.dataio import (gen_random_dataset, load_any, load_model, preprocess,
                            save_binary, save_model)

PACKAGE_ROOT = str(Path(isohash.__file__).resolve().parent.parent)


def run_python(*args, cwd):
    """Run ``python *args`` in a child process.

    ``cwd`` is a temporary directory because the CLI writes its manifests
    and CSVs into its working directory. A relative ``PYTHONPATH=src``
    would resolve against that directory, so the child gets the absolute
    root of the ``isohash`` under test first, then the parent's
    ``PYTHONPATH``; the rest of the environment passes through.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def run_cli(*args, cwd):
    """Run ``python -m isohash`` in a child process (see run_python)."""
    return run_python("-m", "isohash", *args, cwd=cwd)


def test_scipy_sparse_loads_only_for_the_incidence_layout(tmp_path):
    # scipy.sparse and scipy.special add about 27 MiB to a process: the CLI,
    # every evaluation and dense all-pairs training load neither, and a
    # solve on a sampled secant set loads scipy.sparse for its incidence matrix
    script = textwrap.dedent("""\
        import sys
        import numpy as np
        import isohash.cli
        from isohash import admm, baselines, metrics, theory
        from isohash.core import Dataset, SecantBatch

        def loaded():
            return [m for m in ("scipy.sparse", "scipy.special") if m in sys.modules]

        data = Dataset(np.random.default_rng(0).standard_normal((30, 6)))
        model, _ = baselines.lsh_fit(8, data, 0)
        metrics.max_distortion(model, data)
        metrics.map_at_k(model, data, k=5)
        metrics.kendall_tau_at_k(model, data, k=5)
        theory.knn_sufficiency_check(model, data, k=5)
        config = admm.SolverConfig(max_outer_iters=3)
        admm.train_nibh(data, SecantBatch.all_pairs(data.points), 8, config)
        print(loaded())
        admm.train_nibh(data, SecantBatch.sample(data.points, 50, 0), 8, config)
        print(loaded())
    """)
    proc = run_python("-c", script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['scipy.sparse']"]


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

    def test_solver_flag_defaults_come_from_solver_config(
            self, dataset_file, tmp_path, monkeypatch, capsys):
        patched = {"rho": 2.0, "alpha_start": 2.0, "alpha_end": 4.0,
                   "alpha_growth": 2.0, "convergence_tol": 1e-3,
                   "max_outer_iters": 2, "seed": 7}
        for name, value in patched.items():
            monkeypatch.setattr(admm.SolverConfig, name, value)
        out = tmp_path / "m.model"
        assert cli.main(["train", "--data", str(dataset_file), "--algo", "lsh",
                         "--bits", "4", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7
        man = json.loads((tmp_path / "m.model.manifest.json").read_text())
        assert {key: man["config"]["solver"][key] for key in patched} == patched

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
            # training measures every generation's delta in its violator
            # scan; neither it nor the command may call max_distortion
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
            "--bits", "4", "--secants", "sample:10",
            "--out", str(tmp_path / "m.model"), cwd=tmp_path,
        )
        assert res.returncode == 2

    def test_bad_flag_values_usage_error(self, dataset_file, tmp_path):
        cg = ["--algo", "nibh-cg"]
        for flags in (["--secants", "foo"], ["--secants", "sample:abc"],
                      ["--secants", "sample:0"], ["--secants", "bre"],
                      ["--eta", "1.0"], ["--bits", "0"],
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
        admm_keys = {"iteration", "loss", "delta", "alpha", "lambda"}
        cg_keys = {"generation", "active_size", "violators_found", "delta_hat",
                   "full_delta", "lambda"}
        cg_flags = ["--init-sample", "100", "--violator-batch", "50",
                    "--max-gens", "2"]
        out = tmp_path / "m.model"
        prog = tmp_path / "progress.jsonl"
        # one line per ADMM iteration from 1, or per CG generation from 0
        for algo, keys, counter, first, flags in (
                ("nibh", admm_keys, "iteration", 1, []),
                ("nibh-cg", cg_keys, "generation", 0, cg_flags)):
            res = run_cli(
                "train", "--data", str(dataset_file), "--algo", algo,
                "--bits", "4", "--max-iters", "5", "--out", str(out), *flags,
                "--progress", str(prog), cwd=tmp_path,
            )
            assert res.returncode == 0, res.stderr
            records = [json.loads(ln) for ln in prog.read_text().splitlines()]
            assert records and all(set(rec) == keys for rec in records)
            iterations = json.loads(res.stdout)["iterations"]
            assert [rec[counter] for rec in records] == list(range(first, iterations + 1))
        # "-" sends the lines to stderr, and stdout holds the report alone
        res = run_cli(
            "train", "--data", str(dataset_file), "--algo", "nibh",
            "--bits", "4", "--max-iters", "5", "--out", str(out),
            "--progress", "-", cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        iterations = json.loads(res.stdout)["iterations"]
        records = [json.loads(ln) for ln in res.stderr.splitlines()]
        assert all(set(rec) == admm_keys for rec in records)
        assert [rec["iteration"] for rec in records] == list(range(1, iterations + 1))

    def test_lsh_fits_and_measures_in_one_pass(self, dataset_file, tmp_path,
                                               monkeypatch, capsys):
        scans = []
        scan = metrics._level_candidates

        def counted(*args, **kwargs):
            scans.append(len(args[1]))  # the points scanned
            return scan(*args, **kwargs)

        monkeypatch.setattr(metrics, "_level_candidates", counted)
        monkeypatch.chdir(tmp_path)  # the manifest goes to the working directory
        out = tmp_path / "lsh.model"
        assert cli.main(["train", "--data", str(dataset_file), "--algo", "lsh",
                         "--bits", "8", "--seed", "3", "--out", str(out)]) == 0
        assert scans == [60]
        doc = json.loads(capsys.readouterr().out)
        # the scale and delta of a separate fit and measurement
        data = cli._load_data(str(dataset_file))
        model = lsh_fit(8, data, 3)[0]
        assert doc["lambda"] == model.lam == load_model(out).lam
        assert doc["delta"] == metrics.max_distortion(model, data).delta


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
        sampled = d / "sampled.model"
        res = run_cli(
            "train", "--data", str(dataset_file), "--algo", "nibh", "--bits", "8",
            "--max-iters", "10", "--secants", "sample:200", "--out", str(sampled),
            cwd=d,
        )
        assert res.returncode == 0, res.stderr
        # a train report's delta is measured over every pair, whatever pairs
        # the model was trained on
        for path, train_delta in [(model_path, train_doc["delta"]),
                                  (sampled, json.loads(res.stdout)["delta"])]:
            res = run_cli(
                "eval", "--model", str(path), "--data", str(dataset_file),
                "--metric", "delta", cwd=d,
            )
            assert res.returncode == 0, res.stderr
            doc = json.loads(res.stdout)
            assert abs(doc["delta"] - train_delta) <= 1e-12

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

    def test_json_schema_keys(self, dataset_file, trained, capsys):
        # every metric prints the same seven keys, in this order
        d, model_path, _ = trained
        docs = {}
        for metric, k in (("delta", []), ("map", ["--k", "4"]), ("tau", ["--k", "4"])):
            assert cli.main(["eval", "--model", str(model_path), "--data",
                             str(dataset_file), "--metric", metric, *k,
                             "--manifest", str(d / "schema.manifest.json")]) == 0
            docs[metric] = json.loads(capsys.readouterr().out)
            assert list(docs[metric]) == ["metric", "k", "M", "value", "per_query",
                                          "lambda_star", "delta"]
        drep, mrep, trep = docs["delta"], docs["map"], docs["tau"]
        assert drep["value"] == drep["delta"]
        assert mrep["k"] == 4 and len(mrep["per_query"]) == 60
        assert trep["value"] == pytest.approx(np.mean(trep["per_query"]))

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
        # every value parses as a number; the label column is text
        rows = [line.split(",") for line in prof[1:]]
        assert np.array(rows, dtype=np.float64).shape == (720, 3)
        rows = [line.split(",") for line in proj[1:]]
        assert {r[2] for r in rows} == {"circle", "square", "star"}
        assert np.array([r[:2] + r[3:] for r in rows], dtype=np.float64).shape == (70, 4)


    def test_fig1_searches_once(self, tmp_path, monkeypatch, capsys):
        searches = []
        search = baselines.grid_search_embedding_1d

        def counted(points, norm_kind, grid_steps):
            searches.append(norm_kind)
            return search(points, norm_kind, grid_steps)

        monkeypatch.setattr(baselines, "grid_search_embedding_1d", counted)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["demo-fig1", "--grid-steps", "90"]) == 0
        assert searches == ["linf", "l2"]
        assert json.loads(capsys.readouterr().out)["points"] == 70


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


@pytest.mark.parametrize("args, code", [
    ("eval --model {model} --data {data} --metric map", 2),
    ("eval --model {model} --data {data} --metric tau", 2),
    ("demo-fig1 --grid-steps 90", 2),
    ("check lemma1 --alpha 4 --sigma 1 --samples 10000", 2),
    ("eval --model {model} --data {data} --metric delta", 0),
    ("check knn --model {model} --data {data}", 0),
    ("train --data {data} --algo lsh --bits 4 --out out.model", 0),
])
def test_threads_only_for_all_pairs_scans(args, code, dataset_file, tmp_path,
                                          monkeypatch, capsys):
    # map, tau, the demo and lemma 1 run no all-pairs scan, so an explicit
    # --threads is a flag they do not use
    monkeypatch.chdir(tmp_path)
    model = tmp_path / "lsh.model"
    save_model(lsh_fit(4, preprocess(load_any(dataset_file).points), 0)[0], model)
    argv = ["--threads", "2",
            *(arg.format(model=model, data=dataset_file) for arg in args.split())]
    if code == 0:
        assert cli.main(argv) == 0
        return
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert "--threads" in captured.err and captured.out == ""
    assert not list(tmp_path.glob("*.manifest.json"))


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
        save_model(lsh_fit(10, load_any(dataset_file), 3)[0], model)
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

    def test_knn_measures_the_eval_delta(self, dataset_file, tmp_path, monkeypatch,
                                         capsys):
        # the model file stores lambda = 1, far from its lambda*: the check
        # judges the gaps at the refit delta that eval reports
        model = tmp_path / "m.model"
        save_model(replace(lsh_fit(16, load_any(dataset_file), 3)[0],
                           lam=1.0), model)
        monkeypatch.chdir(tmp_path)  # the manifest goes to the working directory
        data = ["--model", str(model), "--data", str(dataset_file)]
        assert cli.main(["check", "knn", *data, "--k", "4"]) == 0
        knn = json.loads(capsys.readouterr().out)
        assert cli.main(["eval", *data, "--metric", "delta"]) == 0
        delta = json.loads(capsys.readouterr().out)
        assert delta["lambda_star"] != 1.0
        assert knn["delta"] == delta["delta"]

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
        save_model(lsh_fit(10, load_any(dataset_file), 3)[0], model)
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


def _unusable_inputs(d):
    """{case: (argv, the text stderr must name)} for runs whose input files
    cannot be used, written under d."""
    def model(name, n=16, w=1.0, **header):
        # two rows of w; a header value of None leaves its key out
        head = {"version": 1, "M": 2, "N": n, "lambda": 1.0, "alpha": 1.0,
                "normalized": False, "mean": [0.0] * n, **header}
        head = {key: val for key, val in head.items() if val is not None}
        (d / name).write_bytes(json.dumps(head).encode() + b"\n"
                               + np.full((2, n), w, "<f8").tobytes())
        return str(d / name)

    def points(name, data):
        save_binary(data, d / name)
        return str(d / name)

    def train(data):
        return ["train", "--data", data, "--algo", "lsh", "--bits", "4",
                "--out", str(d / "m.model")]

    def delta(model, data):
        return ["eval", "--model", model, "--data", data, "--metric", "delta"]

    def knn(model, data):
        return ["check", "knn", "--model", model, "--data", data, "--k", "4"]

    raw = gen_random_dataset(20, 3, seed=1).points
    raw3, unit3 = points("raw3.ds", Dataset(raw)), points("unit3.ds", preprocess(raw))
    raw16 = points("raw16.ds", gen_random_dataset(20, 16, seed=1))
    # in the positive orthant an all-ones W gives every point the code 11
    positive = points("positive.ds", Dataset(np.abs(raw) + 0.1))
    one, idx = d / "one.ds", d / "one.idx"
    one.write_bytes(b"NIBHDS1" + struct.pack("<QQB", 1, 3, 0) + bytes(12))
    idx.write_bytes(bytes([0, 0, 8, 2]) + struct.pack(">II", 1, 4) + bytes(4))
    listed, quoted, latin = d / "i.model", d / "j.model", d / "q.txt"
    listed.write_bytes(b"[1]\n" + bytes(8))
    quoted.write_bytes(b'"x"\n' + bytes(8))
    latin.write_bytes("1 2 3 é\n".encode("latin-1"))
    queries = ["--queries", str(latin)]
    return {
        "binary with one point": (train(str(one)), str(one)),
        "idx with one point": (train(str(idx)), str(idx)),
        "header without lambda": (
            delta(model("a.model", **{"lambda": None}), raw16), "a.model"),
        "header with lambda 0": (
            delta(model("b.model", **{"lambda": 0.0}), raw16), "b.model"),
        "mean of the wrong length": (
            delta(model("c.model", mean=[0.0] * 3), raw16), "c.model"),
        "raw data narrower than the model": (delta(model("d.model"), raw3), raw3),
        "normalized data narrower than the model": (
            delta(model("e.model"), unit3), unit3),
        "knn on data narrower than the model": (knn(model("f.model"), unit3), unit3),
        "eval on collapsed codes": (
            delta(model("g.model", n=3), positive), "collapsed"),
        "knn on collapsed codes": (knn(model("h.model", n=3), positive), "collapsed"),
        "header that is a JSON list": (delta(str(listed), raw16), "i.model"),
        "header that is a JSON string": (delta(str(quoted), raw16), "j.model"),
        "map queries not UTF-8": (
            [*delta(model("k.model"), raw16)[:-1], "map", *queries], str(latin)),
        "knn queries not UTF-8": ([*knn(model("l.model"), raw16), *queries],
                                  str(latin)),
        # json writes and reads a non-finite float as Infinity or NaN
        "header with lambda inf": (
            delta(model("m.model", **{"lambda": math.inf}), raw16), "m.model"),
        "header with alpha inf": (
            delta(model("n.model", alpha=math.inf), raw16), "n.model"),
        "W with a NaN": (delta(model("o.model", w=math.nan), raw16), "o.model"),
        "W with an inf": (delta(model("p.model", w=-math.inf), raw16), "p.model"),
        "mean with a NaN": (delta(model("r.model", mean=[math.nan] * 16), raw16),
                            "r.model"),
        "mean with a NaN, map": (
            [*delta(model("s.model", mean=[math.nan] * 16), raw16)[:-1], "map"],
            "s.model"),
        "mean with a NaN, normalized": (
            delta(model("t.model", mean=[math.nan] * 16, normalized=True), raw16),
            "t.model"),
    }


@pytest.mark.parametrize("case", [
    "binary with one point", "idx with one point", "header without lambda",
    "header with lambda 0", "mean of the wrong length",
    "raw data narrower than the model", "normalized data narrower than the model",
    "knn on data narrower than the model", "eval on collapsed codes",
    "knn on collapsed codes", "header that is a JSON list",
    "header that is a JSON string", "map queries not UTF-8", "knn queries not UTF-8",
    "header with lambda inf", "header with alpha inf", "W with a NaN",
    "W with an inf", "mean with a NaN", "mean with a NaN, map",
    "mean with a NaN, normalized",
])
def test_unusable_inputs_exit_3(case, tmp_path):
    argv, named = _unusable_inputs(tmp_path)[case]
    res = run_cli(*argv, cwd=tmp_path)
    assert res.returncode == 3, res.stderr
    assert len(res.stderr.strip().splitlines()) == 1, res.stderr
    assert res.stderr.startswith("data error: ") and named in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""


@pytest.mark.parametrize("flag", ["--data", "--out", "--progress", "--manifest"])
def test_path_under_a_regular_file_exits_3(flag, dataset_file, tmp_path):
    # open() raises NotADirectoryError for a path through a regular file
    flat = tmp_path / "f.csv"
    flat.write_text("1.0,2.0\n")
    paths = {"--data": str(dataset_file), "--out": str(tmp_path / "m.model"),
             "--progress": str(tmp_path / "p.jsonl"),
             "--manifest": str(tmp_path / "man.json"),
             flag: str(flat / "x")}
    res = run_cli("train", "--algo", "lsh", "--bits", "4",
                  *[arg for item in paths.items() for arg in item], cwd=tmp_path)
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith("data error: ") and "Traceback" not in res.stderr
    assert res.stdout == ""


class TestOutputFrame:
    def test_default_manifest_paths(self, dataset_file, tmp_path, monkeypatch,
                                    capsys):
        monkeypatch.chdir(tmp_path)
        model = tmp_path / "m.model"
        data = ["--model", str(model), "--data", str(dataset_file)]
        for command, argv, manifest in [
            ("train", ["train", "--data", str(dataset_file), "--algo", "lsh",
                       "--bits", "10", "--out", str(model)], "m.model.manifest.json"),
            ("eval", ["eval", *data, "--metric", "delta"], "eval.manifest.json"),
            ("check-knn", ["check", "knn", *data, "--k", "4"],
             "check-knn.manifest.json"),
            ("check-lemma1", ["check", "lemma1", "--alpha", "10", "--sigma", "1",
                              "--samples", "10000"], "check-lemma1.manifest.json"),
            ("demo-fig1", ["demo-fig1", "--grid-steps", "90"],
             "demo-fig1.manifest.json"),
        ]:
            assert cli.main(argv) == 0, argv
            assert json.loads(capsys.readouterr().out)
            assert json.loads((tmp_path / manifest).read_text())["command"] == command

    @pytest.mark.parametrize("argv, code", [
        (["demo-fig1", "--grid-steps", "1"], 2),
        (["check", "lemma1", "--alpha", "0", "--sigma", "1"], 2),
        (["eval", "--model", "m.model", "--data", "{data}", "--metric", "map",
          "--k", "59"], 2),
        # a flag is checked before the data file is read
        (["train", "--data", "nope.ds", "--bits", "4", "--rho", "0",
          "--out", "n.model"], 2),
        (["train", "--data", "nope.ds", "--bits", "4", "--out", "n.model"], 3),
        (["eval", "--model", "m.model", "--data", "nope.ds", "--metric", "delta"], 3),
        (["check", "knn", "--model", "nope.model", "--data", "{data}"], 3),
        # an output path is checked before any progress record is written
        (["train", "--data", "{data}", "--bits", "4", "--out", "m.model/x",
          "--progress", "p.jsonl", "--max-iters", "3"], 3),
        (["train", "--algo", "lsh", "--data", "{data}", "--bits", "4",
          "--out", "n.model", "--manifest", "m.model/man"], 3),
        # a manifest that fails late takes the model file with it
        (["train", "--algo", "lsh", "--data", "{data}", "--bits", "4",
          "--out", "n.model", "--manifest", "."], 3),
    ])
    def test_errors_print_nothing_and_write_no_manifest(
            self, argv, code, dataset_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        save_model(lsh_fit(10, load_any(dataset_file), 3)[0],
                   tmp_path / "m.model")
        before = sorted(os.listdir(tmp_path))
        assert cli.main([arg.format(data=dataset_file) for arg in argv]) == code
        assert capsys.readouterr().out == ""
        assert sorted(os.listdir(tmp_path)) == before

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np

from isohash import admm, colgen, metrics
from isohash.core import Dataset, SecantBatch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_benchmark_tracer_resolves_against_package():
    # the per-layer tracer wraps module attributes by name, so a rename in
    # the package fails here rather than in `perfbench/run.py --trace 1`
    tracing = _tracing()
    originals = (admm.w_step, colgen.scan_violators, metrics.max_distortion)
    restore = tracing.instrument(tracing.Recorder())
    try:
        assert colgen.scan_violators is not originals[1]
    finally:
        restore()
    assert (admm.w_step, colgen.scan_violators, metrics.max_distortion) == originals


def test_loss_eval_counter_counts_every_evaluation(monkeypatch):
    # admm.w_step.loss_evals counts sigmoid calls inside the W-step; it is a
    # true evaluation count only while each loss or loss+gradient evaluation
    # makes exactly one of them, on either pair layout: all 28 pairs of 8
    # points run the dense one, 10 of them the incidence one
    tracing = _tracing()
    evals = []
    inner = admm._w_loss_grad

    def counted(*args, **kwargs):
        evals.append(kwargs.get("want_grad", True))
        return inner(*args, **kwargs)

    monkeypatch.setattr(admm, "_w_loss_grad", counted)
    rng = np.random.default_rng(40)
    pts = rng.standard_normal((8, 3))
    for n_sec, layout in ((28, admm._GramPairs), (10, admm._IncidencePairs)):
        evals.clear()
        sec = SecantBatch.all_pairs(pts).subset(slice(0, n_sec))
        assert type(admm._pair_layout(sec, len(pts))) is layout
        state = admm.SolverState(w=rng.standard_normal((2, 3)),
                                 u=rng.standard_normal(len(sec)),
                                 y=np.zeros(len(sec)), lam=0.7, alpha=2.0)
        rec = tracing.Recorder()
        restore = tracing.instrument(rec)
        try:
            admm.w_step(state, sec, Dataset(pts),
                        admm.SolverConfig(inner_gd_iters=6))
        finally:
            restore()
        assert True in evals and False in evals
        assert rec.counters["admm.w_step.loss_evals"] == len(evals)


def test_benchmark_selftest_passes():
    # the self-test runs every workload at tiny size, traced, and requires
    # the per-layer counters it knows (metrics.pair_distances.pairs,
    # metrics.hamming_pairs.pairs, colgen.scan.pairs, ...) to be non-zero
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_only_cli_and_dataio_import_json():
    # the library hands results back as objects and progress records as
    # dicts; the CLI alone serializes them, and dataio writes the JSON
    # header of a model file
    importers = set()
    for path in sorted(Path(admm.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "json" for name in names):
                importers.add(path.stem)
    assert importers == {"cli", "dataio"}


def test_every_module_all_resolves():
    # each name a module exports must exist, so ``import *`` cannot fail on
    # a name that was deleted but left in __all__
    package = Path(admm.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        if path.stem == "__main__":
            continue
        name = "isohash" if path.stem == "__init__" else f"isohash.{path.stem}"
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), (name, attr)
        exec(f"from {name} import *", {})

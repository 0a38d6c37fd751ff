"""Self-test of the benchmark itself, at sizes that run in seconds.

    python3 perfbench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, untraced
and traced; that deliberately corrupted results are reported as failed, so
the output checks are not vacuous; that the span recorder loses no update
under contention; and that the runner refuses to run without the package
sources. Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np

import bench
import tracing

ROOT = bench.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

# per-layer metrics that must be positive on a workload that enters the layer
EXPECTED_NONZERO = {
    "nibh_allpairs": ["admm.train_nibh.calls", "admm.w_step.loss_evals",
                      "admm.w_step.s_per_eval", "admm.qdelta.s", "admm.self.s",
                      "metrics.max_distortion.calls", "metrics.pair_distances.pairs",
                      "phase.train.s", "trace.traced_run_s"],
    "nibh_cg": ["colgen.train_nibh_cg.s", "colgen.scan_violators.calls",
                "colgen.scan.pairs", "colgen.scan.pairs_per_s",
                "colgen.peak_resident_secants", "admm.train_nibh.calls",
                "colgen.identify_active.s", "metrics.pair_distances.bytes_computed"],
    "eval_allpairs": ["metrics.kendall_tau_at_k.s", "theory.knn_sufficiency_check.s",
                      "metrics.hamming_pairs.pairs", "dataio.io_bytes",
                      "dataio.model_roundtrip.s", "baselines.lsh_model.s",
                      "phase.setup.s", "phase.eval.s"],
}
# layers a workload must never enter
EXPECTED_ZERO = {
    "eval_allpairs": ["admm.train_nibh.calls", "admm.w_step.calls",
                      "colgen.scan_violators.calls"],
    "nibh_allpairs": ["colgen.scan_violators.calls"],
}


def tiny(name: str) -> bench.Workload:
    return bench.make_workload(name, seed=3, tiny=True)


def run(wl: bench.Workload, trace: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if trace:
            return bench.measure_traced(wl, Path(workdir), PER_LAYER)
        return bench.measure(wl, 0.0, Path(workdir))


def check_emits_every_metric(failures: list[str]) -> None:
    for name in bench.WORKLOADS:
        res = run(tiny(name), trace=False)
        out = bench.result(res, SPEC["end_to_end"])
        if not out["correct"]:
            failures.append(f"{name}: untraced run failed: {res['problems']}")
        missing = [m for m in END_TO_END if not isinstance(
            out["metrics"][m]["value"], float) or out["metrics"][m]["value"] <= 0]
        if missing:
            failures.append(f"{name}: no positive value for {missing}")

        res = run(tiny(name), trace=True)
        out = bench.result(res, SPEC["per_layer"])
        if not out["correct"]:
            failures.append(f"{name}: traced run failed: {res['problems']}")
        values = {m: v["value"] for m, v in out["metrics"].items()}
        missing = [m for m in PER_LAYER if not isinstance(values[m], float)]
        zero = [m for m in EXPECTED_NONZERO[name] if not values[m] > 0]
        nonzero = [m for m in EXPECTED_ZERO.get(name, []) if values[m] != 0]
        for label, bad in (("missing", missing), ("zero", zero), ("nonzero", nonzero)):
            if bad:
                failures.append(f"{name}: traced metrics {label}: {bad}")


def corrupted(name: str, how: str) -> bench.Workload:
    """A workload whose training or evaluation returns a wrong result."""
    wl = tiny(name)
    if how == "perturbed lambda":
        evaluate = wl.evaluate

        def wrong_scale(ctx, model):
            out = evaluate(ctx, model)
            out.report = replace(out.report, lambda_star=out.report.lambda_star * 1.001)
            return out

        wl.evaluate = wrong_scale
    elif how == "zeroed W":
        train = wl.train

        def zero_w(ctx):
            model, info = train(ctx)
            return replace(model, w=np.zeros_like(model.w)), info

        wl.train = zero_w
    elif how == "wrong MAP entry":
        evaluate = wl.evaluate

        def wrong_ap(ctx, model):
            out = evaluate(ctx, model)
            out.map_report.per_query_ap[0] += 0.1
            return out

        wl.evaluate = wrong_ap
    return wl


def check_corruption_is_caught(failures: list[str]) -> None:
    for name in bench.WORKLOADS:
        for how in ("perturbed lambda", "zeroed W", "wrong MAP entry"):
            res = run(corrupted(name, how), trace=False)
            out = bench.result(res, SPEC["end_to_end"])
            if out["correct"] or out["failed"] != out["attempted"]:
                failures.append(f"{name}: {how} not reported as failed")


def check_recorder_under_contention(failures: list[str]) -> None:
    rec = tracing.Recorder()
    n_threads, n_iter = 8, 2000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(n_iter):
                with rec.span("outer"):
                    with rec.span("inner"):
                        rec.add("hits", 1)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        if any(t.is_alive() for t in threads):
            failures.append("recorder stress threads did not finish")
            return
    finally:
        sys.setswitchinterval(old)
    total = n_threads * n_iter
    ids = {s.id for s in rec.spans}
    by_id = {s.id: s for s in rec.spans}
    inner_ok = all(by_id[s.parent].name == "outer" and by_id[s.parent].thread == s.thread
                   for s in rec.spans if s.name == "inner")
    if rec.counters["hits"] != total or len(rec.spans) != 2 * total \
            or len(ids) != 2 * total or not inner_ok:
        failures.append(f"recorder lost updates: {rec.counters['hits']} hits, "
                        f"{len(rec.spans)} spans, {len(ids)} ids for {total} iterations")


def check_refuses_without_sources(failures: list[str]) -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "nibh_allpairs",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("runner produced a result without the package sources")


def main() -> int:
    failures: list[str] = []
    for check in (check_recorder_under_contention, check_refuses_without_sources,
                  check_emits_every_metric, check_corruption_is_caught):
        check(failures)
        print(f"{check.__name__}: {'ok' if not failures else 'FAILED'}")
        if failures:
            break
    for f in failures:
        print(f"FAILED: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload of the isohash benchmark, measured in this process.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1

``run.py`` starts this script in a fresh process per workload with the BLAS
thread count pinned. A run repeats the workload's timed work, training plus
evaluation, until the next repetition would overrun ``--seconds``, and sets
up its inputs several times before the first repetition and after each one
(``setup_s`` is the median). Outputs are
checked after peak RSS is read. The last line of stdout is the result object;
the lines before it name every metric with its unit and record the software
and machine the numbers came from.

With ``--trace 1`` the run makes one untraced repetition (the overhead base),
then one with every layer wrapped, reports the per-layer metrics and writes
the spans to ``.perfbench-spans/<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# the package is imported from this checkout's sources, whatever the cwd
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from isohash import admm, baselines, colgen, core, dataio, metrics, theory  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

M_BITS = 16
K = 10
# set-ups timed before the first repetition and after each one, so that
# setup_s samples the whole run rather than one moment of a shared host
SETUP_REPEATS = 11
# exceptions by which the library reports a failed solve or a failed check
RUN_ERRORS = (admm.DivergenceError, AssertionError, ValueError)


@dataclass
class Context:
    """What one set-up hands to training and evaluation."""

    data: core.Dataset
    secants: core.SecantBatch | None = None
    model: core.HashModel | None = None  # eval_allpairs: the loaded LSH model
    written: tuple = ()  # eval_allpairs: (dataset written, dataset read, LSH model)


@dataclass
class Outputs:
    report: metrics.DistortionReport
    max_distortion_s: float
    map_report: metrics.NeighborReport
    tau_report: metrics.NeighborReport | None = None
    gap_report: object = None


@dataclass
class Attempt:
    model: core.HashModel | None = None
    info: object = None  # SolverState or CgReport
    outputs: list = field(default_factory=list)
    train_s: float | None = None
    eval_s: list = field(default_factory=list)
    error: str | None = None

    def fingerprint(self) -> list:
        w = hashlib.sha256(self.model.w.tobytes()).hexdigest()
        return [[w, o.report.delta, o.report.lambda_star, o.report.worst_secant.i,
                 o.report.worst_secant.j, o.map_report.map,
                 o.tau_report.mean_tau if o.tau_report else None]
                for o in self.outputs]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs and evaluation shared by the three workloads."""

    name = ""
    eval_repeats = 1  # evaluations per repetition; eval_s is their median
    n_threads = 1  # max_distortion scan threads

    def queries(self, q: int):
        return None

    def evaluate(self, ctx: Context, model) -> Outputs:
        t0 = perf_counter()
        report = metrics.max_distortion(model, ctx.data, n_threads=self.n_threads)
        md_s = perf_counter() - t0
        queries = self.queries(ctx.data.q)
        return Outputs(report, md_s, metrics.map_at_k(model, ctx.data, queries, K))

    def check(self, ctx: Context, attempt: Attempt) -> list[str]:
        out = attempt.outputs[-1]
        pts = ctx.data.points
        return checks.distortion(out.report, attempt.model, pts) + checks.neighbors(
            attempt.model, pts, self.queries(ctx.data.q), K, out.map_report)


class NibhAllPairs(Workload):
    """The paper's translating-squares images, trained on every pair."""

    name = "nibh_allpairs"
    eval_repeats = 15

    def __init__(self, grid=14, square=3, iters=15):
        self.grid, self.square, self.iters = grid, square, iters

    def setup(self, seed: int, workdir: Path) -> Context:
        raw = dataio.gen_translating_squares(grid=self.grid, square=self.square)
        data = dataio.preprocess(raw.points)
        i, j = core.decode_pair_indices(np.arange(core.secant_count(data.q)))
        return Context(data, secants=core.SecantBatch.from_pairs(data.points, i, j))

    def train(self, ctx: Context):
        self.config = admm.SolverConfig(seed=self.seed, max_outer_iters=self.iters)
        return admm.train_nibh(ctx.data, ctx.secants, M_BITS, self.config)


class NibhColGen(Workload):
    """Random Gaussian points, trained by column generation.

    Q=280 keeps every pair gather under 32 MiB, the largest block glibc
    serves from its reusable heap. At Q=1000 the scan and evaluation
    gathers are hundreds of MB, freshly mapped on each call, and the
    page-fault cost drifted so much on a shared 2-core host that the
    run-to-run spread of run_s reached 0.32. eval_allpairs still measures
    gathers at that scale.
    """

    name = "nibh_cg"
    eval_repeats = 15

    def __init__(self, q=280, generations=8, iters=12, **cg):
        self.q, self.generations, self.iters, self.cg = q, generations, iters, cg

    def setup(self, seed: int, workdir: Path) -> Context:
        raw = dataio.gen_random_dataset(self.q, 100, seed)
        return Context(dataio.preprocess(raw.points))

    def train(self, ctx: Context):
        self.config = colgen.CgConfig(
            scan_seed=self.seed, max_generations=self.generations,
            inner=admm.SolverConfig(seed=self.seed, max_outer_iters=self.iters),
            **self.cg)
        return colgen.train_nibh_cg(ctx.data, M_BITS, self.config, n_threads=1)

    def check(self, ctx: Context, attempt: Attempt) -> list[str]:
        return super().check(ctx, attempt) + checks.cg_report(attempt.info, self.config)


class EvalAllPairs(Workload):
    """A stored LSH model evaluated on a stored dataset; never trains."""

    name = "eval_allpairs"
    n_threads = 2

    def __init__(self, q=2000, sample_pairs=100_000):
        self.q, self.sample_pairs = q, sample_pairs

    def queries(self, q: int):
        return np.arange(0, q, 4)

    def setup(self, seed: int, workdir: Path) -> Context:
        raw = dataio.gen_random_dataset(self.q, 100, seed)
        data_path, model_path = workdir / "data.nibh", workdir / "lsh.model"
        dataio.save_binary(raw, data_path)
        loaded = dataio.load_any(data_path)
        data = dataio.preprocess(loaded.points)
        lsh = baselines.lsh_model(M_BITS, 100, seed)
        dataio.save_model(lsh, model_path)
        model = dataio.load_model(model_path)
        return Context(data, model=model, written=(raw, loaded, lsh))

    def train(self, ctx: Context):
        return ctx.model, None

    def evaluate(self, ctx: Context, model) -> Outputs:
        out = super().evaluate(ctx, model)
        queries = self.queries(ctx.data.q)
        out.tau_report = metrics.kendall_tau_at_k(model, ctx.data, queries, K)
        # at the refit scale, so the gap condition is judged at the reported delta
        out.gap_report = theory.knn_sufficiency_check(
            replace(model, lam=out.report.lambda_star), ctx.data, queries, k=5)
        return out

    def check(self, ctx: Context, attempt: Attempt) -> list[str]:
        out = attempt.outputs[-1]
        model, pts = attempt.model, ctx.data.points
        rng = np.random.default_rng(self.seed)
        i = rng.integers(1, ctx.data.q, size=self.sample_pairs)
        j = rng.integers(0, i)
        raw, loaded, lsh = ctx.written
        return (checks.distortion(out.report, model, pts, pairs=(i, j))
                + checks.neighbors(model, pts, self.queries(ctx.data.q), K,
                                   out.map_report, out.tau_report)
                + checks.knn_gap(out.gap_report, out.report.delta)
                + checks.roundtrip(raw, loaded, lsh, ctx.model))


WORKLOADS = {w.name: w for w in (NibhAllPairs, NibhColGen, EvalAllPairs)}

# sizes at which the self-test runs every workload in seconds
TINY = {
    "nibh_allpairs": dict(grid=7, square=3, iters=3),
    "nibh_cg": dict(q=80, generations=2, iters=3, init_sample_size=300,
                    violator_batch=100),
    "eval_allpairs": dict(q=120, sample_pairs=1000),
}


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    wl = WORKLOADS[name](**(TINY[name] if tiny else {}))
    wl.seed = seed
    return wl


# ---------------------------------------------------------------------------
# measurement


def attempt(wl: Workload, ctx: Context, repeats: int, phase=None) -> Attempt:
    """Train once and evaluate ``repeats`` times; a raised library error
    marks the attempt failed instead of ending the run."""
    phase = phase or (lambda name: nullcontext())
    att = Attempt()
    try:
        with phase("phase.train"):
            t0 = perf_counter()
            model, att.info = wl.train(ctx)
            train_s = perf_counter() - t0
        att.model = model
        if att.info is not None:
            att.train_s = train_s
        for _ in range(repeats):
            with phase("phase.eval"):
                t0 = perf_counter()
                out = wl.evaluate(ctx, model)
                att.eval_s.append(perf_counter() - t0)
            att.outputs.append(out)
    except RUN_ERRORS as exc:
        att.error = f"{type(exc).__name__}: {exc}"
    return att


def run_s(att: Attempt) -> float:
    """Wall time a user waits for a trained and evaluated model."""
    return (att.train_s or 0.0) + statistics.median(att.eval_s)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verify(wl: Workload, ctx: Context, attempts: list[Attempt]) -> tuple[int, list[str]]:
    """Check the last good attempt in full and require every other attempt
    to reproduce it exactly; returns (failed attempts, failure messages)."""
    good = [a for a in attempts if a.error is None]
    problems = [a.error for a in attempts if a.error is not None]
    if not good:
        return len(attempts), problems
    ref = good[-1]
    bad = wl.check(ctx, ref)
    problems += bad
    if bad:
        return len(attempts), problems
    ref_print = ref.fingerprint()[-1]
    mismatched = 0
    for a in good:
        if any(p != ref_print for p in a.fingerprint()):
            mismatched += 1
            problems.append("a repetition's outputs differ from the checked ones")
    return len(attempts) - len(good) + mismatched, problems


def measure(wl: Workload, seconds: float, workdir: Path) -> dict:
    """The untraced run: every end-to-end metric, as medians over the run."""
    setup_s = []

    def set_up() -> Context:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            ctx = wl.setup(wl.seed, workdir)
            setup_s.append(perf_counter() - t0)
        return ctx

    ctx = set_up()
    attempts = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        attempts.append(attempt(wl, ctx, wl.eval_repeats))
        took = perf_counter() - t0
        ctx = set_up()
        if perf_counter() - start + took > seconds:
            break
    rss = peak_rss_mb()
    failed, problems = verify(wl, ctx, attempts)

    good = [a for a in attempts if a.error is None]
    samples = {
        "setup_s": setup_s,
        "train_s": [a.train_s for a in good if a.train_s is not None],
        "run_s": [run_s(a) for a in good],
        "eval_s": [s for a in good for s in a.eval_s],
        "eval_pairs_per_s": [o.report.pair_count / o.max_distortion_s
                             for a in good for o in a.outputs],
    }
    values = {key: statistics.median(v) for key, v in samples.items() if v}
    values["peak_rss_mb"] = rss
    if good:
        out = good[-1].outputs[-1]
        values["delta"] = out.report.delta
        values["map_at_10"] = out.map_report.map
        if out.tau_report is not None:
            values["tau_at_10"] = out.tau_report.mean_tau
    values["failed_frac"] = failed / len(attempts)
    return dict(values=values, samples=samples, attempted=len(attempts),
                failed=failed, problems=problems)


def measure_traced(wl: Workload, workdir: Path, names) -> dict:
    """One untraced repetition, then a traced one; per-layer metrics come
    from the traced repetition only."""
    ctx = wl.setup(wl.seed, workdir)
    base = attempt(wl, ctx, 1)

    rec = tracing.Recorder()
    restore = tracing.instrument(rec)
    try:
        with rec.span("phase.setup"):
            ctx = wl.setup(wl.seed, workdir)
        traced = attempt(wl, ctx, 1, phase=rec.span)
    finally:
        restore()
    failed, problems = verify(wl, ctx, [base, traced])

    values = tracing.layer_metrics(rec, names)
    if base.error is None and traced.error is None:
        untraced_s = run_s(base)
        traced_s = values["phase.train.s"] + values["phase.eval.s"]
        values["trace.untraced_run_s"] = untraced_s
        values["trace.traced_run_s"] = traced_s
        values["trace.overhead_s"] = traced_s - untraced_s
        values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return dict(values=values, samples={}, attempted=2, failed=failed,
                problems=problems, recorder=rec)


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse",
                              "HEAD"], capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
    }


# end-to-end metrics beyond those BENCHMARK.json bounds, printed for reading
EXTRA_END_TO_END = [("train_s", "s"), ("eval_s", "s"), ("eval_pairs_per_s", "pairs/s"),
                    ("map_at_10", "1"), ("tau_at_10", "1"), ("failed_frac", "1")]


def result(res: dict, specs) -> dict:
    """The result object: exactly the metrics ``specs`` lists."""
    correct = res["failed"] == 0 and not res["problems"]
    return {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": res["values"].get(m["name"]),
                                "unit": m["unit"]} for m in specs},
    }


def describe(name: str, unit: str, value, samples) -> str:
    line = f"# {name} = {value!r} {unit}"
    if samples:
        line += f"  (median of {len(samples)}; min {min(samples):.6g}, " \
                f"max {max(samples):.6g})"
    return line


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    wl = make_workload(args.workload, args.seed)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.trace:
            res = measure_traced(wl, Path(workdir), [m["name"] for m in specs])
        else:
            res = measure(wl, args.seconds, Path(workdir))

    print(json.dumps({"workload": wl.name, "seed": args.seed, "env": environment()}))
    if args.trace:
        spans = ROOT / ".perfbench-spans" / f"{wl.name}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        res["recorder"].write(spans)
        print(f"# spans written to {spans.relative_to(ROOT)}")
    shown = specs if args.trace else specs + [
        {"name": n, "unit": u} for n, u in EXTRA_END_TO_END]
    for m in shown:
        if m["name"] in res["values"]:
            print(describe(m["name"], m["unit"], res["values"][m["name"]],
                           res["samples"].get(m["name"])))
    for problem in res["problems"]:
        print(f"# FAILED: {problem}")
    print(json.dumps(result(res, specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

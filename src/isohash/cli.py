"""Command-line entry point.

Subcommands: ``train`` (nibh | nibh-cg | lsh), ``eval`` (delta | map | tau),
``demo-fig1``, ``check`` (lemma1 | knn). Every command prints exactly one
JSON document to stdout (logs go to stderr), writes one run manifest, and is
deterministic given its flags and input files; wall-clock timings appear
only in the manifest.

Exit codes: 0 success, 2 usage, 3 data error, 4 solver divergence,
5 check failure. A malformed flag value (``--bits`` or ``--threads`` below 1,
a ``--secants`` other than all, bre or sample:K with K >= 1, a solver or
column-generation setting that ``SolverConfig`` or ``CgConfig`` rejects, a
``demo-fig1`` ``--grid-steps`` below 2 or ``--seed`` without the demo's
contrast, a ``check lemma1`` ``--alpha`` or ``--sigma`` not positive or
``--samples`` below 10^4), a flag the chosen command or metric does not use,
and a ``--k`` or ``--queries`` index or a ``--secants bre`` that the dataset
cannot serve are usage errors; a queries file that does not parse as
integers, a non-finite data value, and a zero row in a dataset flagged
normalized are data errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import baselines, colgen, dataio, metrics, theory
from .admm import DivergenceError, SolverConfig, train_nibh
from .core import Dataset, SecantBatch

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_CHECK_FAILED = 5


class UsageError(Exception):
    """A flag value that the configs or the loaded dataset reject (exit code 2)."""


SECANT_SPEC = re.compile(r"all|bre|sample:0*[1-9][0-9]*")


# ---------------------------------------------------------------------------
# manifest


class Manifest:
    def __init__(self, command: str, argv: list[str]):
        self.doc = {
            "command": command,
            "argv": list(argv),
            "config": {},
            "seeds": {},
            "dataset_fingerprints": {},
            "artifacts": [],
            "timings_sec": {},
        }
        self._t0 = {}

    def fingerprint(self, label: str, path: str):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        self.doc["dataset_fingerprints"][label] = h.hexdigest()

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        yield
        self.doc["timings_sec"][name] = time.perf_counter() - t0

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh, indent=2)
            fh.write("\n")


def _emit(doc: dict):
    print(json.dumps(doc, indent=2))


def _log(msg: str):
    print(msg, file=sys.stderr)


def _open_progress(spec: str | None):
    if spec is None:
        return None, lambda: None
    if spec == "-":
        return sys.stderr, lambda: None
    fh = open(spec, "w", encoding="utf-8")
    return fh, fh.close


def _load_for_training(path: str) -> Dataset:
    ds = dataio.load_any(path)
    if ds.normalized:
        return ds
    return dataio.preprocess(ds.points)


def _load_for_model(path: str, model) -> Dataset:
    ds = dataio.load_any(path)
    if ds.normalized:
        return ds
    return dataio.preprocess_for_model(ds.points, model)


def _select_secants(data: Dataset, spec: str, seed: int) -> SecantBatch:
    """Training secants for a spec that matches SECANT_SPEC."""
    if spec == "all":
        return SecantBatch.all_pairs(data.points)
    if spec == "bre":
        try:
            return dataio.bre_secant_selection(data)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return SecantBatch.sample(data.points, int(spec.split(":", 1)[1]), seed)


# ---------------------------------------------------------------------------
# train


def cmd_train(args, parser, argv) -> int:
    cg_flags = [args.init_sample is not None, args.violator_batch is not None,
                args.max_gens is not None]
    if args.algo != "nibh-cg" and any(cg_flags):
        parser.error(f"--init-sample/--violator-batch/--max-gens apply only "
                     f"to --algo nibh-cg, not {args.algo}")
    if args.algo != "nibh" and args.secants != "all":
        parser.error(f"--secants applies only to --algo nibh, not {args.algo}")
    if not SECANT_SPEC.fullmatch(args.secants):
        parser.error(f"--secants must be all, bre or sample:K with K >= 1, "
                     f"not {args.secants!r}")
    if args.bits < 1:
        parser.error(f"--bits must be >= 1, got {args.bits}")

    # the configs range-check their settings; a flag they reject is misused
    try:
        solver_cfg = SolverConfig(
            rho=args.rho, eta=args.eta, alpha_start=args.alpha_start,
            alpha_end=args.alpha_end, alpha_growth=args.alpha_growth,
            max_outer_iters=args.max_iters, convergence_tol=args.tol,
            seed=args.seed,
        )
        if args.algo == "nibh-cg":
            given = {"init_sample_size": args.init_sample,
                     "violator_batch": args.violator_batch,
                     "max_generations": args.max_gens}
            cg_cfg = colgen.CgConfig(
                scan_seed=args.seed, inner=solver_cfg,
                **{key: val for key, val in given.items() if val is not None})
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    man = Manifest("train", argv)
    man.fingerprint("data", args.data)
    man.doc["seeds"]["seed"] = args.seed

    with man.phase("load"):
        data = _load_for_training(args.data)
    report: dict = {
        "algo": args.algo,
        "bits": args.bits,
        "seed": args.seed,
        "out": args.out,
    }

    progress, close_progress = _open_progress(args.progress)
    try:
        diverged = False
        if args.algo == "lsh":
            with man.phase("train"):
                model = baselines.lsh_model(args.bits, data.n, args.seed, data=data)
            rep = metrics.max_distortion(model, data, n_threads=args.threads)
            report.update({"delta": rep.delta, "lambda": model.lam, "iterations": 0})
        elif args.algo == "nibh":
            with man.phase("secants"):
                secants = _select_secants(data, args.secants, args.seed)
            with man.phase("train"):
                model, state = train_nibh(data, secants, args.bits, solver_cfg,
                                          progress=progress)
            diverged = state.diverged
            report.update({
                "delta": state.loss_history[state.best_iteration - 1][2],
                "lambda": model.lam,
                "iterations": state.iteration,
                "converged": state.converged,
                "diverged": state.diverged,
                "secants": args.secants,
                "secant_count": len(secants),
                "distance_convention": state.distance_convention,
            })
        else:  # nibh-cg
            with man.phase("train"):
                model, cg_rep = colgen.train_nibh_cg(
                    data, args.bits, cg_cfg, progress=progress,
                    n_threads=args.threads,
                )
            # training measured the returned model's delta over every pair
            best = cg_rep.history[cg_rep.best_generation]
            report.update({
                "delta": best["full_delta"],
                "lambda": model.lam,
                "iterations": cg_rep.generations,
                "delta_hat": cg_rep.delta_hat,
                "fully_satisfied": cg_rep.fully_satisfied,
                "active_size": cg_rep.active_size,
                "peak_resident_secants": cg_rep.peak_resident_secants,
            })
    finally:
        close_progress()

    with man.phase("write"):
        dataio.save_model(model, args.out)
    man.doc["artifacts"].append(args.out)
    man.doc["config"]["solver"] = vars(solver_cfg).copy()
    if args.algo == "nibh-cg":
        man.doc["config"]["cg"] = {key: val for key, val in vars(cg_cfg).items()
                                   if key != "inner"}
    man.write(args.manifest or args.out + ".manifest.json")
    _emit(report)
    return EXIT_DIVERGED if diverged else EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _read_queries(path: str | None):
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    try:
        queries = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise dataio.DataFormatError(
            f"{path}: query indices must be integers ({exc})") from None
    if not queries:
        raise dataio.DataFormatError(f"{path}: no query indices")
    return queries


def _check_queries(data: Dataset, queries, k: int, k_min: int = 1):
    # the library's validator; what it rejects is a usage error here
    try:
        metrics._check_queries(data, queries, k, k_min)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_eval(args, parser, argv) -> int:
    if args.metric == "delta" and (args.k is not None or args.queries is not None):
        parser.error("--k and --queries apply only to --metric map or tau; "
                     "delta is measured over all pairs")
    man = Manifest("eval", argv)
    man.fingerprint("data", args.data)
    man.fingerprint("model", args.model)

    with man.phase("load"):
        model = dataio.load_model(args.model)
        data = _load_for_model(args.data, model)
    queries = _read_queries(args.queries)

    k = args.k
    if k is None:
        k = {"delta": 0, "map": 50, "tau": 10}[args.metric]
    if args.metric != "delta":
        _check_queries(data, queries, k, k_min=2 if args.metric == "tau" else 1)

    with man.phase("eval"):
        if args.metric == "delta":
            rep = metrics.max_distortion(model, data, n_threads=args.threads)
        elif args.metric == "map":
            rep = metrics.map_at_k(model, data, queries=queries, k=k)
        else:
            rep = metrics.kendall_tau_at_k(model, data, queries=queries, k=k)

    doc = metrics.report_json(args.metric, model.m, rep)
    man.write(args.manifest or "eval.manifest.json")
    _emit(doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# demo


def cmd_demo_fig1(args, parser, argv) -> int:
    man = Manifest("demo-fig1", argv)
    man.doc["seeds"]["seed"] = args.seed

    # what the demo rejects (too few grid steps, a seed without the
    # contrast) is a misused flag
    try:
        with man.phase("generate"):
            pts, labels = baselines.make_fig1_dataset(args.seed, args.grid_steps)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    with man.phase("search"):
        linf = baselines.grid_search_embedding_1d(pts, "linf", args.grid_steps)
        l2 = baselines.grid_search_embedding_1d(pts, "l2", args.grid_steps)

    linf_ok, _, _ = baselines.nn_order_preserved(pts, linf.best_angle)
    l2_ok, _, _ = baselines.nn_order_preserved(pts, l2.best_angle)

    if args.out:
        prof_path = args.out + ".profile.csv"
        proj_path = args.out + ".projections.csv"
        with open(prof_path, "w", encoding="utf-8") as fh:
            fh.write("angle_rad,linf_distortion,l2_distortion\n")
            for (ang, dv), (_, dv2) in zip(linf.profile, l2.profile):
                fh.write(f"{ang!r},{dv!r},{dv2!r}\n")
        d_linf = np.array([np.cos(linf.best_angle), np.sin(linf.best_angle)])
        d_l2 = np.array([np.cos(l2.best_angle), np.sin(l2.best_angle)])
        with open(proj_path, "w", encoding="utf-8") as fh:
            fh.write("x,y,label,proj_linf,proj_l2\n")
            for p, lab in zip(pts, labels):
                fh.write(f"{p[0]!r},{p[1]!r},{lab},{p @ d_linf!r},{p @ d_l2!r}\n")
        man.doc["artifacts"] += [prof_path, proj_path]

    doc = {
        "points": len(pts),
        "counts": {"circle": 5, "square": 5, "star": 60},
        "linf": {"angle_rad": linf.best_angle, "distortion": linf.distortion,
                 "nn_order_preserved": linf_ok},
        "l2": {"angle_rad": l2.best_angle, "distortion": l2.distortion,
               "nn_order_preserved": l2_ok},
        "circle_square_misordered_l2": baselines.circle_square_misordered(
            pts, labels, l2.best_angle),
    }
    man.write(args.manifest or "demo-fig1.manifest.json")
    _emit(doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# checks


def cmd_check(args, parser, argv) -> int:
    man = Manifest(f"check-{args.check}", argv)
    if args.check == "lemma1":
        man.doc["seeds"]["seed"] = args.seed
        try:
            with man.phase("check"):
                emp, bound = theory.lemma1_empirical(
                    args.alpha, args.sigma, n_samples=args.samples, seed=args.seed)
            doc = {"check": "lemma1", "alpha": args.alpha, "sigma": args.sigma,
                   "samples": args.samples, "empirical_mean": emp,
                   "bound": bound, "passed": True}
            code = EXIT_OK
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        except AssertionError as exc:
            doc = {"check": "lemma1", "alpha": args.alpha, "sigma": args.sigma,
                   "samples": args.samples, "error": str(exc), "passed": False}
            code = EXIT_CHECK_FAILED
        man.write(args.manifest or "check-lemma1.manifest.json")
        _emit(doc)
        return code

    # knn sufficiency
    man.fingerprint("data", args.data)
    man.fingerprint("model", args.model)
    with man.phase("load"):
        model = dataio.load_model(args.model)
        data = _load_for_model(args.data, model)
    queries = _read_queries(args.queries)
    _check_queries(data, queries, args.k)
    with man.phase("check"):
        rep = theory.knn_sufficiency_check(model, data, queries=queries, k=args.k,
                                           n_threads=args.threads)
    doc = {
        "check": "knn",
        "k": rep.k,
        "delta": rep.delta,
        "queries": int(rep.per_query_gap.size),
        "satisfied_queries": [int(x) for x in rep.satisfied_queries],
        "gaps": [float(g) for g in rep.per_query_gap],
        "preserved": [bool(b) for b in rep.preserved],
        "passed": rep.ok,
    }
    man.write(args.manifest or "check-knn.manifest.json")
    _emit(doc)
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isohash",
        description="Binary hashing by worst-case distance-distortion "
                    "minimization: training, evaluation, demos, checks.",
    )
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for all-pairs scans; 2 threads "
                        "measure 1.8x faster at 10^4 points and from "
                        "no faster to 1.6x at 2000 (default: 1)")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a hashing model")
    t.add_argument("--data", required=True)
    t.add_argument("--algo", choices=["nibh", "nibh-cg", "lsh"], default="nibh")
    t.add_argument("--bits", type=int, required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--rho", type=float, default=1.0)
    t.add_argument("--eta", type=float, default=1.6)
    t.add_argument("--alpha-start", type=float, default=1.0)
    t.add_argument("--alpha-end", type=float, default=10.0)
    t.add_argument("--alpha-growth", type=float, default=1.25)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--secants", default="all",
                   help="nibh secant selection: all | bre | sample:K")
    t.add_argument("--init-sample", type=int, default=None)
    t.add_argument("--violator-batch", type=int, default=None)
    t.add_argument("--max-gens", type=int, default=None)
    t.add_argument("--tol", type=float, default=1e-5)
    t.add_argument("--max-iters", type=int, default=100)
    t.add_argument("--progress", default=None,
                   help="JSON-lines progress sink path, or - for stderr")
    t.add_argument("--manifest", default=None)

    e = sub.add_parser("eval", help="evaluate a model on a dataset")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--metric", choices=["delta", "map", "tau"], required=True)
    e.add_argument("--k", type=int, default=None,
                   help="neighbor count (default: 50 for map, 10 for tau)")
    e.add_argument("--queries", default=None,
                   help="file of query indices, one per line (default: all)")
    e.add_argument("--manifest", default=None)

    d = sub.add_parser("demo-fig1", help="worst-case vs average 1-D embedding demo")
    d.add_argument("--seed", type=int, default=baselines.DEMO_DATASET_SEED)
    d.add_argument("--grid-steps", type=int, default=baselines.DEFAULT_GRID_STEPS)
    d.add_argument("--out", default=None, help="prefix for CSV outputs")
    d.add_argument("--manifest", default=None)

    c = sub.add_parser("check", help="run an executable theory check")
    csub = c.add_subparsers(dest="check", required=True)
    c1 = csub.add_parser("lemma1")
    c1.add_argument("--alpha", type=float, required=True)
    c1.add_argument("--sigma", type=float, required=True)
    c1.add_argument("--samples", type=int, default=10**6)
    c1.add_argument("--seed", type=int, default=0)
    c1.add_argument("--manifest", default=None)
    c2 = csub.add_parser("knn")
    c2.add_argument("--model", required=True)
    c2.add_argument("--data", required=True)
    c2.add_argument("--k", type=int, default=5)
    c2.add_argument("--queries", default=None)
    c2.add_argument("--manifest", default=None)

    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    handlers = {
        "train": cmd_train,
        "eval": cmd_eval,
        "demo-fig1": cmd_demo_fig1,
        "check": cmd_check,
    }
    try:
        return handlers[args.command](args, parser, argv)
    except UsageError as exc:
        _log(f"usage error: {exc}")
        return EXIT_USAGE
    except (dataio.DataFormatError, FileNotFoundError, IsADirectoryError) as exc:
        _log(f"data error: {exc}")
        return EXIT_DATA
    except DivergenceError as exc:
        _log(f"solver divergence: {exc}")
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())

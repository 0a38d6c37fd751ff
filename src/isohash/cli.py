"""Command-line entry point.

Subcommands: ``train`` (nibh | nibh-cg | lsh), ``eval`` (delta | map | tau),
``demo-fig1``, ``check`` (lemma1 | knn). Every command prints exactly one
JSON document to stdout (logs go to stderr), writes one run manifest (to
``--manifest``, else ``<--out>.manifest.json`` for ``train`` and
``<command>.manifest.json`` in the working directory for ``eval``,
``demo-fig1``, ``check-lemma1`` and ``check-knn``), and is deterministic
given its flags and input files; wall-clock timings appear only in the
manifest. Whatever the ``--algo`` and ``--secants``, the ``delta`` of a
``train`` report is the saved model's distortion over every pair of the
training data at the refit scale, the number that ``eval --metric delta``
prints for the same model and data. ``check knn`` judges the neighbor gaps
against that same delta, whatever scale the model file stores: a positive
scale changes no Hamming ranking. Only this module writes JSON: the stdout
document, the ``--progress`` lines and the manifest.

Exit codes: 0 success, 2 usage, 3 data error, 4 solver divergence,
5 check failure. A flag value that the parser or the library rejects exits
2; a file, or a model and data pair, that the library cannot use exits 3.
Usage errors: a malformed flag value (``--bits`` or ``--threads`` below 1,
a ``--secants`` other than all, bre or sample:K with K >= 1, a solver or
column-generation setting that ``SolverConfig`` or ``CgConfig`` rejects, a
``demo-fig1`` ``--grid-steps`` below 2 or ``--seed`` without the demo's
contrast, a ``check lemma1`` ``--alpha`` or ``--sigma`` not positive or
``--samples`` below 10^4), a flag the chosen command or metric does not use
(``--threads`` is for ``train``, ``eval --metric delta`` and ``check knn``),
and a ``--k`` or ``--queries`` index or a ``--secants bre`` that the dataset
cannot serve. Data errors: a file that cannot be read or written (missing,
a directory, or under a regular file), a queries file that does not parse as
integers, a non-finite data value, a zero row in a dataset flagged
normalized, fewer than 2 points, a model header that is malformed or that
``HashModel`` rejects (a W, lambda, alpha or mean that is not finite among
them), data whose width is not the model's, and codes that collapse on the
data. Neither prints to stdout or writes a manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from collections import Counter
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


def _open_progress(spec: str | None):
    """A callable writing each record as a JSON line to ``spec`` (- is
    stderr), and its closer."""
    if spec is None:
        return None, lambda: None
    fh = sys.stderr if spec == "-" else open(spec, "w", encoding="utf-8")

    def write(record: dict):
        fh.write(json.dumps(record) + "\n")

    return write, (lambda: None) if fh is sys.stderr else fh.close


def _load_data(path: str, model=None) -> Dataset:
    """The dataset at ``path``, preprocessed for training or for ``model``."""
    ds = dataio.load_any(path)
    if model is not None and ds.n != model.n:
        raise dataio.DataFormatError(
            f"{path}: data has {ds.n} columns, the model expects {model.n}")
    if ds.normalized:
        return ds
    if model is None:
        return dataio.preprocess(ds.points)
    return dataio.preprocess_for_model(ds.points, model)


def _select_secants(data: Dataset, spec: str, seed: int) -> SecantBatch:
    """Training secants for a spec that matches SECANT_SPEC."""
    if spec == "all":
        return SecantBatch.all_pairs(data.points)
    if spec == "bre":
        return dataio.bre_secant_selection(data)
    return SecantBatch.sample(data.points, int(spec.split(":", 1)[1]), seed)


# ---------------------------------------------------------------------------
# train


def cmd_train(args, parser, man) -> tuple[dict, int]:
    given = {key: val for key, val in zip(
        ("init_sample_size", "violator_batch", "max_generations"),
        (args.init_sample, args.violator_batch, args.max_gens)) if val is not None}
    if args.algo != "nibh-cg" and given:
        parser.error(f"--init-sample/--violator-batch/--max-gens apply only "
                     f"to --algo nibh-cg, not {args.algo}")
    if args.algo != "nibh" and args.secants != "all":
        parser.error(f"--secants applies only to --algo nibh, not {args.algo}")
    if not SECANT_SPEC.fullmatch(args.secants):
        parser.error(f"--secants must be all, bre or sample:K with K >= 1, "
                     f"not {args.secants!r}")
    if args.bits < 1:
        parser.error(f"--bits must be >= 1, got {args.bits}")

    # the configs range-check their settings before any file is read
    solver_cfg = SolverConfig(
        rho=args.rho, eta=args.eta, alpha_start=args.alpha_start,
        alpha_end=args.alpha_end, alpha_growth=args.alpha_growth,
        max_outer_iters=args.max_iters, convergence_tol=args.tol,
        seed=args.seed,
    )
    if args.algo == "nibh-cg":
        cg_cfg = colgen.CgConfig(scan_seed=args.seed, inner=solver_cfg, **given)

    man.fingerprint("data", args.data)
    man.doc["seeds"]["seed"] = args.seed

    with man.phase("load"):
        data = _load_data(args.data)
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
                # one all-pairs pass fits lambda* and measures delta
                model, rep = baselines.lsh_fit(args.bits, data, args.seed,
                                               n_threads=args.threads)
            report.update({"delta": rep.delta, "lambda": model.lam, "iterations": 0})
        elif args.algo == "nibh":
            with man.phase("secants"):
                secants = _select_secants(data, args.secants, args.seed)
            with man.phase("train"):
                model, state = train_nibh(data, secants, args.bits, solver_cfg,
                                          progress=progress)
            diverged = state.diverged
            rep = metrics.max_distortion(model, data, n_threads=args.threads)
            report.update({
                "delta": rep.delta,
                "lambda": model.lam,
                "iterations": state.iteration,
                "converged": state.converged,
                "diverged": state.diverged,
                "secants": args.secants,
                "secant_count": len(secants),
                "distance_convention": "unsquared-l2",
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
                "delta_hat": best["delta_hat"],
                "fully_satisfied": cg_rep.fully_satisfied,
                "active_size": best["active_size"],
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
    return report, EXIT_DIVERGED if diverged else EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _read_queries(path: str | None):
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            queries = [int(tok) for tok in fh.read().split()]
    except ValueError as exc:  # text that is not UTF-8 among them
        raise dataio.DataFormatError(
            f"{path}: query indices must be integers ({exc})") from None
    if not queries:
        raise dataio.DataFormatError(f"{path}: no query indices")
    return queries


def _load_model_data(args, man):
    """(model, data, queries) from ``--model``, ``--data`` and ``--queries``."""
    man.fingerprint("data", args.data)
    man.fingerprint("model", args.model)
    with man.phase("load"):
        model = dataio.load_model(args.model)
        data = _load_data(args.data, model)
    return model, data, _read_queries(args.queries)


def cmd_eval(args, parser, man) -> tuple[dict, int]:
    if args.metric == "delta" and (args.k is not None or args.queries is not None):
        parser.error("--k and --queries apply only to --metric map or tau; "
                     "delta is measured over all pairs")
    model, data, queries = _load_model_data(args, man)
    k = {"map": 50, "tau": 10}.get(args.metric) if args.k is None else args.k

    # one schema for every metric: a key that a metric lacks is null
    with man.phase("eval"):
        if args.metric == "delta":
            rep = metrics.max_distortion(model, data, n_threads=args.threads)
            doc = {"metric": "delta", "k": None, "M": model.m, "value": rep.delta,
                   "per_query": None, "lambda_star": rep.lambda_star, "delta": rep.delta}
        elif args.metric == "map":
            rep = metrics.map_at_k(model, data, queries, k)
            doc = {"metric": "map", "k": rep.k, "M": model.m, "value": rep.map,
                   "per_query": rep.per_query_ap.tolist(), "lambda_star": None,
                   "delta": None}
        else:
            rep = metrics.kendall_tau_at_k(model, data, queries, k)
            doc = {"metric": "tau", "k": rep.k, "M": model.m, "value": rep.mean_tau,
                   "per_query": rep.per_query_tau.tolist(), "lambda_star": None,
                   "delta": None}
    return doc, EXIT_OK


# ---------------------------------------------------------------------------
# demo


def cmd_demo_fig1(args, parser, man) -> tuple[dict, int]:
    man.doc["seeds"]["seed"] = args.seed
    # the generator's own grid searches are the demo's, and it returns only
    # when the worst-case angle preserves the query's neighbor order and the
    # average one does not
    with man.phase("generate"):
        pts, labels, linf, l2 = baselines.make_fig1_dataset(
            args.seed, args.grid_steps)

    if args.out:
        prof_path = args.out + ".profile.csv"
        proj_path = args.out + ".projections.csv"
        with open(prof_path, "w", encoding="utf-8") as fh:
            fh.write("angle_rad,linf_distortion,l2_distortion\n")
            for (ang, dv), (_, dv2) in zip(linf.profile, l2.profile):
                fh.write(f"{float(ang)!r},{float(dv)!r},{float(dv2)!r}\n")
        d_linf = np.array([np.cos(linf.best_angle), np.sin(linf.best_angle)])
        d_l2 = np.array([np.cos(l2.best_angle), np.sin(l2.best_angle)])
        with open(proj_path, "w", encoding="utf-8") as fh:
            fh.write("x,y,label,proj_linf,proj_l2\n")
            for p, lab in zip(pts, labels):
                x, y, a, b = (float(t) for t in (p[0], p[1], p @ d_linf, p @ d_l2))
                fh.write(f"{x!r},{y!r},{lab},{a!r},{b!r}\n")
        man.doc["artifacts"] += [prof_path, proj_path]

    doc = {
        "points": len(pts),
        "counts": dict(Counter(labels.tolist())),
        "linf": {"angle_rad": linf.best_angle, "distortion": linf.distortion,
                 "nn_order_preserved": True},
        "l2": {"angle_rad": l2.best_angle, "distortion": l2.distortion,
               "nn_order_preserved": False},
        "circle_square_misordered_l2": baselines.circle_square_misordered(
            pts, labels, l2.best_angle),
    }
    return doc, EXIT_OK


# ---------------------------------------------------------------------------
# checks


def cmd_check_lemma1(args, parser, man) -> tuple[dict, int]:
    man.doc["seeds"]["seed"] = args.seed
    doc = {"check": "lemma1", "alpha": args.alpha, "sigma": args.sigma,
           "samples": args.samples}
    try:
        with man.phase("check"):
            emp, bound = theory.lemma1_empirical(
                args.alpha, args.sigma, n_samples=args.samples, seed=args.seed)
    except AssertionError as exc:
        return {**doc, "error": str(exc), "passed": False}, EXIT_CHECK_FAILED
    return {**doc, "empirical_mean": emp, "bound": bound, "passed": True}, EXIT_OK


def cmd_check_knn(args, parser, man) -> tuple[dict, int]:
    model, data, queries = _load_model_data(args, man)
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
    return doc, EXIT_OK if rep.ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isohash",
        description="Binary hashing by worst-case distance-distortion "
                    "minimization: training, evaluation, demos, checks.",
    )
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads for all-pairs scans; a second "
                        "thread pays at 10^4 points, not at 2000 (default: 1)")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a hashing model")
    t.add_argument("--data", required=True)
    t.add_argument("--algo", choices=["nibh", "nibh-cg", "lsh"], default="nibh")
    t.add_argument("--bits", type=int, required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--rho", type=float, default=SolverConfig.rho)
    t.add_argument("--eta", type=float, default=SolverConfig.eta)
    t.add_argument("--alpha-start", type=float, default=SolverConfig.alpha_start)
    t.add_argument("--alpha-end", type=float, default=SolverConfig.alpha_end)
    t.add_argument("--alpha-growth", type=float, default=SolverConfig.alpha_growth)
    t.add_argument("--seed", type=int, default=SolverConfig.seed)
    t.add_argument("--secants", default="all",
                   help="nibh secant selection: all | bre | sample:K")
    t.add_argument("--init-sample", type=int, default=None)
    t.add_argument("--violator-batch", type=int, default=None)
    t.add_argument("--max-gens", type=int, default=None)
    t.add_argument("--tol", type=float, default=SolverConfig.convergence_tol)
    t.add_argument("--max-iters", type=int, default=SolverConfig.max_outer_iters)
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
    command = f"check-{args.check}" if args.command == "check" else args.command
    if args.threads is None:
        args.threads = 1
    elif args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    elif command in ("demo-fig1", "check-lemma1") or \
            command == "eval" and args.metric != "delta":
        parser.error("--threads applies only to the all-pairs scans of train, "
                     "eval --metric delta and check knn")
    handler = {
        "train": cmd_train,
        "eval": cmd_eval,
        "demo-fig1": cmd_demo_fig1,
        "check-lemma1": cmd_check_lemma1,
        "check-knn": cmd_check_knn,
    }[command]
    man = Manifest(command, argv)
    # the one place where an exception becomes an exit code
    try:
        doc, code = handler(args, parser, man)
        man.write(args.manifest or (args.out if command == "train" else command)
                  + ".manifest.json")
    except DivergenceError as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (dataio.DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        # the library rejected a flag value, or a flag the dataset cannot serve
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(doc, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())

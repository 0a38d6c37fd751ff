"""Per-layer tracing for the benchmark, installed from outside the package.

The layers are the isohash modules. Each module looks up the functions it
calls in its own globals at call time, so replacing a module attribute (for
example ``isohash.admm.w_step``) with a timing wrapper sees every call the
module makes. A function that several modules import is wrapped once per
importing module and reported under that caller's prefix: ``hamming_pairs``
called through ``isohash.admm`` is quantized-delta bookkeeping, the same
function called through ``isohash.metrics`` is the evaluation pair scan.

Spans stay in memory and are reduced to per-layer metrics when the traced
phase ends. Pool workers (``max_distortion`` with ``n_threads=2``) record
spans concurrently, so the span list and the counters sit behind one lock and
every thread keeps its own stack of open spans.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

PHASES = ("setup", "train", "eval")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Recorder:
    """Thread-safe in-memory span and counter store.

    A span opened on a thread whose own stack is empty (a pool worker) takes
    as parent the innermost open span of the thread that created the
    recorder, which is blocked waiting for that worker.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._owner_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _context(self) -> list:
        return self._stack() or self._owner_stack

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open around the caller."""
        return any(open_name == name for _, open_name in self._context())

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def span(self, name: str):
        return _SpanContext(self, name)

    def write(self, path) -> None:
        """Write every recorded span as one JSON line, in closing order."""
        with self._lock, open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class _SpanContext:
    __slots__ = ("rec", "name", "sid", "parent", "start")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        context = rec._context()
        self.parent = context[-1][0] if context else None
        with rec._lock:
            self.sid = rec._next_id
            rec._next_id += 1
        rec._stack().append((self.sid, self.name))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        rec = self.rec
        rec._stack().pop()
        span = Span(self.sid, self.name, self.start, end, self.parent,
                    threading.get_ident())
        with rec._lock:
            rec.spans.append(span)
        return False


# ---------------------------------------------------------------------------
# instrumentation


def instrument(rec: Recorder):
    """Wrap the public functions of every layer; returns a callable that
    puts the original attributes back."""
    from isohash import admm, baselines, colgen, dataio, metrics, theory

    saved = []

    def wrap(module, attr, name, after=None):
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with rec.span(name):
                out = orig(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        saved.append((module, attr, orig))
        setattr(module, attr, traced)

    def count(module, attr, within, key, amount):
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            if rec.inside(within):
                rec.add(key, amount(args))
            return orig(*args, **kwargs)

        saved.append((module, attr, orig))
        setattr(module, attr, counted)

    def solver_state(args, out):
        state = out[1]
        rec.add("admm.outer_iters", state.iteration)
        rec.add("admm.converged", int(state.converged))

    def cg_report(args, out):
        report = out[1]
        rec.add("colgen.generations", report.generations)
        rec.add("colgen.fully_satisfied", int(report.fully_satisfied))
        rec.add("colgen.peak_resident_secants", report.peak_resident_secants)

    def gathered(args, out):
        pairs = len(args[1])
        rec.add("metrics.pair_distances.pairs", pairs)
        rec.add("metrics.pair_distances.bytes_computed",
                2 * pairs * args[0].shape[1] * 8)

    def file_bytes(position):
        def after(args, out):
            rec.add("dataio.io_bytes", os.path.getsize(args[position]))
        return after

    wrap(admm, "train_nibh", "admm.train_nibh", solver_state)
    wrap(admm, "w_step", "admm.w_step")
    wrap(admm, "u_step", "admm.u_step")
    wrap(admm, "lambda_step", "admm.lambda_step")
    wrap(admm, "y_step", "admm.y_step")
    for attr in ("hash_matrix", "hamming_pairs", "fit_lambda_chebyshev"):
        wrap(admm, attr, "admm.qdelta")
    # every AGD loss or loss+gradient evaluation makes exactly one sigmoid call
    count(admm, "sigmoid", "admm.w_step", "admm.w_step.loss_evals",
          lambda args: 1)

    wrap(colgen, "train_nibh_cg", "colgen.train_nibh_cg", cg_report)
    wrap(colgen, "train_nibh", "admm.train_nibh", solver_state)
    wrap(colgen, "scan_violators", "colgen.scan_violators",
         lambda args, out: rec.add("colgen.violators", len(out[0])))
    wrap(colgen, "identify_active", "colgen.identify_active")
    count(colgen, "decode_pair_indices", "colgen.scan_violators",
          "colgen.scan.pairs", lambda args: len(args[0]))

    wrap(metrics, "max_distortion", "metrics.max_distortion")
    wrap(theory, "max_distortion", "metrics.max_distortion")
    wrap(metrics, "sample_pair_indices", "metrics.fit_sample")
    wrap(metrics, "fit_lambda_chebyshev", "metrics.fit_lambda_chebyshev")
    wrap(metrics, "pair_distances", "metrics.pair_distances", gathered)
    wrap(metrics, "hamming_pairs", "metrics.hamming_pairs",
         lambda args, out: rec.add("metrics.hamming_pairs.pairs", len(args[1])))
    wrap(metrics, "map_at_k", "metrics.map_at_k")
    wrap(metrics, "kendall_tau_at_k", "metrics.kendall_tau_at_k")
    wrap(theory, "knn_sufficiency_check", "theory.knn_sufficiency_check")

    wrap(dataio, "save_binary", "dataio.save_binary", file_bytes(1))
    wrap(dataio, "load_any", "dataio.load_any", file_bytes(0))
    wrap(dataio, "preprocess", "dataio.preprocess")
    wrap(dataio, "save_model", "dataio.model_roundtrip", file_bytes(1))
    wrap(dataio, "load_model", "dataio.model_roundtrip", file_bytes(0))
    wrap(baselines, "lsh_model", "baselines.lsh_model")

    def restore():
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)

    return restore


# ---------------------------------------------------------------------------
# reduction to per-layer metrics


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span], names) -> float:
    """Summed self time of the spans called one of ``names``: each span's
    duration minus the part of it that its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    total = 0.0
    for s in spans:
        if s.name in names:
            kids = [(max(c.start, s.start), min(c.end, s.end))
                    for c in children[s.id]]
            total += (s.end - s.start) - _covered(kids)
    return total


def layer_metrics(rec: Recorder, names) -> dict[str, float]:
    """Reduce recorded spans and counters to the per-layer metrics ``names``;
    a layer the run never entered reads 0.

    Times of spans recorded on pool workers are busy time summed over
    threads, so they can exceed the wall time of the call that started them.
    """
    busy = defaultdict(float)
    calls = defaultdict(int)
    for s in rec.spans:
        busy[s.name] += s.end - s.start
        calls[s.name] += 1
    out = {name: 0.0 for name in names}
    for name in out:
        if name.endswith(".calls"):
            out[name] = float(calls[name[:-len(".calls")]])
        elif name.endswith(".s") and name[:-2] in busy:
            out[name] = busy[name[:-2]]
    for key, value in rec.counters.items():
        out[key] = float(value)

    for phase in PHASES:
        out[f"phase.{phase}.untraced_s"] = self_times(rec.spans, {f"phase.{phase}"})
    # the only spans inside train_nibh are the w, u, lambda, y and qdelta rows
    out["admm.self.s"] = self_times(rec.spans, {"admm.train_nibh"})
    out["colgen.self.s"] = self_times(rec.spans, {"colgen.train_nibh_cg"})

    evals = out["admm.w_step.loss_evals"]
    out["admm.w_step.s_per_eval"] = out["admm.w_step.s"] / evals if evals else 0.0
    pairs, scan_s = out["colgen.scan.pairs"], out["colgen.scan_violators.s"]
    out["colgen.scan.pairs_per_s"] = pairs / scan_s if scan_s else 0.0
    out["colgen.violators_per_mpair"] = \
        out["colgen.violators"] / (pairs / 1e6) if pairs else 0.0
    return out


"""Output checks for the benchmark, independent of the code they check.

Every check recomputes a reported number by brute force, from codes taken
directly as signs of W x and from literal l2 norms, and returns a list of
human-readable failures (empty when the output is right). Checks run after
the timed phases and after peak RSS is read, one row of pairs at a time, so
they neither cost measured time nor raise the reported memory.
"""

from __future__ import annotations

import numpy as np

# a brute-force value may differ from the library's in the last bits,
# because it sums in another order
REL_TOL = 1e-12


def _bits(model, points) -> np.ndarray:
    return points @ model.w.T >= 0.0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def distortion(report, model, points, pairs=None) -> list[str]:
    """The reported delta equals |lambda* d_H - ||x_i - x_j||| at the
    reported worst secant, and no pair exceeds it.

    ``pairs`` = None checks every pair and also requires some pair to reach
    delta; otherwise it is an (i, j) sample that must stay within delta.
    """
    bad = []
    bits = _bits(model, points)
    lam, delta = report.lambda_star, report.delta
    ws = report.worst_secant
    norm = float(np.linalg.norm(points[ws.i] - points[ws.j]))
    if not _close(ws.c, norm):
        bad.append(f"worst secant ({ws.i}, {ws.j}) target {ws.c!r} != norm {norm!r}")
    d_h = int(np.count_nonzero(bits[ws.i] != bits[ws.j]))
    if not _close(abs(lam * d_h - norm), delta):
        bad.append(f"delta {delta!r} != |{lam!r} * {d_h} - {norm!r}| at the "
                   f"worst secant ({ws.i}, {ws.j})")

    worst = -1.0
    if pairs is None:
        for i in range(1, points.shape[0]):
            norms = np.linalg.norm(points[:i] - points[i], axis=1)
            d_h = np.count_nonzero(bits[:i] != bits[i], axis=1)
            worst = max(worst, float(np.max(np.abs(lam * d_h - norms))))
    else:
        i_idx, j_idx = pairs
        for start in range(0, i_idx.size, 10_000):
            i, j = i_idx[start:start + 10_000], j_idx[start:start + 10_000]
            norms = np.linalg.norm(points[i] - points[j], axis=1)
            d_h = np.count_nonzero(bits[i] != bits[j], axis=1)
            worst = max(worst, float(np.max(np.abs(lam * d_h - norms))))
    if worst > delta and not _close(worst, delta):
        bad.append(f"a pair has residual {worst!r} > reported delta {delta!r}")
    if pairs is None and not _close(worst, delta):
        bad.append(f"no pair reaches the reported delta {delta!r} (max {worst!r})")
    return bad


def _ranked(dist: np.ndarray, query: int, k: int) -> list[int]:
    # nearest first, ties by ascending index, the query itself excluded
    order = sorted(range(dist.size), key=lambda t: (dist[t], t))
    return [t for t in order if t != query][:k]


def neighbors(model, points, queries, k, map_report, tau_report=None,
              n_check: int = 20, seed: int = 0) -> list[str]:
    """MAP@k (and Kendall tau@k, when given) match a brute-force
    recomputation on ``n_check`` seeded queries, and each mean is the mean
    of its per-query values."""
    bad = []
    bits = _bits(model, points)
    queries = np.arange(points.shape[0]) if queries is None else np.asarray(queries)
    rng = np.random.default_rng(seed)
    picks = rng.choice(queries.size, size=min(n_check, queries.size), replace=False)
    for pos in picks:
        query = int(queries[pos])
        d_amb = np.linalg.norm(points - points[query], axis=1)
        d_ham = np.count_nonzero(bits != bits[query], axis=1)
        ambient = _ranked(d_amb, query, k)
        ap = len(set(ambient) & set(_ranked(d_ham, query, k))) / k
        if ap != map_report.per_query_ap[pos]:
            bad.append(f"query {query}: AP {map_report.per_query_ap[pos]!r}, "
                       f"brute force {ap!r}")
        if tau_report is not None:
            key = [(d_ham[t], t) for t in ambient]
            score = sum(1 if key[b] > key[a] else -1
                        for a in range(k) for b in range(a + 1, k))
            tau = score / (k * (k - 1) // 2)
            if tau != tau_report.per_query_tau[pos]:
                bad.append(f"query {query}: tau {tau_report.per_query_tau[pos]!r}, "
                           f"brute force {tau!r}")
    if not _close(map_report.map, float(np.mean(map_report.per_query_ap))):
        bad.append("MAP is not the mean of its per-query values")
    if tau_report is not None and \
            not _close(tau_report.mean_tau, float(np.mean(tau_report.per_query_tau))):
        bad.append("tau is not the mean of its per-query values")
    return bad


def knn_gap(gap_report, delta: float) -> list[str]:
    """The neighbor-preservation guarantee holds, at the reported delta."""
    bad = []
    if not gap_report.ok:
        bad.append(f"{int((~gap_report.preserved).sum())} gap-satisfying queries "
                   "lost an ambient neighbor")
    if not _close(gap_report.delta, delta):
        bad.append(f"knn check delta {gap_report.delta!r} != reported {delta!r}")
    return bad


def cg_report(report, config) -> list[str]:
    """Column-generation bookkeeping stays within its stated bounds."""
    bad = []
    limit = report.init_size + report.generations * config.violator_batch
    if report.peak_resident_secants > limit:
        bad.append(f"peak resident secants {report.peak_resident_secants} > "
                   f"init {report.init_size} + {report.generations} x "
                   f"{config.violator_batch}")
    if report.generations > config.max_generations:
        bad.append(f"{report.generations} generations > max {config.max_generations}")
    return bad


def roundtrip(original, loaded, model, loaded_model) -> list[str]:
    """Binary dataset and model files give back what was written (the
    dataset at float32 precision)."""
    bad = []
    if not np.array_equal(original.points.astype(np.float32).astype(np.float64),
                          loaded.points):
        bad.append("dataset changed in a save_binary/load_any round trip")
    if not (np.array_equal(model.w, loaded_model.w) and model.lam == loaded_model.lam
            and np.array_equal(model.mean, loaded_model.mean)):
        bad.append("model changed in a save_model/load_model round trip")
    return bad

"""Evaluation metrics: worst-case distortion with its optimal scale, mean
average precision over k-nearest neighbors, and Kendall tau rank correlation.

The distortion scan runs on the tile engine (:class:`core.PairTiles`),
keeping a running max, its stream position and a histogram: O(tile + Q)
memory. Gram values only screen: pairs within twice the margin of a tile's
max or of a histogram edge are recomputed literally, so delta, the worst
secant and every count are those of a literal pass. ``n_threads`` pays off
once the pass spans many tiles (Q around 10^4), not at Q = 2000.

The scale is fitted exactly over every pair, in one more tile pass. At a
fixed lambda the largest rounded |lambda h - c| among the pairs at Hamming
level h sits at that level's smallest or largest literal distance c, so the
Chebyshev fit over those at most 2(M + 1) extremes is the fit over all
pairs, bit for bit. The pass keeps running per-level extremes and
recomputes literally the pairs whose Gram distance lies within twice the
margin of one. The neighbor metrics take query blocks as tiles
(:func:`core.query_neighbors`), ranked by :func:`core.ranked_neighbors`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    BinaryCodes,
    Dataset,
    HashModel,
    PairTiles,
    SecantBatch,
    SecantRef,
    decode_pair_indices,
    hamming_pairs,
    hash_codes,
    map_tiles,
    pair_distances,
    pair_linear_index,
    query_neighbors,
    ranked_neighbors,
    sample_pair_indices,  # unused; perfbench/tracing.py times it as fit_sample
    secant_count,
)

__all__ = [
    "DistortionReport",
    "NeighborReport",
    "fit_lambda_chebyshev",
    "max_distortion",
    "refit_lambda",
    "map_at_k",
    "kendall_tau_at_k",
    "report_json",
]

@dataclass
class DistortionReport:
    """Worst-case |lambda* d_H - c| over a pair set, with the scale that
    attains it, the offending pair, and a residual histogram."""

    delta: float
    lambda_star: float
    worst_secant: SecantRef
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    pair_count: int


@dataclass
class NeighborReport:
    """Per-query neighbor-preservation metrics; the MAP fields are filled by
    map_at_k, the tau fields by kendall_tau_at_k."""

    k: int
    map: Optional[float] = None
    per_query_ap: Optional[np.ndarray] = None
    mean_tau: Optional[float] = None
    per_query_tau: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# Chebyshev (minimax) scale fit


def _golden_section(g, lo: float, hi: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = g(x1), g(x2)
    while b - a > 1e-14 * max(1.0, abs(b)):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = g(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = g(x2)
    return 0.5 * (a + b)


def _certify_minimax(v: np.ndarray, c: np.ndarray, lam: float) -> None:
    # left/right subgradients of g(lam) = max_i |lam v_i - c_i| must bracket 0
    r = lam * v - c
    g = float(np.max(np.abs(r)))
    tol = 1e-9 * max(1.0, g)
    active = np.abs(np.abs(r) - g) <= tol
    pos = active & (r > tol)
    neg = active & (r < -tol)
    mid = active & ~pos & ~neg  # residual ~ 0 while g ~ 0
    right = np.concatenate([v[pos], v[mid], -v[neg]])
    left = np.concatenate([v[pos], -v[mid], -v[neg]])
    slope_tol = 1e-9 * max(1.0, float(v[active].max(initial=0.0)))
    if not (left.min() <= slope_tol and right.max() >= -slope_tol):
        raise AssertionError(
            f"minimax optimality certificate failed at lambda={lam!r}: "
            f"subgradient interval [{left.min()!r}, {right.max()!r}]"
        )


def fit_lambda_chebyshev(v_hat, c) -> tuple[float, float]:
    """Minimize g(lambda) = max_i |lambda v_i - c_i| over lambda > 0.

    g is convex piecewise-linear; the minimizer sits where the steepest
    rising and falling envelope lines cross. A top-2 exchange usually lands
    there in a few steps; golden-section over [0, lambda_hi] is the fallback,
    polished back onto the exact vertex. The optimality certificate (left and
    right subgradients bracketing zero) is asserted on every call.

    Returns (lambda_star, delta).
    """
    v = np.asarray(v_hat, dtype=np.float64).ravel()
    c = np.asarray(c, dtype=np.float64).ravel()
    if v.size != c.size or v.size < 1:
        raise ValueError(f"vector length mismatch: {v.size} vs {c.size}")
    if v.min(initial=0.0) < 0 or c.min(initial=0.0) < 0:
        raise ValueError("v and c must be nonnegative")
    if not np.any(v > 0):
        raise ValueError(f"embedding collapsed; delta = max c = {c.max():g}")
    if not np.any(c > 0):
        raise ValueError("all target distances are zero; no positive minimizer")

    lam_hi = float(c.max() / v[v > 0].min()) + 1.0

    def g(lam: float) -> float:
        return float(np.max(np.abs(lam * v - c)))

    def exchange(lam: float, iters: int) -> tuple[float, bool]:
        seen = set()
        for _ in range(iters):
            r = lam * v - c
            a = int(np.argmax(r))
            b = int(np.argmax(-r))
            denom = v[a] + v[b]
            if denom <= 0.0:
                return lam, False
            lam_new = (c[a] + c[b]) / denom
            if abs(lam_new - lam) <= 1e-15 * max(1.0, abs(lam)):
                return lam_new, True
            if (a, b) in seen:
                return lam, False
            seen.add((a, b))
            lam = lam_new
        return lam, False

    lam0 = float(v @ c) / float(v @ v)
    if not np.isfinite(lam0) or lam0 <= 0:
        lam0 = 0.5 * lam_hi
    lam, ok = exchange(min(lam0, lam_hi), 60)
    if not ok:
        lam = _golden_section(g, 0.0, lam_hi)
        lam, _ = exchange(lam, 8)  # land exactly on the vertex
    if lam <= 0:
        lam = np.finfo(np.float64).tiny
    _certify_minimax(v, c, lam)
    return float(lam), g(float(lam))


# ---------------------------------------------------------------------------
# worst-case distortion over a pair stream


def max_distortion(
    model: HashModel,
    data: Dataset,
    *,
    secants: Optional[SecantBatch] = None,
    lam: Optional[float] = None,
    n_threads: int = 1,
    histogram_bins: int = 64,
) -> DistortionReport:
    """Worst-case distortion of a model on a dataset.

    By default the scale is re-fitted (the metric's inf over lambda); pass
    ``lam`` to evaluate at a fixed scale, e.g. the model's own. With
    ``secants`` the scan is restricted to that batch (using its targets,
    which may be overridden); otherwise every pair is streamed with true
    ambient distances, and the refit is :func:`refit_lambda`, exact over
    every pair: one tile pass for the per-level extremes, then the scan.
    """
    codes = hash_codes(model, data)
    points = data.points

    if secants is not None:
        v = hamming_pairs(codes, secants.i, secants.j).astype(np.float64)
        c = secants.c
        lam_star = _resolve_lambda(v, c, lam)
        resid = np.abs(lam_star * v - c)
        worst = int(np.argmax(resid))
        delta = float(resid[worst])
        hi = max(delta, 1e-300)
        edges = np.linspace(0.0, hi * (1 + 1e-12), histogram_bins + 1)
        counts = np.histogram(resid, bins=edges)[0]
        return DistortionReport(
            delta=delta,
            lambda_star=lam_star,
            worst_secant=secants[worst],
            histogram_edges=edges,
            histogram_counts=counts,
            pair_count=len(secants),
        )

    lam_star = refit_lambda(codes, points, n_threads) if lam is None else float(lam)

    # residual <= max(lam*M, c) and c <= 2 * max row norm
    c_upper = 2.0 * float(np.max(np.linalg.norm(points, axis=1)))
    hi = max(lam_star * model.m, c_upper, 1e-300)
    edges = np.linspace(0.0, hi * (1 + 1e-12), histogram_bins + 1)
    tiles = PairTiles(points, codes)
    margin = tiles.margin(lam_star)
    scale = histogram_bins / edges[-1]
    # a residual screened this far from every edge has bin floor(r * scale)
    near = 2.0 * margin * scale

    def binned(idx):
        return np.bincount(idx, minlength=histogram_bins)[:histogram_bins]

    def scan(tile_list):
        delta, worst_t = -1.0, -1
        counts = np.zeros(histogram_bins, dtype=np.int64)
        for lo, hi in tile_list:
            r = tiles.residuals(lo, hi, lam_star)
            top = float(r.max())
            if top + margin >= delta:
                rows, j = np.nonzero(r >= top - 2.0 * margin)
                exact = tiles.exact_residuals(lo + rows, j, lam_star)
                k = int(np.argmax(exact))  # first is smallest stream position
                if exact[k] > delta:
                    delta = float(exact[k])
                    worst_t = int(pair_linear_index(lo + rows[k], j[k]))
            r *= scale
            # off-stream entries land past the last bin, between two edges
            idx = tiles.off_stream(r, lo, histogram_bins + 0.5).astype(np.intp)
            counts += binned(idx.ravel())
            r -= idx
            r -= 0.5
            rows, j = np.nonzero(np.abs(r, out=r) >= 0.5 - near)
            rows, j = rows[j < lo + rows], j[j < lo + rows]
            exact = tiles.exact_residuals(lo + rows, j, lam_star)
            counts += np.histogram(exact, bins=edges)[0] - binned(idx[rows, j])
        return delta, worst_t, counts

    parts = map_tiles(scan, data.q, n_threads)
    # deterministic tie-break: smallest stream position wins
    delta, worst_t, _ = max(parts, key=lambda part: (part[0], -part[1]))
    wi, wj = decode_pair_indices(np.array([worst_t]))
    worst = SecantRef(int(wi[0]), int(wj[0]), float(pair_distances(points, wi, wj)[0]))
    return DistortionReport(
        delta=delta,
        lambda_star=lam_star,
        worst_secant=worst,
        histogram_edges=edges,
        histogram_counts=sum(part[2] for part in parts),
        pair_count=secant_count(data.q),
    )


def refit_lambda(codes: BinaryCodes, points: np.ndarray, n_threads: int = 1) -> float:
    """The minimax scale lambda* over every pair of ``points``: the Chebyshev
    fit over each Hamming level's smallest and largest literal distance,
    which equals the fit over all pairs (see the module docstring)."""
    lo, hi = _level_extremes(codes, points, n_threads)
    level = np.flatnonzero(lo <= hi)  # the levels some pair sits at
    v = np.concatenate([level, level]).astype(np.float64)
    return _resolve_lambda(v, np.concatenate([lo[level], hi[level]]), None)


def _level_extremes(codes: BinaryCodes, points: np.ndarray, n_threads: int = 1):
    """(lo, hi): the smallest and largest literal distance of the pairs at
    each Hamming level 0..M, inf and -inf where no pair is; O(tile + Q)."""
    tiles = PairTiles(points, codes)
    margin, levels = tiles.margin(), codes.n_bits + 1

    def extremes(tile_list):
        lo, hi = np.full(levels, np.inf), np.full(levels, -np.inf)
        for t0, t1 in tile_list:
            c = tiles.ambient(slice(t0, t1), slice(0, t1))
            c = tiles.off_stream(c, t0, np.nan).ravel()
            h = tiles.hamming(slice(t0, t1), slice(0, t1)).astype(np.intp).ravel()
            # the entries that could pass a running extreme (never a NaN) ...
            idx = np.flatnonzero((c <= (lo + margin)[h]) | (c >= (hi - margin)[h]))
            c, h = c[idx], h[idx]
            # ... and of those, the ones within twice the margin of the new one
            below, above = lo.copy(), hi.copy()
            np.minimum.at(below, h, c + margin)
            np.maximum.at(above, h, c - margin)
            keep = (c <= below[h] + margin) | (c >= above[h] - margin)
            rows, j = np.divmod(idx[keep], t1)
            exact = pair_distances(points, t0 + rows, j)
            level = hamming_pairs(codes, t0 + rows, j)
            np.minimum.at(lo, level, exact)
            np.maximum.at(hi, level, exact)
        return lo, hi

    parts = map_tiles(extremes, len(points), n_threads)
    return (np.minimum.reduce([lo for lo, _ in parts]),
            np.maximum.reduce([hi for _, hi in parts]))


def _resolve_lambda(v: np.ndarray, c: np.ndarray, lam: Optional[float]) -> float:
    if lam is not None:
        return float(lam)
    if not np.any(v > 0):
        if c.max(initial=0.0) == 0.0:
            # every pair coincides in both spaces: vacuously isometric
            return 1.0
        raise ValueError(f"embedding collapsed; delta = max c = {c.max():g}")
    return fit_lambda_chebyshev(v, c)[0]


# ---------------------------------------------------------------------------
# neighbor preservation


def _check_queries(data: Dataset, queries, k: int, k_min: int = 1):
    q = data.q
    if k < k_min:
        raise ValueError(f"k must be >= {k_min}, got {k}")
    if k >= q - 1:
        raise ValueError(f"k={k} too large for {q} points ({q - 1} candidates)")
    if queries is None:
        return np.arange(q)
    queries = np.asarray(queries, dtype=np.int64)
    if queries.size == 0 or queries.min() < 0 or queries.max() >= q:
        raise ValueError("query indices out of range")
    return queries


def map_at_k(
    model: HashModel,
    data: Dataset,
    queries: Optional[Sequence[int]] = None,
    k: int = 10,
) -> NeighborReport:
    """Mean over queries of |ambient k-NN  ∩  Hamming k-NN| / k.

    Queries index into ``data`` (default: every point); each query's
    candidate set is every other point of the same dataset.
    """
    queries = _check_queries(data, queries, k)
    codes = hash_codes(model, data)
    ap = np.empty(queries.size, dtype=np.float64)
    rows = query_neighbors(data.points, codes, queries, k)
    for qi, (q, ambient, _, h) in enumerate(rows):
        hamming = ranked_neighbors(h, q, k)
        ap[qi] = np.intersect1d(ambient, hamming).size / k
    return NeighborReport(k=k, map=float(ap.mean()), per_query_ap=ap)


def kendall_tau_at_k(
    model: HashModel,
    data: Dataset,
    queries: Optional[Sequence[int]] = None,
    k: int = 10,
) -> NeighborReport:
    """Kendall tau between ambient and Hamming rankings of each query's
    ambient k-NN set (ties resolved by ascending index before counting)."""
    queries = _check_queries(data, queries, k, k_min=2)
    codes = hash_codes(model, data)
    taus = np.empty(queries.size, dtype=np.float64)
    upper = np.triu_indices(k, 1)
    rows = query_neighbors(data.points, codes, queries, k)
    for qi, (_, members, _, h) in enumerate(rows):  # members in ambient order
        # rank of each member in the Hamming ordering (ties by index)
        rank = np.empty(k, dtype=np.int64)
        rank[np.lexsort((members, h[members]))] = np.arange(k)
        # +1 per concordant pair a < b, -1 per discordant one
        concordant = int(np.sign(rank[upper[1]] - rank[upper[0]]).sum())
        taus[qi] = concordant / len(upper[0])
    return NeighborReport(k=k, mean_tau=float(taus.mean()), per_query_tau=taus)


# ---------------------------------------------------------------------------
# stable JSON schema


def report_json(metric: str, m: int, report) -> dict:
    """Serialize a report to the stable schema
    {metric, k, M, value, per_query, lambda_star, delta}."""
    out = {
        "metric": metric,
        "k": None,
        "M": m,
        "value": None,
        "per_query": None,
        "lambda_star": None,
        "delta": None,
    }
    if isinstance(report, DistortionReport):
        out["value"] = report.delta
        out["lambda_star"] = report.lambda_star
        out["delta"] = report.delta
    elif isinstance(report, NeighborReport):
        out["k"] = report.k
        if metric == "map":
            out["value"] = report.map
            out["per_query"] = [float(x) for x in report.per_query_ap]
        else:
            out["value"] = report.mean_tau
            out["per_query"] = [float(x) for x in report.per_query_tau]
    else:
        raise TypeError(f"unknown report type {type(report)!r}")
    return out

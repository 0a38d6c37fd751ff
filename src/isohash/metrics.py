"""Evaluation metrics: worst-case distortion with its optimal scale, mean
average precision over k-nearest neighbors, and Kendall tau rank correlation.

Distortion is measured over every pair of the dataset, never over a subset,
in one tile pass (:class:`core.PairTiles`, O(tile + Q) memory) that keeps
each Hamming level's smallest and largest literal distance and the pairs
that can tie with them (:func:`_level_candidates`). lambda* is the
Chebyshev fit over those extremes; delta and the worst secant come from the
kept pairs; all three equal a literal scan's, bit for bit. With 2 threads
the pass at Q = 10^4 takes 0.55 s instead of 1.02 s (refit) and 0.59 s
instead of 1.06 s (fixed lambda); at Q = 2000 (about 0.053 s) the gain
ranges from nothing to 1.6x from run to run (N = 100, M = 16; 2 cores, one
BLAS thread). The neighbor metrics rank their queries a block at a time,
one tile per block (:func:`core.query_neighbors`), and compare rankings
through integer keys d_H Q + j (:func:`core.hamming_kth`).
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
    SecantRef,
    decode_pair_indices,
    hamming_kth,
    hamming_pairs,
    hash_codes,
    map_tiles,
    pair_distances,
    pair_linear_index,
    query_neighbors,
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
    """Worst-case |lambda* d_H - c| over every pair, with the scale that
    attains it, the offending pair (of the pairs that attain delta, the
    first in the stream) and the number of pairs measured."""

    delta: float
    lambda_star: float
    worst_secant: SecantRef
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
    lam: Optional[float] = None,
    n_threads: int = 1,
) -> DistortionReport:
    """Worst-case distortion of a model over every pair of a dataset.

    By default the scale is re-fitted (the metric's inf over lambda); pass
    ``lam`` to evaluate at a fixed scale, e.g. the model's own. Every pair
    counts, with its true ambient distance, in one tile pass
    (:func:`_level_candidates`) whose lambda*, delta and worst secant are
    those of a literal scan. The distortion on a subset of secants (a
    training set, say) is the solver's bookkeeping, not this metric.
    """
    codes = hash_codes(model, data)
    lo, hi, level, c, pos = _level_candidates(codes, data.points, lam, n_threads)
    lam_star = _fit_extremes(lo, hi) if lam is None else float(lam)
    resid = np.abs(lam_star * level - c)  # as PairTiles.exact_residuals
    at = np.flatnonzero(resid == resid.max())
    k = at[np.argmin(pos[at])]  # ties: the smallest stream position wins
    wi, wj = decode_pair_indices(pos[k])
    return DistortionReport(float(resid[k]), lam_star,
                            SecantRef(int(wi), int(wj), float(c[k])),
                            secant_count(data.q))


def refit_lambda(codes: BinaryCodes, points: np.ndarray, n_threads: int = 1) -> float:
    """The minimax scale lambda* over every pair of ``points``: the Chebyshev
    fit over each Hamming level's smallest and largest literal distance,
    which equals the fit over all pairs (see :func:`_level_candidates`)."""
    return _fit_extremes(*_level_candidates(codes, points, None, n_threads)[:2])


def _fit_extremes(lo: np.ndarray, hi: np.ndarray) -> float:
    level = np.flatnonzero(lo <= hi)  # the levels some pair sits at
    v = np.concatenate([level, level]).astype(np.float64)
    c = np.concatenate([lo[level], hi[level]])
    if not np.any(v > 0):
        if c.max(initial=0.0) == 0.0:
            # every pair coincides in both spaces: vacuously isometric
            return 1.0
        raise ValueError(f"embedding collapsed; delta = max c = {c.max():g}")
    return fit_lambda_chebyshev(v, c)[0]


def _level_candidates(codes: BinaryCodes, points: np.ndarray,
                      lam: Optional[float], n_threads: int = 1):
    """(lo, hi, level, c, pos): the smallest and largest literal distance at
    each Hamming level 0..M (inf and -inf where no pair is), and every pair
    within w of its level's lo or hi, one per (level, c), the first in the
    stream, with its position.

    At a fixed lambda a pair at level h has residual |fl(a - c)|, a =
    fl(lambda h), and fl(a - c) is monotone in c, so the level's largest
    residual is at lo or hi: the Chebyshev fit over the extremes is the fit
    over all pairs, and delta is an extreme's residual. A pair off the
    extremes ties with delta only by rounding a - c to the same float x as
    an extreme, which puts c within ulp(x) <= eps delta of it. Every c <= 2r
    (r the largest point norm), so delta <= |lam| M + 2r, and after a refit
    delta* <= max c <= 2r; w = 8 eps (|lam| M + 2r), with lam = 0 on a refit,
    covers both with room for the rounding of c and lambda*.
    """
    tiles = PairTiles(points, codes)
    err, levels = tiles.margin(), codes.n_bits + 1
    eps = np.finfo(np.float64).eps
    w = 8.0 * eps * (abs(lam or 0.0) * codes.n_bits + 2.0 * tiles.rmax)
    pad = err + w

    def scan(tile_list):
        lo, hi = np.full(levels, np.inf), np.full(levels, -np.inf)
        found = (np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))
        for t0, t1 in tile_list:
            c = tiles.ambient(slice(t0, t1), slice(0, t1))
            c = tiles.off_stream(c, t0, np.nan).ravel()
            h = tiles.hamming(slice(t0, t1), slice(0, t1)).ravel()
            # the entries that could fall within w of a running extreme
            # (never a NaN) ...
            idx = np.flatnonzero((c <= (lo + pad)[h]) | (c >= (hi - pad)[h]))
            c, h = c[idx], h[idx]
            # ... and of those, the ones that could fall within w of the new one
            below, above = lo.copy(), hi.copy()
            np.minimum.at(below, h, c + err)
            np.maximum.at(above, h, c - err)
            keep = (c <= below[h] + pad) | (c >= above[h] - pad)
            i, j = np.divmod(idx[keep], t1)
            i += t0
            c, h = pair_distances(points, i, j), hamming_pairs(codes, i, j)
            np.minimum.at(lo, h, c)
            np.maximum.at(hi, h, c)
            new = (h, c, pair_linear_index(i, j))
            found = _prune(lo, hi, w, *map(np.concatenate, zip(found, new)))
        return lo, hi, found

    parts = map_tiles(scan, len(points), n_threads)
    lo = np.minimum.reduce([part[0] for part in parts])
    hi = np.maximum.reduce([part[1] for part in parts])
    # a worker's running extremes never pass the final ones, so it kept a
    # superset of the final pairs: the result is the same for any n_threads
    found = map(np.concatenate, zip(*(part[2] for part in parts)))
    return lo, hi, *_prune(lo, hi, w, *found)


def _prune(lo, hi, w, level, c, pos):
    """The pairs within w of their level's lo or hi, one per (level, c): the
    one with the smallest stream position."""
    near = np.flatnonzero((c <= lo[level] + w) | (c >= hi[level] - w))
    near = near[np.lexsort((pos[near], c[near], level[near]))]
    level, c, pos = level[near], c[near], pos[near]
    first = np.r_[True, (level[1:] != level[:-1]) | (c[1:] != c[:-1])]
    return level[first], c[first], pos[first]


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


def _hamming_keys(h: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Keys h[r, j] Q + j of the points j in cols[r] (see :func:`core.hamming_kth`)."""
    return h[np.arange(len(cols))[:, None], cols].astype(np.int64) * h.shape[1] + cols


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
    hits = []
    for block, ambient, _, h in query_neighbors(data.points, codes, queries, k):
        # an ambient neighbor is a Hamming one when its key is within the k-th
        kth = hamming_kth(h, block, k)
        hits.append((_hamming_keys(h, ambient) <= kth[:, None]).sum(axis=1))
    ap = np.concatenate(hits) / k
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
    upper = np.triu_indices(k, 1)
    concordant = []
    for block, members, _, h in query_neighbors(data.points, codes, queries, k):
        # members in ambient order; the distinct keys h Q + j order them by
        # Hamming distance, ties by index: +1 per concordant pair a < b, -1
        # per discordant one
        keys = _hamming_keys(h, members)
        concordant.append(np.sign(keys[:, upper[1]] - keys[:, upper[0]]).sum(axis=1))
    taus = np.concatenate(concordant) / len(upper[0])
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

"""Evaluation metrics: worst-case distortion with its optimal scale, mean
average precision over k-nearest neighbors, and Kendall tau rank correlation.

Distortion is measured over every pair of the dataset, never over a subset,
in one tile pass (:class:`core.PairTiles`, O(tile + Q) memory) that keeps
each Hamming level's smallest and largest literal distance and the pairs
that can tie with them (:func:`_level_candidates`). lambda* is the
Chebyshev fit over those extremes; delta and the worst secant come from the
kept pairs; all three equal a literal scan's, bit for bit. The pass
screens squared Gram values against each level's thresholds
(:meth:`core.PairTiles.screen`), so only the few pairs near an extreme get
a distance and a literal recheck (:mod:`core` gives timings). The same
pass prices column generation's violators: given a scale and a threshold,
it also keeps the pairs whose literal residual exceeds it
(:func:`colgen.scan_violators`), so the distortion pass and the violator
scan are one walk of the pair stream. The neighbor metrics rank their
queries and take a Hamming tile per block (:func:`core.query_neighbors`),
and compare rankings through integer keys d_H Q + j
(:func:`core.hamming_kth`). A Dataset keeps the last delta report and
query ranking (see :mod:`core`), so delta is measured, and a query set
ranked, once per Dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    BinaryCodes,
    DataFormatError,
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
    "map_at_k",
    "kendall_tau_at_k",
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


def fit_lambda_chebyshev(v_hat, c) -> tuple[Optional[float], float]:
    """Minimize g(lambda) = max_i |lambda v_i - c_i| over lambda > 0.

    A monotone descent over the vertices (c_a + c_b) / (v_a + v_b), in the
    spirit of Dinkelbach's method for fractional programs. The rising
    envelope U(lambda) = max_i (lambda v_i - c_i) first meets the falling
    L(lambda) = max_i (c_i - lambda v_i) at lambda*. A rising line a
    (v_a > 0) meets L at phi_a = max_b (c_a + c_b) / (v_a + v_b) >= lambda*,
    so lambda* = min_a phi_a. From the steepest line, each step sets lambda
    to phi_a and a to the line on top there. It stops because:
    - that line meets L no later than lambda, so lambda never rises;
    - lambda takes values in the finite set {phi_a}, so at most n steps;
    - a top line with v_a = 0 means g(lambda) = 0, already optimal.
    On a flat minimum the result is a vertex, the largest minimizer along
    the descent. The optimality certificate (left and right subgradients
    bracketing zero) is asserted on every call.

    Returns (lambda_star, delta), lambda_star None where no minimizer
    exists: when every c is 0 (delta 0), or else every v is 0 (delta max c).
    """
    v = np.asarray(v_hat, dtype=np.float64).ravel()
    c = np.asarray(c, dtype=np.float64).ravel()
    if v.size != c.size or v.size < 1:
        raise ValueError(f"vector length mismatch: {v.size} vs {c.size}")
    if not (np.isfinite(v).all() and np.isfinite(c).all()):
        raise ValueError("v and c must be finite (no NaN or inf)")
    if v.min(initial=0.0) < 0 or c.min(initial=0.0) < 0:
        raise ValueError("v and c must be nonnegative")
    if not np.any(c > 0):
        return None, 0.0
    if not np.any(v > 0):
        return None, float(c.max())

    lam, a = math.inf, int(np.argmax(v))
    while v[a] > 0:
        nxt = float(np.max((c[a] + c) / (v[a] + v)))
        if not nxt < lam:
            break
        lam = nxt
        a = int(np.argmax(lam * v - c))
    _certify_minimax(v, c, lam)
    return lam, float(np.max(np.abs(lam * v - c)))


# ---------------------------------------------------------------------------
# worst-case distortion over a pair stream


def max_distortion(model: HashModel, data: Dataset, *,
                   n_threads: int = 1) -> DistortionReport:
    """Worst-case distortion of a model over every pair of a dataset, at
    the refit scale lambda* (the metric's inf over lambda > 0), whatever
    scale the model stores.

    Every pair counts, with its true ambient distance, in one tile pass
    (:func:`_level_candidates`) whose lambda*, delta and worst secant are
    those of a literal scan. The distortion on a subset of secants (a
    training set, say) is the solver's bookkeeping, not this metric.
    Codes that collapse on the data (every d_H = 0 while some c > 0) raise
    DataFormatError. ``data`` keeps the last report with the codes it
    measured, so measuring those codes again is a lookup of a copy.
    """
    if n_threads < 1:  # before the lookup, which would not notice it
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    codes = hash_codes(model, data)
    key, report = data._recall("distortion", codes.packed.tobytes(), codes.n_bits)
    if report is None:
        *found, _ = _level_candidates(codes, data.points, n_threads)
        report = _refit_report(*found, data.q)
        data._memo["distortion"] = key, report
    return replace(report)


def _refit_report(lo, hi, level, c, pos, q: int) -> DistortionReport:
    """The report of a :func:`_level_candidates` pass over q points: lambda*
    fitted to the level extremes, and delta and the worst secant (ties to
    the smallest stream position) from the kept pairs."""
    held = np.flatnonzero(lo <= hi)  # the levels some pair sits at
    lam_star, delta = fit_lambda_chebyshev(np.r_[held, held],
                                           np.r_[lo[held], hi[held]])
    if lam_star is None and delta > 0:
        raise DataFormatError(f"embedding collapsed; delta = max c = {delta:g}")
    lam_star = 1.0 if lam_star is None else lam_star  # every c = 0: vacuously isometric
    resid = np.abs(lam_star * level - c)  # as the pass's literal recheck
    at = np.flatnonzero(resid == resid.max())
    k = at[np.argmin(pos[at])]
    wi, wj = decode_pair_indices(pos[k])
    return DistortionReport(float(resid[k]), lam_star,
                            SecantRef(int(wi), int(wj), float(c[k])),
                            secant_count(q))


def _level_candidates(codes: BinaryCodes, points: np.ndarray, n_threads: int = 1,
                      lam: float = 0.0, delta_hat: float = math.inf,
                      batch_limit: int = 0):
    """(lo, hi, level, c, pos, violators): the smallest and largest literal
    distance at each Hamming level 0..M (inf and -inf where no pair is),
    every pair within w of its level's lo or hi, one per (level, c), the
    first in the stream, with its position, and, in stream order, the
    positions of the batch_limit pairs whose literal residual
    |lam d_H - c| most exceeds delta_hat (ties to the smaller position).

    At any lambda a pair at level h has residual |fl(a - c)|, a =
    fl(lambda h), and fl(a - c) is monotone in c, so the level's largest
    residual is at lo or hi: the Chebyshev fit over the extremes is the fit
    over all pairs, and delta* is an extreme's residual. A pair off the
    extremes ties with delta* only by rounding a - c to the same float x as
    an extreme, which puts c within ulp(x) <= eps delta* of it. Every
    c <= 2r (r the largest point norm), and delta* <= max c, the residual
    at lambda -> 0, so delta* <= 2r; w = 16 eps r covers that with room for
    the rounding of c and lambda*.

    A pair whose literal residual exceeds delta_hat has a Gram residual
    above s = delta_hat - margin(lam), so each level's screen thresholds
    also take in c < lam h - s and c > lam h + s, and every survivor of
    either test is rechecked literally once. Each worker keeps only its
    batch_limit largest residuals above delta_hat, so the pass needs
    O(tile + batch_limit + Q) memory; the defaults price no pair.
    """
    tiles = PairTiles(points, codes)
    err, levels = tiles.margin(), codes.n_bits + 1
    w = 16.0 * np.finfo(np.float64).eps * tiles.rmax
    pad = err + w
    # |lam h - c| > s exactly when c < lam h - s or c > lam h + s
    at, s = lam * np.arange(levels), delta_hat - tiles.margin(lam)

    def top(r, t):
        keep = np.lexsort((t, -r))[:batch_limit]
        return r[keep], t[keep]

    def scan(tile_list):
        lo, hi = np.full(levels, np.inf), np.full(levels, -np.inf)
        found = (np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))
        worst = (np.empty(0), np.empty(0, np.int64))
        for t0, t1 in tile_list:
            # the entries that could violate or fall within w of a running
            # extreme ...
            idx, c, h = tiles.screen(t0, t1, np.maximum(lo + pad, at - s),
                                     np.minimum(hi - pad, at + s))
            # ... and of those, the ones that could violate or fall within w
            # of the new extreme
            below, above = lo.copy(), hi.copy()
            np.minimum.at(below, h, c + err)
            np.maximum.at(above, h, c - err)
            keep = ((c <= below[h] + pad) | (c >= above[h] - pad)
                    | (np.abs(at[h] - c) >= s))
            i, j = np.divmod(idx[keep], t1)
            i += t0
            c, h = pair_distances(points, i, j), hamming_pairs(codes, i, j)
            np.minimum.at(lo, h, c)
            np.maximum.at(hi, h, c)
            new = (h, c, pair_linear_index(i, j))
            found = _prune(lo, hi, w, *map(np.concatenate, zip(found, new)))
            r = np.abs(lam * h - c)
            hit = r > delta_hat
            worst = top(*map(np.concatenate, zip(worst, (r[hit], new[2][hit]))))
        return lo, hi, found, worst

    parts = map_tiles(scan, len(points), n_threads)
    lo = np.minimum.reduce([part[0] for part in parts])
    hi = np.maximum.reduce([part[1] for part in parts])
    # a worker's running extremes never pass the final ones, so it kept a
    # superset of the final pairs, and a superset of the final batch: the
    # result is the same for any n_threads
    found = map(np.concatenate, zip(*(part[2] for part in parts)))
    _, t = top(*map(np.concatenate, zip(*(part[3] for part in parts))))
    return lo, hi, *_prune(lo, hi, w, *found), np.sort(t)


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
    for block, ambient, _, h in query_neighbors(data, codes, queries, k):
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
    for block, members, _, h in query_neighbors(data, codes, queries, k):
        # members in ambient order; the distinct keys h Q + j order them by
        # Hamming distance, ties by index: +1 per concordant pair a < b, -1
        # per discordant one
        keys = _hamming_keys(h, members)
        concordant.append(np.sign(keys[:, upper[1]] - keys[:, upper[0]]).sum(axis=1))
    taus = np.concatenate(concordant) / len(upper[0])
    return NeighborReport(k=k, mean_tau=float(taus.mean()), per_query_tau=taus)

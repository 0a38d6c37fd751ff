"""Executable checks of the theory: the sigmoid-approximation expectation
bound, and the deterministic neighbor-preservation guarantee that a distance
gap of twice the distortion forces the Hamming ranking to respect the
ambient one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, HashModel, hamming_kth, hash_codes, query_neighbors, sigmoid
from .metrics import _check_queries, max_distortion

__all__ = [
    "GapReport",
    "lemma1_empirical",
    "sigmoid_quantizer_gap_bound",
    "knn_sufficiency_check",
]


@dataclass
class GapReport:
    """Per-query neighbor gaps against the distortion bound.

    ``satisfied_queries`` are those whose gap reaches 2 * delta; for each,
    ``preserved`` records whether the ambient k-NN set survived into the
    Hamming k-NN set (Hamming ties count as preserved). The guarantee is
    deterministic, so preserved must be all-True.
    """

    k: int
    per_query_gap: np.ndarray
    delta: float
    satisfied_queries: np.ndarray
    preserved: np.ndarray

    @property
    def ok(self) -> bool:
        return bool(np.all(self.preserved))


# ---------------------------------------------------------------------------
# expectation bound for the sigmoid surrogate


def sigmoid_quantizer_gap_bound(alpha: float, sigma: float) -> float:
    """1 / (sigma sqrt(2 pi alpha)) + 2 exp(-sqrt(alpha)).

    The proof's unknown positive constant only tightens the exponential
    term, so dropping it keeps this a valid upper bound.
    """
    return 1.0 / (sigma * math.sqrt(2.0 * math.pi * alpha)) \
        + 2.0 * math.exp(-math.sqrt(alpha))


def lemma1_empirical(alpha: float, sigma: float, n_samples: int = 10**6,
                     seed: int = 0) -> tuple[float, float]:
    """Monte Carlo mean of |h(x) - sigma_alpha(x)| for x ~ N(0, sigma^2),
    checked against the closed-form bound.

    Returns (empirical_mean, bound) and raises if the bound is violated.
    With a fixed seed the same normal draws back every alpha, so the
    pointwise monotonicity of the gap in alpha carries over to the means.
    """
    if alpha <= 0 or sigma <= 0:
        raise ValueError("alpha and sigma must be positive")
    if n_samples < 10**4:
        raise ValueError("need at least 1e4 samples for a meaningful mean")
    rng = np.random.default_rng(seed)
    x = sigma * rng.standard_normal(n_samples)
    # |h(x) - sigma_alpha(x)| = sigma_alpha(-|x|) for either sign convention
    gap = sigmoid(-np.abs(x), alpha)
    empirical = float(gap.mean())
    bound = sigmoid_quantizer_gap_bound(alpha, sigma)
    if empirical > bound:
        raise AssertionError(
            f"empirical mean {empirical:g} exceeds bound {bound:g} "
            f"at alpha={alpha}, sigma={sigma}"
        )
    return empirical, bound


# ---------------------------------------------------------------------------
# neighbor-preservation sufficiency


def knn_sufficiency_check(model: HashModel, data: Dataset, queries=None,
                          k: int = 5, n_threads: int = 1) -> GapReport:
    """Verify the deterministic kernel of the neighbor-preservation
    guarantee on a trained model.

    delta is the refit distortion over all pairs (metrics.max_distortion,
    ``n_threads`` threads), whatever scale the model stores: the guarantee
    holds at any lambda > 0, which scales every Hamming distance alike, and
    is tightest at lambda*. For each query the gap is the margin between its
    k-th and (k+1)-th nearest ambient distances; whenever that gap reaches
    2 * delta, the triangle inequality forces every ambient k-NN to sit
    within the Hamming k-NN radius, so any violation is a bug (or a broken
    model) rather than bad luck. Queries are checked a block at a time;
    delta and the ranking are lookups when ``data`` already holds them.
    """
    queries = _check_queries(data, queries, k)
    delta = max_distortion(model, data, n_threads=n_threads).delta
    codes = hash_codes(model, data)

    gaps, satisfied, preserved = [], [], []
    for block, nearest, c, h in query_neighbors(data, codes, queries, k + 1):
        gap = c[:, k] - c[:, k - 1]
        sat = np.flatnonzero(gap >= 2.0 * delta)
        # lambda > 0 scales every Hamming distance alike, so the Hamming
        # k-NN radius can be read off the integer distances
        radius = hamming_kth(h[sat], block[sat], k) // data.q
        within = h[sat[:, None], nearest[sat, :k]] <= radius[:, None]
        gaps.append(gap)
        satisfied.append(block[sat])
        preserved.append(np.all(within, axis=1))
    return GapReport(
        k=k,
        per_query_gap=np.concatenate(gaps),
        delta=delta,
        satisfied_queries=np.concatenate(satisfied),
        preserved=np.concatenate(preserved),
    )

"""Executable checks of the theory: the sigmoid-approximation expectation
bound, and the deterministic neighbor-preservation guarantee that a distance
gap of twice the distortion forces the Hamming ranking to respect the
ambient one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, HashModel, hamming_to_all, hash_codes, sigmoid
from .metrics import _check_queries, max_distortion

__all__ = [
    "GaussianMixtureSpec",
    "GapReport",
    "lemma1_empirical",
    "sigmoid_quantizer_gap_bound",
    "knn_sufficiency_check",
    "sample_mixture",
]


@dataclass
class GaussianMixtureSpec:
    """Mixture of Gaussians: weights, component means, component covariances."""

    weights: np.ndarray
    means: np.ndarray  # P x N
    covs: np.ndarray  # P x N x N

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        self.covs = np.asarray(self.covs, dtype=np.float64)
        if self.covs.ndim == 2:
            self.covs = self.covs[None, :, :]
        p, n = self.means.shape
        if self.weights.shape != (p,) or self.covs.shape != (p, n, n):
            raise ValueError(
                f"inconsistent mixture shapes: weights {self.weights.shape}, "
                f"means {self.means.shape}, covs {self.covs.shape}"
            )
        if np.any(self.weights < 0):
            raise ValueError("mixture weights must be nonnegative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {self.weights.sum()!r}, not 1")
        for k, cov in enumerate(self.covs):
            if not np.allclose(cov, cov.T, atol=1e-9):
                raise ValueError(f"covariance {k} is not symmetric")
            eigmin = float(np.linalg.eigvalsh(cov).min())
            scale = max(1.0, float(np.abs(cov).max()))
            if eigmin < -1e-9 * scale:
                raise ValueError(
                    f"covariance {k} is not positive semidefinite "
                    f"(min eigenvalue {eigmin:g})"
                )

    @property
    def p(self) -> int:
        return self.means.shape[0]

    @property
    def n(self) -> int:
        return self.means.shape[1]


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
                          k: int = 5) -> GapReport:
    """Verify the deterministic kernel of the neighbor-preservation
    guarantee on a trained model.

    delta is the fixed-scale distortion max |lambda d_H - d| over all pairs
    (lambda from the model). For each query the gap is the margin between
    its k-th and (k+1)-th nearest ambient distances; whenever that gap
    reaches 2 * delta, the triangle inequality forces every ambient k-NN to
    sit within the Hamming k-NN radius, so any violation is a bug (or a
    broken model) rather than bad luck.
    """
    q = data.q
    queries = _check_queries(data, queries, k)

    delta = max_distortion(model, data, lam=model.lam).delta
    codes = hash_codes(model, data)
    pts = data.points
    lam = model.lam

    gaps = np.empty(queries.size)
    satisfied = []
    preserved = []
    idx_all = np.arange(q)
    for qi, q0 in enumerate(queries):
        d_amb = np.linalg.norm(pts - pts[q0], axis=1)
        order = np.lexsort((idx_all, d_amb))
        order = order[order != q0]
        sorted_d = d_amb[order]
        gaps[qi] = float(sorted_d[k] - sorted_d[k - 1])
        if gaps[qi] >= 2.0 * delta:
            ambient_knn = order[:k]
            d_ham = lam * hamming_to_all(codes, int(q0)).astype(np.float64)
            d_ham[q0] = np.inf  # query excluded from its own list
            kth_value = np.partition(d_ham, k - 1)[k - 1]
            satisfied.append(int(q0))
            preserved.append(bool(np.all(d_ham[ambient_knn] <= kth_value)))
    return GapReport(
        k=k,
        per_query_gap=gaps,
        delta=delta,
        satisfied_queries=np.array(satisfied, dtype=np.int64),
        preserved=np.array(preserved, dtype=bool),
    )


# ---------------------------------------------------------------------------
# mixture sampling


def sample_mixture(spec: GaussianMixtureSpec, q: int, seed: int = 0) -> Dataset:
    """Q i.i.d. draws from the mixture: pick components by weight, then add
    a covariance-factored normal. Degenerate (zero) covariances are fine."""
    if q < 2:
        raise ValueError(f"need Q >= 2, got {q}")
    rng = np.random.default_rng(seed)
    comp = rng.choice(spec.p, size=q, p=spec.weights)
    z = rng.standard_normal((q, spec.n))
    pts = np.empty((q, spec.n))
    for p in range(spec.p):
        idx = comp == p
        if not np.any(idx):
            continue
        evals, evecs = np.linalg.eigh(spec.covs[p])
        factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
        pts[idx] = spec.means[p] + z[idx] @ factor.T
    return Dataset(pts)

"""ADMM training loop for the worst-case-distortion hashing objective.

Each outer iteration performs four updates while the sigmoid rate grows
geometrically from alpha_start to alpha_end (continuation):

* W: accelerated gradient descent on the smooth quadratic penalty, run for
  a fixed budget of ``inner_gd_iters`` steps (inexact ADMM). With
  S = sigma_alpha(X W^T) (Q x M), the relaxed distances are
  v_k = ||S_i - S_j||^2 and the gradient is -2 lambda (P * alpha S (1 - S))^T X,
  where P (Q x M) scatters the per-pair terms r_k (S_i - S_j) back onto the
  points; no per-pair copy of X is made. A pair layout computes v and P,
  chosen from the secant set alone:
  - dense, when the secants cover at least half of the pair stream
    (4 |S| >= Q (Q - 1)): v from the Gram matrix G = S S^T,
    v_k = G_ii + G_jj - 2 G_ij, and P = diag(R 1 + R^T 1) S - (R + R^T) S
    with R the Q x Q sum of the residuals at (i_k, j_k); no |S| x M array,
  - incidence, for smaller sets: the differences d_k = S[i_k] - S[j_k]
    from one row gather each, v = rowsum(d^2), and P = B^T (r * d) through
    the sparse Q x |S| matrix B^T of the pair-incidence matrix B (+1 at
    i_k, -1 at j_k). scipy.sparse is imported when this layout is first
    built, not with the package: it costs about 20 MiB and 0.1 s, and only
    sampled and column-generation secant sets need it. Column generation's
    secant sets take this layout unless they cover half of the pair
    stream, as an initial sample of the default 5,000 does for every
    Q <= 141; its delta moves with the last bits of the gradient,
* u: the l-inf proximal map, computed by Moreau decomposition through an
  l1-ball projection,
* lambda: a clamped positive least-squares scalar,
* y: the scaled dual ascent step.

The residual convention is r = u - lambda * v(W) + c + y, matching the
augmented Lagrangian (the +y form). Whatever stops the loop, ``train_nibh``
returns the iterate whose quantized codes have the lowest delta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    Dataset,
    HashModel,
    SecantBatch,
    hamming_pairs,
    hash_matrix,
    random_projection_matrix,
    sigmoid,
)
from .metrics import fit_lambda_chebyshev

__all__ = [
    "SolverConfig",
    "SolverState",
    "DivergenceError",
    "augmented_loss",
    "w_step",
    "u_step",
    "project_l1_ball",
    "lambda_step",
    "y_step",
    "train_nibh",
]

# divergence guard: stop after this many consecutive iterations with the
# sup loss above 10x its running minimum
_DIVERGENCE_FACTOR = 10.0
_DIVERGENCE_PATIENCE = 20
# floor of the fitted scale lambda, which must stay positive
_LAMBDA_MIN = 1e-8


class DivergenceError(RuntimeError):
    pass


@dataclass
class SolverConfig:
    rho: float = 1.0
    eta: float = 1.6
    alpha_start: float = 1.0
    alpha_end: float = 10.0
    alpha_growth: float = 1.25
    max_outer_iters: int = 100
    # AGD steps per W-step, always run in full: the solve is inexact by
    # design (inexact ADMM, Eckstein and Bertsekas 1992), bounded by this
    # budget rather than a tolerance, and train_nibh returns its best-delta
    # iterate. Chosen on delta and time, medians over seeds 1-20 (2 cores,
    # one BLAS thread): training s / refit all-pairs delta for the nibh_cg
    # (Q=280, column generation) and nibh_allpairs (translating squares,
    # Q=144) set-ups of perfbench/bench.py:
    #   budget  nibh_cg        nibh_allpairs
    #     50    3.60 / 1.237   0.60 / 1.078
    #     20    1.42 / 1.237   0.27 / 1.029
    #     15    1.22 / 1.227   0.19 / 0.971
    #     12    0.88 / 1.239   0.17 / 0.944
    #     10    0.76 / 1.215   0.17 / 1.030
    inner_gd_iters: int = 12
    convergence_tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.rho <= 0 or self.eta <= 0:
            raise ValueError("rho and eta must be positive")
        if not (0 < self.alpha_start <= self.alpha_end):
            raise ValueError("need 0 < alpha_start <= alpha_end")
        if self.alpha_growth <= 1.0:
            raise ValueError("alpha_growth must exceed 1")
        if self.convergence_tol < 0:
            raise ValueError("convergence_tol must be nonnegative")
        if self.max_outer_iters < 1 or self.inner_gd_iters < 1:
            raise ValueError("iteration budgets must be >= 1")


@dataclass
class SolverState:
    """Mutable ADMM state; u and y are indexed by the active secants."""

    w: np.ndarray
    u: np.ndarray
    y: np.ndarray
    lam: float
    alpha: float
    iteration: int = 0
    history: list = field(default_factory=list)  # the progress records, in order
    best_iteration: int = 0  # the iterate train_nibh returned as its model
    converged: bool = False
    diverged: bool = False


# ---------------------------------------------------------------------------
# the four update steps


def augmented_loss(u, v, c, y, lam: float, rho: float = 1.0) -> float:
    """||u||_inf + (rho/2) ||u - lambda v + c + y||^2 for relaxed distances v."""
    r = u - lam * v + c + y
    uinf = float(np.max(np.abs(u))) if u.size else 0.0
    return uinf + 0.5 * rho * float(r @ r)


class _IncidencePairs:
    """Pair layout through gathered rows and the sparse Q x |S| transpose
    B^T of the pair-incidence matrix B, whose row k is +1 at i_k and -1 at
    j_k: the gather gives B S = S[i] - S[j] bit for bit, and no |S| x Q
    matrix is kept."""

    def __init__(self, secants: SecantBatch, q: int):
        # imported here: scipy.sparse adds about 20 MiB and 0.1 s to a
        # process, and only sampled or column-generation secant sets get here
        from scipy import sparse

        k = len(secants)
        self.i, self.j = secants.i, secants.j
        # B^T in CSR, each point's secants in ascending order; ``scatter``
        # refills its values with the signed residuals, gathered through an
        # intp copy of its int32 indices, which would cast on every call
        self.bt = sparse.csc_matrix(
            (np.tile([1.0, -1.0], k),
             np.column_stack([secants.i, secants.j]).ravel(),
             np.arange(0, 2 * k + 1, 2)),
            shape=(q, k),
        ).tocsr()
        self.sign, self.cols = self.bt.data.copy(), self.bt.indices.astype(np.intp)

    def dists(self, s):
        """Relaxed distances v, and the differences d = S[i] - S[j] that
        ``scatter`` reuses."""
        d = s.take(self.i, axis=0)
        d -= s.take(self.j, axis=0)
        return np.einsum("ij,ij->i", d, d), d

    def scatter(self, s, r, d):
        """P = B^T (r * d) as (B^T diag(r)) d: per point, the sum of its
        signed pair terms in secant order, and (+-r) d = +-(r d) exactly,
        so P equals the per-pair product bit for bit."""
        np.multiply(self.sign, r[self.cols], out=self.bt.data)
        return self.bt @ d


class _GramPairs:
    """Pair layout through Q x Q matrices, for secant sets that cover at
    least half of the pair stream: no array grows with |S| x M."""

    def __init__(self, secants: SecantBatch, q: int):
        self.q = q
        self.flat = secants.i * q + secants.j

    def dists(self, s):
        """Relaxed distances v_k = G_ii + G_jj - 2 G_ij with G = S S^T."""
        g = s @ s.T
        diag = g.diagonal().copy()
        g *= -2.0
        g += diag[:, None]
        g += diag
        return g.ravel()[self.flat], None

    def scatter(self, s, r, _):
        """P = diag(R 1 + R^T 1) S - (R + R^T) S, where R sums the residuals
        at (i_k, j_k), so duplicated secants add up."""
        rm = np.bincount(self.flat, r, self.q * self.q).reshape(self.q, self.q)
        # R S + R^T S rather than (R + R^T) S: no second Q x Q array
        return (rm.sum(axis=0) + rm.sum(axis=1))[:, None] * s - (rm @ s + rm.T @ s)


def _pair_layout(secants: SecantBatch, q: int):
    """The dense layout when the secants cover at least half of the pair
    stream, the incidence layout otherwise."""
    dense = 4 * len(secants) >= q * (q - 1)
    return (_GramPairs if dense else _IncidencePairs)(secants, q)


def _w_loss_grad(w, points, secants, layout, u, y, lam, alpha, want_grad=True):
    """W-subproblem loss 0.5 ||u - lam v + c + y||^2, with its gradient
    unless ``want_grad`` is False; ``layout`` is a pair layout of
    ``secants`` (``_pair_layout(secants, Q)``)."""
    s = sigmoid(points @ w.T, alpha)
    v, aux = layout.dists(s)
    r = u - lam * v + secants.c + y
    f = 0.5 * float(r @ r)
    if not np.isfinite(f):
        bad = int(np.argmax(~np.isfinite(r)))
        raise DivergenceError(
            f"non-finite residual at secant "
            f"({int(secants.i[bad])}, {int(secants.j[bad])})"
        )
    if not want_grad:
        return f, None
    # per-point sum of the signed per-pair terms, then one M x Q x N product
    p = layout.scatter(s, r, aux)
    grad = -2.0 * lam * ((p * (alpha * s * (1.0 - s))).T @ points)
    if not np.all(np.isfinite(grad)):
        bad = int(np.argmax(np.abs(r)))
        raise DivergenceError(
            f"non-finite gradient; worst residual at secant "
            f"({int(secants.i[bad])}, {int(secants.j[bad])})"
        )
    return f, grad


def _agd(f_grad, f_only, w0, iters):
    """Nesterov-style accelerated descent with backtracking, for ``iters``
    steps unless the gradient vanishes; returns the best iterate seen, so
    the objective never increases past the entry point."""
    x = w0
    yv = w0
    t = 1.0
    fy, gy = f_grad(w0)  # the entry point is also the first extrapolation
    fx = fy
    f_best, x_best = fx, x
    lip = 1.0
    for k in range(iters):
        if k:
            fy, gy = f_grad(yv)
        gnorm2 = float((gy * gy).sum())
        if gnorm2 <= 1e-30:
            break
        while True:
            cand = yv - gy / lip
            fc = f_only(cand)
            if fc <= fy - 0.5 * gnorm2 / lip + 1e-12 * max(1.0, abs(fy)):
                break
            lip *= 2.0
            if lip > 1e18:
                break
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        yv = cand + ((t - 1.0) / t_next) * (cand - x)
        f_prev = fx
        x, fx, t = cand, fc, t_next
        if fx < f_best:
            f_best, x_best = fx, x
        if fx > f_prev:  # momentum overshoot: restart
            t = 1.0
            yv = x
        lip *= 0.7
    return x_best


def w_step(state: SolverState, secants: SecantBatch, data: Dataset,
           config: SolverConfig, layout) -> np.ndarray:
    """Approximately minimize the quadratic penalty over W with u, y, lambda,
    alpha held fixed; never returns a worse W than it was given. ``layout``
    is the solve's one pair layout of ``secants`` (:func:`_pair_layout`)."""
    args = (data.points, secants, layout, state.u, state.y, state.lam, state.alpha)

    def f_grad(w):
        return _w_loss_grad(w, *args, want_grad=True)

    def f_only(w):
        return _w_loss_grad(w, *args, want_grad=False)[0]

    return _agd(f_grad, f_only, state.w, config.inner_gd_iters)


def project_l1_ball(z: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball of the given radius
    (sort-based, O(n log n))."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    z = np.asarray(z, dtype=np.float64)
    az = np.abs(z)
    if az.sum() <= radius:
        return z.copy()
    mu = np.sort(az)[::-1]
    cssv = np.cumsum(mu) - radius
    k = np.arange(1, z.size + 1)
    rho = np.nonzero(mu > cssv / k)[0][-1]
    theta = cssv[rho] / (rho + 1.0)
    return np.sign(z) * np.maximum(az - theta, 0.0)


def u_step(z: np.ndarray, rho: float) -> np.ndarray:
    """argmin_u ||u||_inf + (rho/2)||u - z||^2 via Moreau decomposition:
    u = z - proj onto the l1 ball of radius 1/rho."""
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    z = np.asarray(z, dtype=np.float64)
    return z - project_l1_ball(z, 1.0 / rho)


def lambda_step(u, v, c, y, prev_lam: float) -> float:
    """Positive least-squares scale: the unconstrained minimizer of
    0.5 ||u - lambda v + c + y||^2 clamped to [_LAMBDA_MIN, inf)."""
    v = np.asarray(v, dtype=np.float64)
    vv = float(v @ v)
    if vv == 0.0:
        warnings.warn("relaxed distances identically zero; keeping previous lambda")
        return prev_lam
    lam = float(v @ (np.asarray(u) + np.asarray(c) + np.asarray(y))) / vv
    return max(_LAMBDA_MIN, lam)


def y_step(y, u, v, c, lam: float, eta: float) -> np.ndarray:
    """Scaled dual ascent: y + eta * (u - lambda v + c)."""
    return np.asarray(y, dtype=np.float64) + eta * (
        np.asarray(u, dtype=np.float64) - lam * np.asarray(v, dtype=np.float64)
        + np.asarray(c, dtype=np.float64)
    )


# ---------------------------------------------------------------------------
# outer loop


def train_nibh(
    data: Dataset,
    secants: SecantBatch,
    m: int,
    config: Optional[SolverConfig] = None,
    *,
    w0: Optional[np.ndarray] = None,
    progress: Optional[Callable] = None,
) -> tuple[HashModel, SolverState]:
    """Run the four-step ADMM loop until the augmented loss stabilizes at
    the final sigmoid rate.

    w0 defaults to the seeded Gaussian projection (identical to the LSH draw
    for the same seed). Each iteration appends a record, a dict of
    iteration, loss (sup_loss below), delta, alpha and lambda (ADMM's), to
    ``state.history``, and passes it to ``progress`` if given.

    The solve stops when the stop test passes (``converged``; it runs
    once alpha has reached alpha_end), when the divergence guard trips
    (``diverged``: the sup_loss stayed above _DIVERGENCE_FACTOR times its
    running minimum for _DIVERGENCE_PATIENCE iterations in a row), or after
    max_outer_iters iterations.

    Returns the trained model and the solver state. Every solve, diverged
    or not, returns the iterate with the lowest delta in history (the
    later one on a tie), with that iterate's W and alpha, and as lambda its
    lambda*, the Chebyshev fit of its codes over the training secants (the
    solver's lambda where no fit exists); ``state.best_iteration`` names
    it. The rest of the state describes the last iterate, ``state.lam``
    being ADMM's least-squares lambda. In each record, sup_loss is
    ||lambda v - c||_inf at the solver's lambda, and delta the distortion of
    the quantized codes over the training secants at their lambda*. When
    the secants are every pair, that delta is the one
    metrics.max_distortion reports for the model, to rounding; on collapsed
    codes (every d_H = 0) it is max c, where max_distortion raises.
    """
    if config is None:
        config = SolverConfig()
    if len(secants) < 1:
        raise ValueError("need at least one secant")
    if m < 1:
        raise ValueError(f"need M >= 1, got {m}")

    pts = data.points
    i_idx, j_idx, c = secants.i, secants.j, secants.c
    if i_idx.max() >= data.q:
        raise ValueError("secant index exceeds dataset size")

    w = np.array(w0, dtype=np.float64) if w0 is not None \
        else random_projection_matrix(m, data.n, config.seed)
    if w.shape != (m, data.n):
        raise ValueError(f"w0 has shape {w.shape}, expected ({m}, {data.n})")

    layout = _pair_layout(secants, data.q)

    def relaxed_dists(w, alpha):
        return layout.dists(sigmoid(pts @ w.T, alpha))[0]

    # The u-step makes u track lambda*v - c - y, so the least-squares
    # lambda update nearly reproduces the previous lambda each iteration;
    # lambda therefore has to START on the right scale. Fit it to the
    # initial embedding at the final rate, where the relaxation matches
    # the quantized codes the trained model will actually use, by
    # lambda_step at u = y = 0 (it warns and keeps 1 if every v is 0).
    state = SolverState(w=w, u=np.zeros(len(secants)), y=np.zeros(len(secants)),
                        lam=1.0, alpha=config.alpha_start)
    state.lam = lambda_step(state.u, relaxed_dists(w, config.alpha_end), c,
                            state.y, state.lam)

    aug_prev = None
    loss_min = math.inf
    above_min_streak = 0
    kept = (math.inf, state.w, state.lam, state.alpha, 0)  # lowest delta: returned

    for it in range(1, config.max_outer_iters + 1):
        if it > 1:
            state.alpha = min(state.alpha * config.alpha_growth, config.alpha_end)
        state.iteration = it
        state.w = w_step(state, secants, data, config, layout)
        v = relaxed_dists(state.w, state.alpha)
        state.u = u_step(state.lam * v - c - state.y, config.rho)
        state.lam = lambda_step(state.u, v, c, state.y, state.lam)
        state.y = y_step(state.y, state.u, v, c, state.lam, config.eta)

        sup_loss = float(np.max(np.abs(state.lam * v - c)))
        lam_star, delta = fit_lambda_chebyshev(
            hamming_pairs(hash_matrix(state.w, pts), i_idx, j_idx), c)
        state.history.append({"iteration": it, "loss": sup_loss, "delta": delta,
                              "alpha": state.alpha, "lambda": state.lam})
        if progress is not None:
            progress(state.history[-1])

        if delta <= kept[0]:  # ties go to the later iterate
            kept = (delta, state.w, lam_star or state.lam, state.alpha, it)
        loss_min = min(loss_min, sup_loss)
        above_min_streak = above_min_streak + 1 \
            if sup_loss > _DIVERGENCE_FACTOR * loss_min else 0
        if above_min_streak >= _DIVERGENCE_PATIENCE:
            state.diverged = True
            break

        # the stop test compares two iterations at the final rate only, so
        # "converged" never describes a solve that continuation left unfinished
        if state.alpha == config.alpha_end:
            aug = augmented_loss(state.u, v, c, state.y, state.lam, config.rho)
            if aug_prev is not None and abs(aug - aug_prev) <= \
                    config.convergence_tol * max(1.0, abs(aug_prev)):
                state.converged = True
                break
            aug_prev = aug

    _, w, lam, alpha, state.best_iteration = kept
    model = HashModel(w=w, lam=lam, alpha=alpha,
                      mean=data.mean, normalized=data.normalized)
    return model, state

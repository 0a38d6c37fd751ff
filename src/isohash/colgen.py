"""Column-generation training: solve on a small secant subset, then
alternate streaming scans for violated pairs with warm-started re-solves
until a full scan comes back clean.

A scan prices every pair at the restricted problem's optimum, as in LP
column generation: lambda* of the solve's codes over the resident secants
and their largest residual delta_hat there. The same pass is the
distortion pass of :mod:`metrics`, so it also measures the codes' refit
delta over every pair: each generation walks the pair stream once.

Memory never scales with the pair count: a scan walks the pair stream in
tiles of the engine in :mod:`core` and keeps only the most violated pairs,
the batch with the largest residuals, O(tile + batch_limit + Q) in all, and
only the active set plus at most one violator batch per generation is ever
resident.
Violation and activity are judged on quantized codes, since the termination
guarantee concerns the real near-isometry condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import metrics
from .admm import SolverConfig, train_nibh
from .core import (
    BinaryCodes,
    Dataset,
    HashModel,
    SecantBatch,
    decode_pair_indices,
    hamming_pairs,
    hash_codes,
)

__all__ = [
    "CgConfig",
    "CgReport",
    "identify_active",
    "scan_violators",
    "train_nibh_cg",
]

# a secant stays active when its quantized residual reaches (1 - _ACTIVE_TOL)
# of delta_hat; a narrow band keeps only the few that set delta_hat at
# lambda*, and re-solves on so few swing lambda*
_ACTIVE_TOL = 0.5


@dataclass
class CgConfig:
    init_sample_size: int = 5000  # clamped to the pair count
    violator_batch: int = 2000
    scan_seed: int = 0  # seeds the initial secant sample
    max_generations: int = 20
    inner: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.init_sample_size < 1 or self.violator_batch < 1:
            raise ValueError("init_sample_size and violator_batch must be >= 1")
        if self.max_generations < 1:
            raise ValueError("max_generations must be >= 1")


@dataclass
class CgReport:
    generations: int
    peak_resident_secants: int
    fully_satisfied: bool  # the run stopped on a clean scan
    init_size: int
    # per generation g = 0 (the initial solve) .. generations: dict(generation,
    # active_size, violators_found, delta_hat, full_delta, lambda)
    history: list
    # the generation whose model was returned; its history record holds
    # that model's delta_hat and active_size
    best_generation: int


# ---------------------------------------------------------------------------
# pieces


def identify_active(resid: np.ndarray, delta_hat: float,
                    active_tol: float) -> np.ndarray:
    """Mask of the secants whose quantized residual ``resid`` reaches
    (1 - active_tol) * delta_hat."""
    return resid >= (1.0 - active_tol) * delta_hat


def scan_violators(codes: BinaryCodes, data: Dataset, lam: float,
                   delta_hat: float, batch_limit: int, n_threads: int = 1
                   ) -> tuple[SecantBatch, metrics.DistortionReport]:
    """Secants whose quantized residual exceeds delta_hat, the batch_limit
    most violated of them in stream order, and the codes' refit
    DistortionReport over every pair, from one all-pairs pass.

    The pass (:func:`metrics._level_candidates`) screens each tile once,
    for violators and for the level extremes of the distortion report
    together, and rechecks the survivors literally. Violators are ranked by
    that literal residual |lam d_H - c|, largest first, ties to the smaller
    stream position, and each worker keeps only its batch_limit best, so
    memory is O(tile + batch_limit + Q) and any ``n_threads`` returns the
    identical result. No pair violates exactly when no violator returns.
    """
    if delta_hat < 0:
        raise ValueError("delta_hat must be nonnegative")
    if batch_limit < 1:
        raise ValueError(f"batch_limit must be >= 1, got {batch_limit}")
    *found, t = metrics._level_candidates(codes, data.points, n_threads, lam,
                                          delta_hat, batch_limit)
    violators = SecantBatch.from_pairs(data.points, *decode_pair_indices(t))
    return violators, metrics._refit_report(*found, data.q)


def _union(active: SecantBatch, violators: SecantBatch) -> SecantBatch:
    """The active secants, then the violators. No violator is resident: its
    residual exceeds delta_hat, the largest resident residual, so a pair
    enters at most once."""
    return SecantBatch(np.concatenate([active.i, violators.i]),
                       np.concatenate([active.j, violators.j]),
                       np.concatenate([active.c, violators.c]))


# ---------------------------------------------------------------------------
# driver


def train_nibh_cg(
    data: Dataset,
    m: int,
    config: Optional[CgConfig] = None,
    *,
    progress: Optional[Callable] = None,
    n_threads: int = 1,
) -> tuple[HashModel, CgReport]:
    """Column-generation training over the full pair universe.

    Solves on an initial random subset, then repeatedly augments the active
    set with the ``violator_batch`` most violated pairs of a full scan and
    re-solves warm-started from the previous embedding (u, y restart at zero
    because the secant index set changed). Every generation's solve is
    scanned at its model's lambda, the lambda* of its codes over the
    resident secants, and delta_hat, their largest residual there; the same
    pass measures its refit delta over every pair (``full_delta``).
    ``progress``, if given, is called with each record as history gets it.

    Stops when a full scan finds no violator or max_generations is
    exhausted; ``fully_satisfied`` says the run stopped on a clean scan,
    which proves the scanned generation's refit delta equal to its
    delta_hat. Either way the run returns the generation with the lowest
    refit delta (the later one on a tie), so the returned delta is never
    above the clean one; ``history[best_generation]`` describes that
    generation.
    """
    if config is None:
        config = CgConfig()

    secants = SecantBatch.sample(data.points, config.init_sample_size,
                                 config.scan_seed)
    init_size = peak = len(secants)
    w0 = None  # each re-solve warm-starts from the previous embedding
    history = []
    best = (math.inf,)  # (full delta, generation, model)
    for gen in range(config.max_generations + 1):
        model, _state = train_nibh(data, secants, m, config.inner, w0=w0)
        w0 = model.w
        codes = hash_codes(model, data)
        resid = np.abs(model.lam * hamming_pairs(codes, secants.i, secants.j)
                       - secants.c)
        delta_hat = float(resid.max())
        active = secants.subset(identify_active(resid, delta_hat, _ACTIVE_TOL))
        violators, full = scan_violators(codes, data, model.lam, delta_hat,
                                         config.violator_batch, n_threads)
        full_delta, clean = full.delta, len(violators) == 0
        if full_delta <= best[0]:
            best = (full_delta, gen, model)
        record = {
            "generation": gen,
            "active_size": len(active),
            "violators_found": len(violators),
            "delta_hat": delta_hat,
            "full_delta": full_delta,
            "lambda": model.lam,
        }
        history.append(record)
        if progress is not None:
            progress(record)
        if clean or gen == config.max_generations:
            break

        secants = _union(active, violators)
        # memory contract: what is resident never beats the sampled start
        # plus one batch per generation
        assert len(secants) <= init_size + (gen + 1) * config.violator_batch, \
            "resident secants exceed the column-generation memory contract"
        peak = max(peak, len(secants))

    _, best_gen, model = best
    report = CgReport(
        generations=gen,
        peak_resident_secants=peak,
        fully_satisfied=clean,
        init_size=init_size,
        history=history,
        best_generation=best_gen,
    )
    return model, report

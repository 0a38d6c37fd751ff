"""Column-generation training: solve on a small secant subset, then
alternate streaming scans for violated pairs with warm-started re-solves
until a full scan comes back clean.

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

from .admm import SolverConfig, _emit, train_nibh
from .core import (
    BinaryCodes,
    Dataset,
    HashModel,
    PairTiles,
    SecantBatch,
    decode_pair_indices,
    hamming_pairs,
    hash_codes,
    map_tiles,
    pair_linear_index,
)
from .metrics import max_distortion

__all__ = [
    "CgConfig",
    "CgReport",
    "identify_active",
    "scan_violators",
    "train_nibh_cg",
]

# a secant stays active when its quantized residual reaches (1 - _ACTIVE_TOL)
# of delta_hat; at most _ACTIVE_CAP of them, the largest, stay
_ACTIVE_TOL = 0.02
_ACTIVE_CAP = 200_000


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
    active_size: int
    peak_resident_secants: int
    fully_satisfied: bool
    delta_hat: float
    violators_found: int
    init_size: int
    # per generation g = 0 (the initial solve) .. generations: dict(generation,
    # active_size, violators_found, delta_hat, full_delta)
    history: list
    best_generation: int  # the generation whose model was returned


# ---------------------------------------------------------------------------
# pieces


def identify_active(resid: np.ndarray, delta_hat: float, active_tol: float,
                    cap: Optional[int] = None) -> np.ndarray:
    """Mask of the secants whose quantized residual ``resid`` reaches
    (1 - active_tol) * delta_hat; at most ``cap`` survive (largest first)."""
    mask = resid >= (1.0 - active_tol) * delta_hat
    if cap is not None and int(mask.sum()) > cap:
        # keep the largest residuals; ties resolved by pair order
        idx = np.nonzero(mask)[0]
        keep = idx[np.argsort(-resid[idx], kind="stable")[:cap]]
        mask = np.zeros(resid.size, dtype=bool)
        mask[keep] = True
    return mask


def scan_violators(codes: BinaryCodes, data: Dataset, lam: float,
                   delta_hat: float, batch_limit: int,
                   n_threads: int = 1) -> tuple[SecantBatch, bool]:
    """Secants whose quantized residual exceeds delta_hat: the batch_limit
    most violated of them, in stream order.

    Every tile is scanned; screened residuals within the engine's margin
    of delta_hat are recomputed literally. Violators are ranked by that
    literal residual |lam d_H - c|, largest first, ties to the smaller
    stream position, and each worker keeps only its batch_limit best, so
    memory is O(tile + batch_limit + Q) and any ``n_threads`` returns the
    identical result.

    Returns (violators, scanned_all); scanned_all is True exactly when no
    pair violates.
    """
    if delta_hat < 0:
        raise ValueError("delta_hat must be nonnegative")

    def top(r, t):
        keep = np.lexsort((t, -r))[:batch_limit]
        return r[keep], t[keep]

    tiles = PairTiles(data.points, codes)
    screen = delta_hat - tiles.margin(lam)

    def scan(tile_list):
        r, t = np.empty(0), np.empty(0, dtype=np.int64)
        for lo, hi in tile_list:
            rows, j = np.nonzero(tiles.residuals(lo, hi, lam) > screen)
            i = lo + rows
            exact = tiles.exact_residuals(i, j, lam)
            hit = exact > delta_hat
            r, t = top(np.concatenate([r, exact[hit]]),
                       np.concatenate([t, pair_linear_index(i[hit], j[hit])]))
        return r, t

    parts = map_tiles(scan, data.q, n_threads)
    _, t = top(*map(np.concatenate, zip(*parts)))
    violators = SecantBatch.from_pairs(data.points,
                                       *decode_pair_indices(np.sort(t)))
    return violators, t.size == 0


def _union(active: SecantBatch, violators: SecantBatch) -> SecantBatch:
    """Merge, dropping violators already present; a pair enters at most once."""
    fresh = violators.subset(~np.isin(violators.keys(), active.keys()))
    return SecantBatch(np.concatenate([active.i, fresh.i]),
                       np.concatenate([active.j, fresh.j]),
                       np.concatenate([active.c, fresh.c]))


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

    Solves on an initial random subset, freezes the scale from that solve,
    then repeatedly augments the active set with the ``violator_batch`` most
    violated pairs of a full scan and re-solves warm-started from the
    previous embedding (u, y restart at zero because the secant index set
    changed). Every generation's solve is scanned, and its refit delta over
    every pair is measured.

    Terminates when a full scan finds no violator or max_generations is
    exhausted; ``fully_satisfied`` says which. A clean scan returns the
    model it scanned. An exhausted budget returns the generation with the
    lowest refit delta (the later one on a tie), and the report's
    ``delta_hat`` and ``best_generation`` describe that generation.
    """
    if config is None:
        config = CgConfig()

    secants = SecantBatch.sample(data.points, config.init_sample_size,
                                 config.scan_seed)
    init_size = peak = len(secants)
    lam_hat = None  # fitted by the first solve, frozen for the rest of the run
    w0 = None  # each re-solve warm-starts from the previous embedding
    history = []
    violators_total = 0
    best = (math.inf,)  # (full delta, generation, model, delta_hat)
    for gen in range(config.max_generations + 1):
        model, _state = train_nibh(data, secants, m, config.inner, w0=w0,
                                   fixed_lambda=lam_hat)
        lam_hat, w0 = model.lam, model.w
        codes = hash_codes(model, data)
        resid = np.abs(lam_hat * hamming_pairs(codes, secants.i, secants.j)
                       - secants.c)
        delta_hat = float(resid.max())
        active = secants.subset(identify_active(
            resid, delta_hat, _ACTIVE_TOL, _ACTIVE_CAP))
        full_delta = max_distortion(model, data, n_threads=n_threads).delta

        violators, scanned_all = scan_violators(
            codes, data, lam_hat, delta_hat, config.violator_batch,
            n_threads=n_threads,
        )
        violators_total += len(violators)
        # a clean scan certifies the model it scanned, which is kept whatever
        # its delta; otherwise the lowest delta so far, ties to the later
        if scanned_all or full_delta <= best[0]:
            best = (full_delta, gen, model, delta_hat)
        record = {
            "generation": gen,
            "active_size": len(active),
            "violators_found": len(violators),
            "delta_hat": delta_hat,
            "full_delta": full_delta,
        }
        history.append(record)
        _emit(progress, record)
        if scanned_all or gen == config.max_generations:
            break

        secants = _union(active, violators)
        # memory contract: what is resident never beats the sampled start
        # plus one batch per generation
        assert len(secants) <= init_size + (gen + 1) * config.violator_batch, \
            "resident secants exceed the column-generation memory contract"
        peak = max(peak, len(secants))

    _, best_gen, model, delta_hat = best
    report = CgReport(
        generations=gen,
        active_size=history[best_gen]["active_size"],
        peak_resident_secants=peak,
        fully_satisfied=scanned_all,
        delta_hat=delta_hat,
        violators_found=violators_total,
        init_size=init_size,
        history=history,
        best_generation=best_gen,
    )
    return model, report

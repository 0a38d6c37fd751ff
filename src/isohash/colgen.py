"""Column-generation training: solve on a small secant subset, then
alternate streaming scans for violated pairs with warm-started re-solves
until a full scan comes back clean.

Memory never scales with the pair count: a scan walks the pair stream in
tiles of the engine in :mod:`core` and keeps only the violators that come
first in a seeded pseudo-random order of the stream, O(tile + batch_limit +
Q) in all, and only the active set plus at most one violator batch per
generation is ever resident.
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
    sample_pair_indices,
    secant_count,
)
from .metrics import max_distortion

__all__ = [
    "CgConfig",
    "CgReport",
    "sample_initial_secants",
    "identify_active",
    "scan_violators",
    "train_nibh_cg",
]

@dataclass
class CgConfig:
    init_sample_size: int = 5000  # clamped to the pair count
    violator_batch: int = 2000
    active_tol: float = 0.02  # fraction of delta_hat
    scan_seed: int = 0
    max_generations: int = 20
    active_cap: int = 200_000
    inner: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.init_sample_size < 1 or self.violator_batch < 1:
            raise ValueError("init_sample_size and violator_batch must be >= 1")
        if not (0 <= self.active_tol < 1):
            raise ValueError("active_tol must lie in [0, 1)")
        if self.max_generations < 1 or self.active_cap < 1:
            raise ValueError("max_generations and active_cap must be >= 1")


@dataclass
class CgReport:
    generations: int
    active_size: int
    peak_resident_secants: int
    fully_satisfied: bool
    delta_hat: float
    lam: float
    violators_found: int
    init_size: int
    # per generation g = 0 (the initial solve) .. generations: dict(generation,
    # active_size, violators_found, delta_hat, full_delta)
    history: list
    best_generation: int  # the generation whose model was returned


# ---------------------------------------------------------------------------
# pieces


def sample_initial_secants(q: int, data: Dataset, config: CgConfig) -> SecantBatch:
    """Uniform sample (without replacement) from the pair stream with true
    distances filled in; the whole stream when the request covers it."""
    total = secant_count(q)
    rng = np.random.default_rng(config.scan_seed)
    t = sample_pair_indices(total, config.init_sample_size, rng)
    return SecantBatch.from_pairs(data.points, *decode_pair_indices(t))


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


def _scan_positions(total: int, seed: int):
    """Affine full-cycle walk of [0, total): position(t) = (off + t*step) mod
    total with step coprime to total. Pseudo-random order, O(1) state, each
    pair visited exactly once."""
    rng = np.random.default_rng(seed)
    step = int(rng.integers(1, max(total, 2)))  # a one-pair stream has step 1
    while math.gcd(step, total) != 1:
        step += 1
        if step >= total:
            step = 1
    off = int(rng.integers(0, total))
    return off, step


def scan_violators(codes: BinaryCodes, data: Dataset, lam: float,
                   delta_hat: float, batch_limit: int, seed: int,
                   n_threads: int = 1) -> tuple[SecantBatch, bool]:
    """Secants whose quantized residual exceeds delta_hat: the batch_limit
    of them that come first in a seeded pseudo-random walk of the pair
    stream, in walk order.

    Every tile is scanned; screened residuals within the engine's margin
    of delta_hat are recomputed literally. A violator at stream position t
    is ranked by its place p = (t - off) * step^-1 mod total in the walk of
    :func:`_scan_positions`, and each worker keeps only the batch_limit
    smallest p, so memory is O(tile + batch_limit + Q) and any
    ``n_threads`` returns the identical result.

    Returns (violators, scanned_all); scanned_all is True exactly when no
    pair violates.
    """
    if delta_hat < 0:
        raise ValueError("delta_hat must be nonnegative")
    total = secant_count(data.q)
    off, step = _scan_positions(total, seed)
    inv = pow(step, -1, total)

    def first(p, t):
        keep = np.argsort(p)[:batch_limit]
        return p[keep], t[keep]

    tiles = PairTiles(data.points, codes)
    screen = delta_hat - tiles.margin(lam)

    def scan(tile_list):
        p = t = np.empty(0, dtype=np.int64)
        for lo, hi in tile_list:
            rows, j = np.nonzero(tiles.residuals(lo, hi, lam) > screen)
            i = lo + rows
            hit = pair_linear_index(i, j)[tiles.exact_residuals(i, j, lam) > delta_hat]
            p, t = first(np.concatenate([p, (hit - off) * inv % total]),
                         np.concatenate([t, hit]))
        return p, t

    parts = map_tiles(scan, data.q, n_threads)
    p, t = first(np.concatenate([p for p, _ in parts]),
                 np.concatenate([t for _, t in parts]))
    violators = SecantBatch.from_pairs(data.points, *decode_pair_indices(t))
    return violators, p.size == 0


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
    w0: Optional[np.ndarray] = None,
    progress: Optional[Callable] = None,
    n_threads: int = 1,
) -> tuple[HashModel, CgReport]:
    """Column-generation training over the full pair universe.

    Solves on an initial random subset, freezes the scale from that solve,
    then repeatedly augments the active set with scanned violators and
    re-solves warm-started from the previous embedding (u, y restart at zero
    because the secant index set changed). Every generation's solve is
    scanned, and its refit delta over every pair is measured.

    Terminates when a full scan finds no violator or max_generations is
    exhausted; ``fully_satisfied`` says which. A clean scan returns the
    model it scanned. An exhausted budget returns the generation with the
    lowest refit delta (the later one on a tie), and the report's ``lam``,
    ``delta_hat`` and ``best_generation`` describe that generation.
    """
    if config is None:
        config = CgConfig()

    secants = sample_initial_secants(data.q, data, config)
    init_size = peak = len(secants)
    lam_hat = None  # fitted by the first solve, frozen for the rest of the run
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
            resid, delta_hat, config.active_tol, config.active_cap))
        full_delta = max_distortion(model, data, n_threads=n_threads).delta

        violators, scanned_all = scan_violators(
            codes, data, lam_hat, delta_hat, config.violator_batch,
            seed=config.scan_seed + gen + 1, n_threads=n_threads,
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
        active_size=len(active),
        peak_resident_secants=peak,
        fully_satisfied=scanned_all,
        delta_hat=delta_hat,
        lam=model.lam,
        violators_found=violators_total,
        init_size=init_size,
        history=history,
        best_generation=best_gen,
    )
    return model, report

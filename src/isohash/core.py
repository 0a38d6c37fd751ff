"""Core types and pure functions: quantized hashing, the sigmoid surrogate,
pair distances, and the secant stream.

The stream lists every pair (i, j), i > j, in lexicographic order; pair
(i, j) sits at position i(i-1)/2 + j. Every full pass over it goes through
one row walk, :func:`walk_rows`: row i holds the pairs (i, 0) ... (i, i-1),
so a pass holds one row of distances at a time, O(Q) memory, and visits
pairs in stream order. :func:`map_row_blocks` splits the rows among threads.

Neighbor measurements read whole query rows instead: :func:`query_rows`
yields the ambient and Hamming distances from each query to every point,
and :func:`ranked_neighbors` is the one ranking rule applied to them
(nearest first, ties by ascending index, the query itself excluded).

Everything here is stateless and safe to call from multiple threads. Solver
arithmetic is float64 throughout; binary codes are bit-packed and compared
with XOR + popcount.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from scipy.special import expit

__all__ = [
    "Dataset",
    "SecantRef",
    "SecantBatch",
    "BinaryCodes",
    "HashModel",
    "hash_codes",
    "hash_matrix",
    "sigmoid",
    "relaxed_pair_dists",
    "hamming_pairs",
    "secant_count",
    "pair_linear_index",
    "decode_pair_indices",
    "pair_distances",
    "walk_rows",
    "map_row_blocks",
    "query_rows",
    "ranked_neighbors",
    "sample_pair_indices",
    "random_projection_matrix",
]


# ---------------------------------------------------------------------------
# domain types


@dataclass
class Dataset:
    """Q x N point matrix plus the preprocessing metadata it was built with.

    ``mean`` is the vector that was subtracted (zeros if none); ``normalized``
    records whether every row was scaled to unit l2 norm.
    """

    points: np.ndarray
    mean: Optional[np.ndarray] = None
    normalized: bool = False

    def __post_init__(self):
        self.points = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if self.points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {self.points.shape}")
        q, n = self.points.shape
        if q < 2 or n < 1:
            raise ValueError(f"need at least 2 points and 1 dimension, got {q}x{n}")
        if self.mean is None:
            self.mean = np.zeros(n, dtype=np.float64)
        else:
            self.mean = np.asarray(self.mean, dtype=np.float64)
            if self.mean.shape != (n,):
                raise ValueError(
                    f"mean has shape {self.mean.shape}, expected ({n},)"
                )
        if self.normalized:
            norms = np.linalg.norm(self.points, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                bad = int(np.argmax(np.abs(norms - 1.0)))
                raise ValueError(
                    f"normalized=True but row {bad} has norm {norms[bad]!r}"
                )

    @property
    def q(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SecantRef:
    """One pair (i, j), i > j, with its target ambient distance c.

    c is the l2 distance between points i and j unless deliberately
    overridden (e.g. the BRE-style zero targets for the closest pairs).
    """

    i: int
    j: int
    c: float

    def __post_init__(self):
        if not (self.i > self.j >= 0):
            raise ValueError(f"need i > j >= 0, got ({self.i}, {self.j})")
        if self.c < 0:
            raise ValueError(f"target distance must be >= 0, got {self.c}")


class SecantBatch:
    """Columnar batch of secants: index arrays i, j and target distances c."""

    __slots__ = ("i", "j", "c")

    def __init__(self, i, j, c):
        self.i = np.ascontiguousarray(np.asarray(i, dtype=np.int64))
        self.j = np.ascontiguousarray(np.asarray(j, dtype=np.int64))
        self.c = np.ascontiguousarray(np.asarray(c, dtype=np.float64))
        if not (self.i.shape == self.j.shape == self.c.shape) or self.i.ndim != 1:
            raise ValueError("i, j, c must be 1-D arrays of equal length")
        if self.i.size and not np.all(self.i > self.j):
            raise ValueError("every secant needs i > j")
        if self.i.size and (self.j.min() < 0):
            raise ValueError("negative point index in secant batch")
        if self.c.size and self.c.min() < 0:
            raise ValueError("negative target distance in secant batch")

    def __len__(self) -> int:
        return self.i.size

    def __getitem__(self, k) -> SecantRef:
        return SecantRef(int(self.i[k]), int(self.j[k]), float(self.c[k]))

    def keys(self) -> np.ndarray:
        """Linear pair index i*(i-1)/2 + j; unique per unordered pair."""
        return pair_linear_index(self.i, self.j)

    def subset(self, mask_or_idx) -> "SecantBatch":
        return SecantBatch(self.i[mask_or_idx], self.j[mask_or_idx], self.c[mask_or_idx])

    @classmethod
    def from_pairs(cls, points: np.ndarray, i, j) -> "SecantBatch":
        """Build a batch with true ambient distances as targets."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        return cls(i, j, pair_distances(points, i, j))

    @classmethod
    def all_pairs(cls, points: np.ndarray) -> "SecantBatch":
        """Every pair, in stream order, with true ambient distances as
        targets (the same values :meth:`from_pairs` gives)."""
        i, j = decode_pair_indices(np.arange(secant_count(len(points))))
        return cls(i, j, np.concatenate([c for _, c, _ in walk_rows(points)]))


@dataclass
class HashModel:
    """Trained hashing artifact: embedding matrix W (M x N), the distance
    scale lambda, the final sigmoid rate, and the preprocessing stats needed
    to hash unseen data consistently."""

    w: np.ndarray
    lam: float
    alpha: float
    mean: np.ndarray
    normalized: bool

    def __post_init__(self):
        self.w = np.ascontiguousarray(np.asarray(self.w, dtype=np.float64))
        if self.w.ndim != 2 or self.w.shape[0] < 1:
            raise ValueError(f"W must be an M x N matrix with M >= 1, got {self.w.shape}")
        if not (self.lam > 0):
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not (self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        self.mean = np.asarray(self.mean, dtype=np.float64)
        if self.mean.shape != (self.w.shape[1],):
            raise ValueError(
                f"mean has shape {self.mean.shape}, expected ({self.w.shape[1]},)"
            )

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def n(self) -> int:
        return self.w.shape[1]


class BinaryCodes:
    """Q x M codes over {0,1}, stored bit-packed (uint8 words, big-endian
    bit order within each byte)."""

    __slots__ = ("packed", "n_bits")

    def __init__(self, packed: np.ndarray, n_bits: int):
        packed = np.ascontiguousarray(np.asarray(packed, dtype=np.uint8))
        if packed.ndim != 2 or packed.shape[1] != (n_bits + 7) // 8:
            raise ValueError(
                f"packed shape {packed.shape} inconsistent with {n_bits} bits"
            )
        self.packed = packed
        self.n_bits = int(n_bits)

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BinaryCodes":
        bits = np.asarray(bits)
        if bits.ndim != 2:
            raise ValueError(f"bits must be Q x M, got shape {bits.shape}")
        if bits.size and not np.isin(bits, (0, 1)).all():
            raise ValueError("code entries must be 0 or 1")
        return cls(np.packbits(bits.astype(np.uint8), axis=1), bits.shape[1])

    def unpack(self) -> np.ndarray:
        return np.unpackbits(self.packed, axis=1, count=self.n_bits)

    @property
    def q(self) -> int:
        return self.packed.shape[0]

    def __len__(self) -> int:
        return self.packed.shape[0]


# ---------------------------------------------------------------------------
# hashing and the sigmoid surrogate


def sigmoid(t, alpha: float = 1.0):
    """Rate-alpha logistic function (1 + exp(-alpha * t))**-1."""
    return expit(alpha * np.asarray(t, dtype=np.float64))


def hash_matrix(w: np.ndarray, points: np.ndarray) -> BinaryCodes:
    """Quantize points through W: bit (q, m) = (1 + sgn(w_m . x_q)) / 2.

    sgn(0) counts as +1, so a zero projection yields bit 1.
    """
    w = np.asarray(w, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if points.shape[1] != w.shape[1]:
        raise ValueError(
            f"dimension mismatch: points are {points.shape}, W is {w.shape}"
        )
    bits = (points @ w.T >= 0.0).astype(np.uint8)
    return BinaryCodes(np.packbits(bits, axis=1), w.shape[0])


def hash_codes(model: HashModel, data: Dataset) -> BinaryCodes:
    """Binary codes for a dataset already preprocessed with the model's stats."""
    if data.n != model.n:
        raise ValueError(
            f"dimension mismatch: data is {data.points.shape}, "
            f"model W is {model.w.shape}"
        )
    return hash_matrix(model.w, data.points)


def relaxed_pair_dists(w, points, i_idx, j_idx, alpha: float) -> np.ndarray:
    """Squared l2 distances between the sigmoid embeddings of the pairs
    (i_idx, j_idx).

    This is the smooth surrogate for the Hamming distance of the quantized
    codes; each value lies in [0, M].
    """
    s = sigmoid(np.asarray(points, dtype=np.float64) @ np.asarray(w).T, alpha)
    d = s[i_idx] - s[j_idx]
    return np.einsum("ij,ij->i", d, d)


# ---------------------------------------------------------------------------
# Hamming distances on packed codes


def hamming_pairs(codes: BinaryCodes, i_idx, j_idx) -> np.ndarray:
    """Vectorized Hamming distances for index arrays (i_idx, j_idx): the
    popcount of the XOR of packed rows, which equals the squared l2
    distance of the unpacked codes."""
    x = codes.packed[i_idx] ^ codes.packed[j_idx]
    return np.bitwise_count(x).sum(axis=1, dtype=np.int64)


# ---------------------------------------------------------------------------
# secant streams


def secant_count(q: int) -> int:
    """|S(X)| = Q(Q-1)/2, exact (Python int, no overflow)."""
    if q < 2:
        raise ValueError(f"need Q >= 2, got {q}")
    return q * (q - 1) // 2


def pair_linear_index(i, j):
    """Position of pair (i, j), i > j, in the lexicographic stream."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    return i * (i - 1) // 2 + j


def decode_pair_indices(t) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`pair_linear_index`, vectorized.

    Float sqrt gives i up to rounding; two integer fix-up passes make it exact
    for any pair count that fits in int64.
    """
    t = np.asarray(t, dtype=np.int64)
    i = ((1.0 + np.sqrt(1.0 + 8.0 * t.astype(np.float64))) / 2.0).astype(np.int64)
    # correct downward then upward so that i(i-1)/2 <= t < i(i+1)/2
    i = np.where(i * (i - 1) // 2 > t, i - 1, i)
    i = np.where((i + 1) * i // 2 <= t, i + 1, i)
    j = t - i * (i - 1) // 2
    return i, j


def pair_distances(points: np.ndarray, i_idx, j_idx) -> np.ndarray:
    """Ambient l2 distances for the given pairs (gathered, not Q x Q)."""
    points = np.asarray(points, dtype=np.float64)
    d = points[i_idx] - points[j_idx]
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def walk_rows(points: np.ndarray, codes: Optional[BinaryCodes] = None,
              lo: int = 1, hi: Optional[int] = None,
              pairs: Optional[tuple] = None
              ) -> Iterator[tuple[int, np.ndarray, Optional[np.ndarray]]]:
    """Walk rows i in [lo, hi) (default: every row) of the pair stream,
    yielding (i, c, h): the ambient distances c and Hamming distances h
    (None without ``codes``) from point i to points 0 ... i-1. These are
    stream positions i(i-1)/2 ... i(i+1)/2 - 1, in order, so
    ``i*(i-1)//2 + argmax`` is the smallest position attaining a row's max.

    ``pairs`` = (i_idx, j_idx), sorted by stream position, restricts each
    row to the columns listed for it; rows with none are skipped.

    The values are those of :func:`pair_distances` and :func:`hamming_pairs`
    on gathered index arrays, bit for bit, without the gather.
    """
    hi = len(points) if hi is None else hi
    if pairs is not None:
        i_idx, j_idx = pairs
        bounds = np.searchsorted(i_idx, np.arange(lo, hi + 1))
    for i in range(lo, hi):
        if pairs is None:
            cols = slice(0, i)
        else:
            a, b = bounds[i - lo], bounds[i - lo + 1]
            if a == b:
                continue
            cols = j_idx[a:b]
        h = None if codes is None else hamming_pairs(codes, i, cols)
        yield i, pair_distances(points, i, cols), h


def map_row_blocks(fn, q: int, n_threads: int = 1) -> list:
    """[fn(lo, hi) for each block], the rows [1, q) cut into ``n_threads``
    contiguous blocks of near-equal pair count, in row order. Blocks run on
    a thread pool, or serially as one block when ``n_threads`` is 1."""
    if n_threads <= 1:
        return [fn(1, q)]
    cuts = np.linspace(0, secant_count(q), n_threads + 1)[1:-1].astype(np.int64)
    rows = [1, *decode_pair_indices(cuts)[0].tolist(), q]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(fn, rows[:-1], rows[1:]))


def query_rows(points: np.ndarray, codes: BinaryCodes, queries
               ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """For each query q, yield (q, c, h): the ambient distances c and the
    Hamming distances h from point q to every point, itself included.

    c is the plain row norm, not the einsum of :func:`pair_distances`:
    on tie-heavy data the two differ in the last bit and would rank tied
    neighbors differently."""
    for q in queries:
        q = int(q)
        yield (q, np.linalg.norm(points - points[q], axis=1),
               hamming_pairs(codes, q, slice(None)))


def ranked_neighbors(dist: np.ndarray, query: int,
                     k: Optional[int] = None) -> np.ndarray:
    """Indices of every point but ``query``, nearest first by ``dist`` with
    ties broken by ascending index; the first k of them when k is given."""
    order = np.argsort(dist, kind="stable")
    return order[order != query][:k]


def sample_pair_indices(total: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct linear pair indices drawn uniformly from [0, total).

    Rejection-based so memory stays O(k) even when total is huge; returns the
    chosen indices in ascending order.
    """
    if k >= total:
        return np.arange(total, dtype=np.int64)
    pool = np.empty(0, dtype=np.int64)
    while pool.size < k:
        need = k - pool.size
        draw = rng.integers(0, total, size=int(need * 1.3) + 16, dtype=np.int64)
        # sorted distinct values, as np.unique gives, at a fraction of its cost
        pool = np.sort(np.concatenate([pool, draw]))
        pool = pool[np.concatenate(([True], pool[1:] != pool[:-1]))]
    if pool.size > k:
        keep = rng.permutation(pool.size)[:k]
        pool = np.sort(pool[keep])
    return pool


def random_projection_matrix(m: int, n: int, seed: int) -> np.ndarray:
    """M x N matrix of i.i.d. standard normal entries under a fixed seed.

    Used both as the LSH projection and as the solver's W initialization, so
    the two start from identical random directions for a given seed.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need M, N >= 1, got ({m}, {n})")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n))

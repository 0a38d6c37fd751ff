"""Core types and pure functions: quantized hashing, the sigmoid surrogate,
pair distances, and the secant stream.

The stream lists every pair (i, j), i > j, in lexicographic order; pair
(i, j) sits at position i(i-1)/2 + j. All-pairs and query-row passes run on
one tile engine, :class:`PairTiles`. A tile, rows [lo, hi) x columns [0, hi)
of the stream (:func:`row_tiles`) or a block of queries x all points, holds
at most TILE_PAIRS = 2^18 values, so a pass needs O(tile + Q) memory. Its
ambient distances are one GEMM, the Gram distances
sqrt(max(|x_i|^2 + |x_j|^2 - 2 x_i.x_j, 0)); its Hamming distances are
integers: XOR + popcount on the code bytes, as in :func:`hamming_pairs`.

Gram values only screen: cancellation leaves them within
``PairTiles.margin()`` = 4 r sqrt((N + 4) eps) of the literal distance (r
the largest point norm; the dot-product forward-error bound through the
sqrt, with room to spare). Each consumer recomputes literally the entries
within twice the margin of what it decides on (a maximum, a threshold, a
per-Hamming-level distance extreme, a k-th neighbor), so results are
bit-identical to a literal pass. :func:`map_tiles` deals tiles to
``n_threads`` threads; the GEMMs and large ufuncs release the GIL, so
threads pay off once a pass spans many tiles: 2 threads run
``metrics.max_distortion`` 1.8x faster at Q = 10^4 and 1.0-1.6x at
Q = 2000 (N = 100, M = 16; 2 cores, one BLAS thread).

Everything here is stateless and thread-safe. Solver arithmetic is float64
throughout; binary codes are bit-packed and compared with XOR + popcount.
"""

from __future__ import annotations

import math
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
    "hamming_pairs",
    "secant_count",
    "pair_linear_index",
    "decode_pair_indices",
    "pair_distances",
    "PairTiles",
    "row_tiles",
    "map_tiles",
    "query_neighbors",
    "hamming_kth",
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
            off = ~(np.abs(norms - 1.0) <= 1e-9)  # a NaN norm is off too
            if np.any(off):
                bad = int(np.argmax(off))
                raise ValueError(
                    f"normalized=True but row {bad} has norm {float(norms[bad])!r}"
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

    def keys(self) -> np.ndarray:
        """Linear pair index i*(i-1)/2 + j; unique per unordered pair."""
        return pair_linear_index(self.i, self.j)

    def subset(self, mask_or_idx) -> "SecantBatch":
        return SecantBatch(self.i[mask_or_idx], self.j[mask_or_idx], self.c[mask_or_idx])

    @classmethod
    def from_pairs(cls, points: np.ndarray, i, j) -> "SecantBatch":
        """Build a batch with true ambient distances as targets."""
        return cls(i, j, pair_distances(points, i, j))

    @classmethod
    def all_pairs(cls, points: np.ndarray) -> "SecantBatch":
        """Every pair, in stream order, with true ambient distances."""
        i, j = decode_pair_indices(np.arange(secant_count(len(points))))
        return cls.from_pairs(points, i, j)

    @classmethod
    def sample(cls, points: np.ndarray, k: int, seed: int) -> "SecantBatch":
        """k distinct pairs drawn uniformly under ``seed``, in stream order,
        with true ambient distances; every pair when k covers the stream."""
        t = sample_pair_indices(secant_count(len(points)), k,
                                np.random.default_rng(seed))
        return cls.from_pairs(points, *decode_pair_indices(t))


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
    """Ambient l2 distances for the given pairs by the literal expression
    sqrt(sum((x_i - x_j)^2)), gathering one tile of coordinates at a time."""
    points = np.asarray(points, dtype=np.float64)
    i_idx, j_idx = np.asarray(i_idx), np.asarray(j_idx)
    out = np.empty(i_idx.size)
    step = max(1, TILE_PAIRS // points.shape[1])
    for s in range(0, i_idx.size, step):
        d = points[i_idx[s:s + step]] - points[j_idx[s:s + step]]
        out[s:s + step] = np.sqrt(np.einsum("ij,ij->i", d, d))
    return out


# ---------------------------------------------------------------------------
# the tile engine

TILE_PAIRS = 1 << 18


class PairTiles:
    """Gram and Hamming tiles of one point set and its codes."""

    def __init__(self, points: np.ndarray, codes: BinaryCodes):
        self.points, self.codes, self.m = points, codes, codes.n_bits
        self.sq = np.einsum("ij,ij->i", points, points)
        self.rmax = math.sqrt(float(self.sq.max(initial=0.0)))
        self.columns = np.ascontiguousarray(codes.packed.T)  # byte b of each code

    def margin(self, lam: float = 0.0) -> float:
        """Bound on |screened - literal| for a distance, or a residual at lam."""
        eps = np.finfo(np.float64).eps
        return (4.0 * self.rmax * math.sqrt((self.points.shape[1] + 4) * eps)
                + 8.0 * eps * (lam * self.m + 2.0 * self.rmax))

    def ambient(self, rows, cols) -> np.ndarray:
        g = self.points[rows] @ self.points[cols].T
        g *= -2.0
        g += self.sq[rows, None]
        g += self.sq[cols]
        return np.sqrt(np.maximum(g, 0.0, out=g), out=g)

    def hamming(self, rows, cols) -> np.ndarray:
        """Integer Hamming distances: XOR + popcount, one code byte at a time."""
        a, b = self.columns[:, rows], self.columns[:, cols]
        h = np.zeros((a.shape[1], b.shape[1]), dtype=np.min_scalar_type(self.m))
        for x, y in zip(a, b):
            h += np.bitwise_count(x[:, None] ^ y)
        return h

    def residuals(self, lo: int, hi: int, lam: float) -> np.ndarray:
        """Screened |lam d_H - c| of rows [lo, hi) x columns [0, hi), -inf at j >= i."""
        r = self.ambient(slice(lo, hi), slice(0, hi))
        r -= float(lam) * self.hamming(slice(lo, hi), slice(0, hi))
        return self.off_stream(np.abs(r, out=r), lo, -np.inf)

    @staticmethod
    def off_stream(tile: np.ndarray, lo: int, value: float) -> np.ndarray:
        """Set the entries j >= i of a rows [lo, hi) x columns [0, hi) tile."""
        n = tile.shape[0]
        tile[:, lo:][np.arange(n)[:, None] <= np.arange(n)] = value
        return tile

    def exact_residuals(self, i_idx, j_idx, lam: float) -> np.ndarray:
        """Literal |lam d_H - c| of the pairs (i_idx, j_idx)."""
        return np.abs(lam * hamming_pairs(self.codes, i_idx, j_idx)
                      - pair_distances(self.points, i_idx, j_idx))


def row_tiles(q: int) -> list[tuple[int, int]]:
    """Rows [1, q) cut in order into tiles [lo, hi) of equally many rows,
    so that rows x columns [0, hi) hold at most TILE_PAIRS values."""
    step = max(1, TILE_PAIRS // q)
    return [(lo, min(q, lo + step)) for lo in range(1, q, step)]


def map_tiles(fn, q: int, n_threads: int = 1) -> list:
    """[fn(row_tiles(q)[w::n_threads]) for each worker w]; the caller is
    worker 0, so it reuses memory it has just freed."""
    parts = [row_tiles(q)[w::n_threads] for w in range(n_threads)]
    with ThreadPoolExecutor(max_workers=max(1, n_threads - 1)) as pool:
        rest = [pool.submit(fn, part) for part in parts[1:]]
        return [fn(parts[0])] + [f.result() for f in rest]


def query_neighbors(points: np.ndarray, codes: BinaryCodes, queries, k: int
                    ) -> Iterator[tuple[np.ndarray, ...]]:
    """Rank the queries a block (one tile) at a time: yield (block, nearest,
    dist, h), where row r of ``nearest`` holds the k points nearest to query
    block[r], nearest first with ties broken by ascending index, ``dist``
    their literal distances, and ``h`` is the block's integer Hamming tile.
    The candidates within twice the margin of a row's k-th Gram distance
    get literal row norms (the einsum of :func:`pair_distances` differs in
    the last bit on tied data) and are ordered by (query, distance, index).
    """
    tiles = PairTiles(points, codes)
    slack, step = 2.0 * tiles.margin(), max(1, TILE_PAIRS // len(points))
    # literal norms an eighth of a tile of coordinates at a time
    piece = max(1, TILE_PAIRS // (8 * points.shape[1]))
    queries = np.asarray(queries, dtype=np.int64)
    for s in range(0, queries.size, step):
        block = queries[s:s + step]
        rows = np.arange(block.size)
        c = tiles.ambient(block, slice(None))
        c[rows, block] = np.inf  # not a neighbor of itself
        kth = np.partition(c, k - 1, axis=1)[:, k - 1]
        row, near = np.nonzero(c <= (kth + slack)[:, None])
        del c
        dist = np.concatenate([np.linalg.norm(
            points[near[t:t + piece]] - points[block[row[t:t + piece]]], axis=1)
            for t in range(0, near.size, piece)])
        # row r's candidates, k or more, start at row.searchsorted(r)
        first = row.searchsorted(rows)[:, None] + np.arange(k)
        take = np.lexsort((near, dist, row))[first]
        yield block, near[take], dist[take], tiles.hamming(block, slice(None))


def hamming_kth(h: np.ndarray, block: np.ndarray, k: int) -> np.ndarray:
    """Key h[r, j] Q + j of the k-th nearest point to query block[r] by
    Hamming distance, ties broken by ascending index, the query excluded,
    for each row r of a query block's Hamming tile ``h``. Point j is among
    the k nearest exactly when its own key is at most this one."""
    q = h.shape[1]
    dtype = np.int32 if (np.iinfo(h.dtype).max + 1) * q < 2**31 else np.int64
    keys = h.astype(dtype)
    keys *= q
    keys += np.arange(q, dtype=dtype)
    keys[np.arange(block.size), block] = np.iinfo(dtype).max
    keys.partition(k - 1, axis=1)
    return keys[:, k - 1]


def ranked_neighbors(dist: np.ndarray, query: int) -> np.ndarray:
    """Indices of every point but ``query``, nearest first by ``dist`` with
    ties broken by ascending index."""
    order = np.argsort(dist, kind="stable")
    return order[order != query]


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

"""Core types and pure functions: quantized hashing, the sigmoid surrogate,
pair distances, and the secant stream.

The stream lists every pair (i, j), i > j, in lexicographic order; pair
(i, j) sits at position i(i-1)/2 + j. All-pairs and query-row passes run on
one tile engine, :class:`PairTiles`. A tile, rows [lo, hi) x columns [0, hi)
of the stream (:func:`row_tiles`) or a block of queries x all points, holds
at most TILE_PAIRS = 2^18 values, so a pass needs O(tile + Q) memory. Its
ambient distances come from one GEMM, the squared Gram distances
g = |x_i|^2 + |x_j|^2 - 2 x_i.x_j, as sqrt(max(g, 0)); its Hamming
distances are integers: XOR + popcount on the code bytes, as in
:func:`hamming_pairs`.

Gram values only screen: cancellation leaves them within
``PairTiles.margin()`` = 4 r sqrt((N + 4) eps) of the literal distance (r
the largest point norm; the dot-product forward-error bound through the
sqrt, with room to spare). Each consumer recomputes literally the entries
within twice the margin of what it decides on (a maximum, a threshold, a
per-Hamming-level distance extreme, a k-th neighbor), so results are
bit-identical to a literal pass. The one all-pairs pass (the distortion
pass, which also prices column generation's violators) screens g itself
against per-Hamming-level thresholds (:meth:`PairTiles.screen`) and takes
the square root of the survivors only. :func:`map_tiles` deals tiles to
``n_threads`` threads; the GEMMs and large ufuncs release the GIL. On a
shared 2-vCPU Xeon host (N = 100, M = 16, one BLAS thread, medians of 3
to 11 calls, each on a new Dataset) a refitting ``metrics.max_distortion``
pass took 0.036-0.044 s at Q = 2000 with one thread and 0.039-0.047 s
with two, and 0.84-0.96 s at Q = 10^4 with one thread and 0.48-0.54 s
with two: what the second thread gains depends on how busy the host keeps
the other core.

The sigmoid surrogate sigma_alpha(t) = 1 / (1 + exp(-alpha t)) (:func:`sigmoid`)
uses numpy alone and saturates to exactly 0 or 1 at large |alpha t|. This
module imports nothing beyond numpy and the standard library.

Everything here is thread-safe and stateless but for a memo on each
:class:`Dataset` instance: its last :func:`metrics.max_distortion` report and
query ranking (:func:`query_neighbors`, O(|queries| k) values), each used
while a sha256 digest of the points' shape and bytes matches; two threads
can at worst compute an entry twice. Solver arithmetic is float64
throughout; binary codes are bit-packed and compared with XOR + popcount.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "DataFormatError",
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
    "sample_pair_indices",
    "random_projection_matrix",
]


# ---------------------------------------------------------------------------
# domain types


class DataFormatError(ValueError):
    """A data or model file that cannot be used as given: one a loader
    rejects, a model whose width differs from the data's, or a model whose
    codes collapse on the data (every Hamming distance 0)."""


@dataclass
class Dataset:
    """Q x N point matrix plus the preprocessing metadata it was built with.

    ``mean`` is the vector that was subtracted (zeros if none); ``normalized``
    records whether every row was scaled to unit l2 norm.
    """

    points: np.ndarray
    mean: Optional[np.ndarray] = None
    normalized: bool = False
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def _recall(self, name: str, *key):
        """(key led by a digest of the points, what _memo[name] holds for it or None)"""
        key = (hashlib.sha256(self.points.tobytes()).digest(), self.points.shape, *key)
        held = self._memo.get(name, (None, None))
        return key, held[1] if held[0] == key else None

    @property
    def q(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SecantRef:
    """One pair (i, j), i > j, with its target ambient distance c, the l2
    distance between points i and j."""

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
    to hash unseen data consistently. W and the mean are finite, and
    lambda and alpha finite and positive."""

    w: np.ndarray
    lam: float
    alpha: float
    mean: np.ndarray
    normalized: bool

    def __post_init__(self):
        self.w = np.ascontiguousarray(np.asarray(self.w, dtype=np.float64))
        if self.w.ndim != 2 or self.w.shape[0] < 1:
            raise ValueError(f"W must be an M x N matrix with M >= 1, got {self.w.shape}")
        if not (0 < self.lam < math.inf):
            raise ValueError(f"lambda must be finite and positive, got {self.lam}")
        if not (0 < self.alpha < math.inf):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        self.mean = np.asarray(self.mean, dtype=np.float64)
        if self.mean.shape != (self.w.shape[1],):
            raise ValueError(
                f"mean has shape {self.mean.shape}, expected ({self.w.shape[1]},)"
            )
        if not (np.isfinite(self.w).all() and np.isfinite(self.mean).all()):
            raise ValueError("W and mean must be finite")

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def n(self) -> int:
        return self.w.shape[1]


class BinaryCodes:
    """Q x M codes over {0,1}, stored bit-packed (uint8 words, big-endian
    bit order within each byte); ``words`` holds the same rows zero-padded to
    whole 64-bit words."""

    __slots__ = ("packed", "n_bits", "words")

    def __init__(self, packed: np.ndarray, n_bits: int):
        packed = np.ascontiguousarray(np.asarray(packed, dtype=np.uint8))
        if packed.ndim != 2 or packed.shape[1] != (n_bits + 7) // 8:
            raise ValueError(
                f"packed shape {packed.shape} inconsistent with {n_bits} bits"
            )
        self.packed = packed
        self.n_bits = int(n_bits)
        words = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), np.uint8)
        words[:, :packed.shape[1]] = packed
        self.words = words.view(np.uint64)


# ---------------------------------------------------------------------------
# hashing and the sigmoid surrogate


def sigmoid(t, alpha: float = 1.0):
    """Rate-alpha logistic function 1 / (1 + exp(-alpha t)), elementwise in
    float64, by numpy's vectorized ``exp`` in one fresh buffer (``t`` is
    not written). It saturates to exactly 0.0 where exp(-alpha t)
    overflows (alpha t < -709.78; the overflow is silenced) and to exactly
    1.0 where exp(-alpha t) is below half an ulp of 1 (alpha t > 36.8); NaN
    passes through. A scalar or 0-d ``t`` gives a float64 scalar."""
    t = np.asarray(t, dtype=np.float64)
    x = np.multiply(t, -alpha, out=np.empty_like(t))
    with np.errstate(over="ignore", under="ignore"):
        np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)
    return x if x.ndim else x[()]


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
    """Binary codes for a dataset already preprocessed with the model's stats
    (:func:`hash_matrix` rejects data whose width is not the model's)."""
    return hash_matrix(model.w, data.points)


# ---------------------------------------------------------------------------
# Hamming distances on packed codes


def hamming_pairs(codes: BinaryCodes, i_idx, j_idx) -> np.ndarray:
    """Vectorized Hamming distances for index arrays (i_idx, j_idx): the
    popcount of the XOR of packed rows, a 64-bit word at a time, which equals
    the squared l2 distance of the unpacked codes."""
    x = codes.words.take(i_idx, axis=0) ^ codes.words.take(j_idx, axis=0)
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
    sqrt(sum((x_i - x_j)^2)), gathering one tile of coordinates at a time
    with ``take`` (half the cost of fancy indexing); the tile keeps its size
    as its gathers set glibc's mmap threshold, which training speed follows."""
    points = np.asarray(points, dtype=np.float64)
    i_idx, j_idx = np.asarray(i_idx), np.asarray(j_idx)
    out = np.empty(i_idx.size)
    step = max(1, TILE_PAIRS // points.shape[1])
    for s in range(0, i_idx.size, step):
        d = points.take(i_idx[s:s + step], axis=0)
        d -= points.take(j_idx[s:s + step], axis=0)
        out[s:s + step] = np.sqrt(np.einsum("ij,ij->i", d, d))
    return out


# ---------------------------------------------------------------------------
# the tile engine

TILE_PAIRS = 1 << 18


class PairTiles:
    """Gram and Hamming tiles of one point set and its codes."""

    def __init__(self, points: np.ndarray, codes: BinaryCodes):
        self.points, self.m = points, codes.n_bits
        self.sq = np.einsum("ij,ij->i", points, points)
        self.rmax = math.sqrt(float(self.sq.max(initial=0.0)))
        self.columns = np.ascontiguousarray(codes.packed.T)  # byte b of each code

    def margin(self, lam: float = 0.0) -> float:
        """Bound on |screened - literal| for a distance, or a residual at lam."""
        eps = np.finfo(np.float64).eps
        return (4.0 * self.rmax * math.sqrt((self.points.shape[1] + 4) * eps)
                + 8.0 * eps * (lam * self.m + 2.0 * self.rmax))

    def gram(self, rows, cols) -> np.ndarray:
        """Squared Gram distances |x_i|^2 + |x_j|^2 - 2 x_i.x_j, which
        rounding can leave below 0. The -2 scales the row block: that is
        exact, so the GEMM gives -2 x_i.x_j bit for bit."""
        g = (-2.0 * self.points[rows]) @ self.points[cols].T
        g += self.sq[rows, None]
        g += self.sq[cols]
        return g

    def ambient(self, rows, cols) -> np.ndarray:
        """Gram distances sqrt(max(g, 0)) of :meth:`gram`."""
        g = self.gram(rows, cols)
        return np.sqrt(np.maximum(g, 0.0, out=g), out=g)

    def hamming(self, rows, cols) -> np.ndarray:
        """Integer Hamming distances: XOR + popcount, one code byte at a time."""
        a, b = self.columns[:, rows], self.columns[:, cols]
        h = np.zeros((a.shape[1], b.shape[1]), dtype=np.min_scalar_type(self.m))
        for x, y in zip(a, b):
            h += np.bitwise_count(x[:, None] ^ y)
        return h

    def screen(self, lo: int, hi: int, below: np.ndarray, above: np.ndarray):
        """The pairs of rows [lo, hi) x columns [0, hi) whose Gram distance c
        may be <= below[h] or >= above[h], h their Hamming distance: (flat
        position in the tile, c, h) of a superset of them, never j >= i.

        Squared Gram values g meet squared thresholds widened by 8 ulps (and
        8 subnormal steps), so only the survivors pay for c = sqrt(max(g, 0)).
        A threshold of +-inf or below 0 keeps what it keeps in distance form;
        off-stream entries are NaN, which no comparison keeps.
        """
        eps = np.finfo(np.float64).eps
        tiny = 8 * np.finfo(np.float64).smallest_subnormal
        with np.errstate(over="ignore"):
            b2 = np.where(below >= 0, below * below * (1 + 8 * eps) + tiny, -np.inf)
            a2 = np.where(above > 0, above * above * (1 - 8 * eps) - tiny, -np.inf)
        g = self.off_stream(self.gram(slice(lo, hi), slice(0, hi)), lo, np.nan).ravel()
        h = self.hamming(slice(lo, hi), slice(0, hi)).ravel()
        # a quarter tile at a time: an intp index gathers twice as fast as a
        # uint8 one, and each piece's temporaries stay small
        step, idx = max(1, TILE_PAIRS // 4), []
        for s in range(0, g.size, step):
            x, k = g[s:s + step], h[s:s + step].astype(np.intp)
            idx.append(s + np.flatnonzero((x <= b2[k]) | (x >= a2[k])))
        idx = np.concatenate(idx)
        return idx, np.sqrt(np.maximum(g[idx], 0.0)), h[idx]

    @staticmethod
    def off_stream(tile: np.ndarray, lo: int, value: float) -> np.ndarray:
        """Set the entries j >= i of a rows [lo, hi) x columns [0, hi) tile."""
        n = tile.shape[0]
        tile[:, lo:][np.arange(n)[:, None] <= np.arange(n)] = value
        return tile


def row_tiles(q: int) -> list[tuple[int, int]]:
    """Rows [1, q) cut in order into tiles [lo, hi) of equally many rows,
    so that rows x columns [0, hi) hold at most TILE_PAIRS values."""
    step = max(1, TILE_PAIRS // q)
    return [(lo, min(q, lo + step)) for lo in range(1, q, step)]


def map_tiles(fn, q: int, n_threads: int = 1) -> list:
    """[fn(row_tiles(q)[w::n_threads]) for each worker w that gets a tile];
    the caller is worker 0, so it reuses memory it has just freed."""
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    tiles = row_tiles(q)
    parts = [tiles[w::n_threads] for w in range(min(n_threads, len(tiles)))]
    with ThreadPoolExecutor(max_workers=max(1, len(parts) - 1)) as pool:
        rest = [pool.submit(fn, part) for part in parts[1:]]
        return [fn(parts[0])] + [f.result() for f in rest]


def query_neighbors(data: Dataset, codes: BinaryCodes, queries, k: int
                    ) -> Iterator[tuple[np.ndarray, ...]]:
    """Rank the queries, then yield (block, nearest, dist, h) a block (one
    tile) at a time: row r of ``nearest`` holds the k points nearest to query
    block[r], nearest first with ties broken by ascending index, ``dist``
    their literal distances, and ``h`` is the block's integer Hamming tile.
    The candidates within twice the margin of a row's k-th Gram distance
    get literal row norms (the einsum of :func:`pair_distances` differs in
    the last bit on tied data) and are ordered by (query, distance, index).
    ``data`` keeps the ranking at the largest k asked for these queries; its
    first k columns rank at k, as no candidate dropped at k can beat them.
    """
    points, queries = data.points, np.asarray(queries, dtype=np.int64)
    tiles = PairTiles(points, codes)
    slack, step = 2.0 * tiles.margin(), max(1, TILE_PAIRS // len(points))
    key, ranked = data._recall("ranking", queries.tobytes())
    if ranked is None or ranked[0].shape[1] < k:
        # literal norms an eighth of a tile of coordinates at a time
        piece, blocks = max(1, TILE_PAIRS // (8 * points.shape[1])), []
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
            blocks.append((near[take], dist[take]))
        ranked = tuple(np.concatenate(a) for a in zip(*blocks))
        data._memo["ranking"] = key, ranked
    for s in range(0, queries.size, step):
        block = queries[s:s + step]
        yield (block, *(a[s:s + step, :k].copy() for a in ranked),
               tiles.hamming(block, slice(None)))


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

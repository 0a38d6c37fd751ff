"""The tile engine against literal oracles where Gram distances cancel.

Raw points at norm ~10^3 with clusters of near-duplicates 1e-7 apart: a
Gram distance there is off by up to ~1e-4, so the results below only match
the oracles when every deciding value is recomputed literally.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from isohash import core, theory
from isohash.colgen import scan_violators
from isohash.core import Dataset, HashModel, hash_matrix, row_tiles
from isohash.dataio import gen_translating_squares
from isohash.metrics import DistortionReport
from isohash.metrics import (
    _level_candidates,
    kendall_tau_at_k,
    map_at_k,
    max_distortion,
)
from isohash.theory import knn_sufficiency_check

# small tiles, so that a few dozen points span many row and query tiles
SMALL_TILE = 64


def near_duplicates(q, n=6, seed=0):
    """Points of norm ~10^3; points 4t+2 and 4t+3 sit within ~1e-7 of 4t+1."""
    rng = np.random.default_rng(seed)
    pts = 1e3 * (np.eye(n)[0] + 0.3 * rng.standard_normal((q, n)))
    for i in range(q):
        if i % 4 in (2, 3):
            pts[i] = pts[i - i % 4 + 1] + 1e-7 * rng.standard_normal(n) / np.sqrt(n)
    return pts


def model_for(pts, m=8, seed=1):
    # hyperplanes containing the common offset e_0 split the points
    w = np.random.default_rng(seed).standard_normal((m, pts.shape[1]))
    w[:, 0] = 0.0
    return HashModel(w=w, lam=1.0, alpha=10.0, mean=np.zeros(pts.shape[1]),
                     normalized=False)


def small_tile_qs():
    # Q = 2, 3, and one row either side of a tile boundary: from Q = 17 to 21
    # a tile holds 3 rows, so at Q = 18 the last tile is one row short of the
    # boundary at row 19 and at Q = 20 a tile of one row follows it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "TILE_PAIRS", SMALL_TILE)
        assert row_tiles(18)[-1] == (16, 18)
        assert row_tiles(20)[-2:] == [(16, 19), (19, 20)]
    return [2, 3, 18, 20]


@pytest.fixture(params=[0.0, -0.5, 0.5])
def small_tiles(request, monkeypatch):
    """Small tiles, with the Gram distances to even and odd columns moved
    apart by a fraction of the margin: Gram values only screen, so an error
    within it changes nothing. (The Gram error itself stays below a third of
    the margin.) The shift is made in distance units on the squared values
    that every screen, and every Gram distance, is computed from."""
    monkeypatch.setattr(core, "TILE_PAIRS", SMALL_TILE)
    gram = core.PairTiles.gram

    def shifted(self, rows, cols):
        c = np.sqrt(np.maximum(gram(self, rows, cols), 0.0))
        odd = np.arange(len(self.points))[cols] % 2
        c += request.param * self.margin() * (2.0 * odd - 1.0)
        return np.square(np.maximum(c, 0.0, out=c), out=c)

    monkeypatch.setattr(core.PairTiles, "gram", shifted)


@pytest.mark.parametrize("q", small_tile_qs())
class TestGramCancellation:
    def make(self, q):
        pts = near_duplicates(q)
        model = model_for(pts)
        bits = oracles.unpack(hash_matrix(model.w, pts)).astype(int)
        return pts, Dataset(pts), model, bits

    def test_max_distortion_matches_literal_scan(self, q, small_tiles):
        pts, data, model, bits = self.make(q)
        # the refit scale is the fit over literal distances of every pair
        lam = oracles.literal_refit_lambda(pts, bits)
        delta, worst = oracles.literal_row_scan(pts, bits, lam)
        for n_threads in (1, 3):
            # a Dataset each: the second would read the first's report
            rep = max_distortion(model, Dataset(pts), n_threads=n_threads)
            assert rep.lambda_star == lam
            assert rep.delta == delta
            assert (rep.worst_secant.i, rep.worst_secant.j) == worst

    def test_level_extremes_match_literal(self, q, small_tiles):
        pts, data, model, bits = self.make(q)
        lo, hi = oracles.literal_level_extremes(pts, bits)
        for n_threads in (1, 3):
            got = _level_candidates(hash_matrix(model.w, pts), pts, n_threads)
            np.testing.assert_array_equal(got[0], lo)
            np.testing.assert_array_equal(got[1], hi)

    def test_violator_batch_matches_exhaustive_filter(self, q, small_tiles):
        pts, data, model, bits = self.make(q)
        codes = hash_matrix(model.w, pts)
        lam = 0.5
        pairs = [(i, j) for i in range(1, q) for j in range(i)]
        resid = {(i, j): abs(lam * int(np.abs(bits[i] - bits[j]).sum())
                             - float(np.linalg.norm(pts[i] - pts[j])))
                 for i, j in pairs}
        levels = np.unique([0.0, *resid.values()])
        # thresholds halfway between distinct residuals, the lowest ones set
        # by near-duplicate pairs 1e-7 apart, and one above them all
        mids = 0.5 * (levels[1:] + levels[:-1])
        # the same pass measures the codes' refit distortion
        distortion = max_distortion(model, data)
        for delta_hat in [*mids[[0, len(mids) // 3, -1]], 2.0 * levels[-1]]:
            for n_threads in (1, 3):
                got, rep = scan_violators(codes, data, lam, delta_hat, len(pairs),
                                          n_threads=n_threads)
                want = {p for p, r in resid.items() if r > delta_hat}
                assert set(zip(got.i.tolist(), got.j.tolist())) == want
                assert rep == distortion

    def test_neighbor_metrics_match_oracles(self, q, small_tiles):
        pts, data, model, bits = self.make(q)
        for k in (1, 2, 4):
            if k > q - 2:
                continue
            rep = map_at_k(model, data, k=k)
            np.testing.assert_array_equal(rep.per_query_ap,
                                          oracles.brute_map(pts, bits, range(q), k))
            if k >= 2:
                rep = kendall_tau_at_k(model, data, k=k)
                np.testing.assert_array_equal(
                    rep.per_query_tau, oracles.brute_tau(pts, bits, range(q), k))
            rep = knn_sufficiency_check(model, data, k=k)
            for query in range(q):
                d = np.linalg.norm(pts - pts[query], axis=1)  # literal row norm
                order = [t for t in sorted(range(q), key=lambda t: (d[t], t))
                         if t != query]
                assert rep.per_query_gap[query] == d[order[k]] - d[order[k - 1]]


    def test_query_blocks_in_any_order_match_oracles(self, q, small_tiles, monkeypatch):
        # unsorted, with repeats, over blocks of 64 // q queries: at Q = 18
        # and 20 a block holds 3 queries, so the list spans several blocks
        pts, data, model, bits = self.make(q)
        queries = [t % q for t in (q - 1, 2, 0, 2, q - 1, 1, 3, 3, q // 2)]
        for k in (1, 2):
            if k > q - 2:
                continue
            rep = map_at_k(model, data, queries, k=k)
            np.testing.assert_array_equal(rep.per_query_ap,
                                          oracles.brute_map(pts, bits, queries, k))
            if k >= 2:
                rep = kendall_tau_at_k(model, data, queries, k=k)
                np.testing.assert_array_equal(
                    rep.per_query_tau, oracles.brute_tau(pts, bits, queries, k))
            assert_knn_matches(model, data, bits, queries, k)
            # at delta = 0 every query is judged, and its preserved flag
            # compared with the oracle's
            with monkeypatch.context() as mp:
                mp.setattr(theory, "max_distortion", lambda *a, **kw: DistortionReport(
                    0.0, 1.0, None, 0))
                assert_knn_matches(model, data, bits, queries, k)


def assert_knn_matches(model, data, bits, queries, k):
    rep = knn_sufficiency_check(model, data, queries, k=k)
    gaps, satisfied, preserved = oracles.brute_knn(data.points, bits, queries, k, rep.delta)
    np.testing.assert_array_equal(rep.per_query_gap, gaps)
    np.testing.assert_array_equal(rep.satisfied_queries, np.array(satisfied, dtype=np.int64))
    np.testing.assert_array_equal(rep.preserved, np.array(preserved, dtype=bool))


@pytest.mark.parametrize("q", [512, 513])
def test_full_size_tile_boundary(q):
    # the most points one tile of the real size holds, and one more
    assert len(row_tiles(q)) == q - 511
    pts = near_duplicates(q, seed=3)
    model = model_for(pts, seed=4)
    bits = oracles.unpack(hash_matrix(model.w, pts))
    rep = max_distortion(model, Dataset(pts), n_threads=2)
    lam = oracles.literal_refit_lambda(pts, bits)
    delta, worst = oracles.literal_row_scan(pts, bits, lam)
    assert rep.lambda_star == lam
    assert (rep.delta, (rep.worst_secant.i, rep.worst_secant.j)) == (delta, worst)


@pytest.mark.parametrize("n_threads", [1, 3])
def test_rounded_tie_off_the_level_extremes(n_threads, monkeypatch):
    # the bits are the signs of x + y and x - y: level 2 across the x-axis
    # origin, level 1 between an axis point and (0, 4). lambda* = 2 is where
    # the level-2 pair (2, 0) at c = 1 meets the level-1 pair (4, 3) at c = 5,
    # with delta* = 3; the level-2 pair (1, 0) at c = 1 + 2^-52 is off the
    # extremes, but 4 - c rounds to 3.0, and it comes first in the stream.
    # One row per tile puts (1, 0) and (2, 0) in different workers.
    monkeypatch.setattr(core, "TILE_PAIRS", 4)
    pts = np.array([[-0.5, 0.0], [0.5 + 2.0**-52, 0.0], [0.5, 0.0], [-3.0, 0.0],
                    [0.0, 4.0]])
    model = HashModel(w=np.array([[1.0, 1.0], [1.0, -1.0]]), lam=1.0, alpha=1.0,
                      mean=np.zeros(2), normalized=False)
    rep = max_distortion(model, Dataset(pts), n_threads=n_threads)
    assert (rep.lambda_star, rep.delta) == (2.0, 3.0)
    assert (rep.worst_secant.i, rep.worst_secant.j) == (1, 0)
    bits = oracles.unpack(hash_matrix(model.w, pts))
    assert oracles.literal_refit_lambda(pts, bits) == 2.0
    assert oracles.literal_row_scan(pts, bits, 2.0) == (3.0, (1, 0))


@pytest.mark.parametrize("pts", [
    # raw {0,1} pixels: integer Gram values, distances sqrt(k) tied many ways
    gen_translating_squares(grid=8, square=3).points,
    # near-duplicates at norm ~10^3: Gram values at or below 0
    near_duplicates(30, seed=2),
], ids=["translating_squares", "near_duplicates"])
def test_squared_screen_keeps_the_distance_screen(pts, monkeypatch):
    # the distance form keeps c <= below[h] or c >= above[h] on the Gram
    # distances; with thresholds at exact distances of tile entries, where
    # only the widening of the squared thresholds keeps the ties, at 0, below
    # 0 and at +-inf, the squared screen keeps every entry it keeps
    monkeypatch.setattr(core, "TILE_PAIRS", 256)  # several tiles and pieces
    tiles = core.PairTiles(pts, hash_matrix(model_for(pts).w, pts))
    levels = tiles.m + 1
    rng = np.random.default_rng(7)
    for lo, hi in row_tiles(len(pts)):
        c = tiles.off_stream(tiles.ambient(slice(lo, hi), slice(0, hi)), lo, np.nan).ravel()
        h = tiles.hamming(slice(lo, hi), slice(0, hi)).ravel()
        seen = c[~np.isnan(c)]
        for _ in range(40):
            below, above = rng.choice(seen, levels), rng.choice(seen, levels)
            special = rng.integers(0, levels, 4)
            below[special[:2]] = rng.choice([np.inf, -np.inf, 0.0, -1.0], 2)
            above[special[2:]] = rng.choice([np.inf, -np.inf, 0.0, -1.0], 2)
            want = np.flatnonzero((c <= below[h]) | (c >= above[h]))
            idx, got_c, got_h = tiles.screen(lo, hi, below, above)
            assert np.isin(want, idx).all()
            assert not np.isnan(c[idx]).any()  # never an off-stream entry
            np.testing.assert_array_equal(got_c, c[idx])
            np.testing.assert_array_equal(got_h, h[idx])


def test_refit_memory_is_tile_bounded():
    # O(tile + Q): a few tile-sized arrays plus the codes, far below the
    # 36 MB that one float64 row per pair of a 3000-point stream (4.5 M
    # pairs) would take
    rng = np.random.default_rng(5)
    data = Dataset(rng.standard_normal((3000, 100)))
    model = model_for(data.points, m=16)
    tracemalloc.start()
    try:
        max_distortion(model, data)
        assert tracemalloc.get_traced_memory()[1] < 16 * 2**20
    finally:
        tracemalloc.stop()

"""The tile engine against literal oracles where Gram distances cancel.

Raw points at norm ~10^3 with clusters of near-duplicates 1e-7 apart: a
Gram distance there is off by up to ~1e-4, so the results below only match
the oracles when every deciding value is recomputed literally.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from isohash import core
from isohash.colgen import scan_violators
from isohash.core import Dataset, HashModel, hash_matrix, row_tiles
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
    the margin.)"""
    monkeypatch.setattr(core, "TILE_PAIRS", SMALL_TILE)
    ambient = core.PairTiles.ambient

    def shifted(self, rows, cols):
        c = ambient(self, rows, cols)
        odd = np.arange(len(self.points))[cols] % 2
        c += request.param * self.margin() * (2.0 * odd - 1.0)
        return np.maximum(c, 0.0, out=c)

    monkeypatch.setattr(core.PairTiles, "ambient", shifted)


@pytest.mark.parametrize("q", small_tile_qs())
class TestGramCancellation:
    def make(self, q):
        pts = near_duplicates(q)
        model = model_for(pts)
        return pts, Dataset(pts), model, hash_matrix(model.w, pts).unpack().astype(int)

    @staticmethod
    def lam_on_edge(pts, bits):
        """A scale that sets the residual c - lam d_H of pair (2, 0) to a
        whole multiple of 2 max |x| / 64. Its near-duplicates (1, 0) and
        (3, 0) lie ~1e-7 from it, well inside the screen's margin, so the
        screen keeps all three and only the literal distances decide."""
        if len(pts) < 4 or not np.any(bits[2] != bits[0]):
            return None
        h = int(np.abs(bits[2] - bits[0]).sum())
        c = float(np.linalg.norm(pts[2] - pts[0]))
        edges = np.linspace(0.0, 2.0 * np.linalg.norm(pts, axis=1).max() * (1 + 1e-12), 65)
        return (c - edges[int(c / edges[1])]) / h

    def test_max_distortion_matches_literal_scan(self, q, small_tiles):
        pts, data, model, bits = self.make(q)
        # the refit scale is the fit over literal distances of every pair
        lam = oracles.literal_refit_lambda(pts, bits)
        on_edge = self.lam_on_edge(pts, bits)
        for fixed in [None, lam, 1e-3] + ([] if on_edge is None else [on_edge]):
            for n_threads in (1, 3):
                rep = max_distortion(model, data, lam=fixed, n_threads=n_threads)
                assert rep.lambda_star == (lam if fixed is None else fixed)
                delta, worst = oracles.literal_row_scan(pts, bits, rep.lambda_star)
                assert rep.delta == delta
                assert (rep.worst_secant.i, rep.worst_secant.j) == worst

    def test_level_extremes_match_literal(self, q, small_tiles):
        pts, data, model, bits = self.make(q)
        lo, hi = oracles.literal_level_extremes(pts, bits)
        for lam, n_threads in [(None, 1), (None, 3), (0.5, 1), (0.5, 3)]:
            got = _level_candidates(hash_matrix(model.w, pts), pts, lam, n_threads)
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
        for delta_hat in [*mids[[0, len(mids) // 3, -1]], 2.0 * levels[-1]]:
            for n_threads in (1, 3):
                got, clean = scan_violators(codes, data, lam, delta_hat, len(pairs),
                                            seed=4, n_threads=n_threads)
                want = {p for p, r in resid.items() if r > delta_hat}
                assert set(zip(got.i.tolist(), got.j.tolist())) == want
                assert clean == (not want)

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


@pytest.mark.parametrize("q", [512, 513])
def test_full_size_tile_boundary(q):
    # the most points one tile of the real size holds, and one more
    assert len(row_tiles(q)) == q - 511
    pts = near_duplicates(q, seed=3)
    model = model_for(pts, seed=4)
    bits = hash_matrix(model.w, pts).unpack()
    rep = max_distortion(model, Dataset(pts), lam=0.25, n_threads=2)
    delta, worst = oracles.literal_row_scan(pts, bits, 0.25)
    assert (rep.delta, (rep.worst_secant.i, rep.worst_secant.j)) == (delta, worst)


@pytest.mark.parametrize("n_threads", [1, 3])
def test_rounded_tie_off_the_level_extremes(n_threads, monkeypatch):
    # at lam = 4 the level-1 pairs (1, 0) and (2, 0) both have residual 3.0
    # after rounding; (2, 0) holds the level's smallest distance, but (1, 0)
    # comes first in the stream. One row per tile puts them in different
    # workers.
    monkeypatch.setattr(core, "TILE_PAIRS", 4)
    pts = np.array([[0.0, 0.0], [1.0 + 2.0**-52, 0.0], [1.0, 0.0],
                    [1.0 + 2.0**-50, 0.0]])
    model = HashModel(w=np.array([[-1.0, 0.0]]), lam=1.0, alpha=1.0,
                      mean=np.zeros(2), normalized=False)
    rep = max_distortion(model, Dataset(pts), lam=4.0, n_threads=n_threads)
    assert (rep.delta, (rep.worst_secant.i, rep.worst_secant.j)) == (3.0, (1, 0))
    bits = hash_matrix(model.w, pts).unpack()
    assert oracles.literal_row_scan(pts, bits, 4.0) == (3.0, (1, 0))


def traced_peak(**kw):
    """tracemalloc peak of max_distortion on a 3000-point stream (4.5 M pairs)."""
    rng = np.random.default_rng(5)
    data = Dataset(rng.standard_normal((3000, 100)))
    model = model_for(data.points, m=16)
    tracemalloc.start()
    try:
        max_distortion(model, data, **kw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fixed_lambda_scan_memory_is_tile_bounded():
    # O(tile + Q): a few tile-sized arrays plus the codes, far below the
    # 36 MB that one float64 row per pair of a 3000-point stream would take
    assert traced_peak(lam=0.3) < 16 * 2**20


def test_refit_memory_is_tile_bounded():
    # the refit's per-level extremes pass has the scan's footprint
    assert traced_peak() < 16 * 2**20

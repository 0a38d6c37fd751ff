import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from isohash import core
from isohash.admm import _IncidencePairs
from isohash.core import (
    Dataset,
    SecantBatch,
    SecantRef,
    decode_pair_indices,
    hamming_pairs,
    query_neighbors,
    hash_matrix,
    map_tiles,
    pair_distances,
    pair_linear_index,
    PairTiles,
    random_projection_matrix,
    row_tiles,
    sample_pair_indices,
    secant_count,
    sigmoid,
)

from oracles import (from_bits, gathered_pair_distances, hamming_dense,
                     sample_pair_indices_unique, unpack)


def lexicographic_pairs(q):
    return [(i, j) for i in range(1, q) for j in range(i)]


def violator_screen(tiles, lo, hi, lam, s):
    """(i, j, c, h) of the pairs of rows [lo, hi) that the screen keeps for
    residuals |lam d_H - c| above s, as the violator scan sets it."""
    at = lam * np.arange(tiles.m + 1)
    idx, c, h = tiles.screen(lo, hi, at - s, at + s)
    i, j = np.divmod(idx, hi)
    return i + lo, j, c, h


def relaxed_pair_dists(w, points, i_idx, j_idx, alpha):
    # training's relaxed distances for a secant set below half of the pair
    # stream: the incidence layout, whose values equal the per-pair gather
    sec = SecantBatch(i_idx, j_idx, np.zeros(len(i_idx)))
    s = sigmoid(points @ w.T, alpha)
    return _IncidencePairs(sec, len(points)).dists(s)[0]


def relaxed_one(w, x_i, x_j, alpha):
    return relaxed_pair_dists(w, np.array([x_j, x_i]), [1], [0], alpha)[0]


def hamming_one(codes, i, j):
    return int(hamming_pairs(codes, [i], [j])[0])


def scalar_hash_bit(w_row, x):
    # independent per-entry re-evaluation of the quantizer
    t = sum(wi * xi for wi, xi in zip(w_row, x))
    return 1 if t >= 0 else 0


class TestHashCodes:
    def test_sign_of_each_coordinate(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        codes = hash_matrix(w, np.array([[3.0, -2.0]]))
        assert unpack(codes).tolist() == [[1, 0]]

    def test_sgn_zero_is_plus_one(self):
        w = np.array([[1.0, 0.0]])
        codes = hash_matrix(w, np.array([[0.0, 5.0]]))
        assert unpack(codes).tolist() == [[1]]

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((3, 4))
        x = rng.standard_normal((10, 4))
        got = unpack(hash_matrix(w, x))
        for q in range(10):
            for m in range(3):
                assert got[q, m] == scalar_hash_bit(w[m], x[q])

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(1, 2\)"):
            hash_matrix(np.zeros((1, 2)), np.zeros((2, 3)))


class TestSigmoid:
    def test_zero_maps_to_half(self):
        for alpha in (0.5, 1.0, 10.0, 123.0):
            out = sigmoid(np.array([[1.0, -1.0]]) @ np.array([1.0, 1.0]), alpha)
            assert out[0] == pytest.approx(0.5, abs=0.0)

    def test_large_alpha_saturates(self):
        # (1 + e^-10)^-1 differs from 1 by about 4.54e-5
        out = sigmoid(np.array([[1.0]]) @ np.array([1.0]), 10.0)
        assert abs(out[0] - 1.0) < 1e-4
        assert out[0] == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal(100) * 3
        for alpha in (0.5, 2.0, 10.0):
            s = sigmoid(t, alpha) + sigmoid(-t, alpha)
            np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_entries_in_unit_interval(self):
        # open interval in exact arithmetic; float64 saturates at the ends
        rng = np.random.default_rng(4)
        w = rng.standard_normal((5, 3))
        x = rng.standard_normal(3)
        out = sigmoid(w @ x, 10.0)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        mild = sigmoid(w @ x, 0.5)
        assert np.all(mild > 0.0) and np.all(mild < 1.0)


class TestSigmoidEdges:
    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("alpha", [1.0, 4.0])
    def test_saturates_exactly_without_warning(self, alpha):
        at = np.array([745.0, -745.0, 1e4, -1e4])
        assert sigmoid(at / alpha, alpha).tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_nan_passes_through_and_0d_input(self):
        out = sigmoid(np.array([np.nan, 0.0, -np.nan]), 3.0)
        assert np.isnan(out[0]) and out[1] == 0.5 and np.isnan(out[2])
        for t in (np.array(1.5), 1.5):
            got = sigmoid(t, 2.0)
            assert np.ndim(got) == 0
            assert abs(got - 1.0 / (1.0 + math.exp(-3.0))) <= 4 * np.spacing(got)
        assert np.isnan(sigmoid(np.array(np.nan)))

    def test_input_not_mutated(self):
        t = np.random.default_rng(7).standard_normal((6, 4))
        kept = t.copy()
        out = sigmoid(t, 2.5)
        assert np.array_equal(t, kept)
        assert not np.shares_memory(out, t)

    @pytest.mark.parametrize("alpha", [1.0, 3.0])
    def test_within_4_ulp_of_scalar_formula(self, alpha):
        # math.exp overflows past 709.78, so the grid stops at |alpha t| = 700
        at = np.concatenate([np.linspace(-700.0, 700.0, 14_001),
                             np.linspace(-40.0, 40.0, 16_001)])
        t = at / alpha
        got = sigmoid(t, alpha)
        want = np.array([1.0 / (1.0 + math.exp(-(alpha * x))) for x in t])
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


class TestRelaxedPairDist:
    def test_identical_inputs(self):
        w = np.array([[1.0, 2.0], [0.5, -1.0]])
        x = np.array([0.3, 0.4])
        assert relaxed_one(w, x, x, 5.0) == 0.0

    def test_scalar_value(self):
        # M=1, W=[1,0], alpha=10: (sigma10(1) - sigma10(-1))^2
        s_pos = 1.0 / (1.0 + math.exp(-10.0))
        s_neg = 1.0 / (1.0 + math.exp(10.0))
        expected = (s_pos - s_neg) ** 2
        assert expected == pytest.approx(0.9998184167690564, abs=1e-15)
        got = relaxed_one(
            np.array([[1.0, 0.0]]), np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 10.0
        )
        assert got == pytest.approx(expected, abs=1e-14)

    def test_matches_coordinate_loop(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((6, 4))
        xi = rng.standard_normal(4)
        xj = rng.standard_normal(4)
        alpha = 3.0
        acc = 0.0
        for m in range(6):
            si = 1.0 / (1.0 + math.exp(-alpha * float(w[m] @ xi)))
            sj = 1.0 / (1.0 + math.exp(-alpha * float(w[m] @ xj)))
            acc += (si - sj) ** 2
        assert relaxed_one(w, xi, xj, alpha) == pytest.approx(acc, rel=1e-12)
        assert 0.0 <= relaxed_one(w, xi, xj, alpha) <= 6.0

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((4, 5))
        pts = rng.standard_normal((8, 5))
        i_idx = np.array([3, 7, 5])
        j_idx = np.array([0, 2, 1])
        batched = relaxed_pair_dists(w, pts, i_idx, j_idx, 2.5)
        for t in range(3):
            acc = 0.0
            for m in range(4):
                si = 1.0 / (1.0 + math.exp(-2.5 * float(w[m] @ pts[i_idx[t]])))
                sj = 1.0 / (1.0 + math.exp(-2.5 * float(w[m] @ pts[j_idx[t]])))
                acc += (si - sj) ** 2
            assert batched[t] == pytest.approx(acc, rel=1e-12)


class TestHamming:
    def test_identical_rows(self):
        codes = from_bits(np.array([[1, 0, 1], [1, 0, 1]]))
        assert hamming_one(codes, 0, 1) == 0

    def test_complementary_rows(self):
        codes = from_bits(
            np.array([[0, 1, 0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0, 1, 0]])
        )
        assert hamming_one(codes, 0, 1) == 8

    def test_equals_unpacked_squared_l2(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(12, 21))
        codes = from_bits(bits)
        for i in range(12):
            for j in range(12):
                diff = bits[i].astype(float) - bits[j].astype(float)
                assert hamming_one(codes, i, j) == int(diff @ diff)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, size=(9, 33))
        codes = from_bits(bits)
        for _ in range(50):
            a, b, c = rng.integers(0, 9, size=3)
            dab = hamming_one(codes, a, b)
            assert dab == hamming_one(codes, b, a)
            assert dab <= hamming_one(codes, a, c) + hamming_one(codes, c, b)
            assert 0 <= dab <= 33

    def test_index_out_of_range(self):
        codes = from_bits(np.array([[1, 0], [0, 1]]))
        with pytest.raises(IndexError):
            hamming_one(codes, 0, 2)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, size=(10, 17))
        codes = from_bits(bits)
        i_idx = np.array([4, 9, 7, 1])
        j_idx = np.array([0, 3, 7, 0])
        got = hamming_pairs(codes, i_idx, j_idx)
        want = [int((bits[a] != bits[b]).sum()) for a, b in zip(i_idx, j_idx)]
        assert got.tolist() == want


class TestPackRoundTrip:
    def test_identity(self):
        rng = np.random.default_rng(9)
        for m in (1, 7, 8, 9, 30, 64, 70):
            bits = rng.integers(0, 2, size=(5, m)).astype(np.uint8)
            codes = from_bits(bits)
            np.testing.assert_array_equal(unpack(codes), bits)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            from_bits(np.array([[0, 2]]))


class TestSecantStream:
    def test_q3_explicit(self):
        i, j = decode_pair_indices(np.arange(3))
        assert list(zip(i.tolist(), j.tolist())) == [(1, 0), (2, 0), (2, 1)]
        assert secant_count(3) == 3

    def test_q100_count(self):
        assert secant_count(100) == 4950
        assert len(lexicographic_pairs(100)) == 4950

    def test_large_count_without_materialization(self):
        assert secant_count(240_000) == 28_799_880_000

    def test_each_unordered_pair_once(self):
        for q in (2, 3, 5, 8):
            i, j = decode_pair_indices(np.arange(secant_count(q)))
            pairs = list(zip(i.tolist(), j.tolist()))
            assert pairs == lexicographic_pairs(q)
            assert len(set(frozenset(p) for p in pairs)) == len(pairs)
            assert all(i > j for i, j in pairs)

    def test_linear_index_round_trip(self):
        q = 50
        pairs = np.array(lexicographic_pairs(q))
        t = pair_linear_index(pairs[:, 0], pairs[:, 1])
        np.testing.assert_array_equal(t, np.arange(secant_count(q)))
        i, j = decode_pair_indices(t)
        np.testing.assert_array_equal(i, pairs[:, 0])
        np.testing.assert_array_equal(j, pairs[:, 1])

    def test_decode_at_large_offsets(self):
        # spot-check exactness near the top of the 240k-point stream
        total = secant_count(240_000)
        t = np.array([0, 1, total - 1, total // 2, total // 3], dtype=np.int64)
        i, j = decode_pair_indices(t)
        np.testing.assert_array_equal(pair_linear_index(i, j), t)
        assert np.all(i > j) and np.all(j >= 0)


class TestPairDistances:
    def test_matches_norm(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((20, 6))
        i_idx = np.array([5, 19, 3])
        j_idx = np.array([0, 4, 2])
        got = pair_distances(pts, i_idx, j_idx)
        for t in range(3):
            want = np.linalg.norm(pts[i_idx[t]] - pts[j_idx[t]])
            assert got[t] == pytest.approx(want, rel=1e-12)


class TestPairGathers:
    """The pair kernels gather rows with ``take``; every value must equal
    the fancy-indexed gather bit for bit, whatever form the indices take."""

    def setup_method(self):
        rng = np.random.default_rng(62)
        self.pts = rng.standard_normal((31, 7)) * rng.uniform(0.01, 100.0, (31, 1))
        self.codes = from_bits(rng.integers(0, 2, size=(31, 130)))
        self.i = rng.integers(0, 31, size=40)  # unsorted, with repeats
        self.j = rng.integers(0, 31, size=40)

    def forms(self):
        i, j = self.i, self.j
        return {
            "int64": (i, j),
            "repeated": (np.full(9, i[0]), np.full(9, j[0])),
            "int32": (i.astype(np.int32), j.astype(np.int32)),
            "list": (i.tolist(), j.tolist()),
            "i_equals_j": (i, i),
            "negative": (i - 31, j),
        }

    @pytest.mark.parametrize("form", ["int64", "repeated", "int32", "list",
                                      "i_equals_j", "negative"])
    def test_kernels_equal_fancy_gather(self, form):
        i, j = self.forms()[form]
        c = pair_distances(self.pts, i, j)
        assert c.dtype == np.float64 and c.shape == (len(i),)
        np.testing.assert_array_equal(c, gathered_pair_distances(self.pts, i, j))
        words = self.codes.words
        h = hamming_pairs(self.codes, i, j)
        assert h.dtype == np.int64
        np.testing.assert_array_equal(h, np.bitwise_count(words[i] ^ words[j]).sum(1))

    @pytest.mark.parametrize("tile", [1, 7, 50, 7 * 40, 1 << 18])
    def test_chunk_boundaries(self, monkeypatch, tile):
        # 50 // 7 = 7 pairs a gather: chunks of 7, ..., 7, 5 over 40 pairs;
        # a tile below N still gathers one pair at a time
        monkeypatch.setattr(core, "TILE_PAIRS", tile)
        np.testing.assert_array_equal(pair_distances(self.pts, self.i, self.j),
                                      gathered_pair_distances(self.pts, self.i, self.j))

    @pytest.mark.parametrize("bad", [31, -32])
    def test_out_of_range_raises(self, monkeypatch, bad):
        monkeypatch.setattr(core, "TILE_PAIRS", 50)
        i, j = self.i.copy(), self.j.copy()
        i[-1] = bad  # in the last of six gathers
        with pytest.raises(IndexError):
            pair_distances(self.pts, i, j)
        with pytest.raises(IndexError):
            pair_distances(self.pts, j, i)
        with pytest.raises(IndexError):
            hamming_pairs(self.codes, i, j)
        with pytest.raises(IndexError):
            hamming_pairs(self.codes, j, i)

    @pytest.mark.parametrize("empty", [np.empty(0, np.int64), []])
    def test_empty(self, empty):
        c = pair_distances(self.pts, empty, empty)
        h = hamming_pairs(self.codes, empty, empty)
        assert c.shape == h.shape == (0,)
        assert c.dtype == np.float64 and h.dtype == np.int64


class TestRowWalk:
    """The tile engine walks the pair stream a tile of rows at a time."""

    def setup_method(self):
        rng = np.random.default_rng(14)
        self.pts = rng.standard_normal((23, 7))
        self.codes = hash_matrix(rng.standard_normal((11, 7)), self.pts)
        self.tiles = PairTiles(self.pts, self.codes)

    def test_rows_equal_gathered_pairs_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(core, "TILE_PAIRS", 60)
        i_idx, j_idx = decode_pair_indices(np.arange(secant_count(23)))
        h_rows, c_rows = [], []
        for lo, hi in row_tiles(23):
            h = self.tiles.hamming(slice(lo, hi), slice(0, hi))
            c = self.tiles.ambient(slice(lo, hi), slice(0, hi))
            h_rows += [h[a, :lo + a] for a in range(hi - lo)]
            c_rows += [c[a, :lo + a] for a in range(hi - lo)]
        # GEMM Hamming is exact; Gram distances stay within the margin
        np.testing.assert_array_equal(np.concatenate(h_rows),
                                      hamming_pairs(self.codes, i_idx, j_idx))
        gap = np.abs(np.concatenate(c_rows) - pair_distances(self.pts, i_idx, j_idx))
        assert gap.max() <= self.tiles.margin()
        batch = SecantBatch.all_pairs(self.pts)
        np.testing.assert_array_equal(batch.i, i_idx)
        np.testing.assert_array_equal(batch.j, j_idx)
        np.testing.assert_array_equal(
            batch.c, SecantBatch.from_pairs(self.pts, i_idx, j_idx).c)

    def test_pair_subset_and_row_range(self, monkeypatch):
        t = np.array([0, 4, 5, 30, 31, 33, 200, 252])
        i_idx, j_idx = decode_pair_indices(t)
        one_by_one = [pair_distances(self.pts, [i], [j])[0] for i, j in zip(i_idx, j_idx)]
        monkeypatch.setattr(core, "TILE_PAIRS", 3 * 7)  # three pairs per gather
        np.testing.assert_array_equal(pair_distances(self.pts, i_idx, j_idx), one_by_one)
        # rows [5, 9) x columns [0, 9) screened for residuals |0.3 d_H - c|
        # above s: no off-stream entry survives, and every pair whose literal
        # residual exceeds s + margin does, with its Gram distance within the
        # margin of the literal one and its exact Hamming distance
        t = np.arange(secant_count(5), secant_count(9))
        i, j = decode_pair_indices(t)
        exact = np.abs(0.3 * hamming_pairs(self.codes, i, j)
                       - pair_distances(self.pts, i, j))
        for s in [-1.0, *np.quantile(exact, [0.0, 0.5, 0.9])]:
            i, j, c, h = violator_screen(self.tiles, 5, 9, 0.3, s)
            assert np.all(j < i)
            assert np.isin(t[exact > s + self.tiles.margin(0.3)],
                           pair_linear_index(i, j)).all()
            assert np.abs(c - pair_distances(self.pts, i, j)).max() <= self.tiles.margin()
            np.testing.assert_array_equal(h, hamming_pairs(self.codes, i, j))

    @pytest.mark.parametrize("q", [2, 3, 23, 400])
    def test_blocks_cover_rows_in_order(self, q, monkeypatch):
        monkeypatch.setattr(core, "TILE_PAIRS", 500)
        tiles = row_tiles(q)
        assert tiles[0][0] == 1 and tiles[-1][1] == q
        assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
        assert all(hi == lo + 1 or (hi - lo) * hi <= 500 for lo, hi in tiles)
        for n_threads in (1, 2, 3, 5):
            parts = map_tiles(lambda part: part, q, n_threads)
            assert parts == [tiles[w::n_threads]
                             for w in range(min(n_threads, len(tiles)))]

    def test_threads_below_one_rejected(self):
        for n_threads in (0, -1):
            with pytest.raises(ValueError, match="n_threads must be >= 1"):
                map_tiles(lambda part: part, 10, n_threads)

    def test_one_worker_per_tile(self):
        # three points make one tile: no thread starts for the other seven
        calls = []
        assert map_tiles(lambda part: calls.append(part) or len(part), 3, 8) == [1]
        assert calls == [row_tiles(3)] == [[(1, 3)]]


@pytest.mark.parametrize("m", [1, 7, 8, 9, 64, 65, 130, 300])
def test_popcount_tiles_match_dense_hamming(m, monkeypatch):
    # one to 38 code bytes, with zero padding bits unless 8 divides M; at
    # M = 300 distances pass 255
    rng = np.random.default_rng(m)
    bits = rng.integers(0, 2, (23, m))
    bits[3], bits[4] = 1, 0  # at distance M
    pts = rng.standard_normal((23, 4))
    codes = from_bits(bits)
    tiles = PairTiles(pts, codes)
    dense = hamming_dense(bits)
    monkeypatch.setattr(core, "TILE_PAIRS", 60)
    for lo, hi in row_tiles(23):
        h = tiles.hamming(slice(lo, hi), slice(0, hi))
        assert np.issubdtype(h.dtype, np.integer)
        np.testing.assert_array_equal(h, dense[lo:hi, :hi])
        # at an integer scale the screen keeps every pair whose literal
        # residual exceeds s + margin
        t = np.arange(pair_linear_index(lo, 0), pair_linear_index(hi, 0))
        i, j = decode_pair_indices(t)
        exact = np.abs(2 * hamming_pairs(codes, i, j) - pair_distances(pts, i, j))
        s = float(np.median(exact))
        i, j, _, h = violator_screen(tiles, lo, hi, 2, s)
        assert np.isin(t[exact > s + tiles.margin(2.0)], pair_linear_index(i, j)).all()
        np.testing.assert_array_equal(h, dense[i, j])
    queries = np.array([22, 4, 0, 4, 3, 17, 9])  # unsorted, repeated: 2 per block
    blocks = list(query_neighbors(Dataset(pts), codes, queries, 2))
    assert len(blocks) == 4
    for block, _, _, h in blocks:
        assert np.issubdtype(h.dtype, np.integer)
        np.testing.assert_array_equal(h, dense[block])


class TestDatasetMemo:
    def setup_method(self):
        rng = np.random.default_rng(43)
        self.pts = rng.standard_normal((30, 4))
        self.codes = hash_matrix(rng.standard_normal((5, 4)), self.pts)

    def ranking(self, data, queries=(3, 0, 29), k=4):
        _, nearest, dist, _ = next(query_neighbors(data, self.codes, queries, k))
        return nearest, dist

    def test_scoped_to_the_instance(self):
        data = Dataset(self.pts)
        self.ranking(data)
        assert set(data._memo) == {"ranking"} and "_memo" not in repr(data)
        assert replace(data)._memo == {} and Dataset(data.points)._memo == {}

    @pytest.mark.parametrize("edit", ["in_place", "reassigned"])
    def test_edited_points_rank_afresh(self, edit):
        data = Dataset(self.pts.copy())
        before = self.ranking(data)
        moved = self.pts.copy()
        moved[0] = moved[3] + 1e-3  # query 3's nearest point now
        if edit == "in_place":
            data.points[0] = moved[0]
        else:
            data.points = moved.copy()
        got, want = self.ranking(data), self.ranking(Dataset(moved))
        assert want[0][0, 0] == 0 != before[0][0, 0]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_other_queries_rank_afresh(self):
        data = Dataset(self.pts)
        self.ranking(data)
        for a, b in zip(self.ranking(data, (7, 8)), self.ranking(Dataset(self.pts), (7, 8))):
            np.testing.assert_array_equal(a, b)

    def test_yielded_ranking_is_a_copy(self):
        data = Dataset(self.pts)
        nearest, dist = self.ranking(data)
        nearest[:], dist[:] = 0, -1.0
        for a, b in zip(self.ranking(data), self.ranking(Dataset(self.pts))):
            np.testing.assert_array_equal(a, b)


class TestSamplePairs:
    def test_whole_population(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(sample_pair_indices(6, 6, rng), np.arange(6))
        np.testing.assert_array_equal(sample_pair_indices(6, 99, rng), np.arange(6))

    def test_distinct_and_in_range(self):
        rng = np.random.default_rng(1)
        out = sample_pair_indices(10_000_000, 500, rng)
        assert out.size == 500
        assert np.unique(out).size == 500
        assert out.min() >= 0 and out.max() < 10_000_000

    def test_deterministic_under_seed(self):
        a = sample_pair_indices(1000, 50, np.random.default_rng(42))
        b = sample_pair_indices(1000, 50, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("total,k", [(1000, 50), (1000, 499), (1000, 500),
                                         (1001, 999), (45, 44), (10**7, 20_000)])
    def test_matches_unique_reference(self, total, k):
        for seed in range(3):
            got = sample_pair_indices(total, k, np.random.default_rng(seed))
            want = sample_pair_indices_unique(total, k, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want)


class TestQuantizerVsSigmoid:
    def test_gap_bounded_and_monotone_in_alpha(self):
        rng = np.random.default_rng(13)
        t = rng.standard_normal(200) * 2
        t = t[np.abs(t) > 1e-6]
        h = (t >= 0).astype(float)
        prev = None
        for alpha in (1.0, 2.0, 4.0, 8.0, 16.0):
            gap = np.abs(h - sigmoid(t, alpha))
            assert np.all(gap <= 1.0)
            if prev is not None:
                assert np.all(gap <= prev + 1e-15)
            prev = gap


class TestTypes:
    def test_secant_ref_validation(self):
        SecantRef(2, 1, 0.5)
        with pytest.raises(ValueError):
            SecantRef(1, 1, 0.5)
        with pytest.raises(ValueError):
            SecantRef(2, 1, -0.1)

    def test_secant_batch_validation(self):
        b = SecantBatch([2, 3], [0, 1], [1.0, 2.0])
        assert len(b) == 2
        with pytest.raises(ValueError):
            SecantBatch([1], [1], [0.0])

    def test_secant_batch_from_pairs(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((6, 3))
        b = SecantBatch.from_pairs(pts, [4, 5], [1, 0])
        assert b.c[0] == pytest.approx(np.linalg.norm(pts[4] - pts[1]))

    def test_dataset_validation(self):
        Dataset(np.zeros((2, 1)))
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="norm"):
            Dataset(np.ones((2, 2)), normalized=True)
        ok = np.ones((2, 2)) / np.sqrt(2)
        Dataset(ok, normalized=True)

    def test_normalized_dataset_rejects_nan_row(self):
        pts = np.array([[1.0, 0.0], [np.nan, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="row 1 has norm nan"):
            Dataset(pts, normalized=True)

    def test_projection_matrix_seeded(self):
        a = random_projection_matrix(4, 7, 5)
        b = random_projection_matrix(4, 7, 5)
        c = random_projection_matrix(4, 7, 6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

import numpy as np
import pytest

import oracles
from isohash import core, metrics
from isohash.core import (DataFormatError, Dataset, HashModel, hash_matrix, map_tiles,
                          query_neighbors, random_projection_matrix)
from isohash.dataio import gen_translating_squares
from isohash.metrics import (
    fit_lambda_chebyshev,
    kendall_tau_at_k,
    map_at_k,
    max_distortion,
)
from isohash.theory import knn_sufficiency_check


def make_model(w, lam=1.0, alpha=10.0):
    w = np.atleast_2d(np.asarray(w, dtype=float))
    return HashModel(w=w, lam=lam, alpha=alpha, mean=np.zeros(w.shape[1]), normalized=False)


class TestFitLambda:
    def test_exact_isometry(self):
        v = np.array([1.0, 2.0, 0.5])
        lam, delta = fit_lambda_chebyshev(v, v)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert delta == pytest.approx(0.0, abs=1e-12)

    def test_balanced_two_lines(self):
        # min over lambda of max(lambda, |lambda - 2|) balances at lambda = 1
        lam, delta = fit_lambda_chebyshev([1.0, 1.0], [0.0, 2.0])
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert delta == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        v = np.abs(rng.standard_normal(n)) * rng.integers(1, 30)
        v[rng.random(n) < 0.1] = 0.0
        c = np.abs(rng.standard_normal(n)) * 3.0
        if not np.any(v > 0) or not np.any(c > 0):
            pytest.skip("degenerate draw")
        lam, delta = fit_lambda_chebyshev(v, c)
        _, delta_grid = oracles.grid_min_chebyshev(v, c)
        assert delta <= delta_grid + 1e-12
        assert abs(delta - delta_grid) < 1e-6

    def test_hamming_like_integers(self):
        rng = np.random.default_rng(99)
        v = rng.integers(0, 33, size=200).astype(float)
        c = np.abs(rng.standard_normal(200)) * 2
        lam, delta = fit_lambda_chebyshev(v, c)
        _, delta_grid = oracles.grid_min_chebyshev(v, c)
        assert abs(delta - delta_grid) < 1e-6

    def test_no_minimizer_gives_none(self):
        # every v zero: delta is max c at any lambda; every c zero: delta 0
        assert fit_lambda_chebyshev([0, 0], [1, 2]) == (None, 2.0)
        assert fit_lambda_chebyshev([1, 2], [0, 0]) == (None, 0.0)

    @pytest.mark.parametrize("v, c", [
        ([1.0, np.nan], [1.0, 2.0]),
        ([1.0, np.inf], [1.0, 2.0]),
        ([1.0, 2.0], [np.nan, 2.0]),
        ([1.0, 2.0], [1.0, -np.inf]),
    ])
    def test_non_finite_raises(self, v, c):
        with pytest.raises(ValueError, match="v and c must be finite"):
            fit_lambda_chebyshev(v, c)

    @staticmethod
    def _vertex_inputs():
        yield np.array([0.0, 3.0]), np.array([0.0, 3.0])
        yield np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 5.0])  # flat minimum
        yield np.array([10.0, 10, 2, 13, 14]), np.array([1.7, 2.4, 3.1, 3.2, 3.3])
        rng = np.random.default_rng(24)
        for t in range(2000):
            n = int(rng.integers(1, 13))
            if t % 3 == 2:  # continuous
                v = rng.uniform(0.0, 5.0, n) * (rng.random(n) > 0.2)
                c = rng.uniform(0.0, 5.0, n)
            else:  # Hamming-like levels with integer or 0.1-step targets
                v = rng.integers(0, 9, n).astype(float)
                c = rng.integers(0, 30, n) * (1.0 if t % 3 == 0 else 0.1)
            if np.any(v > 0) and np.any(c > 0):
                yield v, c

    def test_vertex_matches_brute_force_oracle(self):
        eps = np.finfo(np.float64).eps
        for v, c in self._vertex_inputs():
            lam, delta = fit_lambda_chebyshev(v, c)
            rising = v > 0
            ratios = (c[rising, None] + c) / (v[rising, None] + v)
            assert np.any(ratios == lam), (v, c, lam)
            assert delta == np.max(np.abs(lam * v - c))
            _, delta_oracle = oracles.chebyshev_vertex(v, c)
            assert delta <= delta_oracle + 4 * eps * max(1.0, delta), (v, c)

    def test_scaling_property(self):
        # scaling the targets scales both lambda* and delta
        rng = np.random.default_rng(5)
        v = rng.integers(1, 20, size=40).astype(float)
        c = np.abs(rng.standard_normal(40)) * 4
        lam, delta = fit_lambda_chebyshev(v, c)
        lam_s, delta_s = fit_lambda_chebyshev(v, 7.5 * c)
        assert lam_s == pytest.approx(7.5 * lam, rel=1e-9)
        assert delta_s == pytest.approx(7.5 * delta, rel=1e-9)


class TestMaxDistortion:
    def test_two_identical_points(self):
        data = Dataset(np.array([[1.0, 2.0], [1.0, 2.0]]))
        model = make_model(random_projection_matrix(4, 2, 0))
        rep = max_distortion(model, data)
        assert rep.delta == 0.0
        assert rep.lambda_star == 1.0  # vacuously isometric at any scale
        assert rep.pair_count == 1

    def test_constant_codes_raise(self):
        # every code equal: no positive Hamming distance to scale
        pts = np.random.default_rng(26).standard_normal((12, 3))
        data = Dataset(pts)
        c_max = max(np.linalg.norm(pts[i] - pts[j]) for i in range(12) for j in range(i))
        with pytest.raises(ValueError, match=f"collapsed; delta = max c = {c_max:g}$"):
            max_distortion(make_model(np.zeros((4, 3))), data)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(21)
        pts = rng.standard_normal((30, 8))
        w = random_projection_matrix(6, 8, 3)
        model = make_model(w)
        data = Dataset(pts)
        rep = max_distortion(model, data)
        bits = oracles.unpack(hash_matrix(w, pts))
        _, delta_grid = oracles.brute_max_distortion(pts, bits)
        assert abs(rep.delta - delta_grid) < 1e-6
        assert rep.pair_count == 30 * 29 // 2
        # worst secant actually attains delta
        worst = rep.worst_secant
        dh = int(np.abs(bits[worst.i] - bits[worst.j]).sum())
        assert abs(rep.lambda_star * dh - worst.c) == pytest.approx(rep.delta, rel=1e-12)

    def test_threaded_scan_matches_serial(self):
        rng = np.random.default_rng(24)
        pts = rng.standard_normal((60, 6))
        model = make_model(random_projection_matrix(8, 6, 4))
        # a Dataset each: the second would read the first's report
        a = max_distortion(model, Dataset(pts))
        b = max_distortion(model, Dataset(pts), n_threads=3)
        assert a.delta == b.delta
        assert a.worst_secant == b.worst_secant
        assert a.lambda_star == b.lambda_star

    def test_one_tile_pass(self, monkeypatch):
        passes = []

        def counted(fn, q, n_threads=1):
            passes.append(q)
            return map_tiles(fn, q, n_threads)

        monkeypatch.setattr(metrics, "map_tiles", counted)
        data = Dataset(np.random.default_rng(27).standard_normal((40, 5)))
        max_distortion(make_model(random_projection_matrix(6, 5, 7)), data,
                       n_threads=2)
        assert passes == [40]

    def test_test_data_pathway(self):
        # a model trained elsewhere evaluates on any dataset of matching width
        rng = np.random.default_rng(25)
        model = make_model(random_projection_matrix(5, 7, 6))
        test = Dataset(rng.standard_normal((12, 7)))
        rep = max_distortion(model, test)
        assert rep.delta >= 0.0 and rep.pair_count == 66


class TestMapAtK:
    def test_perfect_isometry_gives_map_one(self):
        # one-hot +/-1 rows: every pair at Hamming 2 and ambient 2*sqrt(2)...
        # use a monotone 1-bit-per-coordinate construction instead
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        w = np.array([[0.0, -1.0], [3.0, -2.0], [1.0, -5.0], [0.0, -0.5]])
        model = make_model(w)
        data = Dataset(pts)
        rep = map_at_k(model, data, queries=[0], k=3)
        # ambient kNN of the origin are rows 1,2,3; check they coincide in Hamming
        assert rep.map <= 1.0
        bits = oracles.unpack(hash_matrix(w, pts))
        expect = oracles.brute_map(pts, bits, [0], 3)[0]
        assert rep.map == pytest.approx(expect)

    def test_constant_codes_tie_rule(self):
        # W = 0 makes every code all-ones; Hamming kNN are the lowest indices
        rng = np.random.default_rng(31)
        pts = rng.standard_normal((20, 6))
        data = Dataset(pts)
        model = make_model(np.zeros((4, 6)))
        k = 5
        rep = map_at_k(model, data, k=k)
        for qi in range(20):
            lowest = [t for t in range(21) if t != qi][:k]
            d = np.linalg.norm(pts - pts[qi], axis=1)
            order = sorted(range(20), key=lambda t: (d[t], t))
            ambient = [t for t in order if t != qi][:k]
            expect = len(set(ambient) & set(lowest)) / k
            assert rep.per_query_ap[qi] == pytest.approx(expect)
        assert rep.map == pytest.approx(np.mean(rep.per_query_ap))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        pts = rng.standard_normal((30, 5))
        w = random_projection_matrix(6, 5, seed)
        model = make_model(w)
        data = Dataset(pts)
        rep = map_at_k(model, data, k=7)
        bits = oracles.unpack(hash_matrix(w, pts))
        expect = oracles.brute_map(pts, bits, range(30), 7)
        np.testing.assert_allclose(rep.per_query_ap, expect)

    def test_k_validation(self):
        data = Dataset(np.random.default_rng(0).standard_normal((10, 3)))
        model = make_model(np.ones((2, 3)))
        with pytest.raises(ValueError):
            map_at_k(model, data, k=0)
        with pytest.raises(ValueError):
            map_at_k(model, data, k=9)  # only 9 candidates, need k < 9
        map_at_k(model, data, k=8)


class TestKendallTau:
    # each crafted set carries a far fifth point so k=3 < candidate count;
    # it never enters the ambient 3-NN of the origin query

    def test_identical_ranking(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [50.0, 50.0]])
        w = np.array([[0.0, -1.0], [3.0, -2.0]])
        rep = kendall_tau_at_k(make_model(w), Dataset(pts), queries=[0], k=3)
        assert rep.mean_tau == pytest.approx(1.0)

    def test_reversed_ranking(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [50.0, 50.0]])
        w = np.array([[-3.0, 2.0], [-1.0, 1.0]])
        rep = kendall_tau_at_k(make_model(w), Dataset(pts), queries=[0], k=3)
        assert rep.mean_tau == pytest.approx(-1.0)

    def test_adjacent_swap_third(self):
        # Hamming from the origin: p1 -> 0, p2 -> 2, p3 -> 1 (one swap)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [2.0, 2.0], [50.0, 50.0]])
        w = np.array([[0.0, -1.0], [1.0, -1.0], [1.0, 0.0]])
        rep = kendall_tau_at_k(make_model(w), Dataset(pts), queries=[0], k=3)
        # 2 concordant, 1 discordant of 3 pairs
        assert rep.mean_tau == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(200 + seed)
        pts = rng.standard_normal((25, 4))
        w = random_projection_matrix(5, 4, seed + 50)
        model = make_model(w)
        rep = kendall_tau_at_k(model, Dataset(pts), k=6)
        bits = oracles.unpack(hash_matrix(w, pts))
        expect = oracles.brute_tau(pts, bits, range(25), 6)
        np.testing.assert_allclose(rep.per_query_tau, expect)
        assert rep.mean_tau == pytest.approx(np.mean(expect))

    def test_k_below_two_rejected(self):
        data = Dataset(np.random.default_rng(0).standard_normal((10, 3)))
        with pytest.raises(ValueError):
            kendall_tau_at_k(make_model(np.ones((2, 3))), data, k=1)


class TestExactAmbientTies:
    """Raw translating squares: {0,1} pixels, so squared distances are
    integers and equal distances tie exactly in any summation order."""

    def setup_method(self):
        self.data = gen_translating_squares(8, 3)
        self.pts = self.data.points
        self.w = random_projection_matrix(8, self.pts.shape[1], 5)
        self.model = make_model(self.w)
        self.bits = oracles.unpack(hash_matrix(self.w, self.pts))

    def test_fixture_has_ties(self):
        d0 = np.linalg.norm(self.pts - self.pts[0], axis=1)
        assert len(self.pts) == 36 and np.unique(d0).size == 7

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_map_matches_brute_force(self, k):
        rep = map_at_k(self.model, self.data, k=k)
        expect = oracles.brute_map(self.pts, self.bits, range(36), k)
        np.testing.assert_array_equal(rep.per_query_ap, expect)

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_tau_matches_brute_force(self, k):
        rep = kendall_tau_at_k(self.model, self.data, k=k)
        expect = oracles.brute_tau(self.pts, self.bits, range(36), k)
        np.testing.assert_array_equal(rep.per_query_tau, expect)

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_knn_gaps_match_literal_sort(self, k):
        rep = knn_sufficiency_check(self.model, self.data, k=k)
        for q in range(36):
            d = [float(np.linalg.norm(self.pts[t] - self.pts[q])) for t in range(36)]
            order = [t for t in sorted(range(36), key=lambda t: (d[t], t)) if t != q]
            assert rep.per_query_gap[q] == d[order[k]] - d[order[k - 1]]


    @pytest.mark.parametrize("k", [3, 8])
    def test_query_blocks_in_any_order(self, k, monkeypatch):
        # three queries per block: the unsorted queries, with repeats, span
        # three blocks
        monkeypatch.setattr(core, "TILE_PAIRS", 3 * 36)
        queries = [35, 0, 17, 0, 35, 9, 10, 11, 2]
        rep = map_at_k(self.model, self.data, queries, k=k)
        np.testing.assert_array_equal(
            rep.per_query_ap, oracles.brute_map(self.pts, self.bits, queries, k))
        rep = kendall_tau_at_k(self.model, self.data, queries, k=k)
        np.testing.assert_array_equal(
            rep.per_query_tau, oracles.brute_tau(self.pts, self.bits, queries, k))
        rep = knn_sufficiency_check(self.model, self.data, queries, k=k)
        gaps, satisfied, preserved = oracles.brute_knn(self.pts, self.bits, queries, k,
                                                       rep.delta)
        np.testing.assert_array_equal(rep.per_query_gap, gaps)
        np.testing.assert_array_equal(rep.satisfied_queries, satisfied)
        np.testing.assert_array_equal(rep.preserved, preserved)

    def test_ranking_kept_at_the_largest_k(self, monkeypatch):
        # a ranking at 10 answers k = 6 with its first 6 columns, bit for
        # bit; a ranking at 6 cannot answer k = 10 and ranks again
        codes = hash_matrix(self.w, self.pts)
        blocks = []
        ambient = core.PairTiles.ambient

        def counted(tiles, rows, cols):
            blocks.append(len(rows))
            return ambient(tiles, rows, cols)

        def ranking(data, k):
            parts = list(zip(*query_neighbors(data, codes, np.arange(36), k)))
            return np.concatenate(parts[1]), np.concatenate(parts[2])

        fresh = {k: ranking(Dataset(self.pts), k) for k in (6, 10)}
        monkeypatch.setattr(core.PairTiles, "ambient", counted)
        for first, then in ((10, 6), (6, 10)):
            data, blocks[:] = Dataset(self.pts), []
            ranking(data, first)
            got = ranking(data, then)
            for a, b in zip(got, fresh[then]):
                np.testing.assert_array_equal(a, b)
            assert blocks == [36] * (1 if first > then else 2)


class TestDatasetMemo:
    """A Dataset keeps its last distortion report and its last query
    ranking; every result must still equal a fresh Dataset's."""

    def setup_method(self):
        self.pts = np.random.default_rng(41).standard_normal((40, 5))
        self.model = make_model(random_projection_matrix(6, 5, 8))

    def results(self, data):
        rep = knn_sufficiency_check(self.model, data, k=4)
        return (max_distortion(self.model, data), map_at_k(self.model, data, k=4).per_query_ap,
                rep.per_query_gap, rep.preserved)

    @pytest.mark.parametrize("edit", ["in_place", "reassigned"])
    def test_edited_points_measure_afresh(self, edit):
        data = Dataset(self.pts.copy())
        before = self.results(data)
        moved = self.pts.copy()
        moved[3] += 3.0
        if edit == "in_place":
            data.points[3] += 3.0
        else:
            data.points = moved.copy()
        got, want = self.results(data), self.results(Dataset(moved))
        assert got[0] == want[0] and before[0] != want[0]
        for a, b in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(before[2], want[2])

    def test_report_is_a_copy(self):
        data = Dataset(self.pts)
        rep = max_distortion(self.model, data)
        rep.delta, rep.worst_secant = -1.0, None
        assert max_distortion(self.model, data) == max_distortion(self.model,
                                                                  Dataset(self.pts))

    def test_collapsed_codes_raise_every_time(self):
        data = Dataset(self.pts)
        for _ in range(2):
            with pytest.raises(DataFormatError, match="collapsed"):
                max_distortion(make_model(np.zeros((4, 5))), data)

    def test_threads_below_one_rejected_after_a_hit(self):
        data = Dataset(self.pts)
        knn_sufficiency_check(self.model, data, k=4)
        for n_threads in (0, -2):
            with pytest.raises(ValueError, match="n_threads"):
                max_distortion(self.model, data, n_threads=n_threads)
            with pytest.raises(ValueError, match="n_threads"):
                knn_sufficiency_check(self.model, data, k=4, n_threads=n_threads)

    def test_workload_order_makes_one_pass_and_one_ranking(self, monkeypatch):
        # as the stored-model evaluation runs: delta on two threads, MAP and
        # tau at k = 10, then the kNN check at k = 5 (a ranking at 6)
        passes, blocks = [], []
        ambient = core.PairTiles.ambient

        def counted_pass(fn, q, n_threads=1):
            passes.append(q)
            return map_tiles(fn, q, n_threads)

        def counted_ranking(tiles, rows, cols):
            blocks.append(len(rows))
            return ambient(tiles, rows, cols)

        monkeypatch.setattr(metrics, "map_tiles", counted_pass)
        monkeypatch.setattr(core.PairTiles, "ambient", counted_ranking)
        data, queries = Dataset(self.pts), np.arange(0, 40, 3)
        rep = max_distortion(self.model, data, n_threads=2)
        ap = map_at_k(self.model, data, queries, k=10).per_query_ap
        tau = kendall_tau_at_k(self.model, data, queries, k=10).per_query_tau
        gap = knn_sufficiency_check(self.model, data, queries, k=5)
        assert passes == [40] and blocks == [queries.size]
        bits = oracles.unpack(hash_matrix(self.model.w, self.pts))
        assert gap.delta == rep.delta
        np.testing.assert_allclose(ap, oracles.brute_map(self.pts, bits, queries, 10))
        np.testing.assert_allclose(tau, oracles.brute_tau(self.pts, bits, queries, 10))
        want = oracles.brute_knn(self.pts, bits, queries, 5, rep.delta)
        for a, b in zip((gap.per_query_gap, gap.satisfied_queries, gap.preserved), want):
            np.testing.assert_array_equal(a, b)

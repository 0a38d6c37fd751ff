import math

import numpy as np
import pytest

from isohash.baselines import lsh_fit, lsh_model
from isohash.core import Dataset, HashModel
from isohash.dataio import preprocess
from isohash.theory import (
    knn_sufficiency_check,
    lemma1_empirical,
    sigmoid_quantizer_gap_bound,
)


class TestLemma1:
    def test_huge_alpha_vanishing_gap(self):
        emp, bound = lemma1_empirical(1e6, 1.0, n_samples=10**5, seed=0)
        assert emp < 1e-3
        assert emp <= bound

    def test_alpha_one_bound_value(self):
        # 1/sqrt(2 pi) + 2/e
        want = 1.0 / math.sqrt(2 * math.pi) + 2.0 * math.exp(-1.0)
        assert sigmoid_quantizer_gap_bound(1.0, 1.0) == pytest.approx(
            1.1347011627443174, abs=1e-12)
        assert sigmoid_quantizer_gap_bound(1.0, 1.0) == pytest.approx(want)
        emp, bound = lemma1_empirical(1.0, 1.0, n_samples=10**5, seed=1)
        assert emp <= bound

    def test_monotone_in_alpha(self):
        vals = [lemma1_empirical(a, 1.0, n_samples=10**5, seed=7)[0]
                for a in (1.0, 10.0, 100.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            lemma1_empirical(1.0, 1.0, n_samples=100)


class TestKnnSufficiency:
    def test_exact_isometry_all_preserved(self):
        # +/-1 one-hot rows: every pair sits at Hamming 2 and ambient 2*sqrt(2),
        # so the identity projection is an exact isometry at lambda = sqrt(2)
        n = 6
        pts = 2.0 * np.eye(n) - 1.0
        model = HashModel(w=np.eye(n), lam=math.sqrt(2.0), alpha=10.0,
                          mean=np.zeros(n), normalized=False)
        rep = knn_sufficiency_check(model, Dataset(pts), k=2)
        assert rep.delta == pytest.approx(0.0, abs=1e-12)
        assert rep.satisfied_queries.size == n  # gap 0 >= 2*0 counts
        assert rep.ok

    def test_planted_clusters_all_preserved(self):
        # three well-separated Gaussian blobs in R^20; gaps dwarf 2*delta
        rng = np.random.default_rng(11)
        centers = np.zeros((3, 20))
        centers[0, 0] = 0.0
        centers[1, 0] = 200.0
        centers[2, 1] = 200.0
        points = centers[rng.integers(0, 3, 60)] + 0.1 * rng.standard_normal((60, 20))
        data = preprocess(points)
        model = lsh_fit(16, data, 4)[0]
        # k one less than the smallest cluster, so the gap is the
        # inter-cluster margin
        labels = np.argmin(
            np.linalg.norm(points[:, None, :] - centers[None], axis=2), axis=1
        )
        k = int(np.bincount(labels).min()) - 1
        rep = knn_sufficiency_check(model, data, k=k)
        assert rep.satisfied_queries.size > 0, "construction should create gaps"
        assert rep.ok

    def test_small_gaps_excluded_not_asserted(self):
        rng = np.random.default_rng(13)
        data = preprocess(rng.standard_normal((30, 10)))
        model = lsh_fit(4, data, 5)[0]  # few bits: delta is large
        rep = knn_sufficiency_check(model, data, k=3)
        # queries below the gap threshold are reported via per_query_gap only
        assert rep.per_query_gap.shape == (30,)
        assert rep.satisfied_queries.size == rep.preserved.size
        assert rep.ok  # vacuously or not, never a violation

    def test_k_range_validated(self):
        data = Dataset(np.random.default_rng(0).standard_normal((10, 3)))
        model = lsh_model(4, 3, seed=0)
        with pytest.raises(ValueError):
            knn_sufficiency_check(model, data, k=9)

    def test_query_range_validated(self):
        data = Dataset(np.random.default_rng(0).standard_normal((10, 3)))
        model = lsh_model(4, 3, seed=0)
        for queries in ([-1], [0, 10], []):
            with pytest.raises(ValueError, match="query"):
                knn_sufficiency_check(model, data, queries=queries, k=2)

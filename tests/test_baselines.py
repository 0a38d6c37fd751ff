import numpy as np
import pytest

import oracles
from isohash.baselines import (
    DEMO_DATASET_SEED,
    circle_square_misordered,
    grid_search_embedding_1d,
    lsh_model,
    make_fig1_dataset,
    nn_order_preserved,
)
from isohash.core import Dataset
from isohash.dataio import gen_translating_squares, preprocess
from isohash.metrics import max_distortion


class TestLshModel:
    def test_seeded_determinism(self):
        a = lsh_model(8, 20, seed=7)
        b = lsh_model(8, 20, seed=7)
        np.testing.assert_array_equal(a.w, b.w)

    def test_different_seeds_differ(self):
        a = lsh_model(8, 20, seed=7)
        b = lsh_model(8, 20, seed=8)
        assert not np.array_equal(a.w, b.w)

    def test_entry_moments(self):
        # M*N = 1e5 entries: mean within 3 sigma of 0, variance near 1
        model = lsh_model(100, 1000, seed=3)
        flat = model.w.ravel()
        assert abs(flat.mean()) < 3.0 / np.sqrt(flat.size)
        assert abs(flat.var() - 1.0) < 3.0 * np.sqrt(2.0 / flat.size)

    def test_lambda_fitted_on_data(self):
        rng = np.random.default_rng(11)
        data = preprocess(rng.standard_normal((40, 12)))
        model = lsh_model(6, 12, seed=1, data=data)
        assert model.lam > 0 and model.lam != 1.0
        assert model.normalized
        np.testing.assert_array_equal(model.mean, data.mean)

    @pytest.mark.parametrize("kind", ["gaussian", "squares"])
    def test_lambda_is_the_refit_scale(self, kind):
        if kind == "gaussian":
            data = preprocess(np.random.default_rng(12).standard_normal((60, 12)))
        else:  # many tied distances
            data = preprocess(gen_translating_squares(grid=8, square=3).points)
        model = lsh_model(8, data.n, seed=2, data=data)
        assert model.lam == max_distortion(model, data).lambda_star


class TestGridSearch:
    def test_collinear_points_embed_exactly(self):
        # points on a line at 30 degrees embed with zero distortion; the
        # lambda fit undoes the cosine shrink at any non-perpendicular
        # angle, so the zero is attained at 30 degrees but is not unique
        t = np.array([0.0, 1.0, 2.5, 4.0, 5.5])
        d = np.array([np.cos(np.pi / 6), np.sin(np.pi / 6)])
        pts = t[:, None] * d
        for norm_kind in ("linf", "l2"):
            res = grid_search_embedding_1d(pts, norm_kind, grid_steps=1800)
            assert res.distortion < 1e-10
            at_30 = res.profile[np.argmin(np.abs(res.profile[:, 0] - np.pi / 6)), 1]
            assert at_30 < 1e-10

    def test_circle_profile_quarter_turn_symmetry(self):
        # a 4-fold symmetric point set: distortion profile has period pi/2
        n = 16
        ang = np.arange(n) * 2 * np.pi / n
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        res = grid_search_embedding_1d(pts, "linf", grid_steps=360)
        vals = res.profile[:, 1]
        np.testing.assert_allclose(vals, np.roll(vals, 90), atol=1e-9)

    def test_profile_minimum_is_best(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((12, 2))
        res = grid_search_embedding_1d(pts, "linf", grid_steps=720)
        assert res.distortion == res.profile[:, 1].min()
        k = int(np.argmin(res.profile[:, 1]))
        assert res.best_angle == res.profile[k, 0]

    def test_l2_scale_matches_grid_oracle(self):
        rng = np.random.default_rng(4)
        p = np.abs(rng.standard_normal(30))
        c = np.abs(rng.standard_normal(30)) * 2
        lam = float(p @ c) / float(p @ p)
        lams = np.linspace(0, 5, 200_001)
        vals = np.linalg.norm(lams[:, None] * p[None, :] - c[None, :], axis=1)
        assert np.linalg.norm(lam * p - c) <= vals.min() + 1e-9

    def test_degenerate_angle_uses_target_norm(self):
        # all points identical in one coordinate: projections collapse at
        # the orthogonal angle but the search still returns finite values
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        res = grid_search_embedding_1d(pts, "linf", grid_steps=4)
        # at angle 0 every projection is 0 -> distortion = max c = 2
        assert res.profile[0, 1] == pytest.approx(2.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            grid_search_embedding_1d(np.zeros((5, 3)), "linf")
        with pytest.raises(ValueError):
            grid_search_embedding_1d(np.zeros((5, 2)), "l1")


class TestFig1Dataset:
    def test_cluster_counts(self):
        pts, labels = make_fig1_dataset(grid_steps=720)
        assert pts.shape == (70, 2)
        assert (labels == "circle").sum() == 5
        assert (labels == "square").sum() == 5
        assert (labels == "star").sum() == 60
        np.testing.assert_array_equal(pts[0], [0.0, 0.0])

    def test_shipped_seed_contrast(self):
        pts, labels = make_fig1_dataset(DEMO_DATASET_SEED, grid_steps=720)
        linf = grid_search_embedding_1d(pts, "linf", 720)
        l2 = grid_search_embedding_1d(pts, "l2", 720)
        ok_linf, _, _ = nn_order_preserved(pts, linf.best_angle)
        ok_l2, _, _ = nn_order_preserved(pts, l2.best_angle)
        assert ok_linf and not ok_l2
        assert circle_square_misordered(pts, labels, l2.best_angle)
        assert not circle_square_misordered(pts, labels, linf.best_angle)

    def test_bad_configuration_rejected(self):
        # the self-check path: a collinear stand-in preserves order under
        # both norms, so there is no contrast and the seed must be refused
        from isohash.baselines import _cluster_geometry

        pts, labels = _cluster_geometry(DEMO_DATASET_SEED)
        import isohash.baselines as bl

        orig = bl._cluster_geometry
        t = np.linspace(0.1, 5.0, 70)
        line = np.stack([t, np.zeros(70)], axis=1)
        line[0] = 0.0
        bl._cluster_geometry = lambda seed: (line, labels)
        try:
            with pytest.raises(ValueError, match="contrast"):
                make_fig1_dataset(12345, grid_steps=360)
        finally:
            bl._cluster_geometry = orig

import re
import tracemalloc

import numpy as np
import pytest

import oracles
from isohash import admm
from isohash.admm import (
    DivergenceError,
    SolverConfig,
    SolverState,
    _GramPairs,
    _IncidencePairs,
    _pair_layout,
    _w_loss_grad,
    augmented_loss,
    lambda_step,
    project_l1_ball,
    train_nibh,
    u_step,
    w_step,
    y_step,
)
from isohash.core import (
    Dataset,
    SecantBatch,
    decode_pair_indices,
    hamming_pairs,
    hash_matrix,
    random_projection_matrix,
)
from isohash.metrics import fit_lambda_chebyshev, max_distortion


def all_secants(points):
    q = len(points)
    pairs = [(i, j) for i in range(1, q) for j in range(i)]
    i_idx = [p[0] for p in pairs]
    j_idx = [p[1] for p in pairs]
    return SecantBatch.from_pairs(points, i_idx, j_idx)


# the W-step tests run every case through both pair layouts, each built
# directly, whichever one training would select for the secant set
LAYOUTS = (_GramPairs, _IncidencePairs)


def w_loss_grad(layout, w, points, sec, u, y, lam, alpha, want_grad=True):
    """``_w_loss_grad`` through ``layout``, a pair-layout class (or
    ``_pair_layout`` for the one training selects)."""
    return _w_loss_grad(w, points, sec, layout(sec, len(points)),
                        u, y, lam, alpha, want_grad=want_grad)


def make_state(w, u, y, lam, alpha):
    return SolverState(w=np.asarray(w, float), u=np.asarray(u, float),
                       y=np.asarray(y, float), lam=lam, alpha=alpha)


class TestUStep:
    def test_inside_ball_gives_zero(self):
        z = np.array([0.2, -0.3, 0.1])
        np.testing.assert_allclose(u_step(z, 1.0), 0.0, atol=1e-15)

    def test_one_dimensional_calculus(self):
        # min_u u + 0.5 (u - 3)^2 has its optimum at u = 2
        np.testing.assert_allclose(u_step(np.array([3.0, 0.0]), 1.0), [2.0, 0.0],
                                   atol=1e-12)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_grid_oracle(self, rho, seed):
        rng = np.random.default_rng(1000 * seed + int(10 * rho))
        n = int(rng.integers(1, 7))
        z = rng.standard_normal(n) * 3
        u = u_step(z, rho)
        obj = float(np.max(np.abs(u))) + 0.5 * rho * float((u - z) @ (u - z))
        best = oracles.linf_prox_objective_grid(z, rho)
        assert obj <= best + 1e-4
        assert abs(obj - best) < 1e-4

    def test_projection_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = rng.standard_normal(8) * 4
            p = project_l1_ball(z, 2.5)
            assert np.abs(p).sum() <= 2.5 + 1e-12
            # projection is no farther than any other feasible point
            other = project_l1_ball(rng.standard_normal(8), 2.5)
            assert np.linalg.norm(z - p) <= np.linalg.norm(z - other) + 1e-12

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            u_step(np.ones(3), 0.0)


class TestAugmentedLoss:
    def test_all_zero(self):
        # u = 0 and residual = 0 by construction
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        sec = all_secants(pts)
        w = np.array([[1.0, -1.0]])
        from isohash.core import sigmoid

        s = sigmoid(pts @ w.T, 2.0)
        v = float(((s[1] - s[0]) ** 2).sum())
        lam = float(sec.c[0]) / v
        zero = np.zeros(1)
        assert augmented_loss(zero, np.array([v]), sec.c, zero, lam) == \
            pytest.approx(0.0, abs=1e-12)

    def test_sup_norm_of_u(self):
        # residual forced to zero: y = lam*v - c - u
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        sec = all_secants(pts)
        w = np.array([[0.3, -0.7]])
        from isohash.core import sigmoid

        s = sigmoid(pts @ w.T, 3.0)
        d = s[sec.i] - s[sec.j]
        v = (d * d).sum(axis=1)
        u = np.array([1.0, -2.0, 0.5])
        lam = 1.7
        y = lam * v - sec.c - u
        for rho in (0.5, 1.0, 9.0):
            assert augmented_loss(u, v, sec.c, y, lam, rho) == pytest.approx(2.0)

    def test_random_instance_formula(self):
        rng = np.random.default_rng(17)
        pts = rng.standard_normal((6, 3))
        sec = all_secants(pts)
        w = rng.standard_normal((2, 3))
        u = rng.standard_normal(len(sec))
        y = rng.standard_normal(len(sec))
        lam, alpha, rho = 0.8, 4.0, 2.5
        # direct recomputation
        import math

        v = []
        for t in range(len(sec)):
            acc = 0.0
            for mrow in w:
                si = 1 / (1 + math.exp(-alpha * float(mrow @ pts[sec.i[t]])))
                sj = 1 / (1 + math.exp(-alpha * float(mrow @ pts[sec.j[t]])))
                acc += (si - sj) ** 2
            v.append(acc)
        v = np.array(v)
        r = u - lam * v + sec.c + y
        want = np.abs(u).max() + 0.5 * rho * float(r @ r)
        assert augmented_loss(u, v, sec.c, y, lam, rho) == pytest.approx(want, rel=1e-12)


class TestWStep:
    @pytest.mark.parametrize("alpha", [1.0, 10.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, alpha, seed):
        rng = np.random.default_rng(300 + seed)
        q, n, m = 12, 5, 3
        pts = rng.standard_normal((q, n))
        sec = all_secants(pts)
        w = rng.standard_normal((m, n)) * 0.5
        u = rng.standard_normal(len(sec))
        y = rng.standard_normal(len(sec))
        lam = 1.3

        for layout in LAYOUTS:
            def f(wmat):
                val, _ = w_loss_grad(layout, wmat, pts, sec, u, y, lam, alpha,
                                     want_grad=False)
                return val

            _, grad = w_loss_grad(layout, w, pts, sec, u, y, lam, alpha)
            fd = oracles.central_diff_gradient(f, w, h=1e-6)
            rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12)
            assert rel < 1e-5, layout.__name__

    @pytest.mark.parametrize("alpha", [1.0, 10.0])
    def test_secant_subset_gradient(self, alpha):
        # point 7 sits in ten secants, as i and as j; points 3 and 12-14 in none
        rng = np.random.default_rng(330)
        q, n, m = 15, 4, 3
        pts = rng.standard_normal((q, n))
        pairs = [(7, j) for j in (0, 1, 2, 4, 5, 6)] \
            + [(i, 7) for i in (8, 9, 10, 11)] \
            + [(5, 0), (10, 2), (11, 4), (9, 8)]
        sec = SecantBatch.from_pairs(pts, [p[0] for p in pairs],
                                     [p[1] for p in pairs])
        w = rng.standard_normal((m, n)) * 0.5
        u = rng.standard_normal(len(sec))
        y = rng.standard_normal(len(sec))
        lam = 0.8

        f_ref, grad_ref = oracles.w_loss_grad_loop(w, pts, sec.i, sec.j, sec.c,
                                                   u, y, lam, alpha)
        for layout in LAYOUTS:
            f, grad = w_loss_grad(layout, w, pts, sec, u, y, lam, alpha)
            assert f == pytest.approx(f_ref, rel=1e-12), layout.__name__
            np.testing.assert_allclose(grad, grad_ref, rtol=1e-10,
                                       atol=1e-12 * np.abs(grad_ref).max(),
                                       err_msg=layout.__name__)
            fd = oracles.central_diff_gradient(
                lambda wmat: w_loss_grad(layout, wmat, pts, sec, u, y, lam,
                                         alpha, want_grad=False)[0], w, h=1e-6)
            assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-5, \
                layout.__name__

    @pytest.mark.parametrize("alpha", [1.0, 10.0])
    def test_layouts_agree_with_loop(self, alpha):
        # point 9 repeats point 2, so secant (9, 2) has c = 0; it and (5, 1)
        # appear twice, which the dense layout's residual sums must add up
        rng = np.random.default_rng(350)
        q, n, m = 10, 4, 3
        pts = rng.standard_normal((q, n))
        pts[9] = pts[2]
        pairs = [(9, 2), (5, 1), (9, 2), (7, 3), (5, 1), (8, 0), (4, 2),
                 (6, 5), (3, 0)]
        sec = SecantBatch.from_pairs(pts, [p[0] for p in pairs],
                                     [p[1] for p in pairs])
        assert sec.c[0] == 0.0
        w = rng.standard_normal((m, n)) * 0.5
        u = rng.standard_normal(len(sec))
        y = rng.standard_normal(len(sec))
        lam = 1.1

        f_ref, grad_ref = oracles.w_loss_grad_loop(w, pts, sec.i, sec.j, sec.c,
                                                   u, y, lam, alpha)
        atol = 1e-12 * np.abs(grad_ref).max()
        (f_g, grad_g), (f_b, grad_b) = (
            w_loss_grad(layout, w, pts, sec, u, y, lam, alpha)
            for layout in LAYOUTS)
        for f, grad in ((f_g, grad_g), (f_b, grad_b)):
            assert f == pytest.approx(f_ref, rel=1e-12)
            np.testing.assert_allclose(grad, grad_ref, rtol=1e-10, atol=atol)
        assert f_g == pytest.approx(f_b, rel=1e-12)
        np.testing.assert_allclose(grad_g, grad_b, rtol=1e-10, atol=atol)

    def test_layout_follows_stream_coverage(self):
        # dense once the secants cover half of the Q (Q - 1) / 2 pairs
        def layout_for(q, n_sec):
            i, j = decode_pair_indices(np.arange(n_sec))
            return type(_pair_layout(SecantBatch(i, j, np.ones(n_sec)), q))

        assert layout_for(144, 144 * 143 // 2) is _GramPairs
        assert layout_for(280, 5000) is _IncidencePairs
        assert layout_for(2, 1) is _GramPairs
        assert layout_for(8, 14) is _GramPairs
        assert layout_for(8, 13) is _IncidencePairs

    @pytest.mark.parametrize("pairs", [
        [(5, 2), (3, 0), (5, 2), (7, 1), (3, 0), (5, 2), (6, 5)],  # duplicates
        [(4, 1)],  # one secant
        [(k + 1, k) for k in range(7)],  # points 1..6 each as i and as j
    ])
    def test_incidence_scatter_bit_identical(self, pairs):
        # the gathered differences are S[i] - S[j], and B^T diag(r) d sums
        # each point's signed terms r_k d_k in secant order, as the loop
        # does, so no bit may differ; the first case repeats secants and
        # leaves point 4 in no secant, whose row of P must be 0
        rng = np.random.default_rng(61)
        q, m = 8, 5
        i, j = np.array(pairs).T
        layout = _IncidencePairs(SecantBatch(i, j, np.ones(i.size)), q)
        for _ in range(3):  # the refilled values must not leak across calls
            s = rng.random((q, m))
            r = rng.standard_normal(i.size)
            v, d = layout.dists(s)
            assert np.array_equal(d, s[i] - s[j])
            assert np.array_equal(v, np.einsum("ij,ij->i", d, d))
            want = oracles.incidence_scatter_loop(q, i, j, r, d)
            assert np.array_equal(layout.scatter(s, r, d), want)

    def test_all_pairs_gradient_memory(self):
        # all 499,500 pairs of Q=1000 with M=16: each |S| x M array would
        # take 61 MiB, the dense layout's Q x Q matrices take 7.6 MiB
        rng = np.random.default_rng(60)
        q, n, m = 1000, 100, 16
        pts = rng.standard_normal((q, n))
        i, j = np.tril_indices(q, -1)
        sec = SecantBatch(i, j, rng.uniform(0.5, 2.0, i.size))
        layout = _pair_layout(sec, q)
        assert isinstance(layout, _GramPairs)
        w = rng.standard_normal((m, n)) * 0.1
        u, y = np.zeros(len(sec)), np.zeros(len(sec))
        tracemalloc.start()
        try:
            _, grad = _w_loss_grad(w, pts, sec, layout, u, y, 0.5, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(grad))
        assert peak < 32 * 2**20

    def test_entry_point_evaluated_once(self, monkeypatch):
        rng = np.random.default_rng(36)
        pts = rng.standard_normal((9, 3))
        sec = all_secants(pts)
        state = make_state(rng.standard_normal((2, 3)),
                           rng.standard_normal(len(sec)), np.zeros(len(sec)),
                           0.7, 2.0)
        seen = []
        inner = admm._w_loss_grad

        def recorded(w, *args, **kwargs):
            seen.append(w.copy())
            return inner(w, *args, **kwargs)

        monkeypatch.setattr(admm, "_w_loss_grad", recorded)
        w_step(state, sec, Dataset(pts), SolverConfig(inner_gd_iters=5))
        assert len(seen) > 1
        assert sum(np.array_equal(w, state.w) for w in seen) == 1

    def test_non_finite_u_names_secant(self):
        rng = np.random.default_rng(34)
        pts = rng.standard_normal((6, 3))
        sec = all_secants(pts)
        u = np.zeros(len(sec))
        u[4] = np.nan
        state = make_state(rng.standard_normal((2, 3)), u, np.zeros(len(sec)),
                           1.0, 2.0)
        want = f"non-finite residual at secant ({sec.i[4]}, {sec.j[4]})"
        with pytest.raises(DivergenceError, match=re.escape(want)):
            w_step(state, sec, Dataset(pts), SolverConfig())

    def test_lambda_zero_leaves_w_unchanged(self):
        rng = np.random.default_rng(31)
        pts = rng.standard_normal((5, 3))
        sec = all_secants(pts)
        w = rng.standard_normal((2, 3))
        state = make_state(w, np.zeros(len(sec)), np.zeros(len(sec)), 0.0, 2.0)
        out = w_step(state, sec, Dataset(pts), SolverConfig())
        np.testing.assert_array_equal(out, w)

    def test_never_increases_objective(self):
        def loss(state):
            return w_loss_grad(_pair_layout, state.w, pts, sec, state.u,
                               state.y, state.lam, state.alpha,
                               want_grad=False)[0]

        rng = np.random.default_rng(32)
        pts = rng.standard_normal((10, 4))
        sec = all_secants(pts)
        cfg = SolverConfig(inner_gd_iters=15)
        for seed in range(5):
            rng2 = np.random.default_rng(seed)
            state = make_state(rng2.standard_normal((3, 4)),
                               rng2.standard_normal(len(sec)),
                               rng2.standard_normal(len(sec)), 0.9, 3.0)
            before = loss(state)
            state_after = make_state(w_step(state, sec, Dataset(pts), cfg),
                                     state.u, state.y, state.lam, state.alpha)
            after = loss(state_after)
            assert after <= before + 1e-12

    def test_single_secant_scalar_matches_grid(self):
        # M = N = 1: minimize over the scalar w
        import math

        pts = np.array([[1.0], [-0.7]])
        sec = all_secants(pts)
        u = np.array([0.4])
        y = np.array([-0.1])
        lam, alpha = 1.5, 4.0

        def f(wval):
            si = 1 / (1 + math.exp(-alpha * wval * 1.0))
            sj = 1 / (1 + math.exp(-alpha * wval * -0.7))
            v = (si - sj) ** 2
            r = u[0] - lam * v + sec.c[0] + y[0]
            return 0.5 * r * r

        grid = np.linspace(-6, 6, 2_000_001)
        vals = np.array([f(g) for g in np.linspace(-6, 6, 20_001)])
        coarse = np.linspace(-6, 6, 20_001)[int(np.argmin(vals))]
        fine = np.linspace(coarse - 0.01, coarse + 0.01, 200_001)
        fbest = min(f(g) for g in fine)

        state = make_state(np.array([[0.1]]), u, y, lam, alpha)
        cfg = SolverConfig(inner_gd_iters=400)
        w_out = w_step(state, sec, Dataset(pts), cfg)
        assert f(float(w_out[0, 0])) <= fbest + 1e-6


class TestLambdaStep:
    def test_exact_ratio(self):
        assert lambda_step([1.0, 1.0], [1.0, 1.0], [0.5, 0.5], [0.5, 0.5],
                           1.0) == pytest.approx(2.0)

    def test_orthogonal_clamps_to_min(self):
        # u + c + y orthogonal to v
        lam = lambda_step([1.0, -1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0],
                          1.0)
        assert lam == 1e-8

    def test_zero_v_keeps_previous_and_warns(self):
        with pytest.warns(UserWarning):
            lam = lambda_step([1.0], [0.0], [1.0], [0.0], 0.77)
        assert lam == 0.77

    @pytest.mark.parametrize("seed", range(5))
    def test_local_optimality(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = 20
        u = rng.standard_normal(n)
        v = np.abs(rng.standard_normal(n)) + 0.1
        c = np.abs(rng.standard_normal(n))
        y = rng.standard_normal(n)
        lam = lambda_step(u, v, c, y, 1.0)

        def obj(l):
            r = u - l * v + c + y
            return 0.5 * float(r @ r)

        for cand in (lam - 1e-3, lam + 1e-3):
            if cand > 0:
                assert obj(lam) <= obj(cand) + 1e-12


class TestYStep:
    def test_zero_residual_leaves_y(self):
        v = np.array([1.0, 2.0])
        c = np.array([0.5, 0.5])
        lam = 2.0
        u = lam * v - c
        y = np.array([0.3, -0.4])
        np.testing.assert_allclose(y_step(y, u, v, c, lam, 1.6), y)

    def test_eta_zero_leaves_y(self):
        y = np.array([1.0, 2.0])
        out = y_step(y, np.array([5.0, 5.0]), np.array([1.0, 1.0]),
                     np.array([1.0, 1.0]), 0.5, 0.0)
        np.testing.assert_allclose(out, y)

    def test_random_recomputation(self):
        rng = np.random.default_rng(55)
        y, u, v, c = (rng.standard_normal(7) for _ in range(4))
        v = np.abs(v)
        c = np.abs(c)
        out = y_step(y, u, v, c, 1.2, 1.6)
        np.testing.assert_allclose(out, y + 1.6 * (u - 1.2 * v + c), rtol=1e-12)


class TestTrainNibh:
    def setup_method(self):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((40, 12))
        centered = raw - raw.mean(axis=0)
        self.data = Dataset(centered / np.linalg.norm(centered, axis=1, keepdims=True),
                            mean=raw.mean(axis=0), normalized=True)
        self.secants = all_secants(self.data.points)

    def training_fit(self, model):
        """(lambda*, delta) of the model's codes over the training secants."""
        sec = self.secants
        dh = hamming_pairs(hash_matrix(model.w, self.data.points), sec.i, sec.j)
        return fit_lambda_chebyshev(dh.astype(np.float64), sec.c)

    def test_improves_on_random_init(self):
        cfg = SolverConfig(max_outer_iters=30, seed=3)
        m = 8
        w0 = random_projection_matrix(m, self.data.n, cfg.seed)
        init_model, _ = train_nibh(self.data, self.secants, m,
                                   SolverConfig(max_outer_iters=1, seed=3))
        # delta of the untouched random initialization, scale fitted
        from isohash.core import HashModel

        init = HashModel(w=w0, lam=1.0, alpha=10.0, mean=self.data.mean,
                         normalized=True)
        delta_init = max_distortion(init, self.data).delta
        model, state = train_nibh(self.data, self.secants, m, cfg)
        delta_final = state.history[-1]["delta"]
        assert delta_final < delta_init

    def test_history_finite_and_self_consistent(self):
        cfg = SolverConfig(max_outer_iters=25, seed=1)
        model, state = train_nibh(self.data, self.secants, 6, cfg)
        hist = np.array([[rec["iteration"], rec["loss"], rec["delta"]]
                         for rec in state.history])
        assert np.all(np.isfinite(hist))
        # bookkeeping delta equals the metrics measurement recomputed from scratch
        rep = max_distortion(model, self.data)
        assert rep.delta == pytest.approx(
            state.history[state.best_iteration - 1]["delta"], abs=1e-12)

    def test_returns_latest_lowest_delta_iterate(self):
        cfg = SolverConfig(max_outer_iters=10, seed=5)
        model, state = train_nibh(self.data, self.secants, 5, cfg)
        deltas = [rec["delta"] for rec in state.history]
        best = len(deltas) - deltas[::-1].index(min(deltas))
        assert state.best_iteration == best
        # this solve ends above its best, which it reaches more than once
        assert deltas[-1] > min(deltas) and deltas.count(min(deltas)) > 1
        # the first ``best`` iterations of the same solve end at that iterate
        cut, cut_state = train_nibh(
            self.data, self.secants, 5,
            SolverConfig(max_outer_iters=best, seed=5))
        assert cut_state.iteration == best
        assert model.w.tobytes() == cut_state.w.tobytes()
        assert (model.lam, model.alpha) == (cut.lam, cut_state.alpha)
        # that iterate's lambda* over the training secants, where its delta
        # is attained
        assert self.training_fit(model) == (model.lam, min(deltas))

    def test_divergence_returns_lowest_delta_iterate(self, monkeypatch):
        # a guard this tight trips after three iterations above the minimum
        monkeypatch.setattr(admm, "_DIVERGENCE_FACTOR", 1.0)
        monkeypatch.setattr(admm, "_DIVERGENCE_PATIENCE", 3)
        model, state = train_nibh(self.data, self.secants, 5,
                                  SolverConfig(max_outer_iters=30, seed=0))
        assert state.diverged and not state.converged
        assert len(state.history) == state.iteration
        assert state.best_iteration < state.iteration
        # the first ``best_iteration`` iterations of the same solve end there
        cut, cut_state = train_nibh(
            self.data, self.secants, 5,
            SolverConfig(max_outer_iters=state.best_iteration, seed=0))
        assert not cut_state.diverged
        assert model.w.tobytes() == cut_state.w.tobytes()
        assert (model.lam, model.alpha) == (cut.lam, cut_state.alpha)
        assert model.lam == self.training_fit(model)[0]

    def test_duplicated_point_zero_secant(self):
        pts = np.vstack([self.data.points[:10], self.data.points[0]])
        data = Dataset(pts, mean=self.data.mean, normalized=False)
        sec = all_secants(pts)
        assert float(sec.c.min()) == 0.0
        model, state = train_nibh(data, sec, 4, SolverConfig(max_outer_iters=15, seed=2))
        dup = np.nonzero(sec.c == 0.0)[0]
        assert np.all(np.abs(state.u[dup]) <= np.abs(state.u).max())
        assert np.all(np.isfinite(state.u))

    def test_reproducible_bit_identical(self):
        cfg = SolverConfig(max_outer_iters=12, seed=9)
        m1, s1 = train_nibh(self.data, self.secants, 5, cfg)
        m2, s2 = train_nibh(self.data, self.secants, 5, cfg)
        assert m1.w.tobytes() == m2.w.tobytes()
        assert m1.lam == m2.lam
        assert s1.history == s2.history

    def test_progress_sink_receives_records(self):
        records = []
        cfg = SolverConfig(max_outer_iters=5, seed=0)
        train_nibh(self.data, self.secants, 4, cfg, progress=records.append)
        assert len(records) >= 1
        for rec in records:
            assert set(rec) == {"iteration", "loss", "delta", "alpha", "lambda"}

    def test_history_is_the_progress_records(self):
        # the state keeps exactly the records the progress callable was
        # given, in order, one per iteration
        records = []
        cfg = SolverConfig(max_outer_iters=6, seed=4)
        _, state = train_nibh(self.data, self.secants, 4, cfg,
                              progress=records.append)
        assert state.history == records
        assert [rec["iteration"] for rec in state.history] == \
            list(range(1, state.iteration + 1))

    @pytest.mark.parametrize("tol", [1e-2, 1e-3])
    def test_converged_implies_alpha_end(self, tol):
        # a loose tolerance is met while continuation is still raising alpha;
        # the stop test has to wait for alpha_end
        cfg = SolverConfig(max_outer_iters=40, convergence_tol=tol, seed=0)
        model, state = train_nibh(self.data, self.secants, 4, cfg)
        assert state.converged
        assert state.alpha == cfg.alpha_end
        assert model.alpha == state.alpha

    def test_model_records_alpha_reached(self):
        cfg = SolverConfig(max_outer_iters=3, seed=0)
        records = []
        model, state = train_nibh(self.data, self.secants, 4, cfg,
                                  progress=records.append)
        assert not state.converged
        assert model.alpha == state.alpha == 1.25 ** 2
        assert [rec["alpha"] for rec in records] == [1.0, 1.25, 1.25 ** 2]

    def test_collapsed_codes_keep_the_solvers_lambda(self):
        # every secant joins x to 2x, which no hyperplane through the origin
        # separates: every training d_H is 0 whatever W, so no lambda* exists
        x = self.data.points[:6]
        data = Dataset(np.vstack([x, 2.0 * x]))
        sec = SecantBatch.from_pairs(data.points, np.arange(6, 12), np.arange(6))
        records = []
        model, state = train_nibh(data, sec, 4, SolverConfig(max_outer_iters=6, seed=1),
                                  progress=records.append)
        assert all(rec["delta"] == sec.c.max() for rec in state.history)
        assert state.best_iteration == state.iteration  # ties go to the later
        assert model.lam == state.lam == records[-1]["lambda"] > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(rho=0.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha_start=5.0, alpha_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha_growth=1.0)

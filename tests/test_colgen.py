import dataclasses
import math

import numpy as np
import pytest

from isohash import colgen, core, metrics
from isohash.admm import SolverConfig, train_nibh
from isohash.colgen import (
    CgConfig,
    _union,
    identify_active,
    scan_violators,
    train_nibh_cg,
)
from isohash.core import (
    Dataset,
    SecantBatch,
    decode_pair_indices,
    hamming_pairs,
    hash_codes,
    hash_matrix,
    pair_distances,
    random_projection_matrix,
    row_tiles,
    secant_count,
)
from isohash.dataio import gen_random_dataset, gen_translating_squares, preprocess
from isohash.metrics import fit_lambda_chebyshev, max_distortion


def small_config(**kw):
    inner = kw.pop("inner", SolverConfig(max_outer_iters=15, inner_gd_iters=25))
    return CgConfig(inner=inner, **kw)


def test_threads_below_one_rejected():
    # the first generation's scan names the bad count
    data = gen_random_dataset(12, 3, seed=0)
    config = small_config(inner=SolverConfig(max_outer_iters=2, inner_gd_iters=5))
    for n_threads in (0, -1):
        with pytest.raises(ValueError, match="n_threads must be >= 1"):
            train_nibh_cg(data, 4, config, n_threads=n_threads)


class TestSampleInitial:
    def test_whole_population_when_small(self):
        data = gen_random_dataset(4, 3, seed=0)
        active = SecantBatch.sample(data.points, 6, seed=0)
        assert len(active) == 6 == secant_count(4)

    def test_deterministic_under_seed(self):
        data = gen_random_dataset(100, 5, seed=1)
        a = SecantBatch.sample(data.points, 500, seed=11)
        b = SecantBatch.sample(data.points, 500, seed=11)
        np.testing.assert_array_equal(a.i, b.i)
        np.testing.assert_array_equal(a.j, b.j)

    def test_targets_are_true_distances(self):
        data = gen_random_dataset(20, 4, seed=2)
        active = SecantBatch.sample(data.points, 30, seed=0)
        want = pair_distances(data.points, active.i, active.j)
        np.testing.assert_array_equal(active.c, want)

    def test_pair_frequencies_uniform(self):
        # chi-square over all 45 pairs of Q=10, many seeds
        data = gen_random_dataset(10, 3, seed=3)
        total = secant_count(10)
        counts = np.zeros(total)
        draws = 1500
        k = 9
        for seed in range(draws):
            active = SecantBatch.sample(data.points, k, seed)
            counts[active.keys()] += 1
        expected = draws * k / total
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 95th percentile of chi2 with 44 dof is ~60.5; generous headroom
        assert chi2 < 80.0


class TestIdentifyActive:
    def make_codes_and_secants(self, seed=0, q=20, n=5, m=4):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((q, n))
        codes = hash_matrix(random_projection_matrix(m, n, seed), pts)
        pairs = [(i, j) for i in range(1, q) for j in range(i)]
        sec = SecantBatch.from_pairs(pts, [p[0] for p in pairs], [p[1] for p in pairs])
        return codes, sec

    def test_all_equal_residuals_all_active(self):
        # zero-distance targets and identical codes: residual identical
        codes, sec = self.make_codes_and_secants()
        dh = hamming_pairs(codes, sec.i, sec.j)
        lam = 1.0
        # synthesize equal residuals by overriding targets
        sec_eq = SecantBatch(sec.i, sec.j, lam * dh + 0.5)
        resid = np.abs(lam * dh - sec_eq.c)
        mask = identify_active(resid, 0.5, active_tol=0.02)
        assert mask.all()

    def test_single_dominant_residual(self):
        codes, sec = self.make_codes_and_secants(seed=1)
        dh = hamming_pairs(codes, sec.i, sec.j)
        c = dh * 1.0 + 0.1  # uniform small residuals
        c[7] = dh[7] + 10.0  # one dominant offender
        sec2 = SecantBatch(sec.i, sec.j, c)
        resid = np.abs(1.0 * hamming_pairs(codes, sec2.i, sec2.j) - sec2.c)
        mask = identify_active(resid, 10.0, active_tol=0.02)
        assert mask[7] and mask.sum() == 1

    def test_matches_inline_filter(self):
        codes, sec = self.make_codes_and_secants(seed=2)
        lam, delta_hat, tol = 0.37, 1.2, 0.05
        resid = np.abs(lam * hamming_pairs(codes, sec.i, sec.j) - sec.c)
        mask = identify_active(resid, delta_hat, tol)
        np.testing.assert_array_equal(mask, resid >= (1 - tol) * delta_hat)


class TestScanViolators:
    def setup_method(self):
        self.data = gen_random_dataset(50, 6, seed=4)
        self.w = random_projection_matrix(5, 6, 9)
        self.codes = hash_matrix(self.w, self.data.points)

    def test_infinite_delta_no_violators(self):
        violators, _ = scan_violators(self.codes, self.data, 1.0, math.inf, 100)
        assert len(violators) == 0

    def test_zero_delta_everything_violates(self):
        violators, _ = scan_violators(self.codes, self.data, 1.0, 0.0, 40)
        assert len(violators) == 40
        resid = np.abs(1.0 * hamming_pairs(self.codes, violators.i, violators.j)
                       - violators.c)
        assert np.all(resid > 0)

    def test_matches_exhaustive_filter(self):
        lam = 0.4
        delta_hat = 1.1
        violators, _ = scan_violators(self.codes, self.data, lam, delta_hat,
                                      10_000)
        got = set(zip(violators.i.tolist(), violators.j.tolist()))
        want = set()
        for i in range(1, 50):
            for j in range(i):
                dh = int(np.bitwise_count(
                    self.codes.packed[i] ^ self.codes.packed[j]).sum())
                c = float(np.linalg.norm(self.data.points[i] - self.data.points[j]))
                if abs(lam * dh - c) > delta_hat:
                    want.add((i, j))
        assert got == want and len(violators) > 0

    def test_batch_limit_below_one_rejected(self):
        # a batch of 0 would read as a clean scan while pairs still violate
        violators, _ = scan_violators(self.codes, self.data, 0.4, 1.1, 10_000)
        assert len(violators) > 0
        for batch_limit in (0, -1):
            with pytest.raises(ValueError, match="batch_limit must be >= 1"):
                scan_violators(self.codes, self.data, 0.4, 1.1, batch_limit)

    def test_threaded_matches_serial(self):
        a, ra = scan_violators(self.codes, self.data, 0.4, 1.0, 37)
        b, rb = scan_violators(self.codes, self.data, 0.4, 1.0, 37, n_threads=3)
        assert ra == rb
        np.testing.assert_array_equal(a.i, b.i)
        np.testing.assert_array_equal(a.j, b.j)

    def test_batch_is_the_top_residuals(self, monkeypatch):
        # translating squares take few distinct distances and Hamming levels,
        # so residuals tie exactly and a batch can end inside a tie; one row
        # per tile spreads the stream over every worker
        monkeypatch.setattr(core, "TILE_PAIRS", 64)
        data = gen_translating_squares(grid=8, square=3)
        codes = hash_matrix(random_projection_matrix(6, data.n, 2), data.points)
        lam = 0.5
        i, j = decode_pair_indices(np.arange(secant_count(data.q)))
        pts, packed = data.points, codes.packed
        resid = [abs(lam * int(np.bitwise_count(packed[a] ^ packed[b]).sum())
                     - float(np.linalg.norm(pts[a] - pts[b])))
                 for a, b in zip(i, j)]
        delta_hat = float(np.median(resid))
        ranked = sorted((t for t, r in enumerate(resid) if r > delta_hat),
                        key=lambda t: (-resid[t], t))
        ties = [k for k in range(1, len(ranked))
                if resid[ranked[k - 1]] == resid[ranked[k]]]
        assert len(ties) >= 4  # batches that split a tie
        for k in [*ties[::len(ties) // 4], len(ranked) + 5]:
            for n_threads in (1, 2, 3):
                got, _ = scan_violators(codes, data, lam, delta_hat, k,
                                        n_threads=n_threads)
                # the k largest, ties to the smaller stream position, in
                # stream order
                np.testing.assert_array_equal(got.keys(), sorted(ranked[:k]))


class TestUnion:
    def test_each_pair_once(self):
        active = SecantBatch([2, 5, 7], [0, 1, 3], [1.0, 2.0, 3.0])
        violators = SecantBatch([5, 6, 7, 9], [1, 2, 3, 4], [9.0, 4.0, 9.0, 5.0])
        merged = _union(active, violators)
        keys = merged.keys()
        assert np.unique(keys).size == keys.size == 5
        # resident secants keep their place and target; only fresh ones join
        np.testing.assert_array_equal(merged.i, [2, 5, 7, 6, 9])
        np.testing.assert_array_equal(merged.j, [0, 1, 3, 2, 4])
        np.testing.assert_array_equal(merged.c, [1.0, 2.0, 3.0, 4.0, 5.0])


class TestTrainCg:
    def test_end_to_end_terminates_clean(self):
        data = preprocess(gen_random_dataset(60, 10, seed=5).points)
        cfg = small_config(init_sample_size=200, violator_batch=100,
                           max_generations=25, scan_seed=7)
        records = []
        model, report = train_nibh_cg(data, 8, cfg, progress=records.append)
        assert report.fully_satisfied, "CG should satisfy all pairs at desk scale"
        # the run returns its lowest refit delta
        full = [rec["full_delta"] for rec in report.history]
        assert max_distortion(model, data).delta == min(full)
        # certificate: the last generation scanned clean at (lambda*,
        # delta_hat), which makes delta_hat its refit delta over every pair
        last = report.history[-1]
        assert last["violators_found"] == 0
        assert last["full_delta"] == last["delta_hat"]
        # memory contract
        assert report.peak_resident_secants <= report.init_size + \
            report.generations * cfg.violator_batch
        # progress gets every history record, with the documented fields
        assert records == report.history
        assert set(records[0]) == {"generation", "active_size", "violators_found",
                                   "delta_hat", "full_delta", "lambda"}

    def test_every_solve_prices_at_its_own_lambda_star(self, monkeypatch):
        data = preprocess(gen_random_dataset(40, 8, seed=6).points)
        cfg = small_config(init_sample_size=100, violator_batch=60,
                           max_generations=10)
        solves = []

        def recording_train_nibh(data, secants, *args, **kwargs):
            model, state = train_nibh(data, secants, *args, **kwargs)
            solves.append((model, secants))
            return model, state

        monkeypatch.setattr(colgen, "train_nibh", recording_train_nibh)
        model, report = train_nibh_cg(data, 6, cfg)
        sample = SecantBatch.sample(data.points, 100, cfg.scan_seed)
        np.testing.assert_array_equal(solves[0][1].keys(), sample.keys())
        # each scan prices at its solve's lambda* over the secants that solve
        # trained on, and delta_hat is their distortion there
        assert len(solves) == len(report.history)
        for (solved, secants), rec in zip(solves, report.history):
            dh = hamming_pairs(hash_codes(solved, data), secants.i, secants.j)
            assert fit_lambda_chebyshev(dh.astype(np.float64), secants.c) == \
                (rec["lambda"], rec["delta_hat"])
        # the scale is refitted, not frozen, and the model returned carries
        # the one its scan priced at
        lams = [rec["lambda"] for rec in report.history]
        assert len(set(lams)) > 1
        assert report.best_generation > 0
        assert model.lam == lams[report.best_generation]

    def test_one_pair_pass_per_generation(self, monkeypatch):
        # a generation's violator scan is also its refit distortion pass:
        # one walk of the pair stream, one screen of each tile
        passes, screens = [], []
        level_candidates, screen = metrics._level_candidates, core.PairTiles.screen

        def counted_pass(*args, **kwargs):
            passes.append(args[0])
            return level_candidates(*args, **kwargs)

        def counted_screen(self, *args):
            screens.append(args[:2])
            return screen(self, *args)

        monkeypatch.setattr(metrics, "_level_candidates", counted_pass)
        monkeypatch.setattr(core.PairTiles, "screen", counted_screen)
        monkeypatch.setattr(core, "TILE_PAIRS", 256)  # several tiles a pass
        data = preprocess(gen_random_dataset(40, 8, seed=6).points)
        cfg = small_config(init_sample_size=100, violator_batch=60,
                           max_generations=3)
        _, report = train_nibh_cg(data, 6, cfg)
        assert len(passes) == report.generations + 1
        assert screens == row_tiles(data.q) * len(passes)

    def test_generation_cap_flags_unsatisfied(self):
        # one generation with a tiny batch cannot cover all violators
        data = preprocess(gen_random_dataset(50, 8, seed=7).points)
        inner = SolverConfig(max_outer_iters=3, inner_gd_iters=5)
        cfg = CgConfig(init_sample_size=20, violator_batch=5,
                       max_generations=1, inner=inner)
        model, report = train_nibh_cg(data, 4, cfg)
        assert report.generations == 1
        assert not report.fully_satisfied

    def test_exhausted_budget_returns_best_generation(self):
        # seed 4 returns a generation before the last, whose active set
        # differs from the last one's
        for seed in (7, 4):
            data = preprocess(gen_random_dataset(50, 8, seed=seed).points)
            inner = SolverConfig(max_outer_iters=4, inner_gd_iters=5)
            cfg = CgConfig(init_sample_size=20, violator_batch=5,
                           max_generations=5, inner=inner)
            model, report = train_nibh_cg(data, 4, cfg)
            assert not report.fully_satisfied
            full = [rec["full_delta"] for rec in report.history]
            assert [rec["generation"] for rec in report.history] == \
                list(range(report.generations + 1))
            best = len(full) - 1 - full[::-1].index(min(full))
            assert report.best_generation == best
            assert max_distortion(model, data).delta == min(full)
            # the record the CLI reports delta_hat and active_size from
            assert report.history[best]["generation"] == best
            assert report.history[best]["lambda"] == model.lam

    def test_clean_scan_returns_lowest_delta_generation(self, monkeypatch):
        # generation 0 scans violators at delta 1.0, generation 1 scans clean
        # at delta 2.0: the clean scan stops the run, generation 0 returns
        data = preprocess(gen_random_dataset(30, 6, seed=3).points)
        cfg = small_config(init_sample_size=60, violator_batch=20,
                           max_generations=5)
        solves = []

        def recording_train_nibh(*args, **kwargs):
            model, state = train_nibh(*args, **kwargs)
            solves.append(model)
            return model, state

        def scripted_scan(codes, data, *args):
            violators, rep = scan_violators(codes, data, *args)
            if len(solves) == 1:
                return (SecantBatch.from_pairs(data.points, [2, 5], [0, 1]),
                        dataclasses.replace(rep, delta=1.0))
            return violators.subset([]), dataclasses.replace(rep, delta=2.0)

        monkeypatch.setattr(colgen, "train_nibh", recording_train_nibh)
        monkeypatch.setattr(colgen, "scan_violators", scripted_scan)
        model, report = train_nibh_cg(data, 4, cfg)
        assert report.fully_satisfied and report.generations == 1
        assert [rec["full_delta"] for rec in report.history] == [1.0, 2.0]
        assert report.best_generation == 0
        assert model.w.tobytes() == solves[0].w.tobytes()
        assert model.w.tobytes() != solves[1].w.tobytes()
        assert report.history[0]["generation"] == 0
        assert report.history[0]["lambda"] == solves[0].lam

    def test_clean_scan_returns_scanned_generation(self):
        # the first sample holds every pair, so the first scan is clean
        data = preprocess(gen_random_dataset(8, 4, seed=9).points)
        cfg = small_config(init_sample_size=secant_count(8), max_generations=3)
        model, report = train_nibh_cg(data, 4, cfg)
        assert report.fully_satisfied
        assert report.generations == report.best_generation == 0
        assert max_distortion(model, data).delta == \
            report.history[0]["full_delta"]

    def test_reproducible(self):
        data = preprocess(gen_random_dataset(40, 8, seed=8).points)
        cfg = small_config(init_sample_size=80, violator_batch=50,
                           max_generations=8, scan_seed=3)
        m1, r1 = train_nibh_cg(data, 5, cfg)
        m2, r2 = train_nibh_cg(data, 5, cfg)
        assert m1.w.tobytes() == m2.w.tobytes()
        assert r1.history == r2.history

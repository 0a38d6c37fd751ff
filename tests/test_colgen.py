import io
import json
import math

import numpy as np
import pytest

from isohash import core
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
    secant_count,
)
from isohash.dataio import gen_random_dataset, gen_translating_squares, preprocess
from isohash.metrics import max_distortion


def small_config(**kw):
    inner = kw.pop("inner", SolverConfig(max_outer_iters=15, inner_gd_iters=25))
    return CgConfig(inner=inner, **kw)


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

    def test_cap_keeps_largest(self):
        codes, sec = self.make_codes_and_secants(seed=3)
        resid = np.abs(1.0 * hamming_pairs(codes, sec.i, sec.j) - sec.c)
        mask = identify_active(resid, 0.0, 0.0, cap=5)
        assert mask.sum() == 5
        assert resid[mask].min() >= np.sort(resid)[-5] - 1e-12


class TestScanViolators:
    def setup_method(self):
        self.data = gen_random_dataset(50, 6, seed=4)
        self.w = random_projection_matrix(5, 6, 9)
        self.codes = hash_matrix(self.w, self.data.points)

    def test_infinite_delta_no_violators(self):
        violators, scanned_all = scan_violators(
            self.codes, self.data, 1.0, math.inf, 100
        )
        assert len(violators) == 0 and scanned_all

    def test_zero_delta_everything_violates(self):
        violators, scanned_all = scan_violators(
            self.codes, self.data, 1.0, 0.0, 40
        )
        assert len(violators) == 40 and not scanned_all
        resid = np.abs(1.0 * hamming_pairs(self.codes, violators.i, violators.j)
                       - violators.c)
        assert np.all(resid > 0)

    def test_matches_exhaustive_filter(self):
        lam = 0.4
        delta_hat = 1.1
        violators, scanned_all = scan_violators(
            self.codes, self.data, lam, delta_hat, 10_000
        )
        got = set(zip(violators.i.tolist(), violators.j.tolist()))
        want = set()
        for i in range(1, 50):
            for j in range(i):
                dh = int(np.bitwise_count(
                    self.codes.packed[i] ^ self.codes.packed[j]).sum())
                c = float(np.linalg.norm(self.data.points[i] - self.data.points[j]))
                if abs(lam * dh - c) > delta_hat:
                    want.add((i, j))
        assert got == want
        assert not scanned_all  # violators exist, so the flag stays False

    def test_threaded_matches_serial(self):
        a, sa = scan_violators(self.codes, self.data, 0.4, 1.0, 37)
        b, sb = scan_violators(self.codes, self.data, 0.4, 1.0, 37, n_threads=3)
        assert sa == sb
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
                got, clean = scan_violators(codes, data, lam, delta_hat, k,
                                            n_threads=n_threads)
                # the k largest, ties to the smaller stream position, in
                # stream order
                np.testing.assert_array_equal(got.keys(), sorted(ranked[:k]))
                assert not clean


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
        sink = io.StringIO()
        model, report = train_nibh_cg(data, 8, cfg, progress=sink)
        assert report.fully_satisfied, "CG should satisfy all pairs at desk scale"
        # termination soundness: a fresh full scan at the final state is clean
        codes = hash_codes(model, data)
        violators, scanned_all = scan_violators(
            codes, data, model.lam, report.delta_hat, 1000
        )
        assert len(violators) == 0 and scanned_all
        # independent full-stream recompute stays within delta_hat
        rep = max_distortion(model, data, lam=model.lam)
        assert rep.delta <= report.delta_hat * (1 + 1e-9)
        # memory contract
        assert report.peak_resident_secants <= report.init_size + \
            report.generations * cfg.violator_batch
        # progress records are JSON lines with the documented fields
        lines = sink.getvalue().strip().splitlines()
        assert len(lines) == len(report.history)
        rec = json.loads(lines[0])
        assert set(rec) == {"generation", "active_size", "violators_found",
                            "delta_hat", "full_delta"}

    def test_lambda_frozen_after_first_solve(self):
        data = preprocess(gen_random_dataset(40, 8, seed=6).points)
        cfg = small_config(init_sample_size=100, violator_batch=60,
                           max_generations=10)
        first, _ = train_nibh(
            data, SecantBatch.sample(data.points, 100, cfg.scan_seed), 6,
            cfg.inner)
        model, report = train_nibh_cg(data, 6, cfg)
        # a re-solve's model carries the scale the first solve fitted
        assert report.best_generation > 0
        assert model.lam == first.lam

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
            assert report.delta_hat == report.history[best]["delta_hat"]
            assert report.active_size == report.history[best]["active_size"]

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

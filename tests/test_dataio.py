import struct

import numpy as np
import pytest

from isohash.core import HashModel, secant_count
from isohash.dataio import (
    DataFormatError,
    bre_secant_selection,
    gen_random_dataset,
    gen_translating_squares,
    load_any,
    load_binary,
    load_csv,
    load_idx,
    load_model,
    preprocess,
    preprocess_with,
    save_binary,
    save_model,
)


class TestPreprocess:
    def test_antipodal_points(self):
        ds = preprocess(np.array([[3.0, 0.0], [-3.0, 0.0]]))
        np.testing.assert_allclose(np.linalg.norm(ds.points, axis=1), 1.0)
        np.testing.assert_allclose(ds.mean, 0.0)

    def test_idempotent_on_symmetric_data(self):
        rng = np.random.default_rng(3)
        half = rng.standard_normal((10, 6))
        sym = np.vstack([half, -half])  # exact zero mean by construction
        once = preprocess(sym)
        twice = preprocess(once.points)
        np.testing.assert_allclose(twice.points, once.points, atol=1e-12)

    def test_unit_norms(self):
        rng = np.random.default_rng(4)
        ds = preprocess(rng.standard_normal((100, 50)))
        np.testing.assert_allclose(np.linalg.norm(ds.points, axis=1), 1.0, atol=1e-12)
        assert ds.normalized

    def test_zero_row_names_index(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0], [4.0, 0.0]])
        # rows 0 and 1 coincide with each other but not with the mean; make
        # a row equal to the mean instead
        x = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])  # row 2 == mean
        with pytest.raises(DataFormatError, match="row 2"):
            preprocess(x)

    def test_preprocess_with_reproduces_training_transform(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((20, 7))
        ds = preprocess(raw)
        again = preprocess_with(raw, ds.mean)
        np.testing.assert_array_equal(again.points, ds.points)


class TestBreSelection:
    def test_counts_at_q100(self):
        ds = gen_random_dataset(100, 20, seed=1)
        batch = bre_secant_selection(ds)
        assert secant_count(100) == 4950
        # floor(0.05 * 4950) = 247, floor(0.02 * 4950) = 99
        assert len(batch) == 247 + 99
        assert int((batch.c == 0.0).sum()) == 247

    def test_low_pairs_carry_zero_targets(self):
        ds = gen_random_dataset(30, 5, seed=2)
        batch = bre_secant_selection(ds, 0.10, 0.05)
        zeros = batch.c == 0.0
        total = secant_count(30)
        assert int(zeros.sum()) == int(0.10 * total + 1e-9)

    def test_high_pairs_match_brute_force(self):
        ds = gen_random_dataset(30, 5, seed=7)
        batch = bre_secant_selection(ds, 0.10, 0.02)
        n_high = int(0.02 * secant_count(30) + 1e-9)
        # exhaustive top-2% by distance
        dists = []
        for i in range(1, 30):
            for j in range(i):
                dists.append((float(np.linalg.norm(ds.points[i] - ds.points[j])), i, j))
        dists.sort()
        want = {(i, j) for _, i, j in dists[-n_high:]}
        got = {
            (int(i), int(j))
            for i, j, c in zip(batch.i, batch.j, batch.c)
            if c > 0.0
        }
        assert got == want
        # and their targets are the true distances
        for i, j, c in zip(batch.i, batch.j, batch.c):
            if c > 0:
                assert c == pytest.approx(np.linalg.norm(ds.points[i] - ds.points[j]))

    def test_too_small_q_errors(self):
        ds = gen_random_dataset(5, 3, seed=0)
        with pytest.raises(ValueError, match="zero secants"):
            bre_secant_selection(ds)  # 10 pairs * 0.02 floors to 0


class TestGenerators:
    def test_random_defaults(self):
        ds = gen_random_dataset(50, seed=9)
        assert ds.points.shape == (50, 100)

    def test_random_deterministic(self):
        a = gen_random_dataset(10, 4, seed=5)
        b = gen_random_dataset(10, 4, seed=5)
        np.testing.assert_array_equal(a.points, b.points)

    def test_random_unit_variance(self):
        ds = gen_random_dataset(2000, 50, seed=11)
        var = ds.points.var(axis=0)
        assert abs(var.mean() - 1.0) < 0.05

    def test_translating_squares_combinatorics(self):
        ds = gen_translating_squares()
        assert ds.points.shape == (64, 100)
        np.testing.assert_array_equal(ds.points.sum(axis=1), 9.0)
        assert np.isin(ds.points, (0.0, 1.0)).all()
        assert len({row.tobytes() for row in ds.points}) == 64

    def test_translating_squares_adjacent_distance(self):
        ds = gen_translating_squares()
        # one-pixel horizontal shift: 3 pixels leave, 3 enter -> sqrt(6)
        d = np.linalg.norm(ds.points[0] - ds.points[1])
        assert d == pytest.approx(np.sqrt(6.0))


class TestCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("1.5,2.25\n-0.5,3.0\n0.125,7.0\n")
        ds = load_csv(p)
        np.testing.assert_array_equal(
            ds.points, [[1.5, 2.25], [-0.5, 3.0], [0.125, 7.0]]
        )

    def test_nan_rejected_with_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n3.0,nan\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_csv(p)

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_inf_rejected_with_line(self, tmp_path, value):
        p = tmp_path / "bad.csv"
        p.write_text(f"1.0,2.0\n{value},3.0\n5.0,6.0\n")
        with pytest.raises(DataFormatError, match="non-finite value at line 2"):
            load_csv(p)

    def test_ragged_rejected_with_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_csv(p)


class TestBinaryDataset:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        ds = gen_random_dataset(8, 5, seed=6)
        p1 = tmp_path / "a.ds"
        p2 = tmp_path / "b.ds"
        save_binary(ds, p1)
        loaded = load_binary(p1)
        save_binary(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert not loaded.normalized

    def test_normalized_flag_survives(self, tmp_path):
        ds = preprocess(np.random.default_rng(7).standard_normal((6, 4)))
        p = tmp_path / "n.ds"
        save_binary(ds, p)
        loaded = load_binary(p)
        assert loaded.normalized
        np.testing.assert_allclose(np.linalg.norm(loaded.points, axis=1), 1.0,
                                   atol=1e-12)

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        ds = gen_random_dataset(4, 3, seed=1)
        p = tmp_path / "t.ds"
        save_binary(ds, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-5])
        with pytest.raises(DataFormatError, match=r"43 bytes, expected 48"):
            load_binary(p)

    def test_normalized_zero_row_names_row(self, tmp_path):
        pts = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, 0.0]], dtype="<f4")
        p = tmp_path / "z.ds"
        p.write_bytes(b"NIBHDS1" + struct.pack("<QQB", 3, 2, 1) + pts.tobytes())
        with pytest.raises(DataFormatError, match="row 2 is zero"):
            load_binary(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.ds"
        p.write_bytes(b"NOTDATA" + b"\x00" * 40)
        with pytest.raises(DataFormatError, match="magic"):
            load_binary(p)


class TestModelFile:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        model = HashModel(
            w=rng.standard_normal((3, 5)),
            lam=0.137921325,
            alpha=10.0,
            mean=rng.standard_normal(5),
            normalized=True,
        )
        p1 = tmp_path / "m1.model"
        p2 = tmp_path / "m2.model"
        save_model(model, p1)
        loaded = load_model(p1)
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(loaded.w, model.w)
        assert loaded.lam == model.lam
        assert loaded.alpha == model.alpha
        np.testing.assert_array_equal(loaded.mean, model.mean)

    def test_truncated_w_payload(self, tmp_path):
        model = HashModel(w=np.eye(2), lam=1.0, alpha=10.0, mean=np.zeros(2),
                          normalized=False)
        p = tmp_path / "m.model"
        save_model(model, p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(DataFormatError, match="24 bytes, expected 32"):
            load_model(p)


class TestIdx:
    def make_idx(self, tmp_path, images):
        images = np.asarray(images, dtype=np.uint8)
        count, rows, cols = images.shape
        blob = struct.pack(">BBBB", 0, 0, 0x08, 3)
        blob += struct.pack(">III", count, rows, cols)
        blob += images.tobytes()
        p = tmp_path / "imgs.idx"
        p.write_bytes(blob)
        return p

    def test_parses_images(self, tmp_path):
        imgs = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
        ds = load_idx(self.make_idx(tmp_path, imgs))
        assert ds.points.shape == (2, 12)
        np.testing.assert_array_equal(ds.points[1], imgs[1].ravel())

    def test_rejects_wrong_dtype_code(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(struct.pack(">BBBB", 0, 0, 0x0D, 3) + b"\x00" * 12)
        with pytest.raises(DataFormatError, match="dtype"):
            load_idx(p)

    def test_truncation_detected(self, tmp_path):
        imgs = np.ones((2, 2, 2), dtype=np.uint8)
        p = self.make_idx(tmp_path, imgs)
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(DataFormatError, match="expected 8"):
            load_idx(p)


class TestLoadAny:
    def test_dispatch(self, tmp_path):
        ds = gen_random_dataset(4, 3, seed=2)
        b = tmp_path / "x.ds"
        save_binary(ds, b)
        assert load_any(b).points.shape == (4, 3)

        c = tmp_path / "x.csv"
        c.write_text("1,2\n3,4\n")
        assert load_any(c).points.shape == (2, 2)

        imgs = np.zeros((3, 2, 2), dtype=np.uint8)
        blob = struct.pack(">BBBB", 0, 0, 0x08, 3) + struct.pack(">III", 3, 2, 2)
        i = tmp_path / "x.idx"
        i.write_bytes(blob + imgs.tobytes())
        assert load_any(i).points.shape == (3, 4)

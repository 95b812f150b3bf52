"""Preference factors: math, gradients, and the checkpoint format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkrec import factors as fa
from walkrec.errors import ParseError

from tests.conftest import random_factors


class TestSigmoid:
    def test_values(self):
        assert fa.sigmoid(0.0) == pytest.approx(0.5)
        assert fa.sigmoid(math.log(3)) == pytest.approx(0.75)
        assert fa.sigmoid(-math.log(3)) == pytest.approx(0.25)

    def test_extreme_arguments_stay_finite(self):
        z = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
        s = fa.sigmoid(z)
        assert np.all(np.isfinite(s))
        assert s[0] == 0.0 and s[-1] == 1.0

    def test_clamp_window(self):
        s = fa.clamped_sigmoid(np.array([-900.0, 900.0]))
        assert s[0] == fa.TAU
        assert s[1] == 1.0 - fa.TAU

    @given(st.floats(-700, 700))
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, z):
        assert fa.sigmoid(z) + fa.sigmoid(-z) == pytest.approx(1.0, abs=1e-12)


class TestInitAndPredict:
    def test_init_reproducible(self):
        a = fa.init_factors(6, 8, 4, seed=3)
        b = fa.init_factors(6, 8, 4, seed=3)
        assert np.array_equal(a.P, b.P) and np.array_equal(a.Q, b.Q)
        c = fa.init_factors(6, 8, 4, seed=4)
        assert not np.array_equal(a.P, c.P)

    def test_init_scale(self):
        f = fa.init_factors(400, 400, 16, seed=0, scale=0.1)
        assert abs(float(f.P.std()) - 0.1) < 0.005

    def test_predict_matches_dot(self):
        f = random_factors(5, 7, 3, seed=1)
        got = [fa.predict(f, 0, 6), fa.predict(f, 4, 2)]
        want = [fa.sigmoid(float(f.P[0] @ f.Q[6])),
                fa.sigmoid(float(f.P[4] @ f.Q[2]))]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_predict_pairs_grid(self):
        f = random_factors(4, 6, 3, seed=2)
        us, its = np.indices((4, 6))
        got = fa.predict_pairs(f, us.ravel(), its.ravel()).reshape(4, 6)
        want = fa.sigmoid(f.P @ f.Q.T)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_predict_bounds(self):
        f = random_factors(3, 3, 2, seed=0)
        with pytest.raises(IndexError):
            fa.predict(f, 3, 0)
        with pytest.raises(IndexError):
            fa.predict(f, 0, -1)


class TestBernoulliLikelihood:
    def test_hand_values(self):
        assert fa.bern_ll(1.0, 0.5) == pytest.approx(math.log(0.5), abs=1e-12)
        assert fa.bern_ll(0.0, 0.25) == pytest.approx(math.log(0.75), abs=1e-12)
        # mixed "label" is legal: a*log b + (1-a)*log(1-b)
        got = fa.bern_ll(0.3, 0.6)
        assert got == pytest.approx(0.3 * math.log(0.6) + 0.7 * math.log(0.4))

    def test_probability_clamped_not_label(self):
        assert np.isfinite(fa.bern_ll(1.0, 0.0))
        assert np.isfinite(fa.bern_ll(0.0, 1.0))
        assert fa.bern_ll(1.0, 0.0) == pytest.approx(math.log(fa.TAU))


class TestGradients:
    def test_pair_gradient_closed_form(self):
        f = random_factors(3, 4, 2, seed=5)
        u, i, x = 1, 2, 1.0
        gp, gq = fa.grad_theta_pair(f, u, i, x, l2=0.0)
        r = x - fa.sigmoid(float(f.P[u] @ f.Q[i]))
        np.testing.assert_allclose(gp, r * f.Q[i], rtol=1e-12)
        np.testing.assert_allclose(gq, r * f.P[u], rtol=1e-12)

    def test_pair_gradient_l2(self):
        f = random_factors(3, 4, 2, seed=6)
        u, i, x, l2 = 0, 3, 0.0, 0.1
        gp, gq = fa.grad_theta_pair(f, u, i, x, l2=l2)
        r = x - fa.sigmoid(float(f.P[u] @ f.Q[i]))
        np.testing.assert_allclose(gp, r * f.Q[i] - l2 * f.P[u], rtol=1e-12)
        np.testing.assert_allclose(gq, r * f.P[u] - l2 * f.Q[i], rtol=1e-12)

    def test_pair_gradient_finite_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = fa.PreferenceFactors(P=rng.normal(0, 0.5, (2, 3)),
                                     Q=rng.normal(0, 0.5, (2, 3)))
            x = float(rng.integers(0, 2))
            gp, _ = fa.grad_theta_pair(f, 0, 1, x, l2=0.0)
            h = 1e-6
            for j in range(3):
                fp = f.P.copy(); fp[0, j] += h
                fm = f.P.copy(); fm[0, j] -= h
                up = fa.bern_ll(x, fa.sigmoid(float(fp[0] @ f.Q[1])))
                dn = fa.bern_ll(x, fa.sigmoid(float(fm[0] @ f.Q[1])))
                fd = (up - dn) / (2 * h)
                assert abs(fd - gp[j]) / max(abs(fd), abs(gp[j]), 1e-8) < 1e-4

    def test_accumulate_matches_loop_with_duplicates(self):
        f = random_factors(4, 5, 3, seed=8)
        users = np.array([0, 2, 0, 0, 3])
        items = np.array([1, 4, 1, 2, 0])
        labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        weights = np.array([1.0, 2.0, 0.5, 1.0, 3.0])
        dP, dQ = fa.accumulate_pair_gradients(f, users, items, labels, weights)
        eP = np.zeros_like(f.P)
        eQ = np.zeros_like(f.Q)
        for u, i, x, w in zip(users, items, labels, weights):
            r = w * (x - fa.sigmoid(float(f.P[u] @ f.Q[i])))
            eP[u] += r * f.Q[i]
            eQ[i] += r * f.P[u]
        np.testing.assert_allclose(dP, eP, rtol=1e-12)
        np.testing.assert_allclose(dQ, eQ, rtol=1e-12)

    def test_accumulate_default_weights(self):
        f = random_factors(2, 2, 2, seed=9)
        users = np.array([0, 1])
        items = np.array([0, 1])
        labels = np.array([1.0, 0.0])
        a = fa.accumulate_pair_gradients(f, users, items, labels)
        b = fa.accumulate_pair_gradients(f, users, items, labels,
                                         np.ones(2))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_accumulate_reuses_given_predictions(self):
        f = random_factors(3, 4, 2, seed=11)
        users = np.array([0, 2, 2])
        items = np.array([3, 1, 3])
        labels = np.array([1.0, 0.0, 1.0])
        sig = fa.predict_pairs(f, users, items)
        a = fa.accumulate_pair_gradients(f, users, items, labels)
        b = fa.accumulate_pair_gradients(f, users, items, labels, sig=sig)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestPairDots:
    def test_blocks_match_one_shot_einsum(self, monkeypatch):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(9, 4))
        B = rng.normal(size=(7, 4))
        rows = rng.integers(0, 9, size=50)
        cols = rng.integers(0, 7, size=50)
        want = np.einsum("ij,ij->i", A[rows], B[cols])
        # 10 cells over 4 columns: blocks of 2 pairs, 25 boundaries crossed
        monkeypatch.setattr(fa, "PAIR_DOT_CELLS", 10)
        np.testing.assert_array_equal(fa.pair_dots(A, rows, B, cols), want)
        # a block narrower than one row still takes a row at a time
        monkeypatch.setattr(fa, "PAIR_DOT_CELLS", 1)
        np.testing.assert_array_equal(fa.pair_dots(A, rows, B, cols), want)

    def test_empty_pairs(self):
        A = np.ones((3, 2))
        got = fa.pair_dots(A, np.zeros(0, dtype=np.int64), A,
                           np.zeros(0, dtype=np.int64))
        assert got.shape == (0,) and got.dtype == np.float64


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        f = random_factors(5, 7, 3, seed=10)
        path = str(tmp_path / "factors.bin")
        fa.save_factors(path, f)
        back = fa.load_factors(path)
        assert np.array_equal(back.P, f.P)
        assert np.array_equal(back.Q, f.Q)

    def test_byte_stable(self, tmp_path):
        f = random_factors(3, 4, 2, seed=11)
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        fa.save_factors(p1, f)
        fa.save_factors(p2, f)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ParseError):
            fa.load_factors(str(path))

    def test_truncated(self, tmp_path):
        f = random_factors(4, 4, 2, seed=12)
        path = tmp_path / "t.bin"
        fa.save_factors(str(path), f)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ParseError):
            fa.load_factors(str(path))


class TestModelConfig:
    def test_defaults(self):
        cfg = fa.ModelConfig()
        assert cfg.d == 32 and cfg.epsilon == 0.001 and cfg.eta == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"d": 0}, {"epsilon": 0.0}, {"epsilon": 1.0}, {"eta": 0.0},
        {"eta": 1.0}, {"lr_theta": 0.0}, {"lr_phi": -1.0}, {"l2_theta": -0.1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            fa.ModelConfig(**kwargs)

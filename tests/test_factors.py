"""Preference factors: math, gradients, and the checkpoint format."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from walkrec import factors as fa
from walkrec import trainer
from walkrec import walker as wk
from walkrec.errors import ParseError
from walkrec.graphnet import build_social_graph

from tests.conftest import random_factors, random_matrix, random_social


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

    @pytest.mark.parametrize("shape", [(-1,), (-1, 7)])
    def test_bitwise_equal_to_masked_reference(self, shape):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                            709.8, -709.8, 745.2, -745.2, 5e-324, -5e-324,
                            2.2e-308])
        # quiet and signalling NaNs carrying payloads of either sign
        nans = np.array([0x7FF8000000000123, 0xFFF8000000000456,
                         0x7FF0000000000001], dtype=np.uint64).view(np.float64)
        draws = np.random.default_rng(0).normal(0.0, 5.0, size=4000)
        z = np.concatenate([special, nans, np.tile(special, 4), draws])
        z = z[: z.size - z.size % 7].reshape(shape)
        got, want = fa.sigmoid(z), masked_sigmoid(z)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        got = fa.clamped_sigmoid(z)
        want = np.clip(masked_sigmoid(z), fa.TAU, 1.0 - fa.TAU)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_scalar_matches_masked_reference(self):
        for z in (0.0, -0.0, 3.5, -3.5, np.nan):
            got = fa.sigmoid(z)
            assert got.shape == ()
            assert got.tobytes() == masked_sigmoid(z).tobytes()


def masked_sigmoid(z):
    """The logistic function as it was computed by splitting on sign."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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


def coo_gradients(f, users, items, labels, weights=None):
    """accumulate_pair_gradients through a COO->CSR conversion of the
    residuals, the reference its direct CSR build must match bit for bit."""
    r = np.asarray(labels, dtype=np.float64) - fa.predict_pairs(f, users, items)
    if weights is not None:
        r = r * weights
    S = sparse.csr_array((r, (users, items)), shape=(f.n, f.m))
    return S @ f.Q, S.T @ f.P


def gradient_case(name):
    """(users, items, labels, weights) on a 30 x 40 matrix."""
    train = random_matrix(30, 40, 0.15, seed=41)
    rng = np.random.default_rng(42)
    if name == "walk":
        social = build_social_graph(random_social(30, 4, seed=43))
        cfg = wk.SamplerConfig(alpha=40, beta=2.0, c=0.8, t_m=3)
        b = wk.WalkEngine(social, train, cfg).sample_batch(rng)
        return b.users, b.items, b.labels, None
    if name == "empty":
        none = np.zeros(0, dtype=np.int64)
        return none, none, np.zeros(0, dtype=np.uint8), None
    if name in ("unsorted users", "user without pairs"):
        users = rng.integers(0, 30, size=500)
        if name == "user without pairs":  # sorted int32, users 0, 7, 29 absent
            users = np.sort(users[(users != 0) & (users != 7) & (users != 29)])
            users = users.astype(np.int32)
        items = rng.integers(0, 40, size=users.size, dtype=users.dtype)
        return users, items, train.labels(users, items), None
    kind, weighted = name.split()
    b = wk.BaselineSampler(kind, train).sample(600, rng)
    return (b.users, b.items, b.labels,
            rng.random(b.size) * 3.0 if weighted == "weighted" else None)


GRADIENT_CASES = (["walk", "unsorted users", "empty", "user without pairs"]
                  + [f"{kind} {weighted}" for kind in wk.BASELINE_KINDS
                     for weighted in ("plain", "weighted")])


class TestDirectCsrGradients:
    @pytest.mark.parametrize("name", GRADIENT_CASES)
    def test_matches_coo_build_bit_for_bit(self, name):
        users, items, labels, weights = gradient_case(name)
        if name == "walk":
            assert (np.diff(users) >= 0).all() and np.unique(
                users * 40 + items).size < users.size  # repeated pairs
        if name == "unsorted users" or name.endswith("union plain"):
            assert (np.diff(users) < 0).any()
        f = random_factors(30, 40, 5, seed=44)
        kept = [a.copy() for a in (users, items, labels)]
        got = fa.accumulate_pair_gradients(f, users, items, labels, weights)
        want = coo_gradients(f, users, items, labels, weights)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        for before, after in zip(kept, (users, items, labels)):
            np.testing.assert_array_equal(after, before)
            assert after.dtype == before.dtype

    @pytest.mark.parametrize("name", ["walk", "unsorted users", "cobias plain"])
    def test_theta_step_leaves_the_batch_unchanged(self, name):
        users, items, labels, _ = gradient_case(name)
        batch = wk.SampleBatch(users=users, items=items, labels=labels,
                               expected_scale=1.0)
        kept = [a.copy() for a in (users, items, labels)]
        trainer.update_theta_from_batch(random_factors(30, 40, 5, seed=45),
                                        batch, lr=0.1, l2=0.01)
        for before, after in zip(kept, (batch.users, batch.items, batch.labels)):
            np.testing.assert_array_equal(after, before)


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
        back = fa.load_factors(path, 5, 7, 3)
        assert np.array_equal(back.P, f.P)
        assert np.array_equal(back.Q, f.Q)

    def test_byte_stable(self, tmp_path):
        f = random_factors(3, 4, 2, seed=11)
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        fa.save_factors(p1, f)
        fa.save_factors(p2, f)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_exact_layout(self, tmp_path):
        # magic, four little-endian u64 (version, n, m, d), then P and Q
        # row-major as little-endian float64
        f = random_factors(3, 4, 2, seed=11)
        path = tmp_path / "factors.bin"
        fa.save_factors(str(path), f)
        want = (b"PREFFACT" + struct.pack("<4Q", 1, 3, 4, 2)
                + f.P.astype("<f8").tobytes() + f.Q.astype("<f8").tobytes())
        assert path.read_bytes() == want

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ParseError, match="not a factors checkpoint"):
            fa.load_factors(str(path), 3, 4, 2)

    def test_truncated(self, tmp_path):
        f = random_factors(4, 4, 2, seed=12)
        path = tmp_path / "t.bin"
        fa.save_factors(str(path), f)
        blob = path.read_bytes()
        for cut in (3, 8):
            path.write_bytes(blob[:-cut])
            with pytest.raises(ParseError, match="payload is"):
                fa.load_factors(str(path), 4, 4, 2)

    @pytest.mark.parametrize("shape", [(4, 4, 3), (5, 4, 2), (4, 3, 2)])
    def test_other_shape(self, tmp_path, shape):
        path = str(tmp_path / "factors.bin")
        fa.save_factors(path, random_factors(4, 4, 2, seed=13))
        with pytest.raises(ParseError) as err:
            fa.load_factors(path, *shape)
        assert str(err.value) == (
            f"{path}:0: factors checkpoint header (1, 4, 4, 2) does not "
            f"match this run's (1, {shape[0]}, {shape[1]}, {shape[2]})")


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

    @pytest.mark.parametrize("field", ["epsilon", "eta", "lr_theta", "lr_phi",
                                       "l2_theta"])
    def test_rejects_non_finite(self, field):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                fa.ModelConfig(**{field: value})

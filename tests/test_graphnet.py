"""Graph parameterizations, softmax kernels, and transition operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkrec import graphnet as gn
from walkrec.errors import GuardError, ParseError

from tests.conftest import random_matrix, random_social


def fd_check(fn, x, grad, h=1e-6, tol=1e-4):
    """Central-difference check of grad against scalar fn at x."""
    flat = x.ravel()
    g = np.asarray(grad).ravel()
    for j in range(flat.size):
        keep = flat[j]
        flat[j] = keep + h
        up = fn()
        flat[j] = keep - h
        dn = fn()
        flat[j] = keep
        fd = (up - dn) / (2 * h)
        assert abs(fd - g[j]) / max(abs(fd), abs(g[j]), 1e-8) < tol


class TestSegmentOps:
    def test_segment_softmax_groups_sum_to_one(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(0, 3, 10)
        indptr = np.array([0, 3, 3, 7, 10])
        probs = gn.segment_softmax(logits, indptr)
        assert probs.shape == (10,)
        sums = [probs[lo:hi].sum() for lo, hi in zip(indptr[:-1], indptr[1:])]
        np.testing.assert_allclose(sums, [1.0, 0.0, 1.0, 1.0], atol=1e-12)

    def test_segment_softmax_extreme_logits(self):
        logits = np.array([1000.0, 999.0, -1000.0])
        probs = gn.segment_softmax(logits, np.array([0, 3]))
        assert np.all(np.isfinite(probs))
        assert probs.sum() == pytest.approx(1.0)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
           st.floats(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_segment_softmax_shift_invariant(self, vals, shift):
        logits = np.array(vals)
        indptr = np.array([0, len(vals)])
        a = gn.segment_softmax(logits, indptr)
        b = gn.segment_softmax(logits + shift, indptr)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_segment_softmax_vjp_finite_difference(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(0, 1, 7)
        indptr = np.array([0, 2, 5, 7])
        gbar = rng.normal(0, 1, 7)

        def objective():
            return float(gn.segment_softmax(logits, indptr) @ gbar)

        probs = gn.segment_softmax(logits, indptr)
        grad = gn.segment_softmax_vjp(probs, gbar, indptr)
        fd_check(objective, logits, grad)

    def test_row_softmax_and_vjp(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(0, 1, (3, 4))
        probs = gn.row_softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        gbar = rng.normal(0, 1, (3, 4))

        def objective():
            return float(np.sum(gn.row_softmax(logits) * gbar))

        grad = gn.row_softmax_vjp(probs, gbar)
        fd_check(objective, logits, grad)


class TestSocialTransition:
    def make(self, n=8, deg=3, seed=0):
        edges = random_social(n, deg, seed)
        params = gn.build_social_graph(edges, seed=seed)
        return params, gn.normalize_edges(params)

    def test_rows_are_distributions(self):
        params, mat = self.make()
        for u, row in enumerate(gn.dense_transition(mat)):
            assert row.min() >= 0.0
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert set(np.flatnonzero(row)) == set(params.edges.neighbors(u))

    def test_dense_matches_edge_loop(self):
        params, mat = self.make(n=7, deg=2, seed=3)
        want = np.zeros((7, 7))
        for u in range(7):
            for e in range(mat.indptr[u], mat.indptr[u + 1]):
                want[u, mat.targets[e]] += mat.probs[e]
        np.testing.assert_allclose(gn.dense_transition(params), want,
                                   atol=1e-15)

    def test_apply_W_matches_dense(self):
        params, mat = self.make(n=7, deg=2, seed=3)
        W = gn.dense_transition(params)
        G = np.random.default_rng(4).normal(0, 1, (7, 3))
        np.testing.assert_allclose(mat.apply_W(G), W @ G, atol=1e-12)
        np.testing.assert_allclose(mat.apply_WT(G), W.T @ G, atol=1e-12)

    def test_build_reproducible(self):
        edges = random_social(6, 2, seed=5)
        a = gn.build_social_graph(edges, seed=1)
        b = gn.build_social_graph(edges, seed=1)
        assert np.array_equal(a.logits, b.logits)


class TestPseudoTransition:
    def make(self, n=9, m=12, K=3, seed=0, density=0.25):
        train = random_matrix(n, m, density, seed=seed)
        params = gn.build_pseudo_graph(train, K=K, seed=seed)
        return train, params, gn.normalize_edges(params)

    def test_rows_are_distributions(self):
        train, params, mat = self.make()
        for row in gn.dense_transition(mat):
            assert row.min() >= -1e-15
            assert row.sum() == pytest.approx(1.0, abs=1e-10)

    def test_dense_matches_bridge_loop(self):
        train, params, mat = self.make(n=8, m=10, K=2, seed=6)
        want = (1.0 - mat.a)[:, None] * (mat.uc_probs @ mat.cu_probs)
        for u in range(train.n):
            for e in range(mat.ui_indptr[u], mat.ui_indptr[u + 1]):
                i = mat.ui_items[e]
                for f in range(mat.iu_indptr[i], mat.iu_indptr[i + 1]):
                    want[u, mat.iu_users[f]] += (mat.a[u] * mat.ui_probs[e]
                                                 * mat.iu_probs[f])
        np.testing.assert_allclose(gn.dense_transition(params), want,
                                   atol=1e-15)

    def test_apply_W_matches_dense(self):
        train, params, mat = self.make(n=8, m=10, K=2, seed=6)
        W = gn.dense_transition(params)
        G = np.random.default_rng(7).normal(0, 1, (8, 4))
        got, parts = mat.apply_W_parts(G)
        np.testing.assert_allclose(got, W @ G, atol=1e-10)
        np.testing.assert_allclose(mat.apply_WT(G), W.T @ G, atol=1e-10)

    def test_userless_item_rows_fall_back_to_communities(self):
        # user 0 has no interactions: its row must still be a distribution,
        # carried entirely by the community bridge
        us = np.array([1, 1, 2])
        its = np.array([0, 1, 1])
        from walkrec.corpus import matrix_from_pairs
        train = matrix_from_pairs(3, 2, us, its)
        params = gn.build_pseudo_graph(train, K=2, seed=0)
        mat = gn.normalize_edges(params)
        row = gn.dense_transition(mat)[0]
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        a = mat.a
        assert a[0] == 0.0

    def test_mix_gate_blends_bridges(self):
        train, params, mat = self.make(n=6, m=8, K=2, seed=8)
        G = np.eye(6)
        out, (s, tc, dm) = mat.apply_W_parts(G)
        mi = mat.UI @ (mat.IU @ G)
        mc = mat.uc_probs @ (mat.cu_probs @ G)
        # the tape keeps the bridge outputs only as their difference
        assert np.array_equal(s, mat.IU @ G)
        assert np.array_equal(tc, mat.cu_probs @ G)
        assert dm.tobytes() == (mi - mc).tobytes()
        np.testing.assert_allclose(out, mat.a[:, None] * mi
                                   + (1.0 - mat.a)[:, None] * mc, atol=1e-12)
        # both bridge outputs are row-stochastic on their own
        np.testing.assert_allclose(mc.sum(axis=1), 1.0, atol=1e-10)
        users_with_items = np.flatnonzero(train.row_counts > 0)
        np.testing.assert_allclose(mi[users_with_items].sum(axis=1), 1.0,
                                   atol=1e-10)


class TestTransitionRowDispatch:
    def test_normalize_edges_returns_a_fold_unchanged(self):
        social = gn.build_social_graph(random_social(5, 2, seed=9), seed=0)
        pseudo = gn.build_pseudo_graph(random_matrix(5, 6, 0.4, seed=9), K=2)
        for params in (social, pseudo):
            fold = gn.normalize_edges(params)
            assert gn.normalize_edges(fold) is fold
            assert fold.params is params

    def test_dense_transition_guard(self):
        edges = random_social(5, 2, seed=9)
        params = gn.build_social_graph(edges, seed=0)
        with pytest.raises(GuardError):
            gn.dense_transition(params, max_cells=10)


class TestGraphCheckpoint:
    def test_social_round_trip(self, tmp_path):
        edges = random_social(6, 2, seed=10)
        params = gn.build_social_graph(edges, seed=2)
        path = str(tmp_path / "graph.bin")
        gn.save_graph(path, params)
        back = gn.load_graph(path, social=edges)
        assert np.array_equal(back.logits, params.logits)

    def test_pseudo_round_trip(self, tmp_path):
        train = random_matrix(7, 9, 0.3, seed=11)
        params = gn.build_pseudo_graph(train, K=3, seed=3)
        path = str(tmp_path / "graph.bin")
        gn.save_graph(path, params)
        back = gn.load_graph(path, train=train)
        for name in ("ui_logits", "iu_logits", "uc_logits", "cu_logits",
                     "mix_logits"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(params, name))

    def test_pseudo_byte_stable(self, tmp_path):
        train = random_matrix(5, 6, 0.3, seed=12)
        params = gn.build_pseudo_graph(train, K=2, seed=0)
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        gn.save_graph(p1, params)
        gn.save_graph(p2, params)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 80)
        with pytest.raises(ParseError):
            gn.load_graph(str(path))

    def test_wrong_topology_size(self, tmp_path):
        train = random_matrix(5, 6, 0.3, seed=13)
        params = gn.build_pseudo_graph(train, K=2, seed=0)
        path = str(tmp_path / "g.bin")
        gn.save_graph(path, params)
        other = random_matrix(5, 7, 0.3, seed=14)
        with pytest.raises(ParseError):
            gn.load_graph(path, train=other)

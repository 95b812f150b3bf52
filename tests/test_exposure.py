"""Confidence propagation, the ELBO pieces, and graph-logit gradients."""

import math
import tracemalloc

import numpy as np
import pytest

from walkrec import exposure as ex
from walkrec import trainer
from walkrec.factors import ModelConfig
from walkrec.graphnet import (SocialGraphParams, build_pseudo_graph,
                              build_social_graph, dense_transition,
                              normalize_edges)
from walkrec.walker import SamplerConfig

from tests.conftest import random_factors, random_matrix, random_social


def reference_g(gamma, x, eta, epsilon):
    """Straight transcription of the marginal-plus-entropy term."""
    def ll(a, b):
        t1 = a * math.log(b) if a > 0 else 0.0
        t2 = (1 - a) * math.log(1 - b) if a < 1 else 0.0
        return t1 + t2
    return ((1 - gamma) * ll(x, epsilon) + ll(gamma, eta) - ll(gamma, gamma))


class TestGTerm:
    def test_analytic_observed_exposed(self):
        got = float(ex.g_term(1.0, 1.0, 0.5, 0.001))
        assert abs(got - math.log(0.5)) < 1e-9

    def test_analytic_unobserved_unexposed(self):
        got = float(ex.g_term(0.0, 0.0, 0.5, 0.001))
        assert abs(got - (math.log(0.999) + math.log(0.5))) < 1e-9

    def test_analytic_unobserved_half(self):
        got = float(ex.g_term(0.5, 0.0, 0.5, 0.001))
        assert abs(got - 0.5 * math.log(0.999)) < 1e-9

    def test_matches_reference_on_grid(self):
        for gamma in (0.01, 0.2, 0.5, 0.8, 0.99):
            for x in (0.0, 1.0):
                for eta in (0.3, 0.5, 0.7):
                    got = float(ex.g_term(gamma, x, eta, 0.001))
                    want = reference_g(gamma, x, eta, 0.001)
                    assert abs(got - want) < 1e-11

    def test_gradient_finite_difference(self):
        h = 1e-7
        for gamma in (0.05, 0.3, 0.5, 0.7, 0.95):
            for x in (0.0, 1.0):
                g = float(ex.g_term_grad(gamma, x, 0.5, 0.001))
                fd = (float(ex.g_term(gamma + h, x, 0.5, 0.001))
                      - float(ex.g_term(gamma - h, x, 0.5, 0.001))) / (2 * h)
                assert abs(fd - g) / max(abs(fd), abs(g), 1e-8) < 1e-5

    def test_interior_maximum_matches_grad_zero(self):
        # d g / d gamma = -ll(x, eps) + logit(eta) - logit(gamma) vanishes at
        # gamma* = sigmoid(logit(eta) - ll(x, eps))
        x, eta, eps = 0.0, 0.5, 0.001
        gamma_star = 1.0 / (1.0 + math.exp(-(math.log(eta / (1 - eta))
                                             - math.log(1 - eps))))
        assert abs(float(ex.g_term_grad(gamma_star, x, eta, eps))) < 1e-9

    def test_vectorized_shapes(self):
        gamma = np.array([[0.2, 0.8], [0.5, 0.1]])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = ex.g_term(gamma, x, 0.5, 0.001)
        assert out.shape == (2, 2)


class TestPropagation:
    def social_setup(self, n=10, m=12, seed=0):
        train = random_matrix(n, m, 0.25, seed=seed)
        edges = random_social(n, 3, seed=seed)
        params = build_social_graph(edges, seed=seed)
        return train, params

    def pseudo_setup(self, n=9, m=11, K=3, seed=1):
        train = random_matrix(n, m, 0.3, seed=seed)
        params = build_pseudo_graph(train, K=K, seed=seed)
        return train, params

    def test_depth_zero_returns_x(self):
        train, params = self.social_setup()
        X = train.to_dense()
        gamma, _, _ = ex.propagate_columns(params, X, t_m=0, c=0.9)
        np.testing.assert_array_equal(gamma, X)

    def test_c_zero_returns_x(self):
        train, params = self.pseudo_setup()
        X = train.to_dense()
        gamma, _, _ = ex.propagate_columns(params, X, t_m=4, c=0.0)
        np.testing.assert_allclose(gamma, X, atol=1e-14)

    @pytest.mark.parametrize("mode", ["social", "pseudo"])
    def test_matches_dense_recurrence(self, mode):
        if mode == "social":
            train, params = self.social_setup(seed=3)
        else:
            train, params = self.pseudo_setup(seed=3)
        X = train.to_dense()
        W = dense_transition(params)
        c, t_m = 0.8, 4
        want = X.copy()
        for _ in range(t_m):
            want = (1 - c) * X + c * W @ want
        gamma, _, _ = ex.propagate_columns(params, X, t_m=t_m, c=c)
        np.testing.assert_allclose(gamma, want, atol=1e-10)

    def test_contraction(self):
        train, params = self.social_setup(seed=4)
        X = train.to_dense()
        c = 0.9
        _, gammas, _ = ex.propagate_columns(params, X, t_m=8, c=c,
                                            keep_tape=True)
        diffs = [np.abs(gammas[t + 1] - gammas[t]).max() for t in range(8)]
        for t in range(1, 8):
            assert diffs[t] <= c * diffs[t - 1] + 1e-12

    def test_forward_column_selects_item(self):
        train, params = self.pseudo_setup(seed=5)
        X = train.to_dense()
        gamma, _, _ = ex.propagate_columns(params, X, t_m=3, c=0.7)
        col = ex.propagate_forward(params, train, item=4, t_m=3, c=0.7)
        np.testing.assert_allclose(col, gamma[:, 4], atol=1e-12)

    def test_forward_bounds(self):
        train, params = self.pseudo_setup(seed=6)
        with pytest.raises(IndexError):
            ex.propagate_forward(params, train, item=train.m, t_m=2, c=0.5)

    def test_rejects_bad_args(self):
        train, params = self.social_setup(seed=7)
        X = train.to_dense()
        with pytest.raises(ValueError):
            ex.propagate_columns(params, X, t_m=-1, c=0.5)
        with pytest.raises(ValueError):
            ex.propagate_columns(params, X, t_m=2, c=1.0)


def phi_fd_suite(params, factors, train, items, t_m, c, n_checks=None,
                 h=1e-4, tol=1e-4, floor=1e-5, seed=0):
    """Finite-difference check every (or a sampled subset of) logit coord.

    The relative-error floor absorbs stencil noise (~1e-10 here) on
    coordinates whose true gradient is exactly zero, e.g. single-member
    softmax groups; against that floor the check is still an absolute
    tolerance of tol*floor = 1e-9.
    """
    from tests.conftest import stencil_derivative
    value, grads = ex.phi_objective_and_backward(
        params, factors, train, items, t_m=t_m, c=c, eta=0.5, epsilon=0.001)
    if isinstance(params, SocialGraphParams):
        arrays = {"logits": (params.logits, grads.logits)}
    else:
        arrays = {name: (getattr(params, name), getattr(grads, name))
                  for name in ("ui_logits", "iu_logits", "uc_logits",
                               "cu_logits", "mix_logits")}

    def objective():
        v, _ = ex.phi_objective_and_backward(
            params, factors, train, items, t_m=t_m, c=c,
            eta=0.5, epsilon=0.001)
        return v

    rng = np.random.default_rng(seed)
    checked = 0
    for name, (arr, grad) in arrays.items():
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        idx = np.arange(flat.size)
        if n_checks is not None and flat.size > n_checks:
            idx = rng.choice(flat.size, size=n_checks, replace=False)
        for j in idx:
            fd = stencil_derivative(objective, flat, j, h=h)
            rel = abs(fd - gflat[j]) / max(abs(fd), abs(gflat[j]), floor)
            assert rel < tol, (name, j, fd, gflat[j])
            checked += 1
    return checked


class TestPhiGradient:
    def test_social_full_coordinates(self):
        train = random_matrix(7, 9, 0.3, seed=20)
        edges = random_social(7, 2, seed=20)
        params = build_social_graph(edges, seed=20)
        f = random_factors(7, 9, 3, seed=20)
        items = np.arange(train.m)
        n = phi_fd_suite(params, f, train, items, t_m=2, c=0.8)
        assert n == params.logits.size

    def test_pseudo_full_coordinates(self):
        train = random_matrix(6, 8, 0.3, seed=21)
        params = build_pseudo_graph(train, K=2, seed=21)
        f = random_factors(6, 8, 3, seed=21)
        items = np.arange(train.m)
        phi_fd_suite(params, f, train, items, t_m=2, c=0.7)

    def test_item_subset(self):
        train = random_matrix(6, 10, 0.3, seed=22)
        params = build_pseudo_graph(train, K=3, seed=22)
        f = random_factors(6, 10, 3, seed=22)
        phi_fd_suite(params, f, train, np.array([1, 4, 7]), t_m=3, c=0.9,
                     n_checks=8)

    def test_c_zero_kills_gradient(self):
        train = random_matrix(6, 8, 0.3, seed=23)
        params = build_pseudo_graph(train, K=2, seed=23)
        f = random_factors(6, 8, 3, seed=23)
        _, grads = ex.phi_objective_and_backward(
            params, f, train, np.arange(8), t_m=3, c=0.0,
            eta=0.5, epsilon=0.001)
        for name in ("ui_logits", "iu_logits", "uc_logits", "cu_logits",
                     "mix_logits"):
            assert not np.asarray(getattr(grads, name)).any()

    def test_single_neighbor_rows_have_zero_gradient(self):
        # a softmax over one logit is constant, so that logit gets no signal
        from walkrec.corpus import social_edges
        edges = social_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        params = build_social_graph(edges, seed=24)
        f = random_factors(3, 5, 2, seed=24)
        train = random_matrix(3, 5, 0.4, seed=24)
        _, grads = ex.phi_objective_and_backward(
            params, f, train, np.arange(5), t_m=2, c=0.8,
            eta=0.5, epsilon=0.001)
        # user 0 and user 2 each have exactly one neighbor
        indptr = params.edges.indptr
        for u in (0, 2):
            seg = grads.logits[indptr[u]:indptr[u + 1]]
            np.testing.assert_allclose(seg, 0.0, atol=1e-12)

    def test_freeze_mix_zeroes_mix_gradient(self, tmp_path):
        # the ablations pin the mix logits at +-1000, where the gate is
        # exactly 1 or 0 and its gradient a(1 - a) exactly zero
        train = random_matrix(6, 8, 0.3, seed=25)
        f = random_factors(6, 8, 3, seed=25)
        for logit, live in ((1000.0, "ui_logits"), (-1000.0, "uc_logits")):
            params = build_pseudo_graph(train, K=2, seed=25)
            params.mix_logits[:] = logit
            _, grads = ex.phi_objective_and_backward(
                params, f, train, np.arange(8), t_m=2, c=0.8,
                eta=0.5, epsilon=0.001)
            assert not grads.mix_logits.any()
            assert getattr(grads, live).any()
        # so a fit, and a resume of it, leave them bitwise where they were
        train = random_matrix(10, 12, 0.3, seed=25)
        for ablation, logit in (("no_community", 1000.0), ("no_item", -1000.0)):
            config = trainer.TrainConfig(
                epochs=3, K=3, n_si=12, ablation=ablation,
                model=ModelConfig(d=4),
                sampler=SamplerConfig(alpha=8, beta=4.0, c=0.7, t_m=2))
            state = trainer.fit(train, config)
            assert np.array_equal(state.graph.mix_logits, np.full(10, logit))
            out = str(tmp_path / ablation)
            trainer.save_state(out, state)
            state = trainer.fit(train, config,
                                state=trainer.load_state(out, train))
            assert state.epoch == 6
            assert np.array_equal(state.graph.mix_logits, np.full(10, logit))

    def test_objective_value_matches_manual(self):
        train = random_matrix(5, 7, 0.3, seed=26)
        params = build_pseudo_graph(train, K=2, seed=26)
        f = random_factors(5, 7, 3, seed=26)
        items = np.arange(7)
        value, _ = ex.phi_objective_and_backward(
            params, f, train, items, t_m=2, c=0.8, eta=0.5, epsilon=0.001)
        X = train.to_dense()
        W = dense_transition(params)
        gamma = X.copy()
        for _ in range(2):
            gamma = 0.2 * X + 0.8 * W @ gamma
        from walkrec.factors import bern_ll, clamped_sigmoid
        sig = clamped_sigmoid(f.P @ f.Q.T)
        want = float(np.sum(gamma * bern_ll(X, sig))
                     + np.sum(ex.g_term(gamma, X, 0.5, 0.001)))
        assert value == pytest.approx(want, rel=1e-10)


class TestTapeMemory:
    def test_pseudo_step_tapes_only_the_propagated_columns(self, monkeypatch):
        # The backward recomputes each step's bridge operands from
        # gamma^(t-1), so the forward leaves gamma^(0..t_m) and nothing
        # else, and the whole step needs only a few n x J and m x J
        # temporaries above that.
        n, m, t_m = 200, 300, 3
        train = random_matrix(n, m, 0.05, seed=31)
        params = build_pseudo_graph(train, K=4, seed=31)
        f = random_factors(n, m, 4, seed=31)
        real = ex.propagate_columns
        held = {}

        def measured(graph, Xcols, *args, **kwargs):
            base = tracemalloc.get_traced_memory()[0] - Xcols.nbytes
            tracemalloc.reset_peak()
            out = real(graph, Xcols, *args, **kwargs)
            held["base"] = base
            held["tape"] = tracemalloc.get_traced_memory()[0] - base
            return out

        monkeypatch.setattr(ex, "propagate_columns", measured)
        tracemalloc.start()
        try:
            trainer.update_phi_step(params, f, train, np.arange(m),
                                    ModelConfig(d=4), SamplerConfig(t_m=t_m, c=0.8))
            peak = tracemalloc.get_traced_memory()[1] - held["base"]
        finally:
            tracemalloc.stop()
        nJ, mJ = 8 * n * m, 8 * m * m  # bytes of an n x J and an m x J block
        tape = (t_m + 1) * nJ
        assert held["tape"] <= tape + 16 * 1024
        assert peak <= tape + 8 * nJ + 2 * mJ


    @pytest.mark.parametrize("family", ["social", "pseudo"])
    def test_whole_step_peak(self, family):
        # The objective and its gradient take at most three n x J arrays
        # beside the tape, and gamma^(t_m) is freed before the backward,
        # whose steps hold t_m tape blocks, two gradient blocks and one
        # step's bridge operands.
        n, m, t_m = 200, 300, 3
        train = random_matrix(n, m, 0.05, seed=31)
        if family == "social":
            params = build_social_graph(random_social(n, 6, seed=31), seed=31)
        else:
            params = build_pseudo_graph(train, K=4, seed=31)
        fold = normalize_edges(params)
        f = random_factors(n, m, 4, seed=31)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ex.phi_objective_and_backward(fold, f, train, np.arange(m), t_m,
                                          0.8, 0.5, 0.001)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        nJ, mJ = 8 * n * m, 8 * m * m  # bytes of an n x J and an m x J block
        assert peak <= (t_m + 1) * nJ + 5 * nJ + mJ

    @pytest.mark.parametrize("t_m", [2, 5])
    def test_backward_holds_one_gradient(self, t_m):
        # d V / d gamma^(t_m) reaches the backward in gamma^(t_m)'s tape
        # slot, so no caller keeps it: each pseudo step frees the gradient
        # of the step before, and the peak stays a block below what keeping
        # the first gradient through the reverse pass costs (4.4 blocks).
        n, m = 200, 300
        train = random_matrix(n, m, 0.05, seed=31)
        fold = normalize_edges(build_pseudo_graph(train, K=4, seed=31))
        f = random_factors(n, m, 4, seed=31)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ex.phi_objective_and_backward(fold, f, train, np.arange(m), t_m,
                                          0.8, 0.5, 0.001)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        nJ, mJ = 8 * n * m, 8 * m * m  # bytes of an n x J and an m x J block
        assert peak <= (t_m + 1) * nJ + 4 * nJ + mJ


class TestObjectives:
    def test_elbo_subset_consistency(self):
        # the objective and its graph gradient add up over item columns
        train = random_matrix(5, 8, 0.3, seed=28)
        params = build_social_graph(random_social(5, 2, seed=28), seed=28)
        f = random_factors(5, 8, 2, seed=28)
        args = (f, train)
        kw = dict(t_m=2, c=0.5, eta=0.5, epsilon=0.001)
        total, grads = ex.phi_objective_and_backward(params, *args,
                                                     np.arange(8), **kw)
        parts = [ex.phi_objective_and_backward(params, *args, np.array([i]),
                                               **kw) for i in range(8)]
        assert total == pytest.approx(sum(v for v, _ in parts), rel=1e-10)
        np.testing.assert_allclose(sum(g.logits for _, g in parts),
                                   grads.logits, rtol=1e-10, atol=1e-14)

"""Training loop behavior: updates, determinism, resume, and modes."""

import logging
import os
import tracemalloc

import numpy as np
import pytest

from walkrec import synth, trainer
from walkrec.corpus import matrix_from_pairs
from walkrec.errors import ConfigError
from walkrec.exposure import g_term
from walkrec.factors import (TAU, ModelConfig, PreferenceFactors, bern_ll,
                             predict_pairs, sigmoid)
from walkrec.graphnet import build_social_graph
from walkrec.walker import SampleBatch, SamplerConfig, WalkEngine

from tests.conftest import random_factors, random_matrix, random_social


def quick_config(mode="samwalker_pp", **kwargs):
    defaults = dict(mode=mode, epochs=3, K=3, n_si=12, seed=0,
                    model=ModelConfig(d=4),
                    sampler=SamplerConfig(alpha=8, beta=4.0, c=0.7, t_m=2,
                                          seed=0))
    defaults.update(kwargs)
    return trainer.TrainConfig(**defaults)


class TestTrainConfig:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            quick_config(mode="gradient_descent_into_madness")

    def test_ablation_needs_pseudo_mode(self):
        with pytest.raises(ConfigError):
            quick_config(mode="samwalker", ablation="no_item")
        quick_config(mode="samwalker_pp", ablation="no_item")

    def test_positivity(self):
        quick_config(epochs=0)  # zero-epoch fit is allowed (init only)
        with pytest.raises(ConfigError):
            quick_config(epochs=-1)
        with pytest.raises(ConfigError):
            quick_config(K=0)
        with pytest.raises(ConfigError):
            quick_config(eval_ks=())

    def test_repeated_eval_cutoff(self):
        with pytest.raises(ConfigError, match="repeats"):
            quick_config(eval_ks=(5, 10, 5))


class TestThetaUpdate:
    def test_single_pair_hand_step(self):
        f = PreferenceFactors(P=np.array([[0.5, -0.2]]),
                              Q=np.array([[0.3, 0.4]]))
        P0, Q0 = f.P.copy(), f.Q.copy()
        batch = SampleBatch(users=np.array([0]), items=np.array([0]),
                            labels=np.array([1.0]), expected_scale=1.0)
        trainer.update_theta_from_batch(f, batch, lr=1.0, l2=0.0)
        r = 1.0 - sigmoid(float(P0[0] @ Q0[0]))
        np.testing.assert_allclose(f.P, P0 + r * Q0, rtol=1e-12)
        np.testing.assert_allclose(f.Q, Q0 + r * P0, rtol=1e-12)

    def test_returns_pre_step_batch_log_likelihood(self):
        f = PreferenceFactors(P=np.array([[0.5, -0.2], [0.1, 0.3]]),
                              Q=np.array([[0.3, 0.4]]))
        P0, Q0 = f.P.copy(), f.Q.copy()
        batch = SampleBatch(users=np.array([0, 1]), items=np.array([0, 0]),
                            labels=np.array([1, 0]), expected_scale=1.0)
        ll = trainer.update_theta_from_batch(f, batch, lr=1.0, l2=0.1)
        s0 = sigmoid(float(P0[0] @ Q0[0]))
        s1 = sigmoid(float(P0[1] @ Q0[0]))
        assert ll == pytest.approx(np.log(s0) + np.log(1.0 - s1), rel=1e-12)
        empty = SampleBatch(users=np.zeros(0, np.int64),
                            items=np.zeros(0, np.int64),
                            labels=np.zeros(0, np.int8), expected_scale=1.0)
        assert trainer.update_theta_from_batch(f, empty, lr=1.0) == 0.0

    @pytest.mark.parametrize("label_dtype", [np.uint8, np.int64, np.float64])
    def test_batch_log_likelihood_equals_bern_ll_sum(self, label_dtype):
        # logits of either sign past 16 also put predictions on both clamps
        f = random_factors(30, 40, 4, seed=11, scale=2.0)
        rng = np.random.default_rng(12)
        users = np.sort(rng.integers(0, 30, size=5000))
        items = rng.integers(0, 40, size=5000)
        labels = (rng.random(5000) < 0.4).astype(label_dtype)
        sig = predict_pairs(f, users, items)
        want = float(np.sum(bern_ll(labels.astype(np.float64), sig)))
        batch = SampleBatch(users=users, items=items, labels=labels,
                            expected_scale=1.0)
        got = trainer.update_theta_from_batch(f, batch, lr=0.1, l2=0.01)
        assert got == want
        assert (sig == TAU).any() and (sig == 1.0 - TAU).any()

    def test_duplicates_accumulate_at_fixed_point(self):
        f = random_factors(3, 4, 2, seed=0)
        users = np.array([1, 1, 2])
        items = np.array([0, 0, 3])
        labels = np.array([1.0, 1.0, 0.0])
        batch = SampleBatch(users=users, items=items, labels=labels,
                            expected_scale=1.0)
        P0, Q0 = f.P.copy(), f.Q.copy()
        trainer.update_theta_from_batch(f, batch, lr=0.1, l2=0.05)
        eP, eQ = np.zeros_like(P0), np.zeros_like(Q0)
        for u, i, x in zip(users, items, labels):
            r = x - sigmoid(float(P0[u] @ Q0[i]))
            eP[u] += r * Q0[i] - 0.05 * P0[u]
            eQ[i] += r * P0[u] - 0.05 * Q0[i]
        np.testing.assert_allclose(f.P, P0 + 0.1 * eP, rtol=1e-12)
        np.testing.assert_allclose(f.Q, Q0 + 0.1 * eQ, rtol=1e-12)

    def test_peak_memory_per_pair(self):
        # about 190k walk pairs: the predictions, the residuals and one
        # 32-bit index copy, 21 bytes a pair; with a float copy of the
        # labels, batch-sized sigmoid temporaries and a COO build, 41
        train = random_matrix(400, 600, 0.04, seed=61)
        social = build_social_graph(random_social(400, 8, seed=62))
        engine = WalkEngine(social, train, SamplerConfig(alpha=400, beta=20.0))
        batch = engine.sample_batch(np.random.default_rng(63))
        assert 150_000 < batch.size < 250_000
        f = random_factors(400, 600, 32, seed=64)
        trainer.update_theta_from_batch(f, batch, lr=0.01)  # warm up
        tracemalloc.start()
        try:
            trainer.update_theta_from_batch(f, batch, lr=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * batch.size

    def test_empty_batch_warns_and_skips(self, caplog):
        f = random_factors(2, 2, 2, seed=1)
        P0 = f.P.copy()
        empty = SampleBatch(users=np.array([], dtype=np.int64),
                            items=np.array([], dtype=np.int64),
                            labels=np.array([]), expected_scale=1.0)
        with caplog.at_level(logging.WARNING, logger="walkrec.trainer"):
            trainer.update_theta_from_batch(f, empty, lr=0.1)
        assert "empty" in caplog.text
        np.testing.assert_array_equal(f.P, P0)


class TestGammaStar:
    def test_matches_grid_search(self):
        grid = np.linspace(1e-4, 1 - 1e-4, 20_001)
        for x in (0.0, 1.0):
            for sig in (0.1, 0.4, 0.9):
                star = float(trainer.exmf_gamma_star(x, sig, 0.5, 0.001))
                values = grid * bern_ll(x, sig) + g_term(grid, x, 0.5, 0.001)
                best = grid[np.argmax(values)]
                assert abs(star - best) < 2e-4

    def test_observed_pairs_get_high_confidence(self):
        star = float(trainer.exmf_gamma_star(1.0, 0.3, 0.5, 0.001))
        assert star > 0.99  # a click is near-proof of exposure


class TestEpochStreams:
    def test_epoch_rng_is_stable_and_distinct(self):
        a = trainer._epoch_rng(7, 0).random(4)
        b = trainer._epoch_rng(7, 0).random(4)
        c = trainer._epoch_rng(7, 1).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestFitModes:
    def test_samwalker_requires_social(self):
        train = random_matrix(8, 10, 0.3, seed=2)
        with pytest.raises(ConfigError):
            trainer.fit(train, quick_config(mode="samwalker"))

    def test_pseudo_runs_and_records_history(self):
        train = random_matrix(10, 14, 0.3, seed=3)
        state = trainer.fit(train, quick_config(epochs=4))
        assert state.epoch == 4
        assert len(state.history) == 4
        rec = state.history[0]
        assert {"epoch", "phi_objective", "batch_size",
                "transition_steps"} <= set(rec)

    def test_social_runs(self):
        train = random_matrix(9, 12, 0.3, seed=4)
        social = random_social(9, 3, seed=4)
        state = trainer.fit(train, quick_config(mode="samwalker"),
                            social=social)
        assert state.epoch == 3

    def test_dense_mode_objective_climbs(self):
        train = random_matrix(12, 15, 0.25, seed=5)
        config = quick_config(mode="exmf_dense", epochs=12)
        state = trainer.fit(train, config)
        objectives = [rec["objective"] for rec in state.history]
        assert objectives[-1] > objectives[0]

    def test_dense_mode_guard(self):
        big = matrix_from_pairs(20_000, 600, np.array([0]), np.array([0]))
        from walkrec.errors import GuardError
        with pytest.raises(GuardError):
            trainer.fit(big, quick_config(mode="exmf_dense"))

    def test_ablations_freeze_the_gate(self):
        train = random_matrix(10, 12, 0.3, seed=6)
        for ablation, want in (("no_item", 0.0), ("no_community", 1.0)):
            config = quick_config(ablation=ablation, epochs=2)
            state = trainer.fit(train, config)
            from walkrec.graphnet import normalize_edges
            a = normalize_edges(state.graph).a
            users = np.flatnonzero(train.row_counts > 0)
            np.testing.assert_allclose(a[users], want, atol=1e-9)


GRAPH_CASES = [("samwalker", "none"), ("samwalker_pp", "none"),
               ("samwalker_pp", "no_item")]


class TestGraphStep:
    @staticmethod
    def setup_state(mode, ablation):
        train = random_matrix(10, 14, 0.3, seed=7)
        social = random_social(10, 3, seed=7)
        config = quick_config(mode=mode, ablation=ablation, epochs=1)
        return train, social, config, trainer.init_state(train, config, social)

    @pytest.mark.parametrize("mode,ablation", GRAPH_CASES)
    def test_fold_and_params_give_equal_logits(self, mode, ablation):
        from walkrec.graphnet import normalize_edges
        train, _, config, a = self.setup_state(mode, ablation)
        _, _, _, b = self.setup_state(mode, ablation)
        items = np.arange(train.m)
        va = trainer.update_phi_step(a.graph, a.factors, train, items,
                                     config.model, config.sampler)
        vb = trainer.update_phi_step(normalize_edges(b.graph), b.factors, train,
                                     items, config.model, config.sampler)
        assert va == vb
        for name, arr in vars(a.graph).items():
            if isinstance(arr, np.ndarray):
                assert arr.tobytes() == getattr(b.graph, name).tobytes(), name

    @pytest.mark.parametrize("mode", ["samwalker", "samwalker_pp"])
    def test_one_epoch_folds_once(self, monkeypatch, mode):
        import sys
        from walkrec import graphnet
        real = graphnet.normalize_edges
        folds = []

        def counting(graph):
            fold = real(graph)
            if fold is not graph:
                folds.append(fold)
            return fold

        for name, module in list(sys.modules.items()):
            if (name.startswith("walkrec")
                    and getattr(module, "normalize_edges", None) is real):
                monkeypatch.setattr(module, "normalize_edges", counting)
        train, social, config, _ = self.setup_state(mode, "none")
        trainer.fit(train, config, social=social)
        assert len(folds) == 1


class TestDeterminismAndResume:
    def test_same_seed_bitwise_equal(self):
        train = random_matrix(10, 13, 0.3, seed=7)
        a = trainer.fit(train, quick_config(epochs=4, seed=3))
        b = trainer.fit(train, quick_config(epochs=4, seed=3))
        assert np.array_equal(a.factors.P, b.factors.P)
        assert np.array_equal(a.factors.Q, b.factors.Q)
        assert np.array_equal(a.graph.ui_logits, b.graph.ui_logits)
        c = trainer.fit(train, quick_config(epochs=4, seed=4))
        assert not np.array_equal(a.factors.P, c.factors.P)

    def test_resume_replays_uninterrupted_run(self, tmp_path):
        # 3 epochs, saved and read back, then 2 more: the checkpoint files
        # of an uninterrupted 5-epoch run, byte for byte
        train = random_matrix(10, 13, 0.3, seed=8)
        social = random_social(10, 3, seed=8)
        for mode in trainer.MODES:
            straight = str(tmp_path / mode / "straight")
            full = trainer.fit(train, quick_config(mode, epochs=5, seed=1),
                               social=social)
            trainer.save_state(straight, full)
            resumed = str(tmp_path / mode / "resumed")
            trainer.save_state(resumed, trainer.fit(
                train, quick_config(mode, epochs=3, seed=1), social=social))
            config = quick_config(mode, epochs=2, seed=1)
            loaded = trainer.load_state(resumed, config, train, social=social)
            state = trainer.fit(train, config, social=social, state=loaded)
            trainer.save_state(resumed, state)
            assert state.epoch == 5
            assert state.history == full.history
            names = ["factors.bin"] + (["graph.bin"] if full.graph else [])
            for name in names:
                with open(os.path.join(straight, name), "rb") as fa, \
                        open(os.path.join(resumed, name), "rb") as fb:
                    assert fa.read() == fb.read(), (mode, name)

    def test_save_load_round_trip(self, tmp_path):
        train = random_matrix(8, 10, 0.3, seed=9)
        social = random_social(8, 2, seed=9)
        config = quick_config(mode="samwalker", epochs=2)
        state = trainer.fit(train, config, social=social)
        trainer.save_state(str(tmp_path), state)
        back = trainer.load_state(str(tmp_path), config, train, social=social)
        assert back.epoch == 2
        np.testing.assert_array_equal(back.factors.P, state.factors.P)
        np.testing.assert_array_equal(back.graph.logits, state.graph.logits)

    def test_load_rejects_mode_mismatch(self, tmp_path):
        train = random_matrix(8, 10, 0.3, seed=10)
        state = trainer.fit(train, quick_config(epochs=1))
        trainer.save_state(str(tmp_path), state)
        with pytest.raises(ConfigError):
            trainer.load_state(str(tmp_path), quick_config(mode="exmf_dense"),
                               train)

    @pytest.mark.parametrize("mode,change", [
        ("samwalker_pp", dict(seed=5)),
        ("samwalker_pp", dict(K=4)),
        ("samwalker_pp", dict(ablation="no_item")),
        ("samwalker_pp", dict(model=ModelConfig(d=5))),
        ("samwalker", dict(seed=5)),
        ("samwalker", dict(model=ModelConfig(d=5))),
        ("exmf_dense", dict(model=ModelConfig(d=5))),
    ])
    def test_load_rejects_conflicting_settings(self, tmp_path, mode, change):
        train = random_matrix(8, 10, 0.3, seed=10)
        social = random_social(8, 2, seed=10)
        state = trainer.fit(train, quick_config(mode, epochs=1), social=social)
        trainer.save_state(str(tmp_path), state)
        name = "d" if "model" in change else next(iter(change))
        with pytest.raises(ConfigError, match=f"checkpoint {name} "):
            trainer.load_state(str(tmp_path), quick_config(mode, **change),
                               train, social=social)

    def test_load_ignores_k_outside_pseudo_mode(self, tmp_path):
        train = random_matrix(8, 10, 0.3, seed=10)
        social = random_social(8, 2, seed=10)
        state = trainer.fit(train, quick_config("samwalker", epochs=1),
                            social=social)
        trainer.save_state(str(tmp_path), state)
        back = trainer.load_state(str(tmp_path),
                                  quick_config("samwalker", K=9), train,
                                  social=social)
        assert back.epoch == 1


class TestEvalLogging:
    def test_eval_every_writes_json_lines(self, tmp_path):
        inst = synth.planted_instance(n=40, m=60, d=4, groups=2, seed=11)
        log = tmp_path / "metrics.jsonl"
        config = quick_config(epochs=4, eval_every=2, eval_ks=(3,))
        trainer.fit(inst.train, config, test=inst.test, log_path=str(log))
        import json
        lines = [json.loads(s) for s in log.read_text().splitlines()]
        assert lines
        assert all({"epoch", "metric", "value"} <= set(rec) for rec in lines)
        epochs = {rec["epoch"] for rec in lines}
        assert epochs == {2, 4}
        metrics = {rec["metric"] for rec in lines}
        assert "recall@3" in metrics and "ndcg" in metrics


class TestUniformBaseline:
    def test_trains_and_matches_shapes(self):
        train = random_matrix(12, 16, 0.3, seed=12)
        config = quick_config(epochs=3)
        factors = trainer.fit_uniform_baseline(train, config)
        assert factors.P.shape == (12, 4)
        assert factors.Q.shape == (16, 4)

    def test_deterministic(self):
        train = random_matrix(10, 12, 0.3, seed=13)
        a = trainer.fit_uniform_baseline(train, quick_config(epochs=2, seed=5))
        b = trainer.fit_uniform_baseline(train, quick_config(epochs=2, seed=5))
        assert np.array_equal(a.P, b.P)


class TestFitStateConfig:
    def test_fit_refuses_a_state_trained_with_other_settings(self):
        train = random_matrix(10, 13, 0.3, seed=14)
        for change, name in ((dict(seed=5), "seed"),
                             (dict(model=ModelConfig(d=4, lr_theta=0.9)),
                              "lr_theta")):
            state = trainer.init_state(train, quick_config())
            P0 = state.factors.P.copy()
            with pytest.raises(ConfigError, match=f"fit: state {name} "):
                trainer.fit(train, quick_config(**change), state=state)
            assert state.epoch == 0 and state.history == []
            assert np.array_equal(state.factors.P, P0)

    def test_fit_adopts_a_matching_config(self):
        train = random_matrix(10, 13, 0.3, seed=14)
        state = trainer.init_state(train, quick_config(epochs=1))
        config = quick_config(epochs=2, eval_every=3, eval_ks=(4,))
        out = trainer.fit(train, config, state=state)
        assert out.config is config
        assert out.epoch == 2


# The serial epoch body before the graph step's forward shared the epoch
# with a helper thread: reference for the overlapped one, which must equal
# it bit for bit.

def serial_epoch(state, train, rng) -> dict:
    from walkrec.graphnet import normalize_edges
    from walkrec.walker import WalkEngine
    cfg = state.config
    fold = normalize_edges(state.graph)
    engine = WalkEngine(fold, train, cfg.sampler)
    batch_size = 0
    theta_ll = 0.0
    for _ in range(cfg.theta_steps):
        batch = engine.sample_batch(rng)
        batch_size += batch.size
        theta_ll += trainer.update_theta_from_batch(state.factors, batch,
                                                    cfg.model.lr_theta,
                                                    cfg.model.l2_theta)
    items = trainer._select_phi_items(train.m, cfg.n_si, rng)
    value = trainer.update_phi_step(fold, state.factors, train, items,
                                    cfg.model, cfg.sampler)
    return {"epoch": state.epoch, "phi_objective": value,
            "batch_size": batch_size, "batch_ll": theta_ll,
            "transition_steps": engine.last_transition_steps}


def serial_fit(train, config, social):
    state = trainer.init_state(train, config, social)
    for _ in range(config.epochs):
        record = serial_epoch(state, train, trainer._epoch_rng(config.seed,
                                                               state.epoch))
        state.epoch += 1
        state.history.append(record)
    return state


def assert_same_run(got, want):
    assert np.array_equal(got.factors.P, want.factors.P)
    assert np.array_equal(got.factors.Q, want.factors.Q)
    for name, arr in vars(want.graph).items():
        if isinstance(arr, np.ndarray):
            assert np.array_equal(getattr(got.graph, name), arr), name
    assert got.history == want.history


OVERLAP_CASES = [("samwalker", "none"), ("samwalker_pp", "none"),
                 ("samwalker_pp", "no_item"), ("samwalker_pp", "no_community")]


class TestOverlappedEpoch:
    @staticmethod
    def case(mode, ablation, theta_steps):
        train = random_matrix(40, 60, 0.15, seed=15)
        social = random_social(40, 4, seed=15)
        config = quick_config(mode=mode, ablation=ablation,
                              theta_steps=theta_steps, n_si=25, epochs=3)
        return train, config, social

    @pytest.mark.parametrize("theta_steps", [1, 2])
    @pytest.mark.parametrize("mode,ablation", OVERLAP_CASES)
    def test_fit_equals_the_serial_epoch(self, mode, ablation, theta_steps):
        train, config, social = self.case(mode, ablation, theta_steps)
        want = serial_fit(train, config, social)
        assert_same_run(trainer.fit(train, config, social=social), want)

    def test_fit_equals_serial_under_rapid_switching(self):
        # a write by the theta step into anything the forward reads would
        # show as a changed bit once the two threads interleave finely
        import sys
        train, config, social = self.case("samwalker_pp", "none", 1)
        want = serial_fit(train, config, social)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert_same_run(trainer.fit(train, config, social=social), want)
        finally:
            sys.setswitchinterval(interval)


class Boom(Exception):
    pass


def _on_helper() -> bool:
    import threading
    return threading.current_thread() is not threading.main_thread()


class TestHelperThread:
    """The graph step's helper work fails loudly and never outlives fit."""

    @staticmethod
    def fit_case(mode):
        train = random_matrix(20, 30, 0.2, seed=16)
        social = random_social(20, 3, seed=16)
        return lambda: trainer.fit(train, quick_config(mode=mode, epochs=2),
                                   social=social)

    @staticmethod
    def helper_threads(before):
        import threading
        return [t for t in threading.enumerate()
                if t not in before and t.is_alive()]

    @pytest.mark.parametrize("mode", ["samwalker", "samwalker_pp"])
    def test_helper_exception_comes_out_of_fit(self, monkeypatch, mode):
        import threading
        from walkrec import exposure
        real = exposure.propagate_columns
        raised = []

        def failing(*args, **kwargs):
            if _on_helper():
                raised.append(Boom(mode))
                raise raised[-1]
            return real(*args, **kwargs)

        monkeypatch.setattr(exposure, "propagate_columns", failing)
        before = threading.enumerate()
        with pytest.raises(Boom) as info:
            self.fit_case(mode)()
        assert info.value is raised[0]
        assert self.helper_threads(before) == []

    @pytest.mark.parametrize("mode", ["samwalker", "samwalker_pp"])
    def test_helper_work_ends_before_a_failing_fit_returns(self, monkeypatch,
                                                           mode):
        # the helper is still busy when the caller's theta step raises; fit
        # must wait for it before the error comes out
        import threading
        import time
        from walkrec import exposure
        real = exposure.propagate_columns
        finished = []

        def failing(*args, **kwargs):
            raise Boom(mode)

        def slow(*args, **kwargs):
            out = real(*args, **kwargs)
            time.sleep(0.2)
            finished.append(_on_helper())
            return out

        monkeypatch.setattr(exposure, "propagate_columns", slow)
        monkeypatch.setattr(trainer, "update_theta_from_batch", failing)
        before = threading.enumerate()
        with pytest.raises(Boom):
            self.fit_case(mode)()
        assert finished == [True]
        assert self.helper_threads(before) == []

    def test_no_helper_thread_left_after_fit(self):
        import threading
        before = threading.enumerate()
        for mode in ("samwalker", "samwalker_pp"):
            state = self.fit_case(mode)()
            assert state.epoch == 2
        assert self.helper_threads(before) == []

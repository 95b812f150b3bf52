"""Walk engine, baseline samplers, and their exact laws."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkrec import factors as fa
from walkrec import walker as wk
from walkrec.corpus import matrix_from_pairs
from walkrec.errors import EstimatorError
from walkrec.graphnet import (_RowSampler, build_pseudo_graph,
                              build_social_graph, dense_transition,
                              normalize_edges)
from walkrec.oracle import (dense_gamma_truncated, dense_stop_distribution,
                            walk_sample_user)

from tests.conftest import (chi_square_pvalue, random_matrix, random_social)


class TestSamplerConfig:
    def test_defaults(self):
        cfg = wk.SamplerConfig()
        assert cfg.alpha == 100 and cfg.beta == 20.0
        assert cfg.c == 0.9 and cfg.t_m == 5

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0}, {"beta": 0.5}, {"c": 1.0}, {"c": -0.1}, {"t_m": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            wk.SamplerConfig(**kwargs)

    @pytest.mark.parametrize("field", ["beta", "c"])
    def test_rejects_non_finite(self, field):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                wk.SamplerConfig(**{field: value})


def searchsorted_draw(sampler, groups, rng):
    """The row draw as one global search, the definition guided draws match."""
    target = groups + rng.random(groups.shape[0])
    idx = np.searchsorted(sampler.flat, target, side="left")
    return np.clip(idx, sampler.indptr[groups], sampler.indptr[groups + 1] - 1)


class StubRng:
    """Hands out fixed uniforms, cycling, in place of a Generator."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.pos = 0

    def random(self, size):
        idx = (self.pos + np.arange(size)) % self.values.shape[0]
        self.pos += size
        return self.values[idx]


def normalized_rows(rows):
    probs = np.concatenate([np.asarray(r, dtype=np.float64) / np.sum(r)
                            for r in rows])
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    return probs, indptr


def assert_matches_search(probs, indptr, groups, uniforms=None, seed=0):
    def rng():
        return np.random.default_rng(seed) if uniforms is None else StubRng(uniforms)

    s = _RowSampler(probs, indptr)
    got = s.draw(groups, rng())
    np.testing.assert_array_equal(got, searchsorted_draw(s, groups, rng()))
    return got


EDGE_UNIFORMS = [0.0, 2.0 ** -53, 2.0 ** -52, 1e-300, 0.5, 1 - 2.0 ** -52,
                 1 - 2.0 ** -53]


class TestRowSampler:
    def test_singleton_groups_always_hit(self):
        probs = np.array([1.0, 1.0, 1.0])
        indptr = np.array([0, 1, 2, 3])
        s = _RowSampler(probs, indptr)
        rng = np.random.default_rng(0)
        groups = np.array([2, 0, 1, 2])
        assert s.draw(groups, rng).tolist() == [2, 0, 1, 2]

    def test_distribution_matches_probs(self):
        probs = np.array([0.2, 0.8, 0.5, 0.25, 0.25, 1.0])
        indptr = np.array([0, 2, 5, 6])
        s = _RowSampler(probs, indptr)
        rng = np.random.default_rng(1)
        draws = 40_000
        groups = np.repeat(np.array([0, 1, 2]), draws)
        picks = s.draw(groups, rng)
        counts = np.bincount(picks, minlength=6)
        expected = probs * draws
        assert chi_square_pvalue(counts[:5], expected[:5],
                                 fixed_total=False) > 1e-3
        assert counts[5] == draws

    def test_draws_stay_in_group(self):
        rng = np.random.default_rng(2)
        probs = rng.random(30)
        indptr = np.array([0, 7, 7, 19, 30])
        norm = probs.copy()
        for g in range(4):
            seg = slice(indptr[g], indptr[g + 1])
            if indptr[g + 1] > indptr[g]:
                norm[seg] /= norm[seg].sum()
        s = _RowSampler(norm, indptr)
        groups = rng.integers(0, 4, size=5000)
        groups = groups[groups != 1]  # group 1 is empty
        picks = s.draw(groups, rng)
        assert np.all(picks >= indptr[groups])
        assert np.all(picks < indptr[groups + 1])


    def test_random_rows_match_search(self):
        rng = np.random.default_rng(30)
        rows = [rng.random(int(k)) for k in rng.integers(1, 40, size=200)]
        probs, indptr = normalized_rows(rows)
        groups = rng.integers(0, len(rows), size=50_000)
        assert_matches_search(probs, indptr, groups, seed=31)
        assert_matches_search(probs, indptr, groups, uniforms=EDGE_UNIFORMS)

    def test_skewed_rows_match_search(self):
        # one entry of at least 0.999, the rest decaying geometrically, so
        # most of a row crowds into one guide bucket
        rows = []
        for k in (2, 5, 30, 200):
            tail = 1e-3 * 0.5 ** np.arange(k - 1)
            rows.append(np.concatenate([[1.0], tail]))
            rows.append(np.concatenate([tail[::-1], [1.0]]))
        probs, indptr = normalized_rows(rows)
        assert probs.max() >= 0.999
        groups = np.random.default_rng(32).integers(0, len(rows), size=50_000)
        assert_matches_search(probs, indptr, groups, seed=33)
        assert_matches_search(probs, indptr, groups, uniforms=EDGE_UNIFORMS)

    def test_zero_probability_entries_never_drawn(self):
        rows = [[0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0],
                [1.0, 0.0], [0.0, 0.0, 0.0, 0.3, 0.7]]
        probs, indptr = normalized_rows(rows)
        groups = np.random.default_rng(34).integers(0, len(rows), size=20_000)
        picks = assert_matches_search(probs, indptr, groups, seed=35)
        assert np.all(probs[picks] > 0)
        assert_matches_search(probs, indptr, groups, uniforms=EDGE_UNIFORMS)

    def test_singleton_rows_match_search(self):
        probs, indptr = normalized_rows([[1.0]] * 5 + [[0.5, 0.5]] + [[1.0]])
        groups = np.random.default_rng(36).integers(0, 7, size=5_000)
        assert_matches_search(probs, indptr, groups, seed=37)
        assert_matches_search(probs, indptr, groups, uniforms=EDGE_UNIFORMS)

    def test_empty_rows_that_are_never_drawn(self):
        rows = [[0.2, 0.8], [], [], [1.0], [], [0.3, 0.3, 0.4], []]
        probs = np.concatenate([np.asarray(r, dtype=np.float64) for r in rows])
        indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        groups = np.random.default_rng(38).choice([0, 3, 5], size=5_000)
        picks = assert_matches_search(probs, indptr, groups, seed=39)
        assert np.all(picks >= indptr[groups])
        assert np.all(picks < indptr[groups + 1])
        assert_matches_search(probs, indptr, groups, uniforms=EDGE_UNIFORMS)

    def test_rows_whose_sum_rounds_past_one(self):
        # row 0 sums to 1 + 2^-52, so its last offset sum rounds past the
        # first entry of row 1 and flat is not globally sorted there; row 1's
        # target 1 + 2^-52 (r = 2^-52) lands in that overlap, where which
        # crossing the search finds depends on the keys searched before
        ulp = 2.0 ** -52
        probs = np.array([0.5, 0.5 + ulp, 0.0, 0.25, 0.75, 0.0, 1.0 + ulp])
        indptr = np.array([0, 2, 5, 7])
        s = _RowSampler(probs, indptr)
        assert np.any(np.diff(s.flat) < 0)
        groups = np.repeat(np.arange(3), 400)
        uniforms = EDGE_UNIFORMS + [ulp / 2, ulp, 2 * ulp, 0.25, 0.25 + ulp]
        for order in range(3):
            shuffled = np.random.default_rng(order).permutation(groups)
            assert_matches_search(probs, indptr, shuffled, uniforms=uniforms)
        # many random rows normalized in floating point; a good share of
        # them sum past 1, some below
        rng = np.random.default_rng(40)
        rows = [rng.random(int(k)) for k in rng.integers(2, 12, size=500)]
        probs, indptr = normalized_rows(rows)
        sums = np.add.reduceat(probs, indptr[:-1])
        assert (sums > 1.0).any() and (sums < 1.0).any()
        groups = rng.integers(0, len(rows), size=50_000)
        assert_matches_search(probs, indptr, groups, seed=41)
        assert_matches_search(probs, indptr, groups, uniforms=EDGE_UNIFORMS)

    def test_extreme_uniforms_pick_first_and_last(self):
        probs, indptr = normalized_rows([[0.25, 0.5, 0.25], [0.1, 0.9]])
        groups = np.array([0, 1, 0, 1])
        s = _RowSampler(probs, indptr)
        assert s.draw(groups, StubRng([0.0])).tolist() == [0, 3, 0, 3]
        top = 1 - 2.0 ** -53
        assert s.draw(groups, StubRng([top])).tolist() == [2, 4, 2, 4]
        assert_matches_search(probs, indptr, groups, uniforms=[0.0, top])

    def test_non_finite_rows_fall_back_to_search(self):
        probs = np.array([0.5, np.nan, 0.2, 0.8])
        indptr = np.array([0, 2, 4])
        groups = np.random.default_rng(42).integers(0, 2, size=1_000)
        assert_matches_search(probs, indptr, groups, seed=43)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)
                    .filter(lambda row: sum(row) > 0), min_size=1, max_size=6),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                    max_size=16),
           st.integers(0, 2 ** 32 - 1))
    def test_property_matches_search(self, rows, uniforms, seed):
        probs, indptr = normalized_rows(rows)
        groups = np.random.default_rng(seed).integers(0, len(rows), size=64)
        assert_matches_search(probs, indptr, groups, uniforms=uniforms)


class TestGuidedWalks:
    @pytest.mark.parametrize("mode", ["social", "pseudo"])
    def test_stop_users_match_search_stepping(self, mode, monkeypatch):
        train = random_matrix(60, 80, 0.1, seed=44)
        # logits of sd 3 (not the 0.01 of a fresh graph) give peaked rows
        rng = np.random.default_rng(44)
        if mode == "social":
            params = build_social_graph(random_social(60, 6, seed=44))
            params.logits = rng.normal(0.0, 3.0, size=params.logits.shape)
        else:
            params = build_pseudo_graph(train, K=5)
            for name in ("ui_logits", "iu_logits", "uc_logits", "cu_logits"):
                setattr(params, name,
                        rng.normal(0.0, 3.0, size=getattr(params, name).shape))
            params.mix_logits = np.random.default_rng(45).normal(size=60)
        fold = normalize_edges(params)
        cfg = wk.SamplerConfig(alpha=200, beta=2.0, c=0.9, t_m=5, seed=0)
        origins = np.repeat(np.arange(60, dtype=np.int64), cfg.alpha)
        guided = wk.WalkEngine(fold, train, cfg)
        stops = guided.stop_users(origins, np.random.default_rng(46))
        monkeypatch.setattr(_RowSampler, "draw", searchsorted_draw)
        searched = wk.WalkEngine(fold, train, cfg)
        want = searched.stop_users(origins, np.random.default_rng(46))
        np.testing.assert_array_equal(stops, want)
        assert guided.last_transition_steps == searched.last_transition_steps
        assert guided.last_transition_steps > 10 * train.n


class TestAliasTable:
    def test_matches_weights(self):
        w = np.array([1.0, 5.0, 0.0, 2.0, 2.0])
        t = wk.AliasTable(w)
        rng = np.random.default_rng(3)
        picks = t.draw(rng, 60_000)
        counts = np.bincount(picks, minlength=5)
        assert counts[2] == 0
        expected = w / w.sum() * 60_000
        assert chi_square_pvalue(counts[[0, 1, 3, 4]],
                                 expected[[0, 1, 3, 4]],
                                 fixed_total=True) > 1e-3

    def test_single_entry(self):
        t = wk.AliasTable(np.array([3.0]))
        rng = np.random.default_rng(4)
        assert set(t.draw(rng, 100).tolist()) == {0}

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            wk.AliasTable(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            wk.AliasTable(np.array([1.0, -1.0]))


class TestNthMissing:
    def test_hand_cases(self):
        present = np.array([1, 3, 4])
        # missing sequence is 0, 2, 5, 6, ...
        got = wk._nth_missing(present, np.array([0, 1, 2, 3]))
        assert got.tolist() == [0, 2, 5, 6]

    def test_empty_present(self):
        got = wk._nth_missing(np.array([], dtype=np.int64), np.array([4]))
        assert got.tolist() == [4]

    def test_random_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            size = int(rng.integers(0, 12))
            present = np.sort(rng.choice(30, size=size, replace=False))
            missing = np.setdiff1d(np.arange(30), present)
            ranks = rng.integers(0, missing.shape[0], size=6)
            got = wk._nth_missing(present, ranks)
            assert got.tolist() == missing[ranks].tolist()


def search_emit(engine, origins, stops, rng):
    """emit as it was: each kept position searched for its walk, each pair
    labeled by InteractionMatrix.labels."""
    counts = engine.X.row_counts[stops]
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    block = fa.PAIR_DOT_CELLS
    keep = [lo + np.flatnonzero(rng.random(min(block, total - lo))
                                < 1.0 / engine.cfg.beta)
            for lo in range(0, total, block)]
    keep = np.concatenate(keep) if keep else np.zeros(0, dtype=np.int64)
    walk = np.searchsorted(ends, keep, side="right")
    offset = keep - (ends[walk] - counts[walk])
    users = origins[walk]
    items = engine.X.row_items[engine.X.row_indptr[stops[walk]] + offset]
    return users, items, engine.X.labels(users, items)


def emission_case(order, beta=20.0):
    """Sparse rows (m = 90 > 8 * 7), six users with none, and origins in
    batch order, sorted with gaps, or shuffled."""
    n, m = 40, 90
    dense = np.random.default_rng(35).random((n, m)) < 0.12
    dense[[0, 3, 4, 17, 18, 39]] = False
    train = matrix_from_pairs(n, m, *np.nonzero(dense))
    social = build_social_graph(random_social(n, 3, seed=36), seed=36)
    engine = wk.WalkEngine(social, train, wk.SamplerConfig(
        alpha=3, beta=beta, c=0.6, t_m=2))
    origins = np.repeat(np.arange(n, dtype=np.int64), 3)
    rng = np.random.default_rng(37)
    if order == "gapped":
        origins = np.sort(rng.choice(n, size=90)).astype(np.int32)
    elif order == "shuffled":
        origins = rng.permutation(origins)
    return train, engine, origins, engine.stop_users(origins, rng)


def make_graphs(n=12, m=16, seed=0):
    train = random_matrix(n, m, 0.3, seed=seed)
    social = build_social_graph(random_social(n, 3, seed=seed), seed=seed)
    pseudo = build_pseudo_graph(train, K=3, seed=seed)
    return train, social, pseudo


class TestWalkEngineStopLaw:
    @pytest.mark.parametrize("mode", ["social", "pseudo"])
    def test_stop_distribution(self, mode):
        train, social, pseudo = make_graphs(seed=6)
        params = social if mode == "social" else pseudo
        cfg = wk.SamplerConfig(alpha=1, beta=2.0, c=0.6, t_m=3, seed=0)
        engine = wk.WalkEngine(params, train, cfg)
        rng = np.random.default_rng(7)
        walks = 60_000
        origins = np.full(walks, 4, dtype=np.int64)
        stops = engine.stop_users(origins, rng)
        counts = np.bincount(stops, minlength=train.n)
        S = dense_stop_distribution(dense_transition(params), cfg.c, cfg.t_m)
        assert chi_square_pvalue(counts, walks * S[4],
                                 fixed_total=True) > 1e-3

    def test_transition_step_budget(self):
        train, social, _ = make_graphs(seed=8)
        cfg = wk.SamplerConfig(alpha=7, beta=2.0, c=0.9, t_m=4, seed=0)
        engine = wk.WalkEngine(social, train, cfg)
        origins = np.repeat(np.arange(train.n, dtype=np.int64), cfg.alpha)
        engine.stop_users(origins, np.random.default_rng(9))
        assert engine.last_transition_steps <= cfg.alpha * train.n * cfg.t_m

    def test_t_m_zero_stops_or_jumps_immediately(self):
        train, social, _ = make_graphs(seed=10)
        cfg = wk.SamplerConfig(alpha=1, beta=2.0, c=0.5, t_m=0, seed=0)
        engine = wk.WalkEngine(social, train, cfg)
        origins = np.full(30_000, 2, dtype=np.int64)
        stops = engine.stop_users(origins, np.random.default_rng(11))
        assert engine.last_transition_steps == 0
        counts = np.bincount(stops, minlength=train.n)
        expected = np.full(train.n, 0.5 / train.n * 30_000)
        expected[2] += 0.5 * 30_000
        assert chi_square_pvalue(counts, expected, fixed_total=True) > 1e-3


class TestWalkEngineEmission:
    def test_pair_frequencies_match_truncated_gamma(self):
        train, _, pseudo = make_graphs(n=10, m=14, seed=12)
        cfg = wk.SamplerConfig(alpha=4000, beta=4.0, c=0.5, t_m=3, seed=0)
        engine = wk.WalkEngine(pseudo, train, cfg)
        batch = engine.sample_batch(np.random.default_rng(13))
        counts = np.zeros((train.n, train.m))
        np.add.at(counts, (batch.users, batch.items), 1.0)
        gamma = dense_gamma_truncated(dense_transition(pseudo),
                                      train.to_dense(), cfg.c, cfg.t_m)
        expected = cfg.alpha * gamma / cfg.beta
        assert chi_square_pvalue(counts, expected, fixed_total=False) > 1e-3

    def test_labels_and_scale(self):
        train, social, _ = make_graphs(seed=14)
        cfg = wk.SamplerConfig(alpha=50, beta=3.0, c=0.7, t_m=3, seed=0)
        batch = wk.WalkEngine(social, train, cfg).sample_batch(
            np.random.default_rng(15))
        assert batch.expected_scale == pytest.approx(cfg.beta / cfg.alpha)
        np.testing.assert_array_equal(batch.labels,
                                      train.labels(batch.users, batch.items))
        assert batch.size == batch.users.shape[0]

    @staticmethod
    def emit_case(beta):
        train, social, _ = make_graphs(seed=21)
        cfg = wk.SamplerConfig(alpha=30, beta=beta, c=0.7, t_m=2, seed=0)
        engine = wk.WalkEngine(social, train, cfg)
        origins = np.repeat(np.arange(train.n, dtype=np.int64), cfg.alpha)
        stops = engine.stop_users(origins, np.random.default_rng(22))
        # the reference consumes one draw per candidate, walk by walk, all
        # drawn at once
        draws = iter(np.random.default_rng(23).random(
            int(train.row_counts[stops].sum())))
        ref = [(int(u), int(i)) for u, v in zip(origins, stops)
               for i in train.row(int(v)) if next(draws) < 1.0 / beta]
        return train, engine, origins, stops, ref

    @pytest.mark.parametrize("beta", [1.0, 3.0])
    def test_emit_matches_per_walk_reference(self, beta):
        train, engine, origins, stops, ref = self.emit_case(beta)
        users, items, labels = engine.emit(origins, stops,
                                           np.random.default_rng(23))
        assert list(zip(users.tolist(), items.tolist())) == ref
        assert users.dtype == origins.dtype
        assert items.dtype == train.row_items.dtype
        np.testing.assert_array_equal(labels, train.labels(users, items))

    @pytest.mark.parametrize("beta", [1.0, 3.0])
    @pytest.mark.parametrize("block", [1, 7, 10 ** 9])
    def test_emit_block_size_does_not_change_the_batch(self, beta, block,
                                                       monkeypatch):
        train, engine, origins, stops, ref = self.emit_case(beta)
        assert 7 < train.row_counts[stops].sum() < 10 ** 9
        monkeypatch.setattr(fa, "PAIR_DOT_CELLS", block)
        users, items, labels = engine.emit(origins, stops,
                                           np.random.default_rng(23))
        assert list(zip(users.tolist(), items.tolist())) == ref
        np.testing.assert_array_equal(labels, train.labels(users, items))

    def test_emit_memory_follows_the_block_not_the_candidates(self,
                                                              monkeypatch):
        # one stop user with every item: 400 walks give 800k candidates,
        # 6.4 MB of uniforms if drawn at once, and about 800 kept pairs
        monkeypatch.setattr(fa, "PAIR_DOT_CELLS", 1 << 12)
        m = 2000
        train = matrix_from_pairs(2, m, np.zeros(m, dtype=np.int64),
                                  np.arange(m, dtype=np.int64))
        social = build_social_graph(random_social(2, 1, seed=0))
        cfg = wk.SamplerConfig(alpha=1, beta=1000.0, c=0.5, t_m=1, seed=0)
        engine = wk.WalkEngine(social, train, cfg)
        origins = np.ones(400, dtype=np.int64)
        stops = np.zeros(400, dtype=np.int64)
        engine.emit(origins, stops, np.random.default_rng(47))  # warm up
        tracemalloc.start()
        try:
            users, _, _ = engine.emit(origins, stops, np.random.default_rng(47))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        total = 400 * m
        assert 0 < users.size < total / 500
        block_bytes = 9 * fa.PAIR_DOT_CELLS  # the uniforms and their mask
        assert peak < 2 * block_bytes + 64 * users.size + 64 * 400

    def test_emit_peak_memory_per_kept_pair(self):
        # about 190k kept pairs from 160k walks: the exact-size outputs (17
        # bytes a pair) beside 8 bytes a pair of kept ids, 27 bytes a pair
        # in all; concatenating per-block parts took 63
        train = random_matrix(400, 600, 0.04, seed=61)
        social = build_social_graph(random_social(400, 8, seed=62))
        cfg = wk.SamplerConfig(alpha=400, beta=20.0, c=0.9, t_m=5)
        engine = wk.WalkEngine(social, train, cfg)
        origins = np.repeat(np.arange(400, dtype=np.int64), cfg.alpha)
        stops = engine.stop_users(origins, np.random.default_rng(63))
        engine.emit(origins, stops, np.random.default_rng(65))  # warm up
        tracemalloc.start()
        try:
            users, _, _ = engine.emit(origins, stops, np.random.default_rng(65))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 150_000 < users.size < 250_000
        assert peak <= 32 * users.size

    @pytest.mark.parametrize("beta", [1.0, 3.0, 20.0])
    @pytest.mark.parametrize("block", [1, 7, 40, fa.PAIR_DOT_CELLS, 10 ** 9])
    @pytest.mark.parametrize("order", ["sorted", "gapped", "shuffled"])
    def test_emit_matches_search_reference(self, beta, block, order,
                                           monkeypatch):
        train, engine, origins, stops = emission_case(order, beta)
        monkeypatch.setattr(fa, "PAIR_DOT_CELLS", block)
        got = engine.emit(origins, stops, np.random.default_rng(31))
        want = search_emit(engine, origins, stops, np.random.default_rng(31))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        assert got[0].size > 0 and 0 < got[2].sum() < got[2].size

    def test_emit_case_covers_the_corners(self):
        train, engine, origins, stops = emission_case("sorted")
        counts = train.row_counts[stops]
        assert (train.row_counts[origins] == 0).any()  # origins without positives
        assert (counts == 0).any()  # stop users with empty rows
        # 7-cell blocks split walks and users, and some hold two users,
        # each a label span of its own since m > 8 * 7
        ends = np.cumsum(counts)
        assert ((ends - counts) // 7 != (ends - 1) // 7)[counts > 0].any()
        user = np.repeat(origins, counts)
        block = np.arange(user.size) // 7
        same_user, same_block = user[1:] == user[:-1], block[1:] == block[:-1]
        assert (same_user & ~same_block).any()
        assert (~same_user & same_block).any()
        assert 8 * 7 // train.m == 0

    @pytest.mark.parametrize("block", [1, 7, 40, 10 ** 9])
    def test_origin_labeler_matches_labels(self, block, monkeypatch):
        monkeypatch.setattr(fa, "PAIR_DOT_CELLS", block)
        train = random_matrix(50, 90, 0.1, seed=33, min_row=0)
        rng = np.random.default_rng(34)
        for size in (0, 1, 17, 400):
            users = np.sort(rng.integers(0, 50, size=size))
            items = rng.integers(0, 90, size=size)
            items[: size // 2] = [rng.choice(train.row(u)) if train.row_counts[u]
                                  else 0 for u in users[: size // 2]]
            for u in (users, users.astype(np.int32), users[::-1].copy()):
                labeler = wk._OriginLabeler(train)
                assert labeler.table.nbytes <= max(8 * block, train.m)
                got = labeler(u, items)
                assert got.dtype == np.uint8
                np.testing.assert_array_equal(got, train.labels(u, items))

    def test_emit_without_candidates(self):
        train, social, _ = make_graphs(seed=24)
        engine = wk.WalkEngine(social, train, wk.SamplerConfig())
        empty = np.zeros(0, dtype=np.int64)
        users, items, labels = engine.emit(empty, empty,
                                           np.random.default_rng(0))
        assert users.size == items.size == labels.size == 0


class TestScalarReference:
    def test_scalar_law_matches_dense(self):
        train, _, pseudo = make_graphs(n=8, m=10, seed=17)
        cfg = wk.SamplerConfig(alpha=1, beta=2.0, c=0.5, t_m=2, seed=0)
        rng = np.random.default_rng(18)
        counts = np.zeros((train.n, train.m))
        walks = 50_000
        for _ in range(walks):
            for u, i, x in walk_sample_user(pseudo, train, 3, cfg, rng):
                counts[u, i] += 1
        gamma = dense_gamma_truncated(dense_transition(pseudo),
                                      train.to_dense(), cfg.c, cfg.t_m)
        expected = walks * gamma[3] / cfg.beta
        assert counts[np.arange(train.n) != 3].sum() == 0
        assert chi_square_pvalue(counts[3], expected,
                                 fixed_total=False) > 1e-3

    def test_labels_from_origin_row(self):
        train, social, _ = make_graphs(seed=19)
        cfg = wk.SamplerConfig(alpha=1, beta=1.0, c=0.8, t_m=3, seed=0)
        rng = np.random.default_rng(20)
        for _ in range(200):
            for u, i, x in walk_sample_user(social, train, 5, cfg, rng):
                assert u == 5
                assert x == float(train.labels([5], [i])[0])


def hand_matrix():
    # 3 users x 4 items; row counts 2, 1, 1; col counts 2, 1, 0, 1
    us = np.array([0, 0, 1, 2])
    its = np.array([0, 1, 0, 3])
    return matrix_from_pairs(3, 4, us, its)


class TestBaselineProbabilities:
    def test_all_kinds_sum_to_one(self):
        X = random_matrix(9, 13, 0.25, seed=21)
        us, its = np.indices((9, 13))
        for kind in wk.BASELINE_KINDS:
            s = wk.BaselineSampler(kind, X)
            total = s.prob(us.ravel(), its.ravel()).sum()
            assert total == pytest.approx(1.0, abs=1e-9), kind

    def test_allunion_uniform(self):
        X = hand_matrix()
        s = wk.BaselineSampler("allunion", X)
        p = s.prob(np.array([0, 2]), np.array([0, 2]))
        np.testing.assert_allclose(p, 1 / 12)

    def test_balunion_class_split(self):
        X = hand_matrix()
        s = wk.BaselineSampler("balunion", X)
        # 4 positives, 8 zeros
        p = s.prob(np.array([0, 0]), np.array([0, 2]))
        np.testing.assert_allclose(p, [0.5 / 4, 0.5 / 8])

    def test_itempop_zero_mass_proportional_to_popularity(self):
        X = hand_matrix()
        s = wk.BaselineSampler("itempop", X)
        # zero-pair weights c_i, normalized over Z0 = sum (n - c_b) c_b
        #   = (3-2)*2 + (3-1)*1 + 0 + (3-1)*1 = 6
        p = s.prob(np.array([2, 1, 0]), np.array([0, 1, 3]))
        np.testing.assert_allclose(p, [0.5 * 2 / 6, 0.5 * 1 / 6, 0.5 * 1 / 6])
        p1 = s.prob(np.array([0]), np.array([0]))
        np.testing.assert_allclose(p1, [0.5 / 4])

    def test_cobias_opposite_class_counts(self):
        X = hand_matrix()
        s = wk.BaselineSampler("cobias", X)
        # positive (0,0): (m - r_0)(n - c_0) = (4-2)(3-2) = 2
        # Z1 = sum over positives: (0,0)=2, (0,1)=2*2=4, (1,0)=3*1=3, (2,3)=3*2=6
        z1 = 2 + 4 + 3 + 6
        p = s.prob(np.array([0]), np.array([0]))
        np.testing.assert_allclose(p, [0.5 * 2 / z1])
        # zero (1,1): r_1 * c_1 = 1 * 1 = 1
        # Z0 = sum over zero pairs of r_u c_i
        dense = X.to_dense()
        rc = X.row_counts
        cc = X.col_counts
        z0 = sum(rc[u] * cc[i] for u in range(3) for i in range(4)
                 if dense[u, i] == 0)
        p = s.prob(np.array([1]), np.array([1]))
        np.testing.assert_allclose(p, [0.5 * 1 / z0])

    def test_degenerate_classes_raise(self):
        full = matrix_from_pairs(2, 2, np.array([0, 0, 1, 1]),
                                 np.array([0, 1, 0, 1]))
        wk.BaselineSampler("allunion", full)  # fine: no class split
        for kind in ("balunion", "itempop", "cobias"):
            with pytest.raises(EstimatorError):
                wk.BaselineSampler(kind, full)
        empty = matrix_from_pairs(2, 2, np.array([], dtype=np.int64),
                                  np.array([], dtype=np.int64))
        for kind in wk.BASELINE_KINDS:
            with pytest.raises(EstimatorError):
                wk.BaselineSampler(kind, empty)


class TestBaselineSampling:
    @pytest.mark.parametrize("kind", wk.BASELINE_KINDS)
    def test_empirical_matches_prob(self, kind):
        X = random_matrix(8, 11, 0.3, seed=22)
        s = wk.BaselineSampler(kind, X)
        rng = np.random.default_rng(23)
        draws = 120_000
        batch = s.sample(draws, rng)
        counts = np.zeros((8, 11))
        np.add.at(counts, (batch.users, batch.items), 1.0)
        us, its = np.indices((8, 11))
        p = s.prob(us.ravel(), its.ravel()).reshape(8, 11)
        assert chi_square_pvalue(counts, draws * p, fixed_total=True) > 1e-3

    def test_batch_metadata(self):
        X = random_matrix(6, 9, 0.3, seed=24)
        s = wk.BaselineSampler("itempop", X)
        batch = s.sample(500, np.random.default_rng(25))
        assert batch.size == 500
        assert batch.expected_scale == pytest.approx(1 / 500)
        np.testing.assert_array_equal(batch.labels,
                                      X.labels(batch.users, batch.items))
        np.testing.assert_allclose(batch.probs,
                                   s.prob(batch.users, batch.items))

    def test_cobias_rejection_fallback_region(self):
        # users 1..39 consume the two blockbuster items, so their zero draws
        # must find the single rare item against a ~1/79 acceptance rate;
        # that reliably exercises the exact-enumeration fallback
        n = 40
        us, its = [0], [2]
        for u in range(1, n):
            us += [u, u]
            its += [0, 1]
        X = matrix_from_pairs(n, 3, np.array(us), np.array(its))
        s = wk.BaselineSampler("cobias", X)
        rng = np.random.default_rng(26)
        batch = s.sample(4000, rng)
        zeros = batch.labels == 0
        popular_users = batch.users[zeros] != 0
        assert popular_users.any() and (~popular_users).any()
        assert np.all(batch.items[zeros][popular_users] == 2)
        assert np.all(np.isin(batch.items[zeros][~popular_users], [0, 1]))

    def test_wrapper_dispatch(self):
        X = random_matrix(5, 7, 0.3, seed=27)
        batch = wk.BaselineSampler("balunion", X).sample(
            100, np.random.default_rng(28))
        assert batch.size == 100
        with pytest.raises(ValueError):
            wk.BaselineSampler("nope", X)

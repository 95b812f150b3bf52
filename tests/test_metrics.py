"""Ranking metrics against hand values and a brute-force reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkrec import metrics
from walkrec.corpus import matrix_from_pairs
from walkrec.errors import ConfigError
from walkrec.factors import PreferenceFactors
from walkrec.graphnet import build_social_graph
from walkrec.walker import SamplerConfig

from tests.conftest import random_factors, random_matrix, random_social


def single_user_setup():
    """One user, seven items; the train positive would top the list."""
    scores = np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.0, 10.0])
    f = PreferenceFactors(P=np.array([[1.0]]), Q=scores[:, None])
    train = matrix_from_pairs(1, 7, np.array([0]), np.array([6]))
    test = matrix_from_pairs(1, 7, np.array([0, 0]), np.array([0, 4]))
    return f, train, test


class TestHandExample:
    def test_exact_values(self):
        f, train, test = single_user_setup()
        report = metrics.evaluate(f, train, test, ks=(5,))
        # test items land at ranks 1 and 5 once the train item is excluded
        assert abs(report.recall[5] - 1.0) < 1e-9
        assert abs(report.precision[5] - 0.4) < 1e-9
        want_ndcg = (1.0 + 1.0 / math.log2(6)) / (1.0 + 1.0 / math.log2(3))
        assert abs(report.ndcg - want_ndcg) < 1e-9
        assert abs(report.mrr - 1.2) < 1e-9
        assert report.users == 1

    def test_mrr_is_a_sum_not_a_max(self):
        # both test items near the top: reciprocal ranks add up past 1
        f, train, test = single_user_setup()
        report = metrics.evaluate(f, train, test, ks=(2,))
        assert report.mrr == pytest.approx(1.2)

    def test_train_positive_excluded_from_ranking(self):
        # item 6 outscores every other item but is a train positive, so
        # items 0, 1, 2 take ranks 1, 2, 3 (2, 3, 4 if 6 were ranked)
        f, train, _ = single_user_setup()
        test = matrix_from_pairs(1, 7, np.array([0, 0, 0]), np.array([0, 1, 2]))
        report = metrics.evaluate(f, train, test, ks=(1, 3))
        assert report.precision[3] == 1.0
        assert report.recall[1] == pytest.approx(1.0 / 3.0)
        assert report.mrr == pytest.approx(1.0 + 1.0 / 2.0 + 1.0 / 3.0)


class TestTieBreaking:
    def test_equal_scores_rank_by_item_id(self):
        f = PreferenceFactors(P=np.array([[1.0]]),
                              Q=np.array([[2.0], [2.0], [2.0], [5.0]]))
        train = matrix_from_pairs(1, 4, np.array([], dtype=np.int64),
                                  np.array([], dtype=np.int64))
        # scores 2, 2, 2, 5: item 3 first, then the tied items by id
        for item, rank in ((3, 1), (0, 2), (1, 3), (2, 4)):
            test = matrix_from_pairs(1, 4, np.array([0]), np.array([item]))
            report = metrics.evaluate(f, train, test, ks=(1, 2, 3, 4))
            assert report.mrr == 1.0 / rank, item
            assert [report.recall[k] for k in (1, 2, 3, 4)] == [
                float(k >= rank) for k in (1, 2, 3, 4)], item


def brute_force_report(factors, train, test, ks):
    """Per-user re-ranking with explicit python sorting."""
    recall = {k: [] for k in ks}
    precision = {k: [] for k in ks}
    ndcgs, mrrs = [], []
    users = 0
    for u in range(train.n):
        tset = set(test.row(u).tolist())
        if not tset:
            continue
        users += 1
        scores = factors.P[u] @ factors.Q.T
        excluded = set(train.row(u).tolist())
        cands = [i for i in range(train.m) if i not in excluded]
        cands.sort(key=lambda i: (-scores[i], i))
        rank_of = {i: r + 1 for r, i in enumerate(cands)}
        ranks = sorted(rank_of[i] for i in tset)
        for k in ks:
            hits = sum(1 for r in ranks if r <= k)
            recall[k].append(hits / len(tset))
            precision[k].append(hits / k)
        dcg = sum(1.0 / math.log2(r + 1) for r in ranks)
        idcg = sum(1.0 / math.log2(j + 2) for j in range(len(tset)))
        ndcgs.append(dcg / idcg)
        mrrs.append(sum(1.0 / r for r in ranks))
    out = {
        "recall": {k: float(np.mean(v)) for k, v in recall.items()},
        "precision": {k: float(np.mean(v)) for k, v in precision.items()},
        "ndcg": float(np.mean(ndcgs)),
        "mrr": float(np.mean(mrrs)),
        "users": users,
    }
    return out


class TestBruteForceAgreement:
    def test_random_instance(self):
        rng = np.random.default_rng(0)
        n, m = 30, 25
        f = random_factors(n, m, 4, seed=0)
        full = random_matrix(n, m, 0.3, seed=1, min_row=2)
        # carve a test set out of each user's positives
        tr_u, tr_i, te_u, te_i = [], [], [], []
        for u in range(n):
            row = full.row(u)
            take = rng.integers(0, len(row))
            picks = set(rng.choice(row, size=take, replace=False).tolist())
            for i in row:
                (te_u if int(i) in picks else tr_u).append(u)
                (te_i if int(i) in picks else tr_i).append(int(i))
        train = matrix_from_pairs(n, m, np.array(tr_u), np.array(tr_i))
        test = matrix_from_pairs(n, m, np.array(te_u), np.array(te_i))
        ks = (3, 7)
        report = metrics.evaluate(f, train, test, ks=ks)
        want = brute_force_report(f, train, test, ks)
        for k in ks:
            assert report.recall[k] == pytest.approx(want["recall"][k], abs=1e-12)
            assert report.precision[k] == pytest.approx(want["precision"][k], abs=1e-12)
        assert report.ndcg == pytest.approx(want["ndcg"], abs=1e-12)
        assert report.mrr == pytest.approx(want["mrr"], abs=1e-12)
        assert report.users == want["users"]

    def test_no_test_users_yields_zero_report(self):
        f = random_factors(3, 4, 2, seed=2)
        train = random_matrix(3, 4, 0.4, seed=3)
        empty = matrix_from_pairs(3, 4, np.array([], dtype=np.int64),
                                  np.array([], dtype=np.int64))
        report = metrics.evaluate(f, train, empty, ks=(2,))
        assert report.users == 0
        assert report.ndcg == 0.0 and report.mrr == 0.0


def argsort_report(factors, train, test, ks):
    """evaluate's report from a full stable argsort per user, with the same
    per-user arithmetic, so the two must agree bit for bit."""
    rec = {k: 0.0 for k in ks}
    pre = {k: 0.0 for k in ks}
    ndcg_sum = mrr_sum = 0.0
    users = 0
    for u in range(train.n):
        te = test.row(u)
        if te.shape[0] == 0:
            continue
        users += 1
        scores = factors.Q @ factors.P[u].astype(np.float64)
        scores[train.row(u)] = -np.inf
        order = np.argsort(-scores, kind="stable")
        inv = np.empty(train.m, dtype=np.int64)
        inv[order] = np.arange(train.m)
        ranks = inv[te] + 1
        for k in ks:
            hits = int(np.sum(ranks <= k))
            rec[k] += hits / te.shape[0]
            pre[k] += hits / k
        idcg = float(np.sum(1.0 / np.log2(np.arange(1, te.shape[0] + 1) + 1.0)))
        ndcg_sum += float(np.sum(1.0 / np.log2(ranks + 1.0))) / idcg
        mrr_sum += float(np.sum(1.0 / ranks))
    if users == 0:
        return metrics.EvalReport(ks=ks, recall={k: 0.0 for k in ks},
                                  precision={k: 0.0 for k in ks}, ndcg=0.0,
                                  mrr=0.0, users=0).as_dict()
    return metrics.EvalReport(
        ks=ks, recall={k: rec[k] / users for k in ks},
        precision={k: pre[k] / users for k in ks}, ndcg=ndcg_sum / users,
        mrr=mrr_sum / users, users=users).as_dict()


def split_matrix(n, m, density, seed):
    """Disjoint train/test splits with about 30% of positives held out."""
    rng = np.random.default_rng(seed)
    pos = rng.random((n, m)) < density
    held = pos & (rng.random((n, m)) < 0.3)
    return (matrix_from_pairs(n, m, *np.nonzero(pos & ~held)),
            matrix_from_pairs(n, m, *np.nonzero(held)))


def assert_same_report(f, train, test, ks):
    got = metrics.evaluate(f, train, test, ks=ks).as_dict()
    assert got == argsort_report(f, train, test, ks)


class TestArgsortAgreement:
    KS = [(10,), (1, 3, 50), (2, 5)]

    @pytest.mark.parametrize("ks", KS)
    def test_random_factors(self, ks):
        train, test = split_matrix(40, 60, 0.3, seed=6)
        assert_same_report(random_factors(40, 60, 5, seed=6), train, test, ks)

    @pytest.mark.parametrize("ks", KS)
    @pytest.mark.parametrize("decimals", [0, 1])
    def test_rounded_factors_with_heavy_ties(self, ks, decimals):
        train, test = split_matrix(40, 60, 0.3, seed=7)
        f = random_factors(40, 60, 2, seed=7, scale=2.0)
        f = PreferenceFactors(P=np.round(f.P, decimals), Q=np.round(f.Q, decimals))
        assert_same_report(f, train, test, ks)

    @pytest.mark.parametrize("ks", KS)
    def test_all_equal_scores(self, ks):
        train, test = split_matrix(20, 30, 0.4, seed=8)
        f = PreferenceFactors(P=np.ones((20, 3)), Q=np.ones((30, 3)))
        assert_same_report(f, train, test, ks)

    def test_test_pairs_that_are_train_pairs(self):
        # every test item sinks to -inf with the train positives and ranks
        # among them by id
        train, _ = split_matrix(20, 30, 0.4, seed=9)
        f = random_factors(20, 30, 3, seed=9)
        assert_same_report(f, train, train, (3, 10))
        one = matrix_from_pairs(1, 5, np.array([0, 0]), np.array([1, 3]))
        f = PreferenceFactors(P=np.array([[1.0]]),
                              Q=np.array([[4.0], [3.0], [2.0], [1.0], [0.0]]))
        report = metrics.evaluate(f, one, one, ks=(3, 4))
        # candidates 0, 2, 4 come first; train items 1 and 3 follow
        assert report.recall == {3: 0.0, 4: 0.5}
        assert report.mrr == 1 / 4 + 1 / 5

    def test_user_tied_at_the_cutoff(self):
        # seven candidates share one score across the K=3 boundary; the
        # smaller ids take the places
        f = PreferenceFactors(P=np.array([[1.0]]),
                              Q=np.array([[9.0]] + [[1.0]] * 7))
        train = matrix_from_pairs(1, 8, np.array([], dtype=np.int64),
                                  np.array([], dtype=np.int64))
        test = matrix_from_pairs(1, 8, np.array([0, 0]), np.array([2, 6]))
        report = metrics.evaluate(f, train, test, ks=(3, 7))
        assert report.recall == {3: 0.5, 7: 1.0}
        assert report.as_dict() == argsort_report(f, train, test, (3, 7))

    def test_cutoffs_past_the_item_count(self):
        train, test = split_matrix(15, 12, 0.4, seed=10)
        f = random_factors(15, 12, 3, seed=10)
        report = metrics.evaluate(f, train, test, ks=(12, 40))
        assert report.recall == {12: 1.0, 40: 1.0}
        assert_same_report(f, train, test, (12, 40))

    def test_nan_scores_rank_last_by_id(self):
        f = PreferenceFactors(P=np.array([[1.0]]),
                              Q=np.array([[np.nan], [2.0], [np.nan], [np.inf],
                                          [np.nan]]))
        train = matrix_from_pairs(1, 5, np.array([0]), np.array([1]))
        test = matrix_from_pairs(1, 5, np.array([0, 0, 0]), np.array([2, 3, 4]))
        # item 3 first, then the sunk train item 1, then NaN items 2 and 4
        got = metrics.evaluate(f, train, test, ks=(1, 4))
        assert got.recall == {1: 1 / 3, 4: 2 / 3}
        assert got.as_dict() == argsort_report(f, train, test, (1, 4))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 9), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_small_integer_factors(self, n, m, d, seed):
        rng = np.random.default_rng(seed)
        f = PreferenceFactors(P=rng.integers(-2, 3, (n, d)).astype(np.float64),
                              Q=rng.integers(-2, 3, (m, d)).astype(np.float64))
        train, test = split_matrix(n, m, rng.uniform(0.2, 0.9), seed)
        ks = tuple(sorted({int(k) for k in rng.integers(1, m + 3, size=2)}))
        assert_same_report(f, train, test, ks)
        assert_same_report(f, train, train, ks)


def ulp_rows(base, m):
    """m rows, each one ulp above the last in every entry."""
    rows = [base]
    for _ in range(m - 1):
        rows.append(np.nextafter(rows[-1], np.inf))
    return np.array(rows)


@st.composite
def near_tie_cases(draw):
    """Factors and splits on which block scores and per-user scores tie,
    nearly tie, underflow, or are not finite."""
    n, m, d = draw(st.integers(1, 6)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["ulp", "duplicate", "integer", "decimal",
                                 "subnormal", "nonfinite"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P, Q = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    if kind == "ulp":
        Q = ulp_rows(Q[0], m)[rng.permutation(m)]
    elif kind == "duplicate":
        Q = Q[rng.integers(0, min(2, m), m)]
    elif kind == "integer":
        P, Q = (rng.integers(-2, 3, A.shape).astype(np.float64) for A in (P, Q))
    elif kind == "decimal":
        P, Q = np.round(2 * P, 1), np.round(2 * Q, 1)
    elif kind == "subnormal":  # products below the normal range
        P, Q = P * 1e-160, Q * 1e-160
    else:
        for A in (P, Q):
            A.flat[rng.integers(A.size, size=2)] = rng.choice(
                [np.inf, -np.inf, np.nan], size=2)
    train, test = split_matrix(n, m, rng.uniform(0.2, 0.9), int(rng.integers(2**31)))
    if draw(st.booleans()):  # some test items are train items too
        keep = rng.random(train.nnz) < 0.5
        test = matrix_from_pairs(
            n, m, np.concatenate([test.row_users, train.row_users[keep]]),
            np.concatenate([test.row_items, train.row_items[keep]]))
    ks = tuple(sorted({int(k) for k in rng.integers(1, m + 3, size=2)}))
    return PreferenceFactors(P=P, Q=Q), train, test, ks


class TestBlockScores:
    """evaluate scores users in blocks from one matrix product, whose rows
    may differ from the per-user scores in the last bits; the ranks it
    reports must still be those of the per-user scores."""

    @settings(max_examples=150, deadline=None)
    @given(near_tie_cases())
    def test_near_ties_match_the_argsort_report(self, case):
        f, train, test, ks = case
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_report(f, train, test, ks)

    def test_continuous_factors_need_no_per_user_scores(self, monkeypatch):
        # perfbench's shape: no user of continuous random factors is left
        # to the per-user path, which a slowed evaluate would otherwise hide
        train, test = split_matrix(1000, 1500, 0.03, seed=11)
        f = random_factors(1000, 1500, 32, seed=11)
        want = argsort_report(f, train, test, (10, 20))

        def refuse(*args):
            raise AssertionError("a user took the per-user path")
        monkeypatch.setattr(metrics, "_exact_ranks", refuse)
        assert metrics.evaluate(f, train, test, ks=(10, 20)).as_dict() == want

    def test_window_ambiguous_user_takes_the_per_user_path(self, monkeypatch):
        # items 1 and 2 score one ulp apart for user 0, closer than any bound
        # on the product's rounding; user 1 scores them 2.0 apart
        f = PreferenceFactors(P=np.array([[1.0, 0.0], [0.0, 1.0]]),
                              Q=np.array([[5.0, 5.0], [0.7, 1.0],
                                          [np.nextafter(0.7, 1.0), -1.0],
                                          [-1.0, -1.0]]))
        train = matrix_from_pairs(2, 4, np.array([0, 1]), np.array([3, 3]))
        test = matrix_from_pairs(2, 4, np.array([0, 1]), np.array([2, 2]))
        seen = []
        exact = metrics._exact_ranks

        def counted(factors, train, u, te):
            seen.append(u)
            return exact(factors, train, u, te)
        monkeypatch.setattr(metrics, "_exact_ranks", counted)
        report = metrics.evaluate(f, train, test, ks=(1, 2))
        assert seen == [0]
        assert report.as_dict() == argsort_report(f, train, test, (1, 2))

    @pytest.mark.parametrize("users", [1, 2, 7, 300])
    def test_row_sums_add_like_one_user_sums(self, users):
        # evaluate sums each user's NDCG and MRR terms as a row of a
        # (users x t) matrix, which must add as np.sum of the user's own terms
        rng = np.random.default_rng(users)
        for t in list(range(1, 300)) + [511, 1000, 1027]:
            M = 1.0 / np.log2(rng.integers(1, 5000, (users, t)) + 1.0)
            assert np.array_equal(M.sum(axis=1), [np.sum(row) for row in M]), t


class TestRefusals:
    def test_factors_of_another_shape(self):
        train, test = split_matrix(3, 4, 0.5, seed=12)
        for n, m in ((3, 9), (5, 4)):
            f = random_factors(n, m, 2, seed=12)
            with pytest.raises(ValueError, match=f"factors are {n}x{m} .* 3x4"):
                metrics.evaluate(f, train, test, ks=(2,))

    def test_repeated_cutoff(self):
        f, train, test = single_user_setup()
        with pytest.raises(ValueError, match="repeats"):
            metrics.evaluate(f, train, test, ks=(5, 5))

    def test_mismatched_splits(self):
        f, train, _ = single_user_setup()
        wider = matrix_from_pairs(1, 8, np.array([0]), np.array([7]))
        taller = matrix_from_pairs(2, 7, np.array([1]), np.array([0]))
        for test in (wider, taller):
            with pytest.raises(ValueError, match="1x7"):
                metrics.evaluate(f, train, test, ks=(5,))


class TestReportShape:
    def test_rows_and_dict(self):
        f, train, test = single_user_setup()
        report = metrics.evaluate(f, train, test, ks=(2, 5))
        rows = list(report.rows())
        names = [(r[0], r[1]) for r in rows]
        assert ("recall", 2) in names and ("precision", 5) in names
        assert ("ndcg", None) in names and ("mrr", None) in names
        d = report.as_dict()
        assert "recall@2" in d and "ndcg" in d


class TestVarianceBench:
    def test_reports_all_kinds(self):
        train = random_matrix(10, 14, 0.3, seed=4)
        graph = build_social_graph(random_social(10, 3, seed=4), seed=4)
        f = random_factors(10, 14, 3, seed=4)
        cfg = SamplerConfig(alpha=30, beta=5.0, c=0.7, t_m=3, seed=0)
        out = metrics.variance_bench(f, graph, train, cfg, repeats=25,
                                     n_coords=12, seed=0)
        assert set(out["samplers"]) == {"walk", "allunion", "balunion",
                                        "itempop", "cobias"}
        for info in out["samplers"].values():
            assert info["variance"] >= 0.0
        assert out["batch_size"] >= 1

    @pytest.mark.parametrize("repeats,n_coords,name", [
        (1, 12, "repeats must be at least 2"),
        (0, 12, "repeats must be at least 2"),
        (25, 0, "n_coords must be at least 1"),
        (25, -3, "n_coords must be at least 1"),
    ])
    def test_unusable_count_is_refused_before_any_fold(self, monkeypatch,
                                                        repeats, n_coords, name):
        # one repeat has no sample variance and no coordinate has no mean:
        # both used to come back as NaN
        train = random_matrix(10, 14, 0.3, seed=4)
        graph = build_social_graph(random_social(10, 3, seed=4), seed=4)
        f = random_factors(10, 14, 3, seed=4)
        cfg = SamplerConfig(alpha=30, beta=5.0, c=0.7, t_m=3, seed=0)

        def no_fold(graph):
            raise AssertionError("folded before refusing")

        monkeypatch.setattr(metrics, "normalize_edges", no_fold)
        with pytest.raises(ConfigError, match=name):
            metrics.variance_bench(f, graph, train, cfg, repeats=repeats,
                                   n_coords=n_coords, seed=0)

    def test_uniform_confidence_equalizes_walk_and_allunion(self):
        # all-ones interactions give gamma = 1 everywhere, so the walk law
        # collapses to the uniform law; the only residual gap is the
        # binomial-thinning factor (1 - 1/beta), here 0.95
        n, m = 6, 8
        us, its = np.indices((n, m))
        train = matrix_from_pairs(n, m, us.ravel(), its.ravel())
        graph = build_social_graph(random_social(n, 2, seed=5), seed=5)
        f = random_factors(n, m, 3, seed=5)
        cfg = SamplerConfig(alpha=100, beta=20.0, c=0.6, t_m=3, seed=0)
        out = metrics.variance_bench(f, graph, train, cfg,
                                     kinds=("walk", "allunion"),
                                     repeats=800, n_coords=20, seed=1)
        vw = out["samplers"]["walk"]["variance"]
        va = out["samplers"]["allunion"]["variance"]
        assert 0.8 < vw / va < 1.2

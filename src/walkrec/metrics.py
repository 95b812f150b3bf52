"""Top-K ranking metrics and the gradient-variance benchmark."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import InteractionMatrix
from .errors import EstimatorError
from .factors import PreferenceFactors, accumulate_pair_gradients
from .graphnet import dense_transition, normalize_edges
from .oracle import dense_gamma_truncated, exact_full_gradient
from .walker import BASELINE_KINDS, BaselineSampler, SamplerConfig, WalkEngine


@dataclass
class EvalReport:
    ks: tuple[int, ...]
    recall: dict[int, float]
    precision: dict[int, float]
    ndcg: float
    mrr: float
    users: int

    def rows(self):
        """(metric, K or None, value) triples in a stable order."""
        for k in self.ks:
            yield ("recall", k, self.recall[k])
        for k in self.ks:
            yield ("precision", k, self.precision[k])
        yield ("ndcg", None, self.ndcg)
        yield ("mrr", None, self.mrr)
        yield ("users", None, float(self.users))

    def as_dict(self) -> dict:
        out = {}
        for metric, k, value in self.rows():
            out[metric if k is None else f"{metric}@{k}"] = value
        return out


def ranked_items(factors: PreferenceFactors, train: InteractionMatrix,
                 u: int, k: int | None = None) -> np.ndarray:
    """Items by descending score for user u, training positives excluded.

    Ties break toward the smaller item id (stable sort on negated scores).
    """
    scores = factors.Q @ factors.P[u]
    order = np.argsort(-scores, kind="stable")
    keep = np.ones(train.m, dtype=bool)
    keep[train.row(u)] = False
    order = order[keep[order]]
    return order if k is None else order[:k]


def _user_ranks(factors: PreferenceFactors, train: InteractionMatrix,
                u: int, test_items: np.ndarray) -> np.ndarray:
    """1-based ranks of the test items among non-train candidates."""
    scores = factors.Q @ factors.P[u].astype(np.float64)
    scores[train.row(u)] = -np.inf  # sinks below every candidate
    order = np.argsort(-scores, kind="stable")
    inv = np.empty(train.m, dtype=np.int64)
    inv[order] = np.arange(train.m)
    return inv[test_items] + 1


def _idcg(k: int) -> float:
    return float(np.sum(1.0 / np.log2(np.arange(1, k + 1) + 1.0)))


def evaluate(factors: PreferenceFactors, train: InteractionMatrix,
             test: InteractionMatrix, ks: tuple[int, ...] = (5, 10)
             ) -> EvalReport:
    """Macro-averaged ranking quality over users with test positives.

    Per user: recall@K and precision@K from the top-K candidate list; NDCG
    over the full candidate ranking, normalized by the ideal placement of all
    of the user's test items; reciprocal ranks summed over the user's test
    items (so a user holding several easy items can exceed 1).
    """
    ks = tuple(int(k) for k in ks)
    if not ks or min(ks) < 1:
        raise ValueError("ks must be positive")
    rec = {k: 0.0 for k in ks}
    pre = {k: 0.0 for k in ks}
    ndcg_sum = 0.0
    mrr_sum = 0.0
    users = 0
    for u in range(train.n):
        te = test.row(u)
        if te.shape[0] == 0:
            continue
        users += 1
        ranks = _user_ranks(factors, train, u, te)
        for k in ks:
            hits = int(np.sum(ranks <= k))
            rec[k] += hits / te.shape[0]
            pre[k] += hits / k
        ndcg_sum += float(np.sum(1.0 / np.log2(ranks + 1.0))) / _idcg(te.shape[0])
        mrr_sum += float(np.sum(1.0 / ranks))
    if users == 0:
        return EvalReport(ks=ks, recall={k: 0.0 for k in ks},
                          precision={k: 0.0 for k in ks}, ndcg=0.0, mrr=0.0,
                          users=0)
    return EvalReport(
        ks=ks,
        recall={k: rec[k] / users for k in ks},
        precision={k: pre[k] / users for k in ks},
        ndcg=ndcg_sum / users,
        mrr=mrr_sum / users,
        users=users,
    )


def _coord_view(dP: np.ndarray, dQ: np.ndarray, coords: np.ndarray) -> np.ndarray:
    flat = np.concatenate([dP.ravel(), dQ.ravel()])
    return flat[coords]


def variance_bench(factors: PreferenceFactors, graph, train: InteractionMatrix,
                   sampler_cfg: SamplerConfig,
                   kinds: tuple[str, ...] = ("walk",) + BASELINE_KINDS,
                   repeats: int = 200, n_coords: int = 50,
                   seed: int = 0) -> dict:
    """Per-coordinate variance of each sampler's gradient estimator.

    All estimators target the same full confidence-weighted gradient, with
    the confidence weights fixed at the exact depth-limited walk intensity
    (the walk sampler's own law). The walk estimator scales batch sums by
    beta/alpha; baselines importance-weight each drawn pair by gamma/p and
    average over a batch sized to the walk sampler's expected emission count.
    Raises EstimatorError if a baseline puts zero mass on a pair with
    positive confidence weight.
    """
    graph = normalize_edges(graph)
    W = dense_transition(graph)
    Xd = train.to_dense()
    gamma = dense_gamma_truncated(W, Xd, sampler_cfg.c, sampler_cfg.t_m)
    batch_size = max(1, int(round(sampler_cfg.alpha / sampler_cfg.beta
                                  * gamma.sum())))
    target = exact_full_gradient(factors, gamma, Xd)
    rng = np.random.default_rng(seed)
    total = (factors.n + factors.m) * factors.d
    coords = rng.choice(total, size=min(n_coords, total), replace=False)
    results: dict[str, dict] = {}
    for kind in kinds:
        if kind == "walk":
            engine = WalkEngine(graph, train, sampler_cfg)
            est = np.empty((repeats, coords.shape[0]))
            for r in range(repeats):
                batch = engine.sample_batch(rng)
                dP, dQ = accumulate_pair_gradients(
                    factors, batch.users, batch.items,
                    batch.labels.astype(np.float64))
                est[r] = batch.expected_scale * _coord_view(dP, dQ, coords)
        else:
            sampler = BaselineSampler(kind, train)
            _check_support(sampler, gamma, train)
            est = np.empty((repeats, coords.shape[0]))
            for r in range(repeats):
                batch = sampler.sample(batch_size, rng)
                w = gamma[batch.users, batch.items] / batch.probs
                dP, dQ = accumulate_pair_gradients(
                    factors, batch.users, batch.items,
                    batch.labels.astype(np.float64), weights=w)
                est[r] = batch.expected_scale * _coord_view(dP, dQ, coords)
        results[kind] = {
            "variance": float(np.mean(np.var(est, axis=0, ddof=1))),
            "mean_abs_bias": float(np.mean(np.abs(
                est.mean(axis=0) - _coord_view(*target, coords)))),
        }
    return {"samplers": results, "batch_size": batch_size,
            "coords": coords.tolist(), "repeats": repeats}


def _check_support(sampler: BaselineSampler, gamma: np.ndarray,
                   train: InteractionMatrix) -> None:
    us, its = np.nonzero(gamma > 1e-12)
    p = sampler.prob(us, its)
    if (p <= 0.0).any():
        raise EstimatorError(
            f"{sampler.kind}: zero mass on {int((p <= 0).sum())} pairs with "
            "positive confidence weight; importance weighting undefined")

"""Top-K ranking metrics and the gradient-variance benchmark."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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


def _stable_ranks(neg: np.ndarray, items: np.ndarray) -> np.ndarray:
    """1-based positions of items in a stable ascending sort of neg.

    Equal values rank by smaller index, as in argsort(kind="stable"), but
    only neg is sorted: a search counts the strictly smaller values, and an
    item with equal neighbours adds those at smaller indices.
    """
    srt = np.sort(neg)
    vals = neg[items]
    lo = srt.searchsorted(vals, "left")
    ranks = lo + 1
    tied = (srt.searchsorted(vals, "right") - lo > 1).nonzero()[0]
    for t in tied.tolist():
        j = items[t]
        head = neg[:j]
        # NaN != NaN, yet the sort keeps NaNs together after +inf
        same = np.isnan(head) if np.isnan(neg[j]) else head == neg[j]
        ranks[t] += np.count_nonzero(same)
    return ranks


def _idcg(k: int) -> float:
    return float(np.sum(1.0 / np.log2(np.arange(1, k + 1) + 1.0)))


# Scores held at once by evaluate: 1 << 18 cells (2 MB) timed faster than
# 1 << 16 or 1 << 20 at 1500 items.
EVAL_BLOCK_CELLS = 1 << 18
# Below this |q|·|p| bound no partial sum of a score can overflow.
_SCALE_LIMIT = np.finfo(np.float64).max / 4
# Covers the absolute rounding error of products that underflow.
_UNDERFLOW_SLACK = 1e-300


def _exact_ranks(factors: PreferenceFactors, train: InteractionMatrix, u: int,
                 te: np.ndarray) -> np.ndarray:
    """The ranks evaluate reports, by definition: user u's scores from one
    matrix-vector product, train items sunk below every candidate, and the
    stable ranks of the test items te."""
    scores = factors.Q @ np.asarray(factors.P[u], dtype=np.float64)
    scores[train.row(u)] = -np.inf
    return _stable_ranks(-scores, te)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over (starts, counts)."""
    offsets = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) + np.repeat(starts - offsets, counts)


def _count_below(srt: np.ndarray, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """srt[rows[q]].searchsorted(v[q]) for every q: the entries of the
    sorted row below v[q], found by one bisection over all queries."""
    m = srt.shape[1]
    flat = srt.ravel()
    last = rows * m - 1  # flat index of the entry before each row
    below = np.zeros(rows.shape[0], dtype=np.int64)
    step = 1 << (m.bit_length() - 1)
    while step:
        cand = np.minimum(below + step, m)
        below = np.where(flat[last + cand] < v, cand, below)
        step >>= 1
    return below


def _block_ranks(P: np.ndarray, Q: np.ndarray, qscale: float,
                 train: InteractionMatrix, test: InteractionMatrix,
                 us: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of the test items of users us, in test.row_items order, from
    one matrix product into neg (len(us) x m), and the users among us whose
    ranks that product cannot certify to equal _exact_ranks'.

    A product row may differ from the matrix-vector scores in the last
    bits. Any evaluation order of a d-term dot product lies within
    γ_d·Σ|q_k p_k| of the exact value (Higham, Accuracy and Stability of
    Numerical Algorithms, §3.1), so the two scores of an item differ by at
    most δ = 2γ_d·max_i‖q_i‖₁·‖p‖∞, and an item more than 2δ from every
    other keeps its place under either. The window reaches 4δ to each side;
    the rest is slack for rounding the bound and the window's ends. Scores
    that are not finite, or could overflow, are never certified.
    """
    d = Q.shape[1]
    gamma = d * 2.0 ** -53 / (1.0 - d * 2.0 ** -53)
    Pb = np.asarray(P[us], dtype=np.float64)
    np.matmul(-Pb, Q.T, out=neg)  # negated scores: best first once sorted
    tr_counts = train.row_counts[us]
    neg[np.repeat(np.arange(us.shape[0]), tr_counts),
        train.row_items[_ranges(train.row_indptr[us], tr_counts)]] = np.inf
    rows = np.repeat(np.arange(us.shape[0]), test.row_counts[us])
    v = neg[rows, test.row_items[test.row_indptr[us[0]]:test.row_indptr[us[-1] + 1]]]
    scale = qscale * np.max(np.abs(Pb), axis=1, initial=0.0)
    width = (8.0 * gamma * scale + _UNDERFLOW_SLACK)[rows]
    neg.sort(axis=1)
    below = _count_below(neg, rows, v)
    m = neg.shape[1]
    flat = neg.ravel()
    at = rows * m + below
    left = np.where(below > 0, flat[np.maximum(at - 1, 0)], -np.inf)
    right = np.where(below + 1 < m, flat[np.minimum(at + 1, flat.shape[0] - 1)],
                     np.inf)
    sure = ((scale <= _SCALE_LIMIT)[rows] & np.isfinite(v)
            & (left < v - width) & (right > v + width))
    return below + 1, us[np.unique(rows[~sure])]


# non-finite or huge factors are left uncertified, and the exact path warns
# about them as it always has
@np.errstate(over="ignore", invalid="ignore")
def _batched_ranks(factors: PreferenceFactors, train: InteractionMatrix,
                   test: InteractionMatrix, with_test: np.ndarray,
                   ranks: np.ndarray) -> np.ndarray:
    """Fill ranks (aligned with test.row_items) for users with_test, a
    block of EVAL_BLOCK_CELLS scores at a time; returns the users whose
    ranks could not be certified, whose entries are left unset."""
    Q = np.asarray(factors.Q)
    if np.result_type(Q, np.float64) != np.float64:
        return with_test  # the bound is for float64 arithmetic
    Q = Q.astype(np.float64, copy=False)
    qscale = np.max(np.abs(Q).sum(axis=1), initial=0.0)
    block = max(1, EVAL_BLOCK_CELLS // train.m)
    neg = np.empty((min(block, with_test.shape[0]), train.m))
    unsure = []
    for lo in range(0, with_test.shape[0], block):
        us = with_test[lo:lo + block]
        block_ranks, missed = _block_ranks(factors.P, Q, qscale, train, test,
                                           us, neg[:us.shape[0]])
        first = test.row_indptr[us[0]]
        ranks[first:first + block_ranks.shape[0]] = block_ranks
        unsure.append(missed)
    return np.concatenate(unsure)


def evaluate(factors: PreferenceFactors, train: InteractionMatrix,
             test: InteractionMatrix, ks: tuple[int, ...] = (5, 10)
             ) -> EvalReport:
    """Macro-averaged ranking quality over users with test positives.

    Per user: recall@K and precision@K from the top-K candidate list; NDCG
    over the full candidate ranking, normalized by the ideal placement of all
    of the user's test items; reciprocal ranks summed over the user's test
    items (so a user holding several easy items can exceed 1). Candidates
    with equal scores rank by smaller item id.

    Scores come a block of users at a time from one matrix product; a user
    whose ranks that product cannot certify is ranked by _exact_ranks.
    Per-user values add up in user order, as one user at a time would.
    """
    ks = tuple(int(k) for k in ks)
    if not ks or min(ks) < 1:
        raise ValueError("ks must be positive")
    if len(set(ks)) != len(ks):
        raise ValueError(f"ks repeats a cutoff: {ks}")
    if (test.n, test.m) != (train.n, train.m):
        raise ValueError(f"test split is {test.n}x{test.m} but train split "
                         f"is {train.n}x{train.m}")
    if (factors.n, factors.m) != (train.n, train.m):
        raise ValueError(f"factors are {factors.n}x{factors.m} but the splits "
                         f"are {train.n}x{train.m}")
    with_test = np.flatnonzero(test.row_counts)
    users = int(with_test.shape[0])
    if users == 0:
        return EvalReport(ks=ks, recall={k: 0.0 for k in ks},
                          precision={k: 0.0 for k in ks}, ndcg=0.0, mrr=0.0,
                          users=0)
    ranks = np.empty(test.nnz, dtype=np.int64)
    for u in _batched_ranks(factors, train, test, with_test, ranks).tolist():
        a, b = test.row_indptr[u], test.row_indptr[u + 1]
        ranks[a:b] = _exact_ranks(factors, train, u, test.row_items[a:b])
    counts = test.row_counts[with_test]
    starts = test.row_indptr[with_test]
    rec = {k: np.empty(users) for k in ks}
    pre = {k: np.empty(users) for k in ks}
    ndcg = np.empty(users)
    mrr = np.empty(users)
    for t in np.unique(counts).tolist():
        sel = np.flatnonzero(counts == t)
        # one row per user: a row sum adds in the order a user's own sum does
        R = ranks[starts[sel, None] + np.arange(t)]
        for k in ks:
            hits = np.count_nonzero(R <= k, axis=1)
            rec[k][sel] = hits / t
            pre[k][sel] = hits / k
        ndcg[sel] = (1.0 / np.log2(R + 1.0)).sum(axis=1) / _idcg(t)
        mrr[sel] = (1.0 / R).sum(axis=1)
    return EvalReport(
        ks=ks,
        recall={k: _in_order_sum(rec[k]) / users for k in ks},
        precision={k: _in_order_sum(pre[k]) / users for k in ks},
        ndcg=_in_order_sum(ndcg) / users,
        mrr=_in_order_sum(mrr) / users,
        users=users,
    )


def _in_order_sum(values: np.ndarray) -> float:
    """values[0] + values[1] + ... left to right, as a running total adds
    them (np.sum's pairwise order would round differently)."""
    return float(np.cumsum(values)[-1])


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
        if kind == "walk":  # its law is gamma's: no importance weights
            draw, weighted = WalkEngine(graph, train, sampler_cfg).sample_batch, False
        else:
            sampler = BaselineSampler(kind, train)
            _check_support(sampler, gamma, train)
            draw, weighted = partial(sampler.sample, batch_size), True
        est = np.empty((repeats, coords.shape[0]))
        for r in range(repeats):
            batch = draw(rng)
            w = gamma[batch.users, batch.items] / batch.probs if weighted else None
            dP, dQ = accumulate_pair_gradients(
                factors, batch.users, batch.items, batch.labels, weights=w)
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

"""Exposure-confidence propagation and the variational objective it serves.

Each user-item pair carries a confidence weight gamma_ui, read as the
posterior probability that user u was exposed to item i. Weights are not
free parameters: one item's column gamma_.i is produced by unrolling

    gamma^(0) = x_.i
    gamma^(t+1) = (1 - c) * x_.i + c * W gamma^(t)

for t_m steps, where W is a row-stochastic user-to-user transition
(graphnet). Because 0 <= c < 1 the map is a sup-norm contraction with
modulus c, so the iterate sits within c^t_m of the unique fixed point
(I - cW)^{-1} (1 - c) x regardless of the starting column.

The training objective for a set of item columns is

    V = sum_ui gamma_ui * ll(x_ui, sigma_ui) + sum_ui g(gamma_ui; x_ui)

with ll the Bernoulli log likelihood of the preference model and g the
confidence regularizer below. phi_objective_and_backward differentiates V
through the unrolled recurrence with respect to every graph logit by
reverse-mode accumulation over the tape of intermediates.
"""

from __future__ import annotations

import numpy as np

from .corpus import InteractionMatrix
from .errors import GuardError
from .factors import PreferenceFactors, TAU, sigmoid
from .graphnet import normalize_edges

GAMMA_CLAMP = 1e-12


def _clog(v) -> np.ndarray:
    """log with the argument floored at GAMMA_CLAMP, so 0 * log 0 == 0."""
    return np.log(np.maximum(v, GAMMA_CLAMP))


def g_term(gamma, x, eta: float, epsilon: float) -> np.ndarray:
    """Confidence regularizer g(gamma; x) from the variational bound.

    g = (1 - gamma) * ll(x, epsilon) + ll(gamma, eta) - ll(gamma, gamma),
    ll(a, b) = a log b + (1 - a) log(1 - b). The last term is the negative
    entropy of gamma, so g rewards weights near the prior eta and, for x = 1,
    penalizes explaining a click as accidental (epsilon-level) exposure.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    le = x * _clog(epsilon) + (1.0 - x) * _clog(1.0 - epsilon)
    prior = gamma * _clog(eta) + (1.0 - gamma) * _clog(1.0 - eta)
    ent = gamma * _clog(gamma) + (1.0 - gamma) * _clog(1.0 - gamma)
    return (1.0 - gamma) * le + prior - ent


def g_term_grad(gamma, x, eta: float, epsilon: float) -> np.ndarray:
    """d g / d gamma, with the logit of gamma clamped like the logs."""
    gamma = np.asarray(gamma, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    le = x * _clog(epsilon) + (1.0 - x) * _clog(1.0 - epsilon)
    return -le + _clog(eta) - _clog(1.0 - eta) - _clog(gamma) + _clog(1.0 - gamma)


def _check_propagation_args(t_m: int, c: float) -> None:
    if t_m < 0:
        raise ValueError("t_m must be nonnegative")
    if not 0.0 <= c < 1.0:
        raise ValueError("c must lie in [0, 1)")


def _item_columns(X: InteractionMatrix, items: np.ndarray) -> np.ndarray:
    cols = np.zeros((X.n, items.shape[0]), dtype=np.float64)
    for jj, j in enumerate(items):
        cols[X.col(int(j)), jj] = 1.0
    return cols


def propagate_columns(graph, Xcols: np.ndarray, t_m: int, c: float,
                      keep_tape: bool = False):
    """Unroll the recurrence on a block of columns; optionally keep the tape.

    Returns (gamma, gammas, parts) where gammas lists gamma^(0..t_m) and
    parts lists the pseudo-mode bridge intermediates per step (None entries
    in social mode). Without keep_tape both lists are None.
    """
    _check_propagation_args(t_m, c)
    graph = normalize_edges(graph)
    gamma = Xcols
    gammas = [Xcols] if keep_tape else None
    parts_list = [] if keep_tape else None
    for _ in range(t_m):
        wg, parts = graph.apply_W_parts(gamma)
        gamma = (1.0 - c) * Xcols + c * wg
        if keep_tape:
            gammas.append(gamma)
            parts_list.append(parts)
    return gamma, gammas, parts_list


def forward_tape(graph, X: InteractionMatrix, items: np.ndarray, t_m: int,
                 c: float):
    """The graph step's taped forward on the given item columns: the
    propagate_columns result (gamma, gammas, parts) with keep_tape, whose
    gammas[0] is the columns' indicator block. It reads the graph and X
    only, so it can run while the factors change."""
    return propagate_columns(graph, _item_columns(X, items), t_m, c,
                             keep_tape=True)


def propagate_forward(graph, X: InteractionMatrix, item: int, t_m: int,
                      c: float) -> np.ndarray:
    """Confidence column gamma_.item after t_m propagation sweeps."""
    if not 0 <= item < X.m:
        raise IndexError(f"item id {item} out of range [0, {X.m})")
    cols = _item_columns(X, np.asarray([item], dtype=np.int64))
    gamma, _, _ = propagate_columns(graph, cols, t_m, c)
    return gamma[:, 0]


def _column_likelihood(factors: PreferenceFactors, X: InteractionMatrix,
                       items: np.ndarray, Xcols: np.ndarray) -> np.ndarray:
    sig = np.clip(sigmoid(factors.P @ factors.Q[items].T), TAU, 1.0 - TAU)
    return Xcols * np.log(sig) + (1.0 - Xcols) * np.log1p(-sig)


def elbo_value(graph, factors: PreferenceFactors, X: InteractionMatrix,
               items, t_m: int, c: float, eta: float, epsilon: float) -> float:
    """Objective V over the given item columns at the current parameters."""
    items = np.asarray(items, dtype=np.int64)
    Xcols = _item_columns(X, items)
    gamma, _, _ = propagate_columns(graph, Xcols, t_m, c)
    ll = _column_likelihood(factors, X, items, Xcols)
    return float(np.sum(gamma * ll) + np.sum(g_term(gamma, Xcols, eta, epsilon)))


def full_objective(graph, factors: PreferenceFactors, X: InteractionMatrix,
                   t_m: int, c: float, eta: float, epsilon: float,
                   max_cells: int = 10_000_000) -> float:
    """V over every item column. Guarded; for monitoring and tests."""
    if X.n * X.m > max_cells:
        raise GuardError(f"full objective on {X.n}x{X.m} exceeds {max_cells} cells")
    return elbo_value(graph, factors, X, np.arange(X.m), t_m, c, eta, epsilon)


def phi_objective_and_backward(params, factors: PreferenceFactors,
                               X: InteractionMatrix, items, t_m: int, c: float,
                               eta: float, epsilon: float, tape=None):
    """Objective over the selected item columns and its graph-logit gradient.

    The forward pass tapes gamma^(0..t_m) and the bridge intermediates; the
    reverse pass walks the tape once, accumulating gradients in probability
    space and pulling them back through the softmax (and, in pseudo mode, the
    mixing sigmoid) at the end. Cost is O(t_m * edges * len(items)).

    tape, if given, is forward_tape's result for the same fold, items, t_m
    and c, and the forward pass is skipped.
    """
    items = np.asarray(items, dtype=np.int64)
    if items.size and (items.min() < 0 or items.max() >= X.m):
        raise IndexError("item id out of range")
    mat = normalize_edges(params)
    if tape is None:
        tape = forward_tape(mat, X, items, t_m, c)
    gamma, gammas, parts_list = tape
    Xcols = gammas[0]
    ll = _column_likelihood(factors, X, items, Xcols)
    value = float(np.sum(gamma * ll) + np.sum(g_term(gamma, Xcols, eta, epsilon)))
    gbar = ll + g_term_grad(gamma, Xcols, eta, epsilon)
    return value, mat.backward(gammas, parts_list, gbar, t_m, c)
